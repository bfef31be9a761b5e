//! The benchmark's own tracing: spans around each call into a layer,
//! kept in memory while the run measures and written as JSON lines when
//! it ends. Spans inside the program are a later change; these are
//! recorded from the load generator's side of every boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Position of the session in the workload's list; `None` for probes.
    pub session: Option<usize>,
}

/// A span sink one thread owns. Disabled recorders drop everything, so
/// the untraced run executes the same code minus the pushes.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end)`; the returned index names it as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        session: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            session,
        });
        Some(self.spans.len() - 1)
    }

    /// Time `body` as one parentless span.
    pub fn time<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = body();
        self.push(name, start, Instant::now(), None, None);
        out
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Microseconds each span spent outside its children.
    fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64() * 1e6;
            }
        }
        own
    }

    /// The span file: one JSON object per line, times in microseconds
    /// since `origin`.
    pub fn to_jsonl(&self, origin: Instant) -> String {
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{},\"session\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                opt(s.parent),
                opt(s.session),
            );
        }
        out
    }

    /// Per span name: count, total and self milliseconds.
    pub fn summary(&self) -> String {
        let own = self.self_times_us();
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, own_us) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).as_secs_f64() * 1e3;
            e.2 += own_us / 1e3;
        }
        let mut out = format!(
            "{:<44} {:>8} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in by_name {
            let _ = writeln!(out, "{name:<44} {n:>8} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// Share of all `root` spans' time their direct children account for;
    /// 1.0 means the per-session spans sum to the session's latency.
    pub fn child_coverage(&self, root: &str) -> f64 {
        let own = self.self_times_us();
        let (mut total, mut uncovered) = (0.0, 0.0);
        for (s, own_us) in self.spans.iter().zip(&own) {
            if s.name == root {
                total += (s.end - s.start).as_secs_f64() * 1e6;
                uncovered += own_us;
            }
        }
        crate::stats::ratio(total - uncovered, total)
    }
}
