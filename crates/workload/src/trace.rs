//! The trace file: a timestamped schedule of query submissions.
//!
//! A trace is the contract between the generator and the replay harness —
//! and, written to disk, between a `dqs workload gen` run today and a
//! `dqs workload replay` run next week. It holds a pool of unique spec
//! JSON strings and a time-ordered event list referencing them by index,
//! so a Zipf-popular spec appears once in the pool no matter how many
//! thousand submissions reference it (which is also what makes replay
//! exercise the mediator's result cache the way repeated real queries
//! would).
//!
//! # File format (version 1)
//!
//! ```json
//! {
//!   "version": 1,
//!   "seed": 42,
//!   "specs": ["{...spec json...}", "..."],
//!   "events": [
//!     {"at_ms": 0, "spec": 3, "strategy": "dse"},
//!     {"at_ms": 17, "spec": 0, "strategy": "seq"}
//!   ]
//! }
//! ```
//!
//! `at_ms` is milliseconds from replay start; events are kept sorted by
//! it. Spec strings are embedded as JSON string literals (escaped), so
//! the file round-trips through the same serde-free parser the rest of
//! the system uses.

use dqs_exec::json::{self, arr, fields, obj, Json, ToJson};

/// One scheduled submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Submission time, milliseconds from replay start.
    pub at_ms: u64,
    /// Index into [`Trace::specs`].
    pub spec: usize,
    /// Scheduling strategy to submit with (`seq|ma|scr|dse`).
    pub strategy: String,
}

impl ToJson for &TraceEvent {
    fn write_json(self, out: &mut String) {
        obj(|o| fields!(o, "at_ms": self.at_ms, "spec": self.spec, "strategy": &self.strategy))
            .write_json(out)
    }
}

/// A generated workload: the spec pool plus the arrival schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The generator seed (recorded for provenance; replay ignores it).
    pub seed: u64,
    /// Unique workload specs, as spec-JSON strings.
    pub specs: Vec<String>,
    /// Submissions in nondecreasing `at_ms` order.
    pub events: Vec<TraceEvent>,
}

/// The spec `dqs bench c10k` floods a mediator with unless told otherwise.
///
/// A deliberately tiny workload: two 64-tuple relations and one join,
/// paced at wrapper-like millisecond delays so a session spends its
/// ~200 ms *sleeping on arrivals*, not burning CPU. That is both the
/// honest shape of the paper's workloads (wrapper latency dominates)
/// and what lets an open-loop generator actually pile sessions up: the
/// executors sleep, the core stays free for the accept path, and the
/// backlog — not the CPU — absorbs the load.
pub const TINY_SPEC: &str = r#"{
  "relations": [
    {"name": "a", "cardinality": 64, "delay": {"constant_us": 3000}},
    {"name": "b", "cardinality": 64, "delay": {"constant_us": 3000}}
  ],
  "joins": [{"left": "a", "right": "b", "selectivity": 0.002}],
  "config": {"seed": 7}
}"#;

impl Trace {
    /// A degenerate trace: `sessions` submissions of one spec, all due at
    /// t=0 — the open-loop flood `dqs bench c10k` fires. Submit-to-terminal
    /// latency under it is dominated by queueing, so the total percentiles
    /// characterise the admission queue and `throughput_per_sec` the
    /// executor pool's drain rate.
    pub fn flood(sessions: usize, spec_json: &str, strategy: &str) -> Trace {
        Trace {
            seed: 0,
            specs: vec![spec_json.to_string()],
            events: (0..sessions)
                .map(|_| TraceEvent {
                    at_ms: 0,
                    spec: 0,
                    strategy: strategy.to_string(),
                })
                .collect(),
        }
    }

    /// When the last submission fires, milliseconds from start.
    pub fn duration_ms(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at_ms)
    }

    /// Serialize to the version-1 trace file format (no trailing
    /// newline). Deterministic: equal traces render byte-identically.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            fields!(o,
                "version": 1u64, "seed": self.seed, "specs": arr(&self.specs),
                "events": arr(&self.events)
            )
        })
    }

    /// Parse a version-1 trace file. Events are re-sorted by `at_ms`
    /// (stably, so equal-time order is preserved) and spec indices are
    /// validated against the pool.
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let v = json::parse(text).map_err(|e| format!("trace: {e}"))?;
        v.as_object().ok_or("trace: not a JSON object")?;
        let get = |k: &str| v.get(k);
        match get("version").and_then(Json::as_u64) {
            Some(1) => {}
            Some(v) => return Err(format!("trace: unsupported version {v}")),
            None => return Err("trace: missing version".into()),
        }
        let seed = get("seed").and_then(Json::as_u64).unwrap_or(0);
        let specs: Vec<String> = get("specs")
            .and_then(Json::as_array)
            .ok_or("trace: missing specs array")?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or("trace: specs must be strings")?;
        let raw = get("events")
            .and_then(Json::as_array)
            .ok_or("trace: missing events array")?;
        let mut events = Vec::with_capacity(raw.len());
        for (i, ev) in raw.iter().enumerate() {
            ev.as_object()
                .ok_or_else(|| format!("trace: event {i} is not an object"))?;
            let eget = |k: &str| ev.get(k);
            let at_ms = eget("at_ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace: event {i} missing at_ms"))?;
            let spec = eget("spec")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace: event {i} missing spec"))?
                as usize;
            if spec >= specs.len() {
                return Err(format!(
                    "trace: event {i} references spec {spec}, pool has {}",
                    specs.len()
                ));
            }
            let strategy = eget("strategy")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("trace: event {i} missing strategy"))?
                .to_string();
            events.push(TraceEvent {
                at_ms,
                spec,
                strategy,
            });
        }
        events.sort_by_key(|e| e.at_ms);
        Ok(Trace {
            seed,
            specs,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            seed: 9,
            specs: vec![
                r#"{"relations":[{"name":"a","cardinality":4}],"joins":[]}"#.into(),
                r#"{"relations":[{"name":"b","cardinality":8}],"joins":[]}"#.into(),
            ],
            events: vec![
                TraceEvent {
                    at_ms: 0,
                    spec: 1,
                    strategy: "dse".into(),
                },
                TraceEvent {
                    at_ms: 12,
                    spec: 0,
                    strategy: "seq".into(),
                },
            ],
        }
    }

    #[test]
    fn trace_round_trips_through_json() {
        // A seed above 2^53 is not an exact `f64`; it must survive too.
        for seed in [9, u64::MAX] {
            let t = Trace { seed, ..sample() };
            let back = Trace::from_json(&t.to_json()).expect("round trip");
            assert_eq!(back, t);
            assert_eq!(back.to_json(), t.to_json(), "re-render is byte-stable");
        }
    }

    #[test]
    fn embedded_specs_survive_escaping_and_reparse_as_json() {
        let t = sample();
        let back = Trace::from_json(&t.to_json()).unwrap();
        for spec in &back.specs {
            dqs_exec::json::parse(spec).expect("pool spec is itself valid JSON");
        }
    }

    #[test]
    fn out_of_order_events_are_sorted_on_load() {
        let text = r#"{"version":1,"seed":0,"specs":["{}"],
            "events":[{"at_ms":50,"spec":0,"strategy":"dse"},
                      {"at_ms":5,"spec":0,"strategy":"dse"}]}"#;
        let t = Trace::from_json(text).unwrap();
        assert_eq!(t.events[0].at_ms, 5);
        assert_eq!(t.duration_ms(), 50);
    }

    #[test]
    fn bad_traces_are_rejected_with_reasons() {
        assert!(Trace::from_json("[]").is_err(), "not an object");
        assert!(Trace::from_json("{\"version\":2,\"specs\":[],\"events\":[]}").is_err());
        let dangling = r#"{"version":1,"specs":["{}"],
            "events":[{"at_ms":0,"spec":7,"strategy":"dse"}]}"#;
        let err = Trace::from_json(dangling).unwrap_err();
        assert!(err.contains("spec 7"), "{err}");
    }

    #[test]
    fn flood_is_all_at_time_zero() {
        let t = Trace::flood(3, "{}", "dse");
        assert_eq!(t.events.len(), 3);
        assert!(t.events.iter().all(|e| e.at_ms == 0 && e.spec == 0));
        assert_eq!(t.duration_ms(), 0);
    }
}
