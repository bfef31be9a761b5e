//! The C10K load generator behind `dqs bench c10k`.
//!
//! Since the workload subsystem landed, this is a thin preset over
//! [`mod@dqs_workload::replay`]: a flood trace — every arrival due at t = 0,
//! one tiny spec — fired open-loop at the mediator. The reactor loop,
//! session state machines, and latency accounting live in
//! `dqs-workload`; this module keeps the classic options, report shape,
//! and `BENCH_c10k.json` format byte-compatible with the original
//! generator.
//!
//! Reported latency is submit-to-terminal wall time per session, which
//! under a saturated mediator is dominated by queueing delay; p50/p99/
//! p999 therefore characterise the admission queue, and `throughput` the
//! executor pool's drain rate.

use std::io;
use std::time::Duration;

use dqs_workload::{replay, ReplayOpts, Trace};

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

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct C10kOpts {
    /// Mediator address (`host:port`).
    pub addr: String,
    /// Total sessions to open. The mediator's `--backlog` must admit
    /// `sessions - max_concurrent` of them or the overflow is Rejected
    /// (and counted as errored here).
    pub sessions: usize,
    /// Strategy submitted with every query.
    pub strategy: String,
    /// Workload spec submitted with every query.
    pub spec_json: String,
    /// Connections opened per reactor loop iteration (the arrival burst
    /// size).
    pub connect_batch: usize,
    /// Give up (counting unfinished sessions as errored) after this long.
    pub timeout: Duration,
}

impl Default for C10kOpts {
    fn default() -> Self {
        C10kOpts {
            addr: String::new(),
            sessions: 11_500,
            strategy: "dse".into(),
            spec_json: TINY_SPEC.into(),
            connect_batch: 250,
            timeout: Duration::from_secs(600),
        }
    }
}

/// What a bench run observed.
#[derive(Debug, Clone)]
pub struct C10kReport {
    /// Sessions attempted.
    pub sessions: usize,
    /// Sessions that reached `Done`.
    pub completed: usize,
    /// Sessions that failed: connect errors, `Rejected`, `Error`, torn
    /// connections, or still unfinished at the deadline.
    pub errored: usize,
    /// Most sessions simultaneously open (submitted, terminal not yet
    /// received).
    pub peak_concurrent: usize,
    /// First connect to last terminal, seconds.
    pub duration_secs: f64,
    /// Completed sessions per second over the whole run.
    pub throughput_per_sec: f64,
    /// Median submit→terminal latency, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile latency, milliseconds.
    pub p999_ms: f64,
    /// Worst completed-session latency, milliseconds.
    pub max_ms: f64,
}

impl C10kReport {
    /// Flat JSON rendering (the `BENCH_c10k.json` payload).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sessions\":{},\"completed\":{},\"errored\":{},\
             \"peak_concurrent\":{},\"duration_secs\":{:.3},\
             \"throughput_per_sec\":{:.1},\"p50_ms\":{:.2},\
             \"p99_ms\":{:.2},\"p999_ms\":{:.2},\"max_ms\":{:.2}}}",
            self.sessions,
            self.completed,
            self.errored,
            self.peak_concurrent,
            self.duration_secs,
            self.throughput_per_sec,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.max_ms
        )
    }
}

/// Drive `opts.sessions` sessions against the mediator at `opts.addr`
/// and measure the distribution of their completion times.
pub fn run_c10k(opts: &C10kOpts) -> io::Result<C10kReport> {
    let trace = Trace::flood(opts.sessions, &opts.spec_json, &opts.strategy);
    let report = replay(
        &trace,
        &ReplayOpts {
            addr: opts.addr.clone(),
            connect_batch: opts.connect_batch,
            timeout: opts.timeout,
        },
    )?;
    Ok(C10kReport {
        sessions: opts.sessions,
        completed: report.completed,
        // The classic report folded Rejected into errored (a c10k run is
        // judged on every session completing).
        errored: report.errored + report.rejected,
        peak_concurrent: report.peak_concurrent,
        duration_secs: report.duration_secs,
        throughput_per_sec: report.throughput_per_sec,
        p50_ms: report.total.p50_ms,
        p99_ms: report.total.p99_ms,
        p999_ms: report.total.p999_ms,
        max_ms: report.total.max_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_parseable() {
        let r = C10kReport {
            sessions: 100,
            completed: 99,
            errored: 1,
            peak_concurrent: 98,
            duration_secs: 1.5,
            throughput_per_sec: 66.0,
            p50_ms: 10.0,
            p99_ms: 50.0,
            p999_ms: 70.0,
            max_ms: 71.5,
        };
        let v = dqs_exec::json::parse(&r.to_json()).expect("valid JSON");
        let get = |k: &str| v.get(k);
        assert_eq!(get("peak_concurrent").and_then(|v| v.as_u64()), Some(98));
        assert!(get("p99_ms").is_some());
    }
}
