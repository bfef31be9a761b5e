//! Workload subsystem integration tests: the generator's determinism
//! contract (equal seeds ⇒ byte-identical traces), the trace file
//! round-trip, and an end-to-end replay of a generated Zipf/Poisson
//! trace against an in-process mediator under SJF admission.
//!
//! The admission-policy unit tests (FIFO invariant, SJF cheapest-first)
//! live with `SessionTable` in `dqs-core`, and the SJF key's (LWB, cached
//! scans at zero) with the mediator server; these tests cover the harness
//! built on top of them.

use std::time::Duration;

use dqs_mediator::{MediatorServer, ServeOpts};
use dqs_workload::{generate, replay, Arrival, GenOpts, Grammar, ReplayOpts, Trace};
use proptest::prelude::*;

fn opts(seed: u64, specs: usize, events: usize, zipf_s: f64, arrival: Arrival) -> GenOpts {
    GenOpts {
        seed,
        specs,
        events,
        zipf_s,
        arrival,
        grammar: Grammar::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The headline generator contract: the same options produce a
    /// byte-identical trace file, for every arrival process.
    #[test]
    fn equal_seeds_generate_byte_identical_traces(
        seed in 0u64..100_000,
        specs in 1usize..12,
        events in 1usize..200,
        zipf_s in 0.0f64..2.0,
        which in 0usize..3,
    ) {
        let arrival = match which {
            0 => Arrival::Poisson { rate_per_sec: 150.0 },
            1 => Arrival::Bursty { rate_per_sec: 300.0, on_ms: 100, off_ms: 150 },
            _ => Arrival::Diurnal { base_per_sec: 20.0, peak_per_sec: 200.0, period_ms: 2_000 },
        };
        let a = generate(&opts(seed, specs, events, zipf_s, arrival.clone()));
        let b = generate(&opts(seed, specs, events, zipf_s, arrival));
        prop_assert_eq!(a.to_json(), b.to_json());
        // And a different seed perturbs *something* (arrival schedule or
        // specs) for any non-trivial trace.
        let c = generate(&opts(seed ^ 0xDEAD_BEEF, specs, events, zipf_s,
            Arrival::Poisson { rate_per_sec: 150.0 }));
        if events >= 8 {
            prop_assert_ne!(a.to_json(), c.to_json());
        }
    }

    /// The trace file round-trips: parse(serialize(t)) == t.
    #[test]
    fn trace_json_round_trips(
        seed in 0u64..100_000,
        specs in 1usize..8,
        events in 1usize..100,
    ) {
        let t = generate(&opts(seed, specs, events, 1.1,
            Arrival::Poisson { rate_per_sec: 200.0 }));
        let back = Trace::from_json(&t.to_json()).expect("trace parses");
        prop_assert_eq!(t.to_json(), back.to_json());
    }
}

/// End-to-end: a generated Zipf/Poisson trace replayed open-loop
/// against a live in-process mediator with `--admission sjf` and the
/// result cache on. Every session must complete, Zipf repeats must hit
/// the cache, and the server must have recorded queue-wait samples.
#[test]
fn generated_trace_replays_cleanly_under_sjf_admission() {
    let trace = generate(&opts(
        7,
        6,
        120,
        1.2,
        Arrival::Poisson {
            rate_per_sec: 150.0,
        },
    ));
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            max_concurrent: 4,
            backlog: 256,
            cache_bytes: 8 << 20,
            admission: dqs_core::AdmissionPolicy::Sjf,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");

    let report = replay(
        &trace,
        &ReplayOpts {
            addr: mediator.local_addr().to_string(),
            connect_batch: 50,
            timeout: Duration::from_secs(120),
        },
    )
    .expect("replay runs");

    assert_eq!(report.errored, 0, "no session may fail: {report:?}");
    assert_eq!(report.rejected, 0, "backlog was sized for the trace");
    assert_eq!(report.completed, trace.events.len());
    assert!(
        report.cache_hits > 0,
        "Zipf repeats of a popular spec must hit the result cache"
    );
    assert!(report.total.p99_ms >= report.total.p50_ms);
    assert!(report.total.p999_ms >= report.total.p99_ms);
    // The latency split is a decomposition of the total.
    assert!(report.total.max_ms >= report.exec.p50_ms);

    // The server-side queue-wait instrumentation saw every session.
    let hist = mediator.metrics().queue_wait_histogram();
    assert_eq!(
        hist.count(),
        trace.events.len() as u64,
        "one queue-wait sample per executed session"
    );

    // The report round-trips through its own JSON.
    let v = dqs_exec::json::parse(&report.to_json()).expect("report JSON");
    assert!(v.as_object().is_some());
    mediator.shutdown();
}

/// The same flood trace the `dqs bench c10k` preset uses, replayed under
/// FIFO: positions reported by `Queued` frames follow arrival order, and
/// the queue-wait split is nonzero once sessions actually park.
#[test]
fn flood_trace_queue_wait_split_is_visible_under_fifo() {
    let spec = r#"{
        "relations": [
            {"name": "a", "cardinality": 64, "delay": {"constant_us": 500}},
            {"name": "b", "cardinality": 64, "delay": {"constant_us": 500}}
        ],
        "joins": [{"left": "a", "right": "b", "selectivity": 0.002}],
        "config": {"seed": 7}
    }"#;
    let trace = Trace::flood(40, spec, "dse");
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            max_concurrent: 1,
            backlog: 64,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let report = replay(
        &trace,
        &ReplayOpts {
            addr: mediator.local_addr().to_string(),
            connect_batch: 40,
            timeout: Duration::from_secs(120),
        },
    )
    .expect("replay runs");
    assert_eq!(report.errored, 0, "{report:?}");
    assert_eq!(report.completed, 40);
    assert!(
        report.queued_sessions >= 30,
        "one slot must park nearly the whole flood (saw {})",
        report.queued_sessions
    );
    // With one slot, queue wait dominates execution at the tail.
    assert!(
        report.queue_wait.p99_ms > report.exec.p50_ms,
        "queue-wait split must capture the backlog time: {report:?}"
    );
    mediator.shutdown();
}
