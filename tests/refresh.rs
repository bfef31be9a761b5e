//! End-to-end freshness tests: a churning wrapper-server under a
//! refreshing mediator, real TCP in between.
//!
//! The acceptance bar is bit-identity: after the wrapper's relations
//! mutate, a warm (cache-served) submission must return exactly the
//! answer a `--no-cache` truth run computes against the wrapper's
//! *current* state — the background refresher is what closes that gap,
//! by appending insert-only tails (cheap) or swapping full re-scans
//! (rewrites) into the resident entries.

use std::time::{Duration, Instant};

use dqs_mediator::{submit, MediatorServer, ServeOpts, SubmitOpts, WrapperServer};
use dqs_relop::RelId;

/// Lift one integer counter out of the raw metrics JSON a run reports.
fn metric_u64(raw: &str, key: &str) -> u64 {
    let v = dqs_exec::json::parse(raw).expect("metrics JSON parses");
    v.get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics JSON lacks {key}: {raw}"))
}

/// A quickstart-shaped spec with delays fast enough that refresh fetches
/// finish well inside one polling interval.
const SPEC: &str = r#"{
    "relations": [
        {"name": "orders",    "cardinality": 2000, "delay": {"uniform_us": 5}},
        {"name": "customers", "cardinality": 3000, "delay": {"constant_us": 4}}
    ],
    "joins": [{"left": "orders", "right": "customers", "selectivity": 1e-4}],
    "config": {"seed": 42}
}"#;

/// A refreshing mediator over one wrapper group, with the given refresh
/// traffic budget (0 = unlimited).
fn refresh_mediator(wrapper_addr: &str, budget_kbps: u64) -> MediatorServer {
    MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![format!("w0={wrapper_addr}")],
            cache_bytes: 8 << 20,
            refresh_interval: Some(Duration::from_millis(100)),
            refresh_budget_kbps: budget_kbps,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator")
}

/// Poll the mediator's cache stats until `pred` holds or the deadline
/// passes; panics with `what` on timeout.
fn await_stats(
    mediator: &MediatorServer,
    what: &str,
    pred: impl Fn(&dqs_cache::CacheStats) -> bool,
) -> dqs_cache::CacheStats {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = mediator.cache_stats().expect("cache configured");
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The tentpole acceptance check: append tuples behind the mediator's
/// back, let the refresher catch up via a tail delta, and verify the
/// warm cache-served answer is bit-identical to a `--no-cache` truth run
/// at the wrapper's current version — with zero stale hits and zero full
/// re-scan bytes (insert-only growth must refresh by delta).
#[test]
fn delta_refresh_keeps_warm_answers_bit_identical_after_appends() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let mediator = refresh_mediator(&wrapper.local_addr().to_string(), 0);
    let addr = mediator.local_addr();

    let cold = submit(addr, SPEC, &SubmitOpts::default(), |_| {}).expect("cold run");
    assert!(metric_u64(&cold.raw, "cache_misses") >= 1);

    // Mutate both relations the cold run registered on the wrapper.
    assert!(wrapper.mutate_append(RelId(0), 48), "orders registered");
    assert!(wrapper.mutate_append(RelId(1), 48), "customers registered");

    let stats = await_stats(&mediator, "a delta refresh to land", |s| {
        s.refreshes >= 2 && s.refresh_delta_bytes > 0
    });
    assert_eq!(
        stats.refresh_full_bytes, 0,
        "insert-only growth must refresh by tail delta, not full re-scan"
    );
    // Two relations, 48 tuples each, 8 bytes per key.
    assert_eq!(stats.refresh_delta_bytes, 2 * 48 * 8);

    let mut warm_lines = Vec::new();
    let traced = SubmitOpts {
        trace: true,
        ..SubmitOpts::default()
    };
    let warm = submit(addr, SPEC, &traced, |p| {
        if let dqs_mediator::Progress::TraceLine(l) = p {
            warm_lines.push(l);
        }
    })
    .expect("warm run");
    assert!(
        warm_lines
            .iter()
            .any(|l| l.contains("\"type\":\"cache_hit\"")),
        "the refreshed entry must still serve warm hits"
    );
    assert!(metric_u64(&warm.raw, "cache_hits") >= 1);
    assert_eq!(
        metric_u64(&warm.raw, "stale_served"),
        0,
        "an unlimited budget leaves nothing stale: {}",
        warm.raw
    );
    assert!(metric_u64(&warm.raw, "refreshes") >= 2);

    let truth = submit(
        addr,
        SPEC,
        &SubmitOpts {
            no_cache: true,
            ..SubmitOpts::default()
        },
        |_| {},
    )
    .expect("truth run");
    assert_eq!(
        warm.output_tuples, truth.output_tuples,
        "refreshed warm answer must be bit-identical to the no-cache truth"
    );
    mediator.shutdown();
    wrapper.shutdown();
}

/// A rewrite bumps the wrapper's `rewrite_version`, so the tail-delta
/// shortcut is off the table: the refresher must re-scan from zero, and
/// the warm answer must again match the truth run.
#[test]
fn rewrites_force_a_full_rescan_and_still_converge() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let mediator = refresh_mediator(&wrapper.local_addr().to_string(), 0);
    let addr = mediator.local_addr();

    submit(addr, SPEC, &SubmitOpts::default(), |_| {}).expect("cold run");
    assert!(wrapper.mutate_rewrite(RelId(0)), "orders registered");

    let stats = await_stats(&mediator, "a full re-scan to land", |s| {
        s.refresh_full_bytes > 0
    });
    // The rewritten relation re-fetched all 2000 keys at 8 bytes each.
    assert!(stats.refresh_full_bytes >= 2000 * 8, "{stats:?}");

    let warm = submit(addr, SPEC, &SubmitOpts::default(), |_| {}).expect("warm run");
    assert!(metric_u64(&warm.raw, "cache_hits") >= 1);
    let truth = submit(
        addr,
        SPEC,
        &SubmitOpts {
            no_cache: true,
            ..SubmitOpts::default()
        },
        |_| {},
    )
    .expect("truth run");
    assert_eq!(warm.output_tuples, truth.output_tuples);
    mediator.shutdown();
    wrapper.shutdown();
}

/// A starvation-level budget cannot afford any delta, so the planner
/// defers the entry and marks it stale; warm hits on it are still served
/// (availability over freshness) but honestly counted as `stale_served`.
#[test]
fn over_budget_entries_are_deferred_and_stale_hits_are_counted() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    // 1 KiB/s over a 100 ms cycle is ~102 bytes — below even one
    // relation's 48-tuple (384-byte) delta.
    let mediator = refresh_mediator(&wrapper.local_addr().to_string(), 1);
    let addr = mediator.local_addr();

    let cold = submit(addr, SPEC, &SubmitOpts::default(), |_| {}).expect("cold run");
    assert!(wrapper.mutate_append(RelId(0), 48), "orders registered");

    // The refresher can only defer; a warm hit then reports staleness.
    let deadline = Instant::now() + Duration::from_secs(30);
    let warm = loop {
        let m = submit(addr, SPEC, &SubmitOpts::default(), |_| {}).expect("warm run");
        if metric_u64(&m.raw, "stale_served") >= 1 {
            break m;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for a stale-served hit: {}",
            m.raw
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    // Stale is still served: the answer is the capture-time answer.
    assert_eq!(warm.output_tuples, cold.output_tuples);
    let stats = mediator.cache_stats().expect("cache configured");
    assert_eq!(stats.refresh_delta_bytes, 0, "nothing was affordable");
    assert_eq!(stats.refresh_full_bytes, 0);
    mediator.shutdown();
    wrapper.shutdown();
}

/// The refresher's stat polls are control-plane dials, not scans: with
/// no session ever submitted, no endpoint may show an open — polls that
/// counted as opens inflated `replica_health` every cycle and used up
/// each endpoint's explore-first turn before any scan could measure it.
#[test]
fn refresh_polls_do_not_count_as_scan_opens() {
    let rep_a = WrapperServer::bind("127.0.0.1:0").expect("bind replica a");
    let rep_b = WrapperServer::bind("127.0.0.1:0").expect("bind replica b");
    let mediator = refresh_mediator(&format!("{},{}", rep_a.local_addr(), rep_b.local_addr()), 0);
    // Several 100 ms refresh cycles, zero sessions.
    std::thread::sleep(Duration::from_millis(600));
    let health = mediator.replica_health();
    let opens: Vec<u64> = health
        .iter()
        .flat_map(|(_, eps)| eps.iter().map(|e| e.opens))
        .collect();
    assert_eq!(opens, vec![0, 0], "{health:?}");
    mediator.shutdown();
    rep_a.shutdown();
    rep_b.shutdown();
}
