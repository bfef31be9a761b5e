//! Loopback integration tests for the networked mediator: wrapper-server
//! and mediator in one process on ephemeral ports, real TCP in between.
//!
//! The deterministic parts of a run — wrapper payloads, join fan-out,
//! output cardinality — depend only on the seed, not on timing, so a
//! query answered across sockets must produce exactly the tuples the
//! in-process real-time engine produces.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use dqs_core::DsePolicy;
use dqs_exec::spec::WorkloadSpec;
use dqs_exec::{run_workload_realtime, Engine, JsonLinesSink, RealTimeDriver, RunError, Workload};
use dqs_mediator::{
    invalidate, submit, MediatorServer, Progress, ServeOpts, SubmitOpts, WrapperServer,
};
use dqs_source::net::{read_frame, write_frame, Frame};
use dqs_source::{BoxSource, RemoteOpen, RemoteWrapper, SourceError};

/// Lift one integer counter out of the raw metrics JSON a run reports.
fn metric_u64(raw: &str, key: &str) -> u64 {
    let v = dqs_exec::json::parse(raw).expect("metrics JSON parses");
    v.get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics JSON lacks {key}: {raw}"))
}

fn quickstart_json() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/quickstart.json"
    ))
    .expect("quickstart spec readable")
}

fn quickstart_workload() -> Workload {
    WorkloadSpec::from_json(&quickstart_json())
        .and_then(WorkloadSpec::into_workload)
        .expect("quickstart spec valid")
}

/// The tentpole acceptance check: wrapper-server + mediator + client on
/// loopback return the same cardinality as the in-process real-time run
/// of the same spec and seed.
#[test]
fn loopback_flow_matches_in_process_realtime_run() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![wrapper.local_addr().to_string()],
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");

    let mut workload = quickstart_workload();
    // The mediator partitions its budget; give the local baseline the
    // same partition so the runs are configured identically.
    workload.config.memory_bytes = (64 << 20) / 2;
    let local = run_workload_realtime(&workload, DsePolicy::new()).expect("local run");

    let mut saw_accept = false;
    let remote = submit(
        mediator.local_addr(),
        &quickstart_json(),
        &SubmitOpts::default(),
        |p| {
            if matches!(p, Progress::Accepted { .. }) {
                saw_accept = true;
            }
        },
    )
    .expect("remote run");

    assert!(saw_accept, "lifecycle must pass through Accepted");
    assert_eq!(
        remote.output_tuples, local.output_tuples,
        "networked and in-process runs must agree on the answer"
    );
    assert_eq!(remote.strategy, "DSE");
    assert!(remote.response_secs > 0.0);

    mediator.shutdown();
    wrapper.shutdown();
}

/// The cache acceptance check: a warm resubmission of the same spec is
/// answered bit-identically *after the wrapper processes are gone* — the
/// replay sends zero `Open` frames, so nothing is left to refuse them.
#[test]
fn warm_submission_replays_from_cache_without_touching_wrappers() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![wrapper.local_addr().to_string()],
            cache_bytes: 8 << 20,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");

    let traced = SubmitOpts {
        trace: true,
        ..SubmitOpts::default()
    };
    let mut cold_lines = Vec::new();
    let cold = submit(mediator.local_addr(), &quickstart_json(), &traced, |p| {
        if let Progress::TraceLine(l) = p {
            cold_lines.push(l);
        }
    })
    .expect("cold run");
    assert!(
        cold_lines
            .iter()
            .any(|l| l.contains("\"type\":\"cache_miss\"")),
        "a cold run must trace its cache misses"
    );
    assert!(metric_u64(&cold.raw, "cache_misses") >= 1);
    assert_eq!(metric_u64(&cold.raw, "cache_hits"), 0);

    // Kill every wrapper: a warm run can only succeed via the cache.
    wrapper.shutdown();

    let mut warm_lines = Vec::new();
    let warm = submit(mediator.local_addr(), &quickstart_json(), &traced, |p| {
        if let Progress::TraceLine(l) = p {
            warm_lines.push(l);
        }
    })
    .expect("warm run must not need the wrappers");
    assert_eq!(
        warm.output_tuples, cold.output_tuples,
        "warm answer must be bit-identical to cold"
    );
    assert!(
        warm_lines
            .iter()
            .any(|l| l.contains("\"type\":\"cache_hit\"")),
        "a warm run must trace its cache hits"
    );
    assert!(metric_u64(&warm.raw, "cache_hits") >= 1);
    assert_eq!(metric_u64(&warm.raw, "cache_misses"), 0);
    assert!(metric_u64(&warm.raw, "cache_bytes_served") > 0);

    let stats = mediator.cache_stats().expect("cache configured");
    assert!(stats.hits >= 1 && stats.insertions >= 1);
    mediator.shutdown();
}

/// `--no-cache` bypasses both lookup and recording: two opted-out runs
/// never hit, and leave nothing behind for an opted-in run to find.
#[test]
fn no_cache_submissions_bypass_the_cache_entirely() {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            cache_bytes: 8 << 20,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let opted_out = SubmitOpts {
        no_cache: true,
        ..SubmitOpts::default()
    };
    for _ in 0..2 {
        let m = submit(
            mediator.local_addr(),
            &quickstart_json(),
            &opted_out,
            |_| {},
        )
        .expect("opted-out run");
        assert_eq!(metric_u64(&m.raw, "cache_hits"), 0);
        assert_eq!(metric_u64(&m.raw, "cache_misses"), 0);
    }
    let stats = mediator.cache_stats().expect("cache configured");
    assert_eq!(stats.insertions, 0, "no-cache runs must not record");
    mediator.shutdown();
}

/// An `Invalidate` frame drops cached entries, so the next submission
/// misses and re-retrieves from the wrappers.
#[test]
fn invalidation_forces_the_next_submission_to_miss() {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            cache_bytes: 8 << 20,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    let cold = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {}).expect("cold run");
    let warm = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {}).expect("warm run");
    assert!(metric_u64(&warm.raw, "cache_hits") >= 1);

    let (entries, bytes) =
        invalidate(addr, None, None, Duration::ZERO).expect("invalidate round-trip");
    assert!(entries >= 1, "a populated cache reports what it dropped");
    assert!(bytes > 0);

    let recold =
        submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {}).expect("re-cold run");
    assert_eq!(metric_u64(&recold.raw, "cache_hits"), 0);
    assert!(metric_u64(&recold.raw, "cache_misses") >= 1);
    assert_eq!(recold.output_tuples, cold.output_tuples);
    mediator.shutdown();
}

/// Invalidation scoped to a *logical* wrapper id — the replica-group id
/// cache keys actually carry — must clear that wrapper's entries. This
/// is the regression test for the blind spot where keys recorded the
/// group id but `--wrapper` was matched against endpoint addresses, so
/// scoped invalidation silently dropped nothing.
#[test]
fn invalidation_by_logical_wrapper_id_clears_that_wrappers_entries() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let endpoint = wrapper.local_addr().to_string();
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![format!("w0={endpoint}")],
            cache_bytes: 8 << 20,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {}).expect("cold run");
    let warm = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {}).expect("warm run");
    assert!(metric_u64(&warm.raw, "cache_hits") >= 1);

    // A wrapper id nothing is keyed under drops nothing...
    let (entries, bytes) = invalidate(addr, None, Some("w9".into()), Duration::ZERO)
        .expect("no-match invalidate round-trip");
    assert_eq!((entries, bytes), (0, 0), "no entries are keyed under w9");

    // ...while the logical id the keys really carry clears the cache,
    // even though it is not an endpoint address.
    let (entries, bytes) = invalidate(addr, None, Some("w0".into()), Duration::ZERO)
        .expect("scoped invalidate round-trip");
    assert!(
        entries >= 1 && bytes > 0,
        "scoped invalidation must drop the group's entries, got ({entries}, {bytes})"
    );

    let recold =
        submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {}).expect("re-cold run");
    assert_eq!(metric_u64(&recold.raw, "cache_hits"), 0);
    assert!(metric_u64(&recold.raw, "cache_misses") >= 1);
    assert_eq!(recold.output_tuples, warm.output_tuples);
    mediator.shutdown();
    wrapper.shutdown();
}

/// `connect_timeout` retries the dial with backoff: a submit launched
/// before the mediator is listening still lands once it comes up.
#[test]
fn submit_retries_the_connect_until_the_mediator_is_up() {
    // Reserve a port, then free it for the late-starting mediator.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = placeholder.local_addr().expect("reserved addr");
    drop(placeholder);

    let server = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        MediatorServer::bind(addr, ServeOpts::default()).expect("bind mediator late")
    });

    let patient = SubmitOpts {
        connect_timeout: Duration::from_secs(30),
        ..SubmitOpts::default()
    };
    let m = submit(addr, &quickstart_json(), &patient, |_| {})
        .expect("retrying submit reaches the late mediator");
    assert!(m.output_tuples > 0);
    server.join().expect("server thread").shutdown();

    // And a zero timeout is a single attempt: nobody listens, it fails now.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let dead = placeholder.local_addr().expect("reserved addr");
    drop(placeholder);
    let err = submit(dead, &quickstart_json(), &SubmitOpts::default(), |_| {})
        .expect_err("no listener, no retry budget");
    assert!(matches!(err, dqs_mediator::ClientError::Io(_)), "{err}");
}

/// Tracing streams engine events back as frames, ending in the same
/// JSON-lines shapes the in-process sink writes.
#[test]
fn trace_frames_stream_engine_events_to_the_client() {
    let mediator =
        MediatorServer::bind("127.0.0.1:0", ServeOpts::default()).expect("bind mediator");
    let mut lines = Vec::new();
    let remote = submit(
        mediator.local_addr(),
        &quickstart_json(),
        &SubmitOpts {
            trace: true,
            ..SubmitOpts::default()
        },
        |p| {
            if let Progress::TraceLine(l) = p {
                lines.push(l);
            }
        },
    )
    .expect("traced run");
    assert!(remote.output_tuples > 0);
    assert!(!lines.is_empty(), "trace requested but no lines arrived");
    for l in &lines {
        let v = dqs_exec::json::parse(l).expect("each trace line is valid JSON");
        assert!(v.as_object().is_some());
    }
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"arrival\"")),
        "a run always has arrivals"
    );
    mediator.shutdown();
}

/// A bad spec is rejected without consuming an execution slot.
#[test]
fn malformed_spec_is_rejected_not_run() {
    let mediator =
        MediatorServer::bind("127.0.0.1:0", ServeOpts::default()).expect("bind mediator");
    let err = submit(
        mediator.local_addr(),
        "{\"relations\": []}",
        &SubmitOpts::default(),
        |_| {},
    )
    .expect_err("empty relation list cannot plan");
    assert!(
        matches!(err, dqs_mediator::ClientError::Rejected(_)),
        "{err}"
    );
    let stats = mediator.stats();
    assert_eq!(stats.admitted, 0, "no slot consumed");
    mediator.shutdown();
}

/// An unknown strategy is likewise rejected up front.
#[test]
fn unknown_strategy_is_rejected() {
    let mediator =
        MediatorServer::bind("127.0.0.1:0", ServeOpts::default()).expect("bind mediator");
    let err = submit(
        mediator.local_addr(),
        &quickstart_json(),
        &SubmitOpts {
            strategy: "greedy".into(),
            ..SubmitOpts::default()
        },
        |_| {},
    )
    .expect_err("unknown strategy");
    assert!(
        matches!(err, dqs_mediator::ClientError::Rejected(_)),
        "{err}"
    );
    mediator.shutdown();
}

/// A slow workload spec: few enough tuples to finish fast when drained,
/// but paced slowly enough (8 s of source time) that a mid-query kill
/// reliably lands.
const SLOW_SPEC: &str = r#"{
    "relations": [
        {"name": "r", "cardinality": 20000, "delay": {"constant_us": 400}},
        {"name": "s", "cardinality": 20000, "delay": {"constant_us": 400}}
    ],
    "joins": [{"left": "r", "right": "s", "selectivity": 0.0001}]
}"#;

fn slow_workload() -> Workload {
    WorkloadSpec::from_json(SLOW_SPEC)
        .and_then(WorkloadSpec::into_workload)
        .expect("slow spec valid")
}

/// Kill the wrapper mid-query at the engine level: the run must abort
/// with a typed `RunError::Wrapper`, not hang — and the abort must appear
/// as an `EngineEvent::Aborted` JSON trace line.
#[test]
fn killing_the_wrapper_mid_query_aborts_cleanly() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let addr = wrapper.local_addr();
    let workload = slow_workload();

    // Dial a RemoteWrapper per relation, exactly as the mediator does.
    let driver = RealTimeDriver::try_with_sources(|notify| {
        workload
            .catalog
            .iter()
            .map(|(rel, spec)| {
                let open = RemoteOpen {
                    rel,
                    total: workload.actual_cardinality(rel),
                    window: workload.config.queue_capacity as u32,
                    seed: workload.config.seed,
                    stream: format!("wrapper:{}", spec.name),
                    delay: workload.delays[rel.0 as usize].clone(),
                    resume_from: 0,
                };
                RemoteWrapper::connect(addr, open, notify.clone(), Duration::from_secs(10))
                    .map(|w| Box::new(w) as BoxSource)
            })
            .collect::<Result<Vec<_>, SourceError>>()
    })
    .expect("wrappers reachable");

    let (done_tx, done_rx) = channel();
    let run_workload = workload;
    std::thread::spawn(move || {
        let mut trace = Vec::new();
        let sink = JsonLinesSink::new(&mut trace);
        let result = Engine::with_driver(&run_workload, DsePolicy::new(), sink, driver).try_run();
        done_tx
            .send((result, String::from_utf8(trace).unwrap()))
            .ok();
    });

    // Let the query get going, then sever every wrapper connection.
    std::thread::sleep(Duration::from_millis(500));
    wrapper.drop_connections();

    let (result, trace) = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the run must abort, not hang");
    match result {
        Err(RunError::Wrapper { error, .. }) => {
            assert_eq!(error.kind(), "disconnected", "{error}");
        }
        other => panic!("expected a wrapper abort, got {other:?}"),
    }
    assert!(
        trace.contains("\"type\":\"abort\",\"kind\":\"wrapper\""),
        "the abort must surface as an EngineEvent::Aborted trace line:\n{}",
        trace.lines().last().unwrap_or("")
    );
    wrapper.shutdown();
}

/// The same kill, end to end: a submitting client gets a terminal Error
/// frame naming the wrapper failure.
#[test]
fn killing_the_wrapper_surfaces_to_the_client() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![wrapper.local_addr().to_string()],
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");

    let (kill_tx, kill_rx) = channel();
    let addr = mediator.local_addr();
    let client = std::thread::spawn(move || {
        submit(addr, SLOW_SPEC, &SubmitOpts::default(), |p| {
            if matches!(p, Progress::Accepted { .. }) {
                kill_tx.send(()).ok();
            }
        })
    });
    kill_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("session accepted");
    std::thread::sleep(Duration::from_millis(400));
    wrapper.drop_connections();
    let killed = std::time::Instant::now();

    let err = client
        .join()
        .expect("client thread")
        .expect_err("the query must fail");
    // A group of one has no peer to fail over to: the abort carries the
    // endpoint's own error and comes at once, not after a retry budget
    // has been slept out against a wrapper that is still listening.
    match err {
        dqs_mediator::ClientError::Server(msg) => {
            assert!(
                msg.contains("wrapper") && msg.contains("disconnected"),
                "{msg}"
            );
        }
        other => panic!("expected a server-side abort, got {other}"),
    }
    assert!(
        killed.elapsed() < Duration::from_secs(2),
        "the abort took {:?}",
        killed.elapsed()
    );
    mediator.shutdown();
    wrapper.shutdown();
}

/// Cooldown diverts traffic only when there is a peer to divert it to: a
/// lone wrapper that was down (and probed down) must be dialed by the very
/// next session after it returns, not after its cooldown expires.
#[test]
fn the_session_after_a_lone_wrapper_returns_dials_it_immediately() {
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let wrapper_addr = wrapper.local_addr();
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![format!("w0={wrapper_addr}")],
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    wrapper.shutdown();
    let err = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {})
        .expect_err("nobody is listening");
    assert!(err.to_string().contains("wrapper connect failed"), "{err}");
    let down = &mediator.replica_health()[0].1[0];
    assert!(
        format!("{:?}", down.state).starts_with("Degraded"),
        "the failed dial put the endpoint on cooldown: {down:?}"
    );

    let wrapper = WrapperServer::bind(wrapper_addr).expect("rebind wrapper");
    let m = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {})
        .expect("the returned wrapper is dialed despite its cooldown");
    assert!(m.output_tuples > 0);
    mediator.shutdown();
    wrapper.shutdown();
}

/// Submit `spec` under DSE on a raw connection whose every read gives up
/// after one second, and return it once the session is `Accepted`.
fn accepted(addr: SocketAddr, spec: &str) -> TcpStream {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let submit = Frame::Submit {
        strategy: "dse".into(),
        trace: false,
        no_cache: false,
        seed: None,
        spec_json: spec.into(),
    };
    write_frame(&mut conn, &submit).expect("send Submit");
    match read_frame(&mut conn) {
        Ok(Some(Frame::Accepted { .. })) => conn,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

/// Bind a one-slot mediator, run `spec` for a client that leaves 200 ms
/// after `Accepted`, and assert the slot frees within a second of that.
fn one_slot_freed_when_its_client_leaves(spec: &str) -> MediatorServer {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            max_concurrent: 1,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let conn = accepted(mediator.local_addr(), spec);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(mediator.stats().running, 1, "the slow run holds the slot");
    drop(conn);
    let left = Instant::now();
    while mediator.stats().running > 0 {
        assert!(
            left.elapsed() < Duration::from_secs(1),
            "the departed client's run still holds its slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    mediator
}

/// A client that disconnects mid-run stops its run: the slot frees within
/// a second, not when the 8 s of source time would have run out, and the
/// next client is served.
#[test]
fn a_client_that_leaves_frees_its_slot() {
    let mediator = one_slot_freed_when_its_client_leaves(SLOW_SPEC);
    let m = submit(
        mediator.local_addr(),
        &quickstart_json(),
        &SubmitOpts::default(),
        |_| {},
    )
    .expect("the next client runs");
    assert!(m.output_tuples > 0);
    mediator.shutdown();
}

/// A run with nothing to do but wait out a 5 s source gap still notices
/// within one wait slice that its client left — not at the 2 s stall
/// timer, nor at the end of the gap.
#[test]
fn a_client_that_leaves_a_stalled_run_frees_its_slot_within_a_second() {
    let stalled = SLOW_SPEC.replace(
        r#"{"constant_us": 400}"#,
        r#"{"initial": {"delay_ms": 5000, "mean_us": 100}}"#,
    );
    one_slot_freed_when_its_client_leaves(&stalled).shutdown();
}

/// A query whose build side is larger than the session's whole memory
/// partition is not M-schedulable (§4.2): its client hears so at once and
/// the slot goes to the next session.
#[test]
fn a_query_that_cannot_fit_is_refused_at_once() {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            memory_bytes: 2 << 20,
            max_concurrent: 1,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();
    let oversized = r#"{
        "relations": [
            {"name": "r", "cardinality": 200000},
            {"name": "s", "cardinality": 200000}
        ],
        "joins": [{"left": "r", "right": "s", "selectivity": 0.00001}]
    }"#;
    let started = Instant::now();
    let mut conn = accepted(addr, oversized);
    match read_frame(&mut conn) {
        Ok(Some(Frame::Error { code, message })) => {
            assert_eq!(code, 1, "{message}");
            assert!(message.contains("M-schedulable"), "{message}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the verdict took {:?}",
        started.elapsed()
    );
    let m = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {})
        .expect("the next session runs");
    assert!(m.output_tuples > 0);
    mediator.shutdown();
}

/// A paced two-relation spec for the replica tests: long enough that a
/// mid-stream kill reliably lands, short enough to keep the suite fast.
const REPLICA_SPEC: &str = r#"{
    "relations": [
        {"name": "r", "cardinality": 8000, "delay": {"constant_us": 300}},
        {"name": "s", "cardinality": 8000, "delay": {"constant_us": 300}}
    ],
    "joins": [{"left": "r", "right": "s", "selectivity": 0.0001}]
}"#;

/// The replica-manager acceptance check: kill the replica a scan is
/// pinned to while it streams; with a live peer the session must complete
/// with the *same answer* as an undisturbed run (the resume protocol
/// re-opens at the next undelivered index, so not a tuple is lost or
/// duplicated), report the failover in its metrics, and trace it.
#[test]
fn killing_a_replica_mid_scan_fails_over_bit_identically() {
    let rep_a = WrapperServer::bind("127.0.0.1:0").expect("bind replica a");
    let rep_b = WrapperServer::bind("127.0.0.1:0").expect("bind replica b");
    let a = rep_a.local_addr().to_string();
    let b = rep_b.local_addr().to_string();
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![format!("w0={a},{b}")],
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    // Baseline: both replicas healthy end to end.
    let baseline =
        submit(addr, REPLICA_SPEC, &SubmitOpts::default(), |_| {}).expect("baseline run");
    assert_eq!(metric_u64(&baseline.raw, "failovers"), 0);

    // Disturbed run: learn where the first scan pinned from the trace,
    // then kill that replica while the scan streams.
    let (pin_tx, pin_rx) = channel();
    let client = std::thread::spawn(move || {
        let mut lines = Vec::new();
        let result = submit(
            addr,
            REPLICA_SPEC,
            &SubmitOpts {
                trace: true,
                ..SubmitOpts::default()
            },
            |p| {
                if let Progress::TraceLine(l) = p {
                    if l.contains("\"type\":\"replica_pin\"") {
                        pin_tx.send(l.clone()).ok();
                    }
                    lines.push(l);
                }
            },
        );
        (result, lines)
    });
    let first_pin = pin_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a replica pin trace line");
    std::thread::sleep(Duration::from_millis(800));
    let mut reps = [Some(rep_a), Some(rep_b)];
    let killed = usize::from(!first_pin.contains(&a));
    reps[killed].take().expect("not yet killed").shutdown();

    let (result, lines) = client.join().expect("client thread");
    let m = result.expect("a live peer must carry the query to completion");
    assert_eq!(
        m.output_tuples, baseline.output_tuples,
        "failover must not lose or duplicate tuples"
    );
    assert!(
        metric_u64(&m.raw, "failovers") >= 1,
        "the failover must be counted: {}",
        m.raw
    );
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"failover\"")),
        "the failover must be traced"
    );
    mediator.shutdown();
    for rep in reps.into_iter().flatten() {
        rep.shutdown();
    }
}

/// The rate-aware acceptance check: one deliberately slow replica (listed
/// first, so naive pick-the-first selection would always land on it) and
/// one fast one. After the first exploratory scans establish rates, every
/// scan must open on the fast replica — ≥90% of all pins overall.
#[test]
fn scans_prefer_the_faster_replica_once_rates_are_known() {
    let slow = WrapperServer::bind_with("127.0.0.1:0", Duration::from_millis(5), None)
        .expect("bind slow replica");
    let fast = WrapperServer::bind("127.0.0.1:0").expect("bind fast replica");
    let slow_addr = slow.local_addr().to_string();
    let fast_addr = fast.local_addr().to_string();
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![format!("g0={slow_addr},{fast_addr}")],
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    let spec = r#"{
        "relations": [
            {"name": "r", "cardinality": 300, "delay": {"constant_us": 100}},
            {"name": "s", "cardinality": 300, "delay": {"constant_us": 100}}
        ],
        "joins": [{"left": "r", "right": "s", "selectivity": 0.01}]
    }"#;
    let traced = SubmitOpts {
        trace: true,
        ..SubmitOpts::default()
    };
    let (mut fast_pins, mut total_pins) = (0u32, 0u32);
    for _ in 0..12 {
        let mut lines = Vec::new();
        submit(addr, spec, &traced, |p| {
            if let Progress::TraceLine(l) = p {
                lines.push(l);
            }
        })
        .expect("session completes");
        for l in lines
            .iter()
            .filter(|l| l.contains("\"type\":\"replica_pin\""))
        {
            total_pins += 1;
            if l.contains(&fast_addr) {
                fast_pins += 1;
            }
        }
    }
    assert_eq!(total_pins, 24, "two scans per session, twelve sessions");
    assert!(
        f64::from(fast_pins) >= 0.9 * f64::from(total_pins),
        "rate-aware selection must favor the fast replica: {fast_pins}/{total_pins} pins"
    );
    mediator.shutdown();
    slow.shutdown();
    fast.shutdown();
}

/// A wrapper spec that cannot parse into replica groups is a bind-time
/// error, not something discovered at first Submit.
#[test]
fn malformed_wrapper_groups_fail_at_bind() {
    let err = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec!["=127.0.0.1:1".into()],
            ..ServeOpts::default()
        },
    )
    .expect_err("an empty group id must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// The memory-budget edge: a cache budget that swallows the whole global
/// budget is rejected at bind with a clear error, and a valid split
/// partitions only what remains after the cache deduction.
#[test]
fn cache_budget_is_validated_at_bind_and_deducted_from_partitions() {
    let err = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            memory_bytes: 32 << 20,
            cache_bytes: 32 << 20,
            ..ServeOpts::default()
        },
    )
    .expect_err("a cache budget >= the global budget leaves sessions nothing");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("cache budget"), "{err}");

    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            memory_bytes: 64 << 20,
            cache_bytes: 16 << 20,
            max_concurrent: 2,
            ..ServeOpts::default()
        },
    )
    .expect("a valid split binds");
    let mut granted = None;
    submit(
        mediator.local_addr(),
        &quickstart_json(),
        &SubmitOpts::default(),
        |p| {
            if let Progress::Accepted { memory_bytes, .. } = p {
                granted = Some(memory_bytes);
            }
        },
    )
    .expect("run");
    assert_eq!(
        granted,
        Some((48 << 20) / 2),
        "partition = (memory - cache) / max_concurrent"
    );
    mediator.shutdown();
}

/// The shared-pool acceptance check: N concurrent sessions on a mediator
/// with `--exec-workers 4` all draw morsel execution from ONE process-wide
/// pool, and every one of them returns the same answer a solo session
/// does — concurrency never leaks into results. Each session's memory
/// high-water must also stay inside the per-session partition the mediator
/// granted it.
#[test]
fn concurrent_sessions_share_one_exec_pool_without_perturbing_answers() {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            exec_workers: 4,
            max_concurrent: 3,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    // Solo baseline on the same (pooled) mediator.
    let solo = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {}).expect("solo run");
    assert!(
        metric_u64(&solo.raw, "morsels") > 0,
        "a 4-worker mediator must split quickstart batches into morsels: {}",
        solo.raw
    );

    // Three sessions at once, each recording its granted partition.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut granted = None;
                let m = submit(addr, &quickstart_json(), &SubmitOpts::default(), |p| {
                    if let Progress::Accepted { memory_bytes, .. } = p {
                        granted = Some(memory_bytes);
                    }
                })
                .expect("concurrent run");
                (m, granted.expect("lifecycle passes through Accepted"))
            })
        })
        .collect();
    for client in clients {
        let (m, granted) = client.join().expect("client thread");
        assert_eq!(
            m.output_tuples, solo.output_tuples,
            "a session sharing the pool must answer exactly like a solo one"
        );
        assert!(metric_u64(&m.raw, "morsels") > 0);
        assert!(
            metric_u64(&m.raw, "memory_high_water") <= granted,
            "morsel slabs must stay inside the granted partition: {}",
            m.raw
        );
    }

    // The pool gauges are wired: all that morsel traffic went through the
    // one shared pool the metrics endpoint watches.
    let metrics = mediator.metrics();
    assert!(metrics.exec_busy_workers() <= 4);
    mediator.shutdown();
}

/// Shutdown must sever idle client connections and join their handler
/// threads instead of waiting out the 60-second read timeout (or leaking
/// the threads outright).
#[test]
fn mediator_shutdown_severs_idle_clients_promptly() {
    let mediator = MediatorServer::bind("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let idle = std::net::TcpStream::connect(mediator.local_addr()).expect("connect");
    // Give the accept loop a beat to register the connection and spawn
    // its handler.
    std::thread::sleep(Duration::from_millis(200));
    let start = std::time::Instant::now();
    mediator.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown must not wait out client read timeouts"
    );
    drop(idle);
}
