//! Event-driven-core integration tests: session isolation under hostile
//! clients, the admission-backlog gauge, and a scaled-down C10K smoke.
//!
//! The full 10k-session run lives behind `dqs bench c10k` (and the CI
//! smoke job); these tests exercise the same machinery at a size that
//! stays comfortably inside a default test-runner's fd budget.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use dqs_mediator::{submit, MediatorServer, Progress, ServeOpts, SubmitOpts};
use dqs_workload::{replay, ReplayOpts, Trace, TINY_SPEC};

fn quickstart_json() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/quickstart.json"
    ))
    .expect("quickstart spec readable")
}

/// The slow-loris check: a client that dribbles two bytes of a Submit
/// frame's length prefix and then stalls forever must not delay anyone
/// else. With the old thread-per-connection core this was free; with a
/// shared event loop it is the property the per-connection state
/// machines exist to preserve.
#[test]
fn a_stalled_slow_loris_client_cannot_delay_other_sessions() {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            io_threads: 1, // force the loris and the victim onto one loop
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    // The attacker: half a length prefix, then silence.
    let mut loris = TcpStream::connect(addr).expect("loris connects");
    loris.write_all(&[0x00, 0x00]).expect("partial prefix");

    // The victim: a complete, well-behaved session on the same loop.
    let started = Instant::now();
    let m = submit(addr, &quickstart_json(), &SubmitOpts::default(), |_| {})
        .expect("the well-behaved session completes");
    assert!(m.output_tuples > 0);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a stalled peer must not block the event loop"
    );

    // The loris is still connected (not yet timed out) the whole while.
    drop(loris);
    mediator.shutdown();
}

/// The backlog gauge: with one execution slot, a second submission parks
/// in the admission queue and `backlog_depth` must follow it in and out.
#[test]
fn backlog_depth_gauge_tracks_queueing_and_promotion() {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            max_concurrent: 1,
            backlog: 8,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();
    let metrics = mediator.metrics();
    assert_eq!(metrics.backlog_depth(), 0);

    // A slow first session holds the only slot long enough for the
    // second to be observed queued.
    let slow_spec = r#"{
        "relations": [
            {"name": "r", "cardinality": 4000, "delay": {"constant_us": 300}},
            {"name": "s", "cardinality": 4000, "delay": {"constant_us": 300}}
        ],
        "joins": [{"left": "r", "right": "s", "selectivity": 0.0001}]
    }"#;
    let (accepted_tx, accepted_rx) = channel();
    let holder = std::thread::spawn(move || {
        submit(addr, slow_spec, &SubmitOpts::default(), |p| {
            if matches!(p, Progress::Accepted { .. }) {
                accepted_tx.send(()).ok();
            }
        })
    });
    accepted_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("first session admitted");

    let (queued_tx, queued_rx) = channel();
    let parked = std::thread::spawn(move || {
        submit(addr, &quickstart_json(), &SubmitOpts::default(), |p| {
            if matches!(p, Progress::Queued(_)) {
                queued_tx.send(()).ok();
            }
        })
    });
    queued_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("second session queued");
    assert_eq!(metrics.backlog_depth(), 1, "one session parked");
    assert_eq!(metrics.backlog_enqueued(), 1);
    assert_eq!(metrics.backlog_dequeued(), 0);

    holder
        .join()
        .expect("holder thread")
        .expect("slow session completes");
    parked
        .join()
        .expect("parked thread")
        .expect("queued session is promoted and completes");
    assert_eq!(metrics.backlog_depth(), 0, "the gauge returns to zero");
    assert_eq!(metrics.backlog_enqueued(), 1);
    assert_eq!(metrics.backlog_dequeued(), 1);
    mediator.shutdown();
}

/// A queued client that disconnects must drain the gauge too (the reap
/// path, not the promotion path).
#[test]
fn backlog_depth_gauge_drains_when_a_queued_client_disconnects() {
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            max_concurrent: 1,
            backlog: 8,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();
    let metrics = mediator.metrics();

    let slow_spec = r#"{
        "relations": [
            {"name": "r", "cardinality": 4000, "delay": {"constant_us": 300}},
            {"name": "s", "cardinality": 4000, "delay": {"constant_us": 300}}
        ],
        "joins": [{"left": "r", "right": "s", "selectivity": 0.0001}]
    }"#;
    let (accepted_tx, accepted_rx) = channel();
    let holder = std::thread::spawn(move || {
        submit(addr, slow_spec, &SubmitOpts::default(), |p| {
            if matches!(p, Progress::Accepted { .. }) {
                accepted_tx.send(()).ok();
            }
        })
    });
    accepted_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("first session admitted");

    // Park a raw client in the backlog, then hang up on it.
    let impatient = std::thread::spawn(move || {
        let _ = submit(
            addr,
            r#"{"relations":[{"name":"a","cardinality":10}]}"#,
            &SubmitOpts::default(),
            |p| {
                if matches!(p, Progress::Queued(_)) {
                    // Abandon the session from inside the callback by
                    // panicking the client thread; the TCP FIN is what
                    // the server reacts to.
                    panic!("abandon");
                }
            },
        );
    });
    let _ = impatient.join(); // the panic is the disconnect
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.backlog_depth() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        metrics.backlog_depth(),
        0,
        "a dead queued client must be reaped from the gauge"
    );
    holder
        .join()
        .expect("holder thread")
        .expect("slow session completes");
    mediator.shutdown();
}

/// A scaled-down C10K: three hundred concurrent sessions through the
/// flood replay `dqs bench c10k` runs, none errored and none rejected, and
/// a peak that proves they really were concurrent (eight slots running,
/// the rest held open in the backlog).
#[test]
fn c10k_smoke_three_hundred_sessions_zero_errors() {
    let sessions = 300;
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            max_concurrent: 8,
            backlog: sessions,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let report = replay(
        &Trace::flood(sessions, TINY_SPEC, "dse"),
        &ReplayOpts {
            addr: mediator.local_addr().to_string(),
            connect_batch: 50,
            timeout: Duration::from_secs(120),
        },
    )
    .expect("bench runs");

    assert_eq!(report.errored, 0, "no session may fail: {report:?}");
    assert_eq!(report.rejected, 0, "the backlog holds them all: {report:?}");
    assert_eq!(report.completed, sessions);
    assert!(
        report.peak_concurrent >= sessions / 2,
        "open-loop arrivals must actually pile up (peak {})",
        report.peak_concurrent
    );
    let total = report.total;
    assert!(total.p50_ms > 0.0 && total.p99_ms >= total.p50_ms);
    assert!(total.p999_ms >= total.p99_ms);
    assert!(mediator.metrics().connections_accepted() >= sessions as u64);

    // The report round-trips through its own JSON.
    let v = dqs_exec::json::parse(&report.to_json()).expect("report JSON");
    assert!(v.as_object().is_some());
    mediator.shutdown();
}
