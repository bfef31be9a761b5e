//! The standalone wrapper-server: the remote half of the window protocol.
//!
//! A [`WrapperServer`] listens for mediator connections, one thread
//! each. A connection carries at most one `Open`, and its thread serves
//! that scan itself — drawing inter-tuple gaps from the requested delay
//! model with the requested seeded stream (so a remote run delivers
//! byte-for-byte the tuples and pacing an in-process `Wrapper` would),
//! sleeping them for real, and shipping each tuple as a `TupleBatch`
//! frame while respecting the flow-control window: it holds at most
//! `window` unacknowledged tuples and, beyond that, stops to read
//! `WindowGrant` credits off the same socket — the paper's §2.1
//! suspension performed by the *source* side of the wire. The socket is
//! also looked at between the slices of a long gap, which is how a peer
//! that vanished mid-sleep is noticed. Anything but a grant during a
//! scan, and a second `Open` after it, is refused with an `Error` frame.
//!
//! An `Open` may carry a non-zero `resume_from`: the scan then serves
//! indices `resume_from..total`. Tuple payloads are pure functions of
//! `(rel, index, seed)`, so a mediator failing over from a dead replica
//! resumes the stream bit-identically on this one.
//!
//! The server keeps a registry of live connections so tests (and the
//! mediator-kill scenario) can sever every peer at once with
//! [`WrapperServer::drop_connections`], and [`WrapperServer::shutdown`]
//! joins every connection thread — no process kill, no leaked listeners.
//!
//! ## Change tracking
//!
//! The server also keeps a per-relation change registry for the
//! mediator's freshness subsystem. Every relation it has served carries
//! a monotonic `version` counter, bumped by the mutation hooks
//! [`WrapperServer::mutate_append`] (insert-only growth: the advertised
//! total grows by `n`) and [`WrapperServer::mutate_rewrite`] (in-place
//! change: the total is unchanged but any cached prefix is now suspect).
//! A `StatRequest` frame answers with one `RelStat` per registered
//! relation — `(version, total, rewrite_version)` — which is everything
//! the mediator's refresh planner needs to choose between a tail-delta
//! re-open at `resume_from = cached_len` and a full re-scan. The
//! `--churn` test knob (see [`ChurnOpts`]) drives `mutate_append` from a
//! background thread so smokes and benches can exercise refresh against
//! a live write stream.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dqs_relop::{synth_key, RelId};
use dqs_sim::SeedSplitter;
use dqs_source::net::{read_frame, write_frame, Frame, RelStat};
use dqs_source::RemoteOpen;

use crate::{sleep_unless, SLEEP_SLICE};

/// Per-relation change-tracking state. The wrapper is otherwise
/// stateless about sizes (the mediator's `Open` names the total), so the
/// base cardinality is *learned* from the largest fresh total a scan has
/// asked for, and appends grow on top of it.
#[derive(Debug, Default, Clone, Copy)]
struct RelState {
    /// Monotonic change counter; bumped by every mutation.
    version: u64,
    /// Base cardinality learned from `Open` totals (net of appends).
    base: u64,
    /// Tuples appended by mutation hooks since the base was learned.
    extra: u64,
    /// `version` at the last non-append mutation (0 = insert-only).
    rewrite_version: u64,
}

impl RelState {
    fn total(&self) -> u64 {
        self.base + self.extra
    }

    fn stat(&self, rel: RelId) -> RelStat {
        RelStat {
            rel,
            version: self.version,
            total: self.total(),
            rewrite_version: self.rewrite_version,
        }
    }
}

/// The shared change registry: every relation this server has served.
type ChangeRegistry = Arc<Mutex<HashMap<RelId, RelState>>>;

/// Configuration of the `--churn` test knob: a background write stream
/// appending tuples to every *registered* relation on an interval, so
/// refresh machinery can be exercised without an external writer. A
/// round in which nothing is registered yet is skipped, not consumed —
/// `rounds` counts effective mutations.
#[derive(Debug, Clone)]
pub struct ChurnOpts {
    /// Gap between mutation rounds.
    pub interval: Duration,
    /// Tuples appended to each registered relation per round.
    pub tuples: u64,
    /// Stop after this many effective rounds; 0 = churn forever.
    pub rounds: u64,
}

/// A serving wrapper process (minus the process): listener + one thread
/// per connection.
#[derive(Debug)]
pub struct WrapperServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    registry: ChangeRegistry,
    accept_thread: Option<JoinHandle<()>>,
    churn_thread: Option<JoinHandle<()>>,
}

impl WrapperServer {
    /// Bind and start accepting. `addr` may use port 0 for an ephemeral
    /// port; [`WrapperServer::local_addr`] reports what was bound.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<WrapperServer> {
        Self::bind_with(addr, Duration::ZERO, None)
    }

    /// Like [`WrapperServer::bind`], but every tuple costs an extra
    /// `per_tuple` on top of the modelled gap — an artificial handicap for
    /// exercising rate-aware replica selection against a deliberately slow
    /// endpoint.
    pub fn bind_throttled(
        addr: impl ToSocketAddrs,
        per_tuple: Duration,
    ) -> io::Result<WrapperServer> {
        Self::bind_with(addr, per_tuple, None)
    }

    /// Full-control bind: per-tuple throttle plus the optional `--churn`
    /// background write stream.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        per_tuple: Duration,
        churn: Option<ChurnOpts>,
    ) -> io::Result<WrapperServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let registry: ChangeRegistry = Arc::new(Mutex::new(HashMap::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let accept_handlers = Arc::clone(&handlers);
        let accept_registry = Arc::clone(&registry);
        let accept_thread = thread::spawn(move || {
            let mut next_id: u64 = 0;
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(conn) = conn else { continue };
                conn.set_nodelay(true).ok();
                let id = next_id;
                next_id += 1;
                if let Ok(clone) = conn.try_clone() {
                    accept_conns.lock().unwrap().insert(id, clone);
                }
                let conn_stop = Arc::clone(&accept_stop);
                let conn_registry = Arc::clone(&accept_conns);
                let conn_changes = Arc::clone(&accept_registry);
                let handle = thread::spawn(move || {
                    serve_connection(conn, &conn_stop, per_tuple, &conn_changes);
                    // Self-removal keeps the registry bounded across many
                    // short-lived connections (e.g. liveness probes).
                    conn_registry.lock().unwrap().remove(&id);
                });
                let mut hs = accept_handlers.lock().unwrap();
                hs.retain(|h| !h.is_finished());
                hs.push(handle);
            }
        });
        let churn_thread = churn.map(|opts| {
            let churn_stop = Arc::clone(&stop);
            let churn_registry = Arc::clone(&registry);
            thread::spawn(move || churn_loop(opts, churn_stop, churn_registry))
        });
        Ok(WrapperServer {
            addr,
            stop,
            conns,
            handlers,
            registry,
            accept_thread: Some(accept_thread),
            churn_thread,
        })
    }

    /// Append `n` tuples to `rel`: the advertised total grows, the
    /// version bumps, and — because tuple payloads are a pure function of
    /// `(rel, index, seed)` — every previously served prefix stays valid,
    /// so a cached scan refreshes by re-opening at its cached length.
    /// Returns `false` for a relation this server has never served (there
    /// is nothing to append to yet).
    pub fn mutate_append(&self, rel: RelId, n: u64) -> bool {
        let mut reg = self.registry.lock().unwrap();
        match reg.get_mut(&rel) {
            Some(s) => {
                s.version += 1;
                s.extra += n;
                true
            }
            None => false,
        }
    }

    /// Rewrite `rel` in place: the total is unchanged but the version
    /// bumps and `rewrite_version` advances to it, telling the mediator
    /// any cached prefix is suspect and only a full re-scan refreshes it.
    /// Returns `false` for an unregistered relation.
    pub fn mutate_rewrite(&self, rel: RelId) -> bool {
        let mut reg = self.registry.lock().unwrap();
        match reg.get_mut(&rel) {
            Some(s) => {
                s.version += 1;
                s.rewrite_version = s.version;
                true
            }
            None => false,
        }
    }

    /// Current change-tracking state, one row per registered relation in
    /// ascending relation order (what a `StatRequest { rel: None }` gets).
    pub fn rel_stats(&self) -> Vec<RelStat> {
        stats_of(&self.registry, None)
    }

    /// The address actually bound (resolves `--port 0`).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Sever every live mediator connection — the "kill the wrapper
    /// mid-query" lever: peers observe an immediate disconnect, not a
    /// silence.
    pub fn drop_connections(&self) {
        let mut conns = self.conns.lock().unwrap();
        for (_, c) in conns.drain() {
            c.shutdown(Shutdown::Both).ok();
        }
    }

    /// Stop accepting, sever connections, and join every thread the
    /// server spawned (accept loop, connection threads, the churn writer).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Self-connect to unblock the accept loop.
        TcpStream::connect(self.addr).ok();
        self.drop_connections();
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
        if let Some(t) = self.churn_thread.take() {
            t.join().ok();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().unwrap());
        for h in handlers {
            h.join().ok();
        }
    }

    /// Park the calling thread while the server runs (the `dqs wrapper`
    /// foreground loop). Returns only if the accept thread dies.
    pub fn run_forever(mut self) {
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
    }
}

/// Change-tracking state of `rel` (or, with `None`, of every registered
/// relation) in ascending relation order — what a `StatRequest` gets.
fn stats_of(registry: &ChangeRegistry, rel: Option<RelId>) -> Vec<RelStat> {
    let reg = registry.lock().unwrap();
    let mut stats: Vec<RelStat> = reg
        .iter()
        .filter(|(r, _)| rel.map_or(true, |want| **r == want))
        .map(|(r, s)| s.stat(*r))
        .collect();
    stats.sort_by_key(|s| s.rel.0);
    stats
}

/// The `--churn` write stream: every `interval`, append `tuples` to each
/// registered relation. A round before any relation is registered is
/// skipped without consuming the round budget, so a one-shot churn
/// (`rounds: 1`) always lands *after* the first scan no matter how the
/// processes were started.
fn churn_loop(opts: ChurnOpts, stop: Arc<AtomicBool>, registry: ChangeRegistry) {
    let mut done: u64 = 0;
    loop {
        if !sleep_unless(&stop, opts.interval) {
            return;
        }
        let mut mutated = false;
        {
            let mut reg = registry.lock().unwrap();
            for s in reg.values_mut() {
                s.version += 1;
                s.extra += opts.tuples;
                mutated = true;
            }
        }
        if mutated {
            done += 1;
            if opts.rounds != 0 && done >= opts.rounds {
                return;
            }
        }
    }
}

/// One mediator connection, served start to finish on this thread:
/// `StatRequest`s are answered from the change registry, the one `Open`
/// is produced in place, and the connection is then read until the peer
/// closes it — closing first, with the scan's last grants still unread,
/// would reset the socket under the peer's in-flight `Eof`.
fn serve_connection(
    mut conn: TcpStream,
    stop: &AtomicBool,
    per_tuple: Duration,
    registry: &ChangeRegistry,
) {
    let mut scanned = false;
    while let Ok(Some(frame)) = read_frame(&mut conn) {
        let served = match frame {
            Frame::Open(open) if !scanned => {
                scanned = true;
                {
                    // Register the relation and learn its base size. The
                    // open total already includes any appends the peer
                    // knew about, so the base is the total net of them —
                    // never shrinking, since concurrent scans may open at
                    // older (smaller) totals.
                    let mut reg = registry.lock().unwrap();
                    let s = reg.entry(open.rel).or_default();
                    s.base = s.base.max(open.total.saturating_sub(s.extra));
                }
                produce(&mut conn, &open, per_tuple, stop)
            }
            Frame::Open(_) => refuse(&mut conn, "a connection carries one Open"),
            // Credits for the finished scan's last tuples.
            Frame::WindowGrant { .. } if scanned => true,
            Frame::StatRequest { rel } => {
                let stats = stats_of(registry, rel);
                write_frame(&mut conn, &Frame::StatReply { stats }).is_ok()
            }
            // Anything else is a protocol error from the peer; drop it.
            _ => false,
        };
        if !served {
            break;
        }
    }
    conn.shutdown(Shutdown::Both).ok();
}

/// Tell the peer why the connection is about to close. Always `false`:
/// the caller is done with the connection.
fn refuse(conn: &mut TcpStream, message: &str) -> bool {
    let error = Frame::Error {
        code: 3,
        message: message.into(),
    };
    write_frame(conn, &error).ok();
    false
}

/// Read the peer's next frame, which during a scan of `rel` can only be
/// a `WindowGrant` for it, into `credit`. `false` when the peer is gone
/// or sent anything else.
fn take_grant(conn: &mut TcpStream, rel: RelId, credit: &mut u64) -> bool {
    match read_frame(conn) {
        Ok(Some(Frame::WindowGrant { rel: r, credits })) if r == rel => {
            *credit += u64::from(credits);
            true
        }
        Ok(Some(_)) => refuse(conn, "only its window grants may follow an Open"),
        _ => false,
    }
}

/// [`take_grant`] for everything the peer has already sent — its grants,
/// or its EOF — without blocking for more.
fn take_pending_grants(conn: &mut TcpStream, rel: RelId, credit: &mut u64) -> bool {
    loop {
        if conn.set_nonblocking(true).is_err() {
            return false;
        }
        let idle = matches!(conn.peek(&mut [0]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        if conn.set_nonblocking(false).is_err() {
            return false;
        }
        if idle {
            return true;
        }
        if !take_grant(conn, rel, credit) {
            return false;
        }
    }
}

/// Serve `open` from `resume_from`: sleep the modelled gap, wait for
/// window credit, ship the tuple. `false` when the connection is done for
/// — the peer died or broke protocol, or the server is stopping.
fn produce(
    conn: &mut TcpStream,
    open: &RemoteOpen,
    per_tuple: Duration,
    stop: &AtomicBool,
) -> bool {
    let rel = open.rel;
    let mut rng = SeedSplitter::new(open.seed).stream(&open.stream);
    let mut credit = u64::from(open.window);
    for i in open.resume_from..open.total {
        // Sleep in slices, so neither a stopping server nor a vanished
        // peer waits out a long modelled gap: between slices, whatever the
        // peer sent (grants, or its EOF) is taken off the socket.
        let mut left = Duration::from_nanos(open.delay.gap(i, &mut rng).as_nanos()) + per_tuple;
        while !left.is_zero() {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            let slice = left.min(SLEEP_SLICE);
            thread::sleep(slice);
            left -= slice;
            if !left.is_zero() && !take_pending_grants(conn, rel, &mut credit) {
                return false;
            }
        }
        // Out of window credit: the remote suspension.
        while credit == 0 {
            if !take_grant(conn, rel, &mut credit) {
                return false;
            }
        }
        credit -= 1;
        let batch = Frame::TupleBatch {
            rel,
            keys: vec![synth_key(rel, i)],
        };
        if write_frame(conn, &batch).is_err() {
            return false; // peer gone; the mediator sees the disconnect
        }
    }
    write_frame(conn, &Frame::Eof { rel }).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqs_sim::SimDuration;
    use std::sync::mpsc::channel;

    use dqs_source::{DelayModel, FailoverSource, Notice, RemoteWrapper, TupleSource};

    fn open(rel: u16, total: u64, window: u32) -> RemoteOpen {
        RemoteOpen {
            rel: RelId(rel),
            total,
            window,
            seed: 42,
            stream: format!("wrapper:r{rel}"),
            delay: DelayModel::Constant {
                w: SimDuration::from_nanos(100),
            },
            resume_from: 0,
        }
    }

    /// Drain one remote source to completion, returning its keys.
    fn drain(mut w: FailoverSource, nrx: std::sync::mpsc::Receiver<Notice>) -> Vec<u64> {
        let mut keys = Vec::new();
        while !w.exhausted() {
            match nrx.recv_timeout(Duration::from_secs(30)).expect("notice") {
                Notice::Arrival(_) => keys.push(w.emit().key),
                other => panic!("unexpected notice: {other:?}"),
            }
        }
        keys
    }

    #[test]
    fn serves_a_relation_end_to_end_with_the_windowed_protocol() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        let (ntx, nrx) = channel();
        // Window of 4 forces many grant round-trips for 50 tuples.
        let w = RemoteWrapper::connect(
            server.local_addr(),
            open(5, 50, 4),
            ntx,
            Duration::from_secs(10),
        )
        .unwrap();
        let mut w = w;
        w.start();
        let keys = drain(w, nrx);
        let expected: Vec<u64> = (0..50).map(|i| synth_key(RelId(5), i)).collect();
        assert_eq!(keys, expected);
        server.shutdown();
    }

    #[test]
    fn serves_two_relations_on_two_connections_at_once() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        let mut handles = Vec::new();
        for rel in [1u16, 2u16] {
            let addr = server.local_addr();
            handles.push(thread::spawn(move || {
                let (ntx, nrx) = channel();
                let mut w =
                    RemoteWrapper::connect(addr, open(rel, 30, 8), ntx, Duration::from_secs(10))
                        .unwrap();
                w.start();
                drain(w, nrx)
            }));
        }
        let keys: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, rel) in [1u16, 2u16].iter().enumerate() {
            let expected: Vec<u64> = (0..30).map(|j| synth_key(RelId(*rel), j)).collect();
            assert_eq!(keys[i], expected);
        }
        server.shutdown();
    }

    /// A connection carries one `Open`. A second is refused with an
    /// `Error` frame and the connection closed — after the first scan was
    /// served in full.
    #[test]
    fn a_second_open_on_a_connection_is_refused_after_the_first_scan() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The window covers the whole scan, so the wrapper never has to
        // read mid-scan and meets the second Open only after its Eof.
        write_frame(&mut conn, &Frame::Open(open(4, 10, 16))).unwrap();
        write_frame(&mut conn, &Frame::Open(open(5, 10, 16))).unwrap();
        for i in 0..10 {
            assert_eq!(
                read_frame(&mut conn).unwrap().unwrap(),
                Frame::TupleBatch {
                    rel: RelId(4),
                    keys: vec![synth_key(RelId(4), i)],
                }
            );
        }
        assert_eq!(
            read_frame(&mut conn).unwrap().unwrap(),
            Frame::Eof { rel: RelId(4) }
        );
        match read_frame(&mut conn) {
            Ok(Some(Frame::Error { message, .. })) => {
                assert!(message.contains("one Open"), "{message}");
                assert!(
                    !matches!(read_frame(&mut conn), Ok(Some(_))),
                    "nothing follows the refusal"
                );
            }
            // The close may reset the socket under the in-flight Error.
            Ok(None) | Err(_) => {}
            Ok(Some(other)) => panic!("relation 5 must not be served: {other:?}"),
        }
        assert_eq!(
            server.rel_stats().iter().map(|s| s.rel).collect::<Vec<_>>(),
            vec![RelId(4)],
            "the refused Open registered nothing"
        );
        server.shutdown();
    }

    /// A scan sleeping out a long modelled gap looks at its socket between
    /// sleep slices, so a peer that disconnects is noticed — and the
    /// connection's thread and registry entry reaped — within about one
    /// slice, not at the end of the gap.
    #[test]
    fn a_peer_vanishing_mid_gap_is_reaped_within_a_sleep_slice() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        let mut spec = open(3, 10, 4);
        spec.delay = DelayModel::Constant {
            w: SimDuration::from_secs(60),
        };
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut conn, &Frame::Open(spec)).unwrap();
        // The Open registers the relation just before the first gap starts.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.rel_stats().is_empty() {
            assert!(std::time::Instant::now() < deadline, "scan never opened");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.conns.lock().unwrap().len(), 1);
        drop(conn);
        let begun = std::time::Instant::now();
        while !server.conns.lock().unwrap().is_empty() {
            assert!(
                begun.elapsed() < Duration::from_secs(5),
                "connection still held {:?} into a 60 s gap",
                begun.elapsed()
            );
            thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn honors_resume_from_serving_only_the_remainder() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        let (ntx, nrx) = channel();
        let mut spec = open(6, 40, 8);
        spec.resume_from = 25;
        let mut w = RemoteWrapper::connect(server.local_addr(), spec, ntx, Duration::from_secs(10))
            .unwrap();
        assert_eq!(w.produced(), 25, "a resumed source starts part-done");
        w.start();
        let keys = drain(w, nrx);
        let expected: Vec<u64> = (25..40).map(|i| synth_key(RelId(6), i)).collect();
        assert_eq!(keys, expected, "only the undelivered suffix is served");
        server.shutdown();
    }

    #[test]
    fn dropping_connections_faults_the_client_side() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        let (ntx, nrx) = channel();
        // Slow delivery so the kill lands mid-stream.
        let mut spec = open(7, 10_000, 16);
        spec.delay = DelayModel::Constant {
            w: SimDuration::from_micros(500),
        };
        let mut w = RemoteWrapper::connect(server.local_addr(), spec, ntx, Duration::from_secs(10))
            .unwrap();
        w.start();
        // Take a few tuples, then sever.
        let mut got = 0;
        while got < 3 {
            match nrx.recv_timeout(Duration::from_secs(30)).expect("notice") {
                Notice::Arrival(_) => {
                    w.emit();
                    got += 1;
                }
                other => panic!("unexpected notice: {other:?}"),
            }
        }
        server.drop_connections();
        loop {
            match nrx.recv_timeout(Duration::from_secs(30)).expect("notice") {
                Notice::Arrival(_) => {
                    w.emit();
                }
                Notice::Fault { error, .. } => {
                    assert_eq!(error.kind(), "disconnected", "{error}");
                    break;
                }
                other => panic!("unexpected notice: {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn stat_request_reports_versions_and_totals() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        // Serve rel 8 end to end so it registers with base 20.
        let (ntx, nrx) = channel();
        let mut w = RemoteWrapper::connect(
            server.local_addr(),
            open(8, 20, 8),
            ntx,
            Duration::from_secs(10),
        )
        .unwrap();
        w.start();
        drain(w, nrx);
        assert!(
            !server.mutate_append(RelId(99), 1),
            "never-served relation refused"
        );
        assert!(server.mutate_append(RelId(8), 5));
        assert!(server.mutate_append(RelId(8), 2));
        // Raw stat round-trip over TCP.
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        dqs_source::write_frame(&mut conn, &Frame::StatRequest { rel: None }).unwrap();
        match read_frame(&mut conn).unwrap().unwrap() {
            Frame::StatReply { stats } => assert_eq!(
                stats,
                vec![RelStat {
                    rel: RelId(8),
                    version: 2,
                    total: 27,
                    rewrite_version: 0,
                }]
            ),
            other => panic!("expected StatReply, got {other:?}"),
        }
        // A filtered request for an unknown relation is an empty reply.
        dqs_source::write_frame(
            &mut conn,
            &Frame::StatRequest {
                rel: Some(RelId(3)),
            },
        )
        .unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap().unwrap(),
            Frame::StatReply { stats: vec![] }
        );
        // A rewrite bumps both counters; the total is unchanged.
        assert!(server.mutate_rewrite(RelId(8)));
        assert_eq!(
            server.rel_stats(),
            vec![RelStat {
                rel: RelId(8),
                version: 3,
                total: 27,
                rewrite_version: 3,
            }]
        );
        // An Open at the stat total must not inflate the learned base.
        let (ntx, nrx) = channel();
        let mut w = RemoteWrapper::connect(
            server.local_addr(),
            open(8, 27, 8),
            ntx,
            Duration::from_secs(10),
        )
        .unwrap();
        w.start();
        drain(w, nrx);
        assert_eq!(server.rel_stats()[0].total, 27);
        server.shutdown();
    }

    #[test]
    fn churn_appends_only_to_registered_relations_and_honors_rounds() {
        let server = WrapperServer::bind_with(
            "127.0.0.1:0",
            Duration::ZERO,
            Some(ChurnOpts {
                interval: Duration::from_millis(30),
                tuples: 3,
                rounds: 2,
            }),
        )
        .unwrap();
        // Nothing registered yet: rounds must be skipped, not consumed.
        thread::sleep(Duration::from_millis(120));
        assert!(server.rel_stats().is_empty());
        let (ntx, nrx) = channel();
        let mut w = RemoteWrapper::connect(
            server.local_addr(),
            open(2, 10, 8),
            ntx,
            Duration::from_secs(10),
        )
        .unwrap();
        w.start();
        drain(w, nrx);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = server.rel_stats();
            if stats.first().is_some_and(|s| s.version >= 2) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "churn rounds never landed: {stats:?}"
            );
            thread::sleep(Duration::from_millis(10));
        }
        // The round budget is spent: no further mutations.
        thread::sleep(Duration::from_millis(150));
        let s = server.rel_stats()[0];
        assert_eq!(
            (s.version, s.total, s.rewrite_version),
            (2, 16, 0),
            "exactly two rounds of 3 appended tuples"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_interrupts_long_modelled_gaps_promptly() {
        let server = WrapperServer::bind("127.0.0.1:0").unwrap();
        let (ntx, _nrx) = channel();
        // A gap far longer than the test's patience: shutdown must not
        // wait it out.
        let mut spec = open(3, 10, 4);
        spec.delay = DelayModel::Constant {
            w: SimDuration::from_secs(60),
        };
        let mut w = RemoteWrapper::connect(server.local_addr(), spec, ntx, Duration::from_secs(10))
            .unwrap();
        w.start();
        let begun = std::time::Instant::now();
        server.shutdown();
        assert!(
            begun.elapsed() < Duration::from_secs(5),
            "shutdown joined producers without sleeping out the gap: {:?}",
            begun.elapsed()
        );
    }
}
