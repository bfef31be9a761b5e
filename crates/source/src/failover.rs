//! The remote source: rate-based endpoint selection at `Open` time,
//! transparent mid-scan failover after.
//!
//! A [`FailoverSource`] reads one logical wrapper's scan through the
//! [`crate::scan`] client, against a [`ReplicaSet`] of interchangeable
//! endpoints. At construction it dials the best live endpoint
//! (exploration first, then highest EWMA rate); a reader thread then owns
//! the connection and, when the endpoint dies mid-scan, re-opens the scan
//! on a peer with `resume_from` set to the next undelivered tuple index.
//! Tuple payloads are pure functions of `(rel, index, seed)` — [`Scan`]
//! checks every received key — so the engine sees one uninterrupted,
//! bit-identical stream.
//!
//! It is the one push-paced [`TupleSource`]: its tuples come to exist on
//! the reader thread and cross to the engine through a bounded
//! [`std::sync::mpsc::sync_channel`] — the transport half of the paper's
//! window protocol (§2.1: a reader that outruns the consumer blocks in
//! `send` exactly as a suspended wrapper stops shipping). Each tuple is in
//! the channel before its [`Notice::Arrival`] is posted ("data before
//! notice"), so by the time the communication manager calls
//! [`TupleSource::emit`] the `recv` never blocks.
//!
//! A set with a single endpoint is the same source with no peer to move
//! to: the first mid-scan failure is terminal, raised at once with the
//! endpoint's own error. [`RemoteWrapper::connect`] is that case spelled
//! with a bare address.
//!
//! Observability rides the existing notify channel: a
//! [`Notice::ReplicaPinned`] when the scan opens, a
//! [`Notice::ReplicaDegraded`] each time an endpoint is put on cooldown,
//! a [`Notice::Failover`] each time the scan moves. Only when the retry
//! budget is exhausted with no live peer does the source raise the
//! terminal [`Notice::Fault`].

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dqs_relop::{RelId, Tuple};
use dqs_replica::{HealthConfig, ReplicaGroup, ReplicaSet};
use dqs_sim::SimDuration;

use crate::net::RemoteOpen;
use crate::scan::{dial, Grants, Scan};
use crate::source::{Notice, SourceError, TupleSource};

/// Consecutive failed attach attempts before a scan gives up and raises
/// a terminal fault.
const MAX_ATTEMPTS: u32 = 5;
/// Base backoff between failed attach attempts (scaled linearly by the
/// failure streak, capped at one second).
const BACKOFF: Duration = Duration::from_millis(50);

/// A [`crate::TupleSource`] served by whichever replica of a logical
/// wrapper is currently fastest and alive.
#[derive(Debug)]
pub struct FailoverSource {
    rel: RelId,
    total: u64,
    produced: u64,
    /// What the reader thread has delivered and the engine not yet taken.
    data: Receiver<Tuple>,
    grants: Arc<Grants>,
    /// The reader and the connection dialed for it, until `start()` opens
    /// the scan and moves both onto their own thread.
    pending: Option<(Supervisor, TcpStream)>,
}

impl FailoverSource {
    /// Select the best live endpoint of `replicas`, connect to it, and
    /// prepare (but do not start) a source for `open`, announcing the
    /// pin on `notify`. Endpoints that refuse the connection are recorded
    /// as failures and the next best is tried; only when every endpoint
    /// has been tried or is on cooldown does this return an error — a
    /// mediator admitting a session finds out immediately that a wrapper
    /// is down. `read_timeout` bounds every read, so a silent endpoint
    /// surfaces as a timeout failure (and a failover target).
    pub fn connect(
        replicas: Arc<ReplicaSet>,
        open: RemoteOpen,
        notify: Sender<Notice>,
        read_timeout: Duration,
    ) -> Result<Self, SourceError> {
        let source = Self::attach(replicas, open, notify, read_timeout)?;
        if let Some((reader, _)) = &source.pending {
            reader.notice(Notice::ReplicaPinned {
                rel: source.rel,
                endpoint: reader.pinned.1.clone(),
            });
        }
        Ok(source)
    }

    fn attach(
        replicas: Arc<ReplicaSet>,
        open: RemoteOpen,
        notify: Sender<Notice>,
        read_timeout: Duration,
    ) -> Result<Self, SourceError> {
        assert!(open.window > 0, "window must be positive");
        let mut last_err = all_on_cooldown(&replicas);
        for _ in 0..replicas.len() {
            let Some((idx, addr)) = replicas.select() else {
                break;
            };
            let stream = match dial(&addr, read_timeout) {
                Ok(stream) => stream,
                Err(e) => {
                    replicas.record_failure(idx);
                    last_err = e;
                    continue;
                }
            };
            let grants = Arc::new(Grants::new(open.rel, open.window, &stream)?);
            let (data_tx, data) = sync_channel(open.window as usize);
            return Ok(FailoverSource {
                rel: open.rel,
                total: open.total,
                produced: open.resume_from,
                data,
                grants: Arc::clone(&grants),
                pending: Some((
                    Supervisor {
                        replicas,
                        open,
                        read_timeout,
                        grants,
                        pinned: (idx, addr),
                        data: data_tx,
                        notify,
                    },
                    stream,
                )),
            });
        }
        Err(last_err)
    }
}

impl TupleSource for FailoverSource {
    fn rel(&self) -> RelId {
        self.rel
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn produced(&self) -> u64 {
        self.produced
    }

    fn start(&mut self) {
        let (supervisor, stream) = self.pending.take().expect("started twice");
        // The sub-query leaves on the caller's thread, so the wrapper is
        // already working while the reader thread is being scheduled.
        let opened = Scan::open(stream, &supervisor.open, supervisor.read_timeout);
        // Detached: the reader exits on its own at the scan's end, or when
        // its sends fail because the run dropped this source.
        thread::spawn(move || supervisor.run(opened));
    }

    /// Push-paced: arrivals are announced on the notify channel, so there
    /// is never a gap to pre-schedule.
    fn next_gap(&mut self) -> Option<SimDuration> {
        None
    }

    fn emit(&mut self) -> Tuple {
        assert!(self.produced < self.total, "emit from exhausted wrapper");
        // Data is sent before its notification, so this never blocks when
        // called in response to a notify.
        let t = self
            .data
            .recv()
            .expect("reader thread died before delivering all tuples");
        self.produced += 1;
        self.grants.consumed(self.produced == self.total);
        t
    }
}

/// The bare-address spelling of a remote source.
pub enum RemoteWrapper {}

impl RemoteWrapper {
    /// Connect to the wrapper-server at `addr` and prepare (but do not
    /// start) a source for `open`: a [`FailoverSource`] over a private
    /// one-endpoint replica set, so a healthy scan announces arrivals only
    /// and the first failure is a terminal [`Notice::Fault`].
    pub fn connect(
        addr: impl ToSocketAddrs,
        open: RemoteOpen,
        notify: Sender<Notice>,
        read_timeout: Duration,
    ) -> Result<FailoverSource, SourceError> {
        let endpoint = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(|| SourceError::Io {
                detail: "wrapper address did not resolve".into(),
            })?
            .to_string();
        let lone = ReplicaGroup {
            id: endpoint.clone(),
            endpoints: vec![endpoint],
        };
        let replicas = Arc::new(ReplicaSet::new(lone, HealthConfig::default()));
        FailoverSource::attach(replicas, open, notify, read_timeout)
    }
}

fn all_on_cooldown(replicas: &ReplicaSet) -> SourceError {
    SourceError::Io {
        detail: format!("every endpoint of '{}' is on cooldown", replicas.id()),
    }
}

/// The reader thread: owns the data connection, re-attaching to a fresh
/// replica whenever the current one fails, until the scan is complete,
/// abandoned, or out of retry budget.
#[derive(Debug)]
struct Supervisor {
    replicas: Arc<ReplicaSet>,
    open: RemoteOpen,
    read_timeout: Duration,
    grants: Arc<Grants>,
    /// The endpoint dialed at construction: index, address.
    pinned: (usize, String),
    /// Tuples in (bounded by the window), notices out.
    data: SyncSender<Tuple>,
    notify: Sender<Notice>,
}

impl Supervisor {
    /// Deliver one tuple, blocking while the window is full. False when
    /// the run was abandoned.
    fn push(&self, key: u64) -> bool {
        // Data before notice: emit() must never block.
        self.data.send(Tuple::new(key, self.open.rel)).is_ok()
            && self.notice(Notice::Arrival(self.open.rel))
    }

    /// Post a notice. False when the run was abandoned.
    fn notice(&self, notice: Notice) -> bool {
        self.notify.send(notice).is_ok()
    }

    /// Post the terminal fault: the source will deliver nothing more.
    fn fault(&self, error: SourceError) {
        self.notice(Notice::Fault {
            rel: self.open.rel,
            error,
        });
    }

    /// `opened` is the scan `start()` opened on the pinned endpoint.
    fn run(self, opened: Result<Scan, SourceError>) {
        let replicas = &self.replicas;
        let rel = self.open.rel;
        let mut next = self.open.resume_from;
        let mut attached = Some((opened, self.pinned.0, self.pinned.1.clone()));
        // The endpoint the scan last ran on, while it is between endpoints.
        let mut from: Option<String> = None;
        // Failed attach attempts since the last delivered batch.
        let mut failures = 0;
        let mut last_err = all_on_cooldown(replicas);
        loop {
            // --- attach: find a live endpoint and open (or resume) ------
            let (opened, idx, addr) = match attached.take() {
                Some(first) => first,
                None => {
                    if failures >= MAX_ATTEMPTS {
                        self.fault(last_err);
                        return;
                    }
                    thread::sleep((BACKOFF * failures).min(Duration::from_secs(1)));
                    let Some((idx, addr)) = replicas.select() else {
                        failures += 1;
                        last_err = all_on_cooldown(replicas);
                        continue;
                    };
                    let resumed = RemoteOpen {
                        resume_from: next,
                        ..self.open.clone()
                    };
                    let opened = dial(&addr, self.read_timeout)
                        .and_then(|stream| Scan::open(stream, &resumed, self.read_timeout))
                        .and_then(|scan| self.grants.attach(&scan).map(|()| scan));
                    (opened, idx, addr)
                }
            };
            let err = match opened {
                Ok(mut scan) => {
                    if let Some(from) = from.take() {
                        let moved = Notice::Failover {
                            rel,
                            from,
                            to: addr.clone(),
                            resume_from: next,
                        };
                        if !self.notice(moved) {
                            return; // run abandoned
                        }
                    }
                    // --- read: stream tuples until EOF or endpoint failure
                    let mut last_batch = Instant::now();
                    loop {
                        match scan.next_batch() {
                            Ok(Some(keys)) => {
                                let tuples = keys.len() as u64;
                                if !keys.into_iter().all(|key| self.push(key)) {
                                    return; // run abandoned
                                }
                                next = scan.next_index();
                                let elapsed = last_batch.elapsed();
                                last_batch = Instant::now();
                                replicas.record_batch(idx, tuples, elapsed.as_nanos() as u64);
                                failures = 0;
                            }
                            Ok(None) => return, // scan complete
                            Err(e) => break e,
                        }
                    }
                }
                Err(e) => e,
            };
            // The endpoint failed. Cooldown diverts a scan only when there
            // is a peer to divert it to; alone, its error is the scan's.
            let degraded = replicas.record_failure(idx);
            if replicas.len() == 1 {
                self.fault(err);
                return;
            }
            if degraded {
                let notice = Notice::ReplicaDegraded {
                    rel,
                    endpoint: addr.clone(),
                    error: err.clone(),
                };
                if !self.notice(notice) {
                    return; // run abandoned
                }
            }
            failures += 1;
            last_err = err;
            from.get_or_insert(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{read_frame, write_frame, Frame};
    use crate::scan::tests::{black_hole, keys, mk_open, one_shot_server, serve};
    use dqs_relop::{synth_key, RelId};
    use std::net::TcpListener;
    use std::sync::mpsc::{channel, Receiver};

    /// Drain `w` to exhaustion, returning its keys and every notice that
    /// was not an arrival.
    fn drain(mut w: FailoverSource, nrx: Receiver<Notice>) -> (Vec<u64>, Vec<Notice>) {
        let (mut got, mut notices) = (Vec::new(), Vec::new());
        w.start();
        while !w.exhausted() {
            match nrx.recv_timeout(Duration::from_secs(20)).expect("notice") {
                Notice::Arrival(rel) => {
                    assert_eq!(rel, RelId(3));
                    got.push(w.emit().key);
                }
                other => notices.push(other),
            }
        }
        (got, notices)
    }

    #[test]
    fn delivers_remote_tuples_granting_half_windows() {
        // mk_open's window is 8: credits come back four at a time.
        let addr = one_shot_server(|conn| serve(conn, 4, None));
        let (ntx, nrx) = channel();
        let mut w =
            RemoteWrapper::connect(addr, mk_open(40), ntx, Duration::from_secs(10)).unwrap();
        assert_eq!(w.next_gap(), None, "push-paced: no gap to pre-schedule");
        assert_eq!((w.total(), w.produced()), (40, 0));
        // Five windows' worth: the reader blocks on the full channel until
        // the consumer drains it, and everything still arrives in order.
        let (got, notices) = drain(w, nrx);
        assert_eq!(
            got,
            keys(RelId(3), 0..40),
            "same keys as the in-process wrappers"
        );
        assert_eq!(notices, vec![], "a healthy bare-address scan only arrives");
    }

    #[test]
    fn a_dying_replica_hands_the_scan_to_its_peer_at_the_next_index() {
        let a = one_shot_server(|conn| serve(conn, 1, Some(10))).to_string();
        let b = one_shot_server(|conn| serve(conn, 1, None)).to_string();
        let group = ReplicaGroup {
            id: "w0".into(),
            endpoints: vec![a.clone(), b.clone()],
        };
        let replicas = Arc::new(ReplicaSet::new(group, HealthConfig::default()));
        let (ntx, nrx) = channel();
        let w = FailoverSource::connect(replicas, mk_open(40), ntx, Duration::from_secs(10))
            .expect("replica a is up");
        let (got, notices) = drain(w, nrx);
        assert_eq!(got, keys(RelId(3), 0..40), "not a tuple lost or repeated");
        let rel = RelId(3);
        assert!(
            matches!(&notices[..], [
                Notice::ReplicaPinned { endpoint, .. },
                Notice::ReplicaDegraded { endpoint: lost, error, .. },
                Notice::Failover { from, to, resume_from, .. },
            // The dying peer's reset may discard tuples already in flight;
            // the resume index is wherever the reader actually got to.
            ] if *endpoint == a && *lost == a && error.kind() == "disconnected"
                && *from == a && *to == b && *resume_from <= 10),
            "{notices:?}"
        );
        assert!(notices.iter().all(|n| n.rel() == rel));
    }

    /// A lone endpoint has no peer to fail over to: its first failure is
    /// the terminal fault, raised at once with no degrade notice before it
    /// and no retry after.
    #[test]
    fn lone_endpoint_failure_is_an_immediate_fault() {
        let addr = one_shot_server(|mut conn| {
            let _ = read_frame(&mut conn); // consume Open
            let batch = Frame::TupleBatch {
                rel: RelId(3),
                keys: vec![synth_key(RelId(3), 0), synth_key(RelId(3), 1)],
            };
            write_frame(&mut conn, &batch).unwrap();
            // Drop the connection with 38 tuples still owed.
        });

        let (ntx, nrx) = channel();
        let mut w =
            RemoteWrapper::connect(addr, mk_open(40), ntx, Duration::from_secs(10)).unwrap();
        w.start();
        let mut arrivals = 0;
        loop {
            match nrx.recv_timeout(Duration::from_secs(20)).expect("notice") {
                Notice::Arrival(_) => {
                    let _ = w.emit();
                    arrivals += 1;
                }
                Notice::Fault { rel, error } => {
                    assert_eq!(rel, RelId(3));
                    assert_eq!(error.kind(), "disconnected", "{error}");
                    break;
                }
                other => panic!("unexpected notice: {other:?}"),
            }
        }
        assert_eq!(arrivals, 2);
        assert!(nrx.recv().is_err(), "a fault is the source's last word");
    }

    #[test]
    fn connect_to_dead_address_errors_immediately() {
        // Bind then drop to get a port that refuses connections.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let (ntx, _nrx) = channel();
        let r = RemoteWrapper::connect(addr, mk_open(4), ntx, Duration::from_secs(1));
        assert!(r.is_err(), "connect must fail eagerly");
    }

    /// An endpoint that never answers its SYN used to block the dial for
    /// the OS connect timeout (minutes) while the session held its slot.
    #[test]
    fn a_black_holed_replica_fails_over_to_its_peer_within_the_connect_bound() {
        let (dead, _listener, _held) = black_hole();
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer.local_addr().unwrap().to_string();
        let group = ReplicaGroup {
            id: "w0".into(),
            endpoints: vec![dead.to_string(), peer_addr.clone()],
        };
        let replicas = Arc::new(ReplicaSet::new(group, HealthConfig::default()));
        let (ntx, nrx) = channel();
        let started = Instant::now();
        let _source = FailoverSource::connect(
            Arc::clone(&replicas),
            mk_open(4),
            ntx,
            Duration::from_secs(10),
        )
        .expect("the peer is reachable");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the dead endpoint cost {:?}, not one bounded connect",
            started.elapsed()
        );
        assert_eq!(
            nrx.recv().unwrap(),
            Notice::ReplicaPinned {
                rel: RelId(3),
                endpoint: peer_addr,
            }
        );
        assert_eq!(replicas.snapshot()[0].failures_total, 1);
    }
}
