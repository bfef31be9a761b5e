//! The one mediator-side client of the wrapper wire protocol.
//!
//! §3.1's communication manager is the only part of the paper's mediator
//! that talks to a wrapper, and this module is the only code here that
//! does: [`dial`] is the single place a wrapper socket is connected,
//! [`Scan`] the single reader of the §2.1 window protocol — it builds the
//! [`Frame::Open`], validates every [`Frame::TupleBatch`] / [`Frame::Eof`]
//! / [`Frame::Error`] that comes back, and (with [`Grants`]) writes the
//! [`Frame::WindowGrant`]s. The push-paced source
//! ([`crate::FailoverSource`]), the refresher's tail fetch
//! ([`Scan::drain`]) and its stat poll ([`stat`]) are all callers. A
//! wrapper connection carries one `Open` — every scan (and every
//! failover resume) [`dial`]s its own, which is what lets the wrapper
//! serve a scan on exactly one thread.
//!
//! Every failure is a typed [`SourceError`]: tuple payloads are pure
//! functions of `(rel, index)`, so the reader checks each key against
//! [`synth_key`] and a resumed or refreshed stream is *provably* the one
//! the wrapper owed, not merely the right length.

use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use dqs_relop::{synth_key, RelId};

use crate::net::{read_frame, write_frame, Frame, FrameError, RelStat, RemoteOpen};
use crate::source::SourceError;

/// How long [`dial`] waits for a wrapper to accept the connection. A
/// black-holed endpoint costs a session (and the slot it holds) this
/// long, not the OS SYN timeout.
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Largest pre-allocation [`Scan::drain`] makes from a wrapper-reported
/// total; beyond it the buffer grows with what actually arrives.
const DRAIN_PREALLOC_TUPLES: u64 = 1 << 16;

fn sock_err(e: std::io::Error, what: &str) -> SourceError {
    SourceError::Io {
        detail: format!("{what}: {e}"),
    }
}

/// Classify a failed frame read or write into the source-level failure
/// taxonomy.
fn frame_err(e: FrameError, timeout: Duration) -> SourceError {
    if e.is_timeout() {
        return SourceError::Timeout {
            millis: timeout.as_millis() as u64,
        };
    }
    match e {
        FrameError::Io {
            kind: ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe,
            detail,
        } => SourceError::Disconnected { detail },
        FrameError::Io { detail, .. } => SourceError::Io { detail },
        other => SourceError::Protocol {
            detail: other.to_string(),
        },
    }
}

fn clone_of(stream: &TcpStream) -> Result<TcpStream, SourceError> {
    stream.try_clone().map_err(|e| sock_err(e, "clone socket"))
}

fn protocol(detail: String) -> SourceError {
    SourceError::Protocol { detail }
}

/// Connect to a wrapper: bounded connect ([`CONNECT_TIMEOUT`] per
/// resolved address), `TCP_NODELAY`, and `read_timeout` on the socket so
/// a silent peer surfaces as [`SourceError::Timeout`] instead of a hang.
pub fn dial(addr: impl ToSocketAddrs, read_timeout: Duration) -> Result<TcpStream, SourceError> {
    let mut last = SourceError::Io {
        detail: "address resolved to nothing".into(),
    };
    for sockaddr in addr.to_socket_addrs().map_err(|e| sock_err(e, "resolve"))? {
        match TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(read_timeout))
                    .map_err(|e| sock_err(e, "set read timeout"))?;
                return Ok(stream);
            }
            Err(e) => last = sock_err(e, &format!("connect {sockaddr}")),
        }
    }
    Err(last)
}

/// One `StatRequest` round-trip on a short-lived connection: the
/// change-tracking state of every relation the wrapper at `addr` serves.
pub fn stat(addr: &str, read_timeout: Duration) -> Result<Vec<RelStat>, SourceError> {
    let mut conn = dial(addr, read_timeout)?;
    write_frame(&mut conn, &Frame::StatRequest { rel: None })
        .map_err(|e| frame_err(e, read_timeout))?;
    match read_frame(&mut conn).map_err(|e| frame_err(e, read_timeout))? {
        Some(Frame::StatReply { stats }) => Ok(stats),
        other => Err(protocol(format!("expected a stat reply, got {other:?}"))),
    }
}

fn write_grant(w: &mut TcpStream, rel: RelId, credits: u32) -> Result<(), FrameError> {
    write_frame(w, &Frame::WindowGrant { rel, credits })
}

/// An open scan of `[resume_from, total)` on one wrapper connection.
#[derive(Debug)]
pub struct Scan {
    stream: TcpStream,
    rel: RelId,
    total: u64,
    /// Index of the next tuple the wrapper owes.
    next: u64,
    read_timeout: Duration,
}

impl Scan {
    /// Send the sub-query on a [`dial`]ed stream. `read_timeout` is the
    /// one the stream was dialed with (it labels timeout errors).
    pub fn open(
        mut stream: TcpStream,
        open: &RemoteOpen,
        read_timeout: Duration,
    ) -> Result<Scan, SourceError> {
        if open.resume_from > open.total {
            return Err(protocol(format!(
                "scan of relation {} resumes at {} past its end {}",
                open.rel.0, open.resume_from, open.total
            )));
        }
        write_frame(&mut stream, &Frame::Open(open.clone()))
            .map_err(|e| frame_err(e, read_timeout))?;
        Ok(Scan {
            stream,
            rel: open.rel,
            total: open.total,
            next: open.resume_from,
            read_timeout,
        })
    }

    /// Index of the next tuple the wrapper owes — where a failed-over scan
    /// resumes.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Read the next batch of keys; `Ok(None)` is the wrapper's `Eof`
    /// after exactly the tuples opened. Anything else the peer can do —
    /// close early, go silent, answer for another relation, over-deliver,
    /// send a key that is not `synth_key(rel, index)`, end early, report
    /// an error, speak another part of the protocol — is an `Err`, and
    /// the scan is over.
    pub fn next_batch(&mut self) -> Result<Option<Vec<u64>>, SourceError> {
        let frame = match read_frame(&mut self.stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                return Err(SourceError::Disconnected {
                    detail: format!(
                        "wrapper closed after {} of {} tuples",
                        self.next, self.total
                    ),
                })
            }
            Err(e) => return Err(frame_err(e, self.read_timeout)),
        };
        match frame {
            Frame::TupleBatch { rel, keys } => {
                if rel != self.rel {
                    return Err(protocol(format!(
                        "batch for relation {} on a stream opened for {}",
                        rel.0, self.rel.0
                    )));
                }
                if keys.len() as u64 > self.total - self.next {
                    return Err(protocol(format!(
                        "wrapper sent more than the {} tuples opened",
                        self.total
                    )));
                }
                for (index, key) in (self.next..).zip(&keys) {
                    if *key != synth_key(rel, index) {
                        return Err(protocol(format!(
                            "wrapper sent a wrong key at index {index}"
                        )));
                    }
                }
                self.next += keys.len() as u64;
                Ok(Some(keys))
            }
            Frame::Eof { rel } if rel == self.rel && self.next == self.total => Ok(None),
            Frame::Eof { rel } => Err(protocol(format!(
                "eof for relation {} after {} of {} tuples",
                rel.0, self.next, self.total
            ))),
            Frame::Error { code, message } => {
                Err(protocol(format!("wrapper error {code}: {message}")))
            }
            other => Err(protocol(format!(
                "unexpected frame on data stream: {other:?}"
            ))),
        }
    }

    /// Read the scan to its `Eof` on the calling thread, returning every
    /// credit as its batch lands — the blocking consumer (the refresher's
    /// tail and full re-fetches). The wrapper paces delivery with the
    /// scan's real delay model, so this costs what any scan of that many
    /// tuples costs.
    pub fn drain(mut self) -> Result<Vec<u64>, SourceError> {
        let owed = self.total - self.next;
        let mut keys = Vec::with_capacity(owed.min(DRAIN_PREALLOC_TUPLES) as usize);
        while let Some(batch) = self.next_batch()? {
            write_grant(&mut self.stream, self.rel, batch.len() as u32)
                .map_err(|e| frame_err(e, self.read_timeout))?;
            keys.extend(batch);
        }
        Ok(keys)
    }
}

/// The credit-return half of a push-paced scan, shared by the engine
/// thread (which consumes tuples) and the reader thread (which swaps in
/// the new connection after a failover).
#[derive(Debug)]
pub struct Grants {
    rel: RelId,
    window: u32,
    state: Mutex<GrantState>,
}

#[derive(Debug)]
struct GrantState {
    /// The connection credits go back on.
    writer: TcpStream,
    /// Tuples consumed since the last grant.
    pending: u32,
}

impl Grants {
    /// Credits for `rel` under a `window`-tuple window, returned on a
    /// second handle to `stream`.
    pub fn new(rel: RelId, window: u32, stream: &TcpStream) -> Result<Grants, SourceError> {
        Ok(Grants {
            rel,
            window,
            state: Mutex::new(GrantState {
                writer: clone_of(stream)?,
                pending: 0,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GrantState> {
        // Poisoning needs a panic between two plain stores; the pair is
        // valid at every step.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The scan moved to `scan`'s connection. A re-opened scan starts
    /// with a full window, so credits pending for the old one are dropped.
    pub fn attach(&self, scan: &Scan) -> Result<(), SourceError> {
        let writer = clone_of(&scan.stream)?;
        *self.lock() = GrantState { writer, pending: 0 };
        Ok(())
    }

    /// The engine took one tuple (`last`: the scan's final one). Credits
    /// go back once half the window is consumed. A failed write is not
    /// fatal here — the credits stay pending and the reader thread, which
    /// sees the same broken connection, raises the fault or fails over.
    pub fn consumed(&self, last: bool) {
        let mut state = self.lock();
        state.pending += 1;
        if u64::from(state.pending) * 2 >= u64::from(self.window) || last {
            let credits = state.pending;
            if write_grant(&mut state.writer, self.rel, credits).is_ok() {
                state.pending = 0;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use dqs_sim::SimDuration;
    use std::net::{SocketAddr, TcpListener};
    use std::thread;
    use std::time::Instant;

    /// A hand-rolled single-shot wrapper peer for exercising the client
    /// side without the full wrapper-server.
    pub(crate) fn one_shot_server(behave: impl FnOnce(TcpStream) + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            behave(conn);
        });
        addr
    }

    pub(crate) fn mk_open(total: u64) -> RemoteOpen {
        RemoteOpen {
            rel: RelId(3),
            total,
            window: 8,
            seed: 42,
            stream: "wrapper:test".into(),
            delay: DelayModel::Constant {
                w: SimDuration::from_nanos(1),
            },
            resume_from: 0,
        }
    }

    /// A listening address that never answers: its accept queue is full,
    /// so the kernel drops further SYNs. Holds the sockets that fill it.
    pub(crate) fn black_hole() -> (SocketAddr, TcpListener, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut held = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
            held.push(s);
            assert!(held.len() < 10_000, "accept queue never filled");
        }
        (addr, listener, held)
    }

    pub(crate) fn keys(rel: RelId, range: std::ops::Range<u64>) -> Vec<u64> {
        range.map(|i| synth_key(rel, i)).collect()
    }

    fn batch(rel: u16, keys: Vec<u64>) -> Frame {
        Frame::TupleBatch {
            rel: RelId(rel),
            keys,
        }
    }

    /// Open a 4-tuple scan of relation 3 against a peer that reads the
    /// `Open`, writes `reply`, and keeps the connection open for `linger`;
    /// return how draining the scan ended.
    fn scan_against(
        reply: Vec<Frame>,
        linger: Duration,
        read_timeout: Duration,
    ) -> Result<Vec<u64>, SourceError> {
        let addr = one_shot_server(move |mut conn| {
            let _ = read_frame(&mut conn); // consume Open
            for frame in &reply {
                write_frame(&mut conn, frame).unwrap();
            }
            thread::sleep(linger);
        });
        let stream = dial(addr, read_timeout)?;
        Scan::open(stream, &mk_open(4), read_timeout)?.drain()
    }

    /// The fault table: every way a peer can break the protocol, checked
    /// once against the one reader every source and the refresher share.
    /// `(name, frames the peer sends, error kind, text the error carries)`.
    /// The peer lingers after its last frame in every case but the first,
    /// so a `protocol` kind proves the frames were judged, not the close.
    #[test]
    fn every_peer_fault_becomes_a_typed_error() {
        let rel = RelId(3);
        let cases: Vec<(&str, Vec<Frame>, &str, &str)> = vec![
            // Clean close or reset, depending on whether the grant for the
            // batch reached the closed socket first.
            (
                "peer closes early",
                vec![batch(3, keys(rel, 0..2))],
                "disconnected",
                "",
            ),
            ("silent peer", vec![], "timeout", "80 ms"),
            (
                "wrong relation",
                vec![batch(99, keys(RelId(99), 0..1))],
                "protocol",
                "relation 99",
            ),
            (
                "overrun",
                vec![batch(3, keys(rel, 0..3)), batch(3, keys(rel, 3..5))],
                "protocol",
                "more than the 4",
            ),
            (
                "wrong key at index",
                vec![batch(3, vec![synth_key(rel, 0), synth_key(rel, 2)])],
                "protocol",
                "wrong key at index 1",
            ),
            (
                "early eof",
                vec![batch(3, keys(rel, 0..3)), Frame::Eof { rel }],
                "protocol",
                "after 3 of 4",
            ),
            (
                "eof for another relation",
                vec![batch(3, keys(rel, 0..4)), Frame::Eof { rel: RelId(9) }],
                "protocol",
                "eof for relation 9",
            ),
            (
                "error frame",
                vec![Frame::Error {
                    code: 7,
                    message: "no such relation".into(),
                }],
                "protocol",
                "wrapper error 7",
            ),
            (
                "unexpected frame",
                vec![Frame::Queued { position: 1 }],
                "protocol",
                "unexpected frame",
            ),
        ];
        for (name, reply, kind, needle) in cases {
            let linger = match name {
                "peer closes early" => Duration::ZERO,
                _ => Duration::from_secs(2),
            };
            let timeout = match name {
                "silent peer" => Duration::from_millis(80),
                _ => Duration::from_secs(10),
            };
            let err = scan_against(reply, linger, timeout).expect_err(name);
            assert_eq!(err.kind(), kind, "{name}: {err}");
            assert!(err.to_string().contains(needle), "{name}: {err}");
        }
    }

    /// A well-behaved wrapper peer: read the `Open`, then serve its range
    /// one tuple per batch under the window protocol, asserting every
    /// grant is at least `min_grant` credits (the final flush excepted).
    /// With `die_before`, close the connection instead of sending that
    /// index.
    pub(crate) fn serve(mut conn: TcpStream, min_grant: u32, die_before: Option<u64>) {
        let open = match read_frame(&mut conn).unwrap().unwrap() {
            Frame::Open(open) => open,
            other => panic!("expected Open, got {other:?}"),
        };
        let rel = open.rel;
        let mut credits = u64::from(open.window);
        for i in open.resume_from..open.total {
            if die_before == Some(i) {
                return;
            }
            while credits == 0 {
                match read_frame(&mut conn).unwrap().unwrap() {
                    Frame::WindowGrant { credits: c, .. } => {
                        assert!(c >= min_grant, "grant of {c} credits");
                        credits += u64::from(c);
                    }
                    other => panic!("expected grant, got {other:?}"),
                }
            }
            write_frame(&mut conn, &batch(rel.0, vec![synth_key(rel, i)])).unwrap();
            credits -= 1;
        }
        write_frame(&mut conn, &Frame::Eof { rel }).unwrap();
        // Drain until the client closes: dropping the socket with unread
        // grants in flight raises an RST that can discard the buffered
        // Eof on the client side.
        while let Ok(Some(_)) = read_frame(&mut conn) {}
    }

    #[test]
    fn drain_returns_the_opened_range_and_a_credit_per_tuple() {
        let addr = one_shot_server(|conn| serve(conn, 1, None));
        let timeout = Duration::from_secs(10);
        let open = RemoteOpen {
            resume_from: 15,
            ..mk_open(40)
        };
        let got = Scan::open(dial(addr, timeout).unwrap(), &open, timeout)
            .unwrap()
            .drain()
            .unwrap();
        assert_eq!(got, keys(RelId(3), 15..40));
    }

    /// The refresher's fetch trusted its peer: it buffered whatever came
    /// until `Eof` and sized the buffer from the reported total.
    #[test]
    fn drain_rejects_an_over_delivering_peer_at_the_first_extra_tuple() {
        let started = Instant::now();
        // The peer never sends Eof and lingers far longer than the
        // assertion allows: only the overrun check can end the drain.
        let err = scan_against(
            vec![
                batch(3, keys(RelId(3), 0..4)),
                batch(3, keys(RelId(3), 4..6)),
            ],
            Duration::from_secs(8),
            Duration::from_secs(30),
        )
        .expect_err("over-delivery");
        assert_eq!(err.kind(), "protocol", "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "{err}");
    }

    #[test]
    fn a_huge_reported_total_is_not_preallocated_and_bad_ranges_are_rejected() {
        let addr = one_shot_server(|mut conn| {
            let _ = read_frame(&mut conn);
            write_frame(&mut conn, &Frame::Eof { rel: RelId(3) }).unwrap();
            thread::sleep(Duration::from_millis(200));
        });
        let timeout = Duration::from_secs(10);
        let err = Scan::open(
            dial(addr, timeout).unwrap(),
            &mk_open(u64::MAX >> 1),
            timeout,
        )
        .unwrap()
        .drain()
        .expect_err("eof before any tuple");
        assert_eq!(err.kind(), "protocol", "{err}");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let backwards = RemoteOpen {
            resume_from: 9,
            ..mk_open(4)
        };
        let stream = dial(listener.local_addr().unwrap(), timeout).unwrap();
        let err = Scan::open(stream, &backwards, timeout).expect_err("to < from");
        assert_eq!(err.kind(), "protocol", "{err}");
    }

    #[test]
    fn dial_fails_fast_on_a_refused_port_and_within_the_bound_on_a_black_hole() {
        // Bind then drop to get a port that refuses connections.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = listener.local_addr().unwrap();
        drop(listener);
        assert!(dial(dead, Duration::from_secs(1)).is_err());

        let (addr, _listener, _held) = black_hole();
        let started = Instant::now();
        let err = dial(addr, Duration::from_secs(1)).expect_err("nobody answers");
        assert_eq!(err.kind(), "io", "{err}");
        assert!(
            started.elapsed() < CONNECT_TIMEOUT * 3,
            "a black-holed dial is bounded: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn stat_round_trips_and_rejects_other_replies() {
        let want = vec![RelStat {
            rel: RelId(8),
            version: 2,
            total: 27,
            rewrite_version: 0,
        }];
        let reply = want.clone();
        let addr = one_shot_server(move |mut conn| {
            assert_eq!(
                read_frame(&mut conn).unwrap().unwrap(),
                Frame::StatRequest { rel: None }
            );
            write_frame(&mut conn, &Frame::StatReply { stats: reply }).unwrap();
        });
        assert_eq!(
            stat(&addr.to_string(), Duration::from_secs(10)).unwrap(),
            want
        );

        let addr = one_shot_server(|mut conn| {
            let _ = read_frame(&mut conn);
            write_frame(&mut conn, &Frame::Eof { rel: RelId(1) }).unwrap();
        });
        let err = stat(&addr.to_string(), Duration::from_secs(10)).expect_err("not a reply");
        assert_eq!(err.kind(), "protocol", "{err}");
    }
}
