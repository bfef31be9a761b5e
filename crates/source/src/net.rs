//! The mediator wire protocol: a length-prefixed binary frame codec.
//!
//! §2.1's window protocol made real: the mediator and its wrappers — and
//! the clients submitting queries to the mediator — exchange [`Frame`]s
//! over TCP. Every frame is `u32` big-endian body length followed by the
//! body (`u8` tag + fields); strings are `u32` length + UTF-8; integers
//! are big-endian. The codec is `std`-only and panic-free: malformed,
//! truncated or oversized input decodes to a typed [`FrameError`].
//!
//! Wrapper-facing frames (the paper's window protocol):
//!
//! | frame           | direction          | meaning                               |
//! |-----------------|--------------------|---------------------------------------|
//! | [`Frame::Open`] | mediator → wrapper | subscribe to a relation with a window |
//! | [`Frame::TupleBatch`] | wrapper → mediator | one or more result tuples       |
//! | [`Frame::WindowGrant`] | mediator → wrapper | return consumed window credits |
//! | [`Frame::Eof`]  | wrapper → mediator | all tuples delivered                  |
//! | [`Frame::Error`]| either             | abort with a reason                   |
//!
//! Client-facing frames (query submission):
//!
//! | frame               | direction          | meaning                          |
//! |---------------------|--------------------|----------------------------------|
//! | [`Frame::Submit`]   | client → mediator  | run this JSON workload spec      |
//! | [`Frame::Accepted`] | mediator → client  | session admitted, memory granted |
//! | [`Frame::Queued`]   | mediator → client  | backlogged at this position      |
//! | [`Frame::Rejected`] | mediator → client  | refused (overload / bad spec)    |
//! | [`Frame::Trace`]    | mediator → client  | one JSON engine-event line       |
//! | [`Frame::Done`]     | mediator → client  | final metrics, session over      |
//! | [`Frame::Invalidate`] | client → mediator | drop cached scans (refresh)     |
//! | [`Frame::Invalidated`] | mediator → client | how much the invalidate freed  |
//!
//! Freshness frames (change tracking for the refresh scheduler):
//!
//! | frame                  | direction          | meaning                       |
//! |------------------------|--------------------|-------------------------------|
//! | [`Frame::StatRequest`] | mediator → wrapper | report relation change state  |
//! | [`Frame::StatReply`]   | wrapper → mediator | one [`RelStat`] per relation  |

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

use dqs_relop::RelId;
use dqs_sim::SimDuration;

use crate::delay::DelayModel;

/// Hard ceiling on a frame body; a decoder that reads the length prefix
/// refuses anything larger before allocating.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// The one description of a scan — the body of [`Frame::Open`], and what
/// every client of a wrapper (a session's source, a failover resume, the
/// refresher's re-fetch) holds to say which tuples it wants: serve
/// `[resume_from, total)` of `rel`, keeping at most `window`
/// unacknowledged tuples in flight. The delay model and the seeded stream
/// name make the remote wrapper's pacing reproduce the in-process
/// [`crate::Wrapper`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOpen {
    /// Relation id in the mediator's catalog (also keys the tuples).
    pub rel: RelId,
    /// Tuples to deliver.
    pub total: u64,
    /// Flow-control window in tuples (also the local channel bound).
    pub window: u32,
    /// Master seed for the wrapper's delay stream.
    pub seed: u64,
    /// Seed-splitter stream label (e.g. `wrapper:orders`).
    pub stream: String,
    /// Delivery pacing the wrapper should perform.
    pub delay: DelayModel,
    /// First tuple index to deliver (0 = a fresh scan). Because tuple
    /// payloads are a pure function of `(rel, index)`, a failed-over scan
    /// resumes on a replica at the next undelivered index instead of
    /// re-fetching from the start, and the resumed stream is bit-identical
    /// to the lost remainder.
    pub resume_from: u64,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Mediator → wrapper: serve this scan. A connection carries one
    /// `Open`: the wrapper serves the scan on the connection's own thread
    /// and refuses a second with an [`Frame::Error`].
    Open(RemoteOpen),
    /// Wrapper → mediator: result tuples, identified by their synthetic
    /// join keys (the receiver reconstructs `Tuple { key, origin: rel }`).
    TupleBatch {
        /// The producing relation.
        rel: RelId,
        /// Synthetic join keys, in delivery order.
        keys: Vec<u64>,
    },
    /// Mediator → wrapper: the consumer drained `credits` tuples; the
    /// wrapper may ship that many more.
    WindowGrant {
        /// The relation being granted.
        rel: RelId,
        /// Window credits returned.
        credits: u32,
    },
    /// Wrapper → mediator: every tuple of `rel` has been delivered.
    Eof {
        /// The finished relation.
        rel: RelId,
    },
    /// Either direction: abort with a machine code and human reason.
    Error {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable reason.
        message: String,
    },
    /// Client → mediator: run this workload.
    Submit {
        /// Strategy name (`seq` | `ma` | `scr` | `dse`).
        strategy: String,
        /// Stream JSON engine-event trace lines back as [`Frame::Trace`].
        trace: bool,
        /// Bypass the mediator's result cache: neither serve this session
        /// from cached scans nor record its scans.
        no_cache: bool,
        /// Optional seed override (wins over the spec's `config.seed`).
        seed: Option<u64>,
        /// The JSON workload spec (the `examples/specs/` format).
        spec_json: String,
    },
    /// Mediator → client: the session was admitted and is running.
    Accepted {
        /// Server-assigned session id.
        session: u64,
        /// The memory partition this session runs under, in bytes.
        memory_bytes: u64,
    },
    /// Mediator → client: all execution slots busy; waiting in the backlog.
    Queued {
        /// Position in the backlog (0 = next to run).
        position: u32,
    },
    /// Mediator → client: the submission was refused.
    Rejected {
        /// Why (bad spec, overload, wrapper unreachable).
        reason: String,
    },
    /// Mediator → client: one JSON engine-event line (see
    /// `dqs_exec::observe::JsonLinesSink`).
    Trace {
        /// The JSON object, without trailing newline.
        line: String,
    },
    /// Mediator → client: the query finished; metrics as a JSON object.
    Done {
        /// Flat JSON rendering of the run metrics.
        metrics_json: String,
    },
    /// Client → mediator: drop cached scans so the next session re-fetches
    /// fresh data (the refresh lever of the cache subsystem).
    Invalidate {
        /// Only this relation's entries, or every relation when `None`.
        rel: Option<RelId>,
        /// Only entries recorded under this *logical* wrapper id (the
        /// replica-group id, not a pinned endpoint address), or every
        /// wrapper when `None`.
        wrapper: Option<String>,
    },
    /// Mediator → client: what an [`Frame::Invalidate`] removed.
    Invalidated {
        /// Entries dropped.
        entries: u64,
        /// Bytes released (payload + accounting overhead).
        bytes: u64,
    },
    /// Mediator → wrapper: report change-tracking state for one relation
    /// (or every registered relation when `rel` is `None`).
    StatRequest {
        /// Restrict the reply to this relation.
        rel: Option<RelId>,
    },
    /// Wrapper → mediator: one [`RelStat`] per registered relation. A
    /// relation the wrapper has never served (or been asked about) is
    /// simply absent.
    StatReply {
        /// Change-tracking state, in ascending relation order.
        stats: Vec<RelStat>,
    },
}

/// Per-relation change-tracking state, as reported by a wrapper in
/// [`Frame::StatReply`].
///
/// `version` is a monotonic change counter bumped by every mutation.
/// `rewrite_version` is the version of the *last non-append* mutation: a
/// cached scan captured at version `v` still has a valid prefix iff
/// `rewrite_version <= v`, in which case a refresh only needs the tail
/// `[cached_len, total)`; otherwise the prefix itself may have changed
/// and a full re-scan is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelStat {
    /// The relation this row describes.
    pub rel: RelId,
    /// Monotonic change counter (0 = never mutated since registration).
    pub version: u64,
    /// Current total tuple count.
    pub total: u64,
    /// Version of the last rewrite/shrink (0 = insert-only history).
    pub rewrite_version: u64,
}

/// Why a frame could not be decoded (or read).
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed mid-frame.
    Io {
        /// The I/O error kind (distinguishes timeouts from disconnects).
        kind: ErrorKind,
        /// The transport's message.
        detail: String,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Declared body length.
        len: usize,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The body ended before the field being decoded.
    Truncated {
        /// Which field was being decoded.
        field: &'static str,
    },
    /// The tag byte names no known frame.
    UnknownTag(u8),
    /// A field decoded but its value is invalid.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The body is longer than its frame's fields.
    TrailingBytes {
        /// Unconsumed bytes after the last field.
        extra: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io { kind, detail } => write!(f, "i/o error ({kind:?}): {detail}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max} byte cap")
            }
            FrameError::Truncated { field } => write!(f, "frame truncated decoding {field}"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// True when this error is a read timeout (no bytes within the
    /// socket's read-timeout window) rather than a peer failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io {
                kind: ErrorKind::WouldBlock | ErrorKind::TimedOut,
                ..
            }
        )
    }

    fn io(e: std::io::Error) -> FrameError {
        FrameError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

// --- frame tags -------------------------------------------------------------

const TAG_OPEN: u8 = 1;
const TAG_TUPLE_BATCH: u8 = 2;
const TAG_WINDOW_GRANT: u8 = 3;
const TAG_EOF: u8 = 4;
const TAG_ERROR: u8 = 5;
const TAG_SUBMIT: u8 = 6;
const TAG_ACCEPTED: u8 = 7;
const TAG_QUEUED: u8 = 8;
const TAG_REJECTED: u8 = 9;
const TAG_TRACE: u8 = 10;
const TAG_DONE: u8 = 11;
const TAG_INVALIDATE: u8 = 12;
const TAG_INVALIDATED: u8 = 13;
const TAG_STAT_REQUEST: u8 = 14;
const TAG_STAT_REPLY: u8 = 15;

/// Encoded size of one [`RelStat`] row (u16 rel + three u64s).
const REL_STAT_BYTES: usize = 2 + 8 + 8 + 8;

// --- encoding ---------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_delay(buf: &mut Vec<u8>, d: &DelayModel) {
    match d {
        DelayModel::Constant { w } => {
            buf.push(0);
            put_u64(buf, w.as_nanos());
        }
        DelayModel::Uniform { mean } => {
            buf.push(1);
            put_u64(buf, mean.as_nanos());
        }
        DelayModel::Initial { initial, mean } => {
            buf.push(2);
            put_u64(buf, initial.as_nanos());
            put_u64(buf, mean.as_nanos());
        }
        DelayModel::Bursty {
            burst,
            within,
            pause,
        } => {
            buf.push(3);
            put_u64(buf, *burst);
            put_u64(buf, within.as_nanos());
            put_u64(buf, pause.as_nanos());
        }
    }
}

impl Frame {
    /// Encode the frame body (tag + fields), without the length prefix.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        match self {
            Frame::Open(open) => {
                b.push(TAG_OPEN);
                put_u16(&mut b, open.rel.0);
                put_u64(&mut b, open.total);
                put_u32(&mut b, open.window);
                put_u64(&mut b, open.seed);
                put_str(&mut b, &open.stream);
                put_delay(&mut b, &open.delay);
                put_u64(&mut b, open.resume_from);
            }
            Frame::TupleBatch { rel, keys } => {
                b.push(TAG_TUPLE_BATCH);
                put_u16(&mut b, rel.0);
                put_u32(&mut b, keys.len() as u32);
                for k in keys {
                    put_u64(&mut b, *k);
                }
            }
            Frame::WindowGrant { rel, credits } => {
                b.push(TAG_WINDOW_GRANT);
                put_u16(&mut b, rel.0);
                put_u32(&mut b, *credits);
            }
            Frame::Eof { rel } => {
                b.push(TAG_EOF);
                put_u16(&mut b, rel.0);
            }
            Frame::Error { code, message } => {
                b.push(TAG_ERROR);
                put_u16(&mut b, *code);
                put_str(&mut b, message);
            }
            Frame::Submit {
                strategy,
                trace,
                no_cache,
                seed,
                spec_json,
            } => {
                b.push(TAG_SUBMIT);
                put_str(&mut b, strategy);
                b.push(u8::from(*trace));
                b.push(u8::from(*no_cache));
                match seed {
                    Some(s) => {
                        b.push(1);
                        put_u64(&mut b, *s);
                    }
                    None => b.push(0),
                }
                put_str(&mut b, spec_json);
            }
            Frame::Accepted {
                session,
                memory_bytes,
            } => {
                b.push(TAG_ACCEPTED);
                put_u64(&mut b, *session);
                put_u64(&mut b, *memory_bytes);
            }
            Frame::Queued { position } => {
                b.push(TAG_QUEUED);
                put_u32(&mut b, *position);
            }
            Frame::Rejected { reason } => {
                b.push(TAG_REJECTED);
                put_str(&mut b, reason);
            }
            Frame::Trace { line } => {
                b.push(TAG_TRACE);
                put_str(&mut b, line);
            }
            Frame::Done { metrics_json } => {
                b.push(TAG_DONE);
                put_str(&mut b, metrics_json);
            }
            Frame::Invalidate { rel, wrapper } => {
                b.push(TAG_INVALIDATE);
                match rel {
                    Some(r) => {
                        b.push(1);
                        put_u16(&mut b, r.0);
                    }
                    None => b.push(0),
                }
                match wrapper {
                    Some(w) => {
                        b.push(1);
                        put_str(&mut b, w);
                    }
                    None => b.push(0),
                }
            }
            Frame::Invalidated { entries, bytes } => {
                b.push(TAG_INVALIDATED);
                put_u64(&mut b, *entries);
                put_u64(&mut b, *bytes);
            }
            Frame::StatRequest { rel } => {
                b.push(TAG_STAT_REQUEST);
                match rel {
                    Some(r) => {
                        b.push(1);
                        put_u16(&mut b, r.0);
                    }
                    None => b.push(0),
                }
            }
            Frame::StatReply { stats } => {
                b.push(TAG_STAT_REPLY);
                put_u32(&mut b, stats.len() as u32);
                for s in stats {
                    put_u16(&mut b, s.rel.0);
                    put_u64(&mut b, s.version);
                    put_u64(&mut b, s.total);
                    put_u64(&mut b, s.rewrite_version);
                }
            }
        }
        b
    }

    /// Encode the whole frame: length prefix + body.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }

    /// Decode a frame body (tag + fields, no length prefix). Rejects
    /// unknown tags, short bodies and trailing bytes with a typed error —
    /// never panics on adversarial input.
    pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let mut c = Cursor { b: body, pos: 0 };
        let tag = c.take_u8("tag")?;
        let frame = match tag {
            TAG_OPEN => Frame::Open(RemoteOpen {
                rel: RelId(c.take_u16("open.rel")?),
                total: c.take_u64("open.total")?,
                window: c.take_u32("open.window")?,
                seed: c.take_u64("open.seed")?,
                stream: c.take_str("open.stream")?,
                delay: c.take_delay()?,
                resume_from: c.take_u64("open.resume_from")?,
            }),
            TAG_TUPLE_BATCH => {
                let rel = RelId(c.take_u16("batch.rel")?);
                let n = c.take_u32("batch.count")? as usize;
                // The count must be consistent with the bytes actually
                // present before any allocation happens.
                if c.remaining() != n * 8 {
                    return Err(FrameError::Malformed {
                        detail: format!(
                            "tuple batch claims {n} keys but carries {} bytes",
                            c.remaining()
                        ),
                    });
                }
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(c.take_u64("batch.key")?);
                }
                Frame::TupleBatch { rel, keys }
            }
            TAG_WINDOW_GRANT => Frame::WindowGrant {
                rel: RelId(c.take_u16("grant.rel")?),
                credits: c.take_u32("grant.credits")?,
            },
            TAG_EOF => Frame::Eof {
                rel: RelId(c.take_u16("eof.rel")?),
            },
            TAG_ERROR => Frame::Error {
                code: c.take_u16("error.code")?,
                message: c.take_str("error.message")?,
            },
            TAG_SUBMIT => Frame::Submit {
                strategy: c.take_str("submit.strategy")?,
                trace: c.take_u8("submit.trace")? != 0,
                no_cache: c.take_u8("submit.no_cache")? != 0,
                seed: match c.take_u8("submit.seed_tag")? {
                    0 => None,
                    1 => Some(c.take_u64("submit.seed")?),
                    t => {
                        return Err(FrameError::Malformed {
                            detail: format!("submit.seed_tag must be 0|1, got {t}"),
                        })
                    }
                },
                spec_json: c.take_str("submit.spec")?,
            },
            TAG_ACCEPTED => Frame::Accepted {
                session: c.take_u64("accepted.session")?,
                memory_bytes: c.take_u64("accepted.memory")?,
            },
            TAG_QUEUED => Frame::Queued {
                position: c.take_u32("queued.position")?,
            },
            TAG_REJECTED => Frame::Rejected {
                reason: c.take_str("rejected.reason")?,
            },
            TAG_TRACE => Frame::Trace {
                line: c.take_str("trace.line")?,
            },
            TAG_DONE => Frame::Done {
                metrics_json: c.take_str("done.metrics")?,
            },
            TAG_INVALIDATE => Frame::Invalidate {
                rel: match c.take_u8("invalidate.rel_tag")? {
                    0 => None,
                    1 => Some(RelId(c.take_u16("invalidate.rel")?)),
                    t => {
                        return Err(FrameError::Malformed {
                            detail: format!("invalidate.rel_tag must be 0|1, got {t}"),
                        })
                    }
                },
                wrapper: match c.take_u8("invalidate.wrapper_tag")? {
                    0 => None,
                    1 => Some(c.take_str("invalidate.wrapper")?),
                    t => {
                        return Err(FrameError::Malformed {
                            detail: format!("invalidate.wrapper_tag must be 0|1, got {t}"),
                        })
                    }
                },
            },
            TAG_INVALIDATED => Frame::Invalidated {
                entries: c.take_u64("invalidated.entries")?,
                bytes: c.take_u64("invalidated.bytes")?,
            },
            TAG_STAT_REQUEST => Frame::StatRequest {
                rel: match c.take_u8("stat_request.rel_tag")? {
                    0 => None,
                    1 => Some(RelId(c.take_u16("stat_request.rel")?)),
                    t => {
                        return Err(FrameError::Malformed {
                            detail: format!("stat_request.rel_tag must be 0|1, got {t}"),
                        })
                    }
                },
            },
            TAG_STAT_REPLY => {
                let n = c.take_u32("stat_reply.count")? as usize;
                // As with TupleBatch: the count must match the bytes
                // actually present before any allocation happens.
                if c.remaining() != n * REL_STAT_BYTES {
                    return Err(FrameError::Malformed {
                        detail: format!(
                            "stat reply claims {n} rows but carries {} bytes",
                            c.remaining()
                        ),
                    });
                }
                let mut stats = Vec::with_capacity(n);
                for _ in 0..n {
                    stats.push(RelStat {
                        rel: RelId(c.take_u16("stat_reply.rel")?),
                        version: c.take_u64("stat_reply.version")?,
                        total: c.take_u64("stat_reply.total")?,
                        rewrite_version: c.take_u64("stat_reply.rewrite_version")?,
                    });
                }
                Frame::StatReply { stats }
            }
            other => return Err(FrameError::UnknownTag(other)),
        };
        if c.remaining() != 0 {
            return Err(FrameError::TrailingBytes {
                extra: c.remaining(),
            });
        }
        Ok(frame)
    }
}

// --- decoding cursor --------------------------------------------------------

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&[u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated { field });
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u8(&mut self, field: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, field)?[0])
    }

    fn take_u16(&mut self, field: &'static str) -> Result<u16, FrameError> {
        Ok(u16::from_be_bytes(self.take(2, field)?.try_into().unwrap()))
    }

    fn take_u32(&mut self, field: &'static str) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(self.take(4, field)?.try_into().unwrap()))
    }

    fn take_u64(&mut self, field: &'static str) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    fn take_str(&mut self, field: &'static str) -> Result<String, FrameError> {
        let len = self.take_u32(field)? as usize;
        if len > self.remaining() {
            return Err(FrameError::Truncated { field });
        }
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed {
            detail: format!("{field}: invalid UTF-8"),
        })
    }

    fn take_delay(&mut self) -> Result<DelayModel, FrameError> {
        let ns = SimDuration::from_nanos;
        match self.take_u8("delay.tag")? {
            0 => Ok(DelayModel::Constant {
                w: ns(self.take_u64("delay.w")?),
            }),
            1 => Ok(DelayModel::Uniform {
                mean: ns(self.take_u64("delay.mean")?),
            }),
            2 => Ok(DelayModel::Initial {
                initial: ns(self.take_u64("delay.initial")?),
                mean: ns(self.take_u64("delay.mean")?),
            }),
            3 => Ok(DelayModel::Bursty {
                burst: self.take_u64("delay.burst")?,
                within: ns(self.take_u64("delay.within")?),
                pause: ns(self.take_u64("delay.pause")?),
            }),
            t => Err(FrameError::Malformed {
                detail: format!("unknown delay tag {t}"),
            }),
        }
    }
}

// --- stream I/O -------------------------------------------------------------

/// Write one frame to `w` (a single `write_all`, so concurrent writers
/// serializing on a lock interleave only whole frames).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), FrameError> {
    w.write_all(&frame.encode()).map_err(FrameError::io)
}

/// Read one frame from `r`. `Ok(None)` means the peer closed cleanly at a
/// frame boundary; EOF mid-frame, an oversized length prefix, a decode
/// failure or a read timeout are all errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
    let mut prefix = [0u8; 4];
    // Distinguish clean EOF (zero bytes) from mid-prefix truncation.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated {
                        field: "length prefix",
                    })
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            FrameError::Truncated { field: "body" }
        } else {
            FrameError::io(e)
        }
    })?;
    Frame::decode_body(&body).map(Some)
}

// --- incremental (non-blocking) I/O -----------------------------------------

/// Incremental frame decoder for non-blocking sockets: feed whatever
/// bytes arrived, then drain zero or more complete frames. Partial
/// prefixes and bodies are buffered across calls, so a reader never
/// blocks waiting for the rest of a frame.
///
/// The oversize check runs as soon as the four prefix bytes are present
/// — a hostile peer cannot make the decoder allocate more than
/// [`MAX_FRAME_BYTES`] no matter how it fragments the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by drained frames.
    head: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Try to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed; errors (oversize, malformed) are sticky in the
    /// sense that the caller should drop the connection — the stream
    /// position is no longer trustworthy.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.head..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge {
                len,
                max: MAX_FRAME_BYTES,
            });
        }
        if avail.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame = Frame::decode_body(&avail[4..4 + len])?;
        self.head += 4 + len;
        self.compact();
        Ok(Some(frame))
    }

    /// Call at EOF: a clean close lands exactly on a frame boundary;
    /// leftover bytes mean the peer died mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buffered() == 0 {
            Ok(())
        } else if self.buffered() < 4 {
            Err(FrameError::Truncated {
                field: "length prefix",
            })
        } else {
            Err(FrameError::Truncated { field: "body" })
        }
    }

    /// Reclaim consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.head > 4096 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// Did a [`WriteBuffer::flush`] drain everything, or stop at a full
/// socket buffer?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStatus {
    /// Every queued byte went out; write interest can be dropped.
    Flushed,
    /// The socket said `WouldBlock` mid-write; the remainder is retained
    /// and the caller should wait for writability.
    Blocked,
}

/// Outbound byte queue with resumable partial writes: frames are staged
/// with [`WriteBuffer::push`], and [`WriteBuffer::flush`] writes as much
/// as the socket accepts, keeping the rest for the next writable event.
/// A short write therefore never blocks an I/O worker and never tears a
/// frame.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    head: usize,
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Stage one encoded frame behind whatever is already queued.
    pub fn push(&mut self, frame: &Frame) {
        self.buf.extend_from_slice(&frame.encode());
    }

    /// Bytes staged but not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Write queued bytes until the buffer empties or the socket blocks.
    /// `Interrupted` retries; `WouldBlock` returns
    /// [`FlushStatus::Blocked`] with the remainder retained; a zero-length
    /// write is reported as `WriteZero`.
    pub fn flush(&mut self, w: &mut impl Write) -> std::io::Result<FlushStatus> {
        while self.head < self.buf.len() {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.head += n;
                    if self.head == self.buf.len() {
                        self.buf.clear();
                        self.head = 0;
                    } else if self.head > 64 * 1024 && self.head * 2 >= self.buf.len() {
                        self.buf.drain(..self.head);
                        self.head = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(FlushStatus::Blocked),
                Err(e) => return Err(e),
            }
        }
        Ok(FlushStatus::Flushed)
    }
}

/// One non-blocking framed connection: the socket, the [`FrameDecoder`]
/// for what arrives and the [`WriteBuffer`] for what leaves. Both
/// reactor-driven ends of the client protocol — the mediator's I/O workers
/// and the replay harness's clients — are this one state machine: read
/// until `WouldBlock`, note EOF, drain frames, flush, then wait for exactly
/// what is still outstanding. It knows no poller: [`FramedConn::wants`]
/// says "read" and "write", and the caller maps that to its registration.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    wb: WriteBuffer,
    /// The peer closed its write half; nothing more will arrive.
    eof: bool,
}

impl FramedConn {
    /// Take over a connected socket, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> std::io::Result<FramedConn> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        Ok(FramedConn {
            stream,
            decoder: FrameDecoder::new(),
            wb: WriteBuffer::new(),
            eof: false,
        })
    }

    /// The socket, for severing the connection.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The socket's descriptor, for registering with a poller.
    pub fn fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(&self.stream)
    }

    /// Read whatever the socket holds into the decoder, until it would
    /// block or the peer's EOF. An `Err` is a dead transport.
    pub fn fill(&mut self) -> std::io::Result<()> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame already read ([`FrameDecoder::next_frame`]).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        self.decoder.next_frame()
    }

    /// True once [`FramedConn::fill`] has seen the peer's EOF. Frames read
    /// before it may still be waiting in [`FramedConn::next_frame`].
    pub fn eof(&self) -> bool {
        self.eof
    }

    /// Stage one frame behind whatever is already queued.
    pub fn push(&mut self, frame: &Frame) {
        self.wb.push(frame);
    }

    /// Bytes staged but not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.wb.pending()
    }

    /// Write staged bytes until they are gone or the socket blocks.
    pub fn flush(&mut self) -> std::io::Result<FlushStatus> {
        self.wb.flush(&mut self.stream)
    }

    /// The readiness worth waiting for now, as `(read, write)`: more input
    /// until EOF was seen, writability while bytes are pending.
    pub fn wants(&self) -> (bool, bool) {
        (!self.eof, !self.wb.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Open(RemoteOpen {
                rel: RelId(3),
                total: 10_000,
                window: 816,
                seed: 42,
                stream: "wrapper:orders".into(),
                delay: DelayModel::Bursty {
                    burst: 100,
                    within: SimDuration::from_micros(20),
                    pause: SimDuration::from_millis(50),
                },
                resume_from: 4_999,
            }),
            Frame::TupleBatch {
                rel: RelId(1),
                keys: vec![7, u64::MAX, 0],
            },
            Frame::WindowGrant {
                rel: RelId(0),
                credits: 408,
            },
            Frame::Eof { rel: RelId(9) },
            Frame::Error {
                code: 2,
                message: "wrapper unreachable".into(),
            },
            Frame::Submit {
                strategy: "dse".into(),
                trace: true,
                no_cache: true,
                seed: Some(7),
                spec_json: "{\"relations\":[]}".into(),
            },
            Frame::Accepted {
                session: 1,
                memory_bytes: 32 << 20,
            },
            Frame::Queued { position: 2 },
            Frame::Rejected {
                reason: "backlog full".into(),
            },
            Frame::Trace {
                line: "{\"at_us\":0,\"type\":\"stall\"}".into(),
            },
            Frame::Done {
                metrics_json: "{\"output_tuples\":90000}".into(),
            },
            Frame::Invalidate {
                rel: None,
                wrapper: None,
            },
            Frame::Invalidate {
                rel: Some(RelId(4)),
                wrapper: Some("w0".into()),
            },
            Frame::Invalidated {
                entries: 3,
                bytes: 8_392,
            },
            Frame::StatRequest { rel: None },
            Frame::StatRequest {
                rel: Some(RelId(2)),
            },
            Frame::StatReply { stats: vec![] },
            Frame::StatReply {
                stats: vec![
                    RelStat {
                        rel: RelId(0),
                        version: 12,
                        total: 8_064,
                        rewrite_version: 0,
                    },
                    RelStat {
                        rel: RelId(1),
                        version: u64::MAX,
                        total: 0,
                        rewrite_version: u64::MAX,
                    },
                ],
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for f in samples() {
            let body = f.encode_body();
            assert_eq!(Frame::decode_body(&body).unwrap(), f, "{f:?}");
            // And through the stream path.
            let mut wire = Vec::new();
            write_frame(&mut wire, &f).unwrap();
            let mut r = wire.as_slice();
            assert_eq!(read_frame(&mut r).unwrap(), Some(f));
            assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after");
        }
    }

    /// Every wire tag — including the cache frames `Invalidate` /
    /// `Invalidated`, the freshness frames `StatRequest` / `StatReply`
    /// and the resume-capable `Open` — appears in `samples()`, so the
    /// roundtrip and truncation tests above exercise the full protocol,
    /// and a newly added tag without a sample fails here instead of
    /// silently going untested.
    #[test]
    fn samples_exercise_every_tag() {
        let mut seen: Vec<u8> = samples().iter().map(|f| f.encode_body()[0]).collect();
        seen.sort_unstable();
        seen.dedup();
        let all: Vec<u8> = (TAG_OPEN..=TAG_STAT_REPLY).collect();
        assert_eq!(seen, all, "samples() must cover every frame tag");
        // The resume offset is wire-visible: a resumed Open and a fresh
        // Open must not encode identically.
        let open = |resume_from| {
            Frame::Open(RemoteOpen {
                rel: RelId(1),
                total: 10,
                window: 4,
                seed: 9,
                stream: "wrapper:x".into(),
                delay: DelayModel::Constant {
                    w: SimDuration::from_micros(1),
                },
                resume_from,
            })
        };
        assert_ne!(open(0).encode_body(), open(5).encode_body());
    }

    /// The `Open` frame's bytes, captured from the commit before
    /// `RemoteOpen` became its body: same tag, same field order, same
    /// widths — an old wrapper and a new mediator still understand each
    /// other.
    #[test]
    fn open_frame_bytes_are_the_ones_the_parent_commit_wrote() {
        const PARENT: &str = "0000004a010003000000000000271000000330000000000000002a0000000e\
            777261707065723a6f72646572730300000000000000640000000000004e20\
            0000000002faf0800000000000001387";
        let hex: String = samples()[0]
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, PARENT);
    }

    #[test]
    fn truncated_bodies_decode_to_typed_errors() {
        for f in samples() {
            let body = f.encode_body();
            for cut in 0..body.len() {
                let e = Frame::decode_body(&body[..cut])
                    .expect_err(&format!("{f:?} truncated at {cut} must not decode"));
                assert!(
                    matches!(
                        e,
                        FrameError::Truncated { .. } | FrameError::Malformed { .. }
                    ),
                    "{f:?} cut at {cut}: {e}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Frame::Eof { rel: RelId(1) }.encode_body();
        body.push(0xFF);
        assert!(matches!(
            Frame::decode_body(&body),
            Err(FrameError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        put_u32(&mut wire, (MAX_FRAME_BYTES + 1) as u32);
        wire.extend_from_slice(&[0; 16]);
        let e = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(e, FrameError::TooLarge { .. }), "{e}");
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Frame::decode_body(&[200]),
            Err(FrameError::UnknownTag(200))
        ));
    }

    #[test]
    fn mid_frame_eof_is_not_clean() {
        let wire = Frame::Eof { rel: RelId(1) }.encode();
        for cut in 1..wire.len() {
            let e = read_frame(&mut &wire[..cut]).unwrap_err();
            assert!(matches!(e, FrameError::Truncated { .. }), "cut {cut}: {e}");
        }
    }

    #[test]
    fn tuple_batch_count_must_match_payload() {
        // Claims 1000 keys, carries one.
        let mut body = vec![TAG_TUPLE_BATCH];
        put_u16(&mut body, 0);
        put_u32(&mut body, 1000);
        put_u64(&mut body, 99);
        assert!(matches!(
            Frame::decode_body(&body),
            Err(FrameError::Malformed { .. })
        ));
    }

    #[test]
    fn stat_reply_count_must_match_payload() {
        // Claims 1000 rows, carries none.
        let mut body = vec![TAG_STAT_REPLY];
        put_u32(&mut body, 1000);
        assert!(matches!(
            Frame::decode_body(&body),
            Err(FrameError::Malformed { .. })
        ));
    }

    // --- property tests -----------------------------------------------------

    fn arb_string() -> impl Strategy<Value = String> {
        vec(0u32..128, 0..24).prop_map(|cs| {
            cs.into_iter()
                .filter_map(|c| char::from_u32(c + 32))
                .collect()
        })
    }

    fn arb_delay() -> impl Strategy<Value = DelayModel> {
        let ns = SimDuration::from_nanos;
        prop_oneof![
            (0u64..1 << 40).prop_map(move |w| DelayModel::Constant { w: ns(w) }),
            (0u64..1 << 40).prop_map(move |m| DelayModel::Uniform { mean: ns(m) }),
            (0u64..1 << 40, 0u64..1 << 40).prop_map(move |(i, m)| DelayModel::Initial {
                initial: ns(i),
                mean: ns(m)
            }),
            (1u64..1 << 20, 0u64..1 << 30, 0u64..1 << 30).prop_map(move |(b, w, p)| {
                DelayModel::Bursty {
                    burst: b,
                    within: ns(w),
                    pause: ns(p),
                }
            }),
        ]
    }

    fn arb_frame() -> impl Strategy<Value = Frame> {
        prop_oneof![
            (
                any::<u16>(),
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
                arb_string(),
                arb_delay(),
                any::<u64>()
            )
                .prop_map(|(r, t, w, s, stream, delay, resume_from)| {
                    Frame::Open(RemoteOpen {
                        rel: RelId(r),
                        total: t,
                        window: w,
                        seed: s,
                        stream,
                        delay,
                        resume_from,
                    })
                }),
            (any::<u16>(), vec(any::<u64>(), 0..64)).prop_map(|(r, keys)| Frame::TupleBatch {
                rel: RelId(r),
                keys
            }),
            (any::<u16>(), any::<u32>()).prop_map(|(r, c)| Frame::WindowGrant {
                rel: RelId(r),
                credits: c
            }),
            any::<u16>().prop_map(|r| Frame::Eof { rel: RelId(r) }),
            (any::<u16>(), arb_string()).prop_map(|(c, m)| Frame::Error {
                code: c,
                message: m
            }),
            (
                arb_string(),
                any::<bool>(),
                any::<bool>(),
                any::<u64>(),
                any::<bool>(),
                arb_string()
            )
                .prop_map(|(strategy, trace, no_cache, seed, has_seed, spec_json)| {
                    Frame::Submit {
                        strategy,
                        trace,
                        no_cache,
                        seed: has_seed.then_some(seed),
                        spec_json,
                    }
                }),
            (any::<u64>(), any::<u64>()).prop_map(|(s, m)| Frame::Accepted {
                session: s,
                memory_bytes: m
            }),
            any::<u32>().prop_map(|p| Frame::Queued { position: p }),
            arb_string().prop_map(|reason| Frame::Rejected { reason }),
            arb_string().prop_map(|line| Frame::Trace { line }),
            arb_string().prop_map(|metrics_json| Frame::Done { metrics_json }),
            (any::<bool>(), any::<u16>(), any::<bool>(), arb_string()).prop_map(
                |(some_rel, r, some_wrapper, w)| Frame::Invalidate {
                    rel: some_rel.then_some(RelId(r)),
                    wrapper: some_wrapper.then_some(w),
                }
            ),
            (any::<u64>(), any::<u64>())
                .prop_map(|(entries, bytes)| Frame::Invalidated { entries, bytes }),
            (any::<bool>(), any::<u16>()).prop_map(|(some, r)| Frame::StatRequest {
                rel: some.then_some(RelId(r)),
            }),
            vec(
                (any::<u16>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                    |(r, version, total, rewrite_version)| RelStat {
                        rel: RelId(r),
                        version,
                        total,
                        rewrite_version,
                    }
                ),
                0..8
            )
            .prop_map(|stats| Frame::StatReply { stats }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// encode → decode is the identity, both body-wise and stream-wise.
        #[test]
        fn encode_decode_identity(f in arb_frame()) {
            prop_assert_eq!(&Frame::decode_body(&f.encode_body()).unwrap(), &f);
            let wire = f.encode();
            let decoded = read_frame(&mut wire.as_slice()).unwrap();
            prop_assert_eq!(decoded, Some(f));
        }

        /// Any prefix of a valid body fails with a typed error, not a panic.
        #[test]
        fn prefixes_never_panic(f in arb_frame(), frac in 0.0f64..1.0) {
            let body = f.encode_body();
            let cut = ((body.len() as f64) * frac) as usize;
            if cut < body.len() {
                prop_assert!(Frame::decode_body(&body[..cut]).is_err());
            }
        }

        /// Arbitrary bytes never panic the decoder.
        #[test]
        fn garbage_never_panics(bytes in vec(any::<u8>(), 0..256)) {
            let _ = Frame::decode_body(&bytes);
            let _ = read_frame(&mut bytes.as_slice());
        }

        /// The incremental decoder recovers the exact frame sequence no
        /// matter how the stream is fragmented — byte-at-a-time, uneven
        /// chunks, or frames glued together in one read.
        #[test]
        fn incremental_decode_survives_any_fragmentation(
            frames in vec(arb_frame(), 1..6),
            chunk_seed in vec(1usize..64, 1..64),
        ) {
            let mut wire = Vec::new();
            for f in &frames {
                wire.extend_from_slice(&f.encode());
            }
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            let mut offset = 0;
            let mut i = 0;
            while offset < wire.len() {
                let take = chunk_seed[i % chunk_seed.len()].min(wire.len() - offset);
                i += 1;
                dec.feed(&wire[offset..offset + take]);
                offset += take;
                while let Some(f) = dec.next_frame().unwrap() {
                    out.push(f);
                }
            }
            prop_assert_eq!(&out, &frames);
            prop_assert!(dec.finish().is_ok(), "stream ended on a frame boundary");
            prop_assert_eq!(dec.buffered(), 0);
        }

        /// A write buffer flushed through a sink that accepts tiny
        /// amounts per call (and blocks in between) still delivers the
        /// byte-exact stream.
        #[test]
        fn write_buffer_resumes_short_writes_exactly(
            frames in vec(arb_frame(), 1..5),
            caps in vec(1usize..48, 1..32),
        ) {
            struct Dribble {
                caps: Vec<usize>,
                call: usize,
                sunk: Vec<u8>,
            }
            impl Write for Dribble {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    let call = self.call;
                    self.call += 1;
                    // Every third call pretends the socket buffer is full.
                    if call % 3 == 2 {
                        return Err(std::io::Error::from(ErrorKind::WouldBlock));
                    }
                    let cap = self.caps[call % self.caps.len()].min(buf.len());
                    self.sunk.extend_from_slice(&buf[..cap]);
                    Ok(cap)
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let mut sink = Dribble { caps, call: 0, sunk: Vec::new() };
            let mut wb = WriteBuffer::new();
            let mut expected = Vec::new();
            for f in &frames {
                wb.push(f);
                expected.extend_from_slice(&f.encode());
            }
            let mut guard = 0;
            while wb.flush(&mut sink).unwrap() == FlushStatus::Blocked {
                guard += 1;
                prop_assert!(guard < 100_000, "flush must make progress");
            }
            prop_assert!(wb.is_empty());
            prop_assert_eq!(&sink.sunk, &expected);
        }
    }

    #[test]
    fn incremental_decoder_rejects_oversize_before_the_body_arrives() {
        let mut dec = FrameDecoder::new();
        let mut prefix = Vec::new();
        put_u32(&mut prefix, (MAX_FRAME_BYTES + 1) as u32);
        // Feed the prefix one byte at a time: only once all four bytes
        // are in can the decoder judge, and it must do so without ever
        // seeing (or allocating for) a body.
        for (i, b) in prefix.iter().enumerate() {
            dec.feed(&[*b]);
            let res = dec.next_frame();
            if i < 3 {
                assert!(matches!(res, Ok(None)), "byte {i}: prefix incomplete");
            } else {
                assert!(matches!(res, Err(FrameError::TooLarge { .. })));
            }
        }
    }

    #[test]
    fn incremental_decoder_reports_truncation_at_eof() {
        let f = &samples()[0];
        let wire = f.encode();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..2]);
        assert!(matches!(
            dec.finish(),
            Err(FrameError::Truncated {
                field: "length prefix"
            })
        ));
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..wire.len() - 1]);
        assert!(matches!(dec.next_frame(), Ok(None)));
        assert!(matches!(
            dec.finish(),
            Err(FrameError::Truncated { field: "body" })
        ));
    }
}
