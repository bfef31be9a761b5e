//! The submitting client: `dqs submit`'s library half.
//!
//! [`submit`] opens a connection to a mediator, sends one `Submit` frame,
//! and walks the session lifecycle — reporting `Queued`/`Accepted`/`Trace`
//! frames through a progress callback — until a terminal `Done`,
//! `Rejected` or `Error` frame arrives.

use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use dqs_exec::json;
use dqs_relop::RelId;
use dqs_source::net::{read_frame, write_frame, Frame};

/// Submission options.
#[derive(Debug, Clone)]
pub struct SubmitOpts {
    /// Strategy name: one of `dqs_core::STRATEGY_NAMES`
    /// (`seq` | `ma` | `scr` | `dse` | `spm`).
    pub strategy: String,
    /// Optional seed override.
    pub seed: Option<u64>,
    /// Ask the mediator to stream JSON trace lines back.
    pub trace: bool,
    /// Ask the mediator to bypass its result cache for this session.
    pub no_cache: bool,
    /// How long to keep retrying the initial connect (exponential
    /// backoff) before giving up. [`Duration::ZERO`] means one attempt —
    /// fail immediately if the mediator isn't listening.
    pub connect_timeout: Duration,
}

impl Default for SubmitOpts {
    fn default() -> Self {
        SubmitOpts {
            strategy: "dse".into(),
            seed: None,
            trace: false,
            no_cache: false,
            connect_timeout: Duration::ZERO,
        }
    }
}

/// First retry delay; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(50);
/// Ceiling on the per-attempt backoff delay.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Dial `addr`, retrying with exponential backoff until `timeout` has
/// elapsed. A zero timeout is a single attempt. This is what makes the
/// 3-process quickstart scriptable: `dqs submit` can be launched in the
/// same breath as `dqs serve` without a `sleep` between them.
fn connect_with_retry(
    addr: impl ToSocketAddrs,
    timeout: Duration,
) -> Result<TcpStream, ClientError> {
    let deadline = Instant::now() + timeout;
    let mut backoff = BACKOFF_START;
    loop {
        match TcpStream::connect(&addr) {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ClientError::Io(e.to_string()));
                }
                std::thread::sleep(backoff.min(deadline - now));
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
    }
}

/// Mid-session progress reported to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Progress {
    /// Waiting in the mediator's backlog at this position.
    Queued(u32),
    /// Admitted: session id and granted memory partition.
    Accepted {
        /// The server-assigned session id.
        session: u64,
        /// The memory partition the query runs under, bytes.
        memory_bytes: u64,
    },
    /// One JSON engine-event line.
    TraceLine(String),
}

/// The metrics a remote run reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteMetrics {
    /// Strategy that ran.
    pub strategy: String,
    /// Response time in seconds.
    pub response_secs: f64,
    /// Result tuples produced.
    pub output_tuples: u64,
    /// The full metrics JSON, for anything not lifted into a field.
    pub raw: String,
}

/// Why a submission failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or talk to the mediator.
    Io(String),
    /// The mediator refused the submission.
    Rejected(String),
    /// The query was admitted but aborted server-side.
    Server(String),
    /// The mediator sent something the protocol does not allow here.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Rejected(r) => write!(f, "submission rejected: {r}"),
            ClientError::Server(e) => write!(f, "query aborted: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Submit `spec_json` to the mediator at `addr` and wait for the result,
/// reporting lifecycle frames to `on_progress` as they arrive.
pub fn submit(
    addr: impl ToSocketAddrs,
    spec_json: &str,
    opts: &SubmitOpts,
    mut on_progress: impl FnMut(Progress),
) -> Result<RemoteMetrics, ClientError> {
    let mut conn = connect_with_retry(addr, opts.connect_timeout)?;
    conn.set_nodelay(true).ok();
    write_frame(
        &mut conn,
        &Frame::Submit {
            strategy: opts.strategy.clone(),
            trace: opts.trace,
            no_cache: opts.no_cache,
            seed: opts.seed,
            spec_json: spec_json.to_string(),
        },
    )
    .map_err(|e| ClientError::Io(e.to_string()))?;

    loop {
        match read_frame(&mut conn) {
            Ok(Some(Frame::Queued { position })) => on_progress(Progress::Queued(position)),
            Ok(Some(Frame::Accepted {
                session,
                memory_bytes,
            })) => on_progress(Progress::Accepted {
                session,
                memory_bytes,
            }),
            Ok(Some(Frame::Trace { line })) => on_progress(Progress::TraceLine(line)),
            Ok(Some(Frame::Rejected { reason })) => return Err(ClientError::Rejected(reason)),
            Ok(Some(Frame::Error { code, message })) => {
                return Err(ClientError::Server(format!("[{code}] {message}")))
            }
            Ok(Some(Frame::Done { metrics_json })) => return parse_metrics(&metrics_json),
            Ok(Some(other)) => {
                return Err(ClientError::Protocol(format!(
                    "unexpected frame from mediator: {other:?}"
                )))
            }
            Ok(None) => {
                return Err(ClientError::Protocol(
                    "mediator closed the connection without a terminal frame".into(),
                ))
            }
            Err(e) => return Err(ClientError::Io(e.to_string())),
        }
    }
}

/// Ask the mediator at `addr` to drop cached scans — all of them, one
/// relation's, one logical wrapper's (the replica-group id, which is
/// what cache keys carry — not a pinned endpoint address), or the
/// conjunction of both filters. Returns `(entries_removed,
/// bytes_released)`; a mediator with no cache configured reports
/// `(0, 0)`.
pub fn invalidate(
    addr: impl ToSocketAddrs,
    rel: Option<RelId>,
    wrapper: Option<String>,
    connect_timeout: Duration,
) -> Result<(u64, u64), ClientError> {
    let mut conn = connect_with_retry(addr, connect_timeout)?;
    conn.set_nodelay(true).ok();
    write_frame(&mut conn, &Frame::Invalidate { rel, wrapper })
        .map_err(|e| ClientError::Io(e.to_string()))?;
    match read_frame(&mut conn) {
        Ok(Some(Frame::Invalidated { entries, bytes })) => Ok((entries, bytes)),
        Ok(Some(other)) => Err(ClientError::Protocol(format!(
            "unexpected frame from mediator: {other:?}"
        ))),
        Ok(None) => Err(ClientError::Protocol(
            "mediator closed the connection without replying".into(),
        )),
        Err(e) => Err(ClientError::Io(e.to_string())),
    }
}

fn parse_metrics(text: &str) -> Result<RemoteMetrics, ClientError> {
    let v =
        json::parse(text).map_err(|e| ClientError::Protocol(format!("bad metrics JSON: {e}")))?;
    v.as_object()
        .ok_or_else(|| ClientError::Protocol("metrics JSON is not an object".into()))?;
    let get = |k: &str| v.get(k);
    Ok(RemoteMetrics {
        strategy: get("strategy")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string(),
        response_secs: get("response_secs").and_then(|v| v.as_f64()).unwrap_or(0.0),
        output_tuples: get("output_tuples")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| ClientError::Protocol("metrics JSON lacks output_tuples".into()))?,
        raw: text.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_metrics_lifts_the_reported_fields() {
        let m = parse_metrics("{\"strategy\":\"seq\",\"response_secs\":1.5,\"output_tuples\":42}")
            .unwrap();
        assert_eq!(m.strategy, "seq");
        assert_eq!(m.output_tuples, 42);
        assert!((m.response_secs - 1.5).abs() < 1e-9);
    }

    #[test]
    fn parse_metrics_requires_the_cardinality() {
        assert!(matches!(
            parse_metrics("{\"strategy\":\"seq\"}"),
            Err(ClientError::Protocol(_))
        ));
        assert!(matches!(
            parse_metrics("not json"),
            Err(ClientError::Protocol(_))
        ));
    }
}
