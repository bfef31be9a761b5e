//! The open-loop traffic replay harness.
//!
//! Grown from the C10K load generator (now [`Trace::flood`] replayed by
//! this engine): one thread, one [`Poller`], thousands of non-blocking
//! client state machines — but instead of flooding every session at
//! once, the driver fires each [`crate::trace::TraceEvent`] when its
//! timestamp comes due. Arrivals are *open-loop*: the schedule does not
//! wait for completions, so a mediator that falls behind accumulates
//! backlog exactly as it would under real traffic (a closed-loop driver
//! would politely slow down and hide the problem).
//!
//! Every session is held to its terminal frame and timed in two halves:
//!
//! * **queue wait** — submit to `Accepted`, the time admission held the
//!   query (the half the `--admission` policy owns);
//! * **execution** — `Accepted` to `Done`, the time the engine ran it.
//!
//! The split is what makes an admission A/B legible: SJF should collapse
//! the queue-wait tail while leaving execution untouched. The report
//! also tallies cache hits/misses out of each `Done` frame's metrics —
//! under Zipf traffic the hit rate should be well above zero — plus
//! rejects, torn sessions, and the peak number of concurrently open
//! sessions.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dqs_core::hist::percentile;
use dqs_exec::json::{self, fields, fixed, obj, ToJson};
use dqs_reactor::{Events, Interest, Poller, Token};
use dqs_source::net::{Frame, FramedConn};

use crate::trace::Trace;

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayOpts {
    /// Mediator address (`host:port`).
    pub addr: String,
    /// Max connections opened per reactor iteration (the burst cap; due
    /// events beyond it roll into the next iteration).
    pub connect_batch: usize,
    /// Give up (counting unfinished sessions as errored) after this long.
    pub timeout: Duration,
}

impl Default for ReplayOpts {
    fn default() -> Self {
        ReplayOpts {
            addr: String::new(),
            connect_batch: 250,
            timeout: Duration::from_secs(600),
        }
    }
}

/// p50/p99/p999/max over one latency population, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Worst sample.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarize a sample vector (sorted in place).
    fn of(samples: &mut [f64]) -> LatencySummary {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        LatencySummary {
            p50_ms: percentile(samples, 0.50),
            p99_ms: percentile(samples, 0.99),
            p999_ms: percentile(samples, 0.999),
            max_ms: samples.last().copied().unwrap_or(0.0),
        }
    }
}

impl ToJson for LatencySummary {
    fn write_json(self, out: &mut String) {
        let ms = |v| fixed(v, 2);
        obj(|o| {
            fields!(o,
                "p50_ms": ms(self.p50_ms), "p99_ms": ms(self.p99_ms),
                "p999_ms": ms(self.p999_ms), "max_ms": ms(self.max_ms)
            )
        })
        .write_json(out)
    }
}

/// What a replay observed.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Sessions scheduled by the trace.
    pub sessions: usize,
    /// Sessions that reached `Done`.
    pub completed: usize,
    /// Sessions the mediator refused (`Rejected`: backlog full).
    pub rejected: usize,
    /// Sessions that failed any other way: connect errors, `Error`
    /// frames, torn connections, or unfinished at the deadline.
    pub errored: usize,
    /// Sessions that saw a `Queued` frame before running.
    pub queued_sessions: usize,
    /// Most sessions simultaneously open.
    pub peak_concurrent: usize,
    /// First arrival to last terminal, seconds.
    pub duration_secs: f64,
    /// Completed sessions per second over the whole run.
    pub throughput_per_sec: f64,
    /// Submit → terminal latency.
    pub total: LatencySummary,
    /// Submit → `Accepted`: time held by admission.
    pub queue_wait: LatencySummary,
    /// `Accepted` → `Done`: time the engine ran the query.
    pub exec: LatencySummary,
    /// Result-cache hits summed over all `Done` metrics.
    pub cache_hits: u64,
    /// Result-cache misses summed over all `Done` metrics.
    pub cache_misses: u64,
}

impl ReplayReport {
    /// Hit fraction of all cache lookups (0 when the trace never
    /// touched the cache).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Flat JSON rendering: the line `dqs workload replay` and
    /// `dqs bench c10k` print.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            fields!(o,
                "sessions": self.sessions, "completed": self.completed,
                "errored": self.errored, "rejected": self.rejected,
                "queued_sessions": self.queued_sessions,
                "peak_concurrent": self.peak_concurrent,
                "duration_secs": fixed(self.duration_secs, 3),
                "throughput_per_sec": fixed(self.throughput_per_sec, 1),
                "total": self.total, "queue_wait": self.queue_wait, "exec": self.exec,
                "cache_hits": self.cache_hits, "cache_misses": self.cache_misses,
                "cache_hit_rate": fixed(self.cache_hit_rate(), 3)
            )
        })
    }
}

/// One client session's state machine.
struct Client {
    conn: FramedConn,
    submitted_at: Instant,
    accepted_at: Option<Instant>,
    queued: bool,
    interest: Interest,
}

enum Outcome {
    Pending,
    /// Done; carries the terminal frame's metrics JSON.
    Done(String),
    Rejected,
    Failed,
}

fn pump(client: &mut Client) -> Outcome {
    if client.conn.flush().is_err() || client.conn.fill().is_err() {
        return Outcome::Failed;
    }
    // The server sends the terminal and closes; the Done may already be
    // buffered at EOF, so parse before ruling.
    let eof = client.conn.eof();
    loop {
        match client.conn.next_frame() {
            Ok(Some(Frame::Accepted { .. })) => {
                client.accepted_at.get_or_insert_with(Instant::now);
            }
            Ok(Some(Frame::Queued { .. })) => client.queued = true,
            Ok(Some(Frame::Done { metrics_json })) => return Outcome::Done(metrics_json),
            Ok(Some(Frame::Rejected { .. })) => return Outcome::Rejected,
            Ok(Some(Frame::Error { .. })) => return Outcome::Failed,
            Ok(Some(_)) => {}                          // Trace frames: progress
            Ok(None) if eof => return Outcome::Failed, // EOF before terminal
            Ok(None) => return Outcome::Pending,
            Err(_) => return Outcome::Failed,
        }
    }
}

fn interest(conn: &FramedConn) -> Interest {
    let (read, write) = conn.wants();
    Interest::wanting(read, write)
}

/// Pull the cache counters out of a `Done` frame's metrics JSON.
fn cache_counters(metrics_json: &str) -> (u64, u64) {
    let Ok(v) = json::parse(metrics_json) else {
        return (0, 0);
    };
    let get = |k: &str| v.get(k).and_then(|c| c.as_u64()).unwrap_or(0);
    (get("cache_hits"), get("cache_misses"))
}

/// Fire `trace` at the mediator at `opts.addr`, honoring event
/// timestamps, and measure every session to its terminal frame.
pub fn replay(trace: &Trace, opts: &ReplayOpts) -> io::Result<ReplayReport> {
    let mut poller = Poller::new()?;
    let mut events = Events::new();
    let n = trace.events.len();
    let mut clients: Vec<Option<Client>> = Vec::with_capacity(n);
    let mut total_ms: Vec<f64> = Vec::with_capacity(n);
    let mut queue_wait_ms: Vec<f64> = Vec::with_capacity(n);
    let mut exec_ms: Vec<f64> = Vec::with_capacity(n);
    let mut report = ReplayReport {
        sessions: n,
        ..ReplayReport::default()
    };
    let mut open = 0usize;
    let started = Instant::now();

    // Due-but-unopened events (a burst bigger than connect_batch rolls
    // over); trace order is arrival order.
    let mut due: VecDeque<usize> = VecDeque::new();
    let mut next_event = 0usize;
    let terminals = |r: &ReplayReport| r.completed + r.errored + r.rejected;
    while (terminals(&report) < n || open > 0) && started.elapsed() < opts.timeout {
        let elapsed_ms = started.elapsed().as_millis() as u64;
        while next_event < n && trace.events[next_event].at_ms <= elapsed_ms {
            due.push_back(next_event);
            next_event += 1;
        }
        // Arrival burst: open due sessions regardless of completions.
        for _ in 0..opts.connect_batch {
            let Some(idx) = due.pop_front() else {
                break;
            };
            let ev = &trace.events[idx];
            while clients.len() < idx {
                clients.push(None); // connect-failed slots stay None
            }
            let stream = match TcpStream::connect(&opts.addr) {
                Ok(s) => s,
                Err(_) => {
                    report.errored += 1;
                    clients.push(None);
                    continue;
                }
            };
            let Ok(conn) = FramedConn::new(stream) else {
                report.errored += 1;
                clients.push(None);
                continue;
            };
            let mut client = Client {
                conn,
                submitted_at: Instant::now(),
                accepted_at: None,
                queued: false,
                interest: Interest::READABLE,
            };
            client.conn.push(&Frame::Submit {
                strategy: ev.strategy.clone(),
                trace: false,
                no_cache: false,
                seed: None,
                spec_json: trace.specs[ev.spec].clone(),
            });
            // A failed first write shows up as a failed session at the
            // first pump.
            client.conn.flush().ok();
            client.interest = interest(&client.conn);
            if poller
                .register(client.conn.fd(), Token(idx as u64), client.interest)
                .is_err()
            {
                report.errored += 1;
                clients.push(None);
                continue;
            }
            debug_assert_eq!(clients.len(), idx);
            clients.push(Some(client));
            open += 1;
            report.peak_concurrent = report.peak_concurrent.max(open);
        }
        // Sleep until I/O, the next scheduled arrival, or a rollover
        // burst — whichever is soonest.
        let timeout = if !due.is_empty() {
            Duration::from_millis(1)
        } else if next_event < n {
            Duration::from_millis(
                (trace.events[next_event].at_ms.saturating_sub(elapsed_ms)).clamp(1, 100),
            )
        } else {
            Duration::from_millis(100)
        };
        poller.wait(&mut events, Some(timeout))?;
        for ev in events.iter().copied() {
            let idx = ev.token.0 as usize;
            let Some(slot) = clients.get_mut(idx) else {
                continue;
            };
            let Some(client) = slot.as_mut() else {
                continue;
            };
            match pump(client) {
                Outcome::Pending => {
                    // Writable interest only while Submit bytes remain.
                    let want = interest(&client.conn);
                    if want != client.interest {
                        client.interest = want;
                        poller
                            .modify(client.conn.fd(), Token(idx as u64), want)
                            .ok();
                    }
                }
                outcome => {
                    poller.deregister(client.conn.fd()).ok();
                    match outcome {
                        Outcome::Done(metrics) => {
                            report.completed += 1;
                            if client.queued {
                                report.queued_sessions += 1;
                            }
                            let done_at = Instant::now();
                            let accepted = client.accepted_at.unwrap_or(done_at);
                            total_ms.push((done_at - client.submitted_at).as_secs_f64() * 1e3);
                            queue_wait_ms
                                .push((accepted - client.submitted_at).as_secs_f64() * 1e3);
                            exec_ms.push((done_at - accepted).as_secs_f64() * 1e3);
                            let (h, m) = cache_counters(&metrics);
                            report.cache_hits += h;
                            report.cache_misses += m;
                        }
                        Outcome::Rejected => report.rejected += 1,
                        Outcome::Failed => report.errored += 1,
                        Outcome::Pending => unreachable!(),
                    }
                    *slot = None;
                    open -= 1;
                }
            }
        }
    }
    // Deadline hit: everything still open — or never even opened —
    // failed.
    report.errored += open + due.len() + (n - next_event);

    report.duration_secs = started.elapsed().as_secs_f64();
    report.throughput_per_sec = report.completed as f64 / report.duration_secs.max(1e-9);
    report.total = LatencySummary::of(&mut total_ms);
    report.queue_wait = LatencySummary::of(&mut queue_wait_ms);
    report.exec = LatencySummary::of(&mut exec_ms);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report line, byte for byte as the pre-writer `format!`
    /// produced it.
    #[test]
    fn report_json_matches_the_golden_rendering() {
        let s = |x: f64| LatencySummary {
            p50_ms: x,
            p99_ms: x * 2.0,
            p999_ms: x * 3.0,
            max_ms: x * 4.0 + 0.005,
        };
        let r = ReplayReport {
            sessions: 200,
            completed: 197,
            rejected: 2,
            errored: 1,
            queued_sessions: 150,
            peak_concurrent: 88,
            duration_secs: 6.54321,
            throughput_per_sec: 30.149,
            total: s(12.3456),
            queue_wait: s(10.0),
            exec: s(2.3456),
            cache_hits: 190,
            cache_misses: 10,
        };
        assert_eq!(
            r.to_json(),
            r#"{"sessions":200,"completed":197,"errored":1,"rejected":2,"queued_sessions":150,"peak_concurrent":88,"duration_secs":6.543,"throughput_per_sec":30.1,"total":{"p50_ms":12.35,"p99_ms":24.69,"p999_ms":37.04,"max_ms":49.39},"queue_wait":{"p50_ms":10.00,"p99_ms":20.00,"p999_ms":30.00,"max_ms":40.01},"exec":{"p50_ms":2.35,"p99_ms":4.69,"p999_ms":7.04,"max_ms":9.39},"cache_hits":190,"cache_misses":10,"cache_hit_rate":0.950}"#
        );
        assert_eq!(
            ReplayReport::default().to_json(),
            r#"{"sessions":0,"completed":0,"errored":0,"rejected":0,"queued_sessions":0,"peak_concurrent":0,"duration_secs":0.000,"throughput_per_sec":0.0,"total":{"p50_ms":0.00,"p99_ms":0.00,"p999_ms":0.00,"max_ms":0.00},"queue_wait":{"p50_ms":0.00,"p99_ms":0.00,"p999_ms":0.00,"max_ms":0.00},"exec":{"p50_ms":0.00,"p99_ms":0.00,"p999_ms":0.00,"max_ms":0.00},"cache_hits":0,"cache_misses":0,"cache_hit_rate":0.000}"#
        );
    }

    #[test]
    fn report_json_is_parseable_and_nested() {
        let mut r = ReplayReport {
            sessions: 10,
            completed: 9,
            errored: 1,
            queued_sessions: 4,
            peak_concurrent: 7,
            duration_secs: 2.0,
            throughput_per_sec: 4.5,
            cache_hits: 12,
            cache_misses: 6,
            ..ReplayReport::default()
        };
        r.total = LatencySummary {
            p50_ms: 10.0,
            p99_ms: 90.0,
            p999_ms: 99.0,
            max_ms: 100.0,
        };
        let v = json::parse(&r.to_json()).expect("valid JSON");
        let get = |k: &str| v.get(k);
        assert_eq!(get("errored").and_then(|v| v.as_u64()), Some(1));
        let total = get("total").and_then(|v| v.as_object()).unwrap();
        assert!(total.iter().any(|(k, _)| k == "p99_ms"));
        let rate = get("cache_hit_rate").and_then(|v| v.as_f64()).unwrap();
        assert!((rate - 12.0 / 18.0).abs() < 1e-3);
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = LatencySummary::of(&mut xs);
        assert_eq!(s.p50_ms, 500.0);
        assert_eq!(s.p99_ms, 990.0);
        assert_eq!(s.p999_ms, 999.0);
        assert_eq!(s.max_ms, 1000.0);
    }

    #[test]
    fn cache_counters_parse_out_of_metrics_json() {
        let (h, m) = cache_counters("{\"cache_hits\":3,\"cache_misses\":1,\"x\":0}");
        assert_eq!((h, m), (3, 1));
        assert_eq!(cache_counters("not json"), (0, 0));
        assert_eq!(cache_counters("{\"other\":1}"), (0, 0));
    }
}
