//! Structured engine observability.
//!
//! Every significant runtime transition — arrivals, batches, planning
//! phases, interruptions, degradations, memory decisions, temp I/O — is a
//! typed [`EngineEvent`] delivered to an [`EngineObserver`]. The engine
//! never formats strings on the hot path; rendering happens only inside
//! sinks that asked for it:
//!
//! * [`MetricsObserver`] — always on; folds events into
//!   [`RunMetrics`](crate::metrics::RunMetrics) counters.
//! * [`TextTrace`] — enabled by `EngineConfig::trace`; renders the classic
//!   human-readable trace ([`dqs_sim::Trace`]).
//! * [`JsonLinesSink`] — streams one JSON object per event to any writer
//!   (the CLI's `--trace-json`).
//! * Any user observer passed to
//!   [`Engine::with_observer`](crate::Engine::with_observer). The default
//!   [`NullObserver`] is a static no-op the optimizer erases.
//!
//! Policies emit through the same channel: [`PlanCtx`](crate::PlanCtx)
//! carries an observer handle, so a DQS degrading or cancelling fragments
//! produces the same typed record stream as the DQP itself.

use std::io::Write;

use dqs_plan::PcId;
use dqs_relop::{HtId, RelId};
use dqs_sim::{SimTime, Trace, TraceKind};

use crate::error::RunError;
use crate::frag::{FragId, TempId};
use crate::json::escape;
use crate::metrics::MetricsAcc;
use crate::policy::Interrupt;

/// One structured engine event. Borrows plan data (`sp`) instead of
/// cloning it, so constructing an event is allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum EngineEvent<'a> {
    /// A tuple from wrapper `rel` reached the communication manager.
    Arrival {
        /// Sending wrapper.
        rel: RelId,
        /// True when this was the wrapper's last tuple.
        finished: bool,
    },
    /// The DQP dispatched a batch of `tuples` input tuples to `frag`.
    BatchStart {
        /// Fragment being executed.
        frag: FragId,
        /// Input tuples in the batch.
        tuples: u64,
    },
    /// The in-flight batch of `frag` completed.
    BatchDone {
        /// Fragment that ran.
        frag: FragId,
        /// Result tuples the batch delivered to the query output.
        output: u64,
    },
    /// A planning phase produced a new scheduling plan.
    PlanComputed {
        /// The interruption that triggered planning.
        why: Interrupt,
        /// The new scheduling plan, highest priority first.
        sp: &'a [FragId],
    },
    /// An interruption event was raised (§3.2).
    InterruptRaised(Interrupt),
    /// Chain `pc` was degraded (§4.4) into a materialization fragment and
    /// a complement fragment.
    Degraded {
        /// The degraded pipeline chain.
        pc: PcId,
        /// The new materialization fragment.
        mf: FragId,
        /// The new complement fragment.
        cf: FragId,
        /// Temp relation spooling the materialized tuples.
        temp: TempId,
    },
    /// Fragment `from` was split at an operator boundary (§4.2's
    /// memory-overflow technique).
    Split {
        /// The fragment that was split (now superseded).
        from: FragId,
        /// Head half (runs first, materializes).
        head: FragId,
        /// Tail half (consumes the temp).
        tail: FragId,
        /// The intermediate temp relation.
        temp: TempId,
    },
    /// A materialization fragment was cancelled early because its chain
    /// became schedulable; the complement takes over the live queue.
    MatCancelled {
        /// The retired materialization fragment.
        mf: FragId,
        /// The complement fragment inheriting the queue.
        cf: FragId,
    },
    /// Query memory was reserved (or grown) for a hash table.
    MemoryGranted {
        /// The hash table.
        ht: HtId,
        /// Bytes newly reserved.
        bytes: u64,
    },
    /// A memory reservation failed — a `MemoryOverflow` situation.
    MemoryDenied {
        /// The fragment that could not reserve.
        frag: FragId,
        /// Bytes it asked for.
        needed: u64,
        /// Bytes that were free.
        free: u64,
    },
    /// Tuples were appended to a temp relation.
    TempWrite {
        /// The temp relation.
        temp: TempId,
        /// Tuples appended.
        tuples: u64,
    },
    /// Tuples were read back from a temp relation.
    TempRead {
        /// The temp relation.
        temp: TempId,
        /// Tuples read.
        tuples: u64,
    },
    /// Relation `rel`'s scan is being served from the mediator's result
    /// cache: no wrapper is dialed, the recording replays at memory speed.
    CacheHit {
        /// The cached relation.
        rel: RelId,
        /// Tuples the replay will deliver.
        tuples: u64,
        /// Payload bytes served from cache.
        bytes: u64,
    },
    /// Relation `rel` was not servable from the result cache; the scan
    /// goes to its wrapper (and is recorded when a cache is configured).
    CacheMiss {
        /// The uncached relation.
        rel: RelId,
    },
    /// Relation `rel`'s scan opened on this replica endpoint (the
    /// rate-aware selection of `dqs-replica`).
    ReplicaPinned {
        /// The relation whose scan was pinned.
        rel: RelId,
        /// The chosen endpoint address.
        endpoint: &'a str,
    },
    /// Relation `rel`'s scan lost its endpoint mid-stream and resumed on a
    /// peer replica at `resume_from` — the run continues.
    Failover {
        /// The relation whose scan moved.
        rel: RelId,
        /// The endpoint that failed.
        from: &'a str,
        /// The endpoint the scan resumed on.
        to: &'a str,
        /// First tuple index the new endpoint delivers.
        resume_from: u64,
    },
    /// A replica endpoint was put on cooldown after failing. Unlike
    /// [`EngineEvent::Aborted`], the scan may still complete on a peer.
    ReplicaDegraded {
        /// The relation whose source observed the failure.
        rel: RelId,
        /// The endpoint now on cooldown.
        endpoint: &'a str,
        /// The failure that degraded it.
        error: &'a dqs_source::SourceError,
    },
    /// One morsel of an admitted batch was dispatched to the worker pool
    /// (only emitted on the morsel-parallel path, `workers > 1`).
    MorselDispatched {
        /// Fragment whose batch was carved.
        frag: FragId,
        /// Zero-based morsel index within the batch (also the merge rank).
        index: u64,
        /// Source tuples in the morsel.
        tuples: u64,
    },
    /// A dispatched morsel was executed by a worker other than the one it
    /// was queued on — a work-stealing event. Steals change *placement*
    /// only; the deterministic merge order keeps answers bit-identical.
    MorselStolen {
        /// Fragment whose morsel moved.
        frag: FragId,
        /// Morsel index within the batch.
        index: u64,
        /// The worker that stole and ran it.
        worker: u64,
    },
    /// The SPM rate observatory folded a delivery-rate sample for wrapper
    /// `rel` (only emitted under `SpmPolicy`; excluded from the golden
    /// fingerprint, which never runs SPM).
    RateSample {
        /// The observed wrapper.
        rel: RelId,
        /// EWMA delivery rate in tuples/second.
        rate_tps: f64,
        /// Burstiness (coefficient of variation of the rate samples).
        burstiness: f64,
    },
    /// The SPM planner re-permuted the drain order mid-query: observed
    /// rates crossed the hysteresis threshold (only emitted under
    /// `SpmPolicy`).
    RatePermuted {
        /// The new drain order over live wrappers, fastest first.
        order: &'a [RelId],
    },
    /// The DQP found nothing schedulable with data (§3.2 stall).
    Stalled,
    /// The run aborted; this is the final event of the stream.
    Aborted {
        /// Why the run could not complete.
        reason: &'a RunError,
    },
}

/// Receives engine events as they happen, in virtual-time order.
pub trait EngineObserver {
    /// Handle one event occurring at virtual time `at`.
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>);
}

/// The do-nothing observer; with it, observation compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl EngineObserver for NullObserver {
    #[inline(always)]
    fn on_event(&mut self, _at: SimTime, _ev: &EngineEvent<'_>) {}
}

impl<O: EngineObserver + ?Sized> EngineObserver for &mut O {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        (**self).on_event(at, ev)
    }
}

/// Folds events into the run's metric counters. The engine installs one
/// unconditionally; the counters it cannot see (resource busy times, high
/// waters) are filled in from the world at the end of the run.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    /// The accumulating metrics.
    pub acc: MetricsAcc,
}

impl EngineObserver for MetricsObserver {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        let m = &mut self.acc.m;
        match *ev {
            EngineEvent::BatchStart { .. } => {
                m.batches += 1;
                self.acc.stall_end(at);
            }
            EngineEvent::BatchDone { output, .. } => m.output_tuples += output,
            EngineEvent::PlanComputed { .. } => m.plans += 1,
            EngineEvent::InterruptRaised(why) => match why {
                Interrupt::EndOfQf(_) => m.end_of_qf += 1,
                Interrupt::RateChange => m.rate_changes += 1,
                Interrupt::Timeout => m.timeouts += 1,
                Interrupt::Start | Interrupt::MemoryOverflow { .. } => {}
            },
            // A split is bookkept as a degradation too: both replace one
            // fragment with a (materializing, consuming) pair.
            EngineEvent::Degraded { .. } | EngineEvent::Split { .. } => m.degradations += 1,
            EngineEvent::MemoryDenied { .. } => m.memory_overflows += 1,
            EngineEvent::CacheHit { bytes, .. } => {
                m.cache_hits += 1;
                m.cache_bytes_served += bytes;
            }
            EngineEvent::CacheMiss { .. } => m.cache_misses += 1,
            EngineEvent::Failover { .. } => m.failovers += 1,
            EngineEvent::ReplicaDegraded { .. } => m.replica_retries += 1,
            EngineEvent::MorselDispatched { .. } => m.morsels += 1,
            EngineEvent::MorselStolen { .. } => m.steals += 1,
            EngineEvent::RateSample { .. } => m.rate_samples += 1,
            EngineEvent::RatePermuted { .. } => m.permutations += 1,
            EngineEvent::Stalled => self.acc.stall_begin(at),
            EngineEvent::ReplicaPinned { .. }
            | EngineEvent::Arrival { .. }
            | EngineEvent::MatCancelled { .. }
            | EngineEvent::MemoryGranted { .. }
            | EngineEvent::TempWrite { .. }
            | EngineEvent::TempRead { .. }
            | EngineEvent::Aborted { .. } => {}
        }
    }
}

/// Renders events into the classic human-readable [`Trace`]. This is the
/// only place engine activity is turned into text for the text trace.
#[derive(Debug)]
pub struct TextTrace {
    trace: Trace,
}

impl TextTrace {
    /// A collecting text trace.
    pub fn new() -> TextTrace {
        TextTrace {
            trace: Trace::enabled(),
        }
    }

    /// Take the rendered trace out.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Default for TextTrace {
    fn default() -> Self {
        TextTrace::new()
    }
}

impl EngineObserver for TextTrace {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        let (kind, detail) = match *ev {
            EngineEvent::Arrival { rel, finished } => (
                TraceKind::Arrival,
                format!("rel {} tuple (finished={finished})", rel.0),
            ),
            EngineEvent::BatchStart { frag, tuples } => (
                TraceKind::Batch,
                format!("batch start frag {} ({tuples} tuples)", frag.0),
            ),
            EngineEvent::BatchDone { frag, .. } => {
                (TraceKind::Batch, format!("batch done frag {}", frag.0))
            }
            EngineEvent::PlanComputed { why, sp } => (
                TraceKind::Plan,
                format!(
                    "{why:?} -> sp {:?}",
                    sp.iter().map(|f| f.0).collect::<Vec<_>>()
                ),
            ),
            EngineEvent::InterruptRaised(why) => (
                TraceKind::Interrupt,
                match why {
                    Interrupt::Timeout => "TimeOut".into(),
                    Interrupt::EndOfQf(f) => format!("EndOfQF frag {}", f.0),
                    other => format!("{other:?}"),
                },
            ),
            EngineEvent::Degraded { pc, mf, cf, temp } => (
                TraceKind::Other,
                format!(
                    "degrade pc {} -> mf {} cf {} (temp {})",
                    pc.0, mf.0, cf.0, temp.0
                ),
            ),
            EngineEvent::Split {
                from,
                head,
                tail,
                temp,
            } => (
                TraceKind::Other,
                format!(
                    "split frag {} -> head {} tail {} (temp {})",
                    from.0, head.0, tail.0, temp.0
                ),
            ),
            EngineEvent::MatCancelled { mf, cf } => (
                TraceKind::Other,
                format!("cancel mf {} (cf {} takes the queue)", mf.0, cf.0),
            ),
            EngineEvent::MemoryGranted { ht, bytes } => (
                TraceKind::Other,
                format!("memory grant ht {} ({bytes} bytes)", ht.0),
            ),
            EngineEvent::MemoryDenied { frag, needed, free } => (
                TraceKind::Other,
                format!("memory deny frag {} ({needed} needed, {free} free)", frag.0),
            ),
            EngineEvent::TempWrite { temp, tuples } => (
                TraceKind::Io,
                format!("temp {} write {tuples} tuples", temp.0),
            ),
            EngineEvent::TempRead { temp, tuples } => (
                TraceKind::Io,
                format!("temp {} read {tuples} tuples", temp.0),
            ),
            EngineEvent::CacheHit { rel, tuples, bytes } => (
                TraceKind::Other,
                format!("cache hit rel {} ({tuples} tuples, {bytes} bytes)", rel.0),
            ),
            EngineEvent::CacheMiss { rel } => {
                (TraceKind::Other, format!("cache miss rel {}", rel.0))
            }
            EngineEvent::ReplicaPinned { rel, endpoint } => (
                TraceKind::Other,
                format!("replica pin rel {} -> {endpoint}", rel.0),
            ),
            EngineEvent::Failover {
                rel,
                from,
                to,
                resume_from,
            } => (
                TraceKind::Other,
                format!(
                    "failover rel {} {from} -> {to} (resume at {resume_from})",
                    rel.0
                ),
            ),
            EngineEvent::ReplicaDegraded {
                rel,
                endpoint,
                error,
            } => (
                TraceKind::Other,
                format!("replica degraded rel {} {endpoint}: {error}", rel.0),
            ),
            EngineEvent::MorselDispatched {
                frag,
                index,
                tuples,
            } => (
                TraceKind::Batch,
                format!("morsel {index} of frag {} ({tuples} tuples)", frag.0),
            ),
            EngineEvent::MorselStolen {
                frag,
                index,
                worker,
            } => (
                TraceKind::Batch,
                format!(
                    "morsel {index} of frag {} stolen by worker {worker}",
                    frag.0
                ),
            ),
            EngineEvent::RateSample {
                rel,
                rate_tps,
                burstiness,
            } => (
                TraceKind::Other,
                format!(
                    "rate sample rel {} ({rate_tps:.0} t/s, cv {burstiness:.2})",
                    rel.0
                ),
            ),
            EngineEvent::RatePermuted { order } => (
                TraceKind::Plan,
                format!(
                    "permute drain order {:?}",
                    order.iter().map(|r| r.0).collect::<Vec<_>>()
                ),
            ),
            EngineEvent::Stalled => (TraceKind::Other, "stall".into()),
            EngineEvent::Aborted { reason } => (TraceKind::Other, format!("abort: {reason}")),
        };
        self.trace.emit(at, kind, || detail);
    }
}

/// Streams events as JSON lines (one object per event) to any writer.
///
/// Every line has `"at_us"` (virtual time in microseconds) and `"type"`;
/// the remaining fields are flat and numeric. Written lines are valid JSON
/// parseable independently, so traces can be processed with standard
/// line-oriented tooling.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
    /// First I/O error, if any (subsequent events are dropped).
    error: Option<std::io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Stream events to `out`.
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink { out, error: None }
    }

    /// Finish, flushing and returning the writer (or the first I/O error).
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_line(&mut self, at: SimTime, body: &str) {
        if self.error.is_some() {
            return;
        }
        let us = at.saturating_since(SimTime::ZERO).as_micros_f64();
        if let Err(e) = writeln!(self.out, "{{\"at_us\":{us},{body}}}") {
            self.error = Some(e);
        }
    }
}

fn interrupt_json(why: Interrupt) -> String {
    match why {
        Interrupt::Start => "\"start\"".into(),
        Interrupt::EndOfQf(f) => format!("{{\"end_of_qf\":{}}}", f.0),
        Interrupt::RateChange => "\"rate_change\"".into(),
        Interrupt::Timeout => "\"timeout\"".into(),
        Interrupt::MemoryOverflow { frag, needed } => {
            format!(
                "{{\"memory_overflow\":{{\"frag\":{},\"needed\":{needed}}}}}",
                frag.0
            )
        }
    }
}

impl<W: Write> EngineObserver for JsonLinesSink<W> {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        let body = match *ev {
            EngineEvent::Arrival { rel, finished } => {
                format!(
                    "\"type\":\"arrival\",\"rel\":{},\"finished\":{finished}",
                    rel.0
                )
            }
            EngineEvent::BatchStart { frag, tuples } => {
                format!(
                    "\"type\":\"batch_start\",\"frag\":{},\"tuples\":{tuples}",
                    frag.0
                )
            }
            EngineEvent::BatchDone { frag, output } => {
                format!(
                    "\"type\":\"batch_done\",\"frag\":{},\"output\":{output}",
                    frag.0
                )
            }
            EngineEvent::PlanComputed { why, sp } => {
                let ids: Vec<String> = sp.iter().map(|f| f.0.to_string()).collect();
                format!(
                    "\"type\":\"plan\",\"why\":{},\"sp\":[{}]",
                    interrupt_json(why),
                    ids.join(",")
                )
            }
            EngineEvent::InterruptRaised(why) => {
                format!("\"type\":\"interrupt\",\"why\":{}", interrupt_json(why))
            }
            EngineEvent::Degraded { pc, mf, cf, temp } => format!(
                "\"type\":\"degrade\",\"pc\":{},\"mf\":{},\"cf\":{},\"temp\":{}",
                pc.0, mf.0, cf.0, temp.0
            ),
            EngineEvent::Split {
                from,
                head,
                tail,
                temp,
            } => format!(
                "\"type\":\"split\",\"from\":{},\"head\":{},\"tail\":{},\"temp\":{}",
                from.0, head.0, tail.0, temp.0
            ),
            EngineEvent::MatCancelled { mf, cf } => {
                format!("\"type\":\"mat_cancel\",\"mf\":{},\"cf\":{}", mf.0, cf.0)
            }
            EngineEvent::MemoryGranted { ht, bytes } => {
                format!("\"type\":\"mem_grant\",\"ht\":{},\"bytes\":{bytes}", ht.0)
            }
            EngineEvent::MemoryDenied { frag, needed, free } => format!(
                "\"type\":\"mem_deny\",\"frag\":{},\"needed\":{needed},\"free\":{free}",
                frag.0
            ),
            EngineEvent::TempWrite { temp, tuples } => {
                format!(
                    "\"type\":\"temp_write\",\"temp\":{},\"tuples\":{tuples}",
                    temp.0
                )
            }
            EngineEvent::TempRead { temp, tuples } => {
                format!(
                    "\"type\":\"temp_read\",\"temp\":{},\"tuples\":{tuples}",
                    temp.0
                )
            }
            EngineEvent::CacheHit { rel, tuples, bytes } => format!(
                "\"type\":\"cache_hit\",\"rel\":{},\"tuples\":{tuples},\"bytes\":{bytes}",
                rel.0
            ),
            EngineEvent::CacheMiss { rel } => {
                format!("\"type\":\"cache_miss\",\"rel\":{}", rel.0)
            }
            EngineEvent::ReplicaPinned { rel, endpoint } => format!(
                "\"type\":\"replica_pin\",\"rel\":{},\"endpoint\":{}",
                rel.0,
                escape(endpoint)
            ),
            EngineEvent::Failover {
                rel,
                from,
                to,
                resume_from,
            } => format!(
                "\"type\":\"failover\",\"rel\":{},\"from\":{},\"to\":{},\"resume_from\":{resume_from}",
                rel.0,
                escape(from),
                escape(to)
            ),
            EngineEvent::ReplicaDegraded {
                rel,
                endpoint,
                error,
            } => format!(
                "\"type\":\"replica_degraded\",\"rel\":{},\"endpoint\":{},\"error\":\"{}\"",
                rel.0,
                escape(endpoint),
                error.kind()
            ),
            EngineEvent::MorselDispatched {
                frag,
                index,
                tuples,
            } => format!(
                "\"type\":\"morsel\",\"frag\":{},\"index\":{index},\"tuples\":{tuples}",
                frag.0
            ),
            EngineEvent::MorselStolen { frag, index, worker } => format!(
                "\"type\":\"morsel_stolen\",\"frag\":{},\"index\":{index},\"worker\":{worker}",
                frag.0
            ),
            EngineEvent::RateSample {
                rel,
                rate_tps,
                burstiness,
            } => format!(
                "\"type\":\"rate_sample\",\"rel\":{},\"tps\":{rate_tps:.3},\"cv\":{burstiness:.4}",
                rel.0
            ),
            EngineEvent::RatePermuted { order } => {
                let ids: Vec<String> = order.iter().map(|r| r.0.to_string()).collect();
                format!("\"type\":\"rate_permuted\",\"order\":[{}]", ids.join(","))
            }
            EngineEvent::Stalled => "\"type\":\"stall\"".to_string(),
            EngineEvent::Aborted { reason } => format!(
                "\"type\":\"abort\",\"kind\":\"{}\",\"reason\":{}",
                reason.kind(),
                escape(&reason.to_string())
            ),
        };
        self.write_line(at, &body);
    }
}

/// The engine's observer stack: metrics (always), the text trace (when
/// configured), and the caller's observer.
#[derive(Debug)]
pub(crate) struct Observers<O: EngineObserver> {
    pub(crate) metrics: MetricsObserver,
    pub(crate) text: Option<TextTrace>,
    pub(crate) user: O,
}

impl<O: EngineObserver> Observers<O> {
    pub(crate) fn new(trace: bool, user: O) -> Observers<O> {
        Observers {
            metrics: MetricsObserver::default(),
            text: trace.then(TextTrace::new),
            user,
        }
    }
}

impl<O: EngineObserver> EngineObserver for Observers<O> {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        self.metrics.on_event(at, ev);
        if let Some(t) = &mut self.text {
            t.on_event(at, ev);
        }
        self.user.on_event(at, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_observer_folds_counters() {
        let mut m = MetricsObserver::default();
        let t = SimTime::ZERO;
        m.on_event(t, &EngineEvent::Stalled);
        m.on_event(
            t,
            &EngineEvent::BatchStart {
                frag: FragId(0),
                tuples: 128,
            },
        );
        m.on_event(
            t,
            &EngineEvent::BatchDone {
                frag: FragId(0),
                output: 42,
            },
        );
        m.on_event(
            t,
            &EngineEvent::InterruptRaised(Interrupt::EndOfQf(FragId(0))),
        );
        m.on_event(t, &EngineEvent::InterruptRaised(Interrupt::RateChange));
        m.on_event(t, &EngineEvent::InterruptRaised(Interrupt::Timeout));
        m.on_event(
            t,
            &EngineEvent::MemoryDenied {
                frag: FragId(1),
                needed: 10,
                free: 5,
            },
        );
        m.on_event(
            t,
            &EngineEvent::Degraded {
                pc: PcId(0),
                mf: FragId(2),
                cf: FragId(3),
                temp: TempId(0),
            },
        );
        m.on_event(
            t,
            &EngineEvent::PlanComputed {
                why: Interrupt::Start,
                sp: &[],
            },
        );
        let rm = m.acc.m;
        assert_eq!(rm.batches, 1);
        assert_eq!(rm.output_tuples, 42);
        assert_eq!(rm.end_of_qf, 1);
        assert_eq!(rm.rate_changes, 1);
        assert_eq!(rm.timeouts, 1);
        assert_eq!(rm.memory_overflows, 1);
        assert_eq!(rm.degradations, 1);
        assert_eq!(rm.plans, 1);
    }

    #[test]
    fn text_trace_renders_classic_lines() {
        let mut t = TextTrace::new();
        t.on_event(
            SimTime::ZERO,
            &EngineEvent::Arrival {
                rel: RelId(3),
                finished: false,
            },
        );
        t.on_event(
            SimTime::ZERO,
            &EngineEvent::InterruptRaised(Interrupt::EndOfQf(FragId(7))),
        );
        let trace = t.into_trace();
        assert_eq!(trace.events()[0].detail, "rel 3 tuple (finished=false)");
        assert_eq!(trace.events()[1].detail, "EndOfQF frag 7");
    }

    #[test]
    fn json_lines_are_parseable_objects() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.on_event(
            SimTime::ZERO,
            &EngineEvent::PlanComputed {
                why: Interrupt::MemoryOverflow {
                    frag: FragId(1),
                    needed: 64,
                },
                sp: &[FragId(2), FragId(1)],
            },
        );
        sink.on_event(
            SimTime::ZERO,
            &EngineEvent::BatchStart {
                frag: FragId(2),
                tuples: 128,
            },
        );
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"at_us\":0"));
        assert!(lines[0].contains("\"sp\":[2,1]"));
        assert!(lines[0].contains("\"memory_overflow\""));
        assert!(lines[1].contains("\"type\":\"batch_start\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }
}
