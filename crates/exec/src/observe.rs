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
//! * [`JsonLinesSink`] — streams one JSON object per event to any writer
//!   (the CLI's `--trace-json`), through [`render`] — the only function
//!   that turns an event into text.
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
use dqs_sim::SimTime;

use crate::error::RunError;
use crate::frag::{FragId, TempId};
use crate::json::{self, arr, fields, fixed, obj, ToJson};
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
            EngineEvent::Failover { .. } => m.failovers += 1,
            EngineEvent::ReplicaDegraded { .. } => m.replica_retries += 1,
            EngineEvent::MorselDispatched { .. } => m.morsels += 1,
            EngineEvent::RateSample { .. } => m.rate_samples += 1,
            EngineEvent::RatePermuted { .. } => m.permutations += 1,
            EngineEvent::Stalled => self.acc.stall_begin(at),
            // Cache outcomes are decided where sources are built, before
            // an engine exists; the mediator counts them itself.
            EngineEvent::CacheHit { .. }
            | EngineEvent::CacheMiss { .. }
            | EngineEvent::ReplicaPinned { .. }
            | EngineEvent::Arrival { .. }
            | EngineEvent::MatCancelled { .. }
            | EngineEvent::MemoryGranted { .. }
            | EngineEvent::TempWrite { .. }
            | EngineEvent::TempRead { .. }
            | EngineEvent::Aborted { .. } => {}
        }
    }
}

/// The one place an engine event becomes text: one flat JSON object with
/// `"at_us"` (virtual time in microseconds), `"type"`, then the variant's
/// fields. [`JsonLinesSink`] writes these lines to a file; the mediator
/// sends them as `Trace` frames.
pub fn render(at: SimTime, ev: &EngineEvent<'_>) -> String {
    json::object(|o| {
        fields!(o, "at_us": at.saturating_since(SimTime::ZERO).as_micros_f64());
        match *ev {
            EngineEvent::Arrival { rel, finished } => {
                fields!(o, "type": "arrival", "rel": rel.0, "finished": finished)
            }
            EngineEvent::BatchStart { frag, tuples } => {
                fields!(o, "type": "batch_start", "frag": frag.0, "tuples": tuples)
            }
            EngineEvent::BatchDone { frag, output } => {
                fields!(o, "type": "batch_done", "frag": frag.0, "output": output)
            }
            EngineEvent::PlanComputed { why, sp } => {
                fields!(o, "type": "plan", "why": why, "sp": arr(sp.iter().map(|f| f.0)))
            }
            EngineEvent::InterruptRaised(why) => fields!(o, "type": "interrupt", "why": why),
            EngineEvent::Degraded { pc, mf, cf, temp } => {
                fields!(o, "type": "degrade", "pc": pc.0, "mf": mf.0, "cf": cf.0, "temp": temp.0)
            }
            EngineEvent::Split {
                from,
                head,
                tail,
                temp,
            } => fields!(o,
                "type": "split", "from": from.0, "head": head.0, "tail": tail.0, "temp": temp.0
            ),
            EngineEvent::MatCancelled { mf, cf } => {
                fields!(o, "type": "mat_cancel", "mf": mf.0, "cf": cf.0)
            }
            EngineEvent::MemoryGranted { ht, bytes } => {
                fields!(o, "type": "mem_grant", "ht": ht.0, "bytes": bytes)
            }
            EngineEvent::MemoryDenied { frag, needed, free } => {
                fields!(o, "type": "mem_deny", "frag": frag.0, "needed": needed, "free": free)
            }
            EngineEvent::TempWrite { temp, tuples } => {
                fields!(o, "type": "temp_write", "temp": temp.0, "tuples": tuples)
            }
            EngineEvent::TempRead { temp, tuples } => {
                fields!(o, "type": "temp_read", "temp": temp.0, "tuples": tuples)
            }
            EngineEvent::CacheHit { rel, tuples, bytes } => {
                fields!(o, "type": "cache_hit", "rel": rel.0, "tuples": tuples, "bytes": bytes)
            }
            EngineEvent::CacheMiss { rel } => fields!(o, "type": "cache_miss", "rel": rel.0),
            EngineEvent::ReplicaPinned { rel, endpoint } => {
                fields!(o, "type": "replica_pin", "rel": rel.0, "endpoint": endpoint)
            }
            EngineEvent::Failover {
                rel,
                from,
                to,
                resume_from,
            } => fields!(o,
                "type": "failover", "rel": rel.0, "from": from, "to": to,
                "resume_from": resume_from
            ),
            EngineEvent::ReplicaDegraded {
                rel,
                endpoint,
                error,
            } => fields!(o,
                "type": "replica_degraded", "rel": rel.0, "endpoint": endpoint,
                "error": error.kind()
            ),
            EngineEvent::MorselDispatched {
                frag,
                index,
                tuples,
            } => fields!(o, "type": "morsel", "frag": frag.0, "index": index, "tuples": tuples),
            EngineEvent::RateSample {
                rel,
                rate_tps,
                burstiness,
            } => fields!(o,
                "type": "rate_sample", "rel": rel.0, "tps": fixed(rate_tps, 3),
                "cv": fixed(burstiness, 4)
            ),
            EngineEvent::RatePermuted { order } => {
                fields!(o, "type": "rate_permuted", "order": arr(order.iter().map(|r| r.0)))
            }
            EngineEvent::Stalled => fields!(o, "type": "stall"),
            EngineEvent::Aborted { reason } => fields!(o,
                "type": "abort", "kind": reason.kind(), "reason": &reason.to_string()
            ),
        }
    })
}

/// `"start"`-style names for the bare interrupts, one-key objects for the
/// ones that carry data.
impl ToJson for Interrupt {
    fn write_json(self, out: &mut String) {
        match self {
            Interrupt::Start => "start".write_json(out),
            Interrupt::RateChange => "rate_change".write_json(out),
            Interrupt::Timeout => "timeout".write_json(out),
            Interrupt::EndOfQf(f) => obj(|o| fields!(o, "end_of_qf": f.0)).write_json(out),
            Interrupt::MemoryOverflow { frag, needed } => {
                let detail = obj(|o| fields!(o, "frag": frag.0, "needed": needed));
                obj(|o| fields!(o, "memory_overflow": detail)).write_json(out)
            }
        }
    }
}

/// Streams [`render`]ed events, one line each, to any writer (the CLI's
/// `--trace-json`). Each line parses on its own, so traces work with
/// standard line-oriented tooling.
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
}

impl<W: Write> EngineObserver for JsonLinesSink<W> {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        if self.error.is_none() {
            self.error = writeln!(self.out, "{}", render(at, ev)).err();
        }
    }
}

/// The engine's observer stack: metrics (always) and the caller's
/// observer.
#[derive(Debug)]
pub(crate) struct Observers<O: EngineObserver> {
    pub(crate) metrics: MetricsObserver,
    pub(crate) user: O,
}

impl<O: EngineObserver> EngineObserver for Observers<O> {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        self.metrics.on_event(at, ev);
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

    /// Every variant (and every interrupt shape) against the bytes the
    /// previous renderer produced for the same events.
    #[test]
    fn json_lines_are_parseable_objects() {
        let timeout = dqs_source::SourceError::Timeout { millis: 250 };
        let abort = RunError::Wrapper {
            rel: RelId(2),
            error: dqs_source::SourceError::Disconnected {
                detail: "reset \"by\" peer\n\u{1}".into(),
            },
        };
        let overflow = Interrupt::MemoryOverflow {
            frag: FragId(1),
            needed: 64,
        };
        #[rustfmt::skip]
        let events = [
            EngineEvent::Arrival { rel: RelId(3), finished: true },
            EngineEvent::BatchStart { frag: FragId(2), tuples: 128 },
            EngineEvent::BatchDone { frag: FragId(2), output: 17 },
            EngineEvent::PlanComputed { why: Interrupt::Start, sp: &[FragId(2), FragId(1)] },
            EngineEvent::PlanComputed { why: overflow, sp: &[] },
            EngineEvent::InterruptRaised(Interrupt::EndOfQf(FragId(4))),
            EngineEvent::InterruptRaised(Interrupt::RateChange),
            EngineEvent::InterruptRaised(Interrupt::Timeout),
            EngineEvent::Degraded { pc: PcId(1), mf: FragId(5), cf: FragId(6), temp: TempId(0) },
            EngineEvent::Split { from: FragId(1), head: FragId(7), tail: FragId(8), temp: TempId(1) },
            EngineEvent::MatCancelled { mf: FragId(5), cf: FragId(6) },
            EngineEvent::MemoryGranted { ht: HtId(2), bytes: 4096 },
            EngineEvent::MemoryDenied { frag: FragId(1), needed: 8192, free: 100 },
            EngineEvent::TempWrite { temp: TempId(0), tuples: 204 },
            EngineEvent::TempRead { temp: TempId(0), tuples: 204 },
            EngineEvent::CacheHit { rel: RelId(0), tuples: 300, bytes: 2400 },
            EngineEvent::CacheMiss { rel: RelId(1) },
            EngineEvent::ReplicaPinned { rel: RelId(0), endpoint: "127.0.0.1:7405" },
            EngineEvent::Failover { rel: RelId(0), from: "127.0.0.1:7405", to: "host\\b:7406", resume_from: 1234 },
            EngineEvent::ReplicaDegraded { rel: RelId(0), endpoint: "127.0.0.1:7405", error: &timeout },
            EngineEvent::MorselDispatched { frag: FragId(2), index: 3, tuples: 64 },
            EngineEvent::RateSample { rel: RelId(1), rate_tps: 12345.678901, burstiness: 0.25 },
            EngineEvent::RatePermuted { order: &[RelId(1), RelId(0)] },
            EngineEvent::Stalled,
            EngineEvent::Aborted { reason: &abort },
        ];
        let golden = [
            r#"{"at_us":0,"type":"arrival","rel":3,"finished":true}"#,
            r#"{"at_us":1.5,"type":"batch_start","frag":2,"tuples":128}"#,
            r#"{"at_us":3,"type":"batch_done","frag":2,"output":17}"#,
            r#"{"at_us":4.5,"type":"plan","why":"start","sp":[2,1]}"#,
            r#"{"at_us":6,"type":"plan","why":{"memory_overflow":{"frag":1,"needed":64}},"sp":[]}"#,
            r#"{"at_us":7.5,"type":"interrupt","why":{"end_of_qf":4}}"#,
            r#"{"at_us":9,"type":"interrupt","why":"rate_change"}"#,
            r#"{"at_us":10.5,"type":"interrupt","why":"timeout"}"#,
            r#"{"at_us":12,"type":"degrade","pc":1,"mf":5,"cf":6,"temp":0}"#,
            r#"{"at_us":13.5,"type":"split","from":1,"head":7,"tail":8,"temp":1}"#,
            r#"{"at_us":15,"type":"mat_cancel","mf":5,"cf":6}"#,
            r#"{"at_us":16.5,"type":"mem_grant","ht":2,"bytes":4096}"#,
            r#"{"at_us":18,"type":"mem_deny","frag":1,"needed":8192,"free":100}"#,
            r#"{"at_us":19.5,"type":"temp_write","temp":0,"tuples":204}"#,
            r#"{"at_us":21,"type":"temp_read","temp":0,"tuples":204}"#,
            r#"{"at_us":22.5,"type":"cache_hit","rel":0,"tuples":300,"bytes":2400}"#,
            r#"{"at_us":24,"type":"cache_miss","rel":1}"#,
            r#"{"at_us":25.5,"type":"replica_pin","rel":0,"endpoint":"127.0.0.1:7405"}"#,
            r#"{"at_us":27,"type":"failover","rel":0,"from":"127.0.0.1:7405","to":"host\\b:7406","resume_from":1234}"#,
            r#"{"at_us":28.5,"type":"replica_degraded","rel":0,"endpoint":"127.0.0.1:7405","error":"timeout"}"#,
            r#"{"at_us":30,"type":"morsel","frag":2,"index":3,"tuples":64}"#,
            r#"{"at_us":31.5,"type":"rate_sample","rel":1,"tps":12345.679,"cv":0.2500}"#,
            r#"{"at_us":33,"type":"rate_permuted","order":[1,0]}"#,
            r#"{"at_us":34.5,"type":"stall"}"#,
            r#"{"at_us":36,"type":"abort","kind":"wrapper","reason":"wrapper for relation 2 failed: peer disconnected: reset \"by\" peer\n\u0001"}"#,
        ];
        let mut sink = JsonLinesSink::new(Vec::new());
        for (i, ev) in events.iter().enumerate() {
            sink.on_event(SimTime::from_nanos(i as u64 * 1_500), ev);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, golden);
        for line in lines {
            let v = json::parse(line).expect(line);
            assert!(
                v.get("at_us").is_some() && v.get("type").is_some(),
                "{line}"
            );
        }
    }
}
