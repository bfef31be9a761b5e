//! The engine runtime: construction, the event loop, and run finalization.
//!
//! [`Engine`] is split across four modules, each an `impl` extension of the
//! same struct:
//!
//! * here — the signal loop and the arrival/batch-done handlers;
//! * [`crate::dqp`] — fragment lifecycle and batch processing (§3.2);
//! * [`crate::mem`] — hash-table memory accounting (§4.2);
//! * [`crate::replan`] — planning phases and interrupt handling (§3.1).
//!
//! The engine is strategy-agnostic: SEQ, MA and DSE are [`Policy`]s that
//! differ only in the scheduling plans they return (§5.1.2: "Since the
//! different strategies use the same lower-level code, the performance
//! difference can only stem from the execution strategies").
//!
//! It is also substrate-agnostic (sans-io): time, timers and tuple delivery
//! come from a [`Driver`]. Under the default [`SimDriver`] everything runs
//! on the simulated clock — batch CPU time and message receive costs queue
//! on the single mediator CPU, materialization and temp scans queue on the
//! single disk — exactly as before the driver split. Under
//! [`RealTimeDriver`] the same loop runs against a wall clock with threaded
//! wrappers. Every state transition is reported as a structured
//! [`EngineEvent`] to the observer stack (see [`crate::observe`]).

use std::collections::HashMap;
use std::sync::Arc;

use dqs_plan::AnnotatedPlan;
use dqs_relop::{HtId, RelId, Tuple};
use dqs_sim::SimTime;
use dqs_source::Notice;
use dqs_storage::ReservationId;

use crate::driver::{Driver, RealTimeDriver, Signal, SimDriver};
use crate::error::RunError;
use crate::frag::{FragId, FragTable};
use crate::metrics::RunMetrics;
use crate::observe::{EngineEvent, EngineObserver, MetricsObserver, NullObserver, Observers};
use crate::policy::{Interrupt, Policy};
use crate::pool::WorkerPool;
use crate::workload::{EngineConfig, Workload};
use crate::world::World;

/// The batch currently on the CPU.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inflight {
    pub(crate) frag: FragId,
    /// Result tuples this batch delivered to the query output.
    pub(crate) output: u64,
}

/// Hard ceiling on delivered signals — a runaway loop trips this rather
/// than hanging the benchmark harness.
const MAX_EVENTS: u64 = 500_000_000;

/// One query execution: world + fragments + policy + signal loop.
///
/// The observer type parameter defaults to [`NullObserver`] and the driver
/// to [`SimDriver`], so existing `Engine::new(..)` call sites are
/// unchanged; [`Engine::with_observer`] installs a custom
/// [`EngineObserver`] with static dispatch, and [`Engine::with_driver`]
/// additionally picks the execution substrate.
pub struct Engine<P: Policy, O: EngineObserver = NullObserver, D: Driver = SimDriver> {
    pub(crate) world: World,
    pub(crate) plan: AnnotatedPlan,
    pub(crate) frags: FragTable,
    pub(crate) policy: P,
    pub(crate) cfg: EngineConfig,
    pub(crate) driver: D,
    /// Current scheduling plan, highest priority first.
    pub(crate) sp: Vec<FragId>,
    pub(crate) inflight: Option<Inflight>,
    pub(crate) pending_replan: Option<Interrupt>,
    pub(crate) timeout_ev: Option<D::Timer>,
    pub(crate) timeout_gen: u64,
    /// Memory reservation per built hash table: (grant, reserved bytes).
    pub(crate) ht_mem: HashMap<HtId, (ReservationId, u64)>,
    /// Fragment that last failed to reserve, with the free bytes then.
    pub(crate) last_overflow: Option<(FragId, u64)>,
    /// Output chains still running (multi-query forests have several).
    pub(crate) outputs_pending: usize,
    /// `(query, completion time)` per finished output chain.
    pub(crate) output_times: Vec<(u32, SimTime)>,
    /// Set once every output chain finished.
    pub(crate) output_done_at: Option<SimTime>,
    /// True while the DQP is stalled (dedups `Stalled` events).
    pub(crate) stalled: bool,
    pub(crate) aborted: Option<RunError>,
    /// Reusable batch-input scratch (avoids a Vec per batch).
    pub(crate) in_buf: Vec<Tuple>,
    /// Reusable batch-output scratch.
    pub(crate) out_buf: Vec<Tuple>,
    /// Worker pool for morsel-parallel batches. Resolved on first use when
    /// `cfg.workers > 1` (driver-provided pool, else the process-global one);
    /// never touched at workers=1, so serial runs spawn no threads.
    pub(crate) pool: Option<Arc<WorkerPool>>,
    pub(crate) obs: Observers<O>,
}

impl<P: Policy> Engine<P> {
    /// Build an engine for `workload` driven by `policy`.
    pub fn new(workload: &Workload, policy: P) -> Self {
        Engine::with_observer(workload, policy, NullObserver)
    }
}

impl<P: Policy, O: EngineObserver> Engine<P, O> {
    /// Build an engine that reports every [`EngineEvent`] to `observer`
    /// (in addition to the built-in metrics).
    pub fn with_observer(workload: &Workload, policy: P, observer: O) -> Self {
        Engine::with_driver(workload, policy, observer, SimDriver::new())
    }
}

impl<P: Policy, O: EngineObserver, D: Driver> Engine<P, O, D> {
    /// Build an engine running on `driver` — the fully general constructor.
    pub fn with_driver(workload: &Workload, policy: P, observer: O, mut driver: D) -> Self {
        let sources = driver.sources(workload);
        let queue_capacity = driver.queue_capacity(&workload.config);
        let (world, plan) = World::build_with_sources(workload, sources, queue_capacity);
        let frags = FragTable::from_plan(&plan, workload.config.seed);
        let pool = driver.exec_pool();
        let outputs_pending = plan
            .chains
            .chains
            .iter()
            .filter(|c| matches!(c.sink, dqs_plan::ChainSink::Output))
            .count();
        Engine {
            world,
            plan,
            frags,
            policy,
            obs: Observers {
                metrics: MetricsObserver::default(),
                user: observer,
            },
            cfg: workload.config.clone(),
            driver,
            sp: Vec::new(),
            inflight: None,
            pending_replan: None,
            timeout_ev: None,
            timeout_gen: 0,
            ht_mem: HashMap::new(),
            last_overflow: None,
            outputs_pending,
            output_times: Vec::new(),
            output_done_at: None,
            stalled: false,
            aborted: None,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            pool,
        }
    }

    /// Report `ev` to the observer stack.
    #[inline]
    pub(crate) fn emit(&mut self, at: SimTime, ev: EngineEvent<'_>) {
        self.obs.on_event(at, &ev);
    }

    /// Execute to completion, panicking on unrecoverable scheduling errors
    /// (deadlock, unresolvable memory overflow). Use [`Engine::try_run`] to
    /// observe those as errors instead.
    pub fn run(self) -> RunMetrics {
        match self.try_run() {
            Ok(m) => m,
            Err(e) => panic!("query execution aborted: {e}"),
        }
    }

    /// Execute to completion and report metrics, or the abort reason.
    pub fn try_run(mut self) -> Result<RunMetrics, RunError> {
        let start = self.driver.now();
        let (arrivals, start_instr) = self.world.cm.start(start);
        if start_instr > 0 {
            let t = self.world.params.instr_time(start_instr);
            self.world.cpu.acquire(start, t);
        }
        for (rel, at) in arrivals {
            self.driver.schedule(at, Signal::Arrival(rel));
        }
        self.replan(Interrupt::Start);
        self.try_dispatch();

        while self.output_done_at.is_none() && self.aborted.is_none() {
            let Some((t, ev)) = self.driver.next() else {
                self.aborted = Some(RunError::Deadlock {
                    sp: self.sp.clone(),
                });
                break;
            };
            match ev {
                Signal::Arrival(rel) => self.on_arrival(rel, t),
                Signal::BatchDone => self.on_batch_done(),
                Signal::TempReady => {
                    if self.inflight.is_none() {
                        self.try_dispatch();
                    }
                }
                Signal::Timeout(gen) => self.on_timeout(gen),
                Signal::Source(notice) => self.on_notice(*notice, t),
            }
            if self.driver.fired() > MAX_EVENTS {
                self.aborted = Some(RunError::EventLimit { limit: MAX_EVENTS });
            }
        }
        self.finish_metrics()
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, rel: RelId, now: SimTime) {
        let out = self.world.cm.on_arrival(rel, now);
        if out.cpu_instr > 0 {
            let t = self.world.params.instr_time(out.cpu_instr);
            self.world.cpu.acquire(now, t);
        }
        if let Some(at) = out.next_arrival {
            self.driver.schedule(at, Signal::Arrival(rel));
        }
        if out.rate_change {
            self.emit(now, EngineEvent::InterruptRaised(Interrupt::RateChange));
            self.note_replan(Interrupt::RateChange);
        }
        self.emit(
            now,
            EngineEvent::Arrival {
                rel,
                finished: out.finished,
            },
        );
        if self.inflight.is_none() {
            self.try_dispatch();
        }
    }

    /// What a remote source reported besides an arrival: a fault ends the
    /// run, everything else is told to the observers.
    fn on_notice(&mut self, notice: Notice, now: SimTime) {
        match notice {
            Notice::Arrival(rel) => self.on_arrival(rel, now),
            Notice::Fault { rel, error } => self.aborted = Some(RunError::Wrapper { rel, error }),
            Notice::ReplicaPinned { rel, endpoint } => {
                let endpoint = &endpoint;
                self.emit(now, EngineEvent::ReplicaPinned { rel, endpoint });
            }
            Notice::Failover {
                rel,
                from,
                to,
                resume_from,
            } => {
                let ev = EngineEvent::Failover {
                    rel,
                    from: &from,
                    to: &to,
                    resume_from,
                };
                self.emit(now, ev);
            }
            Notice::ReplicaDegraded {
                rel,
                endpoint,
                error,
            } => {
                let ev = EngineEvent::ReplicaDegraded {
                    rel,
                    endpoint: &endpoint,
                    error: &error,
                };
                self.emit(now, ev);
            }
        }
    }

    fn on_batch_done(&mut self) {
        let inf = self.inflight.take().expect("BatchDone without inflight");
        let now = self.driver.now();
        // Keep every temp scan's asynchronous read-ahead window warm while
        // the CPU is busy elsewhere (§4.4: CF I/O overlaps CPU) — this is
        // what lets a complement fragment start from resident pages instead
        // of a cold disk once its blocking inputs complete.
        self.arm_all_readahead();
        self.emit(
            now,
            EngineEvent::BatchDone {
                frag: inf.frag,
                output: inf.output,
            },
        );
        self.maybe_finalize(inf.frag);
        if self.output_done_at.is_some() {
            return;
        }
        if let Some(why) = self.pending_replan.take() {
            self.replan(why);
        }
        self.try_dispatch();
    }

    fn finish_metrics(mut self) -> Result<RunMetrics, RunError> {
        if let Some(reason) = self.aborted.take() {
            let at = self.driver.now();
            self.emit(at, EngineEvent::Aborted { reason: &reason });
            return Err(reason);
        }
        let end = self.output_done_at.unwrap_or(self.driver.now());
        self.obs.metrics.acc.stall_end(end);
        let mut m = self.obs.metrics.acc.m;
        m.strategy = self.policy.name();
        m.seed = self.cfg.seed;
        m.response_time = end.saturating_since(SimTime::ZERO);
        m.cpu_busy = self.world.cpu.busy_time();
        m.disk_busy = self.world.disk.busy_time();
        m.pages_written = self.world.disk.pages_written();
        m.pages_read = self.world.disk.pages_read();
        m.seeks = self.world.disk.seeks();
        m.memory_high_water = self.world.memory.high_water();
        m.events = self.driver.fired();
        m.query_responses = {
            let mut v: Vec<(u32, dqs_sim::SimDuration)> = self
                .output_times
                .iter()
                .map(|&(q, t)| (q, t.saturating_since(SimTime::ZERO)))
                .collect();
            v.sort();
            v
        };
        Ok(m)
    }
}

/// Convenience: build and run `workload` under `policy`.
pub fn run_workload<P: Policy>(workload: &Workload, policy: P) -> RunMetrics {
    Engine::new(workload, policy).run()
}

/// Run `workload` on the wall clock: wrapper gaps, batch completions and
/// timeouts are real deadlines.
///
/// Unlike simulation this is not deterministic wall-clock-wise, but the
/// deterministic parts — wrapper payloads, join fan-out, output
/// cardinality — match the simulated run for the same seed.
pub fn run_workload_realtime<P: Policy>(
    workload: &Workload,
    policy: P,
) -> Result<RunMetrics, RunError> {
    Engine::with_driver(workload, policy, NullObserver, RealTimeDriver::new()).try_run()
}
