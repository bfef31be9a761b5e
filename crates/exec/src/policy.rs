//! The scheduling-policy interface.
//!
//! §3.1 splits planning from execution: the engine (DQP) executes batches
//! following a *scheduling plan* — a totally ordered list of fragments —
//! and raises interruption events; a [`Policy`] (the DQS, possibly backed
//! by a DQO) recomputes the scheduling plan at each interruption.
//!
//! The engine guarantees `plan` is only called between batches (the DQO,
//! DQS and DQP "interact synchronously, i.e., they never run concurrently").

use dqs_plan::{AnnotatedPlan, PcId};
use dqs_sim::{SimDuration, SimTime};

use crate::frag::{FragId, FragStatus, FragTable};
use crate::observe::{EngineEvent, EngineObserver};
use crate::world::World;

/// Why a planning phase was entered (§3.2's interruption events plus the
/// initial call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// Execution is starting.
    Start,
    /// A query fragment completed.
    EndOfQf(FragId),
    /// A wrapper's delivery-rate estimate drifted from the planning mark.
    RateChange,
    /// The DQP stalled longer than the configured timeout.
    Timeout,
    /// A fragment's memory reservation failed (§4.2): the plan must change
    /// before the fragment can run.
    MemoryOverflow {
        /// The fragment that could not reserve.
        frag: FragId,
        /// Bytes it asked for.
        needed: u64,
    },
}

/// Context handed to a policy during a planning phase.
pub struct PlanCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The annotated plan (static estimates).
    pub plan: &'a AnnotatedPlan,
    /// Fragment runtime state; policies may degrade chains through it.
    pub frags: &'a mut FragTable,
    /// The simulated world (rate estimates, memory, disk, hash tables).
    pub world: &'a mut World,
    /// The engine's observer stack: plan mutations (degrade, split, MF
    /// cancellation) are reported through it as structured events.
    pub obs: &'a mut dyn EngineObserver,
    /// The driver's [`crate::Driver::cpu_service`]: what CPU work begun at
    /// an instant and priced by the model is charged.
    pub cpu_service: &'a dyn Fn(SimTime, SimDuration) -> SimDuration,
}

impl<'a> PlanCtx<'a> {
    /// Degrade chain `pc` (§4.4), allocating its temp relation. Returns
    /// `(mf, cf)`.
    pub fn degrade(&mut self, pc: PcId, include_scan: bool) -> (FragId, FragId) {
        let temp = self.world.alloc_temp();
        let (mf, cf) = self.frags.degrade(pc, include_scan, temp);
        self.obs
            .on_event(self.now, &EngineEvent::Degraded { pc, mf, cf, temp });
        (mf, cf)
    }

    /// Split fragment `fid` at operator boundary `k` (§4.2's memory-
    /// overflow technique), allocating the intermediate temp relation.
    /// Returns `(head, tail)`.
    pub fn split(&mut self, fid: FragId, k: usize) -> (FragId, FragId) {
        let temp = self.world.alloc_temp();
        let (head, tail) = self.frags.split_fragment(fid, k, temp);
        self.obs.on_event(
            self.now,
            &EngineEvent::Split {
                from: fid,
                head,
                tail,
                temp,
            },
        );
        (head, tail)
    }

    /// Stop an MF early because its chain became schedulable: the temp is
    /// sealed, the MF retires, and the CF will continue from the wrapper
    /// queue once it drains the temp.
    ///
    /// # Panics
    /// Panics if `mf` is not an active MF.
    pub fn cancel_mf(&mut self, mf: FragId) {
        use crate::frag::{FragKind, FragSink, FragSource};
        let (pc, rel, temp) = {
            let f = self.frags.get(mf);
            assert_eq!(f.kind, FragKind::Mf, "cancel_mf on non-MF");
            assert_eq!(f.status, FragStatus::Active, "cancel_mf on dead MF");
            let FragSource::Queue(rel) = f.source else {
                unreachable!("MF sources are queues")
            };
            let FragSink::Mat(temp) = f.sink else {
                unreachable!("MF sinks are temps")
            };
            (f.pc, rel, temp)
        };
        // Seal the temp (flushes the buffered tail) and charge the CPU.
        let charge = {
            let now = self.now;
            let world = &mut *self.world;
            world.temps[temp.0 as usize].seal(now, &mut world.disk)
        };
        if charge.cpu_instr > 0 {
            let t = self.world.params.instr_time(charge.cpu_instr);
            let service = (self.cpu_service)(self.now, t);
            self.world.cpu.acquire(self.now, service);
        }
        self.frags.get_mut(mf).status = FragStatus::Done;
        // Hand the live queue over to the CF; once the temp drains, the
        // engine prepends the MF's operators (with their accumulator
        // state) so queue tuples still pass the scan predicate.
        let cf = self
            .frags
            .live_body(pc)
            .expect("degraded chain has a live CF");
        if let FragSource::Temp {
            ref mut then_queue, ..
        } = self.frags.get_mut(cf).source
        {
            *then_queue = Some(rel);
        }
        self.frags.get_mut(cf).handoff_from = Some(mf);
        self.obs
            .on_event(self.now, &EngineEvent::MatCancelled { mf, cf });
    }

    /// Estimated tuples chain `p` still has to receive (`n_p` of §4.3,
    /// updated with what already arrived).
    pub fn remaining_tuples(&self, p: PcId) -> u64 {
        use dqs_plan::ChainSource;
        match self.plan.chains.chain(p).source {
            ChainSource::Wrapper(rel) => {
                let est = self.plan.info(p).source_card as u64;
                est.saturating_sub(self.world.cm.received(rel))
            }
            ChainSource::Temp(_) => self.plan.info(p).source_card as u64,
        }
    }

    /// True when every hash table chain `p` probes is complete — the
    /// runtime form of C-schedulability (§4.1: all of `ancestors(p)`
    /// terminated).
    pub fn c_schedulable(&self, p: PcId) -> bool {
        self.plan
            .chains
            .chain(p)
            .probes()
            .iter()
            .all(|&ht| self.world.arena.get(ht).is_complete())
    }
}

/// A scheduling policy: SEQ, MA, or the paper's dynamic scheduler.
pub trait Policy {
    /// Strategy name for reporting.
    fn name(&self) -> &'static str;

    /// Compute a scheduling plan: active fragment ids in priority order.
    /// Fragments not listed are not eligible to run this phase.
    fn plan(&mut self, ctx: &mut PlanCtx<'_>, why: Interrupt) -> Vec<FragId>;
}
