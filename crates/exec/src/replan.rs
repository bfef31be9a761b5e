//! Planning phases and interrupt handling (the DQS side of the loop).
//!
//! §3.1: the DQS recomputes the scheduling plan at every interruption
//! event; the DQO, DQS and DQP interact synchronously — they never run
//! concurrently — so a replanning request raised mid-batch is deferred to
//! the batch boundary.

use dqs_relop::RelId;

use crate::driver::Driver;
use crate::error::RunError;
use crate::frag::FragStatus;
use crate::observe::{EngineEvent, EngineObserver};
use crate::policy::{Interrupt, PlanCtx, Policy};
use crate::runtime::Engine;

impl<P: Policy, O: EngineObserver, D: Driver> Engine<P, O, D> {
    /// Run a planning phase now: hand the fragment table, world and
    /// observer to the policy and install the scheduling plan it returns.
    pub(crate) fn replan(&mut self, why: Interrupt) {
        let now = self.driver.now();
        self.world.cm.mark_rates();
        let driver = &self.driver;
        let mut ctx = PlanCtx {
            now,
            plan: &self.plan,
            frags: &mut self.frags,
            world: &mut self.world,
            obs: &mut self.obs,
            cpu_service: &|started, modelled| driver.cpu_service(started, modelled),
        };
        let sp = self.policy.plan(&mut ctx, why);
        for &f in &sp {
            debug_assert_eq!(
                self.frags.get(f).status,
                FragStatus::Active,
                "policy scheduled a dead fragment"
            );
        }
        self.emit(now, EngineEvent::PlanComputed { why, sp: &sp });
        self.sp = sp;
    }

    /// Request a planning phase; deferred to batch completion if the DQP is
    /// mid-batch (the DQS and DQP never run concurrently, §3.1).
    pub(crate) fn note_replan(&mut self, why: Interrupt) {
        if self.inflight.is_some() {
            self.pending_replan.get_or_insert(why);
        } else {
            self.replan(why);
        }
    }

    /// Expiry of the live stall timer (the signal loop drops stale ones):
    /// the DQP has been stalled for `timeout` with no batch in between, so
    /// raise `TimeOut`. If the new plan still runs nothing while no batch
    /// is on the CPU, no temp page is on its way from disk and every
    /// wrapper is done or suspended by the window protocol, only this timer
    /// could ever fire again: the run is deadlocked.
    pub(crate) fn on_timeout(&mut self) {
        self.timeout_armed = false;
        let now = self.driver.now();
        self.emit(now, EngineEvent::InterruptRaised(Interrupt::Timeout));
        self.replan(Interrupt::Timeout);
        self.try_dispatch();
        let cm = &self.world.cm;
        let idle = |i| cm.exhausted(RelId(i)) || cm.is_suspended(RelId(i));
        if self.inflight.is_none()
            && self.output_done_at.is_none()
            && self.aborted.is_none()
            && !self.world.temps.iter().any(|t| t.reading(now))
            && (0..cm.len() as u16).all(idle)
        {
            self.aborted = Some(RunError::Deadlock {
                sp: self.sp.clone(),
            });
        }
    }
}
