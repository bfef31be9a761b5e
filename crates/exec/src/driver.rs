//! The sans-io driver layer.
//!
//! The scheduler core — event loop, DQP batch processing, planning phases
//! — programs against the [`Driver`] trait: a clock, a timer/deadline
//! facility, a stream of [`Signal`]s, and a factory for the tuple sources
//! the communication manager will drive. What "time" and "waiting" mean is
//! the driver's business:
//!
//! * [`SimDriver`] wraps the discrete-event [`EventQueue`]: time is
//!   virtual, a scheduled signal *is* the clock advancing, and runs are
//!   bit-identical to the pre-driver engine by construction (same wrapper
//!   seeding, same `(time, seq)` event ordering).
//! * [`RealTimeDriver`] reads a monotonic [`WallClock`] and keeps
//!   deadlines in a [`TimerHeap`]. In-process sources are the same
//!   pull-paced wrappers the simulation uses — each modelled gap is one
//!   more deadline, so pacing costs no thread — and only remote sources
//!   announce arrivals on the notify channel. Modeled CPU/disk completion
//!   times become real deadlines too: the engine's cost model still
//!   decides *when* a batch is done, so scheduling dynamics (stalls,
//!   timeouts, rate estimation) carry over unchanged.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;

use dqs_relop::RelId;
use dqs_sim::clock::until;
use dqs_sim::{Clock, EventId, EventQueue, SimTime, TimerHeap, TimerId, WallClock};
use dqs_source::{BoxSource, Notice};

use crate::workload::{EngineConfig, Workload};
use crate::world::sim_sources;

/// Longest uninterrupted wait of a [`RealTimeDriver`] between looks at its
/// run's liveness flag — the same slice the mediator's service threads
/// sleep in.
const WAIT_SLICE: std::time::Duration = std::time::Duration::from_millis(50);

/// Events the driver delivers to the engine's loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signal {
    /// A tuple from this wrapper reaches the communication manager.
    Arrival(RelId),
    /// The in-flight DQP batch completes.
    BatchDone,
    /// A temp relation's prefetched pages became resident.
    TempReady,
    /// The stall timer expired (generation guards staleness).
    Timeout(u64),
    /// Anything else a remote source reports — a terminal fault, a replica
    /// pin, a failover, a degraded endpoint — as the source wrote it. Boxed
    /// because these are a handful per session while every queued arrival
    /// and timer pays for the size of a `Signal`.
    Source(Box<Notice>),
    /// Whoever asked for this run is gone: stop now.
    Cancelled,
}

impl From<Notice> for Signal {
    fn from(notice: Notice) -> Signal {
        match notice {
            Notice::Arrival(rel) => Signal::Arrival(rel),
            other => Signal::Source(Box::new(other)),
        }
    }
}

/// The substrate a scheduler run executes on: time, timers, and sources.
pub trait Driver {
    /// Handle to a scheduled signal, for cancellation.
    type Timer: Copy + std::fmt::Debug;

    /// Create the tuple sources for `workload` (called once, before the
    /// world is built).
    fn sources(&mut self, workload: &Workload) -> Vec<BoxSource>;

    /// Capacity of the communication-manager queues. Simulation enforces
    /// the window protocol here; real-time drivers move that backpressure
    /// into their transport and return an effectively unbounded capacity.
    fn queue_capacity(&self, cfg: &EngineConfig) -> usize;

    /// The current time.
    fn now(&self) -> SimTime;

    /// Schedule `signal` for time `at` (which a real-time driver may treat
    /// as already due if it lies in the past).
    fn schedule(&mut self, at: SimTime, signal: Signal) -> Self::Timer;

    /// Cancel a scheduled signal; `false` if it already fired.
    fn cancel(&mut self, timer: Self::Timer) -> bool;

    /// Deliver the next signal, advancing (or waiting for) time. `None`
    /// means no signal can ever arrive again.
    fn next(&mut self) -> Option<(SimTime, Signal)>;

    /// The worker pool morsel-parallel batches should execute on, when the
    /// driver brings its own (a mediator-owned [`RealTimeDriver`] shares one
    /// pool across every session). The default — and [`SimDriver`]'s
    /// behavior — is `None`: the engine then resolves
    /// [`crate::pool::WorkerPool::global`] on first use, and only if its
    /// config asks for `workers > 1` at all.
    fn exec_pool(&mut self) -> Option<Arc<crate::pool::WorkerPool>> {
        None
    }
}

/// The discrete-event driver: virtual time from the [`EventQueue`].
#[derive(Debug, Default)]
pub struct SimDriver {
    events: EventQueue<Signal>,
}

impl SimDriver {
    /// A fresh driver at virtual time zero.
    pub fn new() -> SimDriver {
        SimDriver {
            events: EventQueue::new(),
        }
    }
}

impl Driver for SimDriver {
    type Timer = EventId;

    fn sources(&mut self, workload: &Workload) -> Vec<BoxSource> {
        sim_sources(workload)
    }

    fn queue_capacity(&self, cfg: &EngineConfig) -> usize {
        cfg.queue_capacity
    }

    fn now(&self) -> SimTime {
        self.events.now()
    }

    fn schedule(&mut self, at: SimTime, signal: Signal) -> EventId {
        self.events.schedule(at, signal)
    }

    fn cancel(&mut self, timer: EventId) -> bool {
        self.events.cancel(timer)
    }

    fn next(&mut self) -> Option<(SimTime, Signal)> {
        self.events.pop()
    }
}

/// The wall-clock driver: real sleeps, real deadlines.
#[derive(Debug)]
pub struct RealTimeDriver {
    clock: WallClock,
    timers: TimerHeap<Signal>,
    notify_rx: Receiver<Notice>,
    /// Held only until [`Driver::sources`]: remote sources took their
    /// clones at construction, and dropping it lets `notify_rx` disconnect
    /// when every reader thread finishes.
    notify_tx: Option<Sender<Notice>>,
    /// Sources built ahead of the run (remote wrappers a mediator
    /// connected eagerly); [`Driver::sources`] returns these when present
    /// instead of the workload's in-process wrappers.
    prebuilt: Option<Vec<BoxSource>>,
    /// Pool handed to the engine for morsel-parallel batches (shared across
    /// sessions when the mediator owns it).
    pool: Option<Arc<crate::pool::WorkerPool>>,
    /// Cleared when the run's client goes away ([`RealTimeDriver::with_alive`]).
    alive: Arc<AtomicBool>,
}

impl RealTimeDriver {
    /// A driver whose time origin is this instant.
    pub fn new() -> RealTimeDriver {
        let (notify_tx, notify_rx) = channel();
        RealTimeDriver {
            clock: WallClock::new(),
            timers: TimerHeap::new(),
            notify_rx,
            notify_tx: Some(notify_tx),
            prebuilt: None,
            pool: None,
            alive: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Attach the worker pool this driver hands to its engine (see
    /// [`Driver::exec_pool`]).
    pub fn with_pool(mut self, pool: Arc<crate::pool::WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Tie the run to `alive` (a connection's liveness flag): once it
    /// reads false, the next signal delivered is [`Signal::Cancelled`].
    pub fn with_alive(mut self, alive: Arc<AtomicBool>) -> Self {
        self.alive = alive;
        self
    }

    /// A driver whose sources are built by `connect` — which receives the
    /// driver's notify sender to hand to each remote source — instead of
    /// paced in-process from the workload catalog. Connection errors surface
    /// here, before any run starts, so a mediator can reject the session
    /// rather than abort it.
    pub fn try_with_sources<E>(
        connect: impl FnOnce(&Sender<Notice>) -> Result<Vec<BoxSource>, E>,
    ) -> Result<RealTimeDriver, E> {
        let mut driver = RealTimeDriver::new();
        let notify = driver.notify_tx.as_ref().expect("fresh driver has sender");
        driver.prebuilt = Some(connect(notify)?);
        Ok(driver)
    }
}

impl Default for RealTimeDriver {
    fn default() -> Self {
        RealTimeDriver::new()
    }
}

impl Driver for RealTimeDriver {
    type Timer = TimerId;

    fn sources(&mut self, workload: &Workload) -> Vec<BoxSource> {
        // Only prebuilt remote sources post notices, and they already hold
        // their sender clones.
        self.notify_tx
            .take()
            .expect("RealTimeDriver::sources called twice");
        self.prebuilt
            .take()
            .unwrap_or_else(|| sim_sources(workload))
    }

    fn queue_capacity(&self, _cfg: &EngineConfig) -> usize {
        // The window protocol lives in the remote sources' bounded data
        // channels; the CM queue must never overflow-panic on a burst of
        // notifies.
        usize::MAX >> 1
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn schedule(&mut self, at: SimTime, signal: Signal) -> TimerId {
        self.timers.arm(at, signal)
    }

    fn cancel(&mut self, timer: TimerId) -> bool {
        self.timers.cancel(timer)
    }

    fn next(&mut self) -> Option<(SimTime, Signal)> {
        loop {
            let now = self.clock.now();
            if !self.alive.load(Ordering::SeqCst) {
                return Some((now, Signal::Cancelled));
            }
            if let Some((_, s)) = self.timers.pop_due(now) {
                return Some((now, s));
            }
            // Wait for an arrival, but no longer than the next deadline nor
            // one slice, so a departed client is noticed within a slice.
            let wait = self
                .timers
                .next_deadline()
                .map_or(WAIT_SLICE, |deadline| until(now, deadline).min(WAIT_SLICE));
            match self.notify_rx.recv_timeout(wait) {
                Ok(notice) => return Some((self.clock.now(), notice.into())),
                Err(RecvTimeoutError::Timeout) => {}
                // No remote source left to announce anything: sleep out the
                // slice, unless nothing is scheduled either — then nothing
                // can ever happen again.
                Err(RecvTimeoutError::Disconnected) => match self.timers.next_deadline() {
                    Some(_) => std::thread::sleep(wait),
                    None => return None,
                },
            }
        }
    }

    fn exec_pool(&mut self) -> Option<Arc<crate::pool::WorkerPool>> {
        self.pool.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_driver_delivers_in_time_order() {
        let mut d = SimDriver::new();
        d.schedule(SimTime::from_nanos(30), Signal::BatchDone);
        d.schedule(SimTime::from_nanos(10), Signal::TempReady);
        assert_eq!(d.next(), Some((SimTime::from_nanos(10), Signal::TempReady)));
        assert_eq!(d.now(), SimTime::from_nanos(10));
        assert_eq!(d.next(), Some((SimTime::from_nanos(30), Signal::BatchDone)));
        assert_eq!(d.next(), None);
    }

    #[test]
    fn sim_driver_cancellation() {
        let mut d = SimDriver::new();
        let t = d.schedule(SimTime::from_nanos(5), Signal::Timeout(1));
        assert!(d.cancel(t));
        assert_eq!(d.next(), None);
    }

    #[test]
    fn real_time_driver_fires_deadlines_without_sources() {
        let mut d = RealTimeDriver::new();
        d.schedule(d.now(), Signal::BatchDone);
        let (at, s) = d.next().expect("due timer fires");
        assert_eq!(s, Signal::BatchDone);
        assert!(at >= SimTime::ZERO);
    }

    #[test]
    fn real_time_driver_times_out_into_timer() {
        let mut d = RealTimeDriver::new();
        // Keep a sender alive so the channel stays connected (as wrappers
        // would); the timer must still fire at its deadline.
        let _tx = d.notify_tx.clone();
        d.schedule(
            d.now() + dqs_sim::SimDuration::from_micros(200),
            Signal::Timeout(7),
        );
        let (_, s) = d.next().expect("deadline fires despite no arrivals");
        assert_eq!(s, Signal::Timeout(7));
    }

    #[test]
    fn real_time_driver_returns_none_when_nothing_can_happen() {
        let mut d = RealTimeDriver::new();
        d.notify_tx = None; // as after sources() + all readers exiting
        assert_eq!(d.next(), None);
    }

    /// A cleared liveness flag pre-empts even a signal that is already due.
    #[test]
    fn real_time_driver_cancels_once_alive_clears() {
        let alive = Arc::new(AtomicBool::new(true));
        let mut d = RealTimeDriver::new().with_alive(Arc::clone(&alive));
        d.schedule(d.now(), Signal::BatchDone);
        d.schedule(d.now(), Signal::TempReady);
        assert_eq!(d.next().expect("due timer fires").1, Signal::BatchDone);
        alive.store(false, Ordering::SeqCst);
        assert_eq!(d.next().expect("cancel delivered").1, Signal::Cancelled);
    }

    /// In-process wall-clock sources are the simulation's pull-paced
    /// wrappers: their gaps become timer deadlines, nothing is spawned,
    /// and nobody is left holding a notice sender.
    #[test]
    fn real_time_driver_paces_in_process_sources_on_its_timers() {
        let (workload, _) = Workload::fig5();
        let mut d = RealTimeDriver::new();
        let mut sources = d.sources(&workload);
        assert_eq!(sources.len(), workload.catalog.iter().count());
        for s in &mut sources {
            assert!(s.next_gap().is_some(), "{:?} is pull-paced", s.rel());
        }
        assert_eq!(
            d.notify_rx.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Disconnected),
            "no notice sender outlives sources()"
        );
    }

    /// A fault rides its signal whole, so one sent right behind another
    /// notice still reaches the engine with its error — nothing is parked
    /// in a one-slot stash for the second to overwrite.
    #[test]
    fn fault_notice_becomes_source_fault_signal() {
        use dqs_source::SourceError;
        let mut d = RealTimeDriver::new();
        let tx = d.notify_tx.clone().unwrap();
        let failover = Notice::Failover {
            rel: RelId(2),
            from: "a:1".into(),
            to: "b:2".into(),
            resume_from: 512,
        };
        let fault = Notice::Fault {
            rel: RelId(4),
            error: SourceError::Timeout { millis: 50 },
        };
        tx.send(failover.clone()).unwrap();
        tx.send(fault.clone()).unwrap();
        let mut next = || d.next().expect("notice delivered").1;
        assert_eq!(next(), Signal::Source(Box::new(failover)));
        assert_eq!(next(), Signal::Source(Box::new(fault)));
    }

    #[test]
    fn replica_notices_become_replica_event_signals() {
        let mut d = RealTimeDriver::new();
        let tx = d.notify_tx.clone().unwrap();
        let pinned = Notice::ReplicaPinned {
            rel: RelId(2),
            endpoint: "a:1".into(),
        };
        let degraded = Notice::ReplicaDegraded {
            rel: RelId(2),
            endpoint: "a:1".into(),
            error: dqs_source::SourceError::Disconnected {
                detail: "reset".into(),
            },
        };
        for notice in [&pinned, &degraded, &Notice::Arrival(RelId(2))] {
            tx.send(notice.clone()).unwrap();
        }
        let mut next = || d.next().expect("notice delivered").1;
        assert_eq!(next(), Signal::Source(Box::new(pinned)));
        assert_eq!(next(), Signal::Source(Box::new(degraded)));
        // Only an arrival is unwrapped: it is what every queued timer is.
        assert_eq!(next(), Signal::Arrival(RelId(2)));
    }
}
