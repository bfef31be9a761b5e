//! A temp relation's read-ahead window wakes the engine once.
//!
//! Every `Signal::TempReady` the engine schedules must stand for a window
//! that was just put on the device. The disk is FIFO, so distinct windows
//! finish at distinct instants: two wake-ups for one instant mean one
//! window was announced twice. A recording driver wraps `SimDriver` and
//! logs the time of every `TempReady` it is asked to schedule, over the
//! parity suite's workloads under the two strategies that read temps.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use dqs_bench::fingerprint::parity_workloads;
use dqs_exec::{Driver, EngineConfig, NullObserver, Signal, SimDriver, Workload};
use dqs_sim::SimTime;
use dqs_source::BoxSource;

/// `SimDriver`, plus a shared log of every instant a `TempReady` was
/// scheduled for.
struct Recording {
    inner: SimDriver,
    temp_ready: Rc<RefCell<Vec<SimTime>>>,
}

impl Driver for Recording {
    fn sources(&mut self, workload: &Workload) -> Vec<BoxSource> {
        self.inner.sources(workload)
    }

    fn queue_capacity(&self, cfg: &EngineConfig) -> usize {
        self.inner.queue_capacity(cfg)
    }

    fn now(&self) -> SimTime {
        Driver::now(&self.inner)
    }

    fn schedule(&mut self, at: SimTime, signal: Signal) {
        if signal == Signal::TempReady {
            self.temp_ready.borrow_mut().push(at);
        }
        self.inner.schedule(at, signal);
    }

    fn next(&mut self) -> Option<(SimTime, Signal)> {
        self.inner.next()
    }
}

#[test]
fn each_readahead_window_is_scheduled_once() {
    for (name, w) in parity_workloads() {
        for strategy in ["ma", "dse"] {
            let temp_ready = Rc::new(RefCell::new(Vec::new()));
            let driver = Recording {
                inner: SimDriver::new(),
                temp_ready: Rc::clone(&temp_ready),
            };
            dqs_core::run_named(strategy, &w, NullObserver, driver)
                .expect("listed strategy")
                .expect("run completes");
            let log = temp_ready.borrow();
            let distinct: HashSet<SimTime> = log.iter().copied().collect();
            assert_eq!(
                log.len(),
                distinct.len(),
                "{name} {strategy}: TempReady signals vs distinct instants"
            );
        }
    }
}
