//! The communication manager (CM).
//!
//! §3.1: "The Communication Manager implements the communicating component
//! of the system. It receives data from the wrappers and makes it available
//! to the DQP ... by means of communication queues. Moreover, the CM is
//! responsible for computing an estimate of the delivery rate and signaling
//! any significant changes to the DQP."
//!
//! The CM is a passive state machine: the engine's event loop calls
//! [`CommManager::start`] once, [`CommManager::on_arrival`] per tuple-arrival
//! event, and [`CommManager::after_consume`] after the DQP drains a queue.
//! Returned timestamps tell the engine what to schedule next, keeping this
//! crate independent of the engine's event enum.
//!
//! Accounting: one message per page of tuples (8 KB / 40 B = 204), charged
//! `instr_per_message` (200 000 instructions, Table 1) of mediator CPU at
//! the first tuple of each message — so heavy delivery traffic genuinely
//! competes with query processing for the single CPU.

use dqs_relop::{RelId, Tuple};
use dqs_sim::{Ewma, SimDuration, SimParams, SimTime};

use crate::queue::TupleQueue;
use crate::source::{BoxSource, TupleSource};

/// Default EWMA weight for delivery-rate estimation.
pub const DEFAULT_RATE_ALPHA: f64 = 0.05;
/// Default relative deviation of the rate estimate from its last mark that
/// triggers a `RateChange` interruption.
pub const DEFAULT_RATE_CHANGE_THRESHOLD: f64 = 0.5;
/// Observations before a wrapper's first rate estimate is considered
/// stable enough to plan with (triggers the initial `RateChange`).
pub const RATE_WARMUP_OBSERVATIONS: u64 = 8;
/// Default communication queue capacity in tuples (the flow-control
/// window): four pages' worth.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4 * 204;

/// What the engine must do after an arrival was processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalOutcome {
    /// Mediator CPU instructions to charge (message receive costs).
    pub cpu_instr: u64,
    /// Schedule the wrapper's next arrival at this time (`None`: wrapper is
    /// exhausted or was suspended by the window protocol).
    pub next_arrival: Option<SimTime>,
    /// The wrapper delivered its last tuple.
    pub finished: bool,
    /// The delivery-rate estimate deviates significantly from the value the
    /// scheduler last planned with — raise a `RateChange` interruption.
    pub rate_change: bool,
}

/// Per-wrapper bookkeeping.
#[derive(Debug)]
struct Port {
    wrapper: BoxSource,
    queue: TupleQueue,
    rate: Ewma,
    last_arrival: Option<SimTime>,
    /// Rate estimate (ns) the scheduler last planned with.
    mark: Option<f64>,
    /// Suppress further RateChange signals until the next mark.
    rate_signaled: bool,
    /// The next arrival after a resume must not feed the rate estimator
    /// (the gap measures our consumption, not the wrapper's speed).
    skip_next_observation: bool,
    /// The window protocol paused delivery: the queue filled, and no
    /// further arrival is scheduled until [`CommManager::after_consume`]
    /// finds room again.
    suspended: bool,
}

/// The communication manager: wrappers, queues, and rate estimation.
#[derive(Debug)]
pub struct CommManager {
    ports: Vec<Port>,
    params: SimParams,
    rate_change_threshold: f64,
}

impl CommManager {
    /// Build a CM over `wrappers` with per-queue `capacity` tuples.
    pub fn new<S: TupleSource + Send + 'static>(
        wrappers: Vec<S>,
        capacity: usize,
        params: SimParams,
    ) -> Self {
        Self::from_boxed(
            wrappers
                .into_iter()
                .map(|w| Box::new(w) as BoxSource)
                .collect(),
            capacity,
            params,
        )
    }

    /// Build a CM over already type-erased sources (what a driver hands
    /// over when the source kind is chosen at runtime).
    pub fn from_boxed(wrappers: Vec<BoxSource>, capacity: usize, params: SimParams) -> Self {
        let ports = wrappers
            .into_iter()
            .map(|w| Port {
                wrapper: w,
                queue: TupleQueue::new(capacity),
                rate: Ewma::new(DEFAULT_RATE_ALPHA),
                last_arrival: None,
                mark: None,
                rate_signaled: false,
                skip_next_observation: false,
                suspended: false,
            })
            .collect();
        CommManager {
            ports,
            params,
            rate_change_threshold: DEFAULT_RATE_CHANGE_THRESHOLD,
        }
    }

    /// Override the RateChange sensitivity.
    pub fn set_rate_change_threshold(&mut self, t: f64) {
        assert!(t > 0.0, "threshold must be positive");
        self.rate_change_threshold = t;
    }

    fn port(&self, rel: RelId) -> &Port {
        &self.ports[rel.0 as usize]
    }

    fn port_mut(&mut self, rel: RelId) -> &mut Port {
        &mut self.ports[rel.0 as usize]
    }

    /// Number of wrappers.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// True when no wrappers exist.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Kick off execution: sends each wrapper its sub-query and returns the
    /// first arrival times, plus the CPU instructions for the sub-query
    /// messages (one send per wrapper). Push-paced sources start producing
    /// here and contribute no pre-scheduled arrival.
    pub fn start(&mut self, now: SimTime) -> (Vec<(RelId, SimTime)>, u64) {
        let mut arrivals = Vec::new();
        for (i, port) in self.ports.iter_mut().enumerate() {
            port.wrapper.start();
            if let Some(gap) = port.wrapper.next_gap() {
                arrivals.push((RelId(i as u16), now + gap));
            }
        }
        let cpu = self.params.instr_per_message * self.ports.len() as u64;
        (arrivals, cpu)
    }

    /// Process one tuple arrival from `rel` at time `now`.
    pub fn on_arrival(&mut self, rel: RelId, now: SimTime) -> ArrivalOutcome {
        let tuples_per_message = self.params.tuples_per_message();
        let instr_per_message = self.params.instr_per_message;
        let threshold = self.rate_change_threshold;
        let port = self.port_mut(rel);

        // Rate estimation on the inter-arrival gap.
        let mut rate_change = false;
        if let Some(prev) = port.last_arrival {
            if port.skip_next_observation {
                port.skip_next_observation = false;
            } else {
                port.rate.observe(now - prev);
            }
            match (port.mark, port.rate.value()) {
                (Some(mark), Some(est)) if !port.rate_signaled => {
                    let dev = ((est.as_nanos() as f64) - mark).abs() / mark.max(1.0);
                    if dev > threshold {
                        rate_change = true;
                        port.rate_signaled = true;
                    }
                }
                // First usable estimate: tell the scheduler, which has been
                // planning blind for this wrapper so far.
                (None, Some(_))
                    if !port.rate_signaled
                        && port.rate.observations() >= RATE_WARMUP_OBSERVATIONS =>
                {
                    rate_change = true;
                    port.rate_signaled = true;
                }
                _ => {}
            }
        }
        port.last_arrival = Some(now);

        // Deliver into the queue.
        let t = port.wrapper.emit();
        port.queue.push(t);

        // Message accounting: first tuple of each page-sized message.
        let received = port.wrapper.produced();
        let mut cpu_instr = 0;
        if (received - 1) % tuples_per_message == 0 {
            cpu_instr += instr_per_message;
        }

        let finished = port.wrapper.exhausted();
        let next_arrival = if finished {
            None
        } else if port.queue.is_full() {
            // Window protocol: suspend the wrapper.
            port.suspended = true;
            None
        } else {
            port.wrapper.next_gap().map(|g| now + g)
        };

        ArrivalOutcome {
            cpu_instr,
            next_arrival,
            finished,
            rate_change,
        }
    }

    /// Dequeue up to `max` tuples of `rel` for processing.
    pub fn consume(&mut self, rel: RelId, max: usize) -> Vec<Tuple> {
        let port = self.port_mut(rel);
        let batch = port.queue.pop_batch(max);
        port.queue.note_dequeued(batch.len() as u64);
        batch
    }

    /// Dequeue up to `max` tuples of `rel` into `out` (appended),
    /// returning how many were moved — the allocation-free batch path.
    pub fn consume_into(&mut self, rel: RelId, max: usize, out: &mut Vec<Tuple>) -> usize {
        let port = self.port_mut(rel);
        let n = port.queue.pop_batch_into(max, out);
        port.queue.note_dequeued(n as u64);
        n
    }

    /// After consumption, resume a suspended wrapper if the queue has room.
    /// Returns the resumed wrapper's next arrival time to schedule.
    pub fn after_consume(&mut self, rel: RelId, now: SimTime) -> Option<SimTime> {
        let port = self.port_mut(rel);
        if port.suspended && !port.queue.is_full() && !port.wrapper.exhausted() {
            port.suspended = false;
            port.skip_next_observation = true;
            port.wrapper.next_gap().map(|g| now + g)
        } else {
            None
        }
    }

    /// Tuples currently available in `rel`'s queue.
    pub fn available(&self, rel: RelId) -> usize {
        self.port(rel).queue.len()
    }

    /// True while the window protocol has `rel`'s wrapper suspended (its
    /// queue is full and delivery is paused).
    pub fn is_suspended(&self, rel: RelId) -> bool {
        self.port(rel).suspended
    }

    /// True when the wrapper delivered everything *and* the queue is empty.
    pub fn drained(&self, rel: RelId) -> bool {
        let p = self.port(rel);
        p.wrapper.exhausted() && p.queue.is_empty()
    }

    /// True when the wrapper delivered its last tuple (queue may still hold
    /// data).
    pub fn exhausted(&self, rel: RelId) -> bool {
        self.port(rel).wrapper.exhausted()
    }

    /// Tuples received from `rel` so far.
    pub fn received(&self, rel: RelId) -> u64 {
        self.port(rel).wrapper.produced()
    }

    /// Total tuples `rel` will deliver.
    pub fn total(&self, rel: RelId) -> u64 {
        self.port(rel).wrapper.total()
    }

    /// Live estimate of `rel`'s inter-tuple waiting time `w_p` (§4.3), if
    /// any arrivals were observed.
    pub fn estimated_gap(&self, rel: RelId) -> Option<SimDuration> {
        self.port(rel).rate.value()
    }

    /// Record the current rate estimates as the scheduler's planning
    /// baseline; RateChange fires when estimates drift from these marks.
    pub fn mark_rates(&mut self) {
        for port in &mut self.ports {
            port.mark = port.rate.value().map(|d| d.as_nanos() as f64);
            port.rate_signaled = false;
        }
    }

    /// The simulation parameters in force.
    pub fn params(&self) -> &SimParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::wrapper::Wrapper;
    use dqs_sim::SeedSplitter;

    fn cm(total: u64, capacity: usize, w_us: u64) -> CommManager {
        let w = Wrapper::new(
            RelId(0),
            total,
            DelayModel::Constant {
                w: SimDuration::from_micros(w_us),
            },
            SeedSplitter::new(5).stream("cm-test"),
        );
        CommManager::new(vec![w], capacity, SimParams::default())
    }

    fn drive_until_blocked(cm: &mut CommManager) -> (SimTime, u64) {
        let (arrivals, _) = cm.start(SimTime::ZERO);
        let mut next = arrivals[0].1;
        let mut count = 0;
        loop {
            let out = cm.on_arrival(RelId(0), next);
            count += 1;
            match out.next_arrival {
                Some(t) => next = t,
                None => return (next, count),
            }
        }
    }

    #[test]
    fn start_schedules_first_arrivals_and_charges_subquery_messages() {
        let mut c = cm(10, 100, 20);
        let (arrivals, cpu) = c.start(SimTime::ZERO);
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].1, SimTime::ZERO + SimDuration::from_micros(20));
        assert_eq!(cpu, SimParams::default().instr_per_message);
    }

    #[test]
    fn window_protocol_suspends_at_capacity() {
        let mut c = cm(1_000, 8, 20);
        let (_t, delivered) = drive_until_blocked(&mut c);
        assert_eq!(delivered, 8, "suspends exactly when the queue fills");
        assert_eq!(c.available(RelId(0)), 8);
        assert!(!c.exhausted(RelId(0)));
    }

    #[test]
    fn after_consume_resumes_suspended_wrapper() {
        let mut c = cm(1_000, 8, 20);
        let (t, _) = drive_until_blocked(&mut c);
        // Nothing resumes while the queue stays full.
        assert!(c.after_consume(RelId(0), t).is_none() || !c.port(RelId(0)).queue.is_full());
        let got = c.consume(RelId(0), 4);
        assert_eq!(got.len(), 4);
        let resumed = c.after_consume(RelId(0), t);
        assert_eq!(resumed, Some(t + SimDuration::from_micros(20)));
    }

    #[test]
    fn finished_wrapper_reports_and_drains() {
        let mut c = cm(3, 100, 20);
        let (arrivals, _) = c.start(SimTime::ZERO);
        let mut next = arrivals[0].1;
        let mut finished = false;
        for _ in 0..3 {
            let out = c.on_arrival(RelId(0), next);
            finished = out.finished;
            if let Some(t) = out.next_arrival {
                next = t;
            }
        }
        assert!(finished);
        assert!(c.exhausted(RelId(0)));
        assert!(!c.drained(RelId(0)));
        let _ = c.consume(RelId(0), 10);
        assert!(c.drained(RelId(0)));
    }

    #[test]
    fn message_cpu_charged_once_per_message() {
        let per_msg = SimParams::default().tuples_per_message();
        let mut c = cm(per_msg * 2, usize::MAX >> 1, 1);
        let (arrivals, _) = c.start(SimTime::ZERO);
        let mut next = arrivals[0].1;
        let mut charged = 0u64;
        loop {
            let out = c.on_arrival(RelId(0), next);
            charged += out.cpu_instr;
            match out.next_arrival {
                Some(t) => next = t,
                None => break,
            }
        }
        assert_eq!(charged, 2 * SimParams::default().instr_per_message);
    }

    #[test]
    fn rate_estimate_converges_to_gap() {
        let mut c = cm(500, 1_000, 50);
        drive_until_blocked(&mut c);
        let est = c.estimated_gap(RelId(0)).unwrap();
        let err = (est.as_nanos() as i64 - 50_000).abs();
        assert!(err < 2_000, "estimate {est} should be near 50µs");
    }

    #[test]
    fn rate_change_fires_on_slowdown_once() {
        let w = Wrapper::new(
            RelId(0),
            400,
            DelayModel::Bursty {
                burst: 200,
                within: SimDuration::from_micros(10),
                pause: SimDuration::from_micros(10),
            },
            SeedSplitter::new(5).stream("cm-rate"),
        );
        // Manually drive: 200 fast tuples, mark, then slow tuples.
        let mut c = CommManager::new(vec![w], 100_000, SimParams::default());
        let (arrivals, _) = c.start(SimTime::ZERO);
        let mut next = arrivals[0].1;
        for _ in 0..199 {
            let out = c.on_arrival(RelId(0), next);
            next = out.next_arrival.unwrap();
        }
        c.mark_rates();
        // Now feed arrivals 20x slower than the wrapper pace by lying about
        // time (legal: CM only sees timestamps).
        let mut signals = 0;
        for _ in 0..150 {
            next += SimDuration::from_micros(200);
            let out = c.on_arrival(RelId(0), next);
            if out.rate_change {
                signals += 1;
            }
        }
        assert_eq!(signals, 1, "RateChange fires exactly once per mark");
        // Re-marking re-arms the signal.
        c.mark_rates();
        let mut signals2 = 0;
        for _ in 0..40 {
            next += SimDuration::from_micros(4_000);
            let out = c.on_arrival(RelId(0), next);
            if out.rate_change {
                signals2 += 1;
            }
        }
        assert_eq!(signals2, 1);
    }

    #[test]
    fn consume_respects_fifo_and_counts() {
        let mut c = cm(10, 100, 5);
        let (arrivals, _) = c.start(SimTime::ZERO);
        let mut next = arrivals[0].1;
        for _ in 0..10 {
            if let Some(t) = c.on_arrival(RelId(0), next).next_arrival {
                next = t;
            }
        }
        let batch = c.consume(RelId(0), 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(c.available(RelId(0)), 6);
        assert_eq!(c.received(RelId(0)), 10);
        assert_eq!(c.total(RelId(0)), 10);
    }
}
