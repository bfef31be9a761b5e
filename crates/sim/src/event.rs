//! The discrete-event core: a time-ordered queue of events with a virtual
//! clock and deterministic FIFO tie-breaking. Events are never cancelled:
//! an embedding engine that stops caring about one recognises it by its
//! payload when it fires.

use crate::clock::TimerHeap;
use crate::time::SimTime;

/// A deterministic discrete-event queue.
///
/// `E` is the event payload type chosen by the embedding engine. The queue
/// owns the virtual clock: [`EventQueue::pop`] advances it to the fired
/// event's timestamp, and scheduling in the past is a logic error.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: TimerHeap<E>,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: TimerHeap::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current virtual time: an event in the
    /// past indicates a causality bug in the embedding engine.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        self.heap.arm(at, payload);
    }

    /// Fire the next event: advances the clock and returns the payload.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, payload) = self.heap.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.schedule(t(10), ());
        q.schedule(t(25), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(10));
        q.pop();
        assert_eq!(q.now(), t(10));
        q.pop();
        assert_eq!(q.now(), t(25));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }
}
