//! Clocks and timer scheduling for sans-io drivers.
//!
//! The scheduler core is written against *some* notion of "now" plus a set
//! of pending deadlines. In simulation, both come from the event queue
//! ([`crate::EventQueue`] advances virtual time as it pops). A real-time
//! driver instead reads a [`WallClock`] (monotonic `std::time::Instant`
//! mapped onto [`SimTime`] nanoseconds) and keeps its deadlines in a
//! [`TimerHeap`], turning them into actual waits.

use std::time::Instant;

use crate::event::DeadlineHeap;
use crate::time::{SimDuration, SimTime};

/// A monotonic source of "now" expressed as [`SimTime`].
pub trait Clock {
    /// The current time.
    fn now(&self) -> SimTime;
}

/// Wall-clock time: nanoseconds elapsed since the clock was created,
/// reported through the same [`SimTime`] type the simulator uses so the
/// scheduler core cannot tell the difference.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose origin (`SimTime::ZERO`) is this instant.
    pub fn new() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        let ns = self.start.elapsed().as_nanos();
        SimTime::from_nanos(ns.min(u64::MAX as u128) as u64)
    }
}

/// Handle to a pending timer in a [`TimerHeap`], usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A deadline queue for real-time drivers: like [`crate::EventQueue`] it
/// orders by `(time, insertion sequence)` and supports tombstone
/// cancellation, but it does **not** own "now" — deadlines may lie in the
/// past (they are then simply due immediately), because wall time keeps
/// moving while the scheduler works.
#[derive(Debug)]
pub struct TimerHeap<E> {
    heap: DeadlineHeap<E>,
}

impl<E> TimerHeap<E> {
    /// An empty heap.
    pub fn new() -> TimerHeap<E> {
        TimerHeap {
            heap: DeadlineHeap::new(),
        }
    }

    /// Arm a timer for `at` (which may already have passed).
    pub fn arm(&mut self, at: SimTime, payload: E) -> TimerId {
        TimerId(self.heap.push(at, payload))
    }

    /// Disarm a pending timer. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.heap.cancel(id.0)
    }

    /// The earliest live deadline, if any.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.heap.peek_time()
    }

    /// Pop the earliest live timer regardless of the current time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop()
    }

    /// Pop the earliest live timer only if its deadline is at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.next_deadline() {
            Some(at) if at <= now => self.pop(),
            _ => None,
        }
    }

    /// True when no live timers remain.
    pub fn is_empty(&self) -> bool {
        self.heap.pending() == 0
    }
}

impl<E> Default for TimerHeap<E> {
    fn default() -> Self {
        TimerHeap::new()
    }
}

/// How long from `now` until `deadline`, as a host [`std::time::Duration`]
/// (zero if the deadline already passed) — what a real-time driver sleeps.
pub fn until(now: SimTime, deadline: SimTime) -> std::time::Duration {
    let gap: SimDuration = deadline.saturating_since(now);
    std::time::Duration::from_nanos(gap.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn timers_fire_in_deadline_order_with_fifo_ties() {
        let mut h = TimerHeap::new();
        h.arm(SimTime::from_nanos(20), "b");
        h.arm(SimTime::from_nanos(10), "a");
        h.arm(SimTime::from_nanos(20), "c");
        assert_eq!(h.pop().unwrap().1, "a");
        assert_eq!(h.pop().unwrap().1, "b");
        assert_eq!(h.pop().unwrap().1, "c");
        assert!(h.pop().is_none());
    }

    #[test]
    fn cancellation_tombstones() {
        let mut h = TimerHeap::new();
        let a = h.arm(SimTime::from_nanos(10), "a");
        h.arm(SimTime::from_nanos(20), "b");
        assert!(h.cancel(a));
        assert!(!h.cancel(a), "double cancel reports failure");
        assert_eq!(h.next_deadline(), Some(SimTime::from_nanos(20)));
        assert_eq!(h.pop().unwrap().1, "b");
        assert!(h.is_empty());
    }

    #[test]
    fn cancelling_a_fired_timer_reports_false_and_parks_nothing() {
        let mut h = TimerHeap::new();
        let a = h.arm(SimTime::from_nanos(10), "a");
        assert_eq!(h.pop().unwrap().1, "a");
        assert!(!h.cancel(a), "it already fired");
        assert_eq!(h.heap.tombstones(), 0);
    }

    #[test]
    fn draining_drops_every_tombstone() {
        let mut h = TimerHeap::new();
        let ids: Vec<_> = (0..10).map(|i| h.arm(SimTime::from_nanos(i), i)).collect();
        for id in ids.iter().step_by(2) {
            assert!(h.cancel(*id));
        }
        let fired: Vec<_> = std::iter::from_fn(|| h.pop()).map(|(_, p)| p).collect();
        assert_eq!(fired, vec![1, 3, 5, 7, 9]);
        assert!(
            ids.iter().all(|id| !h.cancel(*id)),
            "all fired or cancelled"
        );
        assert_eq!(h.heap.tombstones(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn past_deadlines_are_due_immediately() {
        let mut h = TimerHeap::new();
        h.arm(SimTime::from_nanos(5), "late");
        let now = SimTime::from_nanos(100);
        assert_eq!(h.pop_due(now).unwrap().1, "late");
        assert!(h.pop_due(now).is_none());
    }

    #[test]
    fn pop_due_respects_future_deadlines() {
        let mut h = TimerHeap::new();
        h.arm(SimTime::from_nanos(50), "later");
        assert!(h.pop_due(SimTime::from_nanos(10)).is_none());
        assert_eq!(h.pop_due(SimTime::from_nanos(50)).unwrap().1, "later");
    }

    #[test]
    fn until_saturates_to_zero() {
        assert_eq!(
            until(SimTime::from_nanos(100), SimTime::from_nanos(40)),
            std::time::Duration::ZERO
        );
        assert_eq!(
            until(SimTime::from_nanos(40), SimTime::from_nanos(100)),
            std::time::Duration::from_nanos(60)
        );
    }
}
