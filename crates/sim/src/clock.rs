//! Clocks and timer scheduling for sans-io drivers.
//!
//! The scheduler core is written against *some* notion of "now" plus a set
//! of pending deadlines. In simulation, both come from the event queue
//! ([`crate::EventQueue`] advances virtual time as it pops, over a
//! [`TimerHeap`]). A real-time driver instead reads a [`WallClock`]
//! (monotonic `std::time::Instant` mapped onto [`SimTime`] nanoseconds) and
//! keeps its deadlines in a [`TimerHeap`] of its own, turning them into
//! actual waits. A timer is never cancelled: one its owner no longer cares
//! about fires anyway and is recognised as stale by its payload.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::time::{SimDuration, SimTime};

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

    /// The time elapsed since the origin.
    pub fn now(&self) -> SimTime {
        let ns = self.start.elapsed().as_nanos();
        SimTime::from_nanos(ns.min(u64::MAX as u128) as u64)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// Order by (time, seq): entries at the same instant surface in arming
// order, which makes runs reproducible regardless of heap internals.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deadline queue ordered by `(time, arming sequence)`. It does **not**
/// own "now": deadlines may lie in the past (they are then simply due
/// immediately), because wall time keeps moving while the scheduler works.
/// [`crate::EventQueue`] adds the virtual clock on top.
#[derive(Debug)]
pub struct TimerHeap<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
}

impl<E> TimerHeap<E> {
    /// An empty heap.
    pub fn new() -> TimerHeap<E> {
        TimerHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Arm a timer for `at` (which may already have passed).
    pub fn arm(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, payload }));
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Pop the earliest pending timer regardless of the current time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.payload))
    }

    /// Pop the earliest pending timer only if its deadline is at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.next_deadline() {
            Some(at) if at <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no timers remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
