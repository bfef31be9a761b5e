//! The discrete-event core: a time-ordered queue of events with a virtual
//! clock, deterministic FIFO tie-breaking, and O(log n) cancellation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Identifier of a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// Order by (time, seq): events at the same instant fire in scheduling order,
// which makes runs reproducible regardless of heap internals.
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

/// The `(time, seq)` binary heap with tombstone cancellation that both
/// [`EventQueue`] and [`crate::TimerHeap`] wrap. It has no notion of
/// "now": whether a deadline may lie in the past is the wrapper's rule.
#[derive(Debug)]
pub(crate) struct DeadlineHeap<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Seqs pushed and neither popped nor cancelled yet.
    live: HashSet<u64>,
    /// Seqs cancelled but still physically present in the heap.
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl<E> DeadlineHeap<E> {
    pub(crate) fn new() -> Self {
        DeadlineHeap {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    /// Entries pushed and neither popped nor cancelled.
    pub(crate) fn pending(&self) -> usize {
        self.live.len()
    }

    /// Add an entry; the returned seq cancels it.
    pub(crate) fn push(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Reverse(Scheduled { at, seq, payload }));
        seq
    }

    /// True if `seq` was still pending (it will silently not surface);
    /// false if it was already popped or cancelled.
    pub(crate) fn cancel(&mut self, seq: u64) -> bool {
        if !self.live.remove(&seq) {
            return false;
        }
        // We cannot remove from the heap directly; tombstone instead. The
        // tombstone is dropped when the entry surfaces.
        self.cancelled.insert(seq);
        true
    }

    /// Time of the earliest pending entry.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Remove the earliest pending entry.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let Reverse(s) = self.heap.pop()?;
        self.live.remove(&s.seq);
        Some((s.at, s.payload))
    }

    fn skip_cancelled(&mut self) {
        while let Some(Reverse(s)) = self.heap.peek() {
            if self.cancelled.remove(&s.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Tombstones not yet dropped (zero once the heap is drained).
    #[cfg(test)]
    pub(crate) fn tombstones(&self) -> usize {
        self.cancelled.len()
    }
}

/// A deterministic discrete-event queue.
///
/// `E` is the event payload type chosen by the embedding engine. The queue
/// owns the virtual clock: [`EventQueue::pop`] advances it to the fired
/// event's timestamp, and scheduling in the past is a logic error.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: DeadlineHeap<E>,
    now: SimTime,
    fired: u64,
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
            heap: DeadlineHeap::new(),
            now: SimTime::ZERO,
            fired: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.heap.pending()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current virtual time: an event in the
    /// past indicates a causality bug in the embedding engine.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        EventId(self.heap.push(at, payload))
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending (it will silently not fire); false if it already fired
    /// or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.heap.cancel(id.0)
    }

    /// Timestamp of the next event to fire, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek_time()
    }

    /// Fire the next event: advances the clock and returns the payload.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, payload) = self.heap.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.fired += 1;
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

    #[test]
    fn cancellation_prevents_firing() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pending(), 1);
        assert_eq!(q.pop().map(|(_, p)| p), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.pop();
        // The id was consumed by firing; cancel must report false and must
        // not leave a tombstone behind.
        assert!(!q.cancel(a));
        assert_eq!(q.heap.tombstones(), 0);
        q.schedule(t(20), "b");
        assert_eq!(q.pop().map(|(_, p)| p), Some("b"));
    }

    #[test]
    fn draining_drops_every_tombstone() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(i), i)).collect();
        for id in ids.iter().step_by(2) {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.heap.tombstones(), 5);
        let fired: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(fired, vec![1, 3, 5, 7, 9]);
        assert_eq!(q.heap.tombstones(), 0);
        assert!(
            ids.iter().all(|id| !q.cancel(*id)),
            "all fired or cancelled"
        );
        assert_eq!(q.heap.tombstones(), 0);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
    }
}
