//! Bounded communication queues.
//!
//! §2.1: "the query engine ... creates a queue of a given size in order to
//! buffer the received tuples. ... If the relevant destination queue is
//! full, sub-query processing at the wrapper is suspended as it cannot send
//! more tuples, until tuples are consumed from that queue. This
//! communication protocol is a kind of 'window protocol'."

use std::collections::VecDeque;

use dqs_relop::Tuple;

/// A bounded FIFO of tuples between the communication manager and the
/// query processor.
#[derive(Debug)]
pub struct TupleQueue {
    buf: VecDeque<Tuple>,
    capacity: usize,
}

impl TupleQueue {
    /// A queue holding at most `capacity` tuples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        TupleQueue {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Tuples currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when an arriving tuple would not fit.
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// Enqueue one tuple.
    ///
    /// # Panics
    /// Panics if full: the window protocol must have suspended the wrapper
    /// before this can happen; violating it is an engine bug.
    pub fn push(&mut self, t: Tuple) {
        assert!(
            !self.is_full(),
            "push into full queue — window protocol violated"
        );
        self.buf.push_back(t);
    }

    /// Dequeue up to `max` tuples into `out` (appended), returning how
    /// many were moved — the allocation-free batch path.
    pub fn pop_batch_into(&mut self, max: usize, out: &mut Vec<Tuple>) -> usize {
        let n = max.min(self.buf.len());
        out.extend(self.buf.drain(..n));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqs_relop::RelId;

    fn t(k: u64) -> Tuple {
        Tuple::new(k, RelId(0))
    }

    #[test]
    fn fifo_order() {
        let mut q = TupleQueue::new(10);
        q.push(t(1));
        q.push(t(2));
        q.push(t(3));
        let mut out = Vec::new();
        q.pop_batch_into(2, &mut out);
        assert_eq!(out.iter().map(|x| x.key).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn full_detection() {
        let mut q = TupleQueue::new(2);
        q.push(t(1));
        assert!(!q.is_full());
        q.push(t(2));
        assert!(q.is_full());
    }

    #[test]
    #[should_panic(expected = "window protocol violated")]
    fn overflow_panics() {
        let mut q = TupleQueue::new(1);
        q.push(t(1));
        q.push(t(2));
    }

    #[test]
    fn pop_more_than_available_clamps() {
        let mut q = TupleQueue::new(5);
        q.push(t(1));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_into(10, &mut out), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(q.pop_batch_into(10, &mut out), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_into_appends_and_reports_count() {
        let mut q = TupleQueue::new(5);
        q.push(t(1));
        q.push(t(2));
        q.push(t(3));
        let mut out = vec![t(9)];
        assert_eq!(q.pop_batch_into(2, &mut out), 2);
        assert_eq!(out.iter().map(|x| x.key).collect::<Vec<_>>(), vec![9, 1, 2]);
        assert_eq!(q.pop_batch_into(10, &mut out), 1);
        assert_eq!(q.pop_batch_into(10, &mut out), 0);
        assert_eq!(out.len(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TupleQueue::new(0);
    }
}
