//! Serially reusable resources (the mediator CPU, the local disk).
//!
//! A [`FifoResource`] models a single server with FIFO queueing discipline:
//! a request arriving at `now` with service demand `d` starts when the device
//! frees up and completes `d` later. The caller schedules the completion
//! event at the returned finish time. Busy-time accounting is built in so
//! experiments can report CPU-busy and disk-busy fractions.

use crate::time::{SimDuration, SimTime};

/// A single FIFO server (CPU, disk, NIC, ...).
#[derive(Debug, Clone)]
pub struct FifoResource {
    name: &'static str,
    next_free: SimTime,
    busy: SimDuration,
}

/// Outcome of a resource acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually starts (>= request time).
    pub start: SimTime,
    /// When service completes; schedule the completion event here.
    pub finish: SimTime,
    /// Time spent queueing before service.
    pub queued: SimDuration,
}

impl FifoResource {
    /// A fresh, idle resource. `name` labels panics and traces.
    pub fn new(name: &'static str) -> Self {
        FifoResource {
            name,
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
        }
    }

    /// Reserve the resource for `service` starting no earlier than `now`.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = self.next_free.max(now);
        let finish = start + service;
        self.next_free = finish;
        self.busy += service;
        Grant {
            start,
            finish,
            queued: start - now,
        }
    }

    /// The earliest instant at which a new request could begin service.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Label given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new("cpu");
        let g = r.acquire(t(100), d(10));
        assert_eq!(g.start, t(100));
        assert_eq!(g.finish, t(110));
        assert_eq!(g.queued, SimDuration::ZERO);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = FifoResource::new("disk");
        let g1 = r.acquire(t(0), d(50));
        let g2 = r.acquire(t(10), d(20));
        assert_eq!(g1.finish, t(50));
        assert_eq!(g2.start, t(50));
        assert_eq!(g2.finish, t(70));
        assert_eq!(g2.queued, d(40));
    }

    #[test]
    fn gap_resets_start_time() {
        let mut r = FifoResource::new("cpu");
        r.acquire(t(0), d(10));
        let g = r.acquire(t(100), d(5));
        assert_eq!(g.start, t(100));
        assert_eq!(r.next_free(), t(105));
    }

    #[test]
    fn accounting_tracks_busy_and_requests() {
        let mut r = FifoResource::new("cpu");
        r.acquire(t(0), d(30));
        r.acquire(t(0), d(30));
        assert_eq!(r.busy_time(), d(60));
    }
}
