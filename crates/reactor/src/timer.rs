//! A hashed timer wheel for connection deadlines and backoff.
//!
//! Schedule is O(1); expiry cost is proportional to the ticks that
//! actually elapsed (capped at one full sweep of the wheel). Timers
//! further out than one wheel revolution stay parked in their slot and
//! simply survive sweeps until their absolute tick arrives — no
//! unbounded slot vectors, no heap.
//!
//! Nothing is ever cancelled: a timer leaves the wheel only by firing.
//! A caller whose deadline stopped mattering recognises the stale token
//! when it fires (the mediator's I/O worker compares the connection's
//! own deadline with `now`). Because entries only leave by firing, the
//! earliest pending tick is exact.
//!
//! All methods take an explicit `now` so the wheel is testable without
//! sleeping: callers (the mediator's I/O workers) pass one `Instant`
//! per loop iteration.

use std::time::{Duration, Instant};

use crate::poller::Token;

#[derive(Debug, Clone, Copy)]
struct Entry {
    token: Token,
    /// Absolute tick at which the entry fires.
    expiry: u64,
}

/// The wheel: `slots` buckets of `granularity` each.
#[derive(Debug)]
pub struct TimerWheel {
    granularity: Duration,
    slots: Vec<Vec<Entry>>,
    anchor: Instant,
    /// Next absolute tick to sweep.
    cursor: u64,
    /// The earliest pending expiry tick; `u64::MAX` when the wheel is
    /// empty.
    earliest: u64,
}

impl TimerWheel {
    /// A wheel anchored at `Instant::now()`.
    pub fn new(granularity: Duration, slots: usize) -> TimerWheel {
        TimerWheel::with_anchor(granularity, slots, Instant::now())
    }

    /// A wheel anchored at an explicit instant (deterministic tests).
    pub fn with_anchor(granularity: Duration, slots: usize, anchor: Instant) -> TimerWheel {
        assert!(slots > 0, "a timer wheel needs at least one slot");
        assert!(
            granularity > Duration::ZERO,
            "a timer wheel needs a positive granularity"
        );
        TimerWheel {
            granularity,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            anchor,
            cursor: 0,
            earliest: u64::MAX,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.anchor);
        (elapsed.as_nanos() / self.granularity.as_nanos()) as u64
    }

    /// Schedule `token` to fire `after` from `now`. Deadlines round *up*
    /// to the next tick, so a timer never fires early.
    pub fn schedule(&mut self, now: Instant, after: Duration, token: Token) {
        let deadline = now
            .checked_add(after)
            .unwrap_or_else(|| now + Duration::from_secs(u32::MAX as u64));
        let elapsed = deadline.saturating_duration_since(self.anchor).as_nanos();
        let gran = self.granularity.as_nanos();
        let expiry = (elapsed.div_ceil(gran) as u64).max(self.cursor);
        let slot = (expiry % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { token, expiry });
        self.earliest = self.earliest.min(expiry);
    }

    /// Sweep every tick up to `now`, appending expired tokens to
    /// `expired` in tick order.
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<Token>) {
        let now_tick = self.tick_of(now);
        if now_tick < self.cursor {
            return;
        }
        let n = self.slots.len() as u64;
        if now_tick - self.cursor + 1 >= n {
            // A full revolution (or more) elapsed: one pass over every
            // slot catches everything due.
            for slot in &mut self.slots {
                Self::drain_slot(slot, now_tick, expired);
            }
        } else {
            for tick in self.cursor..=now_tick {
                Self::drain_slot(&mut self.slots[(tick % n) as usize], tick, expired);
            }
        }
        self.cursor = now_tick + 1;
        if self.earliest < self.cursor {
            // The earliest timer fired: recompute the next one. Happens at
            // most once per tick that fires something, not per wait.
            self.earliest = self
                .slots
                .iter()
                .flatten()
                .map(|e| e.expiry)
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    fn drain_slot(slot: &mut Vec<Entry>, tick: u64, expired: &mut Vec<Token>) {
        slot.retain(|e| {
            if e.expiry > tick {
                return true; // parked for a later revolution
            }
            expired.push(e.token);
            false
        });
    }

    /// How long until the earliest pending timer fires, from `now`.
    /// `None` means no timer is pending (wait without a timeout).
    pub fn next_deadline(&self, now: Instant) -> Option<Duration> {
        if self.earliest == u64::MAX {
            return None;
        }
        let total = self
            .granularity
            .as_nanos()
            .saturating_mul(u128::from(self.earliest));
        let since_anchor = now.saturating_duration_since(self.anchor).as_nanos();
        let remaining = total.saturating_sub(since_anchor);
        Some(Duration::from_nanos(
            remaining.min(u128::from(u64::MAX)) as u64
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_anchor(ms(10), 16, t0);
        w.schedule(t0, ms(50), Token(5));
        w.schedule(t0, ms(20), Token(2));
        w.schedule(t0, ms(80), Token(8));
        let mut fired = Vec::new();
        w.advance(t0 + ms(100), &mut fired);
        assert_eq!(fired, vec![Token(2), Token(5), Token(8)]);
        assert_eq!(w.next_deadline(t0 + ms(100)), None);
    }

    #[test]
    fn timers_never_fire_early() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_anchor(ms(10), 16, t0);
        w.schedule(t0, ms(35), Token(1));
        let mut fired = Vec::new();
        w.advance(t0 + ms(30), &mut fired);
        assert!(fired.is_empty(), "a 35ms timer must not fire at 30ms");
        w.advance(t0 + ms(40), &mut fired);
        assert_eq!(fired, vec![Token(1)]);
    }

    #[test]
    fn far_timers_survive_full_revolutions() {
        let t0 = Instant::now();
        // 8 slots of 10ms = an 80ms revolution; 250ms parks 3 laps out.
        let mut w = TimerWheel::with_anchor(ms(10), 8, t0);
        w.schedule(t0, ms(250), Token(9));
        let mut fired = Vec::new();
        for step in 1..=24 {
            w.advance(t0 + ms(step * 10), &mut fired);
        }
        assert!(fired.is_empty(), "not due before 250ms");
        w.advance(t0 + ms(251), &mut fired);
        assert_eq!(fired, vec![Token(9)]);
    }

    #[test]
    fn a_giant_idle_gap_costs_one_sweep_and_loses_nothing() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_anchor(ms(1), 32, t0);
        for i in 0..100 {
            w.schedule(t0, ms(i), Token(i));
        }
        let mut fired = Vec::new();
        let later = t0 + Duration::from_secs(3600);
        w.advance(later, &mut fired);
        assert_eq!(fired.len(), 100);
        assert_eq!(w.next_deadline(later), None);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_live_timer() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_anchor(ms(10), 16, t0);
        assert_eq!(w.next_deadline(t0), None);
        w.schedule(t0, ms(30), Token(1));
        w.schedule(t0, ms(90), Token(2));
        let d = w.next_deadline(t0).unwrap();
        assert_eq!(d, ms(30), "earliest is the 30ms timer");
        // The early one fires; the bound moves to the later timer.
        let mut fired = Vec::new();
        w.advance(t0 + ms(40), &mut fired);
        assert_eq!(fired, vec![Token(1)]);
        let d = w.next_deadline(t0 + ms(40)).unwrap();
        assert_eq!(d, ms(50), "bound must move to 90ms");
    }

    /// A connection's submit deadline sits 600 ticks out on the mediator's
    /// wheel: nine and a bit revolutions that must not fire it, then
    /// exactly one firing at its own tick.
    #[test]
    fn a_far_timer_fires_once_at_its_tick_however_often_the_wheel_turns() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_anchor(ms(100), 64, t0);
        w.schedule(t0, Duration::from_secs(60), Token(1));
        let mut fired = Vec::new();
        for step in 1..600 {
            w.advance(t0 + ms(step * 100), &mut fired);
            assert!(fired.is_empty(), "fired early, at {} ms", step * 100);
        }
        for step in 600..=1300 {
            w.advance(t0 + ms(step * 100), &mut fired);
            assert_eq!(fired, vec![Token(1)], "at {} ms", step * 100);
        }
        assert_eq!(w.next_deadline(t0 + ms(130_000)), None);
    }

    /// What the mediator's stale-token check exists for: a token scheduled
    /// again (a drain deadline after a submit deadline) fires at each of
    /// its deadlines, and the wheel is empty once both have.
    #[test]
    fn a_token_scheduled_twice_fires_at_each_of_its_deadlines() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_anchor(ms(10), 8, t0);
        w.schedule(t0, ms(200), Token(3));
        w.schedule(t0 + ms(20), ms(30), Token(3));
        let mut fired = Vec::new();
        w.advance(t0 + ms(49), &mut fired);
        assert!(fired.is_empty());
        w.advance(t0 + ms(50), &mut fired);
        assert_eq!(fired, vec![Token(3)], "the second deadline, at 50ms");
        assert_eq!(w.next_deadline(t0 + ms(50)), Some(ms(150)));
        w.advance(t0 + ms(199), &mut fired);
        assert_eq!(fired.len(), 1);
        w.advance(t0 + ms(200), &mut fired);
        assert_eq!(fired, vec![Token(3), Token(3)], "the first, at 200ms");
        assert_eq!(w.next_deadline(t0 + ms(200)), None);
    }

    #[test]
    fn zero_delay_fires_on_the_next_sweep() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_anchor(ms(10), 4, t0);
        let mut fired = Vec::new();
        w.advance(t0 + ms(55), &mut fired); // move the cursor forward
        w.schedule(t0 + ms(55), Duration::ZERO, Token(7));
        w.advance(t0 + ms(65), &mut fired);
        assert_eq!(fired, vec![Token(7)]);
    }
}
