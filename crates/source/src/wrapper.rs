//! Simulated wrappers.
//!
//! §2.1: wrappers are black boxes that evaluate a sub-query against their
//! source and stream result tuples to the mediator. The simulation reduces a
//! wrapper to (i) a result cardinality, (ii) a [`DelayModel`] pacing tuple
//! production — which folds together source processing time, source load and
//! network time. (The window protocol's suspension state lives with the
//! communication manager, the only party that reads or writes it.)

use dqs_relop::{synth_key, RelId, Tuple};
use dqs_sim::SimDuration;
use rand_chacha::ChaCha8Rng;

use crate::delay::DelayModel;
use crate::source::TupleSource;

/// One simulated remote wrapper.
#[derive(Debug)]
pub struct Wrapper {
    rel: RelId,
    total: u64,
    produced: u64,
    delay: DelayModel,
    rng: ChaCha8Rng,
}

impl Wrapper {
    /// A wrapper that will deliver `total` tuples for relation `rel`.
    pub fn new(rel: RelId, total: u64, delay: DelayModel, rng: ChaCha8Rng) -> Self {
        Wrapper {
            rel,
            total,
            produced: 0,
            delay,
            rng,
        }
    }
}

impl TupleSource for Wrapper {
    fn rel(&self) -> RelId {
        self.rel
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn produced(&self) -> u64 {
        self.produced
    }

    /// Consumes randomness.
    fn next_gap(&mut self) -> Option<SimDuration> {
        if self.exhausted() {
            None
        } else {
            Some(self.delay.gap(self.produced, &mut self.rng))
        }
    }

    /// The next tuple, with a deterministic key.
    fn emit(&mut self) -> Tuple {
        assert!(!self.exhausted(), "emit from exhausted wrapper");
        let t = Tuple::new(synth_key(self.rel, self.produced), self.rel);
        self.produced += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqs_sim::SeedSplitter;

    fn mk(total: u64) -> Wrapper {
        Wrapper::new(
            RelId(3),
            total,
            DelayModel::Constant {
                w: SimDuration::from_micros(20),
            },
            SeedSplitter::new(1).stream("wrapper-test"),
        )
    }

    #[test]
    fn produces_exactly_total_tuples() {
        let mut w = mk(5);
        let mut n = 0;
        while !w.exhausted() {
            assert!(w.next_gap().is_some());
            let _ = w.emit();
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(w.next_gap().is_none());
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let mut a = mk(3);
        let mut b = mk(3);
        let ka: Vec<u64> = (0..3).map(|_| a.emit().key).collect();
        let kb: Vec<u64> = (0..3).map(|_| b.emit().key).collect();
        assert_eq!(ka, kb);
        assert_eq!(ka.len(), 3);
        assert_ne!(ka[0], ka[1]);
    }

    #[test]
    #[should_panic(expected = "exhausted wrapper")]
    fn emit_past_end_panics() {
        let mut w = mk(0);
        let _ = w.emit();
    }

    #[test]
    fn tuples_carry_origin() {
        let mut w = mk(1);
        assert_eq!(w.emit().origin, RelId(3));
    }
}
