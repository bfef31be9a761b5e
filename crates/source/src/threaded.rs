//! Real-time wrappers: a producer thread per source.
//!
//! Where the simulated [`crate::Wrapper`] *describes* delivery delays, a
//! [`ThreadedWrapper`] *performs* them: a detached thread draws gaps from
//! the same [`DelayModel`] (same seeded stream, same deterministic keys),
//! actually sleeps them, and pushes each tuple into its
//! [`PushSource`] — whose bounded channel is the transport half of the
//! paper's window protocol (§2.1) and whose notify channel the real-time
//! driver blocks on.

use std::sync::mpsc::Sender;
use std::thread;
use std::time::Duration;

use dqs_relop::{synth_key, RelId};
use rand_chacha::ChaCha8Rng;

use crate::delay::DelayModel;
use crate::pushed::{Feed, Producer, PushSource};
use crate::source::Notice;

/// A wrapper whose tuples are produced by a real thread with real sleeps.
pub type ThreadedWrapper = PushSource<Paced>;

/// The in-process producer: sleeps each modelled gap, then pushes the
/// tuple.
#[derive(Debug)]
pub struct Paced {
    total: u64,
    delay: Option<(DelayModel, ChaCha8Rng)>,
}

impl ThreadedWrapper {
    /// A wrapper that will deliver `total` tuples for `rel`, pacing them
    /// with `delay` driven by `rng`, holding at most `window` tuples in
    /// flight, and announcing each delivery on `notify`.
    ///
    /// Nothing runs until [`crate::TupleSource::start`] spawns the
    /// producer.
    pub fn new(
        rel: RelId,
        total: u64,
        delay: DelayModel,
        rng: ChaCha8Rng,
        window: usize,
        notify: Sender<Notice>,
    ) -> Self {
        let producer = Paced {
            total,
            delay: Some((delay, rng)),
        };
        PushSource::around(rel, 0, total, window, notify, producer)
    }
}

impl Producer for Paced {
    fn start(&mut self, feed: Feed) {
        let (delay, mut rng) = self.delay.take().expect("started twice");
        let total = self.total;
        thread::spawn(move || {
            for i in 0..total {
                thread::sleep(Duration::from_nanos(delay.gap(i, &mut rng).as_nanos()));
                if !feed.push(synth_key(feed.rel(), i)) {
                    return;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TupleSource;
    use dqs_sim::{SeedSplitter, SimDuration};
    use std::sync::mpsc::{channel, Receiver};

    fn mk(total: u64) -> (ThreadedWrapper, Receiver<Notice>) {
        let (ntx, nrx) = channel();
        let w = ThreadedWrapper::new(
            RelId(2),
            total,
            DelayModel::Constant {
                w: SimDuration::from_nanos(100),
            },
            SeedSplitter::new(9).stream("threaded-test"),
            8,
            ntx,
        );
        (w, nrx)
    }

    #[test]
    fn delivers_all_tuples_with_deterministic_keys() {
        let (mut w, nrx) = mk(20);
        w.start();
        let mut keys = Vec::new();
        for _ in 0..20 {
            let notice = nrx.recv().expect("notify");
            assert_eq!(notice, Notice::Arrival(RelId(2)));
            keys.push(w.emit().key);
        }
        assert!(w.exhausted());
        let expected: Vec<u64> = (0..20).map(|i| synth_key(RelId(2), i)).collect();
        assert_eq!(keys, expected, "same keys as the simulated wrapper");
    }

    #[test]
    fn push_paced_sources_report_no_gap() {
        let (mut w, _nrx) = mk(5);
        assert_eq!(w.next_gap(), None);
        assert_eq!(w.total(), 5);
        assert_eq!(w.produced(), 0);
    }

    #[test]
    fn bounded_channel_blocks_producer_not_consumer() {
        // Window of 8 with 100 tuples: the producer must block until we
        // drain; everything still arrives.
        let (mut w, nrx) = mk(100);
        w.start();
        let mut got = 0;
        while got < 100 {
            let _ = nrx.recv().expect("notify");
            let _ = w.emit();
            got += 1;
        }
        assert!(w.exhausted());
        assert!(nrx.try_recv().is_err(), "no stray notifications");
    }

    #[test]
    fn suspension_state_toggles() {
        let (mut w, _nrx) = mk(1);
        assert!(!w.is_suspended());
        w.suspend();
        assert!(w.is_suspended());
        w.resume();
        assert!(!w.is_suspended());
    }
}
