//! Property tests for the discrete-event core: the queue must behave
//! exactly like a sorted-stable reference model under arbitrary schedule /
//! pop interleavings.

use dqs_sim::{EventQueue, FifoResource, SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Schedule(u32),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0u32..1_000).prop_map(Op::Schedule), Just(Op::Pop)],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The queue agrees with a naive reference model: a list of
    /// (time, seq, payload) sorted by (time, seq), minus what was popped,
    /// and never schedules into the past.
    #[test]
    fn queue_matches_reference_model(ops in ops()) {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Reference: Vec of (time_ns, seq, not yet popped).
        let mut model: Vec<(u64, u64, bool)> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;

        for op in ops {
            match op {
                Op::Schedule(offset) => {
                    // Offsets keep times legal (>= now).
                    let at = now + offset as u64;
                    q.schedule(SimTime::from_nanos(at), seq);
                    model.push((at, seq, true));
                    seq += 1;
                }
                Op::Pop => {
                    // Reference: earliest (time, seq) entry not yet popped.
                    let next = model
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.2)
                        .min_by_key(|(_, e)| (e.0, e.1));
                    match (q.pop(), next) {
                        (Some((at, payload)), Some((i, &(t, s, _)))) => {
                            prop_assert_eq!(at.as_nanos(), t);
                            prop_assert_eq!(payload, s);
                            model[i].2 = false;
                            now = t;
                        }
                        (None, None) => {}
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "queue {got:?} vs model {want:?}"
                            )));
                        }
                    }
                }
            }
            prop_assert_eq!(q.pending(), model.iter().filter(|e| e.2).count());
        }
    }

    /// Draining an arbitrary schedule pops times in nondecreasing order,
    /// and ties come out in insertion (FIFO) order — the stability the
    /// engine's determinism rests on.
    #[test]
    fn pops_nondecreasing_with_fifo_ties(times in prop::collection::vec(0u64..8, 1..100)) {
        // A tiny time domain (0..8) forces heavy tie traffic.
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        let mut popped = 0usize;
        while let Some((at, payload)) = q.pop() {
            prop_assert_eq!(times[payload], at.as_nanos(), "payload popped at its own time");
            if let Some((pt, pp)) = prev {
                prop_assert!(at >= pt, "times nondecreasing: {pt:?} then {at:?}");
                if at == pt {
                    prop_assert!(payload > pp,
                        "FIFO tie-break: insertion {pp} must precede {payload}");
                }
            }
            prev = Some((at, payload));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len(), "every scheduled event pops exactly once");
    }

    /// FIFO resources: completions are ordered, busy time equals the sum
    /// of service demands, and no grant starts before its request.
    #[test]
    fn fifo_resource_conserves_time(demands in prop::collection::vec((0u64..10_000, 1u64..5_000), 1..60)) {
        let mut r = FifoResource::new("prop");
        let mut last_finish = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for (arrive, service) in demands {
            let at = SimTime::from_nanos(arrive);
            let d = SimDuration::from_micros(service);
            let g = r.acquire(at, d);
            prop_assert!(g.start >= at);
            prop_assert_eq!(g.finish, g.start + d);
            prop_assert!(g.finish >= last_finish, "completions are FIFO-ordered");
            last_finish = g.finish;
            total += d;
        }
        prop_assert_eq!(r.busy_time(), total);
    }
}
