//! Morsel-parallel answer parity: running the engine with any worker
//! count must produce *bit-identical answers* to serial execution.
//!
//! The worker pool changes the modeled response time (the chain charge is
//! a W-lane makespan instead of one instruction sum) — that's the point —
//! and the faster modeled CPU may shift batch boundaries against wrapper
//! arrivals, so batch and plan *counts* can differ between worker counts.
//! The query answer must not, whatever the worker count and whichever
//! workers physically ran which morsel.

use dqs_bench::fingerprint::{fingerprint_run, parity_workloads};
use dqs_bench::{run_once, StrategyKind};
use dqs_exec::Workload;
use dqs_plan::{generate, GeneratorConfig};
use dqs_sim::SeedSplitter;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

/// Everything answer-shaped in a run's metrics: the output cardinality
/// plus the per-query output counts implied by the response list length.
/// Response *times* are deliberately excluded — they model the speedup.
fn answer_of(m: &dqs_exec::RunMetrics) -> (u64, Vec<u32>) {
    (
        m.output_tuples,
        m.query_responses.iter().map(|(q, _)| *q).collect(),
    )
}

/// The parity matrix: every golden workload × every strategy × workers in
/// {1, 2, 4, 8} agrees on the answer, and each parallel configuration is
/// itself deterministic: two runs agree on their metrics signature and on
/// the hash of their whole event stream, though the workers that ran each
/// morsel differ.
#[test]
fn morsel_parallel_answers_match_serial_on_the_parity_matrix() {
    for (name, workload) in parity_workloads() {
        for strategy in StrategyKind::WITH_SPM {
            let serial = run_once(&workload, strategy);
            for &workers in &WORKER_COUNTS {
                let w = workload.clone().with_workers(workers);
                let a = run_once(&w, strategy);
                assert_eq!(
                    answer_of(&a),
                    answer_of(&serial),
                    "{name}/{}/workers={workers}: answer diverged from serial",
                    strategy.name()
                );
                // NOTE deliberately unasserted: batches/plans may shift —
                // the faster modeled CPU drains queues at different
                // instants, so batch boundaries move. The answer must not.
                // The two traced runs go at once: they share the global
                // pool, so their morsels interleave on its workers, and
                // the matrix takes half the wall time.
                let (x, y) = std::thread::scope(|s| {
                    let x = s.spawn(|| fingerprint_run(&w, strategy));
                    let y = fingerprint_run(&w, strategy);
                    (x.join().unwrap(), y)
                });
                assert_eq!(
                    x,
                    y,
                    "{name}/{}/workers={workers}: parallel run not deterministic",
                    strategy.name()
                );
            }
        }
    }
}

/// Morsels are only charged when they run: a serial run reports zero, and
/// a parallel run of a workload with full batches reports at least one.
#[test]
fn morsel_counters_reflect_the_execution_path() {
    let (fig5, _) = Workload::fig5();
    let serial = run_once(&fig5.clone().with_seed(42), StrategyKind::Dse);
    assert_eq!(serial.morsels, 0, "serial runs must not dispatch morsels");
    assert_eq!(serial.steals, 0);

    let parallel = run_once(&fig5.with_seed(42).with_workers(4), StrategyKind::Dse);
    assert!(
        parallel.morsels > 0,
        "a 4-worker run of fig5 must split batches into morsels"
    );
    assert_eq!(parallel.output_tuples, serial.output_tuples);
    assert_eq!(parallel.steals, 0, "one queue: nothing to steal");
}

/// Random bushy queries from the generator, compact descriptors so
/// shrinking stays meaningful (same scheme as `engine_invariants`).
fn random_workload(seed: u64, relations: usize) -> Workload {
    let mut rng = SeedSplitter::new(seed).stream("morsel-parity");
    let q = generate(
        &GeneratorConfig {
            relations,
            cardinality: (200, 2_500),
            scan_selectivity: (0.4, 1.0),
            join_fanout: (0.4, 1.3),
        },
        &mut rng,
    );
    Workload::new(q.catalog, q.qep)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For random queries, random seeds, every strategy and every worker
    /// count: the answer is bit-identical to serial.
    #[test]
    fn answers_are_worker_count_invariant(
        gen_seed in 0u64..10_000,
        run_seed in 0u64..10_000,
        relations in 2usize..6,
    ) {
        let base = random_workload(gen_seed, relations).with_seed(run_seed);
        for strategy in StrategyKind::ALL {
            let serial = run_once(&base, strategy);
            for &workers in &WORKER_COUNTS {
                let m = run_once(&base.clone().with_workers(workers), strategy);
                prop_assert_eq!(
                    answer_of(&m),
                    answer_of(&serial),
                    "{}/workers={}: answer diverged",
                    strategy.name(), workers
                );
            }
        }
    }
}
