//! Strategy dispatch and repeated-run averaging.

use dqs_core::run_named;
use dqs_exec::{
    EngineObserver, NullObserver, RunMetrics, SimDriver, TaskCtx, WorkerPool, Workload,
};
use dqs_sim::stats;

/// The paper repeats each measurement 3 times and averages (§5.1.3); these
/// are the seeds used.
pub const SEEDS: [u64; 3] = [101, 202, 303];

/// Which execution strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Classical iterator model.
    Seq,
    /// Materialize-All of \[1\].
    Ma,
    /// Query scrambling (phase 1 of \[1\]/\[2\]) — the timeout-reactive
    /// related work the paper argues against.
    Scr,
    /// The paper's Dynamic Scheduling Execution.
    Dse,
    /// Online source-permutation scheduling (arXiv 1503.08400): drain
    /// order re-permuted from live observed delivery rates.
    Spm,
}

impl StrategyKind {
    /// The paper's §5 comparison set, in presentation order.
    pub const ALL: [StrategyKind; 3] = [StrategyKind::Seq, StrategyKind::Ma, StrategyKind::Dse];

    /// The comparison set extended with the scrambling baseline.
    pub const WITH_SCR: [StrategyKind; 4] = [
        StrategyKind::Seq,
        StrategyKind::Ma,
        StrategyKind::Scr,
        StrategyKind::Dse,
    ];

    /// The full modern comparison set: the paper's strategies plus the
    /// adaptive SPM extension.
    pub const WITH_SPM: [StrategyKind; 5] = [
        StrategyKind::Seq,
        StrategyKind::Ma,
        StrategyKind::Scr,
        StrategyKind::Dse,
        StrategyKind::Spm,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Seq => "SEQ",
            StrategyKind::Ma => "MA",
            StrategyKind::Scr => "SCR",
            StrategyKind::Dse => "DSE",
            StrategyKind::Spm => "SPM",
        }
    }
}

/// Execute `workload` once under `strategy`.
pub fn run_once(workload: &Workload, strategy: StrategyKind) -> RunMetrics {
    run_observed(workload, strategy, NullObserver)
}

/// Like [`run_once`], reporting engine events to `observer`.
pub fn run_observed<O: EngineObserver>(
    workload: &Workload,
    strategy: StrategyKind,
    observer: O,
) -> RunMetrics {
    let name = strategy.name().to_ascii_lowercase();
    run_named(&name, workload, observer, SimDriver::new())
        .expect("every StrategyKind is a named strategy")
        .unwrap_or_else(|e| panic!("query execution aborted: {e}"))
}

/// Run `workload` under `strategy` for each seed in [`SEEDS`] and return
/// `(mean response seconds, std dev, last metrics)`.
///
/// Seeds run as tasks on the process-wide [`WorkerPool`] — the simulation
/// is a pure function of the workload and the pool gathers results in
/// submission order, so the results are identical to running them
/// back-to-back (asserted by `parallel_seeds_match_serial`). Riding the
/// shared pool instead of ad-hoc scoped threads means bench repetitions
/// and morsel execution draw from the same bounded worker set.
pub fn run_repeated(workload: &Workload, strategy: StrategyKind) -> (f64, f64, RunMetrics) {
    let tasks: Vec<_> = SEEDS
        .iter()
        .map(|&seed| {
            let w = workload.clone().with_seed(seed);
            move |_ctx: TaskCtx| run_once(&w, strategy)
        })
        .collect();
    summarize(WorkerPool::global().execute(tasks))
}

fn summarize(metrics: Vec<RunMetrics>) -> (f64, f64, RunMetrics) {
    let secs: Vec<f64> = metrics.iter().map(RunMetrics::response_secs).collect();
    (
        stats::mean(&secs),
        stats::stddev(&secs),
        metrics.into_iter().last().expect("at least one seed"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial reference for [`run_repeated`]: one seed at a time.
    fn run_repeated_serial(workload: &Workload, strategy: StrategyKind) -> (f64, f64, RunMetrics) {
        let metrics = SEEDS
            .iter()
            .map(|&seed| run_once(&workload.clone().with_seed(seed), strategy))
            .collect();
        summarize(metrics)
    }

    #[test]
    fn strategy_names_match_paper() {
        assert_eq!(StrategyKind::Seq.name(), "SEQ");
        assert_eq!(StrategyKind::Ma.name(), "MA");
        assert_eq!(StrategyKind::Dse.name(), "DSE");
        assert_eq!(StrategyKind::ALL.len(), 3);
    }

    #[test]
    fn parallel_seeds_match_serial() {
        let (w, _) = Workload::fig5();
        for strategy in [StrategyKind::Seq, StrategyKind::Dse] {
            let (mean_p, sd_p, last_p) = run_repeated(&w, strategy);
            let (mean_s, sd_s, last_s) = run_repeated_serial(&w, strategy);
            assert_eq!(mean_p.to_bits(), mean_s.to_bits());
            assert_eq!(sd_p.to_bits(), sd_s.to_bits());
            assert_eq!(last_p, last_s);
        }
    }
}
