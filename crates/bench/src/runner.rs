//! Strategy dispatch, per-phase statistics and repeated-run averaging.

use dqs_core::run_named;
use dqs_exec::{
    EngineEvent, EngineObserver, Interrupt, NullObserver, RunMetrics, SimDriver, TaskCtx,
    WorkerPool, Workload,
};
use dqs_sim::{stats, SimTime};

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

/// Aggregates for one scheduling phase (the stretch of execution between
/// two planning events, §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// The interruption that opened this phase.
    pub why: Interrupt,
    /// Fragments in the scheduling plan the phase ran under.
    pub sp_len: usize,
    /// Virtual time the phase started.
    pub start: SimTime,
    /// Virtual time the phase ended (next planning event, or run end).
    pub end: SimTime,
    /// Batches processed during the phase.
    pub batches: u64,
    /// Input tuples those batches consumed.
    pub tuples_in: u64,
    /// Result tuples delivered to the query output.
    pub output: u64,
    /// Times the DQP entered a stall.
    pub stalls: u64,
    /// Memory reservations denied.
    pub mem_denied: u64,
}

/// [`EngineObserver`] that folds the event stream into one [`PhaseStat`]
/// per scheduling phase — what the bench harness reports per run.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Completed phases, in execution order.
    pub phases: Vec<PhaseStat>,
}

impl PhaseStats {
    /// Close the trailing phase at `end` and return all phases.
    pub fn finish(mut self, end: SimTime) -> Vec<PhaseStat> {
        if let Some(p) = self.phases.last_mut() {
            p.end = end;
        }
        self.phases
    }
}

impl EngineObserver for PhaseStats {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        if let EngineEvent::PlanComputed { why, sp } = ev {
            if let Some(prev) = self.phases.last_mut() {
                prev.end = at;
            }
            self.phases.push(PhaseStat {
                why: *why,
                sp_len: sp.len(),
                start: at,
                end: at,
                batches: 0,
                tuples_in: 0,
                output: 0,
                stalls: 0,
                mem_denied: 0,
            });
            return;
        }
        let Some(p) = self.phases.last_mut() else {
            return; // events before the initial plan (arrivals) have no phase
        };
        match ev {
            EngineEvent::BatchStart { tuples, .. } => {
                p.batches += 1;
                p.tuples_in += tuples;
            }
            EngineEvent::BatchDone { output, .. } => p.output += output,
            EngineEvent::Stalled => p.stalls += 1,
            EngineEvent::MemoryDenied { .. } => p.mem_denied += 1,
            _ => {}
        }
    }
}

fn dispatch<O: EngineObserver>(workload: &Workload, strategy: StrategyKind, obs: O) -> RunMetrics {
    let name = strategy.name().to_ascii_lowercase();
    run_named(&name, workload, obs, SimDriver::new())
        .expect("every StrategyKind is a named strategy")
        .unwrap_or_else(|e| panic!("query execution aborted: {e}"))
}

/// Execute `workload` once under `strategy`.
pub fn run_once(workload: &Workload, strategy: StrategyKind) -> RunMetrics {
    dispatch(workload, strategy, NullObserver)
}

/// Execute `workload` once under `strategy`, also returning per-phase
/// statistics folded from the structured event stream.
pub fn run_once_with_phases(
    workload: &Workload,
    strategy: StrategyKind,
) -> (RunMetrics, Vec<PhaseStat>) {
    let mut stats = PhaseStats::default();
    let m = dispatch(workload, strategy, &mut stats);
    let end = SimTime::ZERO + m.response_time;
    (m, stats.finish(end))
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

/// Serial reference for [`run_repeated`]; same results, one seed at a time.
pub fn run_repeated_serial(workload: &Workload, strategy: StrategyKind) -> (f64, f64, RunMetrics) {
    let metrics = SEEDS
        .iter()
        .map(|&seed| run_once(&workload.clone().with_seed(seed), strategy))
        .collect();
    summarize(metrics)
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

    #[test]
    fn phase_stats_cover_the_run() {
        let (w, _) = Workload::fig5();
        let (m, phases) = run_once_with_phases(&w, StrategyKind::Dse);
        assert_eq!(phases.len() as u64, m.plans, "one PhaseStat per plan");
        assert_eq!(
            phases.iter().map(|p| p.batches).sum::<u64>(),
            m.batches,
            "every batch lands in exactly one phase"
        );
        assert_eq!(
            phases.iter().map(|p| p.output).sum::<u64>(),
            m.output_tuples
        );
        assert_eq!(phases[0].why, Interrupt::Start);
        // Phases are contiguous and ordered.
        for pair in phases.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(phases.last().unwrap().end, SimTime::ZERO + m.response_time);
    }
}
