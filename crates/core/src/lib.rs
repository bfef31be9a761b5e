//! # dqs-core — dynamic query scheduling for data integration systems
//!
//! The primary contribution of Bouganim, Fabret, Mohan & Valduriez,
//! *Dynamic Query Scheduling in Data Integration Systems* (ICDE 2000),
//! reproduced on the simulated platform of the sibling crates:
//!
//! * [`metrics`] — the scheduler's decision metrics: the critical degree
//!   `critical(p) = n_p (w_p − c_p)` (§4.3) and the benefit-materialization
//!   indicator `bmi = w_p / (2·IO_p)` with its threshold `bmt` (§4.4);
//! * [`dqs::DsePolicy`] — the Dynamic Scheduling Execution strategy: at
//!   every interruption event it recomputes a scheduling plan — degrading
//!   blocked critical chains into MF/CF pairs, ordering fragments by
//!   critical degree, and fitting the plan into the memory budget (§4.5);
//! * [`dqo`] — the dynamic optimizer's memory-overflow module: the §4.2
//!   chain split that inserts a materialization at the highest possible
//!   point;
//! * [`lwb`](mod@lwb) — the analytic response-time lower bound of §5.1.2;
//! * [`session`] — admission control for the concurrent mediator: who
//!   runs, who waits (and under which backlog policy — FIFO, or shortest
//!   job first by the cost the mediator passes: the query's LWB), and
//!   under what share of the global memory budget;
//! * [`hist`] — shared latency statistics: exact percentiles for bench
//!   reports and a log-bucketed histogram for serving-side gauges;
//! * [`run_named`] — the one by-name dispatch over the five strategies
//!   (this is the only crate that sees both [`DsePolicy`] and the
//!   `dqs_exec` baselines), for the CLI, the mediator and the benches.
//!
//! # Quick start
//!
//! ```
//! use dqs_core::DsePolicy;
//! use dqs_exec::{run_workload, Workload};
//!
//! // The paper's Figure 5 experiment plan, all wrappers at w_min.
//! let (workload, _fig5) = Workload::fig5();
//! let metrics = run_workload(&workload, DsePolicy::new());
//! assert_eq!(metrics.output_tuples, 90_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dqo;
pub mod dqs;
pub mod hist;
pub mod lwb;
pub mod metrics;
pub mod session;

pub use dqs::{DseConfig, DsePolicy};
pub use hist::LatencyHistogram;
pub use lwb::{lwb, Lwb};
pub use metrics::{bmi, critical_degree, is_critical, DEFAULT_BMT};
pub use session::{AdmissionPolicy, Decision, SessionConfig, SessionStats, SessionTable};

use dqs_exec::{
    Driver, Engine, EngineObserver, MaPolicy, RunError, RunMetrics, ScramblingPolicy, SeqPolicy,
    SpmPolicy, Workload,
};

/// The names [`run_named`] accepts, in the order usage strings list them.
pub const STRATEGY_NAMES: [&str; 5] = ["seq", "ma", "scr", "dse", "spm"];

/// The refusal every front end gives a name outside [`STRATEGY_NAMES`].
pub fn unknown_strategy(name: &str) -> String {
    format!("unknown strategy {name:?} ({})", STRATEGY_NAMES.join("|"))
}

/// Run `workload` on `driver` under the strategy called `name`, reporting
/// events to `observer`. `None` when `name` is not in [`STRATEGY_NAMES`].
pub fn run_named<O: EngineObserver, D: Driver>(
    name: &str,
    workload: &Workload,
    observer: O,
    driver: D,
) -> Option<Result<RunMetrics, RunError>> {
    Some(match name {
        "seq" => Engine::with_driver(workload, SeqPolicy, observer, driver).try_run(),
        "ma" => Engine::with_driver(workload, MaPolicy::default(), observer, driver).try_run(),
        "scr" => Engine::with_driver(workload, ScramblingPolicy::new(), observer, driver).try_run(),
        "dse" => Engine::with_driver(workload, DsePolicy::new(), observer, driver).try_run(),
        "spm" => Engine::with_driver(workload, SpmPolicy::new(), observer, driver).try_run(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqs_exec::{NullObserver, SimDriver};

    #[test]
    fn every_listed_name_runs_and_reports_itself() {
        let (workload, _) = Workload::fig5();
        for name in STRATEGY_NAMES {
            let m = run_named(name, &workload, NullObserver, SimDriver::new())
                .expect("listed")
                .expect("completes");
            assert_eq!(m.strategy.to_lowercase(), name);
            assert_eq!(m.output_tuples, 90_000);
        }
        assert!(run_named("nope", &workload, NullObserver, SimDriver::new()).is_none());
        assert_eq!(
            unknown_strategy("nope"),
            "unknown strategy \"nope\" (seq|ma|scr|dse|spm)"
        );
    }
}
