//! Workload descriptions: everything a run is a pure function of.

use dqs_plan::{Catalog, Fig5, Qep};
use dqs_relop::RelId;
use dqs_sim::{SimDuration, SimParams};
use dqs_source::{DelayModel, DEFAULT_QUEUE_CAPACITY};

/// Engine tuning knobs, with the defaults every experiment starts from.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Platform parameters (Table 1).
    pub params: SimParams,
    /// Query memory budget in bytes (§3.3: fixed for the whole execution).
    pub memory_bytes: u64,
    /// Communication queue capacity in tuples (the window protocol's
    /// window, §2.1).
    pub queue_capacity: usize,
    /// Tuples the DQP processes per batch (§3.2; footnote 1 notes the batch
    /// size can vary — the ablation benches sweep it).
    pub batch_size: usize,
    /// Stall duration after which a `TimeOut` interruption is raised
    /// (§3.2).
    pub timeout: SimDuration,
    /// Relative drift of a wrapper's delivery-rate estimate from the
    /// scheduler's planning mark that raises `RateChange` (§3.2). `None`
    /// keeps the communication manager's default (0.5).
    pub rate_change_threshold: Option<f64>,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Intra-query parallelism degree: number of worker lanes an admitted
    /// batch may be morselized across. `1` (the default, and what every
    /// golden-fingerprint workload uses) keeps the serial batch path.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            params: SimParams::default(),
            memory_bytes: 32 * 1024 * 1024,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            batch_size: 128,
            timeout: SimDuration::from_secs(2),
            rate_change_threshold: None,
            seed: 42,
            workers: 1,
        }
    }
}

/// A complete executable workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Relation cardinality *estimates* — the mediator's (possibly wrong)
    /// knowledge, used for annotations, scheduling metrics and memory
    /// reservations.
    pub catalog: Catalog,
    /// The plan to execute.
    pub qep: Qep,
    /// Delay model per relation (indexed by `RelId`).
    pub delays: Vec<DelayModel>,
    /// Cardinalities the wrappers *actually* deliver, when they differ
    /// from the estimates (§1: "the sizes of intermediate results used to
    /// estimate the costs ... are likely to be inaccurate"). `None` means
    /// estimates are exact (the default, and the paper's §5 setting).
    pub actuals: Option<Vec<u64>>,
    /// Engine configuration.
    pub config: EngineConfig,
}

impl Workload {
    /// A workload over `catalog`/`qep` with every wrapper at the paper's
    /// `w_min` constant pace and default configuration.
    pub fn new(catalog: Catalog, qep: Qep) -> Self {
        let config = EngineConfig::default();
        let w_min = config.params.w_min();
        let delays = vec![DelayModel::Constant { w: w_min }; catalog.len()];
        Workload {
            catalog,
            qep,
            delays,
            actuals: None,
            config,
        }
    }

    /// The Figure 5 experiment workload with every wrapper at `w_min`.
    pub fn fig5() -> (Self, Fig5) {
        let f5 = Fig5::build();
        (Workload::new(f5.catalog.clone(), f5.qep.clone()), f5)
    }

    /// Replace the delay model of one relation.
    pub fn with_delay(mut self, rel: RelId, model: DelayModel) -> Self {
        self.delays[rel.0 as usize] = model;
        self
    }

    /// Replace every relation's delay model.
    pub fn with_all_delays(mut self, model: DelayModel) -> Self {
        for d in &mut self.delays {
            *d = model.clone();
        }
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Override the intra-query parallelism degree.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Make relation `rel` actually deliver `n` tuples while the catalog
    /// (and hence every scheduler estimate) still claims its old number.
    pub fn with_actual_cardinality(mut self, rel: RelId, n: u64) -> Self {
        let actuals = self
            .actuals
            .get_or_insert_with(|| self.catalog.iter().map(|(_, r)| r.cardinality).collect());
        actuals[rel.0 as usize] = n;
        self
    }

    /// The cardinality relation `rel` will really deliver.
    pub fn actual_cardinality(&self, rel: RelId) -> u64 {
        match &self.actuals {
            Some(a) => a[rel.0 as usize],
            None => self.catalog.cardinality(rel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_workload_defaults_to_w_min() {
        let (w, f5) = Workload::fig5();
        assert_eq!(w.delays.len(), 6);
        for d in &w.delays {
            assert_eq!(
                *d,
                DelayModel::Constant {
                    w: SimDuration::from_micros(20)
                }
            );
        }
        let slowed = w.with_delay(
            f5.rels.a,
            DelayModel::Uniform {
                mean: SimDuration::from_micros(100),
            },
        );
        assert!(matches!(
            slowed.delays[f5.rels.a.0 as usize],
            DelayModel::Uniform { .. }
        ));
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.batch_size > 0);
        assert!(
            c.queue_capacity >= c.batch_size,
            "window must cover a batch"
        );
        assert!(c.memory_bytes > 16 * 1024 * 1024);
    }
}
