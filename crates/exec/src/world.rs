//! The execution world: every simulated component of one run.

use dqs_plan::{AnnotatedPlan, ChainSet};
use dqs_relop::{HashTableArena, RelId, Tuple};
use dqs_sim::{FifoResource, SeedSplitter, SimParams};
use dqs_source::{BoxSource, CommManager, Wrapper};
use dqs_storage::{Disk, MemoryManager, StreamId, TempRelation};

use crate::frag::TempId;
use crate::workload::Workload;

/// The simulated pull-paced wrappers for `workload`, seeded exactly as the
/// pre-driver engine seeded them (one ChaCha8 stream per wrapper name).
/// Shared by [`World::build`] and `SimDriver` so both construct
/// bit-identical sources.
pub(crate) fn sim_sources(workload: &Workload) -> Vec<BoxSource> {
    workload
        .catalog
        .iter()
        .map(|(rel, _)| sim_source(workload, rel))
        .collect()
}

/// The in-process wrapper for `rel` — the one place it is constructed,
/// for simulation, the wall-clock driver and a mediator serving without
/// remote wrappers alike.
pub fn sim_source(workload: &Workload, rel: RelId) -> BoxSource {
    Box::new(Wrapper::new(
        rel,
        workload.actual_cardinality(rel),
        workload.delays[rel.0 as usize].clone(),
        SeedSplitter::new(workload.config.seed)
            .stream(&format!("wrapper:{}", workload.catalog.name(rel))),
    ))
}

/// Derive a child seed from a master seed and a context label: FNV-1a over
/// the label folded into the master, finished with a splitmix64 mix. Used to
/// give every fragment its own seed stream at construction
/// ([`crate::frag::FragTable::from_plan`]), so per-morsel randomness is a
/// pure function of *position* — (fragment seed, morsel index) — and never of
/// worker count, steal order, or wall-clock timing.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(master ^ h)
}

/// The RNG stream seed of morsel `index` within a fragment whose stream seed
/// is `frag_seed` (satellite of the morsel-parallelism refactor: dispatch
/// jitter and any future per-morsel sampling draw from this, reproducibly).
pub fn morsel_seed(frag_seed: u64, index: u64) -> u64 {
    splitmix64(frag_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// SplitMix64 finalizer — a cheap, well-mixed u64→u64 bijection.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// All mutable simulated state shared by the engine and the policies.
#[derive(Debug)]
pub struct World {
    /// Platform parameters.
    pub params: SimParams,
    /// The mediator's single CPU.
    pub cpu: FifoResource,
    /// The mediator's local disk.
    pub disk: Disk,
    /// The query memory budget.
    pub memory: MemoryManager,
    /// Wrappers, queues and rate estimation.
    pub cm: CommManager,
    /// All hash tables of the plan.
    pub arena: HashTableArena,
    /// Temp relations (plan-level mats first, degradations appended).
    pub temps: Vec<TempRelation<Tuple>>,
}

impl World {
    /// Build a world for `workload` with the default simulated sources,
    /// returning it with the annotated plan.
    pub fn build(workload: &Workload) -> (World, AnnotatedPlan) {
        World::build_with_sources(
            workload,
            sim_sources(workload),
            workload.config.queue_capacity,
        )
    }

    /// Build a world for `workload` around driver-provided `sources` and
    /// communication-manager `queue_capacity`.
    pub fn build_with_sources(
        workload: &Workload,
        sources: Vec<BoxSource>,
        queue_capacity: usize,
    ) -> (World, AnnotatedPlan) {
        let params = workload.config.params.clone();
        let chains = ChainSet::decompose(&workload.qep);
        let plan = AnnotatedPlan::annotate(chains, &workload.catalog, &params);

        let mut cm = CommManager::from_boxed(sources, queue_capacity, params.clone());
        if let Some(t) = workload.config.rate_change_threshold {
            cm.set_rate_change_threshold(t);
        }

        let mut arena = HashTableArena::new();
        for _ in 0..plan.chains.ht_count {
            arena.alloc();
        }

        let mut world = World {
            cpu: FifoResource::new("cpu"),
            disk: Disk::new(params.clone()),
            memory: MemoryManager::new(workload.config.memory_bytes),
            cm,
            arena,
            temps: Vec::new(),
            params,
        };
        // Pre-allocate temps for plan-level Mat nodes so TempId(i) == MatId(i).
        for _ in 0..plan.chains.mat_count {
            world.alloc_temp();
        }
        (world, plan)
    }

    /// Allocate a fresh temp relation with its own disk streams.
    pub fn alloc_temp(&mut self) -> TempId {
        let i = self.temps.len() as u32;
        self.temps.push(TempRelation::new(
            &self.params,
            StreamId(2 * i),
            StreamId(2 * i + 1),
        ));
        TempId(i)
    }

    /// Temp lookup.
    pub fn temp(&self, id: TempId) -> &TempRelation<Tuple> {
        &self.temps[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn build_wires_all_components() {
        let (w, _f5) = Workload::fig5();
        let (world, plan) = World::build(&w);
        assert_eq!(world.cm.len(), 6);
        assert_eq!(world.arena.len(), 5, "five joins, five hash tables");
        assert!(world.temps.is_empty(), "no plan-level mats in figure 5");
        assert_eq!(plan.chains.len(), 6);
        assert_eq!(world.memory.total(), 32 * 1024 * 1024);
    }

    #[test]
    fn alloc_temp_assigns_distinct_streams() {
        let (w, _) = Workload::fig5();
        let (mut world, _) = World::build(&w);
        let a = world.alloc_temp();
        let b = world.alloc_temp();
        assert_ne!(a, b);
        assert_eq!(world.temps.len(), 2);
    }

    #[test]
    fn same_workload_same_world_shape() {
        let (w, _) = Workload::fig5();
        let (w1, p1) = World::build(&w);
        let (w2, p2) = World::build(&w);
        assert_eq!(p1.chains.len(), p2.chains.len());
        assert_eq!(w1.cm.len(), w2.cm.len());
    }
}
