//! Annotated plans.
//!
//! §3.3: the DQS consumes an *annotated* query execution plan containing
//! (i) the QEP with its blocking/pipelinable edges, (ii) per-operator memory
//! requirements `mem(op)`, and (iii) estimated operator result sizes. This
//! module derives those annotations for every pipeline chain from the
//! catalog's cardinalities, the chains' selectivities/fan-outs and the
//! Table 1 cost model.

use dqs_relop::{estimate_chain, OpSpec};
use dqs_sim::{SimDuration, SimParams};

use crate::chains::{ChainSet, ChainSink, ChainSource, PcId};
use crate::spec::Catalog;

/// Static per-chain estimates used by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainInfo {
    /// Estimated tuples entering the chain (`n_p` of §4.3 at the start of
    /// execution).
    pub source_card: f64,
    /// Average CPU instructions per source tuple (the basis of `c_p`).
    pub instr_per_tuple: f64,
    /// Chain output tuples per source tuple (0 for build-terminated chains).
    pub fanout_total: f64,
    /// Estimated tuples leaving the open end (query output or temp size).
    pub output_card: f64,
    /// Estimated tuples inserted into the hash table this chain builds
    /// (0 if the chain builds none).
    pub build_input_card: f64,
    /// `mem(p)`: bytes of query memory the chain needs — the size of the
    /// hash table it builds at the Table 1 tuple size (§4.1's
    /// M-schedulability input).
    pub mem_bytes: u64,
}

/// A chain decomposition plus its per-chain annotations.
#[derive(Debug, Clone)]
pub struct AnnotatedPlan {
    /// The decomposition.
    pub chains: ChainSet,
    /// Parallel to `chains.chains`.
    pub info: Vec<ChainInfo>,
}

impl AnnotatedPlan {
    /// Annotate `chains` using cardinalities from `catalog` and costs from
    /// `params`.
    pub fn annotate(chains: ChainSet, catalog: &Catalog, params: &SimParams) -> Self {
        let mut info: Vec<ChainInfo> = Vec::with_capacity(chains.len());
        // Output cardinality of each temp relation, filled as MF chains are
        // visited (writers precede readers in chain id order).
        let mut mat_output: Vec<f64> = vec![0.0; chains.mat_count as usize];

        for pc in &chains.chains {
            let source_card = match pc.source {
                ChainSource::Wrapper(rel) => catalog.cardinality(rel) as f64,
                ChainSource::Temp(m) => mat_output[m.0 as usize],
            };
            let est = estimate_chain(&pc.ops, params);
            let output_card = source_card * est.fanout_total;
            // Tuples reaching a terminal Build = source card × fan-out of
            // everything before the Build op.
            let build_input_card = if matches!(pc.sink, ChainSink::Build(_)) {
                let prefix: &[OpSpec] = &pc.ops[..pc.ops.len() - 1];
                source_card * estimate_chain(prefix, params).fanout_total
            } else {
                0.0
            };
            if let ChainSink::Mat(m) = pc.sink {
                mat_output[m.0 as usize] = output_card;
            }
            let mem_bytes = (build_input_card.ceil() as u64) * params.tuple_bytes as u64;
            info.push(ChainInfo {
                source_card,
                instr_per_tuple: est.instr_per_source_tuple,
                fanout_total: est.fanout_total,
                output_card,
                build_input_card,
                mem_bytes,
            });
        }
        AnnotatedPlan { chains, info }
    }

    /// Annotation of chain `p`.
    pub fn info(&self, p: PcId) -> &ChainInfo {
        &self.info[p.0 as usize]
    }

    /// `c_p`: average processing time of one source tuple of chain `p`
    /// (§4.3), from the instruction estimate and the CPU speed.
    pub fn per_tuple_cost(&self, p: PcId, params: &SimParams) -> SimDuration {
        let instr = self.info(p).instr_per_tuple;
        SimDuration::from_nanos((instr * 1_000.0 / params.cpu_mips as f64).round() as u64)
    }

    /// Total estimated CPU time to process every chain (a component of the
    /// analytic lower bound LWB, §5.1.2).
    pub fn total_cpu_estimate(&self, params: &SimParams) -> SimDuration {
        let total_instr: f64 = self
            .info
            .iter()
            .map(|i| i.source_card * i.instr_per_tuple)
            .sum();
        SimDuration::from_nanos((total_instr * 1_000.0 / params.cpu_mips as f64).round() as u64)
    }

    /// Sum of all hash-table memory the plan needs if everything were
    /// resident simultaneously (worst case for M-schedulability).
    pub fn total_ht_bytes(&self) -> u64 {
        self.info.iter().map(|i| i.mem_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qep::QepBuilder;

    fn setup() -> (Catalog, AnnotatedPlan, SimParams) {
        let params = SimParams::default();
        let mut cat = Catalog::new();
        let a = cat.add("A", 1_000);
        let b = cat.add("B", 2_000);
        let c = cat.add("C", 4_000);
        let mut qb = QepBuilder::new();
        let sa = qb.scan(a, 1.0);
        let sb = qb.scan(b, 0.5);
        let j1 = qb.hash_join(sa, sb, 2.0);
        let sc = qb.scan(c, 1.0);
        let j2 = qb.hash_join(j1, sc, 1.0);
        let qep = qb.finish(j2).unwrap();
        let chains = ChainSet::decompose(&qep);
        let plan = AnnotatedPlan::annotate(chains, &cat, &params);
        (cat, plan, params)
    }

    #[test]
    fn source_cards_come_from_catalog() {
        let (_c, plan, _p) = setup();
        assert_eq!(plan.info(PcId(0)).source_card, 1_000.0);
        assert_eq!(plan.info(PcId(1)).source_card, 2_000.0);
        assert_eq!(plan.info(PcId(2)).source_card, 4_000.0);
    }

    #[test]
    fn build_memory_uses_tuple_size() {
        let (_c, plan, _p) = setup();
        // p0 builds HT0 from all 1000 A tuples: 1000 × 40 B.
        assert_eq!(plan.info(PcId(0)).mem_bytes, 40_000);
        // p1: 2000 × 0.5 (scan sel) × 2.0 (join fanout) = 2000 into HT1.
        assert_eq!(plan.info(PcId(1)).build_input_card, 2_000.0);
        assert_eq!(plan.info(PcId(1)).mem_bytes, 80_000);
        // p2 is the output chain: no build memory.
        assert_eq!(plan.info(PcId(2)).mem_bytes, 0);
    }

    #[test]
    fn output_chain_estimates_result_size() {
        let (_c, plan, _p) = setup();
        // p2: 4000 × fanout 1.0 = 4000 result tuples.
        assert_eq!(plan.info(PcId(2)).output_card, 4_000.0);
        assert_eq!(plan.info(PcId(0)).output_card, 0.0, "build sink emits none");
    }

    #[test]
    fn per_tuple_cost_matches_cost_model() {
        let (_c, plan, params) = setup();
        // p0: Select(1.0)=100 + Build=100 → 200 instr = 2 µs at 100 MIPS.
        assert_eq!(
            plan.per_tuple_cost(PcId(0), &params),
            SimDuration::from_micros(2)
        );
    }

    #[test]
    fn mat_chain_annotations_flow_through_temp() {
        let params = SimParams::default();
        let mut cat = Catalog::new();
        let a = cat.add("A", 1_000);
        let b = cat.add("B", 10);
        let mut qb = QepBuilder::new();
        let sa = qb.scan(a, 0.5);
        let m = qb.mat(sa);
        let sb = qb.scan(b, 1.0);
        let j = qb.hash_join(sb, m, 3.0);
        let qep = qb.finish(j).unwrap();
        let plan = AnnotatedPlan::annotate(ChainSet::decompose(&qep), &cat, &params);
        // MF chain (id 1): 1000 × 0.5 = 500 tuples into the temp.
        assert_eq!(plan.info(PcId(1)).output_card, 500.0);
        // CF chain (id 2) reads those 500 and probes with fanout 3.
        assert_eq!(plan.info(PcId(2)).source_card, 500.0);
        assert_eq!(plan.info(PcId(2)).output_card, 1_500.0);
    }

    #[test]
    fn totals_aggregate_chains() {
        let (_c, plan, params) = setup();
        assert_eq!(plan.total_ht_bytes(), 40_000 + 80_000);
        assert!(plan.total_cpu_estimate(&params) > SimDuration::ZERO);
        assert_eq!(plan.info(PcId(2)).source_card, 4_000.0);
    }
}
