//! Run fingerprinting for the cross-driver parity suite.
//!
//! A fingerprint captures *everything* a run reports — every
//! [`RunMetrics`] field rendered into one canonical string, plus an
//! FNV-1a 64 hash over the byte stream the JSON-lines event sink emits.
//! Two engines produce the same fingerprint only if their metrics are
//! bit-identical *and* they emitted the same structured events with the
//! same payloads at the same virtual times.
//!
//! The `parity_gold` binary prints the golden table for the workloads in
//! [`parity_workloads`]; `tests/driver_parity.rs` holds the captured
//! constants and asserts the refactored engine still matches them.

use std::io::Write;

use dqs_core::lwb;
use dqs_exec::{combine, JsonLinesSink, RunMetrics, SingleQuery, Workload};
use dqs_plan::{Catalog, QepBuilder};
use dqs_sim::SimDuration;
use dqs_source::DelayModel;

use crate::runner::run_observed;
use crate::StrategyKind;

/// A [`Write`] sink that folds every byte into an FNV-1a 64 hash —
/// streaming, allocation-free, and stable across platforms.
#[derive(Debug)]
pub struct FnvWriter {
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl FnvWriter {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> FnvWriter {
        FnvWriter { hash: FNV_OFFSET }
    }

    /// The accumulated hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

impl Default for FnvWriter {
    fn default() -> Self {
        FnvWriter::new()
    }
}

impl Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Render every [`RunMetrics`] field into one canonical line. Any change
/// to any field — times in exact nanoseconds — changes the string.
pub fn metrics_signature(m: &RunMetrics) -> String {
    let qr: Vec<String> = m
        .query_responses
        .iter()
        .map(|(q, t)| format!("{q}:{}", t.as_nanos()))
        .collect();
    format!(
        "{} seed={} rt={} out={} cpu={} disk={} pw={} pr={} seeks={} stall={} \
         batches={} plans={} eoq={} rc={} to={} mo={} deg={} hw={} ev={} qr=[{}]",
        m.strategy,
        m.seed,
        m.response_time.as_nanos(),
        m.output_tuples,
        m.cpu_busy.as_nanos(),
        m.disk_busy.as_nanos(),
        m.pages_written,
        m.pages_read,
        m.seeks,
        m.stall_time.as_nanos(),
        m.batches,
        m.plans,
        m.end_of_qf,
        m.rate_changes,
        m.timeouts,
        m.memory_overflows,
        m.degradations,
        m.memory_high_water,
        m.events,
        qr.join(","),
    )
}

/// Execute `workload` under `strategy` with a hashing JSON-lines sink
/// attached; returns the canonical metrics line and the event-stream hash.
pub fn fingerprint_run(workload: &Workload, strategy: StrategyKind) -> (String, u64) {
    let mut sink = JsonLinesSink::new(FnvWriter::new());
    let m = run_observed(workload, strategy, &mut sink);
    let hash = sink.finish().expect("hashing sink cannot fail").hash();
    (metrics_signature(&m), hash)
}

/// Canonical line for the analytic LWB of `workload` (the fifth
/// "strategy" of the parity suite — it never executes, so its fingerprint
/// is its exact bound decomposition).
pub fn lwb_signature(workload: &Workload) -> String {
    let l = lwb(workload);
    format!(
        "LWB bound={} cpu={} retr={}",
        l.bound().as_nanos(),
        l.cpu_work.as_nanos(),
        l.max_retrieval.as_nanos()
    )
}

/// A bushy four-relation workload with one slow wrapper and one initial
/// delay longer than the stall timeout — exercises degradation (MF/CF),
/// rate-change interrupts, and the scrambling policy's timeout path.
pub fn mix_workload() -> Workload {
    let mut cat = Catalog::new();
    let a = cat.add("A", 3_000);
    let b = cat.add("B", 2_000);
    let c = cat.add("C", 1_500);
    let d = cat.add("D", 800);
    let mut qb = QepBuilder::new();
    let sa = qb.scan(a, 0.8);
    let sb = qb.scan(b, 1.0);
    let sc = qb.scan(c, 0.5);
    let sd = qb.scan(d, 1.0);
    let j1 = qb.hash_join(sa, sb, 1.5);
    let j2 = qb.hash_join(sc, sd, 2.0);
    let j3 = qb.hash_join(j1, j2, 1.0);
    Workload::new(cat, qb.finish(j3).unwrap())
        .with_delay(
            a,
            DelayModel::Uniform {
                mean: SimDuration::from_micros(300),
            },
        )
        .with_delay(
            c,
            DelayModel::Initial {
                initial: SimDuration::from_secs(3),
                mean: SimDuration::from_micros(20),
            },
        )
}

/// A two-query forest (§6 multi-query packing) so the parity suite also
/// covers multi-root scheduling and per-query response accounting.
pub fn forest_workload() -> Workload {
    let query = |card: u64| {
        let mut cat = Catalog::new();
        let a = cat.add("A", card);
        let b = cat.add("B", card / 2);
        let mut qb = QepBuilder::new();
        let sa = qb.scan(a, 1.0);
        let sb = qb.scan(b, 1.0);
        let j = qb.hash_join(sa, sb, 1.0);
        let w = Workload::new(cat, qb.finish(j).unwrap());
        SingleQuery::from_workload(&w)
    };
    combine(
        &[query(1_200), query(2_400)],
        dqs_exec::EngineConfig::default(),
    )
}

/// The parity matrix's workloads: figure 5, the degradation-heavy mix at
/// three seeds, and a two-query forest.
pub fn parity_workloads() -> Vec<(String, Workload)> {
    let mut v = Vec::new();
    let (fig5, _) = Workload::fig5();
    v.push(("fig5/s42".to_string(), fig5.with_seed(42)));
    for seed in [1u64, 7, 42] {
        v.push((format!("mix/s{seed}"), mix_workload().with_seed(seed)));
    }
    v.push(("forest/s7".to_string(), forest_workload().with_seed(7)));
    v
}
