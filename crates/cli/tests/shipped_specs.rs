//! The spec files shipped under `examples/specs/` must stay loadable and
//! runnable — they are the CLI's documentation.

use dqs_core::DsePolicy;
use dqs_exec::spec::WorkloadSpec;
use dqs_exec::{run_workload, SeqPolicy, SpmPolicy};

fn load(name: &str) -> WorkloadSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs/");
    let text = std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("read {name}: {e}"));
    WorkloadSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

#[test]
fn star_join_runs_and_dse_wins() {
    let w = load("star_join.json").into_workload().unwrap();
    assert_eq!(w.catalog.len(), 4);
    let seq = run_workload(&w, SeqPolicy);
    let dse = run_workload(&w, DsePolicy::new());
    assert_eq!(seq.output_tuples, dse.output_tuples);
    // `customers` is 10x slower than the rest: the dynamic scheduler must
    // come out ahead.
    assert!(
        dse.response_time < seq.response_time,
        "DSE {} vs SEQ {}",
        dse.response_time,
        seq.response_time
    );
}

#[test]
fn slow_source_runs_under_every_strategy() {
    let w = load("slow_source.json").into_workload().unwrap();
    let seq = run_workload(&w, SeqPolicy);
    let dse = run_workload(&w, DsePolicy::new());
    assert_eq!(seq.output_tuples, dse.output_tuples);
    assert!(dse.response_time < seq.response_time);
}

#[test]
fn concurrent_spec_runs_and_fits_its_declared_memory() {
    // The spec shipped for `dqs submit` demos: three relations, two joins,
    // paced slowly enough that two submissions visibly interleave.
    let w = load("concurrent.json").into_workload().unwrap();
    assert_eq!(w.catalog.len(), 3);
    assert_eq!(w.config.memory_bytes, 32 << 20);
    let m = run_workload(&w, DsePolicy::new());
    assert!(m.output_tuples > 0);
    assert_eq!(m.memory_overflows, 0, "sized to fit its declared budget");
}

#[test]
fn skewed_sources_spec_triggers_mid_query_repermutation() {
    // Heterogeneous rates plus a bursty feed whose rate collapses during
    // its pauses: the drain order that is right at the start is wrong
    // mid-query, so SPM must re-permute at least once — and still deliver
    // SEQ's answer.
    let w = load("skewed_sources.json").into_workload().unwrap();
    let seq = run_workload(&w, SeqPolicy);
    let spm = run_workload(&w, SpmPolicy::new());
    assert_eq!(seq.output_tuples, spm.output_tuples);
    assert!(spm.rate_samples > 0, "observatory fed from arrivals");
    assert!(
        spm.permutations >= 1,
        "flaky_feed's pauses must flip the drain order (got {})",
        spm.permutations
    );
}

#[test]
fn wrong_estimates_spec_reflects_actuals() {
    let spec = load("wrong_estimates.json");
    let w = spec.into_workload().unwrap();
    // feeds claims 30 K but delivers 90 K; lookups claims 10 K, delivers 4 K.
    assert_eq!(w.catalog.cardinality(dqs_relop::RelId(0)), 30_000);
    assert_eq!(w.actual_cardinality(dqs_relop::RelId(0)), 90_000);
    assert_eq!(w.actual_cardinality(dqs_relop::RelId(1)), 4_000);
    let m = run_workload(&w, DsePolicy::new());
    assert!(m.output_tuples > 0);
}
