//! Cross-driver parity suite for the sans-io refactor.
//!
//! The golden table below was captured (via the `parity_gold` binary) from
//! the engine *before* the driver layer existed, when the event loop was
//! hard-wired to the `EventQueue`. Each row fingerprints one run
//! completely: a canonical rendering of every `RunMetrics` field plus an
//! FNV-1a-64 hash over the full JSON-lines event stream. The suite asserts
//! that the engine running on `SimDriver` still reproduces every byte —
//! the refactor moved the substrate behind a trait without perturbing a
//! single event, cost charge, or RNG draw.
//!
//! The wall-clock half exercises `RealTimeDriver`: wrappers paced by
//! microsecond deadlines must complete a join and produce the same output
//! cardinality as the simulated run for the same seed (the deterministic
//! parts — payloads and join fan-out — are substrate-independent; only
//! timing differs), and the DQP's work is charged what it took rather
//! than Table 1's modelled instruction counts.

use dqs_bench::fingerprint::{fingerprint_run, lwb_signature, parity_workloads};
use dqs_bench::StrategyKind;
use dqs_exec::spec::WorkloadSpec;
use dqs_exec::{run_workload, run_workload_realtime, SeqPolicy, Workload};
use dqs_plan::{Catalog, QepBuilder};
use dqs_sim::SimDuration;
use dqs_source::DelayModel;

const GOLDEN: &[(&str, &str, &str, u64)] = &[
    ("fig5/s42", "SEQ", "SEQ seed=42 rt=11479149500 out=90000 cpu=4530000000 disk=0 pw=0 pr=0 seeks=0 stall=6949169500 batches=411801 plans=7 eoq=6 rc=6 to=0 mo=0 deg=0 hw=10800000 ev=988801 qr=[0:11479149500]", 0x858152b64beeb860),
    ("fig5/s42", "MA", "MA seed=42 rt=12757489065 out=90000 cpu=5276920000 disk=10107246112 pw=2832 pr=2832 seeks=434 stall=2243365350 batches=71680 plans=13 eoq=12 rc=6 to=0 mo=0 deg=6 hw=10800000 ev=650501 qr=[0:12757489065]", 0x2056a11c8d83fed7),
    ("fig5/s42", "SCR", "SCR seed=42 rt=11479149500 out=90000 cpu=4530000000 disk=0 pw=0 pr=0 seeks=0 stall=6949169500 batches=411801 plans=7 eoq=6 rc=6 to=0 mo=0 deg=0 hw=10800000 ev=988801 qr=[0:11479149500]", 0x858152b64beeb860),
    ("fig5/s42", "DSE", "DSE seed=42 rt=7631455346 out=90000 cpu=5052508000 disk=7230449346 pw=1981 pr=1981 seeks=337 stall=2579057346 batches=14045 plans=9 eoq=8 rc=6 to=0 mo=0 deg=4 hw=11880000 ev=592305 qr=[0:7631455346]", 0x379914fbb4ad875c),
    ("fig5/s42", "lwb", "LWB bound=4530000000 cpu=4530000000 retr=3600000000", 0x0),
    ("mix/s1", "SEQ", "SEQ seed=1 rt=3035086849 out=1600 cpu=66950000 disk=0 pw=0 pr=0 seeks=0 stall=2968493147 batches=4614 plans=8 eoq=4 rc=3 to=1 mo=0 deg=0 hw=216000 ev=11915 qr=[0:3035086849]", 0x9332f4ac816624c5),
    ("mix/s1", "MA", "MA seed=1 rt=3103181177 out=1600 cpu=76470000 disk=297034642 pw=37 pr=37 seeks=12 stall=2921740185 batches=4120 plans=11 eoq=8 rc=4 to=1 mo=0 deg=4 hw=216000 ev=11427 qr=[0:3103181177]", 0x6c19731299bcb596),
    ("mix/s1", "SCR", "SCR seed=1 rt=3035086849 out=1600 cpu=66950000 disk=0 pw=0 pr=0 seeks=0 stall=2968493147 batches=4614 plans=8 eoq=4 rc=3 to=1 mo=0 deg=0 hw=216000 ev=11915 qr=[0:3035086849]", 0x9332f4ac816624c5),
    ("mix/s1", "DSE", "DSE seed=1 rt=3034286849 out=1600 cpu=70590000 disk=136229324 pw=14 pr=14 seeks=6 stall=2963996849 batches=4545 plans=10 eoq=6 rc=3 to=1 mo=0 deg=2 hw=216000 ev=11849 qr=[0:3034286849]", 0x70f87388d64e783c),
    ("mix/s1", "lwb", "LWB bound=3029979000 cpu=66950000 retr=3029979000", 0x0),
    ("mix/s7", "SEQ", "SEQ seed=7 rt=3035345226 out=1600 cpu=66950000 disk=0 pw=0 pr=0 seeks=0 stall=2968648112 batches=4602 plans=9 eoq=4 rc=4 to=1 mo=0 deg=0 hw=216000 ev=11903 qr=[0:3035345226]", 0x6c13f05b54f92cf9),
    ("mix/s7", "MA", "MA seed=7 rt=3103439554 out=1600 cpu=76470000 disk=297034642 pw=37 pr=37 seeks=12 stall=2921938562 batches=4122 plans=11 eoq=8 rc=4 to=1 mo=0 deg=4 hw=216000 ev=11429 qr=[0:3103439554]", 0x5bc6d439b02aee4a),
    ("mix/s7", "SCR", "SCR seed=7 rt=3035345226 out=1600 cpu=66950000 disk=0 pw=0 pr=0 seeks=0 stall=2968648112 batches=4602 plans=9 eoq=4 rc=4 to=1 mo=0 deg=0 hw=216000 ev=11903 qr=[0:3035345226]", 0x6c13f05b54f92cf9),
    ("mix/s7", "DSE", "DSE seed=7 rt=3034545226 out=1600 cpu=70590000 disk=136229324 pw=14 pr=14 seeks=6 stall=2964255226 batches=4537 plans=10 eoq=6 rc=3 to=1 mo=0 deg=2 hw=216000 ev=11841 qr=[0:3034545226]", 0xd872871527b451ec),
    ("mix/s7", "lwb", "LWB bound=3029979000 cpu=66950000 retr=3029979000", 0x0),
    ("mix/s42", "SEQ", "SEQ seed=42 rt=3034307159 out=1600 cpu=66950000 disk=0 pw=0 pr=0 seeks=0 stall=2967697755 batches=4578 plans=8 eoq=4 rc=3 to=1 mo=0 deg=0 hw=216000 ev=11879 qr=[0:3034307159]", 0x24a9d54c3bc9ba89),
    ("mix/s42", "MA", "MA seed=42 rt=3102401487 out=1600 cpu=76470000 disk=297034642 pw=37 pr=37 seeks=12 stall=2920900495 batches=4103 plans=11 eoq=8 rc=4 to=1 mo=0 deg=4 hw=216000 ev=11410 qr=[0:3102401487]", 0x51dc6f6f561cb1b1),
    ("mix/s42", "SCR", "SCR seed=42 rt=3034307159 out=1600 cpu=66950000 disk=0 pw=0 pr=0 seeks=0 stall=2967697755 batches=4578 plans=8 eoq=4 rc=3 to=1 mo=0 deg=0 hw=216000 ev=11879 qr=[0:3034307159]", 0x24a9d54c3bc9ba89),
    ("mix/s42", "DSE", "DSE seed=42 rt=3033507159 out=1600 cpu=70590000 disk=136229324 pw=14 pr=14 seeks=6 stall=2963202801 batches=4509 plans=10 eoq=6 rc=3 to=1 mo=0 deg=2 hw=216000 ev=11813 qr=[0:3033507159]", 0x7ef89f09d9113406),
    ("mix/s42", "lwb", "LWB bound=3029979000 cpu=66950000 retr=3029979000", 0x0),
    ("forest/s7", "SEQ", "SEQ seed=7 rt=70224500 out=1800 cpu=47700000 disk=0 pw=0 pr=0 seeks=0 stall=22544500 batches=1304 plans=5 eoq=4 rc=4 to=0 mo=0 deg=0 hw=96000 ev=6704 qr=[0:30860000,1:70224500]", 0xfb44d9686031eed7),
    ("forest/s7", "MA", "MA seed=7 rt=299239982 out=1800 cpu=54720000 disk=259727982 pw=27 pr=27 seeks=10 stall=55603328 batches=523 plans=9 eoq=8 rc=4 to=0 mo=0 deg=4 hw=96000 ev=5928 qr=[0:242742654,1:299239982]", 0x6a5a32bfa8a0acb8),
    ("forest/s7", "SCR", "SCR seed=7 rt=70224500 out=1800 cpu=47700000 disk=0 pw=0 pr=0 seeks=0 stall=22544500 batches=1304 plans=5 eoq=4 rc=4 to=0 mo=0 deg=0 hw=96000 ev=6704 qr=[0:30860000,1:70224500]", 0xfb44d9686031eed7),
    ("forest/s7", "DSE", "DSE seed=7 rt=100169996 out=1800 cpu=49260000 disk=60383996 pw=6 pr=6 seeks=2 stall=50929996 batches=502 plans=6 eoq=5 rc=4 to=0 mo=0 deg=2 hw=144000 ev=5903 qr=[0:44244000,1:100169996]", 0x57e37885715342c1),
    ("forest/s7", "lwb", "LWB bound=48000000 cpu=47700000 retr=48000000", 0x0),
];

fn golden(workload: &str, strategy: &str) -> (&'static str, u64) {
    GOLDEN
        .iter()
        .find(|(w, s, _, _)| *w == workload && *s == strategy)
        .map(|&(_, _, sig, hash)| (sig, hash))
        .unwrap_or_else(|| panic!("no golden row for {workload}/{strategy}"))
}

/// Every strategy × workload × seed through `SimDriver` reproduces the
/// pre-refactor engine byte for byte: the full metrics signature AND the
/// FNV hash of the complete JSON event stream.
#[test]
fn sim_driver_is_bit_identical_to_pre_refactor_engine() {
    let workloads = parity_workloads();
    assert_eq!(
        workloads.len() * (StrategyKind::WITH_SCR.len() + 1),
        GOLDEN.len(),
        "parity matrix and golden table diverged"
    );
    for (name, w) in &workloads {
        for s in StrategyKind::WITH_SCR {
            let (want_sig, want_hash) = golden(name, s.name());
            let (sig, hash) = fingerprint_run(w, s);
            assert_eq!(sig, want_sig, "metrics drifted: {name}/{}", s.name());
            assert_eq!(
                hash,
                want_hash,
                "event stream drifted: {name}/{} (metrics identical — \
                 an intermediate event changed)",
                s.name()
            );
        }
        let (want_lwb, _) = golden(name, "lwb");
        assert_eq!(lwb_signature(w), want_lwb, "lower bound drifted: {name}");
    }
}

/// SPM has no pre-refactor golden (the strategy postdates the refactor),
/// so its parity contract is stated directly: on every golden workload it
/// reproduces SEQ's answer cardinality, and two runs fingerprint
/// bit-identically — metrics line and full event-stream hash.
#[test]
fn spm_matches_seq_answers_and_fingerprints_deterministically() {
    for (name, w) in &parity_workloads() {
        let (seq_sig, _) = fingerprint_run(w, StrategyKind::Seq);
        let (a_sig, a_hash) = fingerprint_run(w, StrategyKind::Spm);
        let (b_sig, b_hash) = fingerprint_run(w, StrategyKind::Spm);
        assert_eq!(a_sig, b_sig, "{name}: SPM metrics not deterministic");
        assert_eq!(a_hash, b_hash, "{name}: SPM event stream not deterministic");
        let out = |sig: &str| {
            sig.split(" out=")
                .nth(1)
                .and_then(|s| s.split(' ').next())
                .map(str::to_owned)
                .expect("signature carries out=")
        };
        assert_eq!(out(&a_sig), out(&seq_sig), "{name}: SPM answer diverged");
    }
}

/// A small join workload with microsecond inter-tuple gaps, for the
/// wall-clock smoke test (finishes in tens of milliseconds of real time).
fn smoke_workload() -> Workload {
    let mut cat = Catalog::new();
    let a = cat.add("A", 600);
    let b = cat.add("B", 900);
    let mut qb = QepBuilder::new();
    let sa = qb.scan(a, 0.8);
    let sb = qb.scan(b, 1.0);
    let j = qb.hash_join(sa, sb, 1.5);
    Workload::new(cat, qb.finish(j).unwrap())
        .with_all_delays(DelayModel::Constant {
            w: SimDuration::from_micros(2),
        })
        .with_delay(
            a,
            DelayModel::Uniform {
                mean: SimDuration::from_micros(4),
            },
        )
}

/// `RealTimeDriver` completes the query on the wall clock, really sleeping its delays, and
/// the substrate-independent outcome — output cardinality — matches the
/// simulated run of the same workload and seed.
#[test]
fn real_time_driver_completes_with_sim_cardinality() {
    let w = smoke_workload();
    let sim = run_workload(&w, SeqPolicy);
    let rt = run_workload_realtime(&w, SeqPolicy).expect("real-time run completes");
    assert_eq!(rt.output_tuples, sim.output_tuples);
    assert!(rt.output_tuples > 0);
    assert!(
        rt.response_time > SimDuration::ZERO,
        "wall-clock run must take real time"
    );
    assert!(rt.events > 0);
}

/// Real-time determinism claim, narrowly: two real-time runs of the same
/// seed agree with each other on cardinality too (payloads and fan-out
/// rounding do not depend on wall-clock interleaving).
#[test]
fn real_time_driver_cardinality_is_seed_stable() {
    let w = smoke_workload();
    let r1 = run_workload_realtime(&w, SeqPolicy).expect("first run");
    let r2 = run_workload_realtime(&w, SeqPolicy).expect("second run");
    assert_eq!(r1.output_tuples, r2.output_tuples);
}

/// On the wall clock a batch is done when its work returns. A zero-delay
/// join whose messages are free is pure DQP work, which a 10-MIPS model
/// prices at ~100 ms; the real work takes a small fraction of that (even
/// unoptimised), and gives the same answer.
#[test]
fn real_time_driver_charges_measured_cpu_not_the_model() {
    let mut w = WorkloadSpec::from_json(include_str!("../examples/specs/quickstart.json"))
        .and_then(WorkloadSpec::into_workload)
        .expect("quickstart spec")
        .with_all_delays(DelayModel::Constant {
            w: SimDuration::ZERO,
        });
    // Message costs keep the model's price on both drivers; with them at
    // zero, what is left of the modelled response is the batches.
    w.config.params.instr_per_message = 0;
    w.config.params.cpu_mips = 10;
    let sim = run_workload(&w, SeqPolicy);
    let rt = run_workload_realtime(&w, SeqPolicy).expect("real-time run completes");
    assert_eq!(rt.output_tuples, sim.output_tuples);
    assert!(
        rt.response_time < sim.response_time / 4,
        "wall-clock response {} is not below a quarter of the modelled {}",
        rt.response_time,
        sim.response_time
    );
}
