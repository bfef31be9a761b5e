//! Experiment definitions — one function per table/figure of the paper
//! plus the ablations of `DESIGN.md`. Each returns the printable report the
//! `repro` binary emits; the integration tests assert the qualitative
//! claims on the same data.

use std::fmt::Write as _;

use dqs_core::{lwb, DseConfig, DsePolicy};
use dqs_exec::{run_workload, Workload};
use dqs_plan::{AnnotatedPlan, ChainSet, Fig5};
use dqs_sim::{stats, SimDuration, SimParams};
use dqs_source::DelayModel;

use crate::runner::{run_once, run_repeated, StrategyKind};

/// One row of a Figure 6/7-style sweep.
#[derive(Debug, Clone, Copy)]
pub struct SlowdownRow {
    /// Total retrieval time of the slowed relation (the X axis), seconds.
    pub slowdown: f64,
    /// SEQ mean response, seconds.
    pub seq: f64,
    /// MA mean response, seconds.
    pub ma: f64,
    /// DSE mean response, seconds.
    pub dse: f64,
    /// The analytic lower bound, seconds.
    pub lwb: f64,
}

/// One point of the Figure 8 sweep.
#[derive(Debug, Clone, Copy)]
pub struct GainRow {
    /// The uniform `w_min` applied to every wrapper, microseconds.
    pub w_min_us: f64,
    /// SEQ mean response, seconds.
    pub seq: f64,
    /// DSE mean response, seconds.
    pub dse: f64,
    /// Gain of DSE over SEQ, percent.
    pub gain_pct: f64,
}

/// The X-axis points (seconds to retrieve the slowed relation) used for the
/// Figure 6/7 sweeps, before clamping to the relation's natural retrieval
/// time.
pub const SLOWDOWN_POINTS: [f64; 8] = [0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0];

/// The `w_min` values (µs) of the Figure 8 sweep.
pub const FIG8_WMIN_US: [u64; 12] = [4, 8, 12, 16, 20, 25, 30, 35, 40, 50, 60, 80];

/// Quick sanity row: the Figure 5 workload at `w_min` under all three
/// strategies plus LWB.
pub fn headline() -> String {
    let (w, _f5) = Workload::fig5();
    let bound = lwb(&w);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "LWB: {:.3}s (cpu {:.3}s, max retrieval {:.3}s)",
        bound.bound().as_secs_f64(),
        bound.cpu_work.as_secs_f64(),
        bound.max_retrieval.as_secs_f64()
    );
    let runs = StrategyKind::ALL.map(|s| (s, run_once(&w, s)));
    let seq = &runs[0].1;
    for (s, m) in &runs {
        let gain = match s {
            StrategyKind::Seq => String::new(),
            _ => format!("  ({:+.1}% vs SEQ)", m.gain_over(seq) * 100.0),
        };
        let _ = writeln!(
            out,
            "{:4}: {:8.3}s  out={} stall={:.3}s cpu={:.3}s disk={:.3}s w={} r={} seeks={} degr={} plans={}{gain}",
            s.name(),
            m.response_secs(),
            m.output_tuples,
            m.stall_time.as_secs_f64(),
            m.cpu_busy.as_secs_f64(),
            m.disk_busy.as_secs_f64(),
            m.pages_written,
            m.pages_read,
            m.seeks,
            m.degradations,
            m.plans,
        );
    }
    out
}

/// Table 1: print the simulation parameters in force.
pub fn table1() -> String {
    let p = SimParams::default();
    let mut out = String::from("Table 1: Simulation parameters\n");
    let rows: Vec<(String, String)> = vec![
        ("CPU Speed".into(), format!("{} Mips", p.cpu_mips)),
        (
            "Disk Latency - Seek Time - Transfer Rate".into(),
            format!(
                "{} ms - {} ms - {} MB/s",
                p.disk_latency.as_nanos() / 1_000_000,
                p.disk_seek.as_nanos() / 1_000_000,
                p.disk_transfer_bytes_per_sec / 1_000_000
            ),
        ),
        (
            "I/O Cache Size".into(),
            format!("{} pages", p.io_cache_pages),
        ),
        (
            "Perform an I/O".into(),
            format!("{} Instr.", p.instr_per_io),
        ),
        ("Number of Local Disks".into(), format!("{}", p.num_disks)),
        (
            "Tuple Size - Page Size".into(),
            format!("{} bytes - {} Kb", p.tuple_bytes, p.page_bytes / 1024),
        ),
        (
            "Move a Tuple".into(),
            format!("{} Inst.", p.instr_move_tuple),
        ),
        (
            "Search for Match in Hash Table".into(),
            format!("{} Inst.", p.instr_hash_search),
        ),
        (
            "Produce a Result Tuple".into(),
            format!("{} Inst.", p.instr_produce_tuple),
        ),
        (
            "Network Bandwidth".into(),
            format!("{} Mbs", p.network_bits_per_sec / 1_000_000),
        ),
        (
            "Send/Receive a Message".into(),
            format!("{} Inst.", p.instr_per_message),
        ),
    ];
    for (k, v) in rows {
        let _ = writeln!(out, "  {k:44} {v}");
    }
    let _ = writeln!(
        out,
        "  (modelling additions: {} pages/message, read-ahead {} batches)",
        p.pages_per_message, p.readahead_batches
    );
    out
}

/// Figure 5: the experiment QEP and its chain decomposition.
pub fn figure5() -> String {
    let f5 = Fig5::build();
    let mut out = String::from("Figure 5: QEP used for the experiments\n\n");
    let cat = f5.catalog.clone();
    out.push_str(&f5.qep.render(&|r| cat.name(r).to_string()));
    out.push_str("\nRelations:\n");
    for (_, spec) in f5.catalog.iter() {
        let _ = writeln!(out, "  {}: {} tuples", spec.name, spec.cardinality);
    }
    out.push_str("\nPipeline chains (iterator order):\n");
    let params = SimParams::default();
    let chains = ChainSet::decompose(&f5.qep);
    let plan = AnnotatedPlan::annotate(chains, &f5.catalog, &params);
    for pc in &plan.chains.chains {
        let info = plan.info(pc.id);
        let blocked: Vec<u32> = pc.blocked_by.iter().map(|p| p.0).collect();
        let _ = writeln!(
            out,
            "  p{}: source={:?} ops={} sink={:?} blocked_by={:?} n={} c_p={:.1}µs mem={}KB",
            pc.id.0,
            pc.source,
            pc.ops.len(),
            pc.sink,
            blocked,
            info.source_card as u64,
            plan.per_tuple_cost(pc.id, &params).as_micros_f64(),
            info.mem_bytes / 1024,
        );
    }
    out
}

/// Build the Figure 6/7 workload: relation `letter` slowed so its total
/// retrieval takes `slowdown_secs`, everything else at `w_min`.
pub fn slowdown_workload(letter: char, slowdown_secs: f64) -> Workload {
    let (base, f5) = Workload::fig5();
    let rel = f5
        .rel_by_letter(letter)
        .unwrap_or_else(|| panic!("unknown relation {letter}"));
    let n = base.catalog.cardinality(rel);
    let natural = n as f64 * base.config.params.w_min().as_secs_f64();
    let total = slowdown_secs.max(natural);
    let mean = SimDuration::from_secs_f64(total / n as f64);
    base.with_delay(rel, DelayModel::Uniform { mean })
}

/// Figures 6 & 7 (and the §5.2 "each input relation" variants): slow one
/// relation, sweep its total retrieval time, measure all strategies.
pub fn slowdown_sweep(letter: char) -> Vec<SlowdownRow> {
    let mut rows = Vec::new();
    let mut seen = Vec::new();
    for &x in &SLOWDOWN_POINTS {
        let w = slowdown_workload(letter, x);
        let rel = Fig5::build().rel_by_letter(letter).unwrap();
        let n = w.catalog.cardinality(rel);
        let actual = w.delays[rel.0 as usize].expected_total(n).as_secs_f64();
        // Clamping to the natural retrieval time can duplicate points.
        if seen.iter().any(|&s: &f64| (s - actual).abs() < 1e-9) {
            continue;
        }
        seen.push(actual);
        let (seq, _, _) = run_repeated(&w, StrategyKind::Seq);
        let (ma, _, _) = run_repeated(&w, StrategyKind::Ma);
        let (dse, _, _) = run_repeated(&w, StrategyKind::Dse);
        rows.push(SlowdownRow {
            slowdown: actual,
            seq,
            ma,
            dse,
            lwb: lwb(&w).bound().as_secs_f64(),
        });
    }
    rows
}

/// Render a slowdown sweep as CSV (for plotting).
pub fn slowdown_csv(rows: &[SlowdownRow]) -> String {
    let mut out = String::from("slowdown_s,seq_s,ma_s,dse_s,lwb_s\n");
    for r in rows {
        let _ = writeln!(out, "{},{},{},{},{}", r.slowdown, r.seq, r.ma, r.dse, r.lwb);
    }
    out
}

/// Render the Figure 8 sweep as CSV (for plotting).
pub fn figure8_csv(rows: &[GainRow]) -> String {
    let mut out = String::from("w_min_us,seq_s,dse_s,gain_pct\n");
    for r in rows {
        let _ = writeln!(out, "{},{},{},{}", r.w_min_us, r.seq, r.dse, r.gain_pct);
    }
    out
}

/// Render a slowdown sweep as the figure's data table.
pub fn render_slowdown(letter: char, rows: &[SlowdownRow]) -> String {
    let fig = match letter.to_ascii_uppercase() {
        'A' => "Figure 6".to_string(),
        'F' => "Figure 7".to_string(),
        l => format!("Figure 6-style sweep ({l})"),
    };
    let mut out = format!(
        "{fig}: One Slowed-down Relation ({}) — response time [s]\n",
        letter.to_ascii_uppercase()
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>8} {:>8} {:>8}",
        "slowdown", "SEQ", "MA", "DSE", "LWB"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10.2} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            r.slowdown, r.seq, r.ma, r.dse, r.lwb
        );
    }
    out
}

/// Figure 8: every wrapper paced at an increasing `w_min`; DSE's gain over
/// SEQ.
pub fn figure8() -> Vec<GainRow> {
    let mut rows = Vec::new();
    for &us in &FIG8_WMIN_US {
        let (base, _f5) = Workload::fig5();
        let w = base.with_all_delays(DelayModel::Uniform {
            mean: SimDuration::from_micros(us),
        });
        let (seq, _, _) = run_repeated(&w, StrategyKind::Seq);
        let (dse, _, _) = run_repeated(&w, StrategyKind::Dse);
        rows.push(GainRow {
            w_min_us: us as f64,
            seq,
            dse,
            gain_pct: (seq - dse) / seq * 100.0,
        });
    }
    rows
}

/// Render the Figure 8 series.
pub fn render_figure8(rows: &[GainRow]) -> String {
    let mut out = String::from("Figure 8: Several Slowed-down Relations — gain of DSE over SEQ\n");
    let _ = writeln!(
        out,
        "{:>9} {:>9} {:>9} {:>8}",
        "w_min[µs]", "SEQ[s]", "DSE[s]", "gain[%]"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>9.0} {:>9.3} {:>9.3} {:>8.1}",
            r.w_min_us, r.seq, r.dse, r.gain_pct
        );
    }
    out
}

/// Ablation A1: sensitivity to the benefit-materialization threshold.
pub fn ablate_bmt() -> String {
    let mut out = String::from("Ablation A1: bmt sweep (relation A slowed to 6 s)\n");
    let _ = writeln!(out, "{:>6} {:>9} {:>6}", "bmt", "DSE[s]", "degr");
    let w = slowdown_workload('A', 6.0);
    for bmt in [0.25, 0.5, 1.0, 2.0, 4.0, 1e9] {
        let mut secs = Vec::new();
        let mut degr = 0;
        for &seed in &crate::runner::SEEDS {
            let wl = w.clone().with_seed(seed);
            let m = run_workload(
                &wl,
                DsePolicy::with_config(DseConfig {
                    bmt,
                    ..DseConfig::default()
                }),
            );
            degr = m.degradations;
            secs.push(m.response_secs());
        }
        let label = if bmt >= 1e9 {
            "∞".to_string()
        } else {
            format!("{bmt}")
        };
        let _ = writeln!(out, "{:>6} {:>9.3} {:>6}", label, stats::mean(&secs), degr);
    }
    out
}

/// Ablation A2: DQP batch size (§3.2 footnote 1).
pub fn ablate_batch() -> String {
    let mut out = String::from("Ablation A2: DQP batch size (figure-5 workload at w_min)\n");
    let _ = writeln!(out, "{:>7} {:>9} {:>9}", "batch", "DSE[s]", "batches");
    for batch in [16usize, 32, 64, 128, 256, 512, 1024] {
        let (mut w, _) = Workload::fig5();
        w.config.batch_size = batch;
        // The flow-control window must hold at least one batch.
        w.config.queue_capacity = w.config.queue_capacity.max(batch);
        let m = run_once(&w, StrategyKind::Dse);
        let _ = writeln!(
            out,
            "{:>7} {:>9.3} {:>9}",
            batch,
            m.response_secs(),
            m.batches
        );
    }
    out
}

/// Ablation A3: communication queue capacity (the window protocol, §2.1).
pub fn ablate_queue() -> String {
    let mut out = String::from("Ablation A3: queue capacity (relation A slowed to 6 s)\n");
    let _ = writeln!(out, "{:>7} {:>9} {:>9}", "queue", "SEQ[s]", "DSE[s]");
    for cap in [256usize, 512, 816, 2048, 8192, 32768] {
        let mut w = slowdown_workload('A', 6.0);
        w.config.queue_capacity = cap.max(w.config.batch_size);
        let (seq, _, _) = run_repeated(&w, StrategyKind::Seq);
        let (dse, _, _) = run_repeated(&w, StrategyKind::Dse);
        let _ = writeln!(out, "{:>7} {:>9.3} {:>9.3}", cap, seq, dse);
    }
    out
}

/// Ablation A6: DSE with degradation and/or MF-cancellation disabled, on
/// both single-slowed-relation scenarios (A gates half the plan; F keeps
/// delivering long after its chain becomes schedulable, which is where MF
/// cancellation pays).
pub fn ablate_dse_features() -> String {
    let mut out =
        String::from("Ablation A6: DSE feature knock-outs (one relation slowed to 6 s)\n");
    let _ = writeln!(
        out,
        "{:>24} {:>10} {:>10}",
        "variant", "A-slow[s]", "F-slow[s]"
    );
    let wa = slowdown_workload('A', 6.0);
    let wf = slowdown_workload('F', 6.0);
    let variants: [(&str, DseConfig); 4] = [
        ("full DSE", DseConfig::default()),
        (
            "no degradation",
            DseConfig {
                degrade: false,
                ..DseConfig::default()
            },
        ),
        (
            "no MF cancellation",
            DseConfig {
                cancel_mf: false,
                ..DseConfig::default()
            },
        ),
        (
            "reorder only (neither)",
            DseConfig {
                degrade: false,
                cancel_mf: false,
                ..DseConfig::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        let mut cols = Vec::new();
        for w in [&wa, &wf] {
            let mut secs = Vec::new();
            for &seed in &crate::runner::SEEDS {
                let wl = w.clone().with_seed(seed);
                let m = run_workload(&wl, DsePolicy::with_config(cfg.clone()));
                secs.push(m.response_secs());
            }
            cols.push(stats::mean(&secs));
        }
        let _ = writeln!(out, "{:>24} {:>10.3} {:>10.3}", name, cols[0], cols[1]);
    }
    // SEQ reference.
    let (seq_a, _, _) = run_repeated(&wa, StrategyKind::Seq);
    let (seq_f, _, _) = run_repeated(&wf, StrategyKind::Seq);
    let _ = writeln!(
        out,
        "{:>24} {:>10.3} {:>10.3}",
        "SEQ (reference)", seq_a, seq_f
    );
    out
}

/// Ablation: RateChange sensitivity. A wrapper that turns 10x slower
/// mid-stream is caught (and replanned around) only if the threshold is
/// below the drift; sweeping it shows the detection/noise tradeoff.
pub fn ablate_rate() -> String {
    let (base, f5) = Workload::fig5();
    let mut out = String::from(
        "Ablation: RateChange threshold (relation C alternates fast bursts and long pauses)\n",
    );
    let _ = writeln!(
        out,
        "{:>10} {:>9} {:>12} {:>7}",
        "threshold", "DSE[s]", "rate-changes", "plans"
    );
    for threshold in [0.1f64, 0.25, 0.5, 1.0, 2.0, 10.0] {
        // 2000-tuple bursts at w_min separated by 120 ms of silence: the
        // EWMA swings between ~20 µs and ~80 µs, so low thresholds keep
        // re-triggering RateChange while high ones never see it.
        let mut w = base.clone().with_delay(
            f5.rels.c,
            DelayModel::Bursty {
                burst: 2_000,
                within: SimDuration::from_micros(20),
                pause: SimDuration::from_millis(120),
            },
        );
        w.config.rate_change_threshold = threshold;
        let m = run_once(&w, StrategyKind::Dse);
        let _ = writeln!(
            out,
            "{:>10} {:>9.3} {:>12} {:>7}",
            threshold,
            m.response_secs(),
            m.rate_changes,
            m.plans
        );
    }
    out
}

/// Experiment A4: the §1.2 delay taxonomy — initial, bursty, slow — applied
/// to relation A, under all strategies.
pub fn delay_taxonomy() -> String {
    let (base, f5) = Workload::fig5();
    let a = f5.rels.a;
    let n = base.catalog.cardinality(a);
    let w_min = base.config.params.w_min();
    let cases: Vec<(&str, DelayModel)> = vec![
        ("none (w_min)", DelayModel::Constant { w: w_min }),
        (
            "initial 3s",
            DelayModel::Initial {
                initial: SimDuration::from_secs(3),
                mean: w_min,
            },
        ),
        (
            "bursty",
            DelayModel::Bursty {
                burst: n / 10,
                within: w_min,
                pause: SimDuration::from_millis(300),
            },
        ),
        ("slow 2x", DelayModel::Uniform { mean: w_min * 2 }),
        ("slow 4x", DelayModel::Uniform { mean: w_min * 4 }),
    ];
    let mut out = String::from("Delay taxonomy (§1.2) on relation A — response time [s]\n");
    let _ = writeln!(
        out,
        "{:>14} {:>8} {:>8} {:>8} {:>8}",
        "delay", "SEQ", "MA", "DSE", "SPM"
    );
    for (name, model) in cases {
        let w = base.clone().with_delay(a, model);
        let (seq, _, _) = run_repeated(&w, StrategyKind::Seq);
        let (ma, _, _) = run_repeated(&w, StrategyKind::Ma);
        let (dse, _, _) = run_repeated(&w, StrategyKind::Dse);
        let (spm, _, _) = run_repeated(&w, StrategyKind::Spm);
        let _ = writeln!(
            out,
            "{:>14} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name, seq, ma, dse, spm
        );
    }
    out
}

/// Experiment A5: memory-limited execution (§4.1/§4.2). Shrinks the query
/// memory budget until the plan's hash tables no longer fit together; DSE's
/// M-schedulability gating plus the DQO split keep it alive, while SEQ,
/// which reserves its tables in plan order and cannot change the plan,
/// aborts with the kind of its error.
pub fn memory_pressure() -> String {
    let mut out = String::from("Memory-limited execution (figure-5 workload at w_min)\n");
    let _ = writeln!(
        out,
        "{:>10} {:>20} {:>9} {:>9} {:>12}",
        "budget[MB]", "SEQ[s]", "DSE[s]", "overflow", "peak[MB]"
    );
    for mb in [32u64, 24, 16, 12, 10, 8] {
        let (mut w, _) = Workload::fig5();
        w.config.memory_bytes = mb * 1024 * 1024;
        let seq = match dqs_exec::Engine::new(&w, dqs_exec::SeqPolicy).try_run() {
            Ok(m) => format!("{:.3}", m.response_secs()),
            Err(e) => e.kind().to_string(),
        };
        match dqs_exec::Engine::new(&w, DsePolicy::new()).try_run() {
            Ok(m) => {
                let _ = writeln!(
                    out,
                    "{:>10} {:>20} {:>9.3} {:>9} {:>12.1}",
                    mb,
                    seq,
                    m.response_secs(),
                    m.memory_overflows,
                    m.memory_high_water as f64 / (1024.0 * 1024.0)
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "{:>10} {:>20} {:>9} {:>9} — {e}",
                    mb, seq, "failed", "-"
                );
            }
        }
    }
    out
}

/// Scrambling comparison (§1.2): the timeout-reactive related work under
/// the delay taxonomy, plus a timeout sweep — reproducing the paper's two
/// criticisms: sensitivity to the timeout value, and no answer to slow
/// delivery.
pub fn scrambling() -> String {
    let (base, f5) = Workload::fig5();
    let a = f5.rels.a;
    let w_min = base.config.params.w_min();

    let mut out =
        String::from("Query scrambling (SCR) vs the paper's strategies (relation A delayed)\n");
    let _ = writeln!(
        out,
        "{:>14} {:>8} {:>8} {:>8} {:>9}",
        "delay", "SEQ", "SCR", "DSE", "timeouts"
    );
    let cases: Vec<(&str, DelayModel)> = vec![
        (
            "initial 3s",
            DelayModel::Initial {
                initial: SimDuration::from_secs(3),
                mean: w_min,
            },
        ),
        (
            "bursty",
            DelayModel::Bursty {
                burst: 30_000,
                within: w_min,
                pause: SimDuration::from_secs(1),
            },
        ),
        ("slow 4x", DelayModel::Uniform { mean: w_min * 4 }),
    ];
    for (name, model) in cases {
        let mut w = base.clone().with_delay(a, model);
        w.config.timeout = SimDuration::from_millis(500);
        let (seq, _, _) = run_repeated(&w, StrategyKind::Seq);
        let (scr, _, scr_m) = run_repeated(&w, StrategyKind::Scr);
        let (dse, _, _) = run_repeated(&w, StrategyKind::Dse);
        let _ = writeln!(
            out,
            "{:>14} {:>8.3} {:>8.3} {:>8.3} {:>9}",
            name, seq, scr, dse, scr_m.timeouts
        );
    }

    out.push_str(
        "\nTimeout sensitivity (§1.2: scrambling is hard to configure),\n\
         relation A with a 3 s initial delay:\n",
    );
    let _ = writeln!(out, "{:>10} {:>8} {:>9}", "timeout", "SCR[s]", "timeouts");
    for ms in [50u64, 200, 500, 1_000, 2_000, 4_000] {
        let mut w = base.clone().with_delay(
            a,
            DelayModel::Initial {
                initial: SimDuration::from_secs(3),
                mean: w_min,
            },
        );
        w.config.timeout = SimDuration::from_millis(ms);
        let (scr, _, m) = run_repeated(&w, StrategyKind::Scr);
        let _ = writeln!(out, "{:>8}ms {:>8.3} {:>9}", ms, scr, m.timeouts);
    }
    out
}

/// Multi-query execution (§6 future work): N identical queries submitted
/// together, sharing the mediator. Reports per-query response times,
/// makespan, and total work under SEQ vs DSE — the paper's predicted
/// throughput-vs-response-time tradeoff.
pub fn multi_query() -> String {
    use dqs_exec::{combine, SingleQuery};
    let mut out =
        String::from("Multi-query execution (§6): N tenth-scale figure-5 queries at w_min\n");
    let _ = writeln!(
        out,
        "{:>2} {:>5} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "N", "strat", "makespan[s]", "avg resp[s]", "1st resp[s]", "cpu[s]", "disk[s]"
    );
    for n in [1usize, 2, 4] {
        for strat in [StrategyKind::Seq, StrategyKind::Dse] {
            let one = tenth_scale_fig5();
            let queries: Vec<SingleQuery> =
                (0..n).map(|_| SingleQuery::from_workload(&one)).collect();
            let w = combine(&queries, one.config.clone());
            let m = run_once(&w, strat);
            let responses: Vec<f64> = m
                .query_responses
                .iter()
                .map(|(_, t)| t.as_secs_f64())
                .collect();
            let avg = stats::mean(&responses);
            let first = responses.iter().cloned().fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                out,
                "{:>2} {:>5} {:>11.3} {:>11.3} {:>11.3} {:>9.3} {:>9.3}",
                n,
                strat.name(),
                m.response_secs(),
                avg,
                first,
                m.cpu_busy.as_secs_f64(),
                m.disk_busy.as_secs_f64(),
            );
        }
    }
    out.push_str(
        "\nDSE shortens the makespan (throughput) by overlapping all queries'\n\
         retrievals, at the price of later first responses and extra\n\
         materialization work — §6's predicted tradeoff.\n",
    );
    out
}

/// A figure-5-shaped workload at one tenth the cardinality (shared by the
/// multi-query experiment and its test).
pub fn tenth_scale_fig5() -> Workload {
    use dqs_plan::{Catalog, QepBuilder};
    let mut cat = Catalog::new();
    let a = cat.add("A", 15_000);
    let b = cat.add("B", 12_000);
    let c = cat.add("C", 18_000);
    let d = cat.add("D", 1_500);
    let e = cat.add("E", 1_200);
    let f = cat.add("F", 10_000);
    let mut qb = QepBuilder::new();
    let sa = qb.scan(a, 1.0);
    let sb = qb.scan(b, 1.0);
    let j1 = qb.hash_join(sa, sb, 1.0);
    let sf = qb.scan(f, 1.0);
    let j2 = qb.hash_join(j1, sf, 1.0);
    let sd = qb.scan(d, 1.0);
    let se = qb.scan(e, 1.0);
    let j4 = qb.hash_join(sd, se, 1.0);
    let sc = qb.scan(c, 1.0);
    let j5 = qb.hash_join(j4, sc, 0.5);
    let j6 = qb.hash_join(j2, j5, 1.0);
    Workload::new(cat, qb.finish(j6).unwrap())
}
