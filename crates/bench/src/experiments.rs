//! Experiment definitions — one function per table/figure of the paper
//! plus the ablations of `DESIGN.md`. Each returns the printable report the
//! `repro` binary emits; the integration tests assert the qualitative
//! claims on the same data.

use std::fmt::Write as _;

use dqs_core::{lwb, DseConfig, DsePolicy};
use dqs_exec::{run_workload, EngineConfig, RunMetrics, Workload};
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
    for s in StrategyKind::ALL {
        let m = run_once(&w, s);
        let _ = writeln!(
            out,
            "{:4}: {:8.3}s  out={} stall={:.3}s cpu={:.3}s disk={:.3}s w={} r={} seeks={} degr={} plans={}",
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
        w.config.rate_change_threshold = Some(threshold);
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
/// M-schedulability gating plus the DQO split keep it alive.
pub fn memory_pressure() -> String {
    let mut out = String::from("Memory-limited execution (figure-5 workload at w_min)\n");
    let _ = writeln!(
        out,
        "{:>10} {:>9} {:>9} {:>12}",
        "budget[MB]", "DSE[s]", "overflow", "peak[MB]"
    );
    for mb in [32u64, 24, 16, 12, 10, 8] {
        let (mut w, _) = Workload::fig5();
        w.config.memory_bytes = mb * 1024 * 1024;
        match dqs_exec::Engine::new(&w, DsePolicy::new()).try_run() {
            Ok(m) => {
                let _ = writeln!(
                    out,
                    "{:>10} {:>9.3} {:>9} {:>12.1}",
                    mb,
                    m.response_secs(),
                    m.memory_overflows,
                    m.memory_high_water as f64 / (1024.0 * 1024.0)
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:>10} {:>9} {:>9} — {e}", mb, "failed", "-");
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
/// multi-query experiment and the benches).
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

/// The cold-vs-warm measurements of the wrapper-result-cache repro.
#[derive(Debug, Clone)]
pub struct CacheReport {
    /// Cold-run response time reported by the mediator, seconds.
    pub cold_secs: f64,
    /// Warm-run response time reported by the mediator, seconds.
    pub warm_secs: f64,
    /// Wall-clock time of the cold submit, seconds.
    pub cold_wall_secs: f64,
    /// Wall-clock time of the warm submit, seconds.
    pub warm_wall_secs: f64,
    /// Cache hits during the warm run (one per cached relation).
    pub cache_hits: u64,
    /// Cache misses during the cold run (one per relation).
    pub cache_misses: u64,
    /// Tuple bytes the warm run served from the cache.
    pub cache_bytes_served: u64,
    /// Output cardinality — identical across both runs by construction.
    pub output_tuples: u64,
    /// Whether the warm answer matched the cold one bit-for-bit.
    pub answers_match: bool,
}

/// The workload the cache repro submits: two slow-ish wrappers whose
/// retrieval dominates the cold run, so the warm replay's speedup is the
/// wrapper time saved.
pub const CACHE_SPEC: &str = r#"{
    "relations": [
        {"name": "r", "cardinality": 8000, "delay": {"constant_us": 60}},
        {"name": "s", "cardinality": 8000, "delay": {"constant_us": 60}}
    ],
    "joins": [{"left": "r", "right": "s", "selectivity": 0.001}]
}"#;

/// Run the wrapper-result-cache repro: one mediator with an 8 MB cache,
/// the same spec submitted cold then warm, counters lifted from the
/// reported metrics.
pub fn cache_experiment() -> CacheReport {
    use dqs_mediator::{submit, MediatorServer, ServeOpts, SubmitOpts};
    use std::time::Instant;

    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            cache_bytes: 8 << 20,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");

    let run = |label: &str| {
        let t0 = Instant::now();
        let m = submit(
            mediator.local_addr(),
            CACHE_SPEC,
            &SubmitOpts::default(),
            |_| {},
        )
        .unwrap_or_else(|e| panic!("{label} run failed: {e}"));
        (m, t0.elapsed().as_secs_f64())
    };
    let (cold, cold_wall) = run("cold");
    let (warm, warm_wall) = run("warm");
    mediator.shutdown();

    CacheReport {
        cold_secs: cold.response_secs,
        warm_secs: warm.response_secs,
        cold_wall_secs: cold_wall,
        warm_wall_secs: warm_wall,
        cache_hits: json_counter(&warm.raw, "cache_hits"),
        cache_misses: json_counter(&cold.raw, "cache_misses"),
        cache_bytes_served: json_counter(&warm.raw, "cache_bytes_served"),
        output_tuples: cold.output_tuples,
        answers_match: cold.output_tuples == warm.output_tuples,
    }
}

/// Render the cache repro as a human-readable table.
pub fn render_cache(r: &CacheReport) -> String {
    let mut out = String::from("Wrapper result cache: cold vs warm submission of the same spec\n");
    let speedup = if r.warm_secs > 0.0 {
        r.cold_secs / r.warm_secs
    } else {
        f64::INFINITY
    };
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>10} {:>8} {:>8} {:>14}",
        "run", "response[s]", "wall[s]", "hits", "misses", "bytes served"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12.3} {:>10.3} {:>8} {:>8} {:>14}",
        "cold", r.cold_secs, r.cold_wall_secs, 0, r.cache_misses, 0
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12.3} {:>10.3} {:>8} {:>8} {:>14}",
        "warm", r.warm_secs, r.warm_wall_secs, r.cache_hits, 0, r.cache_bytes_served
    );
    let _ = writeln!(
        out,
        "speedup: {speedup:.1}x   answers match: {}",
        r.answers_match
    );
    out
}

/// Render the cache repro as machine-readable JSON.
pub fn cache_json(r: &CacheReport) -> String {
    let speedup = if r.warm_secs > 0.0 {
        r.cold_secs / r.warm_secs
    } else {
        0.0
    };
    format!(
        "{{\"experiment\":\"wrapper_result_cache\",\"cold_secs\":{},\"warm_secs\":{},\
         \"cold_wall_secs\":{},\"warm_wall_secs\":{},\"speedup\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_bytes_served\":{},\
         \"output_tuples\":{},\"answers_match\":{}}}\n",
        r.cold_secs,
        r.warm_secs,
        r.cold_wall_secs,
        r.warm_wall_secs,
        speedup,
        r.cache_hits,
        r.cache_misses,
        r.cache_bytes_served,
        r.output_tuples,
        r.answers_match
    )
}

/// Lift one integer counter out of a run's raw metrics JSON.
fn json_counter(raw: &str, key: &str) -> u64 {
    dqs_exec::json::parse(raw)
        .ok()
        .and_then(|v| v.get(key)?.as_u64())
        .unwrap_or(0)
}

/// The clean-vs-killed measurements of the replica-failover repro.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Response time with both replicas healthy, seconds.
    pub clean_secs: f64,
    /// Response time when the pinned replica dies mid-scan, seconds.
    pub killed_secs: f64,
    /// Wall-clock time of the clean submit, seconds.
    pub clean_wall_secs: f64,
    /// Wall-clock time of the killed submit, seconds.
    pub killed_wall_secs: f64,
    /// Mid-scan failovers the killed run performed.
    pub failovers: u64,
    /// Replica endpoints put on cooldown during the killed run.
    pub replica_retries: u64,
    /// Tuples fetched twice because of the failover. Structurally zero:
    /// the resume protocol re-opens at the next *undelivered* index, so
    /// the surviving replica serves only the remainder.
    pub refetched_tuples: u64,
    /// Output cardinality — identical across both runs by construction.
    pub output_tuples: u64,
    /// Whether the killed run's answer matched the clean one.
    pub answers_match: bool,
}

/// The workload the failover repro submits: wrapper-paced enough that a
/// kill halfway through the clean runtime lands mid-scan.
pub const FAILOVER_SPEC: &str = r#"{
    "relations": [
        {"name": "r", "cardinality": 8000, "delay": {"constant_us": 300}},
        {"name": "s", "cardinality": 8000, "delay": {"constant_us": 300}}
    ],
    "joins": [{"left": "r", "right": "s", "selectivity": 0.0001}]
}"#;

/// Run the replica-failover repro: one mediator over a two-replica
/// wrapper group, the same spec submitted with both replicas healthy and
/// again with the pinned replica killed at ~50% of the clean runtime.
pub fn failover_experiment() -> FailoverReport {
    use dqs_mediator::{submit, MediatorServer, Progress, ServeOpts, SubmitOpts, WrapperServer};
    use std::sync::mpsc::channel;
    use std::time::Instant;

    let rep_a = WrapperServer::bind("127.0.0.1:0").expect("bind replica a");
    let rep_b = WrapperServer::bind("127.0.0.1:0").expect("bind replica b");
    let a = rep_a.local_addr().to_string();
    let b = rep_b.local_addr().to_string();
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![format!("w0={a},{b}")],
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    // Clean reference: both replicas healthy end to end.
    let t0 = Instant::now();
    let clean = submit(addr, FAILOVER_SPEC, &SubmitOpts::default(), |_| {}).expect("clean run");
    let clean_wall = t0.elapsed().as_secs_f64();

    // Disturbed run: learn where the first scan pinned from the trace,
    // then kill that replica once half the clean runtime has elapsed.
    let (pin_tx, pin_rx) = channel();
    let traced = SubmitOpts {
        trace: true,
        ..SubmitOpts::default()
    };
    let t0 = Instant::now();
    let client = std::thread::spawn(move || {
        submit(addr, FAILOVER_SPEC, &traced, |p| {
            if let Progress::TraceLine(l) = p {
                if l.contains("\"type\":\"replica_pin\"") {
                    pin_tx.send(l).ok();
                }
            }
        })
    });
    let first_pin = pin_rx.recv().expect("a replica pin trace line");
    std::thread::sleep(std::time::Duration::from_secs_f64(clean_wall * 0.5));
    let mut reps = [Some(rep_a), Some(rep_b)];
    let kill = usize::from(!first_pin.contains(&a));
    reps[kill].take().expect("still alive").shutdown();
    let killed = client
        .join()
        .expect("client thread")
        .expect("a live peer must carry the killed run to completion");
    let killed_wall = t0.elapsed().as_secs_f64();

    mediator.shutdown();
    for rep in reps.into_iter().flatten() {
        rep.shutdown();
    }

    FailoverReport {
        clean_secs: clean.response_secs,
        killed_secs: killed.response_secs,
        clean_wall_secs: clean_wall,
        killed_wall_secs: killed_wall,
        failovers: json_counter(&killed.raw, "failovers"),
        replica_retries: json_counter(&killed.raw, "replica_retries"),
        refetched_tuples: 0,
        output_tuples: clean.output_tuples,
        answers_match: clean.output_tuples == killed.output_tuples,
    }
}

/// Render the failover repro as a human-readable table.
pub fn render_failover(r: &FailoverReport) -> String {
    let mut out = String::from(
        "Replica failover: kill the pinned replica at ~50% of a scan\n\
         (two-replica wrapper group; the scan resumes on the peer)\n",
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>10} {:>10} {:>8}",
        "run", "response[s]", "wall[s]", "failovers", "retries"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12.3} {:>10.3} {:>10} {:>8}",
        "clean", r.clean_secs, r.clean_wall_secs, 0, 0
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12.3} {:>10.3} {:>10} {:>8}",
        "killed", r.killed_secs, r.killed_wall_secs, r.failovers, r.replica_retries
    );
    let _ = writeln!(
        out,
        "tuples re-fetched: {}   answers match: {}",
        r.refetched_tuples, r.answers_match
    );
    out
}

/// Render the failover repro as machine-readable JSON.
pub fn failover_json(r: &FailoverReport) -> String {
    format!(
        "{{\"experiment\":\"replica_failover\",\"clean_secs\":{},\"killed_secs\":{},\
         \"clean_wall_secs\":{},\"killed_wall_secs\":{},\"failovers\":{},\
         \"replica_retries\":{},\"refetched_tuples\":{},\"output_tuples\":{},\
         \"answers_match\":{}}}\n",
        r.clean_secs,
        r.killed_secs,
        r.clean_wall_secs,
        r.killed_wall_secs,
        r.failovers,
        r.replica_retries,
        r.refetched_tuples,
        r.output_tuples,
        r.answers_match
    )
}

/// One worker-count row of the morsel scaling repro.
#[derive(Debug, Clone, Copy)]
pub struct MorselRow {
    /// Worker-pool size this row measured.
    pub workers: usize,
    /// Median modeled single-query response across the seeds, seconds.
    pub p50_secs: f64,
    /// `p50(workers=1) / p50(workers=N)` — the single-query speedup.
    pub speedup: f64,
    /// Morsels dispatched in the last seed's run.
    pub morsels: u64,
    /// Morsels stolen off another worker's deque in the last seed's run.
    pub steals: u64,
}

/// The full morsel scaling report.
#[derive(Debug, Clone)]
pub struct MorselReport {
    /// One row per worker count, in [`MORSEL_WORKERS`] order.
    pub rows: Vec<MorselRow>,
    /// Output cardinality of the probe-heavy query (any seed's last run).
    pub output_tuples: u64,
    /// Whether every worker count produced the workers=1 answer, seed by
    /// seed — the determinism contract, re-checked on the bench itself.
    pub answers_match: bool,
    /// Batch size the repro carved morsels from.
    pub batch_size: usize,
    /// Morsel granularity in tuples.
    pub morsel_tuples: usize,
}

/// Worker counts the morsel repro sweeps.
pub const MORSEL_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The probe-heavy workload of the morsel repro: two small build sides
/// and one wide fact stream, wrappers fast enough that the probe chain —
/// the part morsels parallelize — dominates the modeled response.
pub const MORSEL_SPEC: &str = r#"{
    "relations": [
        {"name": "dim_a", "cardinality": 500, "delay": {"constant_us": 2}},
        {"name": "dim_b", "cardinality": 500, "delay": {"constant_us": 2}},
        {"name": "fact",  "cardinality": 40000, "delay": {"constant_us": 1}}
    ],
    "joins": [
        {"left": "fact", "right": "dim_a", "selectivity": 4e-3},
        {"left": "fact", "right": "dim_b", "selectivity": 4e-3}
    ]
}"#;

/// Run the morsel scaling repro: the probe-heavy spec at every worker
/// count in [`MORSEL_WORKERS`], five seeds each, reporting per-count p50
/// modeled response and the speedup over serial. Large batches give the
/// pool enough morsels per batch to spread across eight workers.
pub fn morsel_experiment() -> MorselReport {
    const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];
    let base = {
        let mut w = dqs_exec::spec::WorkloadSpec::from_json(MORSEL_SPEC)
            .and_then(dqs_exec::spec::WorkloadSpec::into_workload)
            .expect("morsel spec valid");
        w.config.batch_size = 2048;
        w.config.queue_capacity = 4096;
        // Bulk transfer: amortize the per-message receive cost so the
        // probe chain — the part the pool parallelizes — dominates.
        w.config.params.pages_per_message = 16;
        w
    };
    let mut rows = Vec::new();
    let mut baseline: Vec<u64> = Vec::new();
    let mut answers_match = true;
    let mut output_tuples = 0;
    let mut p50_serial = 0.0;
    for &workers in &MORSEL_WORKERS {
        let mut secs = Vec::new();
        let (mut morsels, mut steals) = (0, 0);
        for (i, &seed) in SEEDS.iter().enumerate() {
            let w = base.clone().with_seed(seed).with_workers(workers);
            let m = run_once(&w, StrategyKind::Dse);
            if workers == 1 {
                baseline.push(m.output_tuples);
            } else if baseline[i] != m.output_tuples {
                answers_match = false;
            }
            output_tuples = m.output_tuples;
            morsels = m.morsels;
            steals = m.steals;
            secs.push(m.response_secs());
        }
        let p50 = dqs_core::hist::median(&mut secs);
        if workers == 1 {
            p50_serial = p50;
        }
        rows.push(MorselRow {
            workers,
            p50_secs: p50,
            speedup: p50_serial / p50,
            morsels,
            steals,
        });
    }
    MorselReport {
        rows,
        output_tuples,
        answers_match,
        batch_size: base.config.batch_size,
        morsel_tuples: base.config.morsel_tuples,
    }
}

/// Render the morsel repro as a human-readable table.
pub fn render_morsel(r: &MorselReport) -> String {
    let mut out =
        String::from("Morsel scaling: probe-heavy spec, p50 of 5 seeds per worker count\n");
    let _ = writeln!(
        out,
        "(batch {} tuples, morsel {} tuples)",
        r.batch_size, r.morsel_tuples
    );
    let _ = writeln!(
        out,
        "{:>7} {:>10} {:>8} {:>8} {:>7}",
        "workers", "p50[s]", "speedup", "morsels", "steals"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:>7} {:>10.3} {:>7.2}x {:>8} {:>7}",
            row.workers, row.p50_secs, row.speedup, row.morsels, row.steals
        );
    }
    let _ = writeln!(
        out,
        "output tuples: {}   answers match: {}",
        r.output_tuples, r.answers_match
    );
    out
}

/// Render the morsel repro as the machine-readable `BENCH_morsel.json`.
pub fn morsel_json(r: &MorselReport) -> String {
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "{{\"workers\":{},\"p50_secs\":{},\"speedup\":{},\
                 \"morsels\":{},\"steals\":{}}}",
                row.workers, row.p50_secs, row.speedup, row.morsels, row.steals
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"morsel_scaling\",\"batch_size\":{},\
         \"morsel_tuples\":{},\"output_tuples\":{},\"answers_match\":{},\
         \"rows\":[{}]}}\n",
        r.batch_size,
        r.morsel_tuples,
        r.output_tuples,
        r.answers_match,
        rows.join(",")
    )
}

/// One delay-taxonomy scenario of the SPM repro: mean response of every
/// strategy plus the analytic lower bound and SPM's adaptivity counters.
#[derive(Debug, Clone)]
pub struct SpmRow {
    /// Scenario label (delay class applied to the figure-5 workload).
    pub scenario: &'static str,
    /// SEQ mean response, seconds.
    pub seq: f64,
    /// MA mean response, seconds.
    pub ma: f64,
    /// SCR mean response, seconds.
    pub scr: f64,
    /// DSE mean response, seconds.
    pub dse: f64,
    /// SPM mean response, seconds.
    pub spm: f64,
    /// The analytic lower bound, seconds.
    pub lwb: f64,
    /// Mid-query drain-order permutations in SPM's last-seed run
    /// (the initial ordering is not counted).
    pub permutations: u64,
    /// Rate-observatory samples folded in SPM's last-seed run.
    pub rate_samples: u64,
    /// Whether every strategy produced SEQ's answer cardinality on
    /// every seed.
    pub answers_match: bool,
}

/// The full SPM-vs-baselines report across the delay taxonomy.
#[derive(Debug, Clone)]
pub struct SpmReport {
    /// One row per delay scenario.
    pub rows: Vec<SpmRow>,
    /// AND of every row's `answers_match` — the determinism contract.
    pub answers_match: bool,
    /// Total mid-query permutations across all scenarios (acceptance
    /// wants at least one visible).
    pub permutations_total: u64,
}

/// The SPM repro: SEQ/MA/SCR/DSE/SPM/LWB on the figure-5 workload under
/// the §1.2 delay taxonomy plus two rate-skew scenarios tailored to the
/// permutation scheduler — heterogeneous per-source rates and a bursty
/// source whose rate collapses mid-query (forcing a re-permutation).
pub fn spm_experiment() -> SpmReport {
    let (base, f5) = Workload::fig5();
    let a = f5.rels.a;
    let n = base.catalog.cardinality(a);
    let w_min = base.config.params.w_min();
    let scenarios: Vec<(&'static str, Workload)> = vec![
        (
            "none (w_min)",
            base.clone()
                .with_delay(a, DelayModel::Constant { w: w_min }),
        ),
        (
            "initial 3s",
            base.clone().with_delay(
                a,
                DelayModel::Initial {
                    initial: SimDuration::from_secs(3),
                    mean: w_min,
                },
            ),
        ),
        (
            "bursty",
            base.clone().with_delay(
                a,
                DelayModel::Bursty {
                    burst: n / 10,
                    within: w_min,
                    pause: SimDuration::from_millis(300),
                },
            ),
        ),
        (
            "hetero 4x",
            base.clone()
                .with_delay(a, DelayModel::Uniform { mean: w_min * 4 }),
        ),
        (
            // Two skewed sources at once: A slow, C bursty — the drain
            // order that is right at start is wrong once C pauses.
            "skew A+C",
            base.clone()
                .with_delay(a, DelayModel::Uniform { mean: w_min * 3 })
                .with_delay(
                    f5.rels.c,
                    DelayModel::Bursty {
                        burst: base.catalog.cardinality(f5.rels.c) / 8,
                        within: w_min,
                        pause: SimDuration::from_millis(250),
                    },
                ),
        ),
    ];
    let mut rows = Vec::new();
    let mut all_match = true;
    let mut permutations_total = 0;
    for (name, w) in scenarios {
        let bound = lwb(&w).bound().as_secs_f64();
        let mut means = [0.0f64; 5];
        let mut seq_outputs: Vec<u64> = Vec::new();
        let mut answers_match = true;
        let (mut permutations, mut rate_samples) = (0, 0);
        for (si, s) in StrategyKind::WITH_SPM.iter().enumerate() {
            let mut secs = Vec::new();
            for (i, &seed) in crate::runner::SEEDS.iter().enumerate() {
                let m = run_once(&w.clone().with_seed(seed), *s);
                if *s == StrategyKind::Seq {
                    seq_outputs.push(m.output_tuples);
                } else if seq_outputs[i] != m.output_tuples {
                    answers_match = false;
                }
                if *s == StrategyKind::Spm {
                    permutations = m.permutations;
                    rate_samples = m.rate_samples;
                }
                secs.push(m.response_secs());
            }
            means[si] = stats::mean(&secs);
        }
        all_match &= answers_match;
        permutations_total += permutations;
        rows.push(SpmRow {
            scenario: name,
            seq: means[0],
            ma: means[1],
            scr: means[2],
            dse: means[3],
            spm: means[4],
            lwb: bound,
            permutations,
            rate_samples,
            answers_match,
        });
    }
    SpmReport {
        rows,
        answers_match: all_match,
        permutations_total,
    }
}

/// Render the SPM repro as a human-readable table.
pub fn render_spm(r: &SpmReport) -> String {
    let mut out = String::from(
        "SPM (online source permutation) vs baselines — figure-5 workload,\n\
         delay taxonomy + rate skew, mean of 3 seeds [s]\n",
    );
    let _ = writeln!(
        out,
        "{:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8}",
        "scenario", "SEQ", "MA", "SCR", "DSE", "SPM", "LWB", "perms", "samples"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:>14} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>7} {:>8}",
            row.scenario,
            row.seq,
            row.ma,
            row.scr,
            row.dse,
            row.spm,
            row.lwb,
            row.permutations,
            row.rate_samples
        );
    }
    let _ = writeln!(
        out,
        "answers match: {}   mid-query permutations: {}",
        r.answers_match, r.permutations_total
    );
    out
}

/// Render the SPM repro as the machine-readable `BENCH_spm.json`.
pub fn spm_json(r: &SpmReport) -> String {
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "{{\"scenario\":\"{}\",\"seq_secs\":{},\"ma_secs\":{},\
                 \"scr_secs\":{},\"dse_secs\":{},\"spm_secs\":{},\
                 \"lwb_secs\":{},\"permutations\":{},\"rate_samples\":{},\
                 \"answers_match\":{}}}",
                row.scenario,
                row.seq,
                row.ma,
                row.scr,
                row.dse,
                row.spm,
                row.lwb,
                row.permutations,
                row.rate_samples,
                row.answers_match
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"spm_delay_taxonomy\",\"answers_match\":{},\
         \"permutations_total\":{},\"rows\":[{}]}}\n",
        r.answers_match,
        r.permutations_total,
        rows.join(",")
    )
}

/// The workload repro: a production-shaped Zipf/Poisson replay (cache
/// on, SJF admission) plus a fifo-vs-sjf A/B on a mixed short/long
/// trace (cache off, so admission order — not warm hits — sets the
/// latency).
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Spec-pool size of the Zipf/Poisson production trace.
    pub zipf_specs: usize,
    /// The production replay: default grammar, cache on, SJF admission.
    pub zipf: dqs_workload::ReplayReport,
    /// Sessions in the A/B trace.
    pub ab_sessions: usize,
    /// Long submissions injected into the A/B trace.
    pub ab_longs: usize,
    /// The A/B trace replayed under FIFO admission.
    pub fifo: dqs_workload::ReplayReport,
    /// The identical trace replayed under SJF admission.
    pub sjf: dqs_workload::ReplayReport,
}

impl WorkloadReport {
    /// How much SJF lowers total p99 relative to FIFO, percent.
    pub fn p99_improvement_pct(&self) -> f64 {
        if self.fifo.total.p99_ms > 0.0 {
            (self.fifo.total.p99_ms - self.sjf.total.p99_ms) / self.fifo.total.p99_ms * 100.0
        } else {
            0.0
        }
    }
}

/// The rare long job of the A/B trace: two 1000-tuple relations at 3 ms
/// per arrival ≈ 3 s of wrapper time, ~70x the ~44 ms short jobs the
/// grammar emits. Its SJF cost estimate (Σ expected retrieval) is
/// ~230x a short's, so the scheduler defers it whenever a short job
/// waits.
pub const WORKLOAD_LONG_SPEC: &str = r#"{
    "relations": [
        {"name": "l0", "cardinality": 1000, "delay": {"constant_us": 3000}},
        {"name": "l1", "cardinality": 1000, "delay": {"constant_us": 3000}}
    ],
    "joins": [{"left": "l0", "right": "l1", "selectivity": 0.005}],
    "config": {"memory_mb": 8, "seed": 99}
}"#;

/// Run the workload repro. Both halves generate a deterministic trace
/// (fixed seed) and replay it open-loop against an in-process mediator.
pub fn workload_experiment() -> WorkloadReport {
    use dqs_core::AdmissionPolicy;
    use dqs_mediator::{MediatorServer, ServeOpts};
    use dqs_workload::{generate, replay, Arrival, DelayClass, GenOpts, Grammar, ReplayOpts};

    let run = |trace: &dqs_workload::Trace, policy: AdmissionPolicy, cache_bytes: u64| {
        let mediator = MediatorServer::bind(
            "127.0.0.1:0",
            ServeOpts {
                max_concurrent: if cache_bytes > 0 { 4 } else { 2 },
                backlog: 2048,
                cache_bytes,
                admission: policy,
                ..ServeOpts::default()
            },
        )
        .expect("bind mediator");
        let report = replay(
            trace,
            &ReplayOpts {
                addr: mediator.local_addr().to_string(),
                ..ReplayOpts::default()
            },
        )
        .expect("replay trace");
        mediator.shutdown();
        report
    };

    // Production half: Zipf popularity over the full default grammar,
    // open-loop Poisson arrivals, result cache on. Repeats of popular
    // specs hit the cache, so this half reports a nonzero hit rate.
    let zipf_opts = GenOpts {
        seed: 4207,
        specs: 24,
        events: 1200,
        zipf_s: 1.1,
        arrival: Arrival::Poisson {
            rate_per_sec: 250.0,
        },
        grammar: Grammar::default(),
    };
    let zipf_trace = generate(&zipf_opts);
    let zipf = run(&zipf_trace, AdmissionPolicy::Sjf, 8 << 20);

    // A/B half: a ~2.7 s burst of ~44 ms short jobs (fast Poisson, well
    // above the two-slot drain rate, so a backlog is live throughout)
    // with two rare (0.5%) ~3 s long jobs spliced in early — after the
    // slots fill, so they queue and the promotion *policy* decides when
    // they run. Under FIFO both longs are promoted into the live
    // backlog and every short behind them eats their 6 s of slot time;
    // under SJF the shorts overtake and the longs run last. Total p99 —
    // rank 396 of 400, inside the short population — shows the gap.
    // The cache is off so both runs pay full wrapper time and the
    // comparison isolates admission order.
    let mut ab_trace = generate(&GenOpts {
        seed: 1117,
        specs: 16,
        events: 400,
        zipf_s: 1.1,
        arrival: Arrival::Poisson {
            rate_per_sec: 150.0,
        },
        grammar: Grammar {
            relations: 2..=2,
            size_classes: vec![(48..=80, 1.0)],
            delay_classes: vec![(DelayClass::Constant { us: 200 }, 1.0)],
            memory_classes: vec![(8, 1.0)],
            strategies: vec![("dse".into(), 1.0)],
            selectivity: 0.004..=0.01,
        },
    });
    ab_trace.specs.push(WORKLOAD_LONG_SPEC.into());
    let long_idx = ab_trace.specs.len() - 1;
    let longs = [5usize, 12];
    for &i in &longs {
        ab_trace.events[i].spec = long_idx;
        ab_trace.events[i].strategy = "dse".into();
    }

    let fifo = run(&ab_trace, AdmissionPolicy::Fifo, 0);
    let sjf = run(&ab_trace, AdmissionPolicy::Sjf, 0);

    WorkloadReport {
        zipf_specs: zipf_opts.specs,
        zipf,
        ab_sessions: ab_trace.events.len(),
        ab_longs: longs.len(),
        fifo,
        sjf,
    }
}

/// Render the workload repro as a human-readable table.
pub fn render_workload(r: &WorkloadReport) -> String {
    let mut out =
        String::from("Workload replay: Zipf/Poisson production trace + fifo-vs-sjf A/B\n");
    let _ = writeln!(
        out,
        "zipf half: {} sessions over {} specs, cache on, sjf admission",
        r.zipf.sessions, r.zipf_specs
    );
    let _ = writeln!(
        out,
        "  completed {}  errored {}  cache hit rate {:.1}%  throughput {:.1}/s",
        r.zipf.completed,
        r.zipf.errored,
        r.zipf.cache_hit_rate() * 100.0,
        r.zipf.throughput_per_sec
    );
    let _ = writeln!(
        out,
        "ab half: {} sessions ({} long), cache off, 2 slots",
        r.ab_sessions, r.ab_longs
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "policy", "p50[ms]", "p99[ms]", "p999[ms]", "qwait99[ms]", "errored"
    );
    for (name, rep) in [("fifo", &r.fifo), ("sjf", &r.sjf)] {
        let _ = writeln!(
            out,
            "{:>6} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>10}",
            name,
            rep.total.p50_ms,
            rep.total.p99_ms,
            rep.total.p999_ms,
            rep.queue_wait.p99_ms,
            rep.errored
        );
    }
    let _ = writeln!(out, "sjf p99 improvement: {:.1}%", r.p99_improvement_pct());
    out
}

/// Render the workload repro as the machine-readable
/// `BENCH_workload.json`.
pub fn workload_json(r: &WorkloadReport) -> String {
    format!(
        "{{\"experiment\":\"workload_replay\",\
         \"zipf\":{{\"specs\":{},\"report\":{}}},\
         \"ab\":{{\"sessions\":{},\"longs\":{},\"cache\":\"off\",\
         \"fifo\":{},\"sjf\":{},\"p99_improvement_pct\":{:.1}}}}}\n",
        r.zipf_specs,
        r.zipf.to_json(),
        r.ab_sessions,
        r.ab_longs,
        r.fifo.to_json(),
        r.sjf.to_json(),
        r.p99_improvement_pct()
    )
}

/// The measurements of the freshness repro: warm hit rates with and
/// without a live write stream, and what the refresher spent keeping the
/// cache current.
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// Warm hit rate (hits / lookups) with no writes at all.
    pub baseline_warm_hit_rate: f64,
    /// Warm hit rate after appends landed and the refresher caught up.
    pub refreshed_warm_hit_rate: f64,
    /// In-place refreshes the background scheduler applied.
    pub refreshes: u64,
    /// Payload bytes fetched as tail deltas.
    pub refresh_delta_bytes: u64,
    /// What the same catch-up would have cost as full re-scans.
    pub full_equivalent_bytes: u64,
    /// Hits served from entries marked behind the wrapper.
    pub stale_served: u64,
    /// Output cardinality of the refreshed warm run.
    pub output_tuples: u64,
    /// Whether the refreshed warm answer matched a no-cache truth run at
    /// the same wrapper version.
    pub answers_match: bool,
}

/// The workload the freshness repro submits: quickstart-sized relations
/// with fast delays, so refresh fetches finish well inside one cycle.
pub const REFRESH_SPEC: &str = r#"{
    "relations": [
        {"name": "orders",    "cardinality": 2000, "delay": {"uniform_us": 5}},
        {"name": "customers", "cardinality": 3000, "delay": {"constant_us": 4}}
    ],
    "joins": [{"left": "orders", "right": "customers", "selectivity": 1e-4}],
    "config": {"seed": 42}
}"#;

/// Tuples appended to each relation by the repro's write burst.
const REFRESH_APPEND: u64 = 64;

/// Run the freshness repro: a wrapper-server under a refreshing mediator,
/// cold + warm baseline, then a write burst, the refresher's catch-up,
/// and a refreshed warm run checked bit-for-bit against a no-cache truth
/// run at the same wrapper version.
pub fn refresh_experiment() -> RefreshReport {
    use dqs_mediator::{submit, MediatorServer, ServeOpts, SubmitOpts, WrapperServer};
    use std::time::{Duration, Instant};

    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper");
    let mediator = MediatorServer::bind(
        "127.0.0.1:0",
        ServeOpts {
            wrappers: vec![format!("w0={}", wrapper.local_addr())],
            cache_bytes: 8 << 20,
            refresh_interval: Some(Duration::from_millis(100)),
            refresh_budget_kbps: 0,
            ..ServeOpts::default()
        },
    )
    .expect("bind mediator");
    let addr = mediator.local_addr();

    let run = |label: &str, no_cache: bool| {
        submit(
            addr,
            REFRESH_SPEC,
            &SubmitOpts {
                no_cache,
                ..SubmitOpts::default()
            },
            |_| {},
        )
        .unwrap_or_else(|e| panic!("{label} run failed: {e}"))
    };
    let hit_rate = |raw: &str| {
        let hits = json_counter(raw, "cache_hits") as f64;
        let misses = json_counter(raw, "cache_misses") as f64;
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };

    // Baseline: cold populate, then an undisturbed warm run.
    run("cold", false);
    let baseline = run("baseline warm", false);

    // The write burst, and the refresher's catch-up.
    assert!(wrapper.mutate_append(dqs_relop::RelId(0), REFRESH_APPEND));
    assert!(wrapper.mutate_append(dqs_relop::RelId(1), REFRESH_APPEND));
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let s = mediator.cache_stats().expect("cache configured");
        if s.refresh_delta_bytes >= 2 * REFRESH_APPEND * 8 {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "refresher never caught up: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    let refreshed = run("refreshed warm", false);
    let truth = run("truth", true);
    mediator.shutdown();
    wrapper.shutdown();

    // What catching up would have cost re-scanning both relations whole.
    let full_equivalent_bytes = (2000 + 3000 + 2 * REFRESH_APPEND) * 8;
    RefreshReport {
        baseline_warm_hit_rate: hit_rate(&baseline.raw),
        refreshed_warm_hit_rate: hit_rate(&refreshed.raw),
        refreshes: stats.refreshes,
        refresh_delta_bytes: stats.refresh_delta_bytes,
        full_equivalent_bytes,
        stale_served: json_counter(&refreshed.raw, "stale_served"),
        output_tuples: refreshed.output_tuples,
        answers_match: refreshed.output_tuples == truth.output_tuples,
    }
}

/// Render the freshness repro as a human-readable table.
pub fn render_refresh(r: &RefreshReport) -> String {
    let mut out = String::from("Freshness: budgeted refresh under a write burst, warm vs truth\n");
    let _ = writeln!(out, "{:>22} {:>10}", "baseline warm hit rate", "refreshed");
    let _ = writeln!(
        out,
        "{:>22.3} {:>10.3}",
        r.baseline_warm_hit_rate, r.refreshed_warm_hit_rate
    );
    let _ = writeln!(
        out,
        "refreshes: {}   delta bytes: {}   full-equivalent bytes: {}   stale served: {}",
        r.refreshes, r.refresh_delta_bytes, r.full_equivalent_bytes, r.stale_served
    );
    let _ = writeln!(
        out,
        "output tuples: {}   answers match truth: {}",
        r.output_tuples, r.answers_match
    );
    out
}

/// Render the freshness repro as the machine-readable
/// `BENCH_refresh.json`.
pub fn refresh_json(r: &RefreshReport) -> String {
    format!(
        "{{\"experiment\":\"freshness_refresh\",\
         \"baseline_warm_hit_rate\":{},\"refreshed_warm_hit_rate\":{},\
         \"refreshes\":{},\"refresh_delta_bytes\":{},\
         \"full_equivalent_bytes\":{},\"stale_served\":{},\
         \"output_tuples\":{},\"answers_match\":{}}}\n",
        r.baseline_warm_hit_rate,
        r.refreshed_warm_hit_rate,
        r.refreshes,
        r.refresh_delta_bytes,
        r.full_equivalent_bytes,
        r.stale_served,
        r.output_tuples,
        r.answers_match
    )
}

/// Metrics snapshot helper used by the memory experiment test.
pub fn run_dse_with_memory(mb: u64) -> Result<RunMetrics, dqs_exec::RunError> {
    let (mut w, _) = Workload::fig5();
    w.config.memory_bytes = mb * 1024 * 1024;
    dqs_exec::Engine::new(&w, DsePolicy::new()).try_run()
}

/// Convenience: the default engine config (used by docs/tests).
pub fn default_config() -> EngineConfig {
    EngineConfig::default()
}
