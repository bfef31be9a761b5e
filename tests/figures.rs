//! The paper's §5 experimental claims, asserted on reduced sweeps of the
//! actual Figure 6/7/8 workloads. These are the headline results of the
//! reproduction; `docs/repro_all.txt` records the full sweeps.

use dqs_bench::experiments::slowdown_workload;
use dqs_bench::{run_once, StrategyKind};
use dqs_core::lwb;
use dqs_exec::Workload;
use dqs_sim::SimDuration;
use dqs_source::DelayModel;

/// §5.2 / Figure 6: "SEQ strategy's response time increases linearly with
/// the slowdown because the query processor stalls."
#[test]
fn fig6_seq_grows_linearly_with_slowdown() {
    let r4 = run_once(&slowdown_workload('A', 4.0), StrategyKind::Seq).response_secs();
    let r6 = run_once(&slowdown_workload('A', 6.0), StrategyKind::Seq).response_secs();
    let r8 = run_once(&slowdown_workload('A', 8.0), StrategyKind::Seq).response_secs();
    let slope1 = (r6 - r4) / 2.0;
    let slope2 = (r8 - r6) / 2.0;
    assert!(
        (slope1 - 1.0).abs() < 0.15 && (slope2 - 1.0).abs() < 0.15,
        "SEQ slope should be ~1 s per s of slowdown: {slope1:.3}, {slope2:.3}"
    );
}

/// §5.2: "One can be surprised by the important performance gain brought by
/// DSE (around 40%!) even when w = w_min."
#[test]
fn fig6_dse_gains_substantially_at_w_min() {
    let (w, _) = Workload::fig5();
    let seq = run_once(&w, StrategyKind::Seq);
    let dse = run_once(&w, StrategyKind::Dse);
    let gain = dse.gain_over(&seq);
    assert!(
        gain > 0.25,
        "DSE gain at w_min should be large (paper ~40 %), got {:.1}%",
        gain * 100.0
    );
}

/// §5.2: "MA's response time is always worse in these experiments and stays
/// constant with a slight increase after 8 seconds."
#[test]
fn fig6_ma_flat_and_worse_at_baseline() {
    let base = slowdown_workload('A', 0.0);
    let seq0 = run_once(&base, StrategyKind::Seq);
    let ma0 = run_once(&base, StrategyKind::Ma);
    assert!(
        ma0.response_time > seq0.response_time,
        "MA ({}) must be worse than SEQ ({}) when nothing is slowed",
        ma0.response_time,
        seq0.response_time
    );
    // Flat: between 3 s and 7 s of slowdown MA moves by < 10 %.
    let ma3 = run_once(&slowdown_workload('A', 3.0), StrategyKind::Ma).response_secs();
    let ma7 = run_once(&slowdown_workload('A', 7.0), StrategyKind::Ma).response_secs();
    assert!(
        (ma7 - ma3).abs() / ma3 < 0.10,
        "MA should be flat over small slowdowns: {ma3:.2} vs {ma7:.2}"
    );
    // After ~8 s the slowed relation becomes MA's bottleneck.
    let ma12 = run_once(&slowdown_workload('A', 12.0), StrategyKind::Ma).response_secs();
    assert!(
        ma12 > ma7 + 1.0,
        "MA must grow once the slowdown exceeds its phase-1 time: {ma7:.2} -> {ma12:.2}"
    );
}

/// §5.2 / Figures 6-7: DSE dominates both baselines across the sweep.
#[test]
fn fig67_dse_dominates() {
    for letter in ['A', 'F'] {
        for x in [0.0, 5.0, 8.0] {
            let w = slowdown_workload(letter, x);
            let seq = run_once(&w, StrategyKind::Seq);
            let ma = run_once(&w, StrategyKind::Ma);
            let dse = run_once(&w, StrategyKind::Dse);
            assert!(
                dse.response_time < seq.response_time && dse.response_time < ma.response_time,
                "{letter}@{x}: DSE {} vs SEQ {} / MA {}",
                dse.response_time,
                seq.response_time,
                ma.response_time
            );
        }
    }
}

/// §5.2: "DSE achieves better performance improvement with F than with A,
/// specifically when the slowdown is high, because while p_A is not
/// terminated, we cannot schedule p_B and p_F."
#[test]
fn fig67_f_improves_more_than_a_at_high_slowdown() {
    let x = 8.0;
    let wa = slowdown_workload('A', x);
    let wf = slowdown_workload('F', x);
    let gain_a = run_once(&wa, StrategyKind::Dse).gain_over(&run_once(&wa, StrategyKind::Seq));
    let gain_f = run_once(&wf, StrategyKind::Dse).gain_over(&run_once(&wf, StrategyKind::Seq));
    assert!(
        gain_f > gain_a,
        "gain(F)={:.1}% should exceed gain(A)={:.1}%",
        gain_f * 100.0,
        gain_a * 100.0
    );
}

/// §5.2: LWB is a valid lower bound across the figure sweeps.
#[test]
fn fig67_lwb_under_everything() {
    for letter in ['A', 'F'] {
        for x in [0.0, 6.0] {
            let w = slowdown_workload(letter, x);
            // Five-sigma discount on the stochastic retrieval term.
            let bound = lwb(&w).probabilistic_bound(5.0).as_secs_f64();
            for s in StrategyKind::ALL {
                let m = run_once(&w, s);
                assert!(m.response_secs() >= bound, "{letter}@{x} {}", s.name());
            }
        }
    }
}

/// §5.3 / Figure 8: "the performance gain increases with the w_min value
/// and goes up to 70%."
#[test]
fn fig8_gain_increases_and_tops_out_high() {
    let gain_at = |us: u64| {
        let (base, _) = Workload::fig5();
        let w = base.with_all_delays(DelayModel::Uniform {
            mean: SimDuration::from_micros(us),
        });
        let seq = run_once(&w, StrategyKind::Seq);
        let dse = run_once(&w, StrategyKind::Dse);
        dse.gain_over(&seq)
    };
    let g8 = gain_at(8);
    let g20 = gain_at(20);
    let g60 = gain_at(60);
    assert!(
        g8 < g20 && g20 < g60,
        "gain must increase: {g8} {g20} {g60}"
    );
    assert!(
        g60 > 0.60,
        "gain should approach the paper's 70 % at high w_min, got {:.1}%",
        g60 * 100.0
    );
    assert!(
        g8.abs() < 0.10,
        "at tiny w_min both strategies are CPU-bound: {:.1}%",
        g8 * 100.0
    );
}
