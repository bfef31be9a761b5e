//! `--repeat N`: the stability check. Runs every workload N times, each
//! in a fresh process and with another seed (so `setup_s` is a process's
//! true set-up), and fails if any end-to-end metric's (max − min)/median
//! exceeds its bound — the two sets of runs a regression check compares
//! must agree with themselves first. Also reports the spread the driver
//! computes (interquartile range over median, to stay below a third of
//! the bound), re-runs the first seed to check that what should repeat
//! exactly does, and interleaves traced runs of it for the tracing overhead.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use dqs_exec::json::{self, Json};

use crate::manifest::{get, Manifest};
use crate::stats::{mean, median, quartiles, sorted};

/// Per-layer counts that are exact on `paper-sim`: one thread, virtual
/// time, no sockets.
const EXACT_ON_PAPER_SIM: [&str; 12] = [
    "storage.temp.pages_written_per_session",
    "storage.temp.pages_read_per_session",
    "source.comm.rate_changes_per_session",
    "exec.engine.events_per_session",
    "exec.dqp.batches_per_session",
    "exec.replan.plans_per_session",
    "exec.engine.interrupts_per_session",
    "exec.engine.stall_share",
    "exec.engine.model_cpu_share",
    "core.dqo.degradations_per_session",
    "exec.strategies.model_response_dse_s",
    "core.dse.over_lwb",
];

struct RunResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// `shape FAIL` and `incorrect` lines the run printed.
    complaints: Vec<String>,
}

fn one_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    let v = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let metrics = get(&v, "metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), get(m, "value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        correct: get(&v, "correct") == Some(&Json::Bool(true)),
        failed: get(&v, "failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
        complaints: stdout
            .lines()
            .filter(|l| l.starts_with("shape FAIL") || l.starts_with("incorrect"))
            .map(str::to_string)
            .collect(),
    })
}

pub fn run(manifest: &Manifest, runs: usize, seed: u64, seconds: u64) -> Result<ExitCode, String> {
    let mut failures: Vec<String> = Vec::new();
    println!(
        "{:<11} {:<17} {:>11} {:>11} {:>11} {:>9} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "range/med", "iqr/med", "bound"
    );
    for workload in &manifest.workloads {
        let mut results = Vec::with_capacity(runs);
        for i in 0..runs as u64 {
            let r = one_run(workload, seed + i, seconds, false)?;
            if !r.correct || r.failed != 0 {
                failures.push(format!(
                    "{workload} seed {}: correct={} failed={}",
                    seed + i,
                    r.correct,
                    r.failed
                ));
            }
            for c in &r.complaints {
                failures.push(format!("{workload} seed {}: {c}", seed + i));
            }
            results.push(r);
        }
        for m in &manifest.end_to_end {
            let values: Vec<f64> = results.iter().map(|r| r.metrics[&m.name]).collect();
            let v = sorted(&values);
            let (min, mid, max) = (v[0], median(&v), v[v.len() - 1]);
            let (q1, q3) = quartiles(&v);
            let bound = m.bound.unwrap_or(0.0);
            let range = (max - min) / mid;
            println!(
                "{workload:<11} {:<17} {min:>11.4} {mid:>11.4} {max:>11.4} {range:>9.4} {:>8.4} {bound:>6.2}",
                m.name,
                (q3 - q1) / mid,
            );
            if range > bound {
                failures.push(format!(
                    "{workload} {}: (max − min)/median = {range:.4} exceeds the bound {bound}",
                    m.name
                ));
            }
        }

        // What must repeat exactly, and the cost of tracing: the first
        // seed again, untraced and traced runs interleaved so a drift of
        // the host's speed falls on both sides alike.
        let again = one_run(workload, seed, seconds, false)?;
        let traced_1 = one_run(workload, seed, seconds, true)?;
        let again_2 = one_run(workload, seed, seconds, false)?;
        let traced = [traced_1, one_run(workload, seed, seconds, true)?];
        if workload == "paper-sim" {
            let (a, b) = (
                results[0].metrics["response_mean_ms"],
                again.metrics["response_mean_ms"],
            );
            if a != b {
                failures.push(format!("paper-sim response_mean_ms: {a} then {b}"));
            }
            for name in EXACT_ON_PAPER_SIM {
                let (a, b) = (traced[0].metrics[name], traced[1].metrics[name]);
                if a != b {
                    failures.push(format!("paper-sim {name}: {a} then {b}"));
                }
            }
            println!(
                "{workload:<11} response_mean_ms and {} exact counts repeat to the last digit: {}",
                EXACT_ON_PAPER_SIM.len(),
                !failures
                    .iter()
                    .any(|f| f.starts_with("paper-sim ") && f.contains(" then "))
            );
        }
        let untraced_p50 = mean(&[
            again.metrics["session_p50_ms"],
            again_2.metrics["session_p50_ms"],
        ]);
        let traced_p50 = mean(&[
            traced[0].metrics["trace.session_p50_ms"],
            traced[1].metrics["trace.session_p50_ms"],
        ]);
        println!(
            "{workload:<11} trace.overhead_share = {:.4} (traced p50 {traced_p50:.4} ms over untraced {untraced_p50:.4} ms, same seed)",
            traced_p50 / untraced_p50 - 1.0
        );
        for t in &traced {
            if !t.correct {
                failures.push(format!("{workload} traced run: correct=false"));
            }
        }
    }
    if failures.is_empty() {
        println!("stable: every end-to-end metric stayed within its bound on every workload");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            println!("UNSTABLE: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}
