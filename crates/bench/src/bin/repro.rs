//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <command>
//!
//!   table1          Table 1 simulation parameters
//!   figure5         the experiment QEP and its pipeline chains
//!   headline        SEQ/MA/DSE/LWB at w_min (sanity row)
//!   figure6         slow down relation A (Figure 6)
//!   figure7         slow down relation F (Figure 7)
//!   figure6-all     slow down each relation in turn (§5.2)
//!   figure8         raise w_min for all wrappers (Figure 8)
//!   delay-taxonomy  initial / bursty / slow delays (§1.2) under all strategies
//!   memory          shrinking memory budgets (§4.1/§4.2)
//!   multi-query     N concurrent queries: throughput vs response (§6)
//!   cache           wrapper result cache cold vs warm (JSON to --csv PATH)
//!   failover        kill a replica mid-scan vs clean run (JSON to --csv PATH)
//!   morsel          worker-pool scaling on a probe-heavy spec (writes BENCH_morsel.json)
//!   spm             online source permutation vs baselines (writes BENCH_spm.json)
//!   refresh         budgeted refresh under a write burst (writes BENCH_refresh.json)
//!   workload        Zipf/Poisson replay + fifo-vs-sjf A/B (writes BENCH_workload.json)
//!   scrambling      query scrambling baseline + timeout sweep (§1.2)
//!   ablate-bmt      benefit-materialization threshold sweep (A1)
//!   ablate-batch    DQP batch-size sweep (A2)
//!   ablate-queue    queue-capacity sweep (A3)
//!   ablate-dse      DSE feature knock-outs (A6)
//!   ablate-rate     RateChange threshold sweep
//!   all             everything above, in order
//! ```

use dqs_bench::experiments as ex;

/// Optional `--csv <path>` after the command writes machine-readable data
/// for the plottable figures.
fn csv_target() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1).cloned())
}

fn maybe_write_csv(csv: &Option<String>, data: String) {
    if let Some(path) = csv {
        std::fs::write(path, data).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("csv written to {path}");
    }
}

fn run(cmd: &str) -> bool {
    let csv = csv_target();
    match cmd {
        "table1" => print!("{}", ex::table1()),
        "figure5" => print!("{}", ex::figure5()),
        "headline" => print!("{}", ex::headline()),
        "figure6" => {
            let rows = ex::slowdown_sweep('A');
            print!("{}", ex::render_slowdown('A', &rows));
            maybe_write_csv(&csv, ex::slowdown_csv(&rows));
        }
        "figure7" => {
            let rows = ex::slowdown_sweep('F');
            print!("{}", ex::render_slowdown('F', &rows));
            maybe_write_csv(&csv, ex::slowdown_csv(&rows));
        }
        "figure6-all" => {
            for letter in dqs_plan::Fig5::letters() {
                let rows = ex::slowdown_sweep(letter);
                print!("{}", ex::render_slowdown(letter, &rows));
                println!();
            }
        }
        "figure8" => {
            let rows = ex::figure8();
            print!("{}", ex::render_figure8(&rows));
            maybe_write_csv(&csv, ex::figure8_csv(&rows));
        }
        "delay-taxonomy" => print!("{}", ex::delay_taxonomy()),
        "memory" => print!("{}", ex::memory_pressure()),
        "multi-query" => print!("{}", ex::multi_query()),
        "cache" => {
            let report = ex::cache_experiment();
            print!("{}", ex::render_cache(&report));
            maybe_write_csv(&csv, ex::cache_json(&report));
        }
        "failover" => {
            let report = ex::failover_experiment();
            print!("{}", ex::render_failover(&report));
            maybe_write_csv(&csv, ex::failover_json(&report));
        }
        "morsel" => {
            let report = ex::morsel_experiment();
            print!("{}", ex::render_morsel(&report));
            let path = csv.unwrap_or_else(|| "BENCH_morsel.json".into());
            std::fs::write(&path, ex::morsel_json(&report)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("json written to {path}");
        }
        "spm" => {
            let report = ex::spm_experiment();
            print!("{}", ex::render_spm(&report));
            let path = csv.unwrap_or_else(|| "BENCH_spm.json".into());
            std::fs::write(&path, ex::spm_json(&report)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("json written to {path}");
        }
        "refresh" => {
            let report = ex::refresh_experiment();
            print!("{}", ex::render_refresh(&report));
            let path = csv.unwrap_or_else(|| "BENCH_refresh.json".into());
            std::fs::write(&path, ex::refresh_json(&report)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("json written to {path}");
        }
        "workload" => {
            let report = ex::workload_experiment();
            print!("{}", ex::render_workload(&report));
            let path = csv.unwrap_or_else(|| "BENCH_workload.json".into());
            std::fs::write(&path, ex::workload_json(&report)).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("json written to {path}");
        }
        "scrambling" => print!("{}", ex::scrambling()),
        "ablate-bmt" => print!("{}", ex::ablate_bmt()),
        "ablate-batch" => print!("{}", ex::ablate_batch()),
        "ablate-queue" => print!("{}", ex::ablate_queue()),
        "ablate-dse" => print!("{}", ex::ablate_dse_features()),
        "ablate-rate" => print!("{}", ex::ablate_rate()),
        "all" => {
            for c in [
                "table1",
                "figure5",
                "headline",
                "figure6",
                "figure7",
                "figure6-all",
                "figure8",
                "delay-taxonomy",
                "memory",
                "multi-query",
                "cache",
                "failover",
                "morsel",
                "spm",
                "refresh",
                "workload",
                "scrambling",
                "ablate-bmt",
                "ablate-batch",
                "ablate-queue",
                "ablate-dse",
                "ablate-rate",
            ] {
                println!("===== {c} =====");
                run(c);
                println!();
            }
        }
        _ => return false,
    }
    true
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "help".into());
    if cmd == "help" || !run(&cmd) {
        eprint!(
            "usage: repro <command>\n\
             commands: table1 figure5 headline figure6 figure7 figure6-all figure8\n\
             \u{20}         delay-taxonomy memory multi-query cache failover morsel spm refresh workload scrambling ablate-bmt\n\
             \u{20}         ablate-batch\n\
             \u{20}         ablate-queue\n\
             \u{20}         ablate-dse ablate-rate all\n"
        );
        std::process::exit(2);
    }
}
