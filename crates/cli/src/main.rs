//! `dqs` — run, explain, bound and serve JSON-specified integration
//! workloads.
//!
//! ```text
//! dqs explain <spec.json>                 show plan, chains, annotations
//! dqs run <spec.json> [--strategy X] [--seed N] [--all]
//! dqs lwb <spec.json>                     analytic lower bound
//! dqs validate <spec.json>                parse + plan, report problems
//! dqs wrapper --listen ADDR               serve relations to a mediator
//! dqs serve --listen ADDR [--wrappers A]  the concurrent mediator service
//! dqs submit <spec.json> --connect ADDR   run a query on a mediator
//! dqs invalidate --connect ADDR [--rel N] drop the mediator's cached scans
//! dqs bench c10k --connect ADDR           open-loop C10K load generator
//! dqs workload gen --out trace.json       seeded Zipf/Poisson trace generator
//! dqs workload replay trace.json --connect ADDR   open-loop trace replay
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use dqs_cli::spec::WorkloadSpec;
use dqs_core::{lwb, run_named, unknown_strategy};
use dqs_exec::{
    EngineObserver, JsonLinesSink, NullObserver, RealTimeDriver, RunMetrics, SimDriver, Workload,
};
use dqs_mediator::{ChurnOpts, MediatorServer, Progress, ServeOpts, SubmitOpts, WrapperServer};
use dqs_plan::{AnnotatedPlan, ChainSet};
use dqs_workload::{Arrival, GenOpts, ReplayOpts, ReplayReport, Trace, TINY_SPEC};

fn usage() -> ExitCode {
    eprint!(
        "usage: dqs <command> [<spec.json>] [options]\n\
         commands:\n\
         \u{20} explain   show the optimized plan, pipeline chains and annotations\n\
         \u{20} run       execute (options: --strategy seq|ma|scr|dse|spm, --seed N, --all,\n\
         \u{20}           --real-time: wall-clock execution instead of simulation,\n\
         \u{20}           --workers N: morsel worker threads (default 1 = serial),\n\
         \u{20}           --trace-json <path>: write structured engine events as JSON lines)\n\
         \u{20} lwb       print the analytic response-time lower bound\n\
         \u{20} validate  parse and plan without executing\n\
         \u{20} wrapper   serve simulated relations over TCP (--listen ADDR,\n\
         \u{20}           --churn-ms T: append tuples to every served relation each T ms,\n\
         \u{20}           --churn-tuples N: appended per round (default 64),\n\
         \u{20}           --churn-count N: stop after N rounds, 0 = forever)\n\
         \u{20} serve     run the mediator service (--listen ADDR,\n\
         \u{20}           --wrappers 'id=A,B;id2=C': replica groups — a scan opens on\n\
         \u{20}           the fastest live replica and fails over mid-scan; bare A,B\n\
         \u{20}           still means two distinct wrappers,\n\
         \u{20}           --max-concurrent N, --backlog N, --memory-mb M,\n\
         \u{20}           --cache-mb M: result-cache budget, --cache-ttl-ms T,\n\
         \u{20}           --io-threads N: reactor event-loop threads (default cores-1),\n\
         \u{20}           --exec-workers N: shared morsel worker pool (default 1),\n\
         \u{20}           --admission fifo|sjf|fair: backlog promotion policy,\n\
         \u{20}           --refresh-interval-ms T: background cache refresh cycle\n\
         \u{20}           (needs --cache-mb and --wrappers),\n\
         \u{20}           --refresh-budget-kbps K: refresh traffic cap, 0 = unlimited)\n\
         \u{20} submit    run a spec on a mediator (--connect ADDR, --strategy X,\n\
         \u{20}           --seed N, --trace, --no-cache, --json: print raw metrics JSON,\n\
         \u{20}           --connect-timeout MS)\n\
         \u{20} invalidate  drop the mediator's cached scans (--connect ADDR,\n\
         \u{20}           --rel N: one relation only, --wrapper ID: one logical\n\
         \u{20}           wrapper's entries only, --connect-timeout MS)\n\
         \u{20} bench c10k  open-loop load generator (--connect ADDR, --sessions N,\n\
         \u{20}           --batch N: arrival burst size, --strategy X, --spec PATH,\n\
         \u{20}           --timeout-secs N, --out FILE: also write the report there;\n\
         \u{20}           fails if any session errored or was rejected)\n\
         \u{20} workload gen  seeded trace generator (--out FILE: default trace.json,\n\
         \u{20}           --seed N, --specs N: pool size, --events N, --zipf S,\n\
         \u{20}           --arrival poisson|bursty|diurnal, --rate R: arrivals/sec\n\
         \u{20}           (diurnal: the peak), --on-ms/--off-ms: bursty windows,\n\
         \u{20}           --base-rate R, --period-ms T: diurnal curve)\n\
         \u{20} workload replay  fire a trace at a mediator (TRACE --connect ADDR,\n\
         \u{20}           --batch N, --timeout-secs N, --out FILE: also write the\n\
         \u{20}           report there; prints queue-wait vs execution percentiles\n\
         \u{20}           and cache hit rate as one JSON line)\n"
    );
    ExitCode::from(2)
}

/// `--flag VALUE` lookup.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `dqs wrapper --listen ADDR [--churn-ms T]`: a foreground
/// wrapper-server process, optionally with a background write stream.
fn cmd_wrapper(args: &[String]) -> ExitCode {
    let Some(listen) = flag_value(args, "--listen") else {
        eprintln!("error: wrapper requires --listen ADDR (e.g. 127.0.0.1:7401)");
        return ExitCode::from(2);
    };
    let mut churn = None;
    if let Some(ms) = flag_value(args, "--churn-ms") {
        let interval = match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => Duration::from_millis(ms),
            _ => {
                eprintln!("error: --churn-ms wants positive milliseconds, got {ms:?}");
                return ExitCode::from(2);
            }
        };
        let tuples = match flag_value(args, "--churn-tuples") {
            Some(n) => match n.parse::<u64>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("error: --churn-tuples wants a positive integer, got {n:?}");
                    return ExitCode::from(2);
                }
            },
            None => 64,
        };
        let rounds = match flag_value(args, "--churn-count") {
            Some(n) => match n.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("error: --churn-count wants an integer, got {n:?}");
                    return ExitCode::from(2);
                }
            },
            None => 0,
        };
        churn = Some(ChurnOpts {
            interval,
            tuples,
            rounds,
        });
    }
    match WrapperServer::bind_with(listen, Duration::ZERO, churn) {
        Ok(server) => {
            // Printed on its own line so scripts can scrape the port —
            // flushed explicitly because piped stdout is block-buffered,
            // and with `--listen 127.0.0.1:0` the scraped line is the only
            // way to learn the ephemeral port.
            println!("wrapper listening on {}", server.local_addr());
            std::io::stdout().flush().ok();
            server.run_forever();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dqs serve --listen ADDR [--wrappers A,B] [...]`: the mediator service.
fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(listen) = flag_value(args, "--listen") else {
        eprintln!("error: serve requires --listen ADDR (e.g. 127.0.0.1:7400)");
        return ExitCode::from(2);
    };
    let mut opts = ServeOpts::default();
    if let Some(w) = flag_value(args, "--wrappers") {
        // Groups are ';'-separated so a group's replica list can use
        // commas: `w0=h:1,h:2;w1=h:3`. A bare comma list still means
        // distinct single-endpoint wrappers (parsed in dqs-replica).
        opts.wrappers = w.split(';').map(str::to_string).collect();
    }
    if let Some(n) = flag_value(args, "--max-concurrent") {
        match n.parse() {
            Ok(n) => opts.max_concurrent = n,
            Err(_) => {
                eprintln!("error: --max-concurrent wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--backlog") {
        match n.parse() {
            Ok(n) => opts.backlog = n,
            Err(_) => {
                eprintln!("error: --backlog wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--memory-mb") {
        match n.parse::<u64>() {
            Ok(mb) => opts.memory_bytes = mb << 20,
            Err(_) => {
                eprintln!("error: --memory-mb wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--cache-mb") {
        match n.parse::<u64>() {
            Ok(mb) => opts.cache_bytes = mb << 20,
            Err(_) => {
                eprintln!("error: --cache-mb wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--cache-ttl-ms") {
        match n.parse::<u64>() {
            Ok(ms) => opts.cache_ttl = Some(Duration::from_millis(ms)),
            Err(_) => {
                eprintln!("error: --cache-ttl-ms wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--io-threads") {
        match n.parse() {
            Ok(n) => opts.io_threads = n,
            Err(_) => {
                eprintln!("error: --io-threads wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--exec-workers") {
        match n.parse() {
            Ok(n) if n > 0 => opts.exec_workers = n,
            _ => {
                eprintln!("error: --exec-workers wants a positive integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(p) = flag_value(args, "--admission") {
        match p.parse() {
            Ok(policy) => opts.admission = policy,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--refresh-interval-ms") {
        match n.parse::<u64>() {
            Ok(ms) if ms > 0 => opts.refresh_interval = Some(Duration::from_millis(ms)),
            _ => {
                eprintln!("error: --refresh-interval-ms wants positive milliseconds, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--refresh-budget-kbps") {
        match n.parse::<u64>() {
            Ok(k) => opts.refresh_budget_kbps = k,
            Err(_) => {
                eprintln!("error: --refresh-budget-kbps wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    match MediatorServer::bind(listen, opts) {
        Ok(server) => {
            // Flushed for the same reason as the wrapper: ephemeral-port
            // scripts scrape this line through a pipe.
            println!("mediator listening on {}", server.local_addr());
            std::io::stdout().flush().ok();
            server.run_forever();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dqs submit <spec.json> --connect ADDR [...]`: run a query remotely.
fn cmd_submit(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("error: submit requires a spec path");
        return ExitCode::from(2);
    };
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("error: submit requires --connect ADDR");
        return ExitCode::from(2);
    };
    let spec_json = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut opts = SubmitOpts {
        strategy: flag_value(args, "--strategy").unwrap_or("dse").to_string(),
        seed: None,
        trace: args.iter().any(|a| a == "--trace"),
        no_cache: args.iter().any(|a| a == "--no-cache"),
        // Default to retrying for a while: lets the quickstart launch
        // `serve` and `submit` together without a sleep in between.
        connect_timeout: Duration::from_millis(10_000),
    };
    if let Some(s) = flag_value(args, "--seed") {
        match s.parse() {
            Ok(seed) => opts.seed = Some(seed),
            Err(_) => {
                eprintln!("error: --seed wants an integer, got {s:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(ms) = flag_value(args, "--connect-timeout") {
        match ms.parse::<u64>() {
            Ok(ms) => opts.connect_timeout = Duration::from_millis(ms),
            Err(_) => {
                eprintln!("error: --connect-timeout wants milliseconds, got {ms:?}");
                return ExitCode::from(2);
            }
        }
    }
    let result = dqs_mediator::submit(addr, &spec_json, &opts, |p| match p {
        Progress::Queued(pos) => eprintln!("queued at position {pos}"),
        Progress::Accepted {
            session,
            memory_bytes,
        } => eprintln!(
            "accepted as session {session} ({:.2} MB memory partition)",
            memory_bytes as f64 / (1024.0 * 1024.0)
        ),
        Progress::TraceLine(line) => println!("{line}"),
    });
    match result {
        Ok(m) => {
            // `--json` dumps the raw Done payload so scripts can grep
            // serving-side counters (stale_served, refreshes, ...) that
            // the human rendering below does not lift into fields.
            if args.iter().any(|a| a == "--json") {
                println!("{}", m.raw);
            } else {
                println!("strategy       {}", m.strategy);
                println!("response       {:.6} s", m.response_secs);
                println!("output tuples  {}", m.output_tuples);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dqs invalidate --connect ADDR [--rel N] [--wrapper ID]`: refresh the
/// mediator's result cache by dropping entries — one relation's, one
/// logical wrapper's (the replica-group id scans were recorded under),
/// their conjunction, or all of them.
fn cmd_invalidate(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("error: invalidate requires --connect ADDR");
        return ExitCode::from(2);
    };
    let rel = match flag_value(args, "--rel") {
        Some(n) => match n.parse::<u16>() {
            Ok(r) => Some(dqs_relop::RelId(r)),
            Err(_) => {
                eprintln!("error: --rel wants a relation id, got {n:?}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let timeout = match flag_value(args, "--connect-timeout") {
        Some(ms) => match ms.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms),
            Err(_) => {
                eprintln!("error: --connect-timeout wants milliseconds, got {ms:?}");
                return ExitCode::from(2);
            }
        },
        None => Duration::from_millis(10_000),
    };
    let wrapper = flag_value(args, "--wrapper").map(str::to_string);
    match dqs_mediator::invalidate(addr, rel, wrapper, timeout) {
        Ok((entries, bytes)) => {
            println!("invalidated {entries} cached scans ({bytes} bytes released)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dqs bench c10k --connect ADDR [...]`: the open-loop load generator —
/// a flood trace (every session due at t = 0) of one spec, replayed.
fn cmd_bench(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) != Some("c10k") {
        eprintln!("error: bench wants a mode; only `bench c10k` exists");
        return ExitCode::from(2);
    }
    let args = &args[1..];
    let sessions = match flag_value(args, "--sessions") {
        Some(n) => match n.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: --sessions wants an integer, got {n:?}");
                return ExitCode::from(2);
            }
        },
        None => 11_500,
    };
    let spec = match flag_value(args, "--spec") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => TINY_SPEC.to_string(),
    };
    let strategy = flag_value(args, "--strategy").unwrap_or("dse");
    match replay_and_print("bench c10k", &Trace::flood(sessions, &spec, strategy), args) {
        // A flood is judged on every session completing, so a backlog too
        // small to hold them all fails the run like any other error.
        Ok(report) if report.errored + report.rejected > 0 => ExitCode::FAILURE,
        Ok(_) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// `dqs workload gen|replay [...]`: the workload generator and the
/// open-loop trace replay harness.
fn cmd_workload(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_workload_gen(&args[1..]),
        Some("replay") => cmd_workload_replay(&args[1..]),
        _ => {
            eprintln!("error: workload wants a mode: `workload gen` or `workload replay`");
            ExitCode::from(2)
        }
    }
}

/// `dqs workload gen --out trace.json [...]`: synthesize a trace.
fn cmd_workload_gen(args: &[String]) -> ExitCode {
    let mut opts = GenOpts::default();
    macro_rules! int_flag {
        ($flag:literal, $target:expr) => {
            if let Some(n) = flag_value(args, $flag) {
                match n.parse() {
                    Ok(v) => $target = v,
                    Err(_) => {
                        eprintln!("error: {} wants an integer, got {n:?}", $flag);
                        return ExitCode::from(2);
                    }
                }
            }
        };
    }
    int_flag!("--seed", opts.seed);
    int_flag!("--specs", opts.specs);
    int_flag!("--events", opts.events);
    if opts.specs == 0 || opts.events == 0 {
        eprintln!("error: --specs and --events must be positive");
        return ExitCode::from(2);
    }
    if let Some(s) = flag_value(args, "--zipf") {
        match s.parse() {
            Ok(z) => opts.zipf_s = z,
            Err(_) => {
                eprintln!("error: --zipf wants a number, got {s:?}");
                return ExitCode::from(2);
            }
        }
    }
    let rate = match flag_value(args, "--rate") {
        Some(r) => match r.parse::<f64>() {
            Ok(r) if r > 0.0 => r,
            _ => {
                eprintln!("error: --rate wants a positive number, got {r:?}");
                return ExitCode::from(2);
            }
        },
        None => 200.0,
    };
    let parse_ms = |flag: &str, default: u64| -> Result<u64, ExitCode> {
        match flag_value(args, flag) {
            Some(n) => n.parse().map_err(|_| {
                eprintln!("error: {flag} wants milliseconds, got {n:?}");
                ExitCode::from(2)
            }),
            None => Ok(default),
        }
    };
    opts.arrival = match flag_value(args, "--arrival").unwrap_or("poisson") {
        "poisson" => Arrival::Poisson { rate_per_sec: rate },
        "bursty" => {
            let (on_ms, off_ms) = match (parse_ms("--on-ms", 200), parse_ms("--off-ms", 300)) {
                (Ok(on), Ok(off)) => (on, off),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            Arrival::Bursty {
                rate_per_sec: rate,
                on_ms,
                off_ms,
            }
        }
        "diurnal" => {
            let base = match flag_value(args, "--base-rate") {
                Some(b) => match b.parse::<f64>() {
                    Ok(b) if b > 0.0 && b <= rate => b,
                    _ => {
                        eprintln!("error: --base-rate wants 0 < R ≤ --rate, got {b:?}");
                        return ExitCode::from(2);
                    }
                },
                None => (rate / 10.0).max(0.1),
            };
            let period_ms = match parse_ms("--period-ms", 10_000) {
                Ok(p) => p,
                Err(code) => return code,
            };
            Arrival::Diurnal {
                base_per_sec: base,
                peak_per_sec: rate,
                period_ms,
            }
        }
        other => {
            eprintln!("error: unknown arrival {other:?} (poisson|bursty|diurnal)");
            return ExitCode::from(2);
        }
    };
    let out = flag_value(args, "--out").unwrap_or("trace.json");
    let trace = dqs_workload::generate(&opts);
    if let Err(e) = std::fs::write(out, format!("{}\n", trace.to_json())) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "workload gen: {} events over {} specs, {:.1} s span, seed {} -> {}",
        trace.events.len(),
        trace.specs.len(),
        trace.duration_ms() as f64 / 1e3,
        trace.seed,
        out
    );
    ExitCode::SUCCESS
}

/// `dqs workload replay TRACE --connect ADDR [...]`: fire a trace at a
/// live mediator and report the latency split.
fn cmd_workload_replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("error: workload replay requires a trace path");
        return ExitCode::from(2);
    };
    let trace = match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
        Ok(text) => match Trace::from_json(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match replay_and_print("workload replay", &trace, args) {
        Ok(report) if report.errored > 0 => ExitCode::FAILURE,
        Ok(_) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// What `bench c10k` and `workload replay` share: fire `trace` at the
/// mediator named by `--connect` (with `--batch`, `--timeout-secs`), print
/// the report's JSON line and a one-line summary, and write the JSON line
/// to `--out FILE` only when asked. The caller rules on the exit code.
fn replay_and_print(what: &str, trace: &Trace, args: &[String]) -> Result<ReplayReport, ExitCode> {
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("error: {what} requires --connect ADDR");
        return Err(ExitCode::from(2));
    };
    let mut opts = ReplayOpts {
        addr: addr.to_string(),
        ..ReplayOpts::default()
    };
    if let Some(n) = flag_value(args, "--batch") {
        match n.parse() {
            Ok(n) if n > 0 => opts.connect_batch = n,
            _ => {
                eprintln!("error: --batch wants a positive integer, got {n:?}");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(n) = flag_value(args, "--timeout-secs") {
        match n.parse::<u64>() {
            Ok(s) => opts.timeout = Duration::from_secs(s),
            Err(_) => {
                eprintln!("error: --timeout-secs wants an integer, got {n:?}");
                return Err(ExitCode::from(2));
            }
        }
    }
    let report = dqs_workload::replay(trace, &opts).map_err(|e| {
        eprintln!("error: {what} failed: {e}");
        ExitCode::FAILURE
    })?;
    let json = report.to_json();
    let out = flag_value(args, "--out");
    if let Some(out) = out {
        std::fs::write(out, format!("{json}\n")).map_err(|e| {
            eprintln!("error: cannot write {out}: {e}");
            ExitCode::FAILURE
        })?;
    }
    println!("{json}");
    println!(
        "{what}: {}/{} completed ({} rejected, {} errored), peak {} open, \
         p99 total {:.2} ms = queue {:.2} + exec {:.2}, cache hit rate {:.1}%{}",
        report.completed,
        report.sessions,
        report.rejected,
        report.errored,
        report.peak_concurrent,
        report.total.p99_ms,
        report.queue_wait.p99_ms,
        report.exec.p99_ms,
        report.cache_hit_rate() * 100.0,
        out.map(|o| format!(" -> {o}")).unwrap_or_default()
    );
    Ok(report)
}

fn load(path: &str) -> Result<Workload, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    WorkloadSpec::from_json(&text)
        .and_then(WorkloadSpec::into_workload)
        .map_err(|e| e.to_string())
}

/// Execute `w` under the named strategy on the chosen substrate, optionally
/// writing the JSON event trace. An aborted run surfaces its `RunError` as
/// a message; the trace (including the final `abort` event) is flushed
/// either way.
fn run_strategy(
    w: &Workload,
    name: &str,
    trace_json: Option<&str>,
    real_time: bool,
) -> Result<RunMetrics, String> {
    fn on<O: EngineObserver>(
        w: &Workload,
        name: &str,
        observer: O,
        real_time: bool,
    ) -> Result<RunMetrics, String> {
        let run = if real_time {
            run_named(name, w, observer, RealTimeDriver::new())
        } else {
            run_named(name, w, observer, SimDriver::new())
        };
        run.ok_or_else(|| unknown_strategy(name))?
            .map_err(|e| e.to_string())
    }
    let Some(path) = trace_json else {
        return on(w, name, NullObserver, real_time);
    };
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut sink = JsonLinesSink::new(std::io::BufWriter::new(file));
    let result = on(w, name, &mut sink, real_time);
    sink.finish()
        .and_then(|mut out| out.flush())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    result
}

fn print_metrics(m: &RunMetrics) {
    println!("strategy       {}", m.strategy);
    println!("response       {:.6} s", m.response_secs());
    println!("output tuples  {}", m.output_tuples);
    println!("cpu busy       {:.6} s", m.cpu_busy.as_secs_f64());
    println!("disk busy      {:.6} s", m.disk_busy.as_secs_f64());
    println!("stall          {:.6} s", m.stall_time.as_secs_f64());
    println!(
        "disk pages     {} written, {} read, {} seeks",
        m.pages_written, m.pages_read, m.seeks
    );
    println!(
        "scheduler      {} plans, {} EndOfQF, {} RateChange, {} TimeOut, {} degradations",
        m.plans, m.end_of_qf, m.rate_changes, m.timeouts, m.degradations
    );
    println!(
        "memory peak    {:.2} MB",
        m.memory_high_water as f64 / (1024.0 * 1024.0)
    );
    if m.morsels > 0 {
        println!(
            "morsels        {} dispatched, {} stolen",
            m.morsels, m.steals
        );
    }
    if m.query_responses.len() > 1 {
        for (q, t) in &m.query_responses {
            println!("query {q} done   {:.6} s", t.as_secs_f64());
        }
    }
}

fn explain(w: &Workload) {
    let catalog = w.catalog.clone();
    println!("Plan (build side first = blocking edge):");
    print!("{}", w.qep.render(&|r| catalog.name(r).to_string()));
    let chains = ChainSet::decompose(&w.qep);
    let plan = AnnotatedPlan::annotate(chains, &w.catalog, &w.config.params);
    println!("\nPipeline chains (iterator order):");
    for pc in &plan.chains.chains {
        let info = plan.info(pc.id);
        let blocked: Vec<u32> = pc.blocked_by.iter().map(|p| p.0).collect();
        println!(
            "  p{}: {:?} -> {:?}, blocked_by {:?}, n≈{}, c_p={:.2}µs, mem={} KB",
            pc.id.0,
            pc.source,
            pc.sink,
            blocked,
            info.source_card as u64,
            plan.per_tuple_cost(pc.id, &w.config.params).as_micros_f64(),
            info.mem_bytes / 1024
        );
    }
    println!(
        "\nTotals: {} chains, {:.2} MB of hash tables, {:.3} s CPU work estimate",
        plan.chains.len(),
        plan.total_ht_bytes() as f64 / (1024.0 * 1024.0),
        plan.total_cpu_estimate(&w.config.params).as_secs_f64()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // The networked subcommands take flags, not a leading spec path.
    match cmd.as_str() {
        "wrapper" => return cmd_wrapper(&args[1..]),
        "serve" => return cmd_serve(&args[1..]),
        "submit" => return cmd_submit(&args[1..]),
        "invalidate" => return cmd_invalidate(&args[1..]),
        "bench" => return cmd_bench(&args[1..]),
        "workload" => return cmd_workload(&args[1..]),
        _ => {}
    }
    let Some(path) = args.get(1) else {
        return usage();
    };
    let mut workload = match load(path) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(seed) => workload.config.seed = seed,
            None => return usage(),
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--workers") {
        match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(w) if w >= 1 => workload.config.workers = w,
            _ => return usage(),
        }
    }

    match cmd.as_str() {
        "validate" => {
            println!(
                "ok: {} relations, {} joins planned, {} pipeline chains",
                workload.catalog.len(),
                workload.qep.join_count(),
                ChainSet::decompose(&workload.qep).len()
            );
            ExitCode::SUCCESS
        }
        "explain" => {
            explain(&workload);
            ExitCode::SUCCESS
        }
        "lwb" => {
            let l = lwb(&workload);
            println!(
                "LWB {:.6} s (cpu work {:.6} s, max retrieval {:.6} s)",
                l.bound().as_secs_f64(),
                l.cpu_work.as_secs_f64(),
                l.max_retrieval.as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        "run" => {
            let trace_json =
                args.iter()
                    .position(|a| a == "--trace-json")
                    .map(|i| match args.get(i + 1) {
                        Some(p) => p.clone(),
                        None => String::new(),
                    });
            if trace_json.as_deref() == Some("") {
                return usage();
            }
            let real_time = args.iter().any(|a| a == "--real-time");
            if args.iter().any(|a| a == "--all") {
                for s in ["seq", "ma", "scr", "dse", "spm"] {
                    // One trace file per strategy: `<path>.<strategy>`.
                    let per_strategy = trace_json.as_ref().map(|p| format!("{p}.{s}"));
                    match run_strategy(&workload, s, per_strategy.as_deref(), real_time) {
                        Ok(m) => {
                            print_metrics(&m);
                            println!();
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                return ExitCode::SUCCESS;
            }
            let strategy = args
                .iter()
                .position(|a| a == "--strategy")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("dse");
            match run_strategy(&workload, strategy, trace_json.as_deref(), real_time) {
                Ok(m) => {
                    print_metrics(&m);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
