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

use std::fmt::Display;
use std::io::Write;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use dqs_core::{lwb, run_named, unknown_strategy};
use dqs_exec::spec::WorkloadSpec;
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

/// Report a usage error and exit 2.
fn refuse(message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Report a runtime failure.
fn failed(message: impl Display) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// One sub-command's arguments. Each lookup marks what it took, so
/// [`Args::finish`] can refuse whatever nobody asked for: a misspelled flag
/// must not silently run with a default.
struct Args {
    items: Vec<String>,
    taken: Vec<bool>,
}

impl Args {
    fn new(items: &[String]) -> Args {
        Args {
            items: items.to_vec(),
            taken: vec![false; items.len()],
        }
    }

    /// The leading spec or trace path: the first argument, unless it is a
    /// flag. `or` is the complaint when it is missing.
    fn path(&mut self, or: &str) -> String {
        match self.items.first() {
            Some(first) if !first.starts_with("--") => {
                self.taken[0] = true;
                first.clone()
            }
            _ => refuse(or),
        }
    }

    /// Mark the first untaken occurrence of `name` as taken.
    fn take(&mut self, name: &str) -> Option<usize> {
        let i = (0..self.items.len()).find(|&i| !self.taken[i] && self.items[i] == name)?;
        self.taken[i] = true;
        Some(i)
    }

    /// Was the bare switch `name` given?
    fn has(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// `name VALUE` parsed as `T`; exits 2 if the value is missing (or is
    /// itself a flag) or does not parse.
    fn get<T: FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let at = self.take(name)? + 1;
        let Some(value) = self.items.get(at).filter(|v| !v.starts_with("--")) else {
            refuse(format_args!("{name} wants a value"));
        };
        self.taken[at] = true;
        match value.parse() {
            Ok(v) => Some(v),
            Err(e) => refuse(format_args!("{name} {value:?}: {e}")),
        }
    }

    /// `--connect ADDR`, which the client sub-commands cannot do without.
    fn connect(&mut self, what: &str) -> String {
        self.get("--connect")
            .unwrap_or_else(|| refuse(format_args!("{what} requires --connect ADDR")))
    }

    /// Exit 2 naming the first argument no lookup consumed.
    fn finish(self) {
        if let Some(i) = self.taken.iter().position(|t| !t) {
            refuse(format_args!("unexpected argument {:?}", self.items[i]));
        }
    }
}

/// `dqs wrapper --listen ADDR [--churn-ms T]`: a foreground
/// wrapper-server process, optionally with a background write stream.
fn cmd_wrapper(mut args: Args) -> ExitCode {
    let listen: String = args.get("--listen").unwrap_or_else(|| {
        refuse("wrapper requires --listen ADDR (e.g. 127.0.0.1:7401)");
    });
    let interval = args.get::<NonZeroU64>("--churn-ms");
    let tuples = args.get::<NonZeroU64>("--churn-tuples");
    let rounds = args.get("--churn-count").unwrap_or(0);
    args.finish();
    let churn = interval.map(|ms| ChurnOpts {
        interval: Duration::from_millis(ms.get()),
        tuples: tuples.map_or(64, NonZeroU64::get),
        rounds,
    });
    match WrapperServer::bind_with(&listen, Duration::ZERO, churn) {
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
        Err(e) => failed(format_args!("cannot bind {listen}: {e}")),
    }
}

/// `dqs serve --listen ADDR [--wrappers A,B] [...]`: the mediator service.
fn cmd_serve(mut args: Args) -> ExitCode {
    let listen: String = args.get("--listen").unwrap_or_else(|| {
        refuse("serve requires --listen ADDR (e.g. 127.0.0.1:7400)");
    });
    let mut opts = ServeOpts::default();
    if let Some(w) = args.get::<String>("--wrappers") {
        // Groups are ';'-separated so a group's replica list can use
        // commas: `w0=h:1,h:2;w1=h:3`. A bare comma list still means
        // distinct single-endpoint wrappers (parsed in dqs-replica).
        opts.wrappers = w.split(';').map(str::to_string).collect();
    }
    let mb = |n: u64| n << 20;
    let ms = Duration::from_millis;
    opts.max_concurrent = args.get("--max-concurrent").unwrap_or(opts.max_concurrent);
    opts.backlog = args.get("--backlog").unwrap_or(opts.backlog);
    opts.memory_bytes = args.get("--memory-mb").map_or(opts.memory_bytes, mb);
    opts.cache_bytes = args.get("--cache-mb").map_or(opts.cache_bytes, mb);
    opts.cache_ttl = args.get("--cache-ttl-ms").map(ms);
    opts.io_threads = args.get("--io-threads").unwrap_or(opts.io_threads);
    opts.exec_workers = args
        .get::<NonZeroUsize>("--exec-workers")
        .map_or(opts.exec_workers, NonZeroUsize::get);
    opts.admission = args.get("--admission").unwrap_or(opts.admission);
    opts.refresh_interval = args
        .get::<NonZeroU64>("--refresh-interval-ms")
        .map(|t| ms(t.get()));
    opts.refresh_budget_kbps = args.get("--refresh-budget-kbps").unwrap_or(0);
    args.finish();
    match MediatorServer::bind(&listen, opts) {
        Ok(server) => {
            // Flushed for the same reason as the wrapper: ephemeral-port
            // scripts scrape this line through a pipe.
            println!("mediator listening on {}", server.local_addr());
            std::io::stdout().flush().ok();
            server.run_forever();
            ExitCode::SUCCESS
        }
        Err(e) => failed(format_args!("cannot bind {listen}: {e}")),
    }
}

/// `dqs submit <spec.json> --connect ADDR [...]`: run a query remotely.
fn cmd_submit(mut args: Args) -> ExitCode {
    let path = args.path("submit requires a spec path");
    let addr = args.connect("submit");
    let opts = SubmitOpts {
        strategy: args.get("--strategy").unwrap_or_else(|| "dse".to_string()),
        seed: args.get("--seed"),
        trace: args.has("--trace"),
        no_cache: args.has("--no-cache"),
        // Default to retrying for a while: lets the quickstart launch
        // `serve` and `submit` together without a sleep in between.
        connect_timeout: Duration::from_millis(args.get("--connect-timeout").unwrap_or(10_000)),
    };
    // `--json` dumps the raw Done payload so scripts can grep
    // serving-side counters (stale_served, refreshes, ...) that the human
    // rendering below does not lift into fields.
    let raw = args.has("--json");
    args.finish();
    let spec_json = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return failed(format_args!("cannot read {path}: {e}")),
    };
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
        Ok(m) if raw => println!("{}", m.raw),
        Ok(m) => {
            println!("strategy       {}", m.strategy);
            println!("response       {:.6} s", m.response_secs);
            println!("output tuples  {}", m.output_tuples);
        }
        Err(e) => return failed(e),
    }
    ExitCode::SUCCESS
}

/// `dqs invalidate --connect ADDR [--rel N] [--wrapper ID]`: refresh the
/// mediator's result cache by dropping entries — one relation's, one
/// logical wrapper's (the replica-group id scans were recorded under),
/// their conjunction, or all of them.
fn cmd_invalidate(mut args: Args) -> ExitCode {
    let addr = args.connect("invalidate");
    let rel = args.get("--rel").map(dqs_relop::RelId);
    let timeout = Duration::from_millis(args.get("--connect-timeout").unwrap_or(10_000));
    let wrapper = args.get("--wrapper");
    args.finish();
    match dqs_mediator::invalidate(addr, rel, wrapper, timeout) {
        Ok((entries, bytes)) => {
            println!("invalidated {entries} cached scans ({bytes} bytes released)");
            ExitCode::SUCCESS
        }
        Err(e) => failed(e),
    }
}

/// `dqs bench c10k --connect ADDR [...]`: the open-loop load generator —
/// a flood trace (every session due at t = 0) of one spec, replayed.
fn cmd_bench_c10k(mut args: Args) -> ExitCode {
    let sessions = args.get("--sessions").unwrap_or(11_500);
    let spec_path = args.get::<String>("--spec");
    let strategy = args.get("--strategy").unwrap_or_else(|| "dse".to_string());
    let replay = Replay::parse("bench c10k", args);
    let spec = match spec_path {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => return failed(format_args!("cannot read {path}: {e}")),
        },
        None => TINY_SPEC.to_string(),
    };
    match replay.run(&Trace::flood(sessions, &spec, &strategy)) {
        // A flood is judged on every session completing, so a backlog too
        // small to hold them all fails the run like any other error.
        Ok(report) if report.errored + report.rejected > 0 => ExitCode::FAILURE,
        Ok(_) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// `dqs workload gen --out trace.json [...]`: synthesize a trace.
fn cmd_workload_gen(mut args: Args) -> ExitCode {
    let mut opts = GenOpts::default();
    opts.seed = args.get("--seed").unwrap_or(opts.seed);
    opts.specs = args.get("--specs").unwrap_or(opts.specs);
    opts.events = args.get("--events").unwrap_or(opts.events);
    if opts.specs == 0 || opts.events == 0 {
        refuse("--specs and --events must be positive");
    }
    opts.zipf_s = args.get("--zipf").unwrap_or(opts.zipf_s);
    let rate: f64 = args.get("--rate").unwrap_or(200.0);
    if rate <= 0.0 {
        refuse(format_args!("--rate wants a positive number, got {rate}"));
    }
    let (on_ms, off_ms) = (
        args.get("--on-ms").unwrap_or(200),
        args.get("--off-ms").unwrap_or(300),
    );
    let base = args.get("--base-rate").unwrap_or((rate / 10.0).max(0.1));
    let period_ms = args.get("--period-ms").unwrap_or(10_000);
    let arrival = args
        .get("--arrival")
        .unwrap_or_else(|| "poisson".to_string());
    opts.arrival = match arrival.as_str() {
        "poisson" => Arrival::Poisson { rate_per_sec: rate },
        "bursty" => Arrival::Bursty {
            rate_per_sec: rate,
            on_ms,
            off_ms,
        },
        "diurnal" if base > 0.0 && base <= rate => Arrival::Diurnal {
            base_per_sec: base,
            peak_per_sec: rate,
            period_ms,
        },
        "diurnal" => refuse(format_args!("--base-rate wants 0 < R ≤ --rate, got {base}")),
        other => refuse(format_args!(
            "unknown arrival {other:?} (poisson|bursty|diurnal)"
        )),
    };
    let out = args
        .get("--out")
        .unwrap_or_else(|| "trace.json".to_string());
    args.finish();
    let trace = dqs_workload::generate(&opts);
    if let Err(e) = std::fs::write(&out, format!("{}\n", trace.to_json())) {
        return failed(format_args!("cannot write {out}: {e}"));
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
fn cmd_workload_replay(mut args: Args) -> ExitCode {
    let path = args.path("workload replay requires a trace path");
    let replay = Replay::parse("workload replay", args);
    let trace = match std::fs::read_to_string(&path) {
        Ok(text) => match Trace::from_json(&text) {
            Ok(t) => t,
            Err(e) => return failed(e),
        },
        Err(e) => return failed(format_args!("cannot read {path}: {e}")),
    };
    match replay.run(&trace) {
        Ok(report) if report.errored > 0 => ExitCode::FAILURE,
        Ok(_) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// What `bench c10k` and `workload replay` share: fire a trace at the
/// mediator named by `--connect` (with `--batch`, `--timeout-secs`), print
/// the report's JSON line and a one-line summary, and write the JSON line
/// to `--out FILE` only when asked. The caller rules on the exit code.
struct Replay {
    what: &'static str,
    opts: ReplayOpts,
    out: Option<String>,
}

impl Replay {
    /// Takes the rest of `args`: these are the last flags either command
    /// looks at.
    fn parse(what: &'static str, mut args: Args) -> Replay {
        let mut opts = ReplayOpts {
            addr: args.connect(what),
            ..ReplayOpts::default()
        };
        if let Some(n) = args.get::<NonZeroUsize>("--batch") {
            opts.connect_batch = n.get();
        }
        if let Some(secs) = args.get("--timeout-secs") {
            opts.timeout = Duration::from_secs(secs);
        }
        let out = args.get("--out");
        args.finish();
        Replay { what, opts, out }
    }

    fn run(&self, trace: &Trace) -> Result<ReplayReport, ExitCode> {
        let what = self.what;
        let report = dqs_workload::replay(trace, &self.opts)
            .map_err(|e| failed(format_args!("{what} failed: {e}")))?;
        let json = report.to_json();
        if let Some(out) = &self.out {
            std::fs::write(out, format!("{json}\n"))
                .map_err(|e| failed(format_args!("cannot write {out}: {e}")))?;
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
            self.out
                .as_ref()
                .map(|o| format!(" -> {o}"))
                .unwrap_or_default()
        );
        Ok(report)
    }
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

/// What `dqs run` takes beyond the spec: `--strategy X | --all`,
/// `--real-time`, `--trace-json PATH`.
struct RunOpts {
    strategy: String,
    all: bool,
    real_time: bool,
    trace_json: Option<String>,
}

impl RunOpts {
    fn parse(args: &mut Args) -> RunOpts {
        RunOpts {
            strategy: args.get("--strategy").unwrap_or_else(|| "dse".to_string()),
            all: args.has("--all"),
            real_time: args.has("--real-time"),
            trace_json: args.get("--trace-json"),
        }
    }

    fn run(&self, workload: &Workload) -> Result<(), String> {
        if !self.all {
            let path = self.trace_json.as_deref();
            print_metrics(&run_strategy(
                workload,
                &self.strategy,
                path,
                self.real_time,
            )?);
            return Ok(());
        }
        for s in ["seq", "ma", "scr", "dse", "spm"] {
            // One trace file per strategy: `<path>.<strategy>`.
            let path = self.trace_json.as_ref().map(|p| format!("{p}.{s}"));
            print_metrics(&run_strategy(workload, s, path.as_deref(), self.real_time)?);
            println!();
        }
        Ok(())
    }
}

/// `dqs explain|lwb|validate|run <spec.json> [--seed N] [--workers N]`:
/// the commands that work on a spec in this process.
fn cmd_local(cmd: &str, mut args: Args) -> ExitCode {
    let path = args.path("a spec path comes first");
    let seed = args.get("--seed");
    let workers = args.get::<NonZeroUsize>("--workers");
    let run = (cmd == "run").then(|| RunOpts::parse(&mut args));
    args.finish();
    let mut workload = match load(&path) {
        Ok(w) => w,
        Err(e) => return failed(e),
    };
    workload.config.seed = seed.unwrap_or(workload.config.seed);
    workload.config.workers = workers.map_or(workload.config.workers, NonZeroUsize::get);
    match (cmd, run) {
        (_, Some(run)) => {
            if let Err(e) = run.run(&workload) {
                return failed(e);
            }
        }
        ("validate", _) => println!(
            "ok: {} relations, {} joins planned, {} pipeline chains",
            workload.catalog.len(),
            workload.qep.join_count(),
            ChainSet::decompose(&workload.qep).len()
        ),
        ("explain", _) => explain(&workload),
        _ => {
            let l = lwb(&workload);
            println!(
                "LWB {:.6} s (cpu work {:.6} s, max retrieval {:.6} s)",
                l.bound().as_secs_f64(),
                l.cpu_work.as_secs_f64(),
                l.max_retrieval.as_secs_f64()
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    // `bench` and `workload` take a mode word before their arguments.
    let mode = rest.first().map_or("", String::as_str);
    let args = |skip: usize| Args::new(&rest[skip..]);
    match (cmd.as_str(), mode) {
        ("wrapper", _) => cmd_wrapper(args(0)),
        ("serve", _) => cmd_serve(args(0)),
        ("submit", _) => cmd_submit(args(0)),
        ("invalidate", _) => cmd_invalidate(args(0)),
        ("bench", "c10k") => cmd_bench_c10k(args(1)),
        ("bench", _) => refuse("bench wants a mode; only `bench c10k` exists"),
        ("workload", "gen") => cmd_workload_gen(args(1)),
        ("workload", "replay") => cmd_workload_replay(args(1)),
        ("workload", _) => refuse("workload wants a mode: `workload gen` or `workload replay`"),
        ("explain" | "lwb" | "validate" | "run", _) => cmd_local(cmd, args(0)),
        _ => usage(),
    }
}
