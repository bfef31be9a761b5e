//! `dqs-perf` — the repository's benchmark. One invocation runs one named
//! workload from a seed and prints every metric by name and unit; see
//! `perf/README.md` for what each number means and which layer moves it.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload serve-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with span recording off;
//! `--trace 1` repeats the same list with spans on and reports the
//! per-layer metrics. `--repeat N` is the stability check.

mod manifest;
mod probes;
mod procstat;
mod repeat;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use manifest::Manifest;
use stats::{mean, median, percentile, ratio, sorted};
use workloads::{Def, EngineReport, Outcome, Pass, Prepared, BLOCKS, DEFS};

/// The end-to-end metrics, reported on every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("response_mean_ms", "ms"),
];

/// The per-layer metrics, `crate.module.metric`, reported by the traced
/// run. Counts are per timed session unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("sim.event_queue.ns_per_event", "ns"),
    ("sim.events_per_s", "events/s"),
    ("storage.temp.pages_written_per_session", "count"),
    ("storage.temp.pages_read_per_session", "count"),
    ("storage.temp.append_scan_ns_per_tuple", "ns"),
    ("relop.hash_build.tuples_per_s", "tuples/s"),
    ("relop.hash_probe.tuples_per_s", "tuples/s"),
    ("relop.chain.batch128_ns", "ns"),
    ("relop.fanout.ns_per_tuple", "ns"),
    ("plan.spec_to_workload_us", "us"),
    ("plan.optimizer_us_per_query", "us"),
    ("source.net.encode_small_ns_per_frame", "ns"),
    ("source.net.decode_small_ns_per_frame", "ns"),
    ("source.net.encode_bulk_mb_per_s", "MB/s"),
    ("source.net.decode_bulk_mb_per_s", "MB/s"),
    ("source.net.writebuffer_flush_mb_per_s", "MB/s"),
    ("source.remote.scan_tuples_per_s", "tuples/s"),
    ("source.remote.open_us", "us"),
    ("source.cached.replay_mb_per_s", "MB/s"),
    ("source.comm.rate_changes_per_session", "count"),
    ("replica.select_ns", "ns"),
    ("replica.opens_skew", "ratio"),
    ("replica.failovers", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "bytes"),
    ("cache.bytes_served_per_session", "bytes"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("refresh.plan_ns_per_entry", "ns"),
    ("adapt.observe_ns_per_sample", "ns"),
    ("adapt.replan_ns", "ns"),
    ("adapt.rate_samples", "count"),
    ("adapt.permutations", "count"),
    ("exec.engine.events_per_session", "count"),
    ("exec.dqp.batches_per_session", "count"),
    ("exec.replan.plans_per_session", "count"),
    ("exec.engine.interrupts_per_session", "count"),
    ("exec.engine.stall_share", "ratio"),
    ("exec.engine.model_cpu_share", "ratio"),
    ("exec.pool.morsels_per_session", "count"),
    ("exec.pool.steals_per_session", "count"),
    ("exec.pool.dispatch_ns_per_morsel", "ns"),
    ("exec.json.parse_mb_per_s", "MB/s"),
    ("exec.strategies.model_response_seq_s", "s"),
    ("exec.strategies.model_response_ma_s", "s"),
    ("exec.strategies.model_response_scr_s", "s"),
    ("exec.strategies.model_response_dse_s", "s"),
    ("exec.strategies.model_response_spm_s", "s"),
    ("core.lwb.model_response_s", "s"),
    ("core.dse.over_lwb", "ratio"),
    ("core.dqo.degradations_per_session", "count"),
    ("core.session.submit_finish_fifo_ns", "ns"),
    ("core.session.submit_finish_sjf_ns", "ns"),
    ("core.session.queue_wait_p50_ms", "ms"),
    ("core.session.queue_wait_p90_ms", "ms"),
    ("core.session.queued_share", "ratio"),
    ("reactor.wake_roundtrip_ns", "ns"),
    ("reactor.timer_schedule_advance_ns", "ns"),
    ("reactor.register_modify_ns", "ns"),
    ("workload.generate_ms_per_kevent", "ms"),
    ("mediator.client.connect_us_p50", "us"),
    ("mediator.server.admit_path_p50_ms", "ms"),
    ("mediator.server.overhead_p50_ms", "ms"),
    ("mediator.server.trace_frames_dropped", "count"),
    ("mediator.server.connections_accepted", "count"),
    ("process.cpu_ms_per_session", "ms"),
    ("process.cpu_util", "ratio"),
    ("process.threads_peak", "count"),
    ("process.ctx_switches_per_session", "count"),
    ("process.peak_rss_mb", "MB"),
    ("loadgen.cpu_share", "ratio"),
    ("host.steal_share", "ratio"),
    ("trace.session_p50_ms", "ms"),
];

/// A run with more of the host's time stolen than this is not
/// representative of the code.
const MAX_STEAL_SHARE: f64 = 0.05;
/// `setup_s` below this is too short to time steadily (the rejected first
/// attempt's 0.07-0.12 s swung by 57 %).
const MIN_SETUP_SECS: f64 = 2.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?.max(1)),
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = Some(number(value()?)?.max(5) as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    match run(started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dqs-perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(started: Instant) -> Result<ExitCode, String> {
    let args = parse_args()?;
    let manifest = Manifest::load()?;
    let names: Vec<&str> = DEFS.iter().map(|d| d.name).collect();
    manifest.check(&names, &END_TO_END, &PER_LAYER)?;
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    if let Some(runs) = args.repeat {
        return repeat::run(&manifest, runs, args.seed, seconds);
    }
    let name = args.workload.ok_or(format!(
        "--workload is one of {}; or --repeat N for the stability check",
        names.join(", ")
    ))?;
    let def = Def::by_name(&name).ok_or(format!("unknown workload {name:?}"))?;
    run_once(started, &def, args.seed, seconds, args.trace)
}

/// Snapshot of everything counted outside the sessions themselves.
struct Counters {
    at: Instant,
    usage: procstat::Usage,
    jiffies: (u64, u64),
    cache: dqs_cache::CacheStats,
    opens: Vec<u64>,
}

impl Counters {
    fn read(prepared: &Prepared) -> Counters {
        let topology = prepared.topology();
        Counters {
            at: Instant::now(),
            usage: procstat::process_usage(),
            jiffies: procstat::host_jiffies(),
            cache: topology
                .and_then(|t| t.mediator.cache_stats())
                .unwrap_or_default(),
            opens: topology.map(|t| t.opens()).unwrap_or_default(),
        }
    }
}

/// The timed list as run: its outcomes and the counters around it.
struct Timed {
    outcomes: Vec<Outcome>,
    client_cpu_secs: f64,
    /// Zero when untraced: the sampler thread only runs with tracing on.
    threads_peak: u64,
    before: Counters,
    after: Counters,
    /// Serving workloads: trace frames dropped, connections accepted and
    /// the cache budget, read before the servers stopped.
    server: Option<(u64, u64, u64)>,
}

impl Timed {
    fn ok(&self) -> Vec<(&Outcome, &EngineReport)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|r| (o, r)))
            .collect()
    }

    fn wall_secs(&self) -> f64 {
        (self.after.at - self.before.at).as_secs_f64()
    }

    fn cache_delta(&self, f: fn(&dqs_cache::CacheStats) -> u64) -> u64 {
        f(&self.after.cache) - f(&self.before.cache)
    }

    fn hit_rate(&self) -> f64 {
        let hits = self.cache_delta(|c| c.hits);
        ratio(hits as f64, (hits + self.cache_delta(|c| c.misses)) as f64)
    }

    /// Scans opened per replica endpoint over the timed list.
    fn opens(&self) -> Vec<u64> {
        let (after, before) = (&self.after.opens, &self.before.opens);
        after.iter().zip(before).map(|(a, b)| a - b).collect()
    }

    fn steal_share(&self) -> f64 {
        let (after, before) = (self.after.jiffies, self.before.jiffies);
        ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64)
    }
}

/// Generate the lists, bind the servers, run the warm-up pass — `reps`
/// times over, keeping the last. Returns the median set-up time; the
/// first set-up is clocked from process start.
fn set_up(
    started: Instant,
    def: &Def,
    seed: u64,
    seconds: u64,
    reps: usize,
    problems: &mut Vec<String>,
) -> (Prepared, f64) {
    let mut setups = Vec::with_capacity(reps);
    let mut prepared: Option<Prepared> = None;
    for rep in 0..reps {
        if let Some(previous) = prepared.take() {
            previous.shutdown();
        }
        let t0 = if rep == 0 { started } else { Instant::now() };
        let p = workloads::prepare(def, seed, seconds);
        let cap = Instant::now() + Duration::from_secs(60);
        let (warm, _, _) = p.run(Pass::WarmUp, def.clients, cap, false);
        setups.push(t0.elapsed().as_secs_f64());
        for why in warm.iter().filter_map(|o| o.result.as_ref().err()) {
            problems.push(format!("warm-up session failed: {why}"));
        }
        prepared = Some(p);
    }
    (prepared.expect("at least one set-up"), median(&setups))
}

/// Run the timed list under a hard wall-clock cap of three times what it
/// took on the commit that sized it, then stop the servers. Returns the
/// spans next to the run: the probes go on recording into them.
fn run_timed(prepared: Prepared, def: &Def, seconds: u64, trace: bool) -> (Timed, spans::Recorder) {
    let before = Counters::read(&prepared);
    let cap = before.at + Duration::from_secs(3 * seconds);
    let ((outcomes, spans, client_cpu_secs), threads_peak) = if trace {
        procstat::with_thread_peak(|| prepared.run(Pass::Timed, def.clients, cap, true))
    } else {
        (prepared.run(Pass::Timed, def.clients, cap, false), 0)
    };
    let after = Counters::read(&prepared);
    let server = prepared.topology().map(|t| {
        let m = t.mediator.metrics();
        (
            m.trace_frames_dropped(),
            m.connections_accepted(),
            t.cache_budget,
        )
    });
    prepared.shutdown();
    let timed = Timed {
        outcomes,
        client_cpu_secs,
        threads_peak,
        before,
        after,
        server,
    };
    (timed, spans)
}

/// Shape: a median or p90 sitting on the gap between two clusters of
/// sessions swings with noise, and so does a set-up too short to time.
/// Re-size the list; do not widen a bound.
fn shape_failures(setup_s: Option<f64>, latencies: &[f64], steal_share: f64) -> Vec<String> {
    let mut shape = Vec::new();
    if let Some(setup_s) = setup_s.filter(|s| *s < MIN_SETUP_SECS) {
        shape.push(format!("setup_s {setup_s:.3} < {MIN_SETUP_SECS} s"));
    }
    for (q, around, tolerance) in [
        (0.45, 0.50, 0.05),
        (0.55, 0.50, 0.05),
        (0.85, 0.90, 0.10),
        (0.95, 0.90, 0.10),
    ] {
        let off = (percentile(latencies, q) / percentile(latencies, around) - 1.0).abs();
        if off > tolerance {
            shape.push(format!(
                "p{:.0} is {:.1} % from p{:.0}",
                q * 100.0,
                off * 100.0,
                around * 100.0
            ));
        }
    }
    if steal_share > MAX_STEAL_SHARE {
        shape.push(format!(
            "host.steal_share {steal_share:.3} > {MAX_STEAL_SHARE}"
        ));
    }
    shape
}

/// Correctness beyond the per-session answer check.
fn invariant_failures(def: &Def, timed: &Timed, failovers: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if failovers != 0 {
        problems.push(format!("replica.failovers = {failovers}, no wrapper died"));
    }
    match def.name {
        "serve-warm" => {
            let (hit_rate, opens) = (timed.hit_rate(), timed.opens().iter().sum::<u64>());
            if hit_rate != 1.0 {
                problems.push(format!("cache.hit_rate = {hit_rate} on a filled cache"));
            }
            if opens != 0 {
                problems.push(format!("{opens} wrapper opens on a filled cache"));
            }
        }
        "serve-cold" => {
            let budget = timed.server.map_or(0, |s| s.2);
            let resident = timed.after.cache.resident_bytes;
            if timed.cache_delta(|c| c.evictions) == 0 {
                problems.push("cache.evictions = 0 under a budget below the working set".into());
            }
            if resident > budget {
                problems.push(format!("cache.resident_bytes {resident} > budget {budget}"));
            }
        }
        _ => {}
    }
    problems
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    setup_s: f64,
    timed: &Timed,
    ok: &[(&Outcome, &EngineReport)],
    latencies: &[f64],
) -> BTreeMap<&'static str, f64> {
    // Throughput as the median over five consecutive blocks of the list,
    // so one neighbour-induced stall moves one block, not the metric.
    let mut ends: Vec<Instant> = ok.iter().map(|(o, _)| o.end).collect();
    ends.sort();
    let block_rates: Vec<f64> = (0..BLOCKS)
        .map(|b| {
            let (lo, hi) = (b * ends.len() / BLOCKS, (b + 1) * ends.len() / BLOCKS);
            let from = if lo == 0 {
                timed.before.at
            } else {
                ends[lo - 1]
            };
            (hi - lo) as f64 / (ends[hi - 1] - from).as_secs_f64()
        })
        .collect();
    let responses_ms: Vec<f64> = ok.iter().map(|(_, r)| r.response_secs * 1e3).collect();
    BTreeMap::from([
        ("setup_s", setup_s),
        ("session_p50_ms", percentile(latencies, 0.50)),
        ("session_p90_ms", percentile(latencies, 0.90)),
        ("sessions_per_s", median(&block_rates)),
        ("response_mean_ms", mean(&responses_ms)),
    ])
}

/// The per-layer metrics of a traced run: the probes, then everything
/// counted over the timed list.
fn per_layer(
    timed: &Timed,
    ok: &[(&Outcome, &EngineReport)],
    latencies: &[f64],
    failovers: u64,
    rec: &mut spans::Recorder,
) -> BTreeMap<&'static str, f64> {
    let n = ok.len() as f64;
    let wall = timed.wall_secs();
    let cpu = timed.after.usage.cpu_secs - timed.before.usage.cpu_secs;
    let sum = |f: fn(&EngineReport) -> f64| ok.iter().map(|(_, r)| f(r)).sum::<f64>();
    let per_session = |f: fn(&EngineReport) -> f64| sum(f) / n;
    let p50_of = |f: &dyn Fn(&Outcome, &EngineReport) -> f64| {
        median(&ok.iter().map(|(o, r)| f(o, r)).collect::<Vec<_>>())
    };
    let queue_waits = sorted(
        &ok.iter()
            .map(|(_, r)| r.queue_wait_secs * 1e3)
            .collect::<Vec<_>>(),
    );
    let unqueued_admits: Vec<f64> = ok
        .iter()
        .filter(|(o, _)| !o.queued)
        .map(|(o, _)| o.admit_ms)
        .collect();
    let opens = timed.opens();
    let (dropped, accepted, _) = timed.server.unwrap_or_default();

    let mut metrics = BTreeMap::new();
    probes::run_all(rec, &mut metrics);
    metrics.extend([
        ("sim.events_per_s", sum(|r| r.events as f64) / wall),
        (
            "storage.temp.pages_written_per_session",
            per_session(|r| r.pages_written as f64),
        ),
        (
            "storage.temp.pages_read_per_session",
            per_session(|r| r.pages_read as f64),
        ),
        (
            "source.comm.rate_changes_per_session",
            per_session(|r| r.rate_changes as f64),
        ),
        (
            "replica.opens_skew",
            ratio(
                opens.iter().copied().max().unwrap_or(0) as f64,
                opens.iter().copied().min().unwrap_or(0).max(1) as f64,
            ),
        ),
        ("replica.failovers", failovers as f64),
        ("cache.hit_rate", timed.hit_rate()),
        (
            "cache.insertions",
            timed.cache_delta(|c| c.insertions) as f64,
        ),
        ("cache.evictions", timed.cache_delta(|c| c.evictions) as f64),
        (
            "cache.resident_bytes",
            timed.after.cache.resident_bytes as f64,
        ),
        (
            "cache.bytes_served_per_session",
            per_session(|r| r.cache_bytes_served as f64),
        ),
        (
            "exec.engine.events_per_session",
            per_session(|r| r.events as f64),
        ),
        (
            "exec.dqp.batches_per_session",
            per_session(|r| r.batches as f64),
        ),
        (
            "exec.replan.plans_per_session",
            per_session(|r| r.plans as f64),
        ),
        (
            "exec.engine.interrupts_per_session",
            per_session(|r| r.interrupts as f64),
        ),
        (
            "exec.engine.stall_share",
            ratio(sum(|r| r.stall_secs), sum(|r| r.response_secs)),
        ),
        (
            "exec.engine.model_cpu_share",
            ratio(sum(|r| r.cpu_busy_secs), sum(|r| r.response_secs)),
        ),
        (
            "exec.pool.morsels_per_session",
            per_session(|r| r.morsels as f64),
        ),
        (
            "exec.pool.steals_per_session",
            per_session(|r| r.steals as f64),
        ),
        (
            "core.dqo.degradations_per_session",
            per_session(|r| r.degradations as f64),
        ),
        (
            "core.session.queue_wait_p50_ms",
            percentile(&queue_waits, 0.50),
        ),
        (
            "core.session.queue_wait_p90_ms",
            percentile(&queue_waits, 0.90),
        ),
        (
            "core.session.queued_share",
            ok.iter().filter(|(o, _)| o.queued).count() as f64 / n,
        ),
        (
            "mediator.client.connect_us_p50",
            p50_of(&|o, _| o.connect_us),
        ),
        (
            "mediator.server.admit_path_p50_ms",
            median(&unqueued_admits),
        ),
        (
            "mediator.server.overhead_p50_ms",
            // `paper-sim` has no mediator between caller and engine.
            if timed.server.is_some() {
                p50_of(&|o, r| o.latency_ms() - r.response_secs * 1e3)
            } else {
                0.0
            },
        ),
        ("mediator.server.trace_frames_dropped", dropped as f64),
        ("mediator.server.connections_accepted", accepted as f64),
        ("process.cpu_ms_per_session", cpu * 1e3 / n),
        ("process.cpu_util", cpu / wall),
        ("process.threads_peak", timed.threads_peak as f64),
        (
            "process.ctx_switches_per_session",
            (timed.after.usage.ctx_switches - timed.before.usage.ctx_switches) as f64 / n,
        ),
        ("process.peak_rss_mb", timed.after.usage.peak_rss_mb),
        ("loadgen.cpu_share", ratio(timed.client_cpu_secs, cpu)),
        ("host.steal_share", timed.steal_share()),
        ("trace.session_p50_ms", percentile(latencies, 0.50)),
    ]);
    metrics
}

fn run_once(
    started: Instant,
    def: &Def,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<ExitCode, String> {
    let mut problems: Vec<String> = Vec::new();
    // Untraced runs set up three times over and report the median.
    let reps = if trace { 1 } else { SETUP_REPS };
    let (prepared, setup_s) = set_up(started, def, seed, seconds, reps, &mut problems);
    let (timed, mut rec) = run_timed(prepared, def, seconds, trace);

    let ok = timed.ok();
    let attempted = timed.outcomes.len();
    let failed = attempted - ok.len();
    let failures = timed
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().err());
    problems.extend(failures.take(5).map(|why| format!("session failed: {why}")));
    if ok.is_empty() {
        return Err(format!(
            "no session of {} finished:\n  {}",
            def.name,
            problems.join("\n  ")
        ));
    }
    let latencies = sorted(&ok.iter().map(|(o, _)| o.latency_ms()).collect::<Vec<_>>());
    let failovers: u64 = ok.iter().map(|(_, r)| r.failovers).sum();
    let steal_share = timed.steal_share();
    let shape = shape_failures((!trace).then_some(setup_s), &latencies, steal_share);
    problems.extend(invariant_failures(def, &timed, failovers));
    let correct = failed == 0 && problems.is_empty();

    let (metrics, declared): (_, &[(&str, &str)]) = if trace {
        let metrics = per_layer(&timed, &ok, &latencies, failovers, &mut rec);
        let path = format!("perf/out/trace-{}.jsonl", def.name);
        std::fs::create_dir_all("perf/out")
            .and_then(|()| std::fs::write(&path, rec.to_jsonl(started)))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{}", rec.summary());
        println!(
            "spans: {} in {path}; per-session spans cover {:.4} of session latency",
            rec.spans().len(),
            rec.child_coverage("session")
        );
        (metrics, &PER_LAYER)
    } else {
        (end_to_end(setup_s, &timed, &ok, &latencies), &END_TO_END)
    };

    // Stamp, then every metric by name and unit, then the one-line result.
    println!(
        "stamp: workload={} seed={seed} seconds={seconds} trace={} commit={} rustc={:?} nproc={} \
         clients={} warm_up_sessions={} timed_sessions={attempted} samples_beyond_p90={} \
         host.steal_share={steal_share:.4} timed_wall_s={:.3}",
        def.name,
        u8::from(trace),
        commit(),
        rustc_version(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        def.clients,
        def.warm_up(),
        latencies.len() - (latencies.len() as f64 * 0.9).ceil() as usize,
        timed.wall_secs(),
    );
    let quantiles: Vec<String> = [0.0, 0.25, 0.45, 0.50, 0.55, 0.75, 0.85, 0.90, 0.95, 1.0]
        .iter()
        .map(|&q| format!("p{:.0}={:.3}", q * 100.0, percentile(&latencies, q)))
        .collect();
    println!("session latency, ms: {}", quantiles.join(" "));
    for problem in &problems {
        println!("incorrect: {problem}");
    }
    for s in &shape {
        println!("shape FAIL: {s} — re-size the list in perf/src/workloads.rs");
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} is declared but was never measured"));
        println!("{name:<44} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// The commit being measured, read from `.git` when the checkout has one
/// (the driver's does not).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim().get(..7) {
        Some(short) => short.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
