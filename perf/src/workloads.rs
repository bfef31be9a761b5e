//! The four workloads: what each one's seeded session list contains, the
//! topology it runs against, and how one session is driven and checked.
//!
//! Every run of a workload executes the same work. A list is a count of
//! sessions, not a duration; `--seconds` only scales that count from the
//! frozen per-second rates below (sized once, on the commit that added
//! the benchmark, so the timed part takes about `--seconds` there). The
//! seed permutes the list and feeds the generators; the population the
//! percentiles rank stays the same at every seed.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use dqs_core::DsePolicy;
use dqs_exec::json;
use dqs_exec::{run_workload, RunMetrics, SeqPolicy, Workload, WorkloadSpec};
use dqs_mediator::{MediatorServer, ServeOpts, WrapperServer};
use dqs_sim::{SeedSplitter, SimDuration};
use dqs_source::net::{read_frame, write_frame, Frame};
use dqs_source::DelayModel;
use dqs_workload::{generate, Arrival, DelayClass, GenOpts, Grammar};
use rand::Rng;

use crate::procstat::thread_cpu_secs;
use crate::spans::Recorder;

/// One workload's frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    /// Closed-loop client threads (never more than the box has cores).
    pub clients: usize,
    /// Timed sessions per `--seconds` second.
    pub timed_per_second: f64,
    /// What the sessions are served by; `None` is the in-process
    /// simulator.
    serve: Option<&'static ServeShape>,
}

pub const DEFS: [Def; 4] = [
    Def {
        name: "paper-sim",
        clients: 1,
        timed_per_second: 5.5,
        serve: None,
    },
    Def {
        name: "serve-cold",
        clients: 2,
        timed_per_second: 14.0,
        serve: Some(&COLD),
    },
    Def {
        name: "serve-warm",
        clients: 2,
        timed_per_second: 220.0,
        serve: Some(&WARM),
    },
    Def {
        name: "serve-bulk",
        clients: 2,
        timed_per_second: 6.5,
        serve: Some(&BULK),
    },
];

/// Warm-up sessions of `paper-sim`; about two seconds of them.
const SIM_WARM_UP: usize = 10;

impl Def {
    pub fn by_name(name: &str) -> Option<Def> {
        DEFS.iter().copied().find(|d| d.name == name)
    }

    /// Sessions of the warm-up pass, which is part of `setup_s`. A serving
    /// workload submits each spec of its pool once, in pool order — on
    /// `serve-warm` that is what fills the cache.
    pub fn warm_up(&self) -> usize {
        self.serve.map_or(SIM_WARM_UP, |shape| shape.pool)
    }

    pub fn timed_sessions(&self, seconds: u64) -> usize {
        ((self.timed_per_second * seconds as f64).round() as usize).max(BLOCKS)
    }
}

/// `sessions_per_s` is the median over this many consecutive blocks.
pub const BLOCKS: usize = 5;

/// What the engine reported for one finished session: `RunMetrics` on
/// `paper-sim`, the `Done` payload on the serving workloads.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    pub response_secs: f64,
    pub output_tuples: u64,
    pub cpu_busy_secs: f64,
    pub stall_secs: f64,
    pub queue_wait_secs: f64,
    pub events: u64,
    pub batches: u64,
    pub plans: u64,
    pub interrupts: u64,
    pub rate_changes: u64,
    pub degradations: u64,
    pub morsels: u64,
    pub steals: u64,
    pub pages_written: u64,
    pub pages_read: u64,
    pub cache_bytes_served: u64,
    pub failovers: u64,
}

impl From<&RunMetrics> for EngineReport {
    fn from(m: &RunMetrics) -> Self {
        EngineReport {
            response_secs: m.response_secs(),
            output_tuples: m.output_tuples,
            cpu_busy_secs: m.cpu_busy.as_secs_f64(),
            stall_secs: m.stall_time.as_secs_f64(),
            queue_wait_secs: 0.0,
            events: m.events,
            batches: m.batches,
            plans: m.plans,
            interrupts: m.end_of_qf + m.rate_changes + m.timeouts + m.memory_overflows,
            rate_changes: m.rate_changes,
            degradations: m.degradations,
            morsels: m.morsels,
            steals: m.steals,
            pages_written: m.pages_written,
            pages_read: m.pages_read,
            cache_bytes_served: m.cache_bytes_served,
            failovers: m.failovers,
        }
    }
}

impl EngineReport {
    /// Lift the counters out of a `Done` payload. The payload carries no
    /// disk page counts, so those stay zero on the serving workloads.
    fn from_done(payload: &str) -> Result<EngineReport, String> {
        let v = json::parse(payload).map_err(|e| format!("Done payload is not JSON: {e}"))?;
        let num = |key: &str| -> Result<f64, String> {
            crate::manifest::get(&v, key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("Done payload lacks number {key:?}"))
        };
        let int = |key: &str| num(key).map(|v| v as u64);
        Ok(EngineReport {
            response_secs: num("response_secs")?,
            output_tuples: int("output_tuples")?,
            cpu_busy_secs: num("cpu_busy_secs")?,
            stall_secs: num("stall_secs")?,
            queue_wait_secs: num("queue_wait_secs")?,
            events: int("events")?,
            batches: int("batches")?,
            plans: int("plans")?,
            interrupts: int("end_of_qf")?
                + int("rate_changes")?
                + int("timeouts")?
                + int("memory_overflows")?,
            rate_changes: int("rate_changes")?,
            degradations: int("degradations")?,
            morsels: int("morsels")?,
            steals: int("steals")?,
            pages_written: 0,
            pages_read: 0,
            cache_bytes_served: int("cache_bytes_served")?,
            failovers: int("failovers")?,
        })
    }
}

/// One session as the load generator saw it.
#[derive(Debug)]
pub struct Outcome {
    pub start: Instant,
    pub end: Instant,
    /// `Err` is a failed session: `Rejected`, `Error`, a wrong answer, a
    /// second terminal frame, or none before the run's wall-clock cap.
    pub result: Result<EngineReport, String>,
    /// Serving workloads only: TCP connect, microseconds.
    pub connect_us: f64,
    /// Serving workloads only: `Submit` written to `Accepted` read, ms.
    pub admit_ms: f64,
    /// The mediator answered `Queued` before `Accepted`.
    pub queued: bool,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A prepared workload: inputs generated, servers bound, references
/// computed. [`Prepared::shutdown`] stops and joins the servers.
pub enum Prepared {
    Sim(SimList),
    Serve(Box<ServeList>),
}

/// Build `def`'s inputs from `seed` and bind whatever it runs against.
pub fn prepare(def: &Def, seed: u64, seconds: u64) -> Prepared {
    let timed = def.timed_sessions(seconds);
    match def.serve {
        None => Prepared::Sim(SimList::generate(seed, def.warm_up(), timed)),
        Some(shape) => Prepared::Serve(Box::new(ServeList::generate(shape, seed, timed))),
    }
}

/// What one client thread brings back from a pass.
struct ClientRun {
    /// `(position in the list, outcome)` for every session it took.
    done: Vec<(usize, Outcome)>,
    spans: Recorder,
    cpu_secs: f64,
}

/// Which of a prepared workload's two lists to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    WarmUp,
    Timed,
}

impl Prepared {
    /// Run one pass closed-loop on `clients` threads: a client starts its
    /// next session only when its previous one reached a terminal state.
    /// Sessions not started by `deadline` fail without running. Returns
    /// the outcomes in list order, the merged spans, and the CPU seconds
    /// the client threads themselves used.
    pub fn run(
        &self,
        pass: Pass,
        clients: usize,
        deadline: Instant,
        trace: bool,
    ) -> (Vec<Outcome>, Recorder, f64) {
        let len = match (self, pass) {
            (Prepared::Sim(l), Pass::WarmUp) => l.warm_up.len(),
            (Prepared::Sim(l), Pass::Timed) => l.timed.len(),
            (Prepared::Serve(l), Pass::WarmUp) => l.warm_up.len(),
            (Prepared::Serve(l), Pass::Timed) => l.timed.len(),
        };
        let next = AtomicUsize::new(0);
        let per_client: Vec<ClientRun> = thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let cpu0 = thread_cpu_secs();
                        let mut rec = Recorder::new(trace);
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= len {
                                break;
                            }
                            let outcome = if Instant::now() >= deadline {
                                Outcome::not_run("wall-clock cap reached before the session")
                            } else {
                                match self {
                                    Prepared::Sim(l) => l.session(pass, i, &mut rec),
                                    Prepared::Serve(l) => l.session(pass, i, deadline, &mut rec),
                                }
                            };
                            done.push((i, outcome));
                        }
                        ClientRun {
                            done,
                            spans: rec,
                            cpu_secs: thread_cpu_secs() - cpu0,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut spans = Recorder::new(trace);
        let mut outcomes = Vec::with_capacity(len);
        let mut client_cpu = 0.0;
        for client in per_client {
            spans.absorb(client.spans);
            outcomes.extend(client.done);
            client_cpu += client.cpu_secs;
        }
        outcomes.sort_by_key(|(i, _)| *i);
        (
            outcomes.into_iter().map(|(_, o)| o).collect(),
            spans,
            client_cpu,
        )
    }

    pub fn topology(&self) -> Option<&Topology> {
        match self {
            Prepared::Sim(_) => None,
            Prepared::Serve(l) => Some(&l.topology),
        }
    }

    /// Stop and join every server thread this workload started.
    pub fn shutdown(self) {
        if let Prepared::Serve(l) = self {
            l.topology.shutdown();
        }
    }
}

impl Outcome {
    /// A session that crossed no socket.
    fn local(start: Instant, end: Instant, result: Result<EngineReport, String>) -> Outcome {
        Outcome {
            start,
            end,
            result,
            connect_us: 0.0,
            admit_ms: 0.0,
            queued: false,
        }
    }

    fn not_run(why: &str) -> Outcome {
        let now = Instant::now();
        Outcome::local(now, now, Err(why.to_string()))
    }
}

// --- paper-sim --------------------------------------------------------------

/// The §1.2 delay taxonomy applied to the Figure 5 query.
#[derive(Debug, Clone, Copy)]
enum DelayCase {
    /// Every wrapper at the constant `w_min` pace.
    None,
    /// Relation A's first tuple is late.
    Initial,
    /// Relation A arrives in ten bursts separated by silence.
    Bursty,
    /// One relation (by Figure 5 letter) delivers regularly but slowly.
    Slow(char),
    /// Every wrapper draws its gaps uniformly around `w_min` (§5.1.3).
    Uniform,
}

const DELAY_CASES: [DelayCase; 10] = [
    DelayCase::None,
    DelayCase::Initial,
    DelayCase::Bursty,
    DelayCase::Slow('A'),
    DelayCase::Slow('B'),
    DelayCase::Slow('C'),
    DelayCase::Slow('D'),
    DelayCase::Slow('E'),
    DelayCase::Slow('F'),
    DelayCase::Uniform,
];

/// Query memory: the engine default, and a budget under which DSE has to
/// degrade one chain more than it chooses to with ample memory.
const MEMORY_MB: [u64; 2] = [32, 10];

/// Severity ladder: each case's delay is also run scaled down, which
/// spreads session cost continuously between the cheapest and the dearest
/// case instead of stacking it on twenty points with gaps between them.
const LADDER: [f64; 4] = [0.6, 0.7, 0.8, 0.9];

/// One `paper-sim` session: a delay case at a severity, a memory budget,
/// and the seed of the wrappers' delay streams.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    case: DelayCase,
    severity: f64,
    memory_mb: u64,
    engine_seed: u64,
}

impl Scenario {
    /// The `i`-th member of the fixed population: the grid of case ×
    /// memory × severity, walked with a stride coprime to its size so a
    /// list of any length covers the three dimensions evenly.
    fn nth(i: usize, engine_seed: u64) -> Scenario {
        const GRID: usize = DELAY_CASES.len() * MEMORY_MB.len() * LADDER.len();
        let cell = i * 37 % GRID;
        Scenario {
            case: DELAY_CASES[cell % DELAY_CASES.len()],
            memory_mb: MEMORY_MB[cell / DELAY_CASES.len() % MEMORY_MB.len()],
            severity: LADDER[cell / (DELAY_CASES.len() * MEMORY_MB.len())],
            engine_seed,
        }
    }

    fn build(&self) -> Workload {
        let (base, f5) = Workload::fig5();
        let w_min = base.config.params.w_min();
        let a = f5.rels.a;
        let scaled = |d: SimDuration| SimDuration::from_secs_f64(d.as_secs_f64() * self.severity);
        let mut w = match self.case {
            DelayCase::None => base,
            DelayCase::Initial => base.with_delay(
                a,
                DelayModel::Initial {
                    initial: scaled(SimDuration::from_millis(2000)),
                    mean: w_min,
                },
            ),
            DelayCase::Bursty => {
                let n = base.catalog.cardinality(a);
                base.with_delay(
                    a,
                    DelayModel::Bursty {
                        burst: n / 10,
                        within: w_min,
                        pause: scaled(SimDuration::from_millis(250)),
                    },
                )
            }
            DelayCase::Slow(letter) => {
                let rel = f5.rel_by_letter(letter).expect("A..F are Figure 5 letters");
                let n = base.catalog.cardinality(rel);
                // Total retrieval time of the slowed relation, as on the
                // X axis of Figures 6 and 7.
                let total = scaled(SimDuration::from_millis(5500));
                base.with_delay(rel, DelayModel::Uniform { mean: total / n })
            }
            DelayCase::Uniform => base.with_all_delays(DelayModel::Uniform { mean: w_min }),
        };
        w.config.memory_bytes = self.memory_mb << 20;
        w.config.seed = self.engine_seed;
        w
    }
}

pub struct SimList {
    warm_up: Vec<Scenario>,
    timed: Vec<Scenario>,
    /// Result cardinality every scenario must produce: delays and memory
    /// change when tuples arrive, never which tuples join.
    expect_tuples: u64,
}

impl SimList {
    fn generate(seed: u64, warm_up: usize, timed: usize) -> SimList {
        let mut rng = SeedSplitter::new(seed).stream("perf:paper-sim");
        let mut population = |n: usize, stride: usize| -> Vec<Scenario> {
            let mut list: Vec<Scenario> = (0..n)
                .map(|i| Scenario::nth(i * stride, rng.gen_range(0..u64::from(u32::MAX))))
                .collect();
            // Fisher-Yates: the seed decides the order, not the members.
            for i in (1..list.len()).rev() {
                list.swap(i, rng.gen_range(0..=i));
            }
            list
        };
        // The warm-up strides through the population so a dozen sessions
        // touch both budgets and most delay cases.
        let warm_up = population(warm_up, 7);
        let timed = population(timed, 1);
        // The reference answer comes from a different strategy on the
        // undelayed query: SEQ and DSE must agree on what the query returns.
        let expect_tuples = run_workload(&Workload::fig5().0, SeqPolicy).output_tuples;
        SimList {
            warm_up,
            timed,
            expect_tuples,
        }
    }

    fn session(&self, pass: Pass, i: usize, rec: &mut Recorder) -> Outcome {
        let scenario = match pass {
            Pass::WarmUp => &self.warm_up[i],
            Pass::Timed => &self.timed[i],
        };
        let start = Instant::now();
        let workload = scenario.build();
        let built = Instant::now();
        let metrics = run_workload(&workload, DsePolicy::new());
        let end = Instant::now();
        let root = rec.push("session", start, end, None, Some(i));
        rec.push("build_workload", start, built, root, Some(i));
        rec.push("run_workload", built, end, root, Some(i));
        let result = if metrics.output_tuples == self.expect_tuples {
            Ok(EngineReport::from(&metrics))
        } else {
            Err(format!(
                "{scenario:?} returned {} tuples, the SEQ reference {}",
                metrics.output_tuples, self.expect_tuples
            ))
        };
        Outcome::local(start, end, result)
    }
}

// --- serving workloads ------------------------------------------------------

/// What distinguishes the three serving workloads.
#[derive(Debug, Clone)]
struct ServeShape {
    /// Scheduling strategy every session is submitted under.
    strategy: &'static str,
    pool: usize,
    /// Relation cardinality range; narrow, so one shape class.
    tuples: (u64, u64),
    delay: DelayClass,
    selectivity: (f64, f64),
    /// Zipf exponent of spec popularity over the timed list.
    zipf_s: f64,
    /// Replica endpoints per logical wrapper (two logical wrappers).
    replicas: usize,
    max_concurrent: usize,
    exec_workers: usize,
    cache_bytes: u64,
}

/// Source delays dominate: per-tuple gaps in the paper's range, a cache
/// that holds one and a half scans of a working set of 96, so nearly
/// every scan misses, records, inserts and evicts.
const COLD: ServeShape = ServeShape {
    strategy: "dse",
    pool: 32,
    tuples: (196, 204),
    delay: DelayClass::Uniform { mean_us: 400 },
    selectivity: (0.002, 0.004),
    zipf_s: 0.8,
    replicas: 2,
    max_concurrent: 2,
    exec_workers: 1,
    cache_bytes: 2560,
};

/// Small relations under a cache far above the working set (160 specs ×
/// 2 scans × ~1 KB): after the warm-up pass every scan is a replay.
const WARM: ServeShape = ServeShape {
    strategy: "dse",
    pool: 72,
    tuples: (96, 128),
    delay: DelayClass::Uniform { mean_us: 100 },
    selectivity: (0.008, 0.012),
    zipf_s: 1.1,
    replicas: 2,
    max_concurrent: 2,
    exec_workers: 1,
    cache_bytes: 8 << 20,
};

/// Zero-delay wrappers shipping tens of thousands of tuples, no cache,
/// one execution slot (so the second client always queues) and two
/// morsel workers. Sources without delays leave nothing to schedule, and
/// under DSE a start-up race decides per session whether the probe chain
/// is degraded (45 % of sessions, +45 ms each), which makes the latency
/// trimodal. SEQ takes the scheduler out: this workload measures the data
/// path.
const BULK: ServeShape = ServeShape {
    strategy: "seq",
    pool: 16,
    tuples: (10_000, 11_000),
    delay: DelayClass::Constant { us: 0 },
    selectivity: (0.00009, 0.00011),
    zipf_s: 1.1,
    replicas: 1,
    max_concurrent: 1,
    exec_workers: 2,
    cache_bytes: 0,
};

/// The servers one serving workload runs against, all in this process.
pub struct Topology {
    pub mediator: MediatorServer,
    wrappers: Vec<WrapperServer>,
    pub cache_budget: u64,
}

impl Topology {
    fn bind(shape: &ServeShape) -> Topology {
        let wrappers: Vec<WrapperServer> = (0..2 * shape.replicas)
            .map(|_| WrapperServer::bind("127.0.0.1:0").expect("bind wrapper server"))
            .collect();
        let groups: Vec<String> = wrappers
            .chunks(shape.replicas)
            .enumerate()
            .map(|(g, eps)| {
                let addrs: Vec<String> = eps.iter().map(|w| w.local_addr().to_string()).collect();
                format!("w{g}={}", addrs.join(","))
            })
            .collect();
        let mediator = MediatorServer::bind(
            "127.0.0.1:0",
            ServeOpts {
                max_concurrent: shape.max_concurrent,
                wrappers: groups,
                cache_bytes: shape.cache_bytes,
                io_threads: 1,
                exec_workers: shape.exec_workers,
                ..ServeOpts::default()
            },
        )
        .expect("bind mediator");
        Topology {
            mediator,
            wrappers,
            cache_budget: shape.cache_bytes,
        }
    }

    /// Scans opened per replica endpoint since bind.
    pub fn opens(&self) -> Vec<u64> {
        self.mediator
            .replica_health()
            .iter()
            .flat_map(|(_, eps)| eps.iter().map(|e| e.opens))
            .collect()
    }

    fn shutdown(self) {
        self.mediator.shutdown();
        for w in self.wrappers {
            w.shutdown();
        }
    }
}

pub struct ServeList {
    specs: Vec<String>,
    /// Per spec: the result cardinality of an in-process `SimDriver` run
    /// of the same spec and seed.
    expect_tuples: Vec<u64>,
    warm_up: Vec<usize>,
    timed: Vec<usize>,
    topology: Topology,
    addr: SocketAddr,
    strategy: &'static str,
}

impl ServeList {
    fn generate(shape: &ServeShape, seed: u64, timed: usize) -> ServeList {
        let trace = generate(&GenOpts {
            seed,
            specs: shape.pool,
            events: timed,
            zipf_s: shape.zipf_s,
            // Closed loop: arrival times are generated and ignored.
            arrival: Arrival::Poisson {
                rate_per_sec: 1000.0,
            },
            grammar: Grammar {
                relations: 2..=2,
                size_classes: vec![(shape.tuples.0..=shape.tuples.1, 1.0)],
                delay_classes: vec![(shape.delay.clone(), 1.0)],
                memory_classes: vec![(8, 1.0)],
                strategies: vec![(shape.strategy.into(), 1.0)],
                selectivity: shape.selectivity.0..=shape.selectivity.1,
            },
        });
        let expect_tuples = trace
            .specs
            .iter()
            .map(|spec| {
                let workload = WorkloadSpec::from_json(spec)
                    .and_then(WorkloadSpec::into_workload)
                    .expect("generated specs parse and plan");
                run_workload(&workload, DsePolicy::new()).output_tuples
            })
            .collect();
        let topology = Topology::bind(shape);
        ServeList {
            addr: topology.mediator.local_addr(),
            strategy: shape.strategy,
            warm_up: (0..shape.pool).collect(),
            timed: trace.events.iter().map(|e| e.spec).collect(),
            specs: trace.specs,
            expect_tuples,
            topology,
        }
    }

    fn session(&self, pass: Pass, i: usize, deadline: Instant, rec: &mut Recorder) -> Outcome {
        let spec = match pass {
            Pass::WarmUp => self.warm_up[i],
            Pass::Timed => self.timed[i],
        };
        let mut outcome = submit(
            self.addr,
            self.strategy,
            &self.specs[spec],
            deadline,
            i,
            rec,
        );
        if let Ok(report) = &outcome.result {
            if report.output_tuples != self.expect_tuples[spec] {
                outcome.result = Err(format!(
                    "spec {spec} returned {} tuples, its SimDriver reference {}",
                    report.output_tuples, self.expect_tuples[spec]
                ));
            }
        }
        outcome
    }
}

/// One session over the client protocol: connect, `Submit`, read frames
/// to the terminal one, parse it, then insist the mediator says nothing
/// more. Latency runs from before the connect to the parsed `Done`.
fn submit(
    addr: SocketAddr,
    strategy: &str,
    spec_json: &str,
    deadline: Instant,
    index: usize,
    rec: &mut Recorder,
) -> Outcome {
    let start = Instant::now();
    let mut accepted: Option<Instant> = None;
    let mut submitted = start;
    let mut connected = start;
    let mut queued = false;
    let mut done_at = start;
    let mut conn_kept = None;
    let result = (|| -> Result<EngineReport, String> {
        let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true).ok();
        // A session still silent at the run's wall-clock cap fails there.
        let left = deadline.saturating_duration_since(start);
        conn.set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .map_err(|e| format!("set read timeout: {e}"))?;
        connected = Instant::now();
        write_frame(
            &mut conn,
            &Frame::Submit {
                strategy: strategy.to_string(),
                trace: false,
                no_cache: false,
                seed: None,
                spec_json: spec_json.to_string(),
            },
        )
        .map_err(|e| format!("write Submit: {e}"))?;
        submitted = Instant::now();
        let payload = loop {
            match read_frame(&mut conn).map_err(|e| format!("read: {e}"))? {
                Some(Frame::Queued { .. }) => queued = true,
                Some(Frame::Accepted { .. }) => accepted = Some(Instant::now()),
                Some(Frame::Done { metrics_json }) => break metrics_json,
                Some(Frame::Rejected { reason }) => return Err(format!("Rejected: {reason}")),
                Some(Frame::Error { code, message }) => {
                    return Err(format!("Error [{code}] {message}"))
                }
                Some(other) => return Err(format!("unexpected frame {other:?}")),
                None => return Err("connection closed without a terminal frame".into()),
            }
        };
        done_at = Instant::now();
        let report = EngineReport::from_done(&payload)?;
        conn_kept = Some(conn);
        Ok(report)
    })();
    let end = Instant::now();
    let accepted_at = accepted.unwrap_or(done_at);
    if result.is_ok() {
        let root = rec.push("session", start, end, None, Some(index));
        rec.push("connect", start, connected, root, Some(index));
        rec.push("submit", connected, submitted, root, Some(index));
        rec.push("wait_accepted", submitted, accepted_at, root, Some(index));
        rec.push("wait_done", accepted_at, done_at, root, Some(index));
        rec.push("parse_done", done_at, end, root, Some(index));
    }
    // Exactly one terminal frame: after `Done` the mediator may only
    // close. Checked outside the latency, inside the closed loop.
    let result = result.and_then(|report| {
        match read_frame(&mut conn_kept.take().expect("kept on success")) {
            Ok(None) => Ok(report),
            Ok(Some(extra)) => Err(format!("frame after the terminal one: {extra:?}")),
            Err(e) => Err(format!("after Done: {e}")),
        }
    });
    Outcome {
        start,
        end,
        result,
        connect_us: (connected - start).as_secs_f64() * 1e6,
        admit_ms: (accepted_at - submitted).as_secs_f64() * 1e3,
        queued,
    }
}

/// `n` specs of the `serve-warm` shape from a fixed seed, for the parse,
/// plan and codec probes.
pub fn sample_specs(n: usize) -> Vec<String> {
    generate(&GenOpts {
        seed: 1,
        specs: n,
        events: 1,
        grammar: Grammar {
            relations: 2..=2,
            size_classes: vec![(WARM.tuples.0..=WARM.tuples.1, 1.0)],
            delay_classes: vec![(WARM.delay.clone(), 1.0)],
            ..Grammar::default()
        },
        ..GenOpts::default()
    })
    .specs
}

/// A `Done`-shaped payload for the JSON and codec probes.
pub fn sample_done_payload() -> String {
    let workload = WorkloadSpec::from_json(&sample_specs(1)[0])
        .and_then(WorkloadSpec::into_workload)
        .expect("generated specs parse and plan");
    dqs_mediator::server::metrics_json(&run_workload(&workload, DsePolicy::new()))
}
