//! The serving mediator: an event-driven core + per-session query runs.
//!
//! A [`MediatorServer`] accepts client connections. Each connection
//! submits one query (a `Submit` frame carrying a JSON workload spec) and
//! gets back the session lifecycle as frames:
//!
//! ```text
//! Submit ─→ Rejected                        (bad spec / backlog full)
//!        └→ Queued* ─→ Accepted ─→ Trace* ─→ Done | Error
//! ```
//!
//! # Architecture (C10K)
//!
//! Connections are *not* threads. A small set of I/O workers (one
//! [`dqs_reactor::Poller`] each, `io_threads` of them) owns every client
//! socket: each is a non-blocking [`FramedConn`] — reads go through its
//! incremental decoder and writes through its resumable buffer — so a
//! partial frame in either direction costs buffered bytes, never a
//! blocked thread. Connections are assigned to workers by
//! `conn_id % io_threads`; cross-thread hand-off (engine → socket) goes
//! through a per-worker mailbox and [`dqs_reactor::Waker`], gated by a
//! per-connection `alive` flag the session's job carries — routing a
//! frame takes no lock.
//!
//! Query *execution* stays blocking by design — each admitted session
//! runs a full engine on its own [`RealTimeDriver`] — but on a
//! [`WorkerPool`] of `max_concurrent` session threads, one per slot. Since
//! admission already caps running sessions at `max_concurrent`, a spawned
//! session never waits for a thread, and the other ten thousand
//! connections (queued sessions, idle clients, slow readers) hold only a
//! file descriptor and a few hundred bytes of state.
//!
//! Admission is the sans-io `dqs_core::session::SessionTable` behind a
//! single mutex shared by I/O workers (submit, disconnect) and session
//! threads (finish, promote). A direct admit is spawned on the session
//! pool; a session that finishes hands its slot to the job the table
//! promotes and runs it next on the same thread. At most `max_concurrent`
//! sessions execute at once, each query re-planned under
//! `memory_bytes / max_concurrent`
//! — the §4 memory bound applied per-session so concurrent queries
//! cannot starve each other — and a bounded backlog absorbs bursts, promoted
//! in arrival order or, under `--admission sjf`, by each query's §5.1.2
//! lower bound with the scans the cache will replay counted at zero.
//! A `backlog_depth` gauge in [`ServerMetrics`] tracks every queue /
//! dequeue transition.
//!
//! Backpressure: a client that stops reading grows its own write buffer
//! and nothing else. Past a high-water mark its `Trace` frames are
//! dropped (counted in [`ServerMetrics`]); lifecycle frames are always
//! queued, and a draining connection that stays stalled is cut by a
//! timer-wheel deadline.
//!
//! Every wrapper spec is a replica group (`id=host:port,host:port`; a
//! bare address is a group of one): each scan opens on the best live
//! endpoint of its group (rate-aware, via `dqs_replica::ReplicaSet`)
//! through a `FailoverSource` that survives mid-scan endpoint deaths
//! whenever there is a peer to move to, and a background prober keeps the
//! health tables fresh between sessions.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dqs_cache::{payload_bytes, CacheConfig, CacheKey, CacheStats, SharedCache};
use dqs_core::lwb;
use dqs_core::session::{AdmissionPolicy, Decision, SessionConfig, SessionStats, SessionTable};
use dqs_core::{run_named, unknown_strategy, LatencyHistogram, STRATEGY_NAMES};
use dqs_exec::json::{self, arr, fields, fixed, obj, ToJson};
use dqs_exec::spec::WorkloadSpec;
use dqs_exec::{
    observe, sim_source, EngineEvent, EngineObserver, RealTimeDriver, RunMetrics, WorkerPool,
    Workload,
};
use dqs_reactor::{Events, Interest, Poller, TimerId, TimerWheel, Token, Waker};
use dqs_refresh::{RefreshPlanner, ScanProvenance};
use dqs_relop::RelId;
use dqs_replica::{parse_groups, EndpointSnapshot, EndpointState, HealthConfig, ReplicaSet};
use dqs_sim::{SimDuration, SimTime};
use dqs_source::net::{FlushStatus, Frame, FramedConn};
use dqs_source::{
    scan, BoxSource, DelayModel, FailoverSource, RecordingSource, RemoteOpen, ReplaySource,
    SourceError,
};

use crate::refresher::{self, RefreshState, RefresherCtx};
use crate::sleep_unless;

/// How often the background prober re-checks replica endpoint liveness.
const PROBE_INTERVAL: Duration = Duration::from_millis(500);
/// A connection that says nothing gets this long to send its `Submit`.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(60);
/// A terminal frame queued behind a stalled client waits at most this
/// long before the connection is cut.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Write-buffer high-water mark: past this, `Trace` frames (and only
/// `Trace` frames) are dropped rather than buffered without bound.
const WRITE_HWM: usize = 256 * 1024;
/// Reactor token for the listening socket (owned by I/O worker 0).
const LISTENER_TOKEN: Token = Token(u64::MAX - 1);

/// Mediator service configuration.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Queries allowed to execute simultaneously.
    pub max_concurrent: usize,
    /// Submissions allowed to wait beyond the running set.
    pub backlog: usize,
    /// Global memory budget partitioned across running sessions, bytes.
    pub memory_bytes: u64,
    /// Wrapper group specs; empty means in-process wrappers paced on each
    /// session's own timers.
    /// Each spec is `;`-separated chunks of either `id=host:port,host:port`
    /// (one logical wrapper with N interchangeable replicas) or bare
    /// `host:port` addresses (each its own single-endpoint wrapper, the
    /// pre-replica spelling). Relation `i` is served by group `i % groups`.
    pub wrappers: Vec<String>,
    /// Read timeout on wrapper sockets (a silent wrapper faults the run).
    pub read_timeout: Duration,
    /// Result-cache budget in bytes; 0 disables the cache. The budget is
    /// carved out of `memory_bytes`, so sessions partition what remains —
    /// §4.2 M-schedulability stays honest about total mediator memory.
    pub cache_bytes: u64,
    /// Per-entry TTL for cached scans; `None` means entries only leave by
    /// LRU eviction or an explicit `Invalidate`.
    pub cache_ttl: Option<Duration>,
    /// Reactor I/O workers, each owning a poller and a share of the
    /// connections. Defaults to cores − 1 (at least 1); 0 is rejected at
    /// bind.
    pub io_threads: usize,
    /// Morsel worker threads in the ONE pool every executing session
    /// shares (`--exec-workers`). 1 (the default) keeps execution serial
    /// and spawns no pool; 0 is rejected at bind. Sharing keeps admission
    /// meaningful: concurrent queries compete for the same workers rather
    /// than each spawning its own set.
    pub exec_workers: usize,
    /// Backlog promotion policy (`--admission fifo|sjf`). SJF promotes the
    /// query with the smallest §5.1.2 lower bound `LWB`, every scan the
    /// cache will replay counted as a zero-delay source.
    pub admission: AdmissionPolicy,
    /// Refresh cycle period (`--refresh-interval-ms`); `None` disables
    /// the background refresher. Requires a cache and remote wrappers —
    /// rejected at bind otherwise.
    pub refresh_interval: Option<Duration>,
    /// Refresh traffic allowance in KiB/s (`--refresh-budget-kbps`),
    /// amortized per cycle; 0 = unlimited.
    pub refresh_budget_kbps: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            max_concurrent: 2,
            backlog: 8,
            memory_bytes: 64 << 20,
            wrappers: Vec::new(),
            read_timeout: Duration::from_secs(30),
            cache_bytes: 0,
            cache_ttl: None,
            io_threads: thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1))
                .unwrap_or(1)
                .max(1),
            exec_workers: 1,
            admission: AdmissionPolicy::Fifo,
            refresh_interval: None,
            refresh_budget_kbps: 0,
        }
    }
}

/// Live server gauges and counters — the serving-side metrics sink.
/// Cheap atomics, readable at any time via [`MediatorServer::metrics`].
#[derive(Debug, Default)]
pub struct ServerMetrics {
    backlog_depth: AtomicU64,
    backlog_enqueued: AtomicU64,
    backlog_dequeued: AtomicU64,
    trace_frames_dropped: AtomicU64,
    trace_lines_rendered: AtomicU64,
    connections_accepted: AtomicU64,
    /// Cumulative queue-wait distribution over every dispatched session.
    queue_wait: Mutex<LatencyHistogram>,
    /// The shared morsel pool, when `exec_workers > 1` — lets operators
    /// read execution-layer gauges from the same sink as the admission
    /// gauges above. Set once at bind.
    exec_pool: std::sync::OnceLock<Arc<WorkerPool>>,
}

impl ServerMetrics {
    /// Sessions currently parked in the admission backlog. Updated on
    /// every `SessionTable` queue and dequeue transition.
    pub fn backlog_depth(&self) -> u64 {
        self.backlog_depth.load(Ordering::Relaxed)
    }

    /// Total sessions ever queued behind the running set.
    pub fn backlog_enqueued(&self) -> u64 {
        self.backlog_enqueued.load(Ordering::Relaxed)
    }

    /// Total sessions that left the backlog (promoted or abandoned).
    pub fn backlog_dequeued(&self) -> u64 {
        self.backlog_dequeued.load(Ordering::Relaxed)
    }

    /// `Trace` frames dropped at the write-buffer high-water mark.
    pub fn trace_frames_dropped(&self) -> u64 {
        self.trace_frames_dropped.load(Ordering::Relaxed)
    }

    /// Engine events rendered into `Trace` lines since bind — zero for as
    /// long as no client asks for a trace.
    pub fn trace_lines_rendered(&self) -> u64 {
        self.trace_lines_rendered.load(Ordering::Relaxed)
    }

    /// Client connections accepted since bind.
    pub fn connections_accepted(&self) -> u64 {
        self.connections_accepted.load(Ordering::Relaxed)
    }

    /// Morsel workers currently running a task (0 when no pool is
    /// configured — serial execution has no workers to be busy).
    pub fn exec_busy_workers(&self) -> u64 {
        self.exec_pool.get().map_or(0, |p| p.stats().busy_workers)
    }

    /// Snapshot of the cumulative queue-wait histogram over every
    /// session dispatched since bind (log-bucketed; see
    /// [`LatencyHistogram`]).
    pub fn queue_wait_histogram(&self) -> LatencyHistogram {
        self.queue_wait.lock().unwrap().clone()
    }

    fn record_queue_wait(&self, us: u64) {
        self.queue_wait.lock().unwrap().record_us(us);
    }

    fn queue_push(&self) {
        self.backlog_depth.fetch_add(1, Ordering::Relaxed);
        self.backlog_enqueued.fetch_add(1, Ordering::Relaxed);
    }

    fn queue_pop(&self) {
        self.backlog_depth.fetch_sub(1, Ordering::Relaxed);
        self.backlog_dequeued.fetch_add(1, Ordering::Relaxed);
    }
}

/// An admitted (or queued) submission, ready for a session thread.
struct Job {
    conn_id: u64,
    /// Cleared by the connection's I/O worker when the client goes away;
    /// frames for a dead connection are dropped at the source, and its
    /// running engine ends with `RunError::Cancelled`.
    alive: Arc<AtomicBool>,
    session: u64,
    memory_bytes: u64,
    strategy: String,
    trace: bool,
    no_cache: bool,
    workload: Workload,
}

/// Admission state: the sans-io table and the jobs parked in its backlog,
/// under ONE mutex — so a session thread promoting a session and an I/O
/// worker reaping a disconnected queued client can never double-count a
/// slot.
struct Admission {
    table: SessionTable,
    queued: HashMap<u64, Job>,
}

impl Admission {
    /// Release `session`'s slot and take out the job the table promotes
    /// into it, with how long it waited. The caller owes the backlog gauge
    /// a pop and the job a thread.
    fn finish(&mut self, session: u64) -> Option<(Job, Duration)> {
        let job = self
            .table
            .finish(session)
            .and_then(|p| self.queued.remove(&p))?;
        let waited = self.table.queue_wait(job.session).unwrap_or_default();
        Some((job, waited))
    }
}

/// Mailbox messages delivered to an I/O worker (always paired with a
/// waker ding).
enum Msg {
    /// A freshly accepted connection this worker now owns.
    Adopt(u64, FramedConn),
    /// Queue a progress frame for a connection.
    Frame(u64, Frame),
    /// Queue the terminal frame: flush it, then close the connection.
    Terminal(u64, Frame),
}

/// One I/O worker's front door: its mailbox plus the waker that makes its
/// poller notice the mail.
#[derive(Clone)]
struct WorkerHandle {
    mailbox: Arc<Mutex<VecDeque<Msg>>>,
    waker: Waker,
}

impl WorkerHandle {
    fn send(&self, msg: Msg) {
        self.mailbox.lock().unwrap().push_back(msg);
        self.waker.wake();
    }
}

/// State every service thread shares. It never holds the session pool:
/// session tasks hold `Arc<Shared>`, so the pool's last handle could drop
/// on one of its own threads, which would then join itself.
struct Shared {
    admission: Mutex<Admission>,
    opts: ServeOpts,
    /// The wrapper result cache all sessions share; `None` when disabled.
    cache: Option<Arc<SharedCache>>,
    /// One health-tracked replica set per parsed wrapper group; empty when
    /// the mediator runs in-process wrappers.
    replica_sets: Vec<Arc<ReplicaSet>>,
    /// Scan provenance + wrapper stats shared between session builds and
    /// the refresher thread; `None` when refresh is disabled.
    refresh: Option<Arc<RefreshState>>,
    /// Connection `id` belongs to worker `id % workers.len()`.
    workers: Vec<WorkerHandle>,
    metrics: Arc<ServerMetrics>,
    /// The process's ONE morsel worker pool, shared by every executing
    /// session; `None` when `exec_workers == 1` (serial execution).
    pool: Option<Arc<WorkerPool>>,
    stop: AtomicBool,
}

impl Shared {
    /// Route a message to the I/O worker owning `job`'s connection;
    /// `false` if the client is gone (the message is dropped, not queued).
    fn send(&self, job: &Job, msg: Msg) -> bool {
        if !job.alive.load(Ordering::SeqCst) {
            return false;
        }
        self.workers[job.conn_id as usize % self.workers.len()].send(msg);
        true
    }

    /// The cache a session replays from and records into: none when the
    /// mediator has none or the client asked for `no_cache`.
    fn session_cache(&self, no_cache: bool) -> Option<&Arc<SharedCache>> {
        self.cache.as_ref().filter(|_| !no_cache)
    }

    fn replica_health(&self) -> Vec<(String, Vec<EndpointSnapshot>)> {
        self.replica_sets
            .iter()
            .map(|s| (s.id().to_string(), s.snapshot()))
            .collect()
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("opts", &self.opts).finish()
    }
}

/// The mediator service: reactor I/O workers + session pool.
#[derive(Debug)]
pub struct MediatorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    io_workers: Vec<JoinHandle<()>>,
    /// One thread per session slot; every I/O worker holds a clone.
    sessions: Arc<WorkerPool>,
    prober: Option<JoinHandle<()>>,
    refresher: Option<JoinHandle<()>>,
}

impl MediatorServer {
    /// Bind and start serving. Port 0 picks an ephemeral port; see
    /// [`MediatorServer::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, opts: ServeOpts) -> io::Result<MediatorServer> {
        // The cache budget comes out of the global memory budget; sessions
        // partition the remainder. A cache that leaves no session memory is
        // a configuration error, not something to discover at first Submit.
        if opts.cache_bytes >= opts.memory_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cache budget ({} bytes) must leave session memory within the global budget ({} bytes)",
                    opts.cache_bytes, opts.memory_bytes
                ),
            ));
        }
        // Zero workers cannot serve anything; reject at bind, not at first
        // connection.
        if opts.io_threads == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "io_threads must be at least 1",
            ));
        }
        if opts.exec_workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "exec_workers must be at least 1",
            ));
        }
        // The refresher keeps *cached* scans current against *remote*
        // wrappers; without both it has nothing to poll or refresh.
        if opts.refresh_interval.is_some() && (opts.cache_bytes == 0 || opts.wrappers.is_empty()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "refresh requires a result cache (--cache-mb > 0) and remote wrappers",
            ));
        }
        let cache = (opts.cache_bytes > 0).then(|| {
            SharedCache::new(CacheConfig {
                budget_bytes: opts.cache_bytes,
                ttl_ms: opts.cache_ttl.map(|d| d.as_millis() as u64),
            })
        });
        // A malformed wrapper spec is a bind-time error, not something to
        // discover at first Submit.
        let replica_sets: Vec<Arc<ReplicaSet>> = if opts.wrappers.is_empty() {
            Vec::new()
        } else {
            parse_groups(&opts.wrappers)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?
                .into_iter()
                .map(|g| Arc::new(ReplicaSet::new(g, HealthConfig::default())))
                .collect()
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Build the pollers (and grab their wakers) before the worker
        // threads exist, so the shared state can hold every handle.
        let mut pollers = Vec::with_capacity(opts.io_threads);
        let mut handles = Vec::with_capacity(opts.io_threads);
        for _ in 0..opts.io_threads {
            let poller = Poller::new()?;
            handles.push(WorkerHandle {
                mailbox: Arc::new(Mutex::new(VecDeque::new())),
                waker: poller.waker(),
            });
            pollers.push(poller);
        }
        // One pool for the whole service: every session's morsels land on
        // the same `exec_workers` threads, so intra-query parallelism never
        // multiplies with `max_concurrent`.
        let pool = (opts.exec_workers > 1).then(|| WorkerPool::new(opts.exec_workers));
        let refresh = opts
            .refresh_interval
            .map(|_| Arc::new(RefreshState::default()));
        let metrics = Arc::new(ServerMetrics::default());
        if let Some(p) = &pool {
            let _ = metrics.exec_pool.set(Arc::clone(p));
        }
        let shared = Arc::new(Shared {
            admission: Mutex::new(Admission {
                table: SessionTable::new(SessionConfig {
                    max_concurrent: opts.max_concurrent,
                    backlog: opts.backlog,
                    memory_bytes: opts.memory_bytes - opts.cache_bytes,
                    policy: opts.admission,
                }),
                queued: HashMap::new(),
            }),
            workers: handles.clone(),
            metrics,
            opts,
            cache,
            replica_sets,
            refresh,
            pool,
            stop: AtomicBool::new(false),
        });

        let sessions = WorkerPool::new(shared.opts.max_concurrent);
        let mut listener = Some(listener);
        let io_workers: Vec<JoinHandle<()>> = pollers
            .into_iter()
            .enumerate()
            .map(|(idx, poller)| {
                let worker = IoWorker {
                    idx,
                    shared: Arc::clone(&shared),
                    sessions: Arc::clone(&sessions),
                    poller,
                    listener: listener.take(),
                    mailbox: Arc::clone(&handles[idx].mailbox),
                    conns: HashMap::new(),
                    timers: TimerWheel::new(Duration::from_millis(100), 64),
                    next_conn_id: 0,
                };
                thread::Builder::new()
                    .name(format!("dqs-io-{idx}"))
                    .spawn(move || worker.run())
                    .expect("spawn io worker")
            })
            .collect();
        let prober = (!shared.replica_sets.is_empty()).then(|| {
            let probe_shared = Arc::clone(&shared);
            thread::spawn(move || probe_replicas(&probe_shared))
        });
        let refresher = match (shared.opts.refresh_interval, &shared.cache, &shared.refresh) {
            (Some(interval), Some(cache), Some(state)) => {
                let ctx = RefresherCtx {
                    cache: Arc::clone(cache),
                    sets: shared.replica_sets.clone(),
                    state: Arc::clone(state),
                    planner: RefreshPlanner::from_rate(shared.opts.refresh_budget_kbps, interval),
                    interval,
                    read_timeout: shared.opts.read_timeout,
                };
                let refresh_shared = Arc::clone(&shared);
                Some(thread::spawn(move || {
                    refresher::run_refresher(&ctx, &refresh_shared.stop)
                }))
            }
            _ => None,
        };
        Ok(MediatorServer {
            addr,
            shared,
            io_workers,
            sessions,
            prober,
            refresher,
        })
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Admission counters (running/queued sessions, memory accounting).
    pub fn stats(&self) -> SessionStats {
        self.shared.admission.lock().unwrap().table.stats()
    }

    /// Result-cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.shared.cache.as_ref().map(|c| c.stats())
    }

    /// The live serving-side metrics sink (backlog depth gauge, dropped
    /// trace frames, accepted connections).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Point-in-time health of every replica endpoint, grouped by logical
    /// wrapper id; empty when no wrapper groups are configured.
    pub fn replica_health(&self) -> Vec<(String, Vec<EndpointSnapshot>)> {
        self.shared.replica_health()
    }

    /// Stop accepting, sever live client connections, and join every
    /// service thread — I/O workers, the session pool, the replica
    /// prober, and the refresher — so tests and CI shut the mediator down
    /// without leaking threads or relying on process exit. Severed clients
    /// cancel their sessions' runs, so the session pool drains at once.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in &self.shared.workers {
            handle.waker.wake();
        }
        for h in self.io_workers.drain(..) {
            h.join().ok();
        }
        // The I/O workers' clones went with them: this is the last handle.
        drop(self.sessions);
        if let Some(t) = self.prober.take() {
            t.join().ok();
        }
        if let Some(t) = self.refresher.take() {
            t.join().ok();
        }
    }

    /// Park the calling thread while the server runs (the `dqs serve`
    /// foreground loop).
    pub fn run_forever(mut self) {
        for h in self.io_workers.drain(..) {
            h.join().ok();
        }
    }
}

// --- the I/O worker ---------------------------------------------------------

/// Where one connection is in its lifecycle.
enum ConnState {
    /// Waiting for the first frame (`Submit` or `Invalidate`).
    AwaitSubmit,
    /// Submitted and owned by a session (queued or running).
    InSession { session: u64 },
    /// Conversation over: the terminal frame is staged; close once the
    /// write buffer drains (or the drain deadline fires).
    Closing,
}

/// Per-connection state machine, owned by exactly one I/O worker.
struct Conn {
    io: FramedConn,
    state: ConnState,
    /// Currently registered interest (to avoid redundant `modify` calls).
    interest: Interest,
    /// Shared with the session's [`Job`]; cleared at [`IoWorker::close`].
    alive: Arc<AtomicBool>,
    /// Pending submit/drain deadline in the worker's timer wheel.
    timer: Option<TimerId>,
}

struct IoWorker {
    idx: usize,
    shared: Arc<Shared>,
    /// Where admitted sessions run ([`MediatorServer`]'s pool).
    sessions: Arc<WorkerPool>,
    poller: Poller,
    /// Worker 0 owns the listening socket.
    listener: Option<TcpListener>,
    mailbox: Arc<Mutex<VecDeque<Msg>>>,
    conns: HashMap<u64, Conn>,
    timers: TimerWheel,
    next_conn_id: u64,
}

impl IoWorker {
    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .poller
                .register(listener_fd(listener), LISTENER_TOKEN, Interest::READABLE)
                .is_err()
            {
                return;
            }
        }
        let mut events = Events::new();
        let mut expired: Vec<Token> = Vec::new();
        loop {
            let timeout = self.timers.next_deadline(Instant::now());
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Mailbox first: adopted connections must exist before any
            // frames routed at them arrive (FIFO per worker guarantees it).
            let msgs: Vec<Msg> = {
                let mut mb = self.mailbox.lock().unwrap();
                mb.drain(..).collect()
            };
            for msg in msgs {
                match msg {
                    Msg::Adopt(id, conn) => self.adopt(id, conn),
                    Msg::Frame(id, frame) => self.queue_frame(id, frame),
                    Msg::Terminal(id, frame) => self.queue_terminal(id, frame),
                }
            }
            for ev in events.iter().copied() {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                let id = ev.token.0;
                if ev.readable {
                    self.readable(id);
                }
                if ev.writable && self.conns.contains_key(&id) {
                    self.flush(id);
                }
                if ev.hangup && !ev.readable && self.conns.contains_key(&id) {
                    self.close(id);
                }
            }
            expired.clear();
            self.timers.advance(Instant::now(), &mut expired);
            for t in &expired {
                // Both deadlines — submit and drain — mean "cut it".
                if self.conns.contains_key(&t.0) {
                    self.close(t.0);
                }
            }
        }
        // Shutdown: sever everything this worker owns.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id);
        }
    }

    /// Drain the accept queue (worker 0 only), assigning each connection
    /// to a worker round-robin by id.
    fn accept_ready(&mut self) {
        let n_workers = self.shared.workers.len();
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(conn) = FramedConn::new(stream) else {
                        continue;
                    };
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    self.shared
                        .metrics
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let target = id as usize % n_workers;
                    if target == self.idx {
                        self.adopt(id, conn);
                    } else {
                        self.shared.workers[target].send(Msg::Adopt(id, conn));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn adopt(&mut self, id: u64, io: FramedConn) {
        let fd = io.fd();
        if self
            .poller
            .register(fd, Token(id), Interest::READABLE)
            .is_err()
        {
            return;
        }
        let timer = self
            .timers
            .schedule(Instant::now(), SUBMIT_TIMEOUT, Token(id));
        self.conns.insert(
            id,
            Conn {
                io,
                state: ConnState::AwaitSubmit,
                interest: Interest::READABLE,
                alive: Arc::new(AtomicBool::new(true)),
                timer: Some(timer),
            },
        );
    }

    /// Socket readable: drain it through the incremental decoder and act
    /// on every complete frame.
    fn readable(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.io.fill().is_err() {
            self.close(id);
            return;
        }
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                match conn.io.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        // Oversize or malformed: the stream position is
                        // untrustworthy from here on.
                        self.close(id);
                        return;
                    }
                }
            };
            self.on_frame(id, frame);
        }
        if self.conns.get(&id).is_some_and(|c| c.io.eof()) {
            self.on_eof(id);
        }
    }

    fn on_frame(&mut self, id: u64, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match conn.state {
            ConnState::AwaitSubmit => {
                if let Some(t) = conn.timer.take() {
                    self.timers.cancel(t);
                }
                match frame {
                    Frame::Submit {
                        strategy,
                        trace,
                        no_cache,
                        seed,
                        spec_json,
                    } => self.on_submit(id, strategy, trace, no_cache, seed, spec_json),
                    // A refresh request is a complete conversation of its
                    // own: drop the named scans (or everything) and report
                    // what was freed.
                    Frame::Invalidate { rel, wrapper } => {
                        let (entries, bytes) = match &self.shared.cache {
                            Some(cache) => cache.invalidate(rel, wrapper.as_deref()),
                            None => (0, 0),
                        };
                        self.queue_terminal(id, Frame::Invalidated { entries, bytes });
                    }
                    _ => self.close(id),
                }
            }
            // After the submit, inbound bytes only matter as liveness;
            // stray frames are discarded, exactly as the blocking server
            // never read them.
            ConnState::InSession { .. } | ConnState::Closing => {}
        }
    }

    /// Validate, parse, and walk a submission through admission.
    fn on_submit(
        &mut self,
        id: u64,
        strategy: String,
        trace: bool,
        no_cache: bool,
        seed: Option<u64>,
        spec_json: String,
    ) {
        // Validate before admission: a bad spec must not consume a slot.
        if !STRATEGY_NAMES.contains(&strategy.as_str()) {
            let reason = unknown_strategy(&strategy);
            self.queue_terminal(id, Frame::Rejected { reason });
            return;
        }
        let mut workload =
            match WorkloadSpec::from_json(&spec_json).and_then(WorkloadSpec::into_workload) {
                Ok(w) => w,
                Err(e) => {
                    self.queue_terminal(
                        id,
                        Frame::Rejected {
                            reason: e.to_string(),
                        },
                    );
                    return;
                }
            };
        if let Some(seed) = seed {
            workload.config.seed = seed;
        }
        // The SJF key is computed outside the admission lock; FIFO needs none.
        let cost = match self.shared.opts.admission {
            AdmissionPolicy::Fifo => 0,
            AdmissionPolicy::Sjf => sjf_key(
                &workload,
                &self.shared.replica_sets,
                self.shared.session_cache(no_cache),
            ),
        };
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut admission = self.shared.admission.lock().unwrap();
        let (session, memory_bytes, position) = match admission.table.submit_with(cost, id) {
            Decision::Reject { reason } => {
                drop(admission);
                self.queue_terminal(id, Frame::Rejected { reason });
                return;
            }
            Decision::Admit {
                session,
                memory_bytes,
            } => (session, memory_bytes, None),
            Decision::Queue { session, position } => {
                (session, admission.table.partition_bytes(), Some(position))
            }
        };
        let job = Job {
            conn_id: id,
            alive: Arc::clone(&conn.alive),
            session,
            memory_bytes,
            strategy,
            trace,
            no_cache,
            workload,
        };
        conn.state = ConnState::InSession { session };
        match position {
            None => {
                drop(admission);
                let shared = Arc::clone(&self.shared);
                self.sessions
                    .spawn(move || run_session(&shared, job, Duration::ZERO));
            }
            Some(position) => {
                admission.queued.insert(session, job);
                drop(admission);
                self.shared.metrics.queue_push();
                self.queue_frame(
                    id,
                    Frame::Queued {
                        position: position as u32,
                    },
                );
            }
        }
    }

    /// The peer closed its write half. A draining connection may still be
    /// reading our frames — keep flushing under the drain deadline; any
    /// other state means the client is gone.
    fn on_eof(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        if matches!(conn.state, ConnState::Closing) && conn.io.pending() > 0 {
            self.update_interest(id);
        } else {
            self.close(id);
        }
    }

    /// Stage a progress frame, enforcing the trace high-water mark.
    fn queue_frame(&mut self, id: u64, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if matches!(conn.state, ConnState::Closing) {
            return;
        }
        if matches!(frame, Frame::Trace { .. }) && conn.io.pending() > WRITE_HWM {
            self.shared
                .metrics
                .trace_frames_dropped
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        conn.io.push(&frame);
        self.flush(id);
    }

    /// Stage the terminal frame; the connection closes once it drains
    /// (or the drain deadline fires).
    fn queue_terminal(&mut self, id: u64, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if matches!(conn.state, ConnState::Closing) {
            return;
        }
        conn.io.push(&frame);
        conn.state = ConnState::Closing;
        if let Some(t) = conn.timer.take() {
            self.timers.cancel(t);
        }
        conn.timer = Some(
            self.timers
                .schedule(Instant::now(), DRAIN_TIMEOUT, Token(id)),
        );
        self.flush(id);
    }

    /// Push buffered bytes at the socket; close on completion (if
    /// draining) or on error.
    fn flush(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match conn.io.flush() {
            Ok(FlushStatus::Flushed) if matches!(conn.state, ConnState::Closing) => self.close(id),
            Ok(FlushStatus::Flushed) => self.update_interest(id),
            Ok(FlushStatus::Blocked) => self.update_interest(id),
            Err(_) => self.close(id),
        }
    }

    /// Re-register the connection for exactly the readiness it needs now.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let (read, write) = conn.io.wants();
        let want = Interest::wanting(read, write);
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.io.fd();
            self.poller.modify(fd, Token(id), want).ok();
        }
    }

    /// Tear a connection down: deregister, mark it dead for its session's
    /// job, reap any queued session, sever the socket.
    fn close(&mut self, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        if let Some(t) = conn.timer.take() {
            self.timers.cancel(t);
        }
        self.poller.deregister(conn.io.fd()).ok();
        conn.alive.store(false, Ordering::SeqCst);
        if let ConnState::InSession { session } = conn.state {
            // A queued session whose client left must not wait for (or
            // hold) a slot. The single admission lock means a finishing
            // session promoting this very one either got there first (the
            // job is gone from `queued`; the thread that runs it next finds
            // `alive` cleared and releases the slot) or we reap it here and
            // it never runs.
            let mut admission = self.shared.admission.lock().unwrap();
            if admission.queued.remove(&session).is_some() {
                admission.table.finish(session);
                drop(admission);
                self.shared.metrics.queue_pop();
            }
        }
        conn.io.stream().shutdown(Shutdown::Both).ok();
    }
}

fn listener_fd(listener: &TcpListener) -> std::os::fd::RawFd {
    use std::os::fd::AsRawFd;
    listener.as_raw_fd()
}

// --- the session threads ----------------------------------------------------

/// The `--admission sjf` promotion key: the §5.1.2 lower bound `LWB` of
/// the query as it will run, in nanoseconds. A scan `cache` will replay is
/// a source with no gaps, so its retrieval term drops out of the bound.
fn sjf_key(workload: &Workload, sets: &[Arc<ReplicaSet>], cache: Option<&Arc<SharedCache>>) -> u64 {
    let mut w = workload.clone();
    for (rel, _) in workload.catalog.iter() {
        if cache.is_some_and(|c| c.would_hit(&scan_key(workload, rel, sets))) {
            w.delays[rel.0 as usize] = DelayModel::Constant {
                w: SimDuration::ZERO,
            };
        }
    }
    lwb(&w).bound().as_nanos()
}

/// The cache identity of `rel`'s scan: the one rule for "this scan will
/// replay", shared by the driver build and the SJF key. It names the
/// replica *group*, not an endpoint, so a scan recorded off one replica
/// replays for its peers, and the *spec* total, so the entry stays the
/// logical scan's while the refresher appends deltas to it in place.
fn scan_key(workload: &Workload, rel: RelId, sets: &[Arc<ReplicaSet>]) -> CacheKey {
    let wrapper = match sets.len() {
        0 => "local",
        n => sets[rel.0 as usize % n].id(),
    };
    let stream = format!("wrapper:{}", workload.catalog.name(rel));
    let total = workload.actual_cardinality(rel);
    CacheKey::for_scan(wrapper, rel, total, workload.config.seed, &stream)
}

/// Release `session`'s slot and return whatever the table promotes into
/// it. Runs under the admission lock so promotion and queued-client
/// disconnect cannot race.
fn finish_and_promote(shared: &Shared, session: u64) -> Option<(Job, Duration)> {
    let promoted = shared.admission.lock().unwrap().finish(session);
    if promoted.is_some() {
        shared.metrics.queue_pop();
    }
    promoted
}

/// A session slot's task: run `job`, then every job a finish promotes into
/// the slot, on this one session thread.
fn run_session(shared: &Shared, job: Job, queue_wait: Duration) {
    let mut next = Some((job, queue_wait));
    while let Some((job, queue_wait)) = next {
        next = run_job(shared, job, queue_wait);
    }
}

/// Execute one admitted session on this session thread, streaming
/// progress frames to the connection's I/O worker. `queue_wait` is how long
/// admission held the session before a slot freed — fed to the server
/// gauges and stamped onto the Done payload. Returns the job its finish
/// promoted into the slot.
fn run_job(shared: &Shared, mut job: Job, queue_wait: Duration) -> Option<(Job, Duration)> {
    let queue_wait_secs = queue_wait.as_secs_f64();
    shared
        .metrics
        .record_queue_wait(queue_wait.as_micros() as u64);
    // The client may have left while the job sat ready (or in the
    // backlog); don't burn an engine run on a dead connection.
    let accepted = Frame::Accepted {
        session: job.session,
        memory_bytes: job.memory_bytes,
    };
    if !shared.send(&job, Msg::Frame(job.conn_id, accepted)) {
        return finish_and_promote(shared, job.session);
    }
    // The session's query plans against its partition, not the global
    // budget.
    job.workload.config.memory_bytes = job.memory_bytes;
    // Sessions run morsel-parallel on the shared pool when one exists.
    if let Some(pool) = &shared.pool {
        job.workload.config.workers = pool.workers();
    }

    let (driver, outcomes) = match build_driver(
        &job.workload,
        &shared.opts,
        &shared.replica_sets,
        shared.session_cache(job.no_cache),
        shared.refresh.as_deref(),
    ) {
        Ok(built) => built,
        Err(e) => {
            // Slot released *before* the terminal frame goes out, so a
            // client that saw the outcome never observes its session
            // still counted as running.
            let next = finish_and_promote(shared, job.session);
            let failed = Frame::Error {
                code: 2,
                message: format!("wrapper connect failed: {e}"),
            };
            shared.send(&job, Msg::Terminal(job.conn_id, failed));
            return next;
        }
    };
    // A client that leaves cancels the run (and frees the slot) at once.
    let driver = driver.with_alive(Arc::clone(&job.alive));
    let driver = match &shared.pool {
        Some(p) => driver.with_pool(Arc::clone(p)),
        None => driver,
    };
    let mut trace = TraceObserver {
        shared,
        job: &job,
        enabled: job.trace,
    };
    // Cache outcomes are decided before the engine runs (at source build
    // time), so they lead the trace at t=0 and the engine never sees them;
    // their counts go into the final metrics below.
    let (mut hits, mut misses, mut bytes_served) = (0, 0, 0);
    for ev in &outcomes {
        match ev {
            EngineEvent::CacheHit { bytes, .. } => {
                hits += 1;
                bytes_served += bytes;
            }
            _ => misses += 1,
        }
        trace.on_event(SimTime::ZERO, ev);
    }
    let result = run_named(&job.strategy, &job.workload, trace, driver)
        .expect("strategy name validated at submit");
    let terminal = match result {
        Ok(mut m) => {
            (m.cache_hits, m.cache_misses, m.cache_bytes_served) = (hits, misses, bytes_served);
            let cache = shared.cache.as_ref().map(|c| c.stats());
            Frame::Done {
                metrics_json: done_payload(
                    &m,
                    queue_wait_secs,
                    cache.as_ref(),
                    &shared.replica_health(),
                ),
            }
        }
        Err(e) => Frame::Error {
            code: 1,
            message: e.to_string(),
        },
    };
    let next = finish_and_promote(shared, job.session);
    shared.send(&job, Msg::Terminal(job.conn_id, terminal));
    next
}

/// Background liveness prober. Between sessions, endpoint health only
/// changes when a scan happens to touch it; a cheap connect-probe per
/// endpoint keeps the tables fresh so the first scan after a crash (or a
/// recovery) already selects well.
fn probe_replicas(shared: &Shared) {
    loop {
        for set in &shared.replica_sets {
            for idx in 0..set.len() {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if scan::dial(set.addr(idx), shared.opts.read_timeout).is_ok() {
                    set.mark_live(idx);
                } else {
                    set.record_failure(idx);
                }
            }
        }
        if !sleep_unless(&shared.stop, PROBE_INTERVAL) {
            return;
        }
    }
}

/// Build the session's driver: one source per catalog relation. With a
/// cache, resident scans become [`ReplaySource`]s — no wrapper connection
/// is even dialed for them — and live scans are wrapped in a
/// [`RecordingSource`] so their completion populates the cache. Without
/// one, sources are exactly the pre-cache topology: remote sources when
/// wrapper groups are configured (relation `i` maps to group
/// `i % groups`), in-process pull-paced [`Wrapper`]s — the simulation's,
/// their gaps served by the driver's timers — otherwise.
///
/// A remote scan asks its group's [`ReplicaSet`] for the best live
/// endpoint and runs through a [`FailoverSource`], which survives mid-scan
/// endpoint deaths by resuming on a peer — or, in a group of one, surfaces
/// the death at once. Cache keys are [`scan_key`]'s. Returns the
/// driver and the per-relation cache outcomes; which endpoint each live
/// scan opened on is the source's own `ReplicaPinned` notice. An outcome is
/// the `CacheHit` / `CacheMiss` event the session's trace leads with.
///
/// With the refresher live (`refresh` is `Some`), remote scans consult
/// its stat table: a live open asks for the wrapper's *current* total
/// (so a session sees appended tuples the spec predates) and recordings
/// are stamped with the wrapper's current version. This applies to
/// `no_cache` sessions too — a cold truth run and a refreshed warm one
/// must answer bit-identically.
fn build_driver(
    workload: &Workload,
    opts: &ServeOpts,
    sets: &[Arc<ReplicaSet>],
    cache: Option<&Arc<SharedCache>>,
    refresh: Option<&RefreshState>,
) -> Result<(RealTimeDriver, Vec<EngineEvent<'static>>), SourceError> {
    let mut outcomes = Vec::new();
    let driver = RealTimeDriver::try_with_sources(|notify| {
        let mut sources: Vec<BoxSource> = Vec::with_capacity(workload.catalog.len());
        for (rel, spec) in workload.catalog.iter() {
            let total = workload.actual_cardinality(rel);
            let group = (!sets.is_empty()).then(|| rel.0 as usize % sets.len());
            let set = group.map(|g| &sets[g]);
            let stat = match (refresh, set) {
                (Some(state), Some(set)) => state.stat_for(set.id(), rel),
                _ => None,
            };
            let version = stat.map_or(0, |s| s.version);
            let key = cache.map(|_| scan_key(workload, rel, sets));
            // The one description of this relation's scan: what a live
            // source opens, and what the refresher re-issues later.
            let open = RemoteOpen {
                rel,
                total: stat.map_or(total, |s| s.total.max(total)),
                window: workload.config.queue_capacity as u32,
                seed: workload.config.seed,
                stream: format!("wrapper:{}", spec.name),
                delay: workload.delays[rel.0 as usize].clone(),
                resume_from: 0,
            };
            if let (Some(state), Some(key), Some(group)) = (refresh, &key, group) {
                let open = open.clone();
                state.record(key.clone(), ScanProvenance { group, open });
            }
            if let (Some(cache), Some(key)) = (cache, &key) {
                let hit = cache.lookup(key);
                outcomes.push(match &hit {
                    Some(keys) => EngineEvent::CacheHit {
                        rel,
                        tuples: keys.len() as u64,
                        bytes: payload_bytes(keys.len()),
                    },
                    None => EngineEvent::CacheMiss { rel },
                });
                if let Some(keys) = hit {
                    sources.push(Box::new(ReplaySource::new(rel, keys)) as BoxSource);
                    continue;
                }
            }
            let live: BoxSource = match set {
                None => sim_source(workload, rel),
                Some(set) => Box::new(FailoverSource::connect(
                    Arc::clone(set),
                    open,
                    notify.clone(),
                    opts.read_timeout,
                )?),
            };
            let source = match (cache, key) {
                (Some(cache), Some(key)) => Box::new(RecordingSource::versioned(
                    live,
                    Arc::clone(cache),
                    key,
                    version,
                )) as BoxSource,
                _ => live,
            };
            sources.push(source);
        }
        Ok(sources)
    })?;
    Ok((driver, outcomes))
}

/// Streams the engine's events to the client as `Trace` frames — if the
/// client asked for a trace. When it did not (or has gone away),
/// `on_event` returns before anything is rendered. Routing failures are
/// swallowed: losing the trace must not abort the query.
struct TraceObserver<'a> {
    shared: &'a Shared,
    job: &'a Job,
    enabled: bool,
}

impl EngineObserver for TraceObserver<'_> {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        if !self.enabled {
            return;
        }
        let line = observe::render(at, ev);
        self.shared
            .metrics
            .trace_lines_rendered
            .fetch_add(1, Ordering::Relaxed);
        let trace = Msg::Frame(self.job.conn_id, Frame::Trace { line });
        if !self.shared.send(self.job, trace) {
            self.enabled = false; // client gone; stop trying
        }
    }
}

/// The `Done` payload: the engine's metrics led by the serving-side
/// fields. `RunMetrics` is pinned by the golden-fingerprint suite, so what
/// only the server knows rides in front of it rather than growing the
/// struct — per-endpoint replica health (EWMA rate in tuples/second,
/// `null` until a batch was measured; omitted when `health` is empty), the
/// live cache gauges and freshness counters (when a cache is configured),
/// then the session's queue wait.
pub fn done_payload(
    m: &RunMetrics,
    queue_wait_secs: f64,
    cache: Option<&CacheStats>,
    health: &[(String, Vec<EndpointSnapshot>)],
) -> String {
    json::object(|o| {
        if !health.is_empty() {
            let groups = health.iter().map(|(id, endpoints)| {
                obj(move |o| {
                    fields!(o, "group": id, "endpoints": arr(endpoints.iter().map(endpoint_json)))
                })
            });
            fields!(o, "replica_health": arr(groups));
        }
        if let Some(s) = cache {
            fields!(o,
                "cache_resident_bytes": s.resident_bytes, "cache_evictions": s.evictions,
                "cache_expired": s.expirations, "refreshes": s.refreshes,
                "refresh_delta_bytes": s.refresh_delta_bytes,
                "refresh_full_bytes": s.refresh_full_bytes, "stale_served": s.stale_served
            );
        }
        fields!(o, "queue_wait_secs": fixed(queue_wait_secs, 6));
        metrics_fields(o, m);
    })
}

fn endpoint_json(e: &EndpointSnapshot) -> impl ToJson + '_ {
    obj(move |o| {
        fields!(o, "addr": &e.addr);
        match e.state {
            EndpointState::Live => fields!(o, "state": "live"),
            EndpointState::Degraded { until_nanos } => {
                fields!(o, "state": obj(|o| fields!(o, "degraded_until_nanos": until_nanos)))
            }
        }
        fields!(o,
            "rate_tps": e.rate.map(|r| fixed(r, 3)), "opens": e.opens,
            "failures": e.failures_total
        );
    })
}

/// Flat JSON rendering of a finished run's metrics (the `Done` payload).
pub fn metrics_json(m: &RunMetrics) -> String {
    json::object(|o| metrics_fields(o, m))
}

fn metrics_fields(o: &mut json::Object<'_>, m: &RunMetrics) {
    let queries = m.query_responses.iter();
    fields!(o,
        "strategy": m.strategy, "seed": m.seed, "response_secs": m.response_secs(),
        "output_tuples": m.output_tuples, "cpu_busy_secs": m.cpu_busy.as_secs_f64(),
        "stall_secs": m.stall_time.as_secs_f64(), "batches": m.batches, "plans": m.plans,
        "end_of_qf": m.end_of_qf, "rate_changes": m.rate_changes, "timeouts": m.timeouts,
        "memory_overflows": m.memory_overflows, "degradations": m.degradations,
        "memory_high_water": m.memory_high_water, "events": m.events,
        "cache_hits": m.cache_hits, "cache_misses": m.cache_misses,
        "cache_bytes_served": m.cache_bytes_served, "failovers": m.failovers,
        "replica_retries": m.replica_retries, "morsels": m.morsels, "steals": m.steals,
        "rate_samples": m.rate_samples, "permutations": m.permutations,
        "query_responses": arr(queries.map(|&(q, t)| (q, t.as_secs_f64())))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_is_parseable_and_carries_the_cardinality() {
        let mut m = RunMetrics {
            strategy: "dse",
            seed: 42,
            ..RunMetrics::default()
        };
        m.output_tuples = 90_000;
        let text = metrics_json(&m);
        let v = dqs_exec::json::parse(&text).expect("valid JSON");
        let get = |k: &str| v.get(k);
        assert_eq!(get("output_tuples").and_then(|v| v.as_u64()), Some(90_000));
        assert_eq!(
            get("strategy").and_then(|v| v.as_str()),
            Some("dse"),
            "{text}"
        );
    }

    #[test]
    fn done_payload_leads_with_serving_fields_and_stays_parseable() {
        let m = RunMetrics {
            strategy: "spm",
            seed: 1,
            ..RunMetrics::default()
        };
        let stats = CacheStats {
            resident_bytes: 4096,
            evictions: 2,
            expirations: 1,
            refreshes: 3,
            refresh_delta_bytes: 64,
            refresh_full_bytes: 512,
            stale_served: 5,
            ..CacheStats::default()
        };
        let health = vec![(
            "g\"0".to_string(),
            vec![
                EndpointSnapshot {
                    addr: "127.0.0.1:7001".into(),
                    state: EndpointState::Live,
                    rate: Some(1234.5),
                    opens: 3,
                    failures_total: 0,
                },
                EndpointSnapshot {
                    addr: "127.0.0.1:7002".into(),
                    state: EndpointState::Degraded { until_nanos: 99 },
                    rate: None,
                    opens: 1,
                    failures_total: 2,
                },
            ],
        )];

        // In-process wrappers, no cache: the queue wait alone leads.
        let bare = done_payload(&m, 0.125, None, &[]);
        assert!(
            bare.starts_with("{\"queue_wait_secs\":0.125000,\"strategy\""),
            "{bare}"
        );
        // A cache adds its gauges in front; replica groups lead the lot.
        let cached = done_payload(&m, 0.0, Some(&stats), &[]);
        assert!(
            cached.starts_with("{\"cache_resident_bytes\":4096,"),
            "{cached}"
        );
        let text = done_payload(&m, 0.125, Some(&stats), &health);
        assert!(
            text.starts_with("{\"replica_health\":[{\"group\":\"g\\\"0\",\"endpoints\":[{\"addr\":\"127.0.0.1:7001\",\"state\":\"live\",\"rate_tps\":1234.500,\"opens\":3,\"failures\":0},"),
            "{text}"
        );
        assert!(
            text.contains("\"state\":{\"degraded_until_nanos\":99},\"rate_tps\":null"),
            "{text}"
        );

        for payload in [&bare, &cached, &text] {
            let v = dqs_exec::json::parse(payload).expect("valid JSON");
            let get = |k: &str| v.get(k);
            assert_eq!(
                get("strategy").and_then(|v| v.as_str()),
                Some("spm"),
                "engine metrics ride along unchanged"
            );
            assert!(get("queue_wait_secs").and_then(|v| v.as_f64()).is_some());
        }
        let v = dqs_exec::json::parse(&text).unwrap();
        let get = |k: &str| v.get(k);
        assert_eq!(get("queue_wait_secs").and_then(|v| v.as_f64()), Some(0.125));
        assert!(get("replica_health").is_some());
        for (key, want) in [
            ("cache_evictions", 2),
            ("cache_expired", 1),
            ("refreshes", 3),
            ("refresh_delta_bytes", 64),
            ("refresh_full_bytes", 512),
            ("stale_served", 5),
        ] {
            assert_eq!(get(key).and_then(|v| v.as_u64()), Some(want), "{key}");
        }
    }

    /// `metrics_json` and the `Done` payload — bare, with the cache
    /// section, with cache and replica sections — byte for byte as the
    /// pre-writer `format!`s produced them.
    #[test]
    fn done_payload_matches_the_golden_rendering() {
        use dqs_sim::SimDuration;
        let m = RunMetrics {
            strategy: "dse",
            seed: u64::MAX,
            response_time: SimDuration::from_nanos(7_631_000_123),
            output_tuples: 90_000,
            cpu_busy: SimDuration::from_nanos(2_579_000_000),
            stall_time: SimDuration::from_micros(1_981),
            batches: 11,
            plans: 12,
            end_of_qf: 13,
            rate_changes: 14,
            timeouts: 15,
            memory_overflows: 16,
            degradations: 17,
            memory_high_water: 1 << 20,
            events: 123_456,
            cache_hits: 2,
            cache_misses: 1,
            cache_bytes_served: 4800,
            failovers: 1,
            replica_retries: 2,
            morsels: 40,
            steals: 3,
            rate_samples: 5,
            permutations: 1,
            query_responses: vec![
                (0, SimDuration::from_millis(1500)),
                (1, SimDuration::from_nanos(7_631_000_123)),
            ],
            ..RunMetrics::default()
        };
        let stats = CacheStats {
            resident_bytes: 4096,
            evictions: 2,
            expirations: 1,
            refreshes: 3,
            refresh_delta_bytes: 64,
            refresh_full_bytes: 512,
            stale_served: 5,
            ..CacheStats::default()
        };
        let endpoint = |addr: &str, state, rate, opens, failures_total| EndpointSnapshot {
            addr: addr.into(),
            state,
            rate,
            opens,
            failures_total,
        };
        let degraded = EndpointState::Degraded { until_nanos: 99 };
        let health = vec![
            (
                "g\"0".to_string(),
                vec![
                    endpoint("127.0.0.1:7001", EndpointState::Live, Some(1234.5), 3, 0),
                    endpoint("127.0.0.1:7002", degraded, None, 1, 2),
                ],
            ),
            ("w1".to_string(), vec![]),
        ];

        let metrics = r#"{"strategy":"dse","seed":18446744073709551615,"response_secs":7.631000123,"output_tuples":90000,"cpu_busy_secs":2.579,"stall_secs":0.001981,"batches":11,"plans":12,"end_of_qf":13,"rate_changes":14,"timeouts":15,"memory_overflows":16,"degradations":17,"memory_high_water":1048576,"events":123456,"cache_hits":2,"cache_misses":1,"cache_bytes_served":4800,"failovers":1,"replica_retries":2,"morsels":40,"steals":3,"rate_samples":5,"permutations":1,"query_responses":[[0,1.5],[1,7.631000123]]}"#;
        assert_eq!(metrics_json(&m), metrics);
        let seed = json::parse(metrics)
            .unwrap()
            .get("seed")
            .and_then(|s| s.as_u64());
        assert_eq!(seed, Some(u64::MAX), "a full 64-bit seed reads back");
        assert_eq!(
            metrics_json(&RunMetrics::default()),
            r#"{"strategy":"","seed":0,"response_secs":0,"output_tuples":0,"cpu_busy_secs":0,"stall_secs":0,"batches":0,"plans":0,"end_of_qf":0,"rate_changes":0,"timeouts":0,"memory_overflows":0,"degradations":0,"memory_high_water":0,"events":0,"cache_hits":0,"cache_misses":0,"cache_bytes_served":0,"failovers":0,"replica_retries":0,"morsels":0,"steals":0,"rate_samples":0,"permutations":0,"query_responses":[]}"#
        );
        let led_by = |lead: &str| format!("{lead}{}", &metrics[1..]);
        assert_eq!(
            done_payload(&m, 0.125, None, &[]),
            led_by(r#"{"queue_wait_secs":0.125000,"#)
        );
        assert_eq!(
            done_payload(&m, 0.0, Some(&stats), &[]),
            led_by(
                r#"{"cache_resident_bytes":4096,"cache_evictions":2,"cache_expired":1,"refreshes":3,"refresh_delta_bytes":64,"refresh_full_bytes":512,"stale_served":5,"queue_wait_secs":0.000000,"#
            )
        );
        assert_eq!(
            done_payload(&m, 1.0 / 3.0, Some(&stats), &health),
            led_by(
                r#"{"replica_health":[{"group":"g\"0","endpoints":[{"addr":"127.0.0.1:7001","state":"live","rate_tps":1234.500,"opens":3,"failures":0},{"addr":"127.0.0.1:7002","state":{"degraded_until_nanos":99},"rate_tps":null,"opens":1,"failures":2}]},{"group":"w1","endpoints":[]}],"cache_resident_bytes":4096,"cache_evictions":2,"cache_expired":1,"refreshes":3,"refresh_delta_bytes":64,"refresh_full_bytes":512,"stale_served":5,"queue_wait_secs":0.333333,"#
            )
        );
    }

    /// A session that did not ask for a trace costs no render at all; one
    /// that did gets one `Trace` frame per engine event, each a JSON
    /// object.
    #[test]
    fn engine_events_are_rendered_only_for_clients_that_asked() {
        use crate::{submit, Progress, SubmitOpts};

        let server = MediatorServer::bind("127.0.0.1:0", ServeOpts::default()).unwrap();
        let metrics = server.metrics();
        let run = |trace: bool| {
            let opts = SubmitOpts {
                trace,
                ..SubmitOpts::default()
            };
            let mut lines = Vec::new();
            let done = submit(server.local_addr(), dqs_workload::TINY_SPEC, &opts, |p| {
                if let Progress::TraceLine(line) = p {
                    lines.push(line);
                }
            })
            .expect("session runs");
            (json::parse(&done.raw).expect("Done payload"), lines)
        };

        let (_, lines) = run(false);
        assert!(lines.is_empty());
        assert_eq!(metrics.trace_lines_rendered(), 0, "nobody asked");

        let (done, lines) = run(true);
        assert_eq!(metrics.trace_frames_dropped(), 0);
        assert_eq!(lines.len() as u64, metrics.trace_lines_rendered());
        let of_type = |ty: &str| {
            let is = |l: &&String| {
                let line = json::parse(l).expect("a trace line is one JSON object");
                assert!(line.get("at_us").and_then(|v| v.as_f64()).is_some(), "{l}");
                line.get("type").and_then(|v| v.as_str()) == Some(ty)
            };
            lines.iter().filter(is).count() as u64
        };
        let metric = |key: &str| done.get(key).and_then(|v| v.as_u64());
        // TINY_SPEC: two relations of 64 tuples.
        assert_eq!(of_type("arrival"), 128, "one frame per arrival");
        assert_eq!(Some(of_type("batch_start")), metric("batches"));
        assert_eq!(Some(of_type("batch_done")), metric("batches"));
        assert_eq!(Some(of_type("plan")), metric("plans"));
        server.shutdown();
    }

    /// A remote session takes the admission lock to be submitted and to
    /// finish — never in between. The
    /// group's first endpoint never answers, so building the session's
    /// sources takes one bounded connect (500 ms): long enough for the
    /// client to see `Accepted` and take the lock first. With the lock
    /// held, both scans still open (each pin arrives the one way it
    /// travels, as a `replica_pin` trace line) and the engine gets as far
    /// as a finished batch; only the finish waits for the release.
    #[test]
    fn a_running_remote_session_never_waits_for_the_admission_lock() {
        use crate::{submit, Progress, SubmitOpts, WrapperServer};
        use std::net::TcpStream;

        // Fill a listener's accept queue; the kernel drops further SYNs.
        let black_hole = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = black_hole.local_addr().unwrap();
        let mut held_open = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&dead, Duration::from_millis(100)) {
            held_open.push(s);
            assert!(held_open.len() < 10_000, "accept queue never filled");
        }
        let wrapper = WrapperServer::bind("127.0.0.1:0").unwrap();
        let opts = ServeOpts {
            wrappers: vec![format!("w0={dead},{}", wrapper.local_addr())],
            ..ServeOpts::default()
        };
        let server = MediatorServer::bind("127.0.0.1:0", opts).unwrap();
        let shared = Arc::clone(&server.shared);
        let (mut held, mut pins, mut ran_under_lock) = (None, 0, false);
        let opts = SubmitOpts {
            trace: true,
            ..SubmitOpts::default()
        };
        let done = submit(server.local_addr(), dqs_workload::TINY_SPEC, &opts, |p| {
            let of_type = |ty: &str| {
                matches!(&p, Progress::TraceLine(l) if l.contains(&format!("\"type\":\"{ty}\"")))
            };
            if matches!(p, Progress::Accepted { .. }) {
                held = Some(shared.admission.lock().unwrap());
            } else if of_type("replica_pin") {
                pins += 1;
            } else if (of_type("batch_done") || of_type("abort")) && held.take().is_some() {
                ran_under_lock = pins == 2 && of_type("batch_done");
            }
        })
        .expect("session runs");
        assert!(
            ran_under_lock,
            "{pins} pins before the first finished batch"
        );
        // TINY_SPEC: 64 x 64 tuples at selectivity 0.002.
        assert_eq!(done.output_tuples, 8);
        server.shutdown();
        wrapper.shutdown();
    }

    /// A session whose client disconnects gives its slot back exactly
    /// once, wherever it was waiting: parked in the backlog (its I/O
    /// worker reaps it at close) or already promoted into a slot but not
    /// yet run (the slot's thread finds `alive` cleared and never runs it).
    #[test]
    fn a_waiting_session_whose_client_left_releases_its_slot_once() {
        use dqs_source::net::{read_frame, write_frame};
        use std::net::TcpStream;

        let server = MediatorServer::bind(
            "127.0.0.1:0",
            ServeOpts {
                max_concurrent: 1,
                backlog: 4,
                io_threads: 1,
                ..ServeOpts::default()
            },
        )
        .unwrap();
        let shared = Arc::clone(&server.shared);
        let submit_tiny = || {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let submit = Frame::Submit {
                strategy: "dse".into(),
                trace: false,
                no_cache: false,
                seed: None,
                spec_json: dqs_workload::TINY_SPEC.into(),
            };
            write_frame(&mut conn, &submit).unwrap();
            conn
        };
        let until = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting until {what}");
                thread::sleep(Duration::from_millis(2));
            }
        };
        // The one flag of the one parked job.
        let parked_flag = || {
            let admission = shared.admission.lock().unwrap();
            let job = admission.queued.values().next().expect("a parked job");
            Arc::clone(&job.alive)
        };

        // Take the only slot by hand, so real submissions park behind it.
        let held = match shared.admission.lock().unwrap().table.submit_with(0, 0) {
            Decision::Admit { session, .. } => session,
            other => panic!("empty table must admit: {other:?}"),
        };

        // Parked in the backlog when its client leaves.
        let mut parked = submit_tiny();
        assert!(matches!(
            read_frame(&mut parked),
            Ok(Some(Frame::Queued { .. }))
        ));
        let alive = parked_flag();
        drop(parked);
        until("the parked session is reaped", &|| {
            server.stats().queued == 0
        });
        assert!(!alive.load(Ordering::SeqCst));
        assert!(shared.admission.lock().unwrap().queued.is_empty());
        assert_eq!(server.stats().running, 1, "the held slot is untouched");

        // Promoted into the slot, not yet run, when its client leaves: the
        // admission lock keeps the I/O worker from reaping it while the
        // slot changes hands and the connection is marked dead.
        let mut promoted = submit_tiny();
        assert!(matches!(
            read_frame(&mut promoted),
            Ok(Some(Frame::Queued { .. }))
        ));
        let alive = parked_flag();
        let (job, waited) = {
            let mut admission = shared.admission.lock().unwrap();
            let next = admission
                .finish(held)
                .expect("the parked job takes the slot");
            shared.metrics.queue_pop();
            drop(promoted);
            until("the connection is marked dead", &|| {
                !alive.load(Ordering::SeqCst)
            });
            next
        };
        let slot = Arc::clone(&shared);
        server
            .sessions
            .spawn(move || run_session(&slot, job, waited));
        until("the dead session's slot is released", &|| {
            server.stats().running == 0
        });
        let stats = server.stats();
        assert_eq!(
            (stats.queued, stats.admitted, stats.max_active_seen),
            (0, 2, 1)
        );
        let m = server.metrics();
        assert_eq!(
            (
                m.backlog_depth(),
                m.backlog_enqueued(),
                m.backlog_dequeued()
            ),
            (0, 2, 2)
        );

        // The slot is whole: the next client is admitted directly and served.
        let mut next = submit_tiny();
        assert!(matches!(
            read_frame(&mut next),
            Ok(Some(Frame::Accepted { .. }))
        ));
        assert!(matches!(
            read_frame(&mut next),
            Ok(Some(Frame::Done { .. }))
        ));
        assert_eq!(server.stats().running, 0);
        server.shutdown();
    }

    /// Under SJF, with one slot held by hand and TINY_SPEC's scans resident:
    /// park a cold copy of it (1 ms a tuple, seed 8, so nothing of it is
    /// cached), then TINY_SPEC itself (seed 7), release the slot, and
    /// return the seed of the session promoted first.
    fn seed_promoted_first(warm_no_cache: bool) -> u64 {
        use crate::{submit, SubmitOpts};
        use dqs_source::net::{read_frame, write_frame};
        use dqs_workload::TINY_SPEC;
        use std::net::TcpStream;

        let server = MediatorServer::bind(
            "127.0.0.1:0",
            ServeOpts {
                max_concurrent: 1,
                backlog: 4,
                io_threads: 1,
                cache_bytes: 1 << 20,
                admission: AdmissionPolicy::Sjf,
                ..ServeOpts::default()
            },
        )
        .unwrap();
        submit(
            server.local_addr(),
            TINY_SPEC,
            &SubmitOpts::default(),
            |_| {},
        )
        .expect("the warm-up session runs");
        let shared = Arc::clone(&server.shared);
        let held = match shared.admission.lock().unwrap().table.submit_with(0, 0) {
            Decision::Admit { session, .. } => session,
            other => panic!("an idle table must admit: {other:?}"),
        };
        let park = |spec: &str, seed: Option<u64>, no_cache: bool| {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let submit = Frame::Submit {
                strategy: "dse".into(),
                trace: false,
                no_cache,
                seed,
                spec_json: spec.into(),
            };
            write_frame(&mut conn, &submit).unwrap();
            assert!(matches!(
                read_frame(&mut conn),
                Ok(Some(Frame::Queued { .. }))
            ));
            conn
        };
        let cold = park(&TINY_SPEC.replace("3000", "1000"), Some(8), false);
        let warm = park(TINY_SPEC, None, warm_no_cache);
        let (job, waited) = shared
            .admission
            .lock()
            .unwrap()
            .finish(held)
            .expect("a parked job takes the slot");
        let first = job.workload.config.seed;
        shared.metrics.queue_pop();
        let slot = Arc::clone(&shared);
        server
            .sessions
            .spawn(move || run_session(&slot, job, waited));
        for mut conn in [cold, warm] {
            loop {
                match read_frame(&mut conn) {
                    Ok(Some(Frame::Accepted { .. })) => {}
                    Ok(Some(Frame::Done { .. })) => break,
                    other => panic!("expected Accepted, then Done: {other:?}"),
                }
            }
        }
        server.shutdown();
        first
    }

    /// A session whose every scan will replay ranks by its CPU term alone,
    /// so it overtakes a cold session queued before it (64 ms of retrieval
    /// against a cold 192 ms: summing wrapper time ranked the cold copy's
    /// 128 ms first).
    #[test]
    fn under_sjf_a_warm_session_overtakes_a_queued_cold_one() {
        assert_eq!(seed_promoted_first(false), 7);
    }

    /// A `no_cache` session never replays, so a resident spec submitted
    /// with it keeps its cold key and waits behind the cheaper cold copy.
    #[test]
    fn under_sjf_a_no_cache_submission_of_a_resident_spec_keeps_its_cold_key() {
        assert_eq!(seed_promoted_first(true), 8);
    }

    /// Sources deliver in parallel, so a spec ranks by its slower one: two
    /// relations of 64 tuples at 2 ms (LWB 128 ms) go before 64 at 2.5 ms
    /// beside 64 at 10 µs (LWB 160 ms), though summing wrapper time ranks
    /// them the other way (256 ms against 160.6 ms).
    #[test]
    fn under_sjf_parallel_sources_rank_by_the_slower_one() {
        let key = |a: &str, b: &str| {
            let spec = dqs_workload::TINY_SPEC
                .replacen("3000", a, 1)
                .replacen("3000", b, 1);
            let w = WorkloadSpec::from_json(&spec)
                .and_then(WorkloadSpec::into_workload)
                .expect("spec builds");
            sjf_key(&w, &[], None)
        };
        let (x, y) = (key("2000", "2000"), key("2500", "10"));
        assert!(x < y, "{x} must rank before {y}");
        assert_eq!((x, y), (64 * 2_000_000, 64 * 2_500_000), "retrieval-bound");
    }

    #[test]
    fn refresh_without_cache_or_wrappers_is_a_bind_error() {
        for opts in [
            ServeOpts {
                refresh_interval: Some(Duration::from_millis(100)),
                cache_bytes: 1 << 20,
                wrappers: vec![],
                ..ServeOpts::default()
            },
            ServeOpts {
                refresh_interval: Some(Duration::from_millis(100)),
                cache_bytes: 0,
                wrappers: vec!["127.0.0.1:9".into()],
                ..ServeOpts::default()
            },
        ] {
            let err = MediatorServer::bind("127.0.0.1:0", opts).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn zero_io_threads_is_a_bind_error() {
        let opts = ServeOpts {
            io_threads: 0,
            ..ServeOpts::default()
        };
        let err = MediatorServer::bind("127.0.0.1:0", opts).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
