//! Session admission for the concurrent mediator.
//!
//! The paper schedules *one* query well; a serving mediator must also
//! decide *which* queries run at all. [`SessionTable`] is that decision as
//! a sans-io state machine: up to `max_concurrent` sessions run at once,
//! each under an equal partition of the global memory budget (the §4
//! memory bound `M` becomes `M / max_concurrent` per query, so every
//! admitted query plans against a budget that cannot be revoked
//! mid-run); excess submissions wait in a bounded backlog and anything
//! past the backlog is rejected outright.
//!
//! Which waiter a freed slot promotes is the [`AdmissionPolicy`]:
//!
//! * [`AdmissionPolicy::Fifo`] — arrival order, the original behavior;
//! * [`AdmissionPolicy::Sjf`] — shortest job first by the cost each
//!   submission carries (the mediator passes the query's §5.1.2 lower
//!   bound, scans the cache will replay counted at zero), which collapses
//!   tail latency when short queries would otherwise convoy behind long
//!   ones.
//!
//! The table also records each session's *queue wait* — the time between
//! submission and promotion (zero for direct admits) — so admission-policy
//! effects are observable in production metrics, not just in benches.
//!
//! The table has no threads and no sockets — the mediator server holds it
//! behind a mutex and drives it from connection handlers — so its
//! invariants are testable without a single byte of I/O:
//!
//! * running sessions never exceed `max_concurrent`;
//! * memory in use is exactly `running × partition` and never exceeds the
//!   global budget;
//! * under FIFO, a finishing session promotes the oldest queued
//!   submission.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Which waiting submission a freed slot promotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Arrival order (the classic bounded-backlog queue).
    #[default]
    Fifo,
    /// Shortest job first by estimated cost (ties broken by arrival).
    Sjf,
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<AdmissionPolicy, String> {
        match s {
            "fifo" => Ok(AdmissionPolicy::Fifo),
            "sjf" => Ok(AdmissionPolicy::Sjf),
            other => Err(format!("unknown admission policy {other:?} (fifo|sjf)")),
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::Sjf => "sjf",
        })
    }
}

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Sessions allowed to execute simultaneously (min 1).
    pub max_concurrent: usize,
    /// Submissions allowed to wait beyond the running set.
    pub backlog: usize,
    /// Global memory budget partitioned across running sessions, bytes.
    pub memory_bytes: u64,
    /// Which waiter a freed slot promotes.
    pub policy: AdmissionPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_concurrent: 2,
            backlog: 8,
            memory_bytes: 64 << 20,
            policy: AdmissionPolicy::Fifo,
        }
    }
}

/// What the mediator should do with a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Run it now, under this memory partition.
    Admit {
        /// The new session's id.
        session: u64,
        /// The memory budget the session's query must plan within.
        memory_bytes: u64,
    },
    /// Hold it; it will be promoted when a slot frees.
    Queue {
        /// The new session's id.
        session: u64,
        /// Position in the backlog, in arrival order (0 = oldest; under
        /// FIFO, also next to be promoted).
        position: usize,
    },
    /// Refuse it; the backlog is full.
    Reject {
        /// Why.
        reason: String,
    },
}

/// Load and accounting counters, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Sessions currently executing.
    pub running: usize,
    /// Sessions currently queued.
    pub queued: usize,
    /// Memory currently reserved by running sessions, bytes.
    pub mem_in_use: u64,
    /// High-water mark of `mem_in_use` over the table's lifetime.
    pub mem_peak: u64,
    /// Most sessions ever running at once.
    pub max_active_seen: usize,
    /// Total submissions admitted (directly or via promotion).
    pub admitted: u64,
    /// Total submissions rejected.
    pub rejected: u64,
}

/// One submission parked in the backlog.
#[derive(Debug)]
struct Waiter {
    session: u64,
    /// Estimated cost (opaque units; the mediator passes the query's lower
    /// bound in nanoseconds). Lower promotes first under SJF.
    cost: u64,
    /// Arrival order (monotonic; FIFO key and the SJF tie-break).
    seq: u64,
    queued_at: Instant,
}

/// The mediator's admission state: who runs, who waits, under how much
/// memory.
#[derive(Debug)]
pub struct SessionTable {
    cfg: SessionConfig,
    next_id: u64,
    next_seq: u64,
    running: Vec<u64>,
    /// Waiters in arrival order; the promotion policy picks an index.
    queue: VecDeque<Waiter>,
    /// Queue wait of each *running* session (zero for direct admits);
    /// cleared when the session finishes.
    waits: HashMap<u64, Duration>,
    stats: SessionStats,
}

impl SessionTable {
    /// An empty table under `cfg` (a zero `max_concurrent` is clamped
    /// to 1 — a mediator that can run nothing is a configuration error,
    /// not a useful state).
    pub fn new(mut cfg: SessionConfig) -> SessionTable {
        cfg.max_concurrent = cfg.max_concurrent.max(1);
        SessionTable {
            cfg,
            next_id: 1,
            next_seq: 0,
            running: Vec::new(),
            queue: VecDeque::new(),
            waits: HashMap::new(),
            stats: SessionStats::default(),
        }
    }

    /// The per-session memory partition: the global budget split evenly
    /// across the concurrency limit, so admission never has to claw
    /// memory back from a running query.
    pub fn partition_bytes(&self) -> u64 {
        self.cfg.memory_bytes / self.cfg.max_concurrent as u64
    }

    /// Decide a new submission's fate without a cost estimate (cost 0
    /// sorts first under SJF; ties resolve by arrival, so an all-default
    /// table behaves exactly like FIFO).
    pub fn submit(&mut self) -> Decision {
        self.submit_with(0, 0)
    }

    /// Decide a new submission's fate. `cost` is the caller's estimate of
    /// how long the query will run (opaque units — only the ordering
    /// matters). `client` is accepted and ignored: no policy reads it, and
    /// the parameter stays only because the benchmark crate links this
    /// two-argument form.
    pub fn submit_with(&mut self, cost: u64, _client: u64) -> Decision {
        let session = self.next_id;
        self.next_id += 1;
        if self.running.len() < self.cfg.max_concurrent {
            self.waits.insert(session, Duration::ZERO);
            self.admit(session);
            Decision::Admit {
                session,
                memory_bytes: self.partition_bytes(),
            }
        } else if self.queue.len() < self.cfg.backlog {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push_back(Waiter {
                session,
                cost,
                seq,
                queued_at: Instant::now(),
            });
            self.stats.queued = self.queue.len();
            Decision::Queue {
                session,
                position: self.queue.len() - 1,
            }
        } else {
            self.stats.rejected += 1;
            Decision::Reject {
                reason: format!(
                    "overloaded: {} running, backlog of {} full",
                    self.running.len(),
                    self.cfg.backlog
                ),
            }
        }
    }

    fn admit(&mut self, session: u64) {
        self.running.push(session);
        self.stats.admitted += 1;
        self.stats.running = self.running.len();
        self.stats.max_active_seen = self.stats.max_active_seen.max(self.running.len());
        self.stats.mem_in_use = self.running.len() as u64 * self.partition_bytes();
        self.stats.mem_peak = self.stats.mem_peak.max(self.stats.mem_in_use);
    }

    /// Index of the waiter the policy promotes next, or `None` when the
    /// backlog is empty. The queue stays in arrival order; only the pick
    /// differs per policy.
    fn pick_next(&self) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        match self.cfg.policy {
            AdmissionPolicy::Fifo => Some(0),
            AdmissionPolicy::Sjf => self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| (w.cost, w.seq))
                .map(|(i, _)| i),
        }
    }

    /// A queued session's current backlog position in arrival order
    /// (0 = oldest), or `None` once it runs or was never queued.
    pub fn queue_position(&self, session: u64) -> Option<usize> {
        self.queue.iter().position(|w| w.session == session)
    }

    /// How long `session` waited in the backlog before admission — zero
    /// for direct admits, `None` once it finishes (or while still
    /// queued / never known).
    pub fn queue_wait(&self, session: u64) -> Option<Duration> {
        self.waits.get(&session).copied()
    }

    /// Release `session`'s slot and memory; promotes (and returns) the
    /// queued session the policy picks, which is running when this
    /// returns. Unknown or queued ids release nothing.
    pub fn finish(&mut self, session: u64) -> Option<u64> {
        self.waits.remove(&session);
        let Some(i) = self.running.iter().position(|&s| s == session) else {
            // A queued client that gave up: just drop it from the backlog.
            if let Some(q) = self.queue_position(session) {
                self.queue.remove(q);
                self.stats.queued = self.queue.len();
            }
            return None;
        };
        self.running.remove(i);
        self.stats.running = self.running.len();
        self.stats.mem_in_use = self.running.len() as u64 * self.partition_bytes();
        let pick = self.pick_next()?;
        let waiter = self.queue.remove(pick).expect("picked index exists");
        self.waits
            .insert(waiter.session, waiter.queued_at.elapsed());
        self.admit(waiter.session);
        self.stats.queued = self.queue.len();
        Some(waiter.session)
    }

    /// Current counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_concurrent: usize, backlog: usize, memory_bytes: u64) -> SessionConfig {
        SessionConfig {
            max_concurrent,
            backlog,
            memory_bytes,
            ..SessionConfig::default()
        }
    }

    fn admit(t: &mut SessionTable, cost: u64) -> u64 {
        match t.submit_with(cost, 0) {
            Decision::Admit { session, .. } => session,
            d => panic!("expected admit, got {d:?}"),
        }
    }

    fn park(t: &mut SessionTable, cost: u64) -> u64 {
        match t.submit_with(cost, 0) {
            Decision::Queue { session, .. } => session,
            d => panic!("expected queue, got {d:?}"),
        }
    }

    #[test]
    fn admits_up_to_the_limit_then_queues_then_rejects() {
        let mut t = SessionTable::new(cfg(2, 1, 100));
        let a = t.submit();
        let b = t.submit();
        assert!(matches!(
            a,
            Decision::Admit {
                memory_bytes: 50,
                ..
            }
        ));
        assert!(matches!(
            b,
            Decision::Admit {
                memory_bytes: 50,
                ..
            }
        ));
        let c = t.submit();
        assert!(matches!(c, Decision::Queue { position: 0, .. }), "{c:?}");
        let d = t.submit();
        assert!(matches!(d, Decision::Reject { .. }), "{d:?}");
        assert_eq!(t.stats().running, 2);
        assert_eq!(t.stats().queued, 1);
        assert_eq!(t.stats().rejected, 1);
    }

    #[test]
    fn memory_partition_is_budget_over_concurrency() {
        let t = SessionTable::new(cfg(4, 0, 64 << 20));
        assert_eq!(t.partition_bytes(), 16 << 20);
        let t = SessionTable::new(cfg(0, 0, 100)); // clamped to 1
        assert_eq!(t.partition_bytes(), 100);
        assert_eq!(t.cfg.max_concurrent, 1);
    }

    #[test]
    fn memory_in_use_tracks_running_sessions_and_never_exceeds_budget() {
        let mut t = SessionTable::new(cfg(3, 10, 90));
        let mut ids = Vec::new();
        for _ in 0..8 {
            match t.submit() {
                Decision::Admit { session, .. } | Decision::Queue { session, .. } => {
                    ids.push(session)
                }
                Decision::Reject { .. } => {}
            }
            assert!(t.stats().mem_in_use <= 90);
        }
        assert_eq!(t.stats().mem_in_use, 90, "3 running × 30");
        for id in ids {
            t.finish(id);
            assert!(t.stats().mem_in_use <= 90);
            assert_eq!(t.stats().mem_in_use, t.stats().running as u64 * 30);
        }
        assert_eq!(t.stats().running, 0);
        assert_eq!(t.stats().mem_in_use, 0);
        assert_eq!(t.stats().mem_peak, 90);
        assert_eq!(t.stats().max_active_seen, 3);
    }

    #[test]
    fn finish_promotes_the_oldest_queued_session() {
        let mut t = SessionTable::new(cfg(1, 3, 10));
        let a = match t.submit() {
            Decision::Admit { session, .. } => session,
            d => panic!("{d:?}"),
        };
        let b = match t.submit() {
            Decision::Queue { session, .. } => session,
            d => panic!("{d:?}"),
        };
        let c = match t.submit() {
            Decision::Queue { session, .. } => session,
            d => panic!("{d:?}"),
        };
        assert_eq!(t.queue_position(b), Some(0));
        assert_eq!(t.queue_position(c), Some(1));
        assert!(!t.running.contains(&b));
        assert_eq!(t.finish(a), Some(b), "FIFO: b before c");
        assert!(t.running.contains(&b));
        assert_eq!(t.queue_position(c), Some(0), "c moved up");
        assert_eq!(t.finish(b), Some(c));
        assert_eq!(t.finish(c), None, "backlog empty");
        assert_eq!(t.stats().admitted, 3);
    }

    #[test]
    fn fifo_ignores_cost_even_when_estimates_are_supplied() {
        let mut t = SessionTable::new(cfg(1, 3, 10));
        let a = admit(&mut t, 5);
        let expensive = park(&mut t, 1_000);
        let cheap = park(&mut t, 1);
        assert_eq!(t.finish(a), Some(expensive), "FIFO promotes by arrival");
        assert_eq!(t.finish(expensive), Some(cheap));
    }

    #[test]
    fn sjf_promotes_cheapest_first_with_arrival_tiebreak() {
        let mut t = SessionTable::new(SessionConfig {
            policy: AdmissionPolicy::Sjf,
            ..cfg(1, 8, 10)
        });
        let a = admit(&mut t, 0);
        let big = park(&mut t, 500);
        let small_late = park(&mut t, 10);
        let small_later = park(&mut t, 10);
        let mid = park(&mut t, 100);
        assert_eq!(
            t.finish(a),
            Some(small_late),
            "cheapest first; ties by arrival"
        );
        assert_eq!(t.finish(small_late), Some(small_later));
        assert_eq!(t.finish(small_later), Some(mid));
        assert_eq!(t.finish(mid), Some(big), "the long job runs last");
        assert_eq!(t.finish(big), None);
    }

    #[test]
    fn queue_wait_is_zero_for_direct_admits_and_recorded_for_promotions() {
        let mut t = SessionTable::new(cfg(1, 2, 10));
        let a = admit(&mut t, 0);
        assert_eq!(t.queue_wait(a), Some(Duration::ZERO));
        let b = park(&mut t, 0);
        assert_eq!(t.queue_wait(b), None, "still queued: wait unknown");
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.finish(a), Some(b));
        let wait = t.queue_wait(b).expect("promoted session has a wait");
        assert!(wait >= Duration::from_millis(2), "waited at least 2ms");
        assert_eq!(t.queue_wait(a), None, "cleared at finish");
        t.finish(b);
        assert_eq!(t.queue_wait(b), None, "cleared at finish");
    }

    #[test]
    fn finishing_a_queued_session_abandons_it_without_promotion() {
        let mut t = SessionTable::new(cfg(1, 2, 10));
        let _a = t.submit();
        let b = match t.submit() {
            Decision::Queue { session, .. } => session,
            d => panic!("{d:?}"),
        };
        assert_eq!(t.finish(b), None);
        assert_eq!(t.stats().queued, 0);
        assert_eq!(t.stats().running, 1, "the running session is untouched");
    }

    #[test]
    fn unknown_session_finish_is_a_no_op() {
        let mut t = SessionTable::new(cfg(1, 1, 10));
        assert_eq!(t.finish(999), None);
        assert_eq!(t.stats().running, 0);
    }

    #[test]
    fn session_ids_are_unique_and_monotonic() {
        let mut t = SessionTable::new(cfg(2, 100, 10));
        let mut last = 0;
        for _ in 0..20 {
            let id = match t.submit() {
                Decision::Admit { session, .. } | Decision::Queue { session, .. } => session,
                d => panic!("{d:?}"),
            };
            assert!(id > last);
            last = id;
        }
    }

    #[test]
    fn admission_policy_parses_from_flag_values() {
        assert_eq!("fifo".parse(), Ok(AdmissionPolicy::Fifo));
        assert_eq!("sjf".parse(), Ok(AdmissionPolicy::Sjf));
        assert!("lifo".parse::<AdmissionPolicy>().is_err());
        assert_eq!(AdmissionPolicy::Sjf.to_string(), "sjf");
    }
}
