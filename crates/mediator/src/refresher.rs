//! The background refresher: the socket-owning half of `dqs-refresh`.
//!
//! Every `--refresh-interval-ms`, the refresher thread polls each
//! configured replica group with a `StatRequest`, joins the replies with
//! the cache's entry snapshots (via the [`ScanProvenance`] recorded when
//! each scan was captured), asks the sans-io
//! [`RefreshPlanner`](dqs_refresh::RefreshPlanner) what to do, and then
//! executes the plan over real sockets:
//!
//! * **Confirm** — bump the entry's version counter; no wrapper traffic.
//! * **Delta** — re-open the scan at `resume_from = cached_len` and
//!   append the fetched tail ([`dqs_cache::SharedCache::refresh_extend`]).
//! * **Full** — re-scan from zero and swap the payload.
//! * **Defer** — over budget this cycle; mark the entry stale so hits on
//!   it count as `stale_served` until a later cycle affords it.
//!
//! A refresh is a real scan: it pays the wrapper's modelled delay and
//! window protocol, which is exactly why tail deltas beat full re-scans.
//! Progress is narrated as JSON lines on stdout (`refresh_plan`,
//! `refresh_delta`, `refresh_apply`) so operators — and the CI smoke —
//! can watch freshness converge without a client attached.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use dqs_cache::{CacheKey, SharedCache};
use dqs_refresh::{rescan_cost_us, Candidate, RefreshAction, RefreshPlanner, ScanProvenance};
use dqs_relop::RelId;
use dqs_replica::ReplicaSet;
use dqs_source::net::RelStat;
use dqs_source::scan::{self, RemoteOpen, Scan};

/// Sleep slice so shutdown never waits out a full refresh interval.
const SLEEP_SLICE: Duration = Duration::from_millis(50);

/// Mediator-side state the refresher shares with session builds.
#[derive(Debug, Default)]
pub(crate) struct RefreshState {
    /// How to re-open every cold-recorded scan: the exact `Open`
    /// parameters, keyed by cache key. Pruned against cache residency
    /// each cycle so it never outgrows the cache itself.
    pub(crate) provenance: Mutex<HashMap<CacheKey, ScanProvenance>>,
    /// Latest change-tracking stats observed per (group id, relation).
    /// Session builds consult this so a live scan opens at the wrapper's
    /// *current* total and stamps its recording with the current version.
    pub(crate) stats: Mutex<HashMap<(String, RelId), RelStat>>,
}

impl RefreshState {
    /// The freshest stat observed for `rel` on group `group_id`, if the
    /// refresher has polled it yet.
    pub(crate) fn stat_for(&self, group_id: &str, rel: RelId) -> Option<RelStat> {
        self.stats
            .lock()
            .unwrap()
            .get(&(group_id.to_string(), rel))
            .copied()
    }

    /// Remember how to re-open the scan behind `key`.
    pub(crate) fn record(&self, key: CacheKey, prov: ScanProvenance) {
        self.provenance.lock().unwrap().insert(key, prov);
    }
}

/// Everything the refresher thread needs, bundled at spawn time.
pub(crate) struct RefresherCtx {
    pub(crate) cache: Arc<SharedCache>,
    pub(crate) sets: Vec<Arc<ReplicaSet>>,
    pub(crate) state: Arc<RefreshState>,
    pub(crate) planner: RefreshPlanner,
    pub(crate) interval: Duration,
    pub(crate) read_timeout: Duration,
}

/// The refresher loop: poll, plan, execute, sleep — until `stop`.
pub(crate) fn run_refresher(ctx: &RefresherCtx, stop: &AtomicBool) {
    // Keys observed resident at least once. Provenance is recorded at
    // session-build time, *before* the scan completes and inserts, so a
    // never-yet-resident key is an in-flight recording, not garbage —
    // only keys that materialized and have since been evicted or
    // invalidated are safe to forget.
    let mut materialized: HashSet<CacheKey> = HashSet::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        poll_stats(ctx);
        execute_cycle(ctx, stop);
        ctx.state.provenance.lock().unwrap().retain(|k, _| {
            if ctx.cache.contains(k) {
                materialized.insert(k.clone());
                true
            } else {
                !materialized.remove(k)
            }
        });
        let mut slept = Duration::ZERO;
        while slept < ctx.interval {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let slice = SLEEP_SLICE.min(ctx.interval - slept);
            thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Ask every replica group for its change-tracking state and publish the
/// replies. A group that cannot be reached keeps its last-known stats —
/// refreshing against slightly old truth is safe (the next cycle catches
/// up); dropping the stats would stall session builds for no gain.
fn poll_stats(ctx: &RefresherCtx) {
    for set in &ctx.sets {
        let Some(addr) = set.best() else {
            continue;
        };
        let Ok(stats) = scan::stat(&addr, ctx.read_timeout) else {
            continue;
        };
        let mut table = ctx.state.stats.lock().unwrap();
        for s in stats {
            table.insert((set.id().to_string(), s.rel), s);
        }
    }
}

/// Join cache snapshots with stats and provenance, plan one cycle, and
/// execute it.
fn execute_cycle(ctx: &RefresherCtx, stop: &AtomicBool) {
    let snapshots = ctx.cache.entries_snapshot();
    let provenance = ctx.state.provenance.lock().unwrap().clone();
    let stats = ctx.state.stats.lock().unwrap().clone();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut provs: Vec<&ScanProvenance> = Vec::new();
    for snap in &snapshots {
        // Entries without provenance (in-process scans, pre-refresh
        // inserts) cannot be re-opened; leave them to TTL and eviction.
        let Some(prov) = provenance.get(&snap.key) else {
            continue;
        };
        let Some(set) = ctx.sets.get(prov.group) else {
            continue;
        };
        let Some(stat) = stats.get(&(set.id().to_string(), prov.rel)) else {
            continue;
        };
        candidates.push(Candidate {
            snapshot: snap.clone(),
            stat: *stat,
            rescan_cost_us: rescan_cost_us(&prov.delay, stat.total),
        });
        provs.push(prov);
    }
    let plan = ctx.planner.plan(&candidates);
    if plan.is_empty() {
        return;
    }
    println!(
        "{{\"type\":\"refresh_plan\",\"candidates\":{},\"decisions\":{},\"budget_bytes\":{}}}",
        candidates.len(),
        plan.len(),
        ctx.planner
            .budget_bytes
            .map_or("null".to_string(), |b| b.to_string()),
    );
    for decision in &plan {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let cand = &candidates[decision.index];
        let prov = provs[decision.index];
        let key = &cand.snapshot.key;
        let set = &ctx.sets[prov.group];
        match decision.action {
            RefreshAction::Confirm => {
                let ok = ctx.cache.confirm_version(key, cand.stat.version);
                apply_line("confirm", prov.rel, cand.stat.version, 0, ok);
            }
            RefreshAction::Delta { from, to } => {
                let Some(tail) = fetch_range(set, prov, from, to, ctx.read_timeout) else {
                    continue;
                };
                let ok = ctx.cache.refresh_extend(key, &tail, cand.stat.version);
                println!(
                    "{{\"type\":\"refresh_delta\",\"rel\":{},\"from\":{from},\"to\":{to},\
                     \"bytes\":{},\"version\":{}}}",
                    prov.rel.0,
                    tail.len() * 8,
                    cand.stat.version,
                );
                apply_line("delta", prov.rel, cand.stat.version, decision.bytes, ok);
            }
            RefreshAction::Full { total } => {
                let Some(keys) = fetch_range(set, prov, 0, total, ctx.read_timeout) else {
                    continue;
                };
                let ok = ctx.cache.refresh_replace(key, keys, cand.stat.version);
                apply_line("full", prov.rel, cand.stat.version, decision.bytes, ok);
            }
            RefreshAction::Defer => {
                let ok = ctx.cache.mark_stale(key);
                apply_line("defer", prov.rel, cand.stat.version, 0, ok);
            }
        }
    }
}

fn apply_line(action: &str, rel: RelId, version: u64, bytes: u64, applied: bool) {
    println!(
        "{{\"type\":\"refresh_apply\",\"action\":\"{action}\",\"rel\":{},\
         \"version\":{version},\"bytes\":{bytes},\"applied\":{applied}}}",
        rel.0,
    );
}

/// Fetch tuple indices `[from, to)` of the scan described by `prov` from
/// the best live endpoint of its group, through the same checked reader
/// every session scan uses. `None` when the endpoint is unreachable or
/// breaks the protocol; the entry is retried next cycle.
fn fetch_range(
    set: &ReplicaSet,
    prov: &ScanProvenance,
    from: u64,
    to: u64,
    read_timeout: Duration,
) -> Option<Vec<u64>> {
    let open = RemoteOpen {
        rel: prov.rel,
        total: to,
        window: prov.window,
        seed: prov.seed,
        stream: prov.stream.clone(),
        delay: prov.delay.clone(),
        resume_from: from,
    };
    let stream = scan::dial(set.best()?, read_timeout).ok()?;
    Scan::open(stream, &open, read_timeout).ok()?.drain().ok()
}
