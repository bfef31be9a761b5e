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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dqs_cache::{CacheKey, SharedCache};
use dqs_exec::json::{self, fields};
use dqs_refresh::{rescan_cost_us, Candidate, RefreshAction, RefreshPlanner, ScanProvenance};
use dqs_relop::RelId;
use dqs_replica::ReplicaSet;
use dqs_source::net::RelStat;
use dqs_source::scan::{self, Scan};
use dqs_source::RemoteOpen;

use crate::sleep_unless;

/// Mediator-side state the refresher shares with session builds.
#[derive(Debug, Default)]
pub(crate) struct RefreshState {
    /// How to re-open every cold-recorded scan: the `Open` the session
    /// sent, keyed by cache key. Recorded once the session's run is over,
    /// when each of its recordings is resident or discarded, and pruned
    /// against cache residency each cycle, so it never outgrows the cache
    /// itself.
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
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        poll_stats(ctx);
        execute_cycle(ctx, stop);
        ctx.state
            .provenance
            .lock()
            .unwrap()
            .retain(|k, _| ctx.cache.contains(k));
        if !sleep_unless(stop, ctx.interval) {
            return;
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
        let Some(stat) = stats.get(&(set.id().to_string(), prov.open.rel)) else {
            continue;
        };
        candidates.push(Candidate {
            snapshot: snap.clone(),
            stat: *stat,
            rescan_cost_us: rescan_cost_us(&prov.open.delay, stat.total),
        });
        provs.push(prov);
    }
    let plan = ctx.planner.plan(&candidates);
    if plan.is_empty() {
        return;
    }
    println!(
        "{}",
        plan_line(candidates.len(), plan.len(), ctx.planner.budget_bytes)
    );
    for decision in &plan {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let cand = &candidates[decision.index];
        let prov = provs[decision.index];
        let key = &cand.snapshot.key;
        let set = &ctx.sets[prov.group];
        let version = cand.stat.version;
        let (action, bytes, applied) = match decision.action {
            RefreshAction::Confirm => ("confirm", 0, ctx.cache.confirm_version(key, version)),
            RefreshAction::Delta { from, to } => {
                let Some(tail) = fetch_range(set, prov, from, to, ctx.read_timeout) else {
                    continue;
                };
                let ok = ctx.cache.refresh_extend(key, &tail, version);
                println!(
                    "{}",
                    delta_line(prov.open.rel, from, to, tail.len() * 8, version)
                );
                ("delta", decision.bytes, ok)
            }
            RefreshAction::Full { total } => {
                let Some(keys) = fetch_range(set, prov, 0, total, ctx.read_timeout) else {
                    continue;
                };
                let ok = ctx.cache.refresh_replace(key, keys, version);
                ("full", decision.bytes, ok)
            }
            RefreshAction::Defer => ("defer", 0, ctx.cache.mark_stale(key)),
        };
        println!(
            "{}",
            apply_line(action, prov.open.rel, version, bytes, applied)
        );
    }
}

// The refresher's three log lines (stdout of `dqs serve`, one JSON object
// each).

fn plan_line(candidates: usize, decisions: usize, budget_bytes: Option<u64>) -> String {
    json::object(|o| {
        fields!(o,
            "type": "refresh_plan", "candidates": candidates, "decisions": decisions,
            "budget_bytes": budget_bytes
        )
    })
}

fn delta_line(rel: RelId, from: u64, to: u64, bytes: usize, version: u64) -> String {
    json::object(|o| {
        fields!(o,
            "type": "refresh_delta", "rel": rel.0, "from": from, "to": to, "bytes": bytes,
            "version": version
        )
    })
}

fn apply_line(action: &str, rel: RelId, version: u64, bytes: u64, applied: bool) -> String {
    json::object(|o| {
        fields!(o,
            "type": "refresh_apply", "action": action, "rel": rel.0, "version": version,
            "bytes": bytes, "applied": applied
        )
    })
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
        total: to,
        resume_from: from,
        ..prov.open.clone()
    };
    let stream = scan::dial(set.best()?, read_timeout).ok()?;
    Scan::open(stream, &open, read_timeout).ok()?.drain().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three log lines, byte for byte as the pre-writer `println!`s
    /// produced them (CI greps `"type":"refresh_delta"`).
    #[test]
    fn log_lines_match_the_golden_rendering() {
        assert_eq!(
            plan_line(4, 3, Some(65536)),
            r#"{"type":"refresh_plan","candidates":4,"decisions":3,"budget_bytes":65536}"#
        );
        assert_eq!(
            plan_line(4, 3, None),
            r#"{"type":"refresh_plan","candidates":4,"decisions":3,"budget_bytes":null}"#
        );
        assert_eq!(
            delta_line(RelId(1), 600, 664, 512, 2),
            r#"{"type":"refresh_delta","rel":1,"from":600,"to":664,"bytes":512,"version":2}"#
        );
        assert_eq!(
            apply_line("delta", RelId(1), 2, 512, true),
            r#"{"type":"refresh_apply","action":"delta","rel":1,"version":2,"bytes":512,"applied":true}"#
        );
    }
}
