//! # dqs-refresh — the sans-io freshness core
//!
//! The mediator's result cache (see `dqs-cache`) keeps completed wrapper
//! scans warm, but "warm" drifts from "true" the moment a wrapper takes
//! a write. This crate decides — with no sockets, no clocks, no threads —
//! what a background refresher should do about it each cycle:
//!
//! 1. **Classify** ([`classify`]): given the version and length a cached
//!    entry was captured at and the wrapper's current stat (mirrored from
//!    `dqs_source::net::RelStat` by [`classify`]'s caller), is the entry
//!    current, merely
//!    behind on its version counter, extendable by an insert-only tail
//!    delta (`resume_from = cached_len` on the wire), or invalidated by
//!    a rewrite that only a full re-scan can repair?
//! 2. **Rank** ([`RefreshPlanner::plan`]): order stale entries by
//!    staleness-benefit — observed hit rate × age × estimated re-scan
//!    cost (`DelayModel::expected_total`, one wrapper's retrieval term of
//!    the §5.1.2 lower bound) — so the refresh budget goes to the entries
//!    whose staleness hurts most.
//! 3. **Budget**: spend a per-cycle payload-byte allowance
//!    (`--refresh-budget-kbps × --refresh-interval-ms`) strictly in rank
//!    order; entries the budget cannot cover are deferred, which the
//!    mediator surfaces by marking them stale so hits on them count as
//!    `stale_served`.
//!
//! The mediator's refresher thread (in `dqs-mediator`) supplies cache
//! snapshots, wrapper stats and scan provenance, executes the plan over
//! real sockets, and emits the `refresh_plan` / `refresh_apply` /
//! `refresh_delta` trace lines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Duration;

use dqs_cache::EntrySnapshot;
use dqs_source::net::RelStat;
use dqs_source::{DelayModel, RemoteOpen};

/// Everything the mediator must remember about a cold scan to re-open it
/// later without a session: which replica group serves it, and the scan
/// as the session issued it. A refresh *is* that scan re-issued over
/// another range, so it reproduces the stream bit-identically — and pays
/// the modelled delay, which is exactly why deltas beat full re-scans.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanProvenance {
    /// Index of the replica group (logical wrapper) in the mediator's
    /// configured set.
    pub group: usize,
    /// The scan the session opened.
    pub open: RemoteOpen,
}

/// What [`classify`] concluded about one cached entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Versions match: the entry is current, nothing to do.
    Current,
    /// The content is provably identical (insert-only history, equal
    /// totals) but the entry's version counter is behind; bump it
    /// without moving data.
    Confirm,
    /// Insert-only growth: fetch `[from, to)` and append it.
    Delta {
        /// First index to fetch (`= cached_len`).
        from: u64,
        /// One past the last index (`= stat.total`).
        to: u64,
    },
    /// The prefix is suspect (rewrite, or a shrink): re-fetch everything.
    Full {
        /// The wrapper's current total.
        total: u64,
    },
}

/// Decide how a cached entry captured at `(version, len)` relates to the
/// wrapper's reported `stat`.
///
/// The insert-only fast path requires both that no rewrite happened
/// since capture (`stat.rewrite_version <= version`) and that the data
/// did not shrink; anything else conservatively costs a full re-scan.
pub fn classify(version: u64, len: u64, stat: &RelStat) -> Freshness {
    if stat.version == version {
        Freshness::Current
    } else if stat.rewrite_version <= version && stat.total >= len {
        if stat.total == len {
            Freshness::Confirm
        } else {
            Freshness::Delta {
                from: len,
                to: stat.total,
            }
        }
    } else {
        Freshness::Full { total: stat.total }
    }
}

/// One cached entry joined with the wrapper state the refresher observed
/// for it — the planner's unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The cache's view of the entry.
    pub snapshot: EntrySnapshot,
    /// The wrapper's current change-tracking state for its relation.
    pub stat: RelStat,
    /// Estimated cost of a full cold re-scan, in microseconds — the work
    /// keeping this entry warm saves (`DelayModel::expected_total`).
    pub rescan_cost_us: f64,
}

/// Estimated cost, in microseconds, of re-scanning `total` tuples under
/// `delay` — one wrapper's retrieval term of the §5.1.2 lower bound.
pub fn rescan_cost_us(delay: &DelayModel, total: u64) -> f64 {
    delay.expected_total(total).as_micros_f64()
}

/// What the planner decided for one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshAction {
    /// Bump the entry's version; no wrapper traffic.
    Confirm,
    /// Fetch `[from, to)` at `resume_from = from` and append it.
    Delta {
        /// First index to fetch.
        from: u64,
        /// One past the last index.
        to: u64,
    },
    /// Fetch `[0, total)` and replace the payload.
    Full {
        /// The wrapper's current total.
        total: u64,
    },
    /// Stale, but this cycle's budget could not cover it: mark it so
    /// hits count as `stale_served` until a later cycle affords it.
    Defer,
}

/// One planned refresh, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshDecision {
    /// Index into the candidate slice handed to [`RefreshPlanner::plan`].
    pub index: usize,
    /// What to do.
    pub action: RefreshAction,
    /// The staleness-benefit score that ranked it.
    pub benefit: f64,
    /// Payload bytes the action will fetch (0 for confirm/defer).
    pub bytes: u64,
}

/// The budgeted, benefit-ranked refresh scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshPlanner {
    /// Payload bytes spendable per cycle; `None` = unlimited.
    pub budget_bytes: Option<u64>,
}

impl RefreshPlanner {
    /// A planner spending at most `kbps` KiB/s of refresh traffic,
    /// amortized over cycles of `interval`. `kbps == 0` means unlimited.
    pub fn from_rate(kbps: u64, interval: Duration) -> RefreshPlanner {
        RefreshPlanner {
            budget_bytes: (kbps > 0).then(|| kbps * 1024 * interval.as_millis() as u64 / 1000),
        }
    }

    /// The staleness-benefit of refreshing `c`: observed hit rate × age ×
    /// estimated re-scan cost. The `+1` floors keep a never-hit or
    /// just-captured entry rankable instead of zeroed out.
    pub fn benefit(c: &Candidate) -> f64 {
        (c.snapshot.hits + 1) as f64 * (c.snapshot.age_ms + 1) as f64 * c.rescan_cost_us.max(1.0)
    }

    /// Plan one refresh cycle: classify every candidate, rank the stale
    /// ones by [`RefreshPlanner::benefit`], and spend the byte budget
    /// strictly in rank order. Returns decisions in execution order —
    /// free confirmations first, then funded refreshes by descending
    /// benefit, then deferrals. Entries already current yield no
    /// decision at all.
    pub fn plan(&self, candidates: &[Candidate]) -> Vec<RefreshDecision> {
        let mut confirms = Vec::new();
        let mut costed: Vec<RefreshDecision> = Vec::new();
        for (index, c) in candidates.iter().enumerate() {
            let benefit = Self::benefit(c);
            match classify(c.snapshot.version, c.snapshot.len, &c.stat) {
                Freshness::Current => {}
                Freshness::Confirm => confirms.push(RefreshDecision {
                    index,
                    action: RefreshAction::Confirm,
                    benefit,
                    bytes: 0,
                }),
                Freshness::Delta { from, to } => costed.push(RefreshDecision {
                    index,
                    action: RefreshAction::Delta { from, to },
                    benefit,
                    bytes: (to - from) * 8,
                }),
                Freshness::Full { total } => costed.push(RefreshDecision {
                    index,
                    action: RefreshAction::Full { total },
                    benefit,
                    bytes: total * 8,
                }),
            }
        }
        costed.sort_by(|a, b| {
            b.benefit
                .partial_cmp(&a.benefit)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index))
        });
        let mut remaining = self.budget_bytes;
        for d in &mut costed {
            match remaining {
                None => {}
                Some(left) if d.bytes <= left => remaining = Some(left - d.bytes),
                Some(_) => {
                    d.action = RefreshAction::Defer;
                    d.bytes = 0;
                }
            }
        }
        confirms.extend(costed);
        confirms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqs_cache::CacheKey;
    use dqs_relop::RelId;
    use dqs_sim::SimDuration;

    fn stat(version: u64, total: u64, rewrite_version: u64) -> RelStat {
        RelStat {
            rel: RelId(1),
            version,
            total,
            rewrite_version,
        }
    }

    fn candidate(version: u64, len: u64, hits: u64, age_ms: u64, s: RelStat) -> Candidate {
        Candidate {
            snapshot: EntrySnapshot {
                key: CacheKey::for_scan("w0", s.rel, len, 42, "wrapper:t"),
                len,
                version,
                hits,
                age_ms,
                stale: false,
            },
            stat: s,
            rescan_cost_us: rescan_cost_us(
                &DelayModel::Uniform {
                    mean: SimDuration::from_micros(20),
                },
                s.total,
            ),
        }
    }

    #[test]
    fn classification_matrix() {
        // Same version: current, regardless of the rest.
        assert_eq!(classify(3, 100, &stat(3, 100, 2)), Freshness::Current);
        // Insert-only growth: tail delta.
        assert_eq!(
            classify(3, 100, &stat(5, 140, 0)),
            Freshness::Delta { from: 100, to: 140 }
        );
        // Version advanced, total unchanged, no rewrite: confirm only.
        assert_eq!(classify(0, 100, &stat(2, 100, 0)), Freshness::Confirm);
        // Rewrite after capture: full re-scan even if the total grew.
        assert_eq!(
            classify(3, 100, &stat(6, 140, 5)),
            Freshness::Full { total: 140 }
        );
        // Rewrite before capture does not poison later deltas.
        assert_eq!(
            classify(7, 100, &stat(9, 120, 4)),
            Freshness::Delta { from: 100, to: 120 }
        );
        // Shrink without a rewrite mark: conservatively full.
        assert_eq!(
            classify(3, 100, &stat(4, 60, 0)),
            Freshness::Full { total: 60 }
        );
        // A pre-versioning entry (version 0) against an insert-only
        // history extends cleanly.
        assert_eq!(
            classify(0, 100, &stat(4, 130, 0)),
            Freshness::Delta { from: 100, to: 130 }
        );
    }

    #[test]
    fn rescan_cost_uses_expected_total() {
        let d = DelayModel::Uniform {
            mean: SimDuration::from_micros(20),
        };
        assert_eq!(rescan_cost_us(&d, 1000), 20_000.0);
    }

    #[test]
    fn plan_ranks_by_benefit_and_spends_in_order() {
        // Three stale entries; the hot old one must outrank the rest.
        let cands = vec![
            candidate(1, 100, 0, 10, stat(2, 150, 0)),
            candidate(1, 100, 50, 5_000, stat(2, 150, 0)),
            candidate(1, 100, 5, 1_000, stat(2, 150, 0)),
        ];
        let plan = RefreshPlanner { budget_bytes: None }.plan(&cands);
        let order: Vec<usize> = plan.iter().map(|d| d.index).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert!(plan
            .iter()
            .all(|d| d.action == RefreshAction::Delta { from: 100, to: 150 }));
        assert!(plan.iter().all(|d| d.bytes == 400));
    }

    #[test]
    fn budget_defers_strictly_after_rank_exhaustion() {
        let cands = vec![
            candidate(1, 100, 0, 10, stat(2, 150, 0)),
            candidate(1, 100, 50, 5_000, stat(2, 150, 0)),
        ];
        // One delta costs 400 payload bytes; budget affords exactly one.
        let plan = RefreshPlanner {
            budget_bytes: Some(500),
        }
        .plan(&cands);
        assert_eq!(plan[0].index, 1, "highest benefit funded first");
        assert!(matches!(plan[0].action, RefreshAction::Delta { .. }));
        assert_eq!(plan[1].action, RefreshAction::Defer);
        assert_eq!(plan[1].bytes, 0);
    }

    #[test]
    fn zero_budget_defers_everything_costed_but_confirms_ride_free() {
        let cands = vec![
            candidate(1, 100, 0, 10, stat(2, 150, 0)),
            candidate(1, 100, 0, 10, stat(3, 100, 0)),
            candidate(4, 100, 0, 10, stat(4, 100, 0)),
        ];
        let plan = RefreshPlanner {
            budget_bytes: Some(0),
        }
        .plan(&cands);
        assert_eq!(plan.len(), 2, "the current entry yields no decision");
        assert_eq!(
            (plan[0].index, plan[0].action),
            (1, RefreshAction::Confirm),
            "confirmations cost nothing and come first"
        );
        assert_eq!((plan[1].index, plan[1].action), (0, RefreshAction::Defer));
    }

    #[test]
    fn rewrites_plan_full_rescans() {
        let cands = vec![candidate(2, 100, 1, 10, stat(5, 120, 4))];
        let plan = RefreshPlanner { budget_bytes: None }.plan(&cands);
        assert_eq!(plan[0].action, RefreshAction::Full { total: 120 });
        assert_eq!(plan[0].bytes, 960);
    }

    #[test]
    fn from_rate_arithmetic() {
        // 64 KiB/s over 500 ms cycles = 32 KiB per cycle.
        let p = RefreshPlanner::from_rate(64, Duration::from_millis(500));
        assert_eq!(p.budget_bytes, Some(32 * 1024));
        assert_eq!(
            RefreshPlanner::from_rate(0, Duration::from_millis(500)).budget_bytes,
            None,
            "0 kbps = unlimited"
        );
    }
}
