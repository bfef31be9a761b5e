//! Run metrics: what every experiment reports.

use dqs_sim::{SimDuration, SimTime};

/// Everything measured during one query execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Name of the strategy that ran.
    pub strategy: &'static str,
    /// Master seed of the run.
    pub seed: u64,
    /// Query response time (the paper's Y axis).
    pub response_time: SimDuration,
    /// Result tuples produced.
    pub output_tuples: u64,
    /// Total mediator CPU busy time: modelled on the simulated clock; on
    /// the wall clock the DQP's work is measured
    /// ([`crate::Driver::cpu_service`]) and message costs stay modelled.
    pub cpu_busy: SimDuration,
    /// Total disk busy time.
    pub disk_busy: SimDuration,
    /// Pages written to / read from the local disk.
    pub pages_written: u64,
    /// Pages read back.
    pub pages_read: u64,
    /// Disk head repositionings.
    pub seeks: u64,
    /// Time the DQP spent stalled (no schedulable fragment had data).
    pub stall_time: SimDuration,
    /// Batches processed.
    pub batches: u64,
    /// Scheduling (planning) phases run.
    pub plans: u64,
    /// `EndOfQF` interruptions.
    pub end_of_qf: u64,
    /// `RateChange` interruptions.
    pub rate_changes: u64,
    /// `TimeOut` interruptions.
    pub timeouts: u64,
    /// `MemoryOverflow` interruptions.
    pub memory_overflows: u64,
    /// Chain degradations performed (MF/CF pairs created).
    pub degradations: u64,
    /// Peak query-memory reservation.
    pub memory_high_water: u64,
    /// Relations served from the mediator's result cache instead of a
    /// wrapper (zero when no cache is configured).
    pub cache_hits: u64,
    /// Relations that had to go to a wrapper (and were recorded if a
    /// cache is configured).
    pub cache_misses: u64,
    /// Payload bytes served from the result cache.
    pub cache_bytes_served: u64,
    /// Mid-scan replica failovers: a scan lost its endpoint and resumed
    /// on a peer (zero outside replica-backed runs).
    pub failovers: u64,
    /// Replica endpoints put on cooldown after a failure (each one is a
    /// retry the failover machinery absorbed).
    pub replica_retries: u64,
    /// Morsels dispatched to the worker pool (zero on the serial path;
    /// deliberately excluded from the golden fingerprint signature).
    pub morsels: u64,
    /// Always 0: the worker pool has one queue and nothing to steal from.
    /// Kept only because the benchmark's `exec.pool.steals_per_session`
    /// probe and the `Done` payload's `"steals"` key still read it; ROADMAP
    /// 1(b) removes all three together.
    pub steals: u64,
    /// SPM rate-observatory samples folded (zero outside `SpmPolicy` runs;
    /// excluded from the golden fingerprint signature like `morsels`).
    pub rate_samples: u64,
    /// SPM mid-query drain-order re-permutations (zero outside `SpmPolicy`
    /// runs; excluded from the golden fingerprint signature).
    pub permutations: u64,
    /// Driver signals the engine loop handled.
    pub events: u64,
    /// Per-query response times (query index, completion time), sorted by
    /// query. One entry for single-query plans; the §6 multi-query
    /// extension yields one per forest root.
    pub query_responses: Vec<(u32, SimDuration)>,
}

impl RunMetrics {
    /// Response time in seconds (reporting convenience).
    pub fn response_secs(&self) -> f64 {
        self.response_time.as_secs_f64()
    }

    /// Relative gain of this run over a `baseline` response time, as the
    /// paper reports it: `(base - this) / base`.
    pub fn gain_over(&self, baseline: &RunMetrics) -> f64 {
        let base = baseline.response_time.as_secs_f64();
        if base == 0.0 {
            return 0.0;
        }
        (base - self.response_time.as_secs_f64()) / base
    }
}

/// Internal time bookkeeping used by the engine while a run is in flight.
#[derive(Debug, Default)]
pub struct MetricsAcc {
    /// Mutable metrics under construction.
    pub m: RunMetrics,
    /// When the current stall began, if stalled.
    pub stall_since: Option<SimTime>,
}

impl MetricsAcc {
    /// Mark the DQP idle from `now` (idempotent).
    pub fn stall_begin(&mut self, now: SimTime) {
        self.stall_since.get_or_insert(now);
    }

    /// Mark the DQP busy again at `now`, accumulating the stall.
    pub fn stall_end(&mut self, now: SimTime) {
        if let Some(since) = self.stall_since.take() {
            self.m.stall_time += now.saturating_since(since);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_over_matches_paper_formula() {
        let base = RunMetrics {
            response_time: SimDuration::from_secs(10),
            ..Default::default()
        };
        let fast = RunMetrics {
            response_time: SimDuration::from_secs(6),
            ..Default::default()
        };
        assert!((fast.gain_over(&base) - 0.4).abs() < 1e-12);
        assert_eq!(base.gain_over(&fast), -(2.0 / 3.0));
    }

    #[test]
    fn stall_accounting_accumulates() {
        let mut acc = MetricsAcc::default();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        acc.stall_begin(t(1));
        acc.stall_begin(t(2)); // idempotent: still counts from t=1
        acc.stall_end(t(3));
        acc.stall_end(t(4)); // no-op: not stalled
        acc.stall_begin(t(5));
        acc.stall_end(t(6));
        assert_eq!(acc.m.stall_time, SimDuration::from_secs(3));
    }
}
