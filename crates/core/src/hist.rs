//! Shared latency statistics: exact percentiles over sorted samples and a
//! log-bucketed histogram for cumulative, long-lived distributions.
//!
//! Three consumers previously carried private copies of this arithmetic —
//! the C10K load generator's `percentile`, the bench experiments' `median`
//! and now the workload replay harness — so the definitions live here
//! once. The exact helpers operate on full sample vectors (right for a
//! bench run that holds every latency in memory); [`LatencyHistogram`]
//! trades exactness for O(1) memory and O(1) record, which is what a
//! serving mediator needs to track queue-wait over millions of sessions.

use dqs_exec::json::{self, arr, fields, fixed};

/// Exact percentile on an ascending-sorted slice: the smallest sample at
/// or above quantile `q` of the distribution (nearest-rank). Empty input
/// yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact median; sorts `xs` in place. Panics on an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Number of power-of-two buckets. Bucket `i` holds samples in
/// `[2^i, 2^(i+1))` µs (bucket 0 additionally holds 0), so 40 buckets
/// cover up to ~2^40 µs ≈ 12.7 days — more than any session waits.
const BUCKETS: usize = 40;

/// A log-bucketed latency histogram over microsecond samples.
///
/// Buckets are powers of two, so `record` is a branch-free bit scan and
/// the whole structure is a few hundred bytes regardless of how many
/// samples it absorbs. Percentiles are read back as the *upper bound* of
/// the bucket containing the requested rank — an overestimate by at most
/// 2x, which is the usual contract for log-bucketed histograms
/// (HdrHistogram-style observability, not bench-grade exactness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Bucket index for a sample: `floor(log2(us))`, clamped to the table.
    fn bucket(us: u64) -> usize {
        ((63 - us.max(1).leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Absorb one sample, in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.buckets[Self::bucket(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Largest sample recorded, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Upper bound of the bucket holding quantile `q` (nearest-rank), in
    /// microseconds; 0 when empty. The true sample lies within a factor
    /// of two below the returned value (and never above `max_us`).
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (2u64 << i).min(self.max_us.max(1));
            }
        }
        self.max_us
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The non-empty buckets as `(upper_bound_us, count)` pairs — the
    /// export shape for metrics sinks.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (2u64 << i, n))
            .collect()
    }

    /// Compact JSON rendering: cumulative stats plus the sparse buckets.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            fields!(o,
                "count": self.count, "mean_us": fixed(self.mean_us(), 1), "max_us": self.max_us,
                "p50_us": self.percentile_us(0.50), "p99_us": self.percentile_us(0.99),
                "buckets": arr(self.nonzero_buckets())
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The document, byte for byte as the pre-writer `format!` produced it.
    #[test]
    fn to_json_matches_the_golden_rendering() {
        let mut h = LatencyHistogram::default();
        for us in [1u64, 3, 3, 900, 1_000, 70_000, 5_000_000] {
            h.record_us(us);
        }
        assert_eq!(
            h.to_json(),
            r#"{"count":7,"mean_us":724558.1,"max_us":5000000,"p50_us":1024,"p99_us":5000000,"buckets":[[2,1],[4,2],[1024,2],[131072,1],[8388608,1]]}"#
        );
        assert_eq!(
            LatencyHistogram::default().to_json(),
            r#"{"count":0,"mean_us":0.0,"max_us":0,"p50_us":0,"p99_us":0,"buckets":[]}"#
        );
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let ms: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&ms, 0.50), 500.0);
        assert_eq!(percentile(&ms, 0.99), 990.0);
        assert_eq!(percentile(&ms, 0.999), 999.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn median_is_the_middle_sample() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&mut [9.0]), 9.0);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = LatencyHistogram::new();
        for us in [0, 1, 2, 3, 4, 1000, 1024, u64::MAX] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_us(), u64::MAX);
        // 0 and 1 share bucket 0; 2 and 3 bucket 1; 4 bucket 2; 1000
        // bucket 9; 1024 bucket 10; MAX clamps into the last bucket.
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets[0], (2, 2));
        assert_eq!(buckets[1], (4, 2));
        assert_eq!(buckets[2], (8, 1));
    }

    #[test]
    fn histogram_percentile_bounds_the_true_value() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record_us(us);
        }
        let p50 = h.percentile_us(0.50);
        assert!((5_000..=10_000).contains(&p50), "p50 {p50}");
        let p99 = h.percentile_us(0.99);
        assert!((9_900..=16_384).contains(&p99), "p99 {p99}");
        assert!(h.percentile_us(1.0) >= p99);
        assert_eq!(LatencyHistogram::new().percentile_us(0.99), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for us in [10, 20, 30] {
            a.record_us(us);
        }
        for us in [40_000, 50_000] {
            b.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max_us(), 50_000);
        let mut whole = LatencyHistogram::new();
        for us in [10, 20, 30, 40_000, 50_000] {
            whole.record_us(us);
        }
        assert_eq!(a, whole);
    }

    #[test]
    fn histogram_json_is_parseable() {
        let mut h = LatencyHistogram::new();
        h.record_us(123);
        h.record_us(456_789);
        let v = dqs_exec::json::parse(&h.to_json()).expect("valid JSON");
        let get = |k: &str| v.get(k);
        assert_eq!(get("count").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(get("max_us").and_then(|v| v.as_u64()), Some(456_789));
    }
}
