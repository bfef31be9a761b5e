//! The sans-io health table: per-endpoint delivery rate and liveness.
//!
//! One [`HealthTable`] tracks the N interchangeable endpoints of a single
//! logical wrapper. Callers feed it observations — batches delivered,
//! connection failures, successful probes — with explicit timestamps
//! (nanoseconds on any monotonic origin), and ask it which endpoint a new
//! or failed-over scan should open on. The table never touches a clock or
//! a socket, so every policy decision is unit-testable.
//!
//! States per endpoint:
//!
//! * **Live** — selectable. Fresh endpoints start here.
//! * **Degraded (until T)** — `fail_threshold` consecutive failures put an
//!   endpoint on cooldown; it is not selectable until its cooldown
//!   expires, after which the next selection may probe it again
//!   (half-open revival). Any delivered batch or successful probe returns
//!   it to Live immediately.
//!
//! Selection is rate-aware: endpoints never opened are explored first (so
//! every replica gets measured), then the highest EWMA delivery rate among
//! the eligible wins. A group of one has nobody to divert to, so its
//! endpoint is always selectable, cooldown or not.

use std::time::Duration;

/// Tuning for rate estimation and failure handling.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// EWMA smoothing factor for delivery-rate samples (0..=1; higher
    /// weighs recent batches more).
    pub alpha: f64,
    /// Consecutive failures that degrade an endpoint.
    pub fail_threshold: u32,
    /// How long a degraded endpoint stays unselectable.
    pub cooldown: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            alpha: 0.3,
            fail_threshold: 1,
            cooldown: Duration::from_secs(2),
        }
    }
}

/// An endpoint's selectability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointState {
    /// Selectable.
    Live,
    /// On cooldown after consecutive failures; eligible again once
    /// `until_nanos` passes.
    Degraded {
        /// When the cooldown expires (same origin as the caller's clock).
        until_nanos: u64,
    },
}

#[derive(Debug, Clone)]
struct Endpoint {
    addr: String,
    state: EndpointState,
    consecutive_failures: u32,
    /// EWMA tuples/second; `None` until the first batch sample.
    rate: Option<f64>,
    opens: u64,
    failures_total: u64,
}

/// A point-in-time view of one endpoint, for observability and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSnapshot {
    /// The endpoint address as configured.
    pub addr: String,
    /// Current selectability.
    pub state: EndpointState,
    /// EWMA delivery rate in tuples/second, if measured.
    pub rate: Option<f64>,
    /// Scans opened on this endpoint.
    pub opens: u64,
    /// Failures recorded against it over its lifetime.
    pub failures_total: u64,
}

/// Health and rate state for the replicas of one logical wrapper.
#[derive(Debug)]
pub struct HealthTable {
    cfg: HealthConfig,
    endpoints: Vec<Endpoint>,
}

impl HealthTable {
    /// A table over `addrs`, all starting Live and unmeasured.
    ///
    /// # Panics
    /// Panics when `addrs` is empty — a wrapper with zero endpoints is a
    /// configuration error, not a runtime state.
    pub fn new(addrs: Vec<String>, cfg: HealthConfig) -> HealthTable {
        assert!(!addrs.is_empty(), "a replica group needs >= 1 endpoint");
        HealthTable {
            cfg,
            endpoints: addrs
                .into_iter()
                .map(|addr| Endpoint {
                    addr,
                    state: EndpointState::Live,
                    consecutive_failures: 0,
                    rate: None,
                    opens: 0,
                    failures_total: 0,
                })
                .collect(),
        }
    }

    /// Number of endpoints in the group.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Always false (construction requires at least one endpoint).
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The configured address of endpoint `idx`.
    pub fn addr(&self, idx: usize) -> &str {
        &self.endpoints[idx].addr
    }

    fn eligible(&self, idx: usize, now_nanos: u64) -> bool {
        // Cooldown diverts traffic to a peer; a lone endpoint has none, so
        // it stays selectable and the next scan finds out for itself.
        self.endpoints.len() == 1
            || match self.endpoints[idx].state {
                EndpointState::Live => true,
                EndpointState::Degraded { until_nanos } => now_nanos >= until_nanos,
            }
    }

    /// Pick the endpoint a new scan should open on, or `None` when every
    /// endpoint is on an unexpired cooldown.
    ///
    /// Unopened endpoints win first (lowest index among them), so each
    /// replica gets rate-measured before exploitation starts; after that
    /// the highest EWMA rate among eligible endpoints wins, with an
    /// opened-but-unmeasured endpoint treated as optimistically fast.
    pub fn select(&self, now_nanos: u64) -> Option<usize> {
        let candidates = (0..self.endpoints.len()).filter(|&i| self.eligible(i, now_nanos));
        let mut best: Option<usize> = None;
        for i in candidates {
            let better = match best {
                None => true,
                Some(b) => {
                    let (ei, eb) = (&self.endpoints[i], &self.endpoints[b]);
                    match (ei.opens == 0, eb.opens == 0) {
                        (true, false) => true,
                        (false, true) => false,
                        // Both unexplored: keep the lower index (stable
                        // exploration order).
                        (true, true) => false,
                        (false, false) => {
                            ei.rate.unwrap_or(f64::INFINITY) > eb.rate.unwrap_or(f64::INFINITY)
                        }
                    }
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// A scan opened on endpoint `idx`.
    pub fn record_open(&mut self, idx: usize) {
        self.endpoints[idx].opens += 1;
    }

    /// Fold a delivered batch into `idx`'s EWMA rate (`tuples` over
    /// `elapsed_nanos` since the previous batch on the same connection).
    /// Data arriving is also proof of life: failures reset, state Live.
    pub fn record_batch(&mut self, idx: usize, tuples: u64, elapsed_nanos: u64) {
        let ep = &mut self.endpoints[idx];
        ep.consecutive_failures = 0;
        ep.state = EndpointState::Live;
        if elapsed_nanos == 0 {
            return;
        }
        let sample = tuples as f64 / (elapsed_nanos as f64 / 1e9);
        ep.rate = Some(match ep.rate {
            Some(prev) => self.cfg.alpha * sample + (1.0 - self.cfg.alpha) * prev,
            None => sample,
        });
    }

    /// Record a failed connect/read against `idx`. Returns true when this
    /// failure (re)armed the endpoint's cooldown — the caller's cue to
    /// announce a degradation exactly once per incident.
    pub fn record_failure(&mut self, idx: usize, now_nanos: u64) -> bool {
        let was_eligible = self.eligible(idx, now_nanos);
        let ep = &mut self.endpoints[idx];
        ep.consecutive_failures += 1;
        ep.failures_total += 1;
        if ep.consecutive_failures < self.cfg.fail_threshold {
            return false;
        }
        ep.state = EndpointState::Degraded {
            until_nanos: now_nanos.saturating_add(self.cfg.cooldown.as_nanos() as u64),
        };
        was_eligible
    }

    /// A successful liveness probe: revive `idx` (rate history kept).
    pub fn mark_live(&mut self, idx: usize) {
        let ep = &mut self.endpoints[idx];
        ep.consecutive_failures = 0;
        ep.state = EndpointState::Live;
    }

    /// Point-in-time view of every endpoint.
    pub fn snapshot(&self) -> Vec<EndpointSnapshot> {
        self.endpoints
            .iter()
            .map(|e| EndpointSnapshot {
                addr: e.addr.clone(),
                state: e.state,
                rate: e.rate,
                opens: e.opens,
                failures_total: e.failures_total,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> HealthTable {
        HealthTable::new(
            (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect(),
            HealthConfig::default(),
        )
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    #[should_panic(expected = "replica group needs")]
    fn empty_group_is_a_configuration_error() {
        HealthTable::new(Vec::new(), HealthConfig::default());
    }

    #[test]
    fn unexplored_endpoints_are_selected_first_in_order() {
        let mut t = table(3);
        assert_eq!(t.select(0), Some(0));
        t.record_open(0);
        assert_eq!(t.select(0), Some(1), "explore before exploiting");
        t.record_open(1);
        assert_eq!(t.select(0), Some(2));
    }

    #[test]
    fn selection_prefers_the_higher_measured_rate() {
        let mut t = table(2);
        t.record_open(0);
        t.record_open(1);
        // Endpoint 0: 100 tuples/s. Endpoint 1: 10_000 tuples/s.
        t.record_batch(0, 100, SEC);
        t.record_batch(1, 10_000, SEC);
        assert_eq!(t.select(0), Some(1));
        // Rates can cross: flood endpoint 0 with fast samples.
        for _ in 0..50 {
            t.record_batch(0, 100_000, SEC);
        }
        assert_eq!(t.select(0), Some(0));
    }

    #[test]
    fn ewma_folds_toward_recent_samples() {
        let mut t = table(1);
        t.record_batch(0, 1000, SEC);
        let first = t.snapshot()[0].rate.unwrap();
        assert!((first - 1000.0).abs() < 1e-9, "first sample taken whole");
        t.record_batch(0, 2000, SEC);
        let second = t.snapshot()[0].rate.unwrap();
        assert!(
            second > first && second < 2000.0,
            "EWMA moves toward the new sample without jumping: {second}"
        );
    }

    #[test]
    fn zero_elapsed_batches_never_divide_by_zero() {
        let mut t = table(1);
        t.record_batch(0, 50, 0);
        assert_eq!(t.snapshot()[0].rate, None, "no sample from zero elapsed");
    }

    #[test]
    fn failure_threshold_degrades_and_cooldown_revives() {
        let mut t = table(2);
        assert!(t.record_failure(0, 10 * SEC), "first incident announces");
        match t.snapshot()[0].state {
            EndpointState::Degraded { until_nanos } => assert_eq!(until_nanos, 12 * SEC),
            s => panic!("expected degraded, got {s:?}"),
        }
        // While degraded: unselectable, and further failures are quiet.
        assert_eq!(t.select(10 * SEC), Some(1));
        assert!(!t.record_failure(0, 10 * SEC + 1), "still on cooldown");
        // After the (re-armed) cooldown it becomes eligible again.
        let until = match t.snapshot()[0].state {
            EndpointState::Degraded { until_nanos } => until_nanos,
            s => panic!("expected degraded, got {s:?}"),
        };
        t.record_open(1); // endpoint 1 explored; 0 still unexplored
        assert_eq!(
            t.select(until),
            Some(0),
            "cooldown expiry makes it selectable (half-open probe)"
        );
        // And a re-failure after expiry announces again.
        assert!(t.record_failure(0, until));
    }

    #[test]
    fn all_degraded_selects_nothing() {
        let mut t = table(2);
        t.record_failure(0, 0);
        t.record_failure(1, 0);
        assert_eq!(t.select(SEC), None);
        assert!(t.select(3 * SEC).is_some(), "cooldowns expire");
    }

    #[test]
    fn a_lone_endpoint_stays_selectable_through_its_cooldown() {
        let mut t = table(1);
        t.record_failure(0, 0);
        assert!(matches!(
            t.snapshot()[0].state,
            EndpointState::Degraded { .. }
        ));
        assert_eq!(t.select(1), Some(0), "no peer to divert the scan to");
    }

    #[test]
    fn delivery_and_probes_revive_a_degraded_endpoint() {
        let mut t = table(1);
        t.record_failure(0, 0);
        t.record_batch(0, 10, SEC);
        assert_eq!(t.snapshot()[0].state, EndpointState::Live);
        t.record_failure(0, 0);
        t.mark_live(0);
        assert_eq!(t.snapshot()[0].state, EndpointState::Live);
        assert_eq!(t.snapshot()[0].failures_total, 2, "history survives");
    }

    #[test]
    fn higher_threshold_needs_consecutive_failures() {
        let mut t = HealthTable::new(
            vec!["a".into(), "b".into()],
            HealthConfig {
                fail_threshold: 3,
                ..HealthConfig::default()
            },
        );
        assert!(!t.record_failure(0, 0));
        assert!(!t.record_failure(0, 0));
        t.record_batch(0, 1, 1); // success resets the streak
        assert!(!t.record_failure(0, 0));
        assert!(!t.record_failure(0, 0));
        assert!(t.record_failure(0, 0), "third consecutive degrades");
    }
}
