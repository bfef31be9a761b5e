//! Shared, clocked handles over the sans-io health table, plus the
//! `--wrappers` replica-group grammar.

use std::sync::Mutex;
use std::time::Instant;

use crate::health::{EndpointSnapshot, HealthConfig, HealthTable};

/// A parsed replica group: one logical wrapper id and its endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaGroup {
    /// Logical wrapper id (used in cache keys and trace lines).
    pub id: String,
    /// Interchangeable endpoints serving this wrapper, in declared order.
    pub endpoints: Vec<String>,
}

/// Parse `serve --wrappers` group specs into replica groups.
///
/// Each spec is a `;`-separated list of chunks:
///
/// * `id=host:port,host:port` — one named group with N endpoints;
/// * `host:port,host:port` (no `=`) — back-compat: each comma-separated
///   address becomes its own single-endpoint group named after itself, so
///   the pre-replica `--wrappers a:1,b:2` spelling keeps meaning "two
///   distinct wrappers".
///
/// Rejects empty ids, empty endpoint lists, and duplicate group ids.
pub fn parse_groups(specs: &[String]) -> Result<Vec<ReplicaGroup>, String> {
    let mut groups: Vec<ReplicaGroup> = Vec::new();
    let mut push = |group: ReplicaGroup| -> Result<(), String> {
        if groups.iter().any(|g| g.id == group.id) {
            return Err(format!("duplicate wrapper group id '{}'", group.id));
        }
        groups.push(group);
        Ok(())
    };
    for spec in specs {
        for chunk in spec.split(';') {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                continue;
            }
            match chunk.split_once('=') {
                Some((id, addrs)) => {
                    let id = id.trim();
                    if id.is_empty() {
                        return Err(format!("empty group id in wrapper spec '{chunk}'"));
                    }
                    let endpoints: Vec<String> = addrs
                        .split(',')
                        .map(|a| a.trim().to_string())
                        .filter(|a| !a.is_empty())
                        .collect();
                    if endpoints.is_empty() {
                        return Err(format!("wrapper group '{id}' has no endpoints"));
                    }
                    push(ReplicaGroup {
                        id: id.to_string(),
                        endpoints,
                    })?;
                }
                None => {
                    for addr in chunk.split(',') {
                        let addr = addr.trim();
                        if addr.is_empty() {
                            continue;
                        }
                        push(ReplicaGroup {
                            id: addr.to_string(),
                            endpoints: vec![addr.to_string()],
                        })?;
                    }
                }
            }
        }
    }
    if groups.is_empty() {
        return Err("no wrapper endpoints configured".to_string());
    }
    Ok(groups)
}

/// A thread-safe [`HealthTable`] with a wall-clock origin: the handle
/// concurrent sessions and the background prober share for one logical
/// wrapper.
#[derive(Debug)]
pub struct ReplicaSet {
    id: String,
    origin: Instant,
    table: Mutex<HealthTable>,
}

impl ReplicaSet {
    /// A set over `group` with the given health tuning.
    pub fn new(group: ReplicaGroup, cfg: HealthConfig) -> ReplicaSet {
        ReplicaSet {
            id: group.id,
            origin: Instant::now(),
            table: Mutex::new(HealthTable::new(group.endpoints, cfg)),
        }
    }

    /// The logical wrapper id this set serves.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of endpoints in the set.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Always false (groups require at least one endpoint).
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthTable> {
        // A poisoned table means a panic mid-update; the data is plain
        // counters, still safe to read, so keep serving.
        self.table.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Select the best live endpoint for a scan and record the open on
    /// it. `None` when every endpoint is on an unexpired cooldown.
    pub fn select(&self) -> Option<(usize, String)> {
        let now = self.now_nanos();
        let mut t = self.lock();
        let idx = t.select(now)?;
        t.record_open(idx);
        Some((idx, t.addr(idx).to_string()))
    }

    /// The best live endpoint's address, for control-plane traffic (stat
    /// polls, refresh fetches): nothing is recorded, so it neither counts
    /// as a scan open nor uses up an endpoint's exploration turn.
    pub fn best(&self) -> Option<String> {
        let t = self.lock();
        let idx = t.select(self.now_nanos())?;
        Some(t.addr(idx).to_string())
    }

    /// The configured address of endpoint `idx`.
    pub fn addr(&self, idx: usize) -> String {
        self.lock().addr(idx).to_string()
    }

    /// Fold a delivered batch into `idx`'s rate (proof of life too).
    pub fn record_batch(&self, idx: usize, tuples: u64, elapsed_nanos: u64) {
        self.lock().record_batch(idx, tuples, elapsed_nanos);
    }

    /// Record a failure against `idx`; true when it newly degraded.
    pub fn record_failure(&self, idx: usize) -> bool {
        let now = self.now_nanos();
        self.lock().record_failure(idx, now)
    }

    /// A successful liveness probe against `idx`.
    pub fn mark_live(&self, idx: usize) {
        self.lock().mark_live(idx);
    }

    /// Point-in-time view of every endpoint.
    pub fn snapshot(&self) -> Vec<EndpointSnapshot> {
        self.lock().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn named_group_with_replicas() {
        let g = parse_groups(&specs(&["w0=127.0.0.1:7400,127.0.0.1:7401"])).unwrap();
        assert_eq!(
            g,
            vec![ReplicaGroup {
                id: "w0".into(),
                endpoints: vec!["127.0.0.1:7400".into(), "127.0.0.1:7401".into()],
            }]
        );
    }

    #[test]
    fn bare_addresses_stay_distinct_wrappers() {
        let g = parse_groups(&specs(&["127.0.0.1:7400,127.0.0.1:7401"])).unwrap();
        assert_eq!(g.len(), 2, "back-compat: comma list = separate wrappers");
        assert_eq!(g[0].id, "127.0.0.1:7400");
        assert_eq!(g[0].endpoints, vec!["127.0.0.1:7400".to_string()]);
        assert_eq!(g[1].id, "127.0.0.1:7401");
    }

    #[test]
    fn semicolons_separate_groups_and_mix_with_bare() {
        let g = parse_groups(&specs(&["a=h:1,h:2; b=h:3", "h:4"])).unwrap();
        let ids: Vec<&str> = g.iter().map(|g| g.id.as_str()).collect();
        assert_eq!(ids, vec!["a", "b", "h:4"]);
        assert_eq!(g[0].endpoints.len(), 2);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(parse_groups(&specs(&[""])).is_err(), "no endpoints at all");
        assert!(parse_groups(&specs(&["=h:1"])).is_err(), "empty id");
        assert!(parse_groups(&specs(&["a="])).is_err(), "no endpoints");
        assert!(parse_groups(&specs(&["a=h:1;a=h:2"])).is_err(), "dup id");
        assert!(parse_groups(&specs(&["h:1,h:1"])).is_err(), "dup bare id");
    }

    #[test]
    fn set_selects_and_records_under_shared_access() {
        let set = ReplicaSet::new(
            ReplicaGroup {
                id: "w".into(),
                endpoints: vec!["a".into(), "b".into()],
            },
            HealthConfig::default(),
        );
        let (i0, a0) = set.select().expect("live endpoint");
        assert_eq!((i0, a0.as_str()), (0, "a"), "explore in order");
        let (i1, _) = set.select().expect("live endpoint");
        assert_eq!(i1, 1);
        // Degrade both: nothing selectable until cooldown passes.
        assert!(set.record_failure(0));
        assert!(set.record_failure(1));
        assert!(set.select().is_none());
        set.mark_live(1);
        assert_eq!(set.best().as_deref(), Some("b"), "peeking records nothing");
        assert_eq!(set.select().map(|(i, _)| i), Some(1));
        assert_eq!(set.snapshot()[1].opens, 2);
    }
}
