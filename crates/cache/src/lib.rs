//! # dqs-cache — the mediator-side wrapper result cache
//!
//! The paper's premise (§1–§2) is that wrapper delivery rates are slow and
//! unpredictable; at serving scale most submissions repeat the same
//! `(relation, predicate)` scans, so re-fetching every relation from the
//! network on every session pays the slowest part of the system again and
//! again. This crate is the store that amortizes it: a byte-budgeted,
//! LRU-evicting map from scan signatures to the complete, ordered key
//! stream a wrapper delivered, shared by every session in the mediator.
//!
//! Design constraints, in the order they matter:
//!
//! * **Only completed scans are cached.** A partial recording from an
//!   aborted session is discarded by its recorder, never inserted, so a
//!   replay always reproduces the full answer of a cold run.
//! * **The budget is a hard ceiling.** `resident_bytes <= budget_bytes`
//!   is an invariant of every operation; inserts evict least-recently-used
//!   entries until the newcomer fits, and an entry larger than the whole
//!   budget is refused outright.
//! * **Staleness is bounded.** Each entry carries an absolute expiry
//!   (insert time + the cache-wide TTL); an expired entry is removed at
//!   lookup instead of served. Explicit [`ScanCache::invalidate`] drops
//!   entries immediately — the wire-level `Invalidate` frame lands here.
//! * **Entries refresh in place.** Each entry records the wrapper
//!   change-counter (`version`) it was captured at. When the refresh
//!   scheduler observes a newer version it either appends the insert-only
//!   tail ([`ScanCache::refresh_extend`] — the wrapper re-opened at
//!   `resume_from = cached_len`) or swaps in a full re-scan
//!   ([`ScanCache::refresh_replace`]); either way the entry keeps its hit
//!   history and later sessions replay with zero wrapper traffic. An
//!   entry the refresh budget could not cover is marked stale
//!   ([`ScanCache::mark_stale`]) and hits on it count `stale_served`.
//! * **Sans-io core.** [`ScanCache`] takes `now_ms` explicitly so TTL
//!   semantics are property-testable without a wall clock; [`SharedCache`]
//!   is the thread-safe front the mediator actually holds, stamping real
//!   time onto every call.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dqs_relop::RelId;

/// Fixed accounting overhead charged per entry on top of its payload, so
/// a pathological flood of tiny entries still respects the byte budget.
pub const ENTRY_OVERHEAD_BYTES: u64 = 64;

/// Identity of one cached wrapper scan.
///
/// Tuple keys are a pure function of `(relation, index, seed)` — see
/// `dqs_relop::synth_key` — so two scans with equal signatures deliver
/// bit-identical streams and one recording can answer both.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which wrapper served the scan (an address, or `"local"` for
    /// in-process wrappers).
    pub wrapper: String,
    /// The scanned relation.
    pub rel: RelId,
    /// Signature of everything else that determines the stream: total
    /// cardinality, master seed, and the seed-splitter stream label.
    pub signature: u64,
}

impl CacheKey {
    /// Build a key, folding `(total, seed, stream)` into the signature
    /// with FNV-1a so the key stays cheap to hash and compare.
    pub fn for_scan(wrapper: &str, rel: RelId, total: u64, seed: u64, stream: &str) -> CacheKey {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&total.to_be_bytes());
        eat(&seed.to_be_bytes());
        eat(stream.as_bytes());
        CacheKey {
            wrapper: wrapper.to_string(),
            rel,
            signature: h,
        }
    }
}

/// Cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Hard ceiling on resident payload + overhead bytes.
    pub budget_bytes: u64,
    /// Per-entry time-to-live in milliseconds; `None` never expires.
    pub ttl_ms: Option<u64>,
}

/// Lifetime counters, for observability and the bench trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident, unexpired entry.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Completed scans accepted into the store.
    pub insertions: u64,
    /// Entries evicted to make room (LRU order).
    pub evictions: u64,
    /// Entries removed because their TTL elapsed.
    pub expirations: u64,
    /// Entries removed by explicit invalidation.
    pub invalidations: u64,
    /// Inserts refused because the entry exceeds the whole budget.
    pub oversize_rejections: u64,
    /// Payload tuples served from cache (8 bytes each on the wire they
    /// never crossed).
    pub tuples_served: u64,
    /// Payload bytes served from cache.
    pub bytes_served: u64,
    /// Bytes currently resident (payload + per-entry overhead).
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Entries brought up to date in place by the refresh scheduler
    /// (tail-delta extends and full replacements alike).
    pub refreshes: u64,
    /// Payload bytes fetched as insert-only tail deltas during refresh.
    pub refresh_delta_bytes: u64,
    /// Payload bytes fetched as full re-scans during refresh.
    pub refresh_full_bytes: u64,
    /// Hits served from an entry known to be behind the wrapper (marked
    /// stale by the refresher because the budget could not cover it).
    pub stale_served: u64,
}

#[derive(Debug)]
struct Entry {
    keys: Arc<Vec<u64>>,
    bytes: u64,
    /// Absolute expiry in cache-clock milliseconds; `u64::MAX` = never.
    expires_at_ms: u64,
    /// LRU tick of the last touch (insert or hit); smallest is evicted
    /// first.
    last_used: u64,
    /// Wrapper change-counter the payload was captured at (0 = unknown).
    version: u64,
    /// Hits served from this entry; survives in-place refreshes so the
    /// planner ranks by observed popularity, not time since last swap.
    hits: u64,
    /// When the payload was captured or last confirmed/refreshed.
    captured_at_ms: u64,
    /// The refresher saw a newer wrapper version but could not afford
    /// this entry; hits count as `stale_served` until a refresh lands.
    stale: bool,
}

impl Entry {
    /// Whether the entry may still be served at `now_ms`: its TTL has not
    /// elapsed. The one expiry rule every read of the store applies.
    fn live_at(&self, now_ms: u64) -> bool {
        now_ms < self.expires_at_ms
    }
}

/// Read-only view of one resident entry, for the refresh planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySnapshot {
    /// The entry's identity.
    pub key: CacheKey,
    /// Cached tuple count.
    pub len: u64,
    /// Wrapper change-counter the payload was captured at.
    pub version: u64,
    /// Hits served from this entry so far.
    pub hits: u64,
    /// Milliseconds since the payload was captured or last refreshed.
    pub age_ms: u64,
    /// Whether the refresher has marked this entry behind the wrapper.
    pub stale: bool,
}

/// The sans-io cache core: all time is an explicit `now_ms` argument.
#[derive(Debug)]
pub struct ScanCache {
    cfg: CacheConfig,
    entries: HashMap<CacheKey, Entry>,
    stats: CacheStats,
    tick: u64,
}

/// Payload bytes an entry of `tuples` keys occupies (excluding overhead).
pub fn payload_bytes(tuples: usize) -> u64 {
    tuples as u64 * 8
}

fn entry_bytes(tuples: usize) -> u64 {
    payload_bytes(tuples) + ENTRY_OVERHEAD_BYTES
}

impl ScanCache {
    /// An empty cache under `cfg`.
    pub fn new(cfg: CacheConfig) -> ScanCache {
        ScanCache {
            cfg,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn remove(&mut self, key: &CacheKey) -> Option<Entry> {
        let e = self.entries.remove(key)?;
        self.stats.resident_bytes -= e.bytes;
        self.stats.entries -= 1;
        Some(e)
    }

    /// Serve `key` if a complete, unexpired recording is resident. A hit
    /// refreshes the entry's LRU position; an expired entry is removed
    /// (counted as an expiration *and* a miss — the caller must go to the
    /// wrapper either way).
    pub fn lookup(&mut self, key: &CacheKey, now_ms: u64) -> Option<Arc<Vec<u64>>> {
        match self.entries.get(key) {
            Some(e) if !e.live_at(now_ms) => {
                self.remove(key);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                None
            }
            Some(_) => {
                let tick = self.bump();
                let e = self.entries.get_mut(key).expect("present above");
                e.last_used = tick;
                e.hits += 1;
                let stale = e.stale;
                let keys = Arc::clone(&e.keys);
                self.stats.hits += 1;
                if stale {
                    self.stats.stale_served += 1;
                }
                self.stats.tuples_served += keys.len() as u64;
                self.stats.bytes_served += payload_bytes(keys.len());
                Some(keys)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Whether [`ScanCache::lookup`] would serve `key` at `now_ms`, asked
    /// without serving it: no LRU touch, no counter moves, nothing removed.
    pub fn would_hit(&self, key: &CacheKey, now_ms: u64) -> bool {
        self.entries.get(key).is_some_and(|e| e.live_at(now_ms))
    }

    /// Shared admission path for inserts and refreshes: evict LRU entries
    /// until the payload fits and store it as fresh-at-`now_ms`,
    /// preserving `hits` across an in-place refresh. Returns `false`
    /// (storing nothing, leaving any prior recording resident) when the
    /// entry alone exceeds the whole budget.
    fn admit(
        &mut self,
        key: CacheKey,
        keys: Vec<u64>,
        version: u64,
        now_ms: u64,
        hits: u64,
    ) -> bool {
        let bytes = entry_bytes(keys.len());
        if bytes > self.cfg.budget_bytes {
            self.stats.oversize_rejections += 1;
            return false;
        }
        self.remove(&key);
        while self.stats.resident_bytes + bytes > self.cfg.budget_bytes {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("resident bytes > 0 implies an entry");
            self.remove(&victim);
            self.stats.evictions += 1;
        }
        let expires_at_ms = match self.cfg.ttl_ms {
            Some(ttl) => now_ms.saturating_add(ttl),
            None => u64::MAX,
        };
        let last_used = self.bump();
        self.entries.insert(
            key,
            Entry {
                keys: Arc::new(keys),
                bytes,
                expires_at_ms,
                last_used,
                version,
                hits,
                captured_at_ms: now_ms,
                stale: false,
            },
        );
        self.stats.resident_bytes += bytes;
        self.stats.entries += 1;
        true
    }

    /// Admit a completed scan, evicting least-recently-used entries until
    /// it fits. Returns `false` (and stores nothing) when the entry alone
    /// exceeds the whole budget. Re-inserting an existing key replaces the
    /// old recording.
    pub fn insert(&mut self, key: CacheKey, keys: Vec<u64>, now_ms: u64) -> bool {
        self.insert_versioned(key, keys, 0, now_ms)
    }

    /// [`ScanCache::insert`], recording the wrapper change-counter the
    /// scan was captured at so the refresh scheduler can tell fresh
    /// entries from stale ones.
    pub fn insert_versioned(
        &mut self,
        key: CacheKey,
        keys: Vec<u64>,
        version: u64,
        now_ms: u64,
    ) -> bool {
        if self.admit(key, keys, version, now_ms, 0) {
            self.stats.insertions += 1;
            true
        } else {
            false
        }
    }

    /// Refresh a resident entry insert-only: append `tail` (the tuples
    /// the wrapper delivered from `resume_from = cached_len`) and advance
    /// the entry to `version`. The entry's hit history survives, its age
    /// and TTL restart, and any stale mark clears. Returns `false` when
    /// the key is not resident or the grown entry exceeds the budget (the
    /// old recording then stays as-is).
    pub fn refresh_extend(
        &mut self,
        key: &CacheKey,
        tail: &[u64],
        version: u64,
        now_ms: u64,
    ) -> bool {
        let Some(e) = self.entries.get(key) else {
            return false;
        };
        let mut keys = (*e.keys).clone();
        keys.extend_from_slice(tail);
        let hits = e.hits;
        if !self.admit(key.clone(), keys, version, now_ms, hits) {
            return false;
        }
        self.stats.refreshes += 1;
        self.stats.refresh_delta_bytes += payload_bytes(tail.len());
        true
    }

    /// Refresh a resident entry by full replacement (the wrapper's data
    /// was rewritten or shrank, so the cached prefix cannot be trusted).
    /// Same lifecycle as [`ScanCache::refresh_extend`].
    pub fn refresh_replace(
        &mut self,
        key: &CacheKey,
        keys: Vec<u64>,
        version: u64,
        now_ms: u64,
    ) -> bool {
        let Some(e) = self.entries.get(key) else {
            return false;
        };
        let hits = e.hits;
        let n = keys.len();
        if !self.admit(key.clone(), keys, version, now_ms, hits) {
            return false;
        }
        self.stats.refreshes += 1;
        self.stats.refresh_full_bytes += payload_bytes(n);
        true
    }

    /// Confirm a resident entry is current at `version` without moving
    /// data (the wrapper's counter advanced but its total did not, or the
    /// entry was captured before versions were known). Resets age and
    /// clears any stale mark.
    pub fn confirm_version(&mut self, key: &CacheKey, version: u64, now_ms: u64) -> bool {
        let Some(e) = self.entries.get_mut(key) else {
            return false;
        };
        e.version = version;
        e.captured_at_ms = now_ms;
        e.stale = false;
        true
    }

    /// Mark a resident entry as known-behind the wrapper (the refresh
    /// budget could not cover it this cycle). Hits on it count
    /// `stale_served` until a refresh or confirmation lands.
    pub fn mark_stale(&mut self, key: &CacheKey) -> bool {
        match self.entries.get_mut(key) {
            Some(e) => {
                e.stale = true;
                true
            }
            None => false,
        }
    }

    /// Snapshot every unexpired resident entry for the refresh planner.
    pub fn entries_snapshot(&self, now_ms: u64) -> Vec<EntrySnapshot> {
        self.entries
            .iter()
            .filter(|(_, e)| e.live_at(now_ms))
            .map(|(k, e)| EntrySnapshot {
                key: k.clone(),
                len: e.keys.len() as u64,
                version: e.version,
                hits: e.hits,
                age_ms: now_ms.saturating_sub(e.captured_at_ms),
                stale: e.stale,
            })
            .collect()
    }

    /// Drop entries matching both filters: only `rel`'s entries (every
    /// relation when `None`) recorded under logical wrapper id `wrapper`
    /// (every wrapper when `None`). Returns
    /// `(entries_removed, bytes_released)`.
    pub fn invalidate(&mut self, rel: Option<RelId>, wrapper: Option<&str>) -> (u64, u64) {
        let victims: Vec<CacheKey> = self
            .entries
            .keys()
            .filter(|k| rel.map_or(true, |r| k.rel == r))
            .filter(|k| wrapper.map_or(true, |w| k.wrapper == w))
            .cloned()
            .collect();
        let mut bytes = 0;
        for k in &victims {
            if let Some(e) = self.remove(k) {
                bytes += e.bytes;
            }
        }
        self.stats.invalidations += victims.len() as u64;
        (victims.len() as u64, bytes)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Bytes currently resident (payload + overhead).
    pub fn resident_bytes(&self) -> u64 {
        self.stats.resident_bytes
    }

    /// True when `key` is resident (expired or not) — test introspection.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }
}

/// The thread-safe cache the mediator shares across sessions: a
/// [`ScanCache`] behind a mutex with a wall clock stamping `now_ms`.
#[derive(Debug)]
pub struct SharedCache {
    inner: Mutex<ScanCache>,
    epoch: Instant,
}

impl SharedCache {
    /// A shared cache under `cfg`, with its clock origin at this instant.
    pub fn new(cfg: CacheConfig) -> Arc<SharedCache> {
        Arc::new(SharedCache {
            inner: Mutex::new(ScanCache::new(cfg)),
            epoch: Instant::now(),
        })
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// See [`ScanCache::lookup`].
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<Vec<u64>>> {
        let now = self.now_ms();
        self.inner.lock().unwrap().lookup(key, now)
    }

    /// See [`ScanCache::would_hit`].
    pub fn would_hit(&self, key: &CacheKey) -> bool {
        let now = self.now_ms();
        self.inner.lock().unwrap().would_hit(key, now)
    }

    /// See [`ScanCache::insert`].
    pub fn insert(&self, key: CacheKey, keys: Vec<u64>) -> bool {
        let now = self.now_ms();
        self.inner.lock().unwrap().insert(key, keys, now)
    }

    /// See [`ScanCache::insert_versioned`].
    pub fn insert_versioned(&self, key: CacheKey, keys: Vec<u64>, version: u64) -> bool {
        let now = self.now_ms();
        self.inner
            .lock()
            .unwrap()
            .insert_versioned(key, keys, version, now)
    }

    /// See [`ScanCache::refresh_extend`].
    pub fn refresh_extend(&self, key: &CacheKey, tail: &[u64], version: u64) -> bool {
        let now = self.now_ms();
        self.inner
            .lock()
            .unwrap()
            .refresh_extend(key, tail, version, now)
    }

    /// See [`ScanCache::refresh_replace`].
    pub fn refresh_replace(&self, key: &CacheKey, keys: Vec<u64>, version: u64) -> bool {
        let now = self.now_ms();
        self.inner
            .lock()
            .unwrap()
            .refresh_replace(key, keys, version, now)
    }

    /// See [`ScanCache::confirm_version`].
    pub fn confirm_version(&self, key: &CacheKey, version: u64) -> bool {
        let now = self.now_ms();
        self.inner
            .lock()
            .unwrap()
            .confirm_version(key, version, now)
    }

    /// See [`ScanCache::mark_stale`].
    pub fn mark_stale(&self, key: &CacheKey) -> bool {
        self.inner.lock().unwrap().mark_stale(key)
    }

    /// See [`ScanCache::entries_snapshot`].
    pub fn entries_snapshot(&self) -> Vec<EntrySnapshot> {
        let now = self.now_ms();
        self.inner.lock().unwrap().entries_snapshot(now)
    }

    /// See [`ScanCache::contains`].
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.inner.lock().unwrap().contains(key)
    }

    /// See [`ScanCache::invalidate`].
    pub fn invalidate(&self, rel: Option<RelId>, wrapper: Option<&str>) -> (u64, u64) {
        self.inner.lock().unwrap().invalidate(rel, wrapper)
    }

    /// See [`ScanCache::stats`].
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats()
    }

    /// The byte budget this cache was configured with.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.lock().unwrap().config().budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16) -> CacheKey {
        CacheKey::for_scan("local", RelId(n), 100, 42, "wrapper:t")
    }

    fn cache(budget: u64, ttl: Option<u64>) -> ScanCache {
        ScanCache::new(CacheConfig {
            budget_bytes: budget,
            ttl_ms: ttl,
        })
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let mut c = cache(10_000, None);
        assert!(c.lookup(&key(1), 0).is_none());
        assert!(c.insert(key(1), vec![7, 8, 9], 0));
        let got = c.lookup(&key(1), 5).expect("hit");
        assert_eq!(*got, vec![7, 8, 9]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.tuples_served, 3);
        assert_eq!(s.bytes_served, 24);
    }

    #[test]
    fn distinct_signatures_do_not_collide() {
        let a = CacheKey::for_scan("local", RelId(1), 100, 42, "wrapper:a");
        let b = CacheKey::for_scan("local", RelId(1), 101, 42, "wrapper:a");
        let c = CacheKey::for_scan("local", RelId(1), 100, 43, "wrapper:a");
        let d = CacheKey::for_scan("local", RelId(1), 100, 42, "wrapper:b");
        assert_ne!(a.signature, b.signature);
        assert_ne!(a.signature, c.signature);
        assert_ne!(a.signature, d.signature);
    }

    #[test]
    fn lru_eviction_under_byte_pressure() {
        // Budget fits exactly two 10-tuple entries (80 + 64 each).
        let mut c = cache(2 * (80 + 64), None);
        assert!(c.insert(key(1), vec![0; 10], 0));
        assert!(c.insert(key(2), vec![0; 10], 0));
        // Touch 1 so 2 becomes the LRU victim.
        c.lookup(&key(1), 0).unwrap();
        assert!(c.insert(key(3), vec![0; 10], 0));
        assert!(c.contains(&key(1)), "recently used survives");
        assert!(!c.contains(&key(2)), "LRU evicted");
        assert!(c.contains(&key(3)));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.resident_bytes() <= c.config().budget_bytes);
    }

    #[test]
    fn oversize_entries_are_refused() {
        let mut c = cache(100, None);
        assert!(!c.insert(key(1), vec![0; 100], 0));
        assert_eq!(c.stats().oversize_rejections, 1);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn ttl_expiry_is_a_miss_and_removes_the_entry() {
        let mut c = cache(10_000, Some(50));
        assert!(c.insert(key(1), vec![1], 0));
        assert!(c.lookup(&key(1), 49).is_some(), "still fresh");
        assert!(c.lookup(&key(1), 50).is_none(), "expired at the boundary");
        assert!(!c.contains(&key(1)), "expired entry removed");
        assert_eq!(c.stats().expirations, 1);
        // Re-insert restarts the clock.
        assert!(c.insert(key(1), vec![1], 60));
        assert!(c.lookup(&key(1), 100).is_some());
    }

    #[test]
    fn would_hit_answers_as_lookup_would_without_moving_anything() {
        // Budget fits exactly two 10-tuple entries (80 + 64 each).
        let mut c = cache(2 * (80 + 64), Some(50));
        assert!(!c.would_hit(&key(1), 0), "absent");
        assert!(c.insert(key(1), vec![0; 10], 0));
        assert!(c.insert(key(2), vec![0; 10], 0));
        let before = c.stats();
        assert!(c.would_hit(&key(1), 49));
        assert_eq!(c.stats(), before, "no counter moved");
        // Key 1 is still the LRU victim: probing it did not touch it.
        assert!(c.insert(key(3), vec![0; 10], 0));
        assert!(!c.contains(&key(1)));
        // Expired: resident, yet lookup would not serve it.
        assert!(c.contains(&key(2)) && !c.would_hit(&key(2), 50));
        assert!(c.contains(&key(2)), "a probe removes nothing");
    }

    #[test]
    fn invalidate_by_relation_and_wholesale() {
        let mut c = cache(10_000, None);
        c.insert(key(1), vec![1], 0);
        c.insert(key(2), vec![2], 0);
        c.insert(
            CacheKey::for_scan("other", RelId(1), 7, 7, "wrapper:o"),
            vec![3],
            0,
        );
        let (n, bytes) = c.invalidate(Some(RelId(1)), None);
        assert_eq!(n, 2, "both rel-1 entries, across wrappers");
        assert_eq!(bytes, 2 * (8 + ENTRY_OVERHEAD_BYTES));
        assert!(c.lookup(&key(1), 0).is_none());
        assert!(c.lookup(&key(2), 0).is_some(), "rel 2 untouched");
        let (n, _) = c.invalidate(None, None);
        assert_eq!(n, 1);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn invalidate_scoped_to_logical_wrapper_id() {
        let mut c = cache(10_000, None);
        // Same relation cached under two logical wrappers; the scoped
        // clear must key on the logical id, not touch the other group.
        c.insert(
            CacheKey::for_scan("w0", RelId(1), 100, 42, "wrapper:a"),
            vec![1],
            0,
        );
        c.insert(
            CacheKey::for_scan("w1", RelId(1), 100, 42, "wrapper:a"),
            vec![2],
            0,
        );
        let (n, _) = c.invalidate(None, Some("127.0.0.1:7401"));
        assert_eq!(n, 0, "an endpoint address matches no logical id");
        let (n, _) = c.invalidate(None, Some("w0"));
        assert_eq!(n, 1);
        assert!(!c.contains(&CacheKey::for_scan("w0", RelId(1), 100, 42, "wrapper:a")));
        assert!(c.contains(&CacheKey::for_scan("w1", RelId(1), 100, 42, "wrapper:a")));
        // rel + wrapper compose conjunctively.
        let (n, _) = c.invalidate(Some(RelId(9)), Some("w1"));
        assert_eq!(n, 0);
        let (n, _) = c.invalidate(Some(RelId(1)), Some("w1"));
        assert_eq!(n, 1);
    }

    #[test]
    fn refresh_extend_appends_tail_and_clears_stale() {
        let mut c = cache(10_000, Some(100));
        assert!(c.insert_versioned(key(1), vec![1, 2, 3], 4, 0));
        c.lookup(&key(1), 10).unwrap();
        assert!(c.mark_stale(&key(1)));
        c.lookup(&key(1), 20).unwrap();
        assert_eq!(c.stats().stale_served, 1, "stale hit counted");
        assert!(c.refresh_extend(&key(1), &[4, 5], 6, 90));
        let got = c.lookup(&key(1), 120).expect("TTL restarted at refresh");
        assert_eq!(*got, vec![1, 2, 3, 4, 5]);
        let s = c.stats();
        assert_eq!(s.refreshes, 1);
        assert_eq!(s.refresh_delta_bytes, 16);
        assert_eq!(s.stale_served, 1, "post-refresh hit is not stale");
        let snap = &c.entries_snapshot(120)[0];
        assert_eq!((snap.version, snap.len, snap.stale), (6, 5, false));
        assert_eq!(snap.hits, 3, "hit history survives the refresh");
    }

    #[test]
    fn refresh_replace_swaps_payload_and_counts_full_bytes() {
        let mut c = cache(10_000, None);
        assert!(c.insert_versioned(key(1), vec![1, 2, 3], 1, 0));
        assert!(c.refresh_replace(&key(1), vec![9, 8], 5, 10));
        assert_eq!(*c.lookup(&key(1), 10).unwrap(), vec![9, 8]);
        let s = c.stats();
        assert_eq!((s.refreshes, s.refresh_full_bytes), (1, 16));
        assert_eq!(s.insertions, 1, "a refresh is not a new insertion");
    }

    #[test]
    fn refresh_of_absent_key_is_refused() {
        let mut c = cache(10_000, None);
        assert!(!c.refresh_extend(&key(1), &[1], 1, 0));
        assert!(!c.refresh_replace(&key(1), vec![1], 1, 0));
        assert!(!c.confirm_version(&key(1), 1, 0));
        assert!(!c.mark_stale(&key(1)));
        assert_eq!(c.stats().refreshes, 0);
    }

    #[test]
    fn oversize_refresh_keeps_the_old_recording() {
        let mut c = cache(100, None);
        assert!(c.insert(key(1), vec![1, 2], 0));
        assert!(!c.refresh_extend(&key(1), &vec![0; 50], 2, 0));
        assert_eq!(*c.lookup(&key(1), 0).unwrap(), vec![1, 2]);
        assert_eq!(c.stats().oversize_rejections, 1);
    }

    #[test]
    fn confirm_version_resets_age_without_moving_data() {
        let mut c = cache(10_000, None);
        assert!(c.insert_versioned(key(1), vec![1], 3, 0));
        assert!(c.mark_stale(&key(1)));
        assert!(c.confirm_version(&key(1), 7, 50));
        let snap = &c.entries_snapshot(60)[0];
        assert_eq!((snap.version, snap.age_ms, snap.stale), (7, 10, false));
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let mut c = cache(10_000, None);
        c.insert(key(1), vec![0; 4], 0);
        let before = c.resident_bytes();
        c.insert(key(1), vec![0; 4], 0);
        assert_eq!(c.resident_bytes(), before, "replacement, not accumulation");
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn shared_cache_front_serves_and_counts() {
        let c = SharedCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl_ms: None,
        });
        assert!(c.lookup(&key(9)).is_none());
        assert!(c.insert(key(9), vec![5, 6]));
        assert_eq!(*c.lookup(&key(9)).unwrap(), vec![5, 6]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.budget_bytes(), 1 << 20);
        assert!(c.refresh_extend(&key(9), &[7], 2));
        assert_eq!(*c.lookup(&key(9)).unwrap(), vec![5, 6, 7]);
        assert_eq!(c.entries_snapshot()[0].version, 2);
    }

    mod props {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        proptest! {
            /// Insert-only refresh is exact: extending a cached prefix
            /// with the tail delta yields an entry byte-identical to a
            /// full re-scan captured at the same version.
            #[test]
            fn tail_delta_refresh_equals_full_rescan(
                base in pvec(any::<u64>(), 0..64),
                tail in pvec(any::<u64>(), 0..64),
                version in 1u64..1000,
            ) {
                let mut delta = cache(1 << 20, None);
                let mut full = cache(1 << 20, None);
                prop_assert!(delta.insert_versioned(key(1), base.clone(), version, 0));
                prop_assert!(delta.refresh_extend(&key(1), &tail, version + 1, 10));
                let mut whole = base.clone();
                whole.extend_from_slice(&tail);
                prop_assert!(full.insert_versioned(key(1), whole, version + 1, 10));
                let a = delta.lookup(&key(1), 20).unwrap();
                let b = full.lookup(&key(1), 20).unwrap();
                prop_assert_eq!(&*a, &*b, "payloads must be byte-identical");
                let sa = delta.entries_snapshot(20).remove(0);
                let sb = full.entries_snapshot(20).remove(0);
                prop_assert_eq!(sa.version, sb.version);
                prop_assert_eq!(sa.len, sb.len);
                prop_assert_eq!(delta.resident_bytes(), full.resident_bytes());
            }
        }
    }
}
