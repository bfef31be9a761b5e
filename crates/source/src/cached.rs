//! Cache-aware sources: instant replay of cached scans, tee-on-miss
//! recording of live ones.
//!
//! The cache stores the complete, ordered key stream a wrapper delivered
//! (tuple keys are a pure function of `(relation, index, seed)` — see
//! `dqs_relop::synth_key` — so the keys *are* the scan). Two adapters
//! connect it to the [`TupleSource`] world:
//!
//! * [`ReplaySource`] serves a cached recording as a **pull-paced** source
//!   whose every gap is [`SimDuration::ZERO`]: the engine schedules each
//!   arrival as an immediately-due timer, so a warm relation streams at
//!   memory speed with zero window-protocol traffic and zero threads —
//!   no socket is even dialed for it.
//! * [`RecordingSource`] wraps any live source and tees each emitted key
//!   into a buffer, inserting into the [`SharedCache`] only at the moment
//!   the final tuple is delivered. An aborted session drops the recorder
//!   with a partial buffer that is never inserted, so the cache can only
//!   ever serve complete answers.

use std::sync::Arc;

use dqs_cache::{CacheKey, SharedCache};
use dqs_relop::{RelId, Tuple};
use dqs_sim::SimDuration;

use crate::source::{BoxSource, TupleSource};

/// A cached scan served back as a pull-paced source with zero gaps.
#[derive(Debug)]
pub struct ReplaySource {
    rel: RelId,
    keys: Arc<Vec<u64>>,
    produced: u64,
}

impl ReplaySource {
    /// Replay `keys` (a complete recording) as relation `rel`.
    pub fn new(rel: RelId, keys: Arc<Vec<u64>>) -> ReplaySource {
        ReplaySource {
            rel,
            keys,
            produced: 0,
        }
    }
}

impl TupleSource for ReplaySource {
    fn rel(&self) -> RelId {
        self.rel
    }

    fn total(&self) -> u64 {
        self.keys.len() as u64
    }

    fn produced(&self) -> u64 {
        self.produced
    }

    /// Pull-paced with no delay: every remaining tuple is already in
    /// memory, so the next arrival is due immediately.
    fn next_gap(&mut self) -> Option<SimDuration> {
        if self.exhausted() {
            None
        } else {
            Some(SimDuration::ZERO)
        }
    }

    fn emit(&mut self) -> Tuple {
        assert!(!self.exhausted(), "emit from exhausted replay");
        let t = Tuple::new(self.keys[self.produced as usize], self.rel);
        self.produced += 1;
        t
    }
}

/// A live source teeing its key stream into the cache.
///
/// Delegates the entire [`TupleSource`] contract to the wrapped source;
/// the only addition is that [`TupleSource::emit`] records each key and
/// the delivery of the final tuple inserts the completed recording. If
/// the recorder is dropped early (session aborted, source faulted), the
/// partial buffer dies with it.
#[derive(Debug)]
pub struct RecordingSource {
    inner: BoxSource,
    cache: Arc<SharedCache>,
    key: CacheKey,
    version: u64,
    recorded: Vec<u64>,
}

impl RecordingSource {
    /// Record `inner`'s stream under `key` in `cache` once it completes.
    pub fn new(inner: BoxSource, cache: Arc<SharedCache>, key: CacheKey) -> RecordingSource {
        RecordingSource::versioned(inner, cache, key, 0)
    }

    /// [`RecordingSource::new`], stamping the completed recording with
    /// the wrapper change-counter it was captured at (0 = unknown) so
    /// the refresh scheduler can judge its freshness later.
    pub fn versioned(
        inner: BoxSource,
        cache: Arc<SharedCache>,
        key: CacheKey,
        version: u64,
    ) -> RecordingSource {
        let capacity = inner.total() as usize;
        RecordingSource {
            inner,
            cache,
            key,
            version,
            recorded: Vec::with_capacity(capacity),
        }
    }
}

impl TupleSource for RecordingSource {
    fn rel(&self) -> RelId {
        self.inner.rel()
    }

    fn total(&self) -> u64 {
        self.inner.total()
    }

    fn produced(&self) -> u64 {
        self.inner.produced()
    }

    fn start(&mut self) {
        self.inner.start();
    }

    fn next_gap(&mut self) -> Option<SimDuration> {
        self.inner.next_gap()
    }

    fn emit(&mut self) -> Tuple {
        let t = self.inner.emit();
        self.recorded.push(t.key);
        if self.inner.exhausted() {
            // Complete scan: publish it. Insertion can still be refused
            // (oversize) — that only means the next session goes cold too.
            let keys = std::mem::take(&mut self.recorded);
            self.cache
                .insert_versioned(self.key.clone(), keys, self.version);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::wrapper::Wrapper;
    use dqs_cache::CacheConfig;
    use dqs_relop::synth_key;
    use dqs_sim::SeedSplitter;

    fn shared(budget: u64) -> Arc<SharedCache> {
        SharedCache::new(CacheConfig {
            budget_bytes: budget,
            ttl_ms: None,
        })
    }

    fn live(rel: RelId, total: u64) -> BoxSource {
        Box::new(Wrapper::new(
            rel,
            total,
            DelayModel::Constant {
                w: SimDuration::from_micros(1),
            },
            SeedSplitter::new(7).stream("cached-test"),
        ))
    }

    fn scan_key(rel: RelId, total: u64) -> CacheKey {
        CacheKey::for_scan("local", rel, total, 7, "cached-test")
    }

    #[test]
    fn recording_inserts_only_on_completion() {
        let cache = shared(1 << 20);
        let key = scan_key(RelId(1), 5);
        let mut rec = RecordingSource::new(live(RelId(1), 5), Arc::clone(&cache), key.clone());
        for i in 0..5 {
            assert!(
                cache.lookup(&key).is_none(),
                "nothing cached after {i} of 5 tuples"
            );
            let _ = rec.next_gap();
            let _ = rec.emit();
        }
        let got = cache.lookup(&key).expect("cached on completion");
        let expect: Vec<u64> = (0..5).map(|i| synth_key(RelId(1), i)).collect();
        assert_eq!(*got, expect);
    }

    #[test]
    fn aborted_recording_is_discarded() {
        let cache = shared(1 << 20);
        let key = scan_key(RelId(2), 10);
        {
            let mut rec = RecordingSource::new(live(RelId(2), 10), Arc::clone(&cache), key.clone());
            for _ in 0..9 {
                let _ = rec.emit();
            }
            // Dropped one tuple short of completion.
        }
        assert!(cache.lookup(&key).is_none(), "partial scan never served");
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn replay_reproduces_the_recorded_stream_with_zero_gaps() {
        let cache = shared(1 << 20);
        let key = scan_key(RelId(3), 8);
        let mut rec = RecordingSource::new(live(RelId(3), 8), Arc::clone(&cache), key.clone());
        let cold: Vec<Tuple> = (0..8).map(|_| rec.emit()).collect();

        let mut replay = ReplaySource::new(RelId(3), cache.lookup(&key).expect("hit"));
        assert_eq!(replay.total(), 8);
        let mut warm = Vec::new();
        while let Some(gap) = replay.next_gap() {
            assert_eq!(gap, SimDuration::ZERO, "replay never waits");
            warm.push(replay.emit());
        }
        assert_eq!(warm, cold, "bit-identical stream");
        assert!(replay.exhausted());
        assert_eq!(replay.next_gap(), None);
    }

    #[test]
    fn recording_delegates_the_window_protocol() {
        let cache = shared(1 << 20);
        let mut rec = RecordingSource::new(live(RelId(4), 3), cache, scan_key(RelId(4), 3));
        assert_eq!(rec.rel(), RelId(4));
        assert_eq!(rec.total(), 3);
        assert_eq!(rec.produced(), 0);
        assert!(
            rec.next_gap().is_some(),
            "pull-paced inner stays pull-paced"
        );
    }

    #[test]
    fn versioned_recording_stamps_the_entry() {
        let cache = shared(1 << 20);
        let key = scan_key(RelId(6), 3);
        let mut rec =
            RecordingSource::versioned(live(RelId(6), 3), Arc::clone(&cache), key.clone(), 9);
        for _ in 0..3 {
            let _ = rec.emit();
        }
        assert!(cache.contains(&key));
        assert_eq!(cache.entries_snapshot()[0].version, 9);
    }

    #[test]
    fn oversize_completion_is_refused_but_stream_still_flows() {
        // Budget too small for the scan: recording completes, insert is
        // refused, and the consumer still gets every tuple.
        let cache = shared(8);
        let key = scan_key(RelId(5), 4);
        let mut rec = RecordingSource::new(live(RelId(5), 4), Arc::clone(&cache), key.clone());
        let tuples: Vec<Tuple> = (0..4).map(|_| rec.emit()).collect();
        assert_eq!(tuples.len(), 4);
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.stats().oversize_rejections, 1);
    }
}
