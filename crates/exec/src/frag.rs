//! Query fragments at runtime.
//!
//! §3.1: "The scheduling plan consists of a totally ordered set of query
//! fragments (QF's)" — a QF is either a whole pipeline chain or one half of
//! a *degraded* chain (§4.4): the materialization fragment MF(p), which
//! spools the wrapper's tuples (optionally through the chain's first scan)
//! into a temp relation, and the complement fragment CF(p), which runs the
//! remaining operators reading from that temp.
//!
//! The fragment table owns the runtime state of every fragment: compiled
//! chain, source cursor, sink, status, and the degradation bookkeeping. The
//! engine (`engine.rs`) executes fragments; scheduling policies create and
//! reorder them.

use dqs_plan::{AnnotatedPlan, ChainSink, ChainSource, PcId};
use dqs_relop::{HtId, OpSpec, PhysChain, RelId};

/// Identifier of a runtime temp relation (index into the engine's temp
/// vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TempId(pub u32);

/// Identifier of a fragment in the [`FragTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragId(pub u32);

/// What kind of fragment this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragKind {
    /// An undegraded pipeline chain.
    Whole,
    /// Materialization fragment of a degraded chain.
    Mf,
    /// Complement fragment of a degraded chain.
    Cf,
}

/// Where a fragment's input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragSource {
    /// The communication queue of a wrapper.
    Queue(RelId),
    /// A temp relation, scanned from `cursor`. When `then_queue` is set the
    /// fragment continues reading live tuples from that wrapper's queue
    /// once the (sealed) temp is drained — the hand-off after an MF is
    /// cancelled because its chain became schedulable.
    Temp {
        /// Which temp relation.
        temp: TempId,
        /// Next tuple index to read.
        cursor: u64,
        /// Continue from this queue after the temp is drained.
        then_queue: Option<RelId>,
    },
}

/// Where a fragment's output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragSink {
    /// Into a hash table (the chain's terminal `Build` op does the work).
    Build(HtId),
    /// Into a temp relation.
    Mat(TempId),
    /// The query result.
    Output,
}

/// Lifecycle of a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragStatus {
    /// May be scheduled.
    Active,
    /// Completed (sink finalized).
    Done,
    /// Replaced by an MF/CF pair before it ever ran.
    Superseded,
}

/// Runtime state of one query fragment.
#[derive(Debug)]
pub struct Fragment {
    /// Identifier.
    pub id: FragId,
    /// The pipeline chain this fragment belongs to.
    pub pc: PcId,
    /// Whole / MF / CF.
    pub kind: FragKind,
    /// Lifecycle state.
    pub status: FragStatus,
    /// Compiled operator pipeline.
    pub chain: PhysChain,
    /// Input.
    pub source: FragSource,
    /// Output.
    pub sink: FragSink,
    /// Whether any batch has been processed.
    pub started: bool,
    /// Source tuples consumed.
    pub tuples_in: u64,
    /// Materialization writes block the processor until the device
    /// completes (the naive MA baseline); the default is write-behind
    /// (§4.4's asynchronous I/O).
    pub sync_mat_io: bool,
    /// After an MF cancellation: the retired MF whose leading operators
    /// (with their live accumulator state) must be prepended to this
    /// fragment's chain when its source switches to the live queue.
    pub handoff_from: Option<FragId>,
    /// This fragment's RNG stream seed, derived from the workload's master
    /// seed and the fragment's position (chain id / MF-CF role) at creation.
    /// Morsel streams derive from `(seed, morsel index)` — see
    /// [`Fragment::morsel_seed`] — so per-morsel randomness never depends on
    /// worker count or steal order.
    pub seed: u64,
}

impl Fragment {
    /// The RNG stream seed of morsel `index` of this fragment's next batch.
    pub fn morsel_seed(&self, index: u64) -> u64 {
        crate::world::morsel_seed(self.seed, index)
    }
}

/// All fragments of one execution.
#[derive(Debug)]
pub struct FragTable {
    frags: Vec<Fragment>,
    /// pc index → fragment ids (Whole first, then MF/CF if degraded).
    by_pc: Vec<Vec<FragId>>,
}

impl FragTable {
    /// Create one `Whole` fragment per pipeline chain of `plan`.
    ///
    /// Plan-level `Mat` nodes (inserted by the optimizer or the DQO) map to
    /// runtime temp ids `0..mat_count`, which the engine pre-allocates.
    ///
    /// `master_seed` (the workload's config seed) roots every fragment's
    /// derived RNG stream seed.
    pub fn from_plan(plan: &AnnotatedPlan, master_seed: u64) -> FragTable {
        let mut t = FragTable {
            frags: Vec::new(),
            by_pc: vec![Vec::new(); plan.chains.len()],
        };
        for pc in &plan.chains.chains {
            let id = FragId(t.frags.len() as u32);
            let source = match pc.source {
                ChainSource::Wrapper(rel) => FragSource::Queue(rel),
                ChainSource::Temp(m) => FragSource::Temp {
                    temp: TempId(m.0),
                    cursor: 0,
                    then_queue: None,
                },
            };
            let sink = match pc.sink {
                ChainSink::Build(ht) => FragSink::Build(ht),
                ChainSink::Mat(m) => FragSink::Mat(TempId(m.0)),
                ChainSink::Output => FragSink::Output,
            };
            t.frags.push(Fragment {
                id,
                pc: pc.id,
                kind: FragKind::Whole,
                status: FragStatus::Active,
                chain: PhysChain::compile(&pc.ops),
                source,
                sink,
                started: false,
                tuples_in: 0,
                sync_mat_io: false,
                handoff_from: None,
                seed: crate::world::derive_seed(master_seed, &format!("frag:{}", pc.id.0)),
            });
            t.by_pc[pc.id.0 as usize].push(id);
        }
        t
    }

    /// Fragment lookup.
    pub fn get(&self, id: FragId) -> &Fragment {
        &self.frags[id.0 as usize]
    }

    /// Mutable fragment lookup.
    pub fn get_mut(&mut self, id: FragId) -> &mut Fragment {
        &mut self.frags[id.0 as usize]
    }

    /// Number of fragments ever created.
    pub fn len(&self) -> usize {
        self.frags.len()
    }

    /// True when no fragments exist.
    pub fn is_empty(&self) -> bool {
        self.frags.is_empty()
    }

    /// Iterate all fragments.
    pub fn iter(&self) -> impl Iterator<Item = &Fragment> {
        self.frags.iter()
    }

    /// The single *live* fragment representing chain `pc`'s remaining work:
    /// the Whole fragment, or the CF once degraded. `None` once complete.
    pub fn live_body(&self, pc: PcId) -> Option<FragId> {
        self.by_pc[pc.0 as usize].iter().copied().rev().find(|&f| {
            let fr = self.get(f);
            fr.status == FragStatus::Active && fr.kind != FragKind::Mf
        })
    }

    /// The active MF of `pc`, if one exists.
    pub fn live_mf(&self, pc: PcId) -> Option<FragId> {
        self.by_pc[pc.0 as usize]
            .iter()
            .copied()
            .find(|&f| self.get(f).kind == FragKind::Mf && self.get(f).status == FragStatus::Active)
    }

    /// Take a fragment's chain out, leaving an empty one (used by the
    /// MF-cancellation hand-off).
    pub fn take_chain(&mut self, id: FragId) -> PhysChain {
        std::mem::replace(&mut self.get_mut(id).chain, PhysChain::compile(&[]))
    }

    /// True when chain `pc` was degraded.
    pub fn is_degraded(&self, pc: PcId) -> bool {
        self.by_pc[pc.0 as usize].len() > 1
    }

    /// True when every non-superseded fragment is done.
    pub fn all_done(&self) -> bool {
        self.frags.iter().all(|f| f.status != FragStatus::Active)
    }

    /// Split an active, not-yet-started fragment at operator boundary `k`:
    /// the *head* runs `ops[..k]` and materializes into `temp`; the *tail*
    /// reads the temp and runs `ops[k..]` into the original sink. This is
    /// both §4.4's PC degradation (`k <= 1`) and §4.2's memory-overflow
    /// split ("inserting a materialize operator at the highest possible
    /// point", `k = ops.len() - 1`).
    ///
    /// Returns `(head, tail)`.
    ///
    /// # Panics
    /// Panics if the fragment already ran, is not active, or `k` would put
    /// a `Build` into the head — all scheduler bugs.
    pub fn split_fragment(&mut self, fid: FragId, k: usize, temp: TempId) -> (FragId, FragId) {
        let frag = self.get(fid);
        assert_eq!(frag.status, FragStatus::Active, "splitting a dead fragment");
        assert!(!frag.started, "splitting a fragment that already ran");
        let spec = frag.chain.spec().to_vec();
        assert!(k <= spec.len(), "split point out of range");
        assert!(
            !spec[..k].iter().any(|o| matches!(o, OpSpec::Build { .. })),
            "a Build cannot move into the materialization head"
        );
        let pc = frag.pc;
        let source = frag.source;
        let sink = frag.sink;
        let parent_seed = frag.seed;

        self.get_mut(fid).status = FragStatus::Superseded;

        let head_id = FragId(self.frags.len() as u32);
        self.frags.push(Fragment {
            id: head_id,
            pc,
            kind: FragKind::Mf,
            status: FragStatus::Active,
            chain: PhysChain::compile(&spec[..k]),
            source,
            sink: FragSink::Mat(temp),
            started: false,
            tuples_in: 0,
            sync_mat_io: false,
            handoff_from: None,
            seed: crate::world::derive_seed(parent_seed, "mf"),
        });
        let tail_id = FragId(self.frags.len() as u32);
        self.frags.push(Fragment {
            id: tail_id,
            pc,
            kind: FragKind::Cf,
            status: FragStatus::Active,
            chain: PhysChain::compile(&spec[k..]),
            source: FragSource::Temp {
                temp,
                cursor: 0,
                then_queue: None,
            },
            sink,
            started: false,
            tuples_in: 0,
            sync_mat_io: false,
            handoff_from: None,
            seed: crate::world::derive_seed(parent_seed, "cf"),
        });
        self.by_pc[pc.0 as usize].push(head_id);
        self.by_pc[pc.0 as usize].push(tail_id);
        (head_id, tail_id)
    }

    /// Degrade chain `pc` (§4.4): supersede its Whole fragment with
    /// MF(p) → `temp` → CF(p). `include_scan` keeps the chain's leading
    /// scan/selection inside the MF (the paper's choice: "applies the first
    /// scan operator of p (if any)"); pass `false` for the raw spooling the
    /// Materialize-All baseline performs.
    ///
    /// Returns `(mf, cf)`.
    ///
    /// # Panics
    /// Panics if the chain already started, is already degraded, or is not
    /// wrapper-sourced — degrading any of those is a scheduler bug.
    pub fn degrade(&mut self, pc: PcId, include_scan: bool, temp: TempId) -> (FragId, FragId) {
        let whole_id = *self.by_pc[pc.0 as usize]
            .first()
            .expect("chain has a fragment");
        assert!(!self.is_degraded(pc), "chain {pc:?} is already degraded");
        let whole = self.get(whole_id);
        assert!(
            matches!(whole.source, FragSource::Queue(_)),
            "only wrapper-sourced chains can be degraded"
        );
        let k = match whole.chain.spec().first() {
            Some(OpSpec::Select { .. }) if include_scan => 1,
            _ => 0,
        };
        self.split_fragment(whole_id, k, temp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqs_plan::{AnnotatedPlan, Catalog, ChainSet, QepBuilder};
    use dqs_sim::SimParams;

    fn plan() -> AnnotatedPlan {
        let mut cat = Catalog::new();
        let a = cat.add("A", 100);
        let b = cat.add("B", 200);
        let mut qb = QepBuilder::new();
        let sa = qb.scan(a, 0.5);
        let sb = qb.scan(b, 1.0);
        let j = qb.hash_join(sa, sb, 1.0);
        let qep = qb.finish(j).unwrap();
        AnnotatedPlan::annotate(ChainSet::decompose(&qep), &cat, &SimParams::default())
    }

    #[test]
    fn from_plan_creates_whole_fragments() {
        let t = FragTable::from_plan(&plan(), 42);
        assert_eq!(t.len(), 2);
        let f0 = t.get(FragId(0));
        assert_eq!(f0.kind, FragKind::Whole);
        assert_eq!(f0.source, FragSource::Queue(dqs_relop::RelId(0)));
        assert!(matches!(f0.sink, FragSink::Build(_)));
        let f1 = t.get(FragId(1));
        assert_eq!(f1.sink, FragSink::Output);
        assert_eq!(t.live_body(PcId(0)), Some(FragId(0)));
        assert!(!t.all_done());
    }

    #[test]
    fn degrade_splits_scan_into_mf() {
        let mut t = FragTable::from_plan(&plan(), 42);
        let (mf, cf) = t.degrade(PcId(0), true, TempId(0));
        assert_eq!(t.get(FragId(0)).status, FragStatus::Superseded);
        let m = t.get(mf);
        assert_eq!(m.kind, FragKind::Mf);
        assert_eq!(m.chain.spec().len(), 1, "MF keeps the scan");
        assert_eq!(m.sink, FragSink::Mat(TempId(0)));
        assert!(
            m.chain
                .spec()
                .iter()
                .all(|o| matches!(o, OpSpec::Select { .. })),
            "MF must not contain joins"
        );
        let c = t.get(cf);
        assert_eq!(c.kind, FragKind::Cf);
        assert_eq!(c.chain.spec().len(), 1, "CF gets the build");
        assert!(matches!(c.sink, FragSink::Build(_)));
        assert_eq!(
            c.source,
            FragSource::Temp {
                temp: TempId(0),
                cursor: 0,
                then_queue: None
            }
        );
        // live_body now points at the CF, live_mf at the MF.
        assert_eq!(t.live_body(PcId(0)), Some(cf));
        assert_eq!(t.live_mf(PcId(0)), Some(mf));
        assert!(t.is_degraded(PcId(0)));
    }

    #[test]
    fn degrade_without_scan_spools_raw() {
        let mut t = FragTable::from_plan(&plan(), 42);
        let (mf, cf) = t.degrade(PcId(0), false, TempId(0));
        assert_eq!(t.get(mf).chain.spec().len(), 0, "raw spool");
        assert_eq!(t.get(cf).chain.spec().len(), 2, "CF gets scan + build");
    }

    #[test]
    #[should_panic(expected = "already degraded")]
    fn double_degrade_panics() {
        let mut t = FragTable::from_plan(&plan(), 42);
        t.degrade(PcId(0), true, TempId(0));
        t.degrade(PcId(0), true, TempId(1));
    }

    #[test]
    #[should_panic(expected = "already ran")]
    fn degrade_after_start_panics() {
        let mut t = FragTable::from_plan(&plan(), 42);
        t.get_mut(FragId(0)).started = true;
        t.degrade(PcId(0), true, TempId(0));
    }

    #[test]
    fn all_done_tracks_statuses() {
        let mut t = FragTable::from_plan(&plan(), 42);
        t.get_mut(FragId(0)).status = FragStatus::Done;
        assert!(!t.all_done());
        t.get_mut(FragId(1)).status = FragStatus::Done;
        assert!(t.all_done());
    }
}
