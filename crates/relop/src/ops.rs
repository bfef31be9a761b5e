//! Physical chain operators and batch execution.
//!
//! A pipeline chain (§2.2) compiles into a [`PhysChain`]: an ordered list of
//! tuple-at-a-time operators ending either in a hash-table build (a blocking
//! edge to the consumer) or in the open end of the pipeline (the caller
//! materializes, enqueues, or emits the survivors). Executing a batch charges
//! CPU instructions per the Table 1 cost model:
//!
//! * move a tuple: 100 instructions (selection / copy),
//! * search a hash table: 100 instructions per probe,
//! * produce a result tuple: 50 instructions per join output.
//!
//! All data-dependent behaviour (filter pass rate, join fan-out) is driven by
//! deterministic [`FanoutAccumulator`]s so runs are reproducible and
//! cardinalities are exact.

use dqs_sim::SimParams;

use crate::fanout::FanoutAccumulator;
use crate::hash_table::{HashTableArena, HtId, HtStat, HtStats};
use crate::tuple::Tuple;

/// Declarative description of one operator inside a chain, as produced by
/// the plan layer. `OpSpec` is `Copy`-free but cheap to clone.
#[derive(Debug, Clone, PartialEq)]
pub enum OpSpec {
    /// Filter with the given pass selectivity in `[0, 1]`.
    Select {
        /// Fraction of input tuples that survive.
        selectivity: f64,
    },
    /// Probe the (already complete) hash table `table`; each input tuple
    /// produces `fanout` outputs on average (`fanout` = join selectivity ×
    /// build cardinality).
    Probe {
        /// Hash table to probe.
        table: HtId,
        /// Average outputs per probe tuple.
        fanout: f64,
    },
    /// Terminal: insert every input tuple into `table` (the blocking edge).
    Build {
        /// Hash table being built.
        table: HtId,
    },
}

impl OpSpec {
    /// Average output tuples per input tuple of this operator.
    pub fn fanout(&self) -> f64 {
        match self {
            OpSpec::Select { selectivity } => *selectivity,
            OpSpec::Probe { fanout, .. } => *fanout,
            OpSpec::Build { .. } => 0.0,
        }
    }
}

/// Estimated execution profile of a chain, used for the scheduler's
/// annotated plan (§3.3: per-operator memory and result-size estimates) and
/// for the critical-degree metric's `c_p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainCostEstimate {
    /// Average CPU instructions consumed per *source* tuple entering the
    /// chain, including downstream work triggered by fan-out.
    pub instr_per_source_tuple: f64,
    /// Average chain output tuples per source tuple (0 for build-terminated
    /// chains, whose output goes into the hash table).
    pub fanout_total: f64,
}

/// Estimate instructions-per-source-tuple and total fan-out for a chain spec.
pub fn estimate_chain(ops: &[OpSpec], params: &SimParams) -> ChainCostEstimate {
    let mut mult = 1.0; // tuples reaching the current operator, per source tuple
    let mut instr = 0.0;
    for op in ops {
        match op {
            OpSpec::Select { selectivity } => {
                instr += mult * params.instr_move_tuple as f64;
                mult *= selectivity;
            }
            OpSpec::Probe { fanout, .. } => {
                instr += mult * params.instr_hash_search as f64;
                instr += mult * fanout * params.instr_produce_tuple as f64;
                mult *= fanout;
            }
            OpSpec::Build { .. } => {
                instr += mult * params.instr_move_tuple as f64;
                mult = 0.0;
            }
        }
    }
    ChainCostEstimate {
        instr_per_source_tuple: instr,
        fanout_total: mult,
    }
}

/// Runtime operator with its deterministic fan-out state.
#[derive(Debug, Clone)]
enum RunOp {
    Select {
        acc: FanoutAccumulator,
    },
    Probe {
        table: HtId,
        acc: FanoutAccumulator,
        picked: u64,
    },
    Build {
        table: HtId,
    },
}

/// Result of pushing a batch through a chain.
#[derive(Debug, Default)]
pub struct BatchResult {
    /// Tuples leaving the open end of the chain (empty for build-terminated
    /// chains).
    pub out: Vec<Tuple>,
    /// CPU instructions consumed.
    pub instr: u64,
}

/// A compiled, executable pipeline chain body.
#[derive(Debug)]
pub struct PhysChain {
    ops: Vec<RunOp>,
    spec: Vec<OpSpec>,
    /// Tables probed anywhere in the chain, precomputed at compile time so
    /// the scheduler's hot C-schedulability checks never allocate.
    probe_targets: Vec<HtId>,
    /// Reusable ping-pong buffer for the batch path.
    scratch: Vec<Tuple>,
    consumed: u64,
    emitted: u64,
}

impl PhysChain {
    /// Compile a chain from its spec.
    ///
    /// # Panics
    /// Panics if a `Build` appears anywhere but last: a build terminates the
    /// pipeline by definition of the blocking edge.
    pub fn compile(spec: &[OpSpec]) -> Self {
        for (i, op) in spec.iter().enumerate() {
            if matches!(op, OpSpec::Build { .. }) {
                assert!(
                    i == spec.len() - 1,
                    "Build must be the terminal operator of a chain"
                );
            }
        }
        let ops = spec
            .iter()
            .map(|s| match s {
                OpSpec::Select { selectivity } => RunOp::Select {
                    acc: FanoutAccumulator::new(*selectivity),
                },
                OpSpec::Probe { table, fanout } => RunOp::Probe {
                    table: *table,
                    acc: FanoutAccumulator::new(*fanout),
                    picked: 0,
                },
                OpSpec::Build { table } => RunOp::Build { table: *table },
            })
            .collect();
        PhysChain {
            ops,
            spec: spec.to_vec(),
            probe_targets: spec
                .iter()
                .filter_map(|s| match s {
                    OpSpec::Probe { table, .. } => Some(*table),
                    _ => None,
                })
                .collect(),
            scratch: Vec::new(),
            consumed: 0,
            emitted: 0,
        }
    }

    /// The spec this chain was compiled from.
    pub fn spec(&self) -> &[OpSpec] {
        &self.spec
    }

    /// Concatenate two chains, preserving all runtime operator state (the
    /// deterministic fan-out accumulators keep counting exactly where they
    /// left off). Used when a cancelled materialization fragment hands its
    /// leading operators back to the complement fragment, so tuples that
    /// now bypass the temp relation still pass through the same scan with
    /// the same accumulator — batch boundaries and degradation can never
    /// change the query answer.
    ///
    /// # Panics
    /// Panics if `front` contains a `Build` (it would not be terminal).
    pub fn concat(front: PhysChain, back: PhysChain) -> PhysChain {
        assert!(
            !front.spec.iter().any(|o| matches!(o, OpSpec::Build { .. })),
            "front of a concatenation cannot contain a Build"
        );
        let mut spec = front.spec;
        spec.extend(back.spec);
        let mut ops = front.ops;
        ops.extend(back.ops);
        let mut probe_targets = front.probe_targets;
        probe_targets.extend(back.probe_targets);
        PhysChain {
            ops,
            spec,
            probe_targets,
            scratch: front.scratch,
            // The merged chain continues the *source-side* stream: tuples
            // the front already consumed went to the temp relation and are
            // replayed through the back separately.
            consumed: front.consumed,
            emitted: back.emitted,
        }
    }

    /// Source tuples consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Tuples emitted from the open end so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Hash table this chain builds into, if build-terminated.
    pub fn build_target(&self) -> Option<HtId> {
        match self.ops.last() {
            Some(RunOp::Build { table }) => Some(*table),
            _ => None,
        }
    }

    /// Hash tables this chain probes (precomputed at compile time).
    pub fn probe_targets(&self) -> &[HtId] {
        &self.probe_targets
    }

    /// Push `input` through the chain, inserting into / probing tables in
    /// `arena`, charging instructions per `params`. Collects survivors of
    /// the open end into `out` (cleared first) and returns the instruction
    /// count; together with the chain's internal scratch buffer this makes
    /// the steady-state batch path allocation-free.
    ///
    /// # Panics
    /// Panics if a probed table is not complete — the scheduler must never
    /// run a chain whose blocking inputs are unfinished (C-schedulability).
    pub fn run_batch_into(
        &mut self,
        input: &[Tuple],
        out: &mut Vec<Tuple>,
        arena: &mut HashTableArena,
        params: &SimParams,
    ) -> u64 {
        self.consumed += input.len() as u64;
        let stat = |id| arena.get(id).stat();
        let instr = run_ops(&mut self.ops, input, out, &mut self.scratch, stat, params);
        if let Some(table) = self.build_target() {
            let ht = arena.get_mut(table);
            for t in out.drain(..) {
                ht.insert(t);
            }
        }
        self.emitted += out.len() as u64;
        instr
    }

    /// Snapshot the probe-target state needed to fork this chain into
    /// morsel cursors (or to fast-forward it past a morsel-executed batch).
    pub fn snapshot_stats(&self, arena: &HashTableArena) -> HtStats {
        HtStats::capture(arena, &self.probe_targets)
    }

    /// Fork the chain's operator state for one morsel of an incoming batch.
    ///
    /// `skip` is the number of batch tuples preceding this morsel: the fork
    /// starts from the chain's *current* accumulator state and fast-forwards
    /// arithmetically past `skip` source tuples, landing on exactly the state
    /// serial execution would reach at that offset (the fan-out invariant
    /// `outputs == floor(inputs · fanout)` makes the state a pure function of
    /// the consumed count — see [`FanoutAccumulator::advance_by`]). Forking
    /// is relative, not absolute, because a chain produced by
    /// [`PhysChain::concat`] carries front operators whose consumed counts
    /// differ from the chain's own.
    ///
    /// The fork shares no state with the chain or the arena: probes read the
    /// captured `stats`, builds collect into the morsel's output vector.
    pub fn fork_morsel(&self, skip: u64, stats: &HtStats) -> MorselCursor {
        let mut ops = self.ops.clone();
        let _ = advance_ops(&mut ops, skip, stats);
        MorselCursor { ops }
    }

    /// Fast-forward the chain past a batch of `n` source tuples that forked
    /// morsel cursors executed on its behalf, and return the number of
    /// open-end output tuples that batch emitted. After this call the chain
    /// is in exactly the state [`PhysChain::run_batch_into`] would have left
    /// it in for the same batch.
    pub fn advance_source(&mut self, n: u64, stats: &HtStats) -> u64 {
        self.consumed += n;
        let delta = advance_ops(&mut self.ops, n, stats);
        self.emitted += delta;
        delta
    }

    /// Allocating convenience form of [`PhysChain::run_batch_into`].
    pub fn run_batch(
        &mut self,
        input: &[Tuple],
        arena: &mut HashTableArena,
        params: &SimParams,
    ) -> BatchResult {
        let mut out = Vec::new();
        let instr = self.run_batch_into(input, &mut out, arena, params);
        BatchResult { out, instr }
    }
}

/// The one interpreter of [`RunOp`]s over tuples: push `input` through `ops`,
/// reading each probed table's state through `stat`, and return the
/// instruction count. `out` (cleared first) ends up holding what leaves the
/// last operator — the open end's survivors, or the tuples a terminal `Build`
/// is about to insert (the serial batch inserts them, a morsel hands them to
/// the merge step). The first operator reads the caller's slice directly;
/// later ones ping-pong between `out` and `spare`.
fn run_ops(
    ops: &mut [RunOp],
    input: &[Tuple],
    out: &mut Vec<Tuple>,
    spare: &mut Vec<Tuple>,
    stat: impl Fn(HtId) -> HtStat,
    params: &SimParams,
) -> u64 {
    out.clear();
    let mut instr: u64 = 0;
    if matches!(ops.first(), None | Some(RunOp::Build { .. })) {
        out.extend_from_slice(input);
    }
    for (i, op) in ops.iter_mut().enumerate() {
        match op {
            RunOp::Select { acc } => {
                if i == 0 {
                    instr += input.len() as u64 * params.instr_move_tuple;
                    for t in input {
                        if acc.next() > 0 {
                            out.push(*t);
                        }
                    }
                } else {
                    instr += out.len() as u64 * params.instr_move_tuple;
                    out.retain(|_| acc.next() > 0);
                }
            }
            RunOp::Probe { table, acc, picked } => {
                let st = stat(*table);
                assert!(
                    st.complete,
                    "probe of incomplete hash table {table:?} — C-schedulability violated"
                );
                let src: &[Tuple] = if i == 0 {
                    input
                } else {
                    std::mem::swap(out, spare);
                    out.clear();
                    spare
                };
                instr += src.len() as u64 * params.instr_hash_search;
                for t in src {
                    // An empty build side matches nothing, whatever the
                    // estimated fan-out says.
                    let k = if st.len == 0 { 0 } else { acc.next() };
                    instr += k * params.instr_produce_tuple;
                    // Matches rotate deterministically through the build
                    // side; the output carries the probe tuple's identity,
                    // so only the rotation counter moves.
                    *picked += k;
                    for _ in 0..k {
                        out.push(*t);
                    }
                }
            }
            RunOp::Build { .. } => instr += out.len() as u64 * params.instr_move_tuple,
        }
    }
    instr
}

/// Fast-forward `ops` past `n` source tuples arithmetically, mirroring the
/// exact accumulator calls [`run_ops`] would have made, and return the
/// open-end output count. A probe against an empty build side never touches
/// its accumulator there, so the advance skips it too — safe because probed
/// tables are complete and their emptiness is frozen.
fn advance_ops(ops: &mut [RunOp], n: u64, stats: &HtStats) -> u64 {
    let mut delta = n;
    for op in ops.iter_mut() {
        match op {
            RunOp::Select { acc } => delta = acc.advance_by(delta),
            RunOp::Probe { table, acc, picked } => {
                let st = stats.get(*table);
                assert!(
                    st.complete,
                    "probe of incomplete hash table {table:?} — C-schedulability violated"
                );
                if st.len == 0 {
                    delta = 0;
                } else {
                    delta = acc.advance_by(delta);
                    *picked += delta;
                }
            }
            RunOp::Build { .. } => delta = 0,
        }
    }
    delta
}

/// A forked, independently executable copy of a chain's operator state,
/// positioned at one morsel's offset within a batch (see
/// [`PhysChain::fork_morsel`]). Cursors own everything they touch, so any
/// number of them can run concurrently on plain worker threads while the
/// master chain and the hash-table arena stay untouched.
#[derive(Debug)]
pub struct MorselCursor {
    ops: Vec<RunOp>,
}

impl MorselCursor {
    /// Push one morsel through the forked chain: the interpreter under
    /// [`PhysChain::run_batch_into`], reading the snapshot instead of the
    /// arena, so morsel instruction counts sum to the serial batch's exactly.
    /// `out` (cleared first) receives the open-end survivors or, for a
    /// build-terminated chain, the partition the merge step absorbs in morsel
    /// order ([`crate::hash_table::SimHashTable::absorb_partition`]).
    ///
    /// # Panics
    /// Panics if a probed table's snapshot says the build is incomplete.
    pub fn run_into(
        &mut self,
        input: &[Tuple],
        out: &mut Vec<Tuple>,
        stats: &HtStats,
        params: &SimParams,
    ) -> u64 {
        let stat = |id| stats.get(id);
        run_ops(&mut self.ops, input, out, &mut Vec::new(), stat, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::RelId;

    fn tuples(n: u64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(i, RelId(0))).collect()
    }

    #[test]
    fn select_charges_move_and_filters() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let mut c = PhysChain::compile(&[OpSpec::Select { selectivity: 0.5 }]);
        let r = c.run_batch(&tuples(100), &mut arena, &p);
        assert_eq!(r.out.len(), 50);
        assert_eq!(r.instr, 100 * p.instr_move_tuple);
        assert_eq!(c.consumed(), 100);
        assert_eq!(c.emitted(), 50);
    }

    #[test]
    fn build_terminates_into_table() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let ht = arena.alloc();
        let mut c = PhysChain::compile(&[OpSpec::Build { table: ht }]);
        let r = c.run_batch(&tuples(10), &mut arena, &p);
        assert!(r.out.is_empty());
        assert_eq!(arena.get(ht).len(), 10);
        assert_eq!(r.instr, 10 * p.instr_move_tuple);
        assert_eq!(c.build_target(), Some(ht));
    }

    #[test]
    fn probe_fanout_and_costs() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let ht = arena.alloc();
        for t in tuples(4) {
            arena.get_mut(ht).insert(t);
        }
        arena.get_mut(ht).complete();
        let mut c = PhysChain::compile(&[OpSpec::Probe {
            table: ht,
            fanout: 2.0,
        }]);
        let r = c.run_batch(&tuples(10), &mut arena, &p);
        assert_eq!(r.out.len(), 20);
        assert_eq!(
            r.instr,
            10 * p.instr_hash_search + 20 * p.instr_produce_tuple
        );
    }

    #[test]
    #[should_panic(expected = "incomplete hash table")]
    fn probing_incomplete_table_panics() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let ht = arena.alloc();
        let mut c = PhysChain::compile(&[OpSpec::Probe {
            table: ht,
            fanout: 1.0,
        }]);
        let _ = c.run_batch(&tuples(1), &mut arena, &p);
    }

    #[test]
    #[should_panic(expected = "terminal operator")]
    fn build_mid_chain_rejected() {
        let _ = PhysChain::compile(&[
            OpSpec::Build { table: HtId(0) },
            OpSpec::Select { selectivity: 1.0 },
        ]);
    }

    #[test]
    fn full_chain_scan_probe_build() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let probed = arena.alloc();
        for t in tuples(8) {
            arena.get_mut(probed).insert(t);
        }
        arena.get_mut(probed).complete();
        let built = arena.alloc();
        let mut c = PhysChain::compile(&[
            OpSpec::Select { selectivity: 0.5 },
            OpSpec::Probe {
                table: probed,
                fanout: 3.0,
            },
            OpSpec::Build { table: built },
        ]);
        let r = c.run_batch(&tuples(100), &mut arena, &p);
        assert!(r.out.is_empty());
        assert_eq!(arena.get(built).len(), 150); // 100 × 0.5 × 3
        assert_eq!(c.probe_targets(), vec![probed]);
        assert_eq!(c.build_target(), Some(built));
    }

    #[test]
    fn estimate_matches_execution_cost() {
        let p = SimParams::default();
        let spec = [
            OpSpec::Select { selectivity: 0.5 },
            OpSpec::Probe {
                table: HtId(0),
                fanout: 3.0,
            },
        ];
        let est = estimate_chain(&spec, &p);
        // move(100) + 0.5·(search(100) + 3·produce(50)) = 100 + 125 = 225
        assert!((est.instr_per_source_tuple - 225.0).abs() < 1e-9);
        assert!((est.fanout_total - 1.5).abs() < 1e-9);

        // Execute and compare: 1000 source tuples.
        let mut arena = HashTableArena::new();
        let ht = arena.alloc();
        arena.get_mut(ht).insert(Tuple::new(0, RelId(1)));
        arena.get_mut(ht).complete();
        let mut c = PhysChain::compile(&[
            OpSpec::Select { selectivity: 0.5 },
            OpSpec::Probe {
                table: ht,
                fanout: 3.0,
            },
        ]);
        let r = c.run_batch(&tuples(1000), &mut arena, &p);
        assert_eq!(r.out.len(), 1500);
        assert_eq!(r.instr as f64, est.instr_per_source_tuple * 1000.0);
    }

    #[test]
    fn run_batch_into_matches_run_batch() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let ht = arena.alloc();
        for t in tuples(6) {
            arena.get_mut(ht).insert(t);
        }
        arena.get_mut(ht).complete();
        let spec = [
            OpSpec::Select { selectivity: 0.7 },
            OpSpec::Probe {
                table: ht,
                fanout: 2.5,
            },
            OpSpec::Select { selectivity: 0.9 },
        ];
        let mut a = PhysChain::compile(&spec);
        let mut b = PhysChain::compile(&spec);
        let mut out = Vec::new();
        for chunk in tuples(500).chunks(64) {
            let r = a.run_batch(chunk, &mut arena, &p);
            let instr = b.run_batch_into(chunk, &mut out, &mut arena, &p);
            assert_eq!(r.instr, instr);
            assert_eq!(r.out, out);
        }
        assert_eq!(a.consumed(), b.consumed());
        assert_eq!(a.emitted(), b.emitted());
    }

    /// Run one batch through `serial`, and the same batch morselized through
    /// forks of `parallel`, asserting outputs, instructions, and master state
    /// all match bit-for-bit.
    fn assert_morsel_batch_matches(
        serial: &mut PhysChain,
        parallel: &mut PhysChain,
        batch: &[Tuple],
        morsel: usize,
        arena: &mut HashTableArena,
        p: &SimParams,
    ) {
        let mut want = Vec::new();
        let want_instr = serial.run_batch_into(batch, &mut want, arena, p);

        let stats = parallel.snapshot_stats(arena);
        let mut got = Vec::new();
        let mut got_instr = 0;
        for (i, chunk) in batch.chunks(morsel).enumerate() {
            let mut cursor = parallel.fork_morsel((i * morsel) as u64, &stats);
            let mut part = Vec::new();
            got_instr += cursor.run_into(chunk, &mut part, &stats, p);
            got.extend_from_slice(&part);
        }
        let emitted = parallel.advance_source(batch.len() as u64, &stats);

        if let Some(ht) = parallel.build_target() {
            // Serial already inserted its copy; only sanity-check counts here
            // (the dedicated build test uses two arenas).
            assert_eq!(emitted, 0);
            let _ = ht;
        } else {
            assert_eq!(got, want, "morsel outputs diverge at morsel={morsel}");
            assert_eq!(emitted, want.len() as u64);
        }
        assert_eq!(got_instr, want_instr, "instruction counts diverge");
        assert_eq!(serial.consumed(), parallel.consumed());
        assert_eq!(serial.emitted(), parallel.emitted());
    }

    #[test]
    fn morsel_forks_match_serial_at_any_granularity() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let ht = arena.alloc();
        for t in tuples(6) {
            arena.get_mut(ht).insert(t);
        }
        arena.get_mut(ht).complete();
        let empty = arena.alloc();
        arena.get_mut(empty).complete();

        let specs: Vec<Vec<OpSpec>> = vec![
            vec![],
            vec![OpSpec::Select { selectivity: 0.37 }],
            vec![
                OpSpec::Select { selectivity: 0.7 },
                OpSpec::Probe {
                    table: ht,
                    fanout: 2.5,
                },
                OpSpec::Select { selectivity: 0.9 },
            ],
            vec![
                OpSpec::Probe {
                    table: ht,
                    fanout: 1.3,
                },
                OpSpec::Probe {
                    table: empty,
                    fanout: 4.0,
                },
            ],
        ];
        for spec in &specs {
            for &morsel in &[1usize, 7, 32, 64, 1000] {
                let mut serial = PhysChain::compile(spec);
                let mut parallel = PhysChain::compile(spec);
                // Several consecutive batches so forks start from a
                // mid-stream master state, not just from zero.
                for batch in tuples(500).chunks(157) {
                    assert_morsel_batch_matches(
                        &mut serial,
                        &mut parallel,
                        batch,
                        morsel,
                        &mut arena,
                        &p,
                    );
                }
            }
        }
    }

    #[test]
    fn partitioned_build_matches_serial_build() {
        let p = SimParams::default();
        for &morsel in &[1usize, 9, 50] {
            let mut arena_s = HashTableArena::new();
            let mut arena_p = HashTableArena::new();
            let probed_s = arena_s.alloc();
            let probed_p = arena_p.alloc();
            for t in tuples(5) {
                arena_s.get_mut(probed_s).insert(t);
                arena_p.get_mut(probed_p).insert(t);
            }
            arena_s.get_mut(probed_s).complete();
            arena_p.get_mut(probed_p).complete();
            let built_s = arena_s.alloc();
            let built_p = arena_p.alloc();

            let spec = |probed, built| {
                vec![
                    OpSpec::Select { selectivity: 0.8 },
                    OpSpec::Probe {
                        table: probed,
                        fanout: 1.7,
                    },
                    OpSpec::Build { table: built },
                ]
            };
            let mut serial = PhysChain::compile(&spec(probed_s, built_s));
            let mut parallel = PhysChain::compile(&spec(probed_p, built_p));

            let input = tuples(300);
            let want_instr = serial.run_batch(&input, &mut arena_s, &p).instr;

            let stats = parallel.snapshot_stats(&arena_p);
            let mut got_instr = 0;
            let mut parts: Vec<Vec<Tuple>> = Vec::new();
            for (i, chunk) in input.chunks(morsel).enumerate() {
                let mut cursor = parallel.fork_morsel((i * morsel) as u64, &stats);
                let mut part = Vec::new();
                got_instr += cursor.run_into(chunk, &mut part, &stats, &p);
                parts.push(part);
            }
            for part in &parts {
                arena_p.get_mut(built_p).absorb_partition(part);
            }
            let emitted = parallel.advance_source(input.len() as u64, &stats);

            assert_eq!(emitted, 0);
            assert_eq!(got_instr, want_instr);
            assert_eq!(serial.emitted(), parallel.emitted());
            let s = arena_s.get(built_s);
            let g = arena_p.get(built_p);
            assert_eq!(s.len(), g.len(), "morsel={morsel}");
            // Insert order must match exactly: pick() rotation depends on it.
            for i in 0..s.len() {
                assert_eq!(s.pick(i).unwrap(), g.pick(i).unwrap());
            }
        }
    }

    /// A generated chain on its own arena: `ops` are `(kind, x)` pairs
    /// (select / probe of a six-tuple table / probe of an empty table), split
    /// into two chains at `split` with `warm` tuples pushed through the front
    /// before [`PhysChain::concat`], so operator states start out of step the
    /// way a cancelled materialization leaves them.
    struct Rig {
        chain: PhysChain,
        arena: HashTableArena,
        built: Option<HtId>,
    }

    fn rig(ops: &[(u8, f64)], build: bool, split: usize, warm: u64) -> Rig {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let full = arena.alloc();
        for t in tuples(6) {
            arena.get_mut(full).insert(t);
        }
        arena.get_mut(full).complete();
        let empty = arena.alloc();
        arena.get_mut(empty).complete();
        let built = build.then(|| arena.alloc());
        let mut spec: Vec<OpSpec> = ops
            .iter()
            .map(|&(kind, x)| match kind {
                0 => OpSpec::Select {
                    selectivity: x / 3.0,
                },
                1 => OpSpec::Probe {
                    table: full,
                    fanout: x,
                },
                _ => OpSpec::Probe {
                    table: empty,
                    fanout: x,
                },
            })
            .collect();
        let back = spec.split_off(split.min(spec.len()));
        let mut front = PhysChain::compile(&spec);
        let _ = front.run_batch(&tuples(warm), &mut arena, &p);
        let mut back = back;
        back.extend(built.map(|table| OpSpec::Build { table }));
        let chain = PhysChain::concat(front, PhysChain::compile(&back));
        Rig {
            chain,
            arena,
            built,
        }
    }

    impl Rig {
        /// Run `batch` as morsels of `morsel` tuples and merge the way the
        /// executor does; returns what the serial batch would return.
        fn run_morsels(&mut self, batch: &[Tuple], morsel: usize) -> (Vec<Tuple>, u64) {
            let p = SimParams::default();
            let stats = self.chain.snapshot_stats(&self.arena);
            let (mut out, mut instr) = (Vec::new(), 0);
            for (i, chunk) in batch.chunks(morsel).enumerate() {
                let mut part = Vec::new();
                let mut cursor = self.chain.fork_morsel((i * morsel) as u64, &stats);
                instr += cursor.run_into(chunk, &mut part, &stats, &p);
                match self.built {
                    Some(ht) => self.arena.get_mut(ht).absorb_partition(&part),
                    None => out.extend_from_slice(&part),
                }
            }
            let emitted = self.chain.advance_source(batch.len() as u64, &stats);
            assert_eq!(emitted, out.len() as u64);
            (out, instr)
        }

        /// Everything a later batch could observe: counters, every probe's
        /// rotation counter, and the built table in insert order.
        fn state(&self) -> (u64, u64, Vec<u64>, Vec<Tuple>) {
            let picked = self.chain.ops.iter().filter_map(|op| match op {
                RunOp::Probe { picked, .. } => Some(*picked),
                _ => None,
            });
            let table = self.built.map(|ht| self.arena.get(ht));
            let rows = table.map_or(0, |t| t.len());
            (
                self.chain.consumed(),
                self.chain.emitted(),
                picked.collect(),
                (0..rows)
                    .map(|i| *table.unwrap().pick(i).unwrap())
                    .collect(),
            )
        }
    }

    proptest::proptest! {
        /// Serial batch ≡ one whole-batch cursor ≡ k morsel cursors, over
        /// generated chains (select-, probe- or build-first, empty build
        /// sides, concatenations), batch after batch.
        #[test]
        fn serial_batch_equals_one_cursor_equals_k_cursors(
            ops in proptest::collection::vec((0u8..3, 0.0f64..3.0), 0..5),
            build in proptest::prelude::any::<bool>(),
            split in 0usize..5,
            warm in 0u64..200,
            batches in proptest::collection::vec(0usize..300, 1..4),
            morsel in 1usize..130,
        ) {
            let p = SimParams::default();
            let mut serial = rig(&ops, build, split, warm);
            let mut whole = rig(&ops, build, split, warm);
            let mut split_up = rig(&ops, build, split, warm);
            for n in batches {
                let batch = tuples(n as u64);
                let r = serial.chain.run_batch(&batch, &mut serial.arena, &p);
                let want = (r.out, r.instr);
                proptest::prop_assert_eq!(&whole.run_morsels(&batch, n.max(1)), &want);
                proptest::prop_assert_eq!(&split_up.run_morsels(&batch, morsel), &want);
                proptest::prop_assert_eq!(whole.state(), serial.state());
                proptest::prop_assert_eq!(split_up.state(), serial.state());
            }
        }
    }

    #[test]
    fn batches_are_equivalent_to_one_shot() {
        let p = SimParams::default();
        let mut arena = HashTableArena::new();
        let spec = [OpSpec::Select { selectivity: 0.3 }];
        let mut whole = PhysChain::compile(&spec);
        let mut split = PhysChain::compile(&spec);
        let input = tuples(1000);
        let r1 = whole.run_batch(&input, &mut arena, &p);
        let mut out2 = 0;
        for chunk in input.chunks(37) {
            out2 += split.run_batch(chunk, &mut arena, &p).out.len();
        }
        assert_eq!(
            r1.out.len(),
            out2,
            "batch boundaries must not change results"
        );
    }
}
