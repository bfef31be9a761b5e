//! Simulated hash tables.
//!
//! The build side of every hash join materializes into a [`SimHashTable`]:
//! a count of its tuples, charged against the query-memory budget at the
//! Table 1 tuple size. Nothing reads a build tuple back: a probe's matches
//! come from the join's selectivity (§5.1) and carry the probe tuple, so a
//! probe reads only [`HtStat`]. Hash tables are shared between the chain
//! that builds them and the chain that probes them, so they live in a
//! [`HashTableArena`] indexed by [`HtId`] — chains hold ids, never
//! references.

use crate::tuple::Tuple;

/// Identifier of a hash table in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HtId(pub u32);

/// One hash table: the fully materialized build side of a join, kept as
/// its size.
#[derive(Debug, Default)]
pub struct SimHashTable {
    len: u64,
    complete: bool,
}

impl SimHashTable {
    /// An empty, still-building table.
    pub fn new() -> Self {
        SimHashTable::default()
    }

    /// Insert one build tuple.
    ///
    /// # Panics
    /// Panics if the table was already marked complete: the blocking edge
    /// semantics of §2.2 forbid inserting after a consumer started probing.
    pub fn insert(&mut self, _t: Tuple) {
        self.absorb(1);
    }

    /// Number of build tuples.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no tuples were inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark the build finished; probing may begin.
    pub fn complete(&mut self) {
        self.complete = true;
    }

    /// Whether the build finished.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Simulated memory footprint given the Table 1 tuple size.
    pub fn footprint_bytes(&self, tuple_bytes: u32) -> u64 {
        self.len() * tuple_bytes as u64
    }

    /// Cheap copyable view of the table for morsel workers (see [`HtStat`]).
    pub fn stat(&self) -> HtStat {
        HtStat {
            len: self.len(),
            complete: self.complete,
        }
    }

    /// Add `n` build tuples: one serial batch, or one partition collected
    /// by a morsel worker.
    ///
    /// Morsel-parallel execution of a build chain never touches the shared
    /// table from worker threads: each morsel collects its build-destined
    /// tuples into a private output vector, and the merge step adds each
    /// partition's size.
    ///
    /// # Panics
    /// Panics if the table was already marked complete.
    pub fn absorb(&mut self, n: u64) {
        assert!(!self.complete, "insert into completed hash table");
        self.len += n;
    }
}

/// Copyable snapshot of the probe-relevant state of one hash table.
///
/// Synthetic probes never read the matched build tuple (the probe re-emits
/// its own input tuple), so the operator interpreter only needs the table's
/// length (the empty-table skip) and completeness flag (asserted before
/// probing). This is what lets probe morsels run on plain worker threads
/// with no shared arena, through the same code as a serial batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtStat {
    /// Number of build tuples.
    pub len: u64,
    /// Whether the build finished (probing requires this).
    pub complete: bool,
}

/// Snapshot of every table a chain's probes target, taken before a batch is
/// scattered into morsels. Indexed by [`HtId`].
#[derive(Debug, Clone, Default)]
pub struct HtStats {
    entries: Vec<(HtId, HtStat)>,
}

impl HtStats {
    /// Snapshot the given tables out of `arena`.
    pub fn capture(arena: &HashTableArena, ids: &[HtId]) -> Self {
        HtStats {
            entries: ids.iter().map(|&id| (id, arena.get(id).stat())).collect(),
        }
    }

    /// Look up the snapshot of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not captured — forking a chain with a probe target
    /// missing from the snapshot is a logic error, not a runtime condition.
    pub fn get(&self, id: HtId) -> HtStat {
        self.entries
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("no snapshot for {id:?}"))
    }
}

/// Owner of all hash tables of one query execution.
#[derive(Debug, Default)]
pub struct HashTableArena {
    tables: Vec<SimHashTable>,
}

impl HashTableArena {
    /// An empty arena.
    pub fn new() -> Self {
        HashTableArena::default()
    }

    /// Allocate a fresh (building) table.
    pub fn alloc(&mut self) -> HtId {
        self.tables.push(SimHashTable::new());
        HtId(self.tables.len() as u32 - 1)
    }

    /// Shared access.
    pub fn get(&self, id: HtId) -> &SimHashTable {
        &self.tables[id.0 as usize]
    }

    /// Exclusive access.
    pub fn get_mut(&mut self, id: HtId) -> &mut SimHashTable {
        &mut self.tables[id.0 as usize]
    }

    /// Number of tables allocated.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no table was allocated.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Empty a table whose consumers are done; the id stays valid but the
    /// table reads as empty.
    pub fn discard(&mut self, id: HtId) {
        self.tables[id.0 as usize].len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::RelId;

    fn t(key: u64) -> Tuple {
        Tuple::new(key, RelId(0))
    }

    #[test]
    fn insert_and_absorb_add_to_the_count() {
        let mut ht = SimHashTable::new();
        assert!(ht.is_empty());
        ht.insert(t(7));
        ht.absorb(2);
        ht.insert(t(3));
        assert_eq!(ht.len(), 4);
        assert!(!ht.is_empty());
    }

    #[test]
    fn footprint_uses_table1_tuple_size() {
        let mut ht = SimHashTable::new();
        for k in 0..100 {
            ht.insert(t(k));
        }
        assert_eq!(ht.footprint_bytes(40), 4_000);
    }

    #[test]
    #[should_panic(expected = "insert into completed")]
    fn insert_after_complete_panics() {
        let mut ht = SimHashTable::new();
        ht.complete();
        ht.insert(t(1));
    }

    #[test]
    fn arena_allocates_distinct_ids() {
        let mut a = HashTableArena::new();
        let x = a.alloc();
        let y = a.alloc();
        assert_ne!(x, y);
        a.get_mut(x).insert(t(1));
        assert_eq!(a.get(x).len(), 1);
        assert_eq!(a.get(y).len(), 0);
    }

    #[test]
    fn discard_frees_contents_but_keeps_id() {
        let mut a = HashTableArena::new();
        let x = a.alloc();
        a.get_mut(x).insert(t(1));
        a.get_mut(x).insert(t(2));
        a.discard(x);
        assert_eq!(a.get(x).len(), 0);
        assert!(a.get(x).is_empty());
        assert_eq!(a.len(), 1);
    }
}
