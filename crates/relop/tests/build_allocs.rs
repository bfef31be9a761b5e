//! A hash join's build side costs no heap allocation.
//!
//! The probe reads only a table's length and completeness (matches come from
//! the join's selectivity, §5.1), so a build adds a batch's size to the
//! table's count: once the chain's output buffer holds a batch, building
//! allocates nothing, however large the build. This binary installs a
//! counting global allocator, so it holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use dqs_relop::{HashTableArena, OpSpec, PhysChain, RelId, Tuple};
use dqs_sim::SimParams;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the measuring thread counts, so the test harness's own
    /// allocations on other threads never reach the tally.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` contract is exactly the one `System` requires;
// counting touches only an atomic and a thread-local `Cell`, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn building_ten_thousand_tuples_allocates_nothing() {
    let params = SimParams::default();
    let mut arena = HashTableArena::new();
    let ht = arena.alloc();
    let mut chain = PhysChain::compile(&[OpSpec::Build { table: ht }]);
    let input: Vec<Tuple> = (0..10_000).map(|k| Tuple::new(k, RelId(0))).collect();
    let mut out = Vec::with_capacity(128);

    COUNTING.with(|c| c.set(true));
    for batch in input.chunks(128) {
        chain.run_batch_into(batch, &mut out, &mut arena, &params);
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(arena.get(ht).len(), 10_000);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "building 10 000 tuples made {allocs} allocations"
    );
}
