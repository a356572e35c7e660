//! Pins what the dense conversion allocates: executor state is sized by the
//! blocks a rank touches, not by every block the schedule interned. Measured
//! with a per-thread counting wrapper around the system allocator (tests are
//! their own crates, so `bine-exec`'s `#![forbid(unsafe_code)]` still holds
//! for the library itself).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bine_exec::{compiled, Workload};
use bine_sched::collectives::{alltoall, AlltoallAlg};

thread_local! {
    /// Bytes requested by *this* thread, so tests running on parallel
    /// threads do not charge each other's windows. Const-initialised and
    /// without a destructor, so bumping it never allocates itself.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: delegates directly to the system allocator; the per-thread
// counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

#[test]
fn to_dense_allocates_for_touched_blocks_not_interned_ones() {
    let p = 64;
    let sched = alltoall(p, AlltoallAlg::Bine);
    let compiled = sched.compile();
    let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
    // The layout is derived once per compiled handle, not per request.
    compiled.slot_layout();

    let before = BYTES.with(Cell::get);
    let dense = compiled::to_dense(&compiled, initial);
    let allocated = BYTES.with(Cell::get) - before;

    // One 8-byte slot per interned block per rank — what a global-index slot
    // table costs (just under 2 MiB here) — against a budget of an eighth
    // of it.
    let global_table = (p * compiled.num_blocks() * 8) as u64;
    assert!(
        allocated < global_table / 8,
        "to_dense allocated {allocated} B, a global slot table is {global_table} B"
    );
    assert_eq!(dense.len(), p);
}
