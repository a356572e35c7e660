//! Pins what building a schedule allocates: the result — one block list per
//! message, one message list per step — plus scratch in proportion to the
//! rank count, never to the message count (see "What a builder may allocate"
//! in `collectives/builders.rs`). Measured with a per-thread counting wrapper
//! around the system allocator (tests are their own crates, so `bine-sched`'s
//! `#![forbid(unsafe_code)]` still holds for the library itself).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bine_sched::{algorithms, build, Collective};

thread_local! {
    /// Allocations requested by *this* thread, so tests running on parallel
    /// threads do not charge each other's windows. Const-initialised and
    /// without a destructor, so bumping it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: delegates directly to the system allocator; the per-thread
// counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations this thread requested while `body` ran.
fn allocations<T>(body: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = body();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn every_catalog_algorithm_allocates_for_its_schedule_plus_linear_scratch() {
    let mut over = Vec::new();
    let mut built = 0;
    for p in [64usize, 256] {
        for collective in Collective::ALL {
            for alg in algorithms(collective) {
                let (allocated, sched) = allocations(|| build(collective, alg.name(), p, 0));
                let sched = sched.expect("listed algorithms build at powers of two");
                let (messages, steps) = (sched.messages().count(), sched.num_steps());
                let bound = (messages + steps + 3 * p + 64) as u64;
                if allocated > bound {
                    over.push(format!(
                        "{}/{} p={p}: {allocated} allocations for {messages} messages in \
                         {steps} steps (bound {bound})",
                        collective.name(),
                        alg.name()
                    ));
                }
                built += 1;
            }
        }
    }
    assert!(built >= 2 * 30, "only {built} builds measured");
    assert!(over.is_empty(), "{}", over.join("\n"));
}
