//! Pins what lowering allocates: `Schedule::compile_segmented` interns chunks
//! as it cuts them, so its allocation count is the compiled form's handful
//! of arrays whatever the chunk count — not one `Vec` per chunk of an owned
//! segmented schedule — and counting a message's contiguous regions does not
//! allocate when its blocks are listed in ascending order. Measured with a
//! per-thread counting wrapper around the system allocator (tests are their
//! own crates, so `bine-sched`'s `#![forbid(unsafe_code)]` still holds for
//! the library itself).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bine_sched::collectives::{allreduce, AllreduceAlg};
use bine_sched::{BlockId, Message, TransferKind};

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
fn lowering_allocates_for_the_compiled_form_not_per_chunk() {
    let sched = allreduce(256, AllreduceAlg::BineLarge);
    let (at_4, _) = allocations(|| sched.compile_segmented(4));
    let (at_16, lowered) = allocations(|| sched.compile_segmented(16));
    assert_eq!(lowered.num_sends(), 40_448);
    // One owned `Message` per send alone would be 40 448 block lists.
    assert!(
        at_16 <= 512,
        "lowering at 16 chunks allocated {at_16} times"
    );
    assert!(
        at_16 <= at_4,
        "{at_4} allocations at 4 chunks grew to {at_16} at 16"
    );
}

#[test]
fn a_message_over_ascending_blocks_allocates_nothing_beyond_its_list() {
    let blocks: Vec<BlockId> = (0..128).map(|i| BlockId::Segment(2 * i + i / 7)).collect();
    let (allocated, message) =
        allocations(|| Message::new(0, 1, blocks, TransferKind::Reduce, 512));
    assert_eq!(allocated, 0);
    assert!(message.segments > 1);
}
