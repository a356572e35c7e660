//! Pins what lowering allocates: `Schedule::compile_segmented` interns chunks
//! as it cuts them, so its allocation count is the compiled form's handful
//! of arrays whatever the chunk count — not one `Vec` per chunk of an owned
//! segmented schedule — and counting a message's contiguous regions does not
//! allocate when its blocks are listed in ascending order. Measured with a
//! per-thread counting wrapper around the system allocator (tests are their
//! own crates, so `bine-sched`'s `#![forbid(unsafe_code)]` still holds for
//! the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::allocations_in as allocations;

use bine_sched::collectives::{allreduce, AllreduceAlg};
use bine_sched::{BlockId, Message, TransferKind};

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
