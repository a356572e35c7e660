//! Pins what lowering allocates: `Schedule::compile_segmented` interns chunks
//! as it cuts them, so its allocation count is the compiled form's handful
//! of arrays whatever the chunk count or the step count — not one `Vec` per
//! chunk of an owned segmented schedule, nor one per step — and counting a
//! message's contiguous regions does not allocate when its blocks are listed
//! in ascending order. Measured with a
//! per-thread counting wrapper around the system allocator (tests are their
//! own crates, so `bine-sched`'s `#![forbid(unsafe_code)]` still holds for
//! the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::allocations_in as allocations;

use bine_sched::catalog::Source;
use bine_sched::collectives::{
    allreduce, alltoall, reduce, reduce_scatter, AllreduceAlg, AlltoallAlg, ReduceAlg,
    ReduceScatterAlg,
};
use bine_sched::{walk, BlockId, Collective, Schedule, Step, TransferKind};

#[test]
fn lowering_allocates_for_the_compiled_form_not_per_chunk() {
    let sched = allreduce(256, AllreduceAlg::BineLarge);
    let (at_4, _) = allocations(|| sched.compile_segmented(4));
    let (at_16, lowered) = allocations(|| sched.compile_segmented(16));
    assert_eq!(lowered.num_sends(), 40_448);
    // One owned block list per send alone would be 40 448 allocations.
    assert!(
        at_16 <= 512,
        "lowering at 16 chunks allocated {at_16} times"
    );
    assert!(
        at_16 <= at_4,
        "{at_4} allocations at 4 chunks grew to {at_16} at 16"
    );
    // Six arrays, the name, the segment table and its ids (9, as at one
    // chunk), and the chunk plan's flags and sort buffer: 11, where a flag
    // list per base step took 26 and a hash-map interner 39.
    assert!(at_16 <= 11, "lowering at 16 chunks allocated {at_16} times");
}

#[test]
fn lowering_at_one_chunk_allocates_nothing_per_step() {
    // At one chunk no message is cut and no chunk plan is made.
    let long = reduce(64, 0, ReduceAlg::ReduceScatterGather);
    let short = reduce_scatter(64, ReduceScatterAlg::RecursiveHalving);
    assert_eq!((long.num_steps(), short.num_steps()), (13, 6));
    let (at_13, _) = allocations(|| long.compile());
    let (at_6, _) = allocations(|| short.compile());
    assert_eq!(
        at_13, at_6,
        "13 steps lowered in {at_13} allocations, 6 in {at_6}"
    );
}

#[test]
fn a_chunk_plan_allocates_per_lowering_not_per_message() {
    // The plan's flags and one sort buffer that out-of-order block lists
    // grow. A buffer per message and per chunk read 1 346 more allocations
    // for `alltoall(64, bine)` cut 16 ways.
    let mut over = Vec::new();
    let bare = walk(&[16, 64]).into_iter().filter(|request| {
        matches!(request.source, Source::Regular(_)) && request.segments == 1 && request.root == 0
    });
    for request in bare {
        let sched = request.build().expect("every row builds at powers of two");
        let (whole, _) = allocations(|| sched.compile());
        for chunks in [2, 16] {
            let (cut, _) = allocations(|| sched.compile_segmented(chunks));
            if cut > whole + 3 {
                over.push(format!(
                    "{} at {chunks}: {cut}, {whole} whole",
                    request.label()
                ));
            }
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}

#[test]
fn interning_the_p_squared_blocks_of_an_alltoall_allocates_once_per_table() {
    // The hash-map interner grew by doubling: 46 allocations, 7.2 MB. The
    // pairwise table comes with room for its ids: 17 allocations, 2.2 MB.
    let sched = alltoall(256, AlltoallAlg::Bine);
    let (allocated, lowered) = allocations(|| sched.compile());
    let (bytes, _) = counting::bytes_in(|| sched.compile());
    assert!(lowered.num_blocks() >= 256 * 255);
    assert!(allocated <= 17, "lowering allocated {allocated} times");
    assert!(bytes <= 2_200_000, "lowering requested {bytes} B");
}

#[test]
fn ids_outside_the_rank_range_size_no_table() {
    // `Segment(u32::MAX)` would be a 16 GiB table if an id sized one, and
    // `Pairwise { 4, 0 }` would reach past the p² cells.
    let mut sched = Schedule::new(4, Collective::Alltoall, "strays", 0);
    let strays = [
        BlockId::Segment(u32::MAX),
        BlockId::Pairwise { origin: 4, dest: 0 },
    ];
    let mut step = Step::new();
    step.push_with_segments(0, 1, strays, TransferKind::Copy, 1);
    sched.push_step(step);
    let (allocated, compiled) = allocations(|| sched.compile());
    let (bytes, _) = counting::bytes_in(|| sched.compile());
    assert_eq!(compiled.num_blocks(), 2);
    assert!(allocated <= 12, "lowering allocated {allocated} times");
    assert!(bytes <= 1024, "lowering requested {bytes} B");
    assert!(matches!(
        sched.validate(),
        Err(bine_sched::ValidationError::BlockOutOfRange { .. })
    ));
}

#[test]
fn a_message_over_ascending_blocks_allocates_nothing_beyond_its_list() {
    let blocks = (0..128).map(|i| BlockId::Segment(2 * i + i / 7));
    let mut step = Step::with_capacity(1, blocks.len());
    let (allocated, ()) = allocations(|| step.push(0, 1, blocks, TransferKind::Reduce));
    assert_eq!(allocated, 0);
    assert!(step.messages().all(|m| m.segments > 1));
}
