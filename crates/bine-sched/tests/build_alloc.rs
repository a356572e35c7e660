//! Pins what building a schedule allocates: per step, the step's message
//! headers and its block arena, each sized exactly once; per build, a
//! handful of scratch tables, never one per rank or per message (see "What a
//! builder may allocate" in `collectives/builders.rs`); and for the
//! ForestColl search, a bounded handful per peel, never a table per rank.
//! Measured with a
//! per-thread counting wrapper around the system allocator (tests are their
//! own crates, so `bine-sched`'s `#![forbid(unsafe_code)]` still holds for
//! the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::{allocations_in as allocations, bytes_in as bytes};

use bine_sched::catalog::Source;
use bine_sched::{walk, BlockId, Collective, Request, SynthSpec, TopologyView};

/// Bytes a step spends per message header.
const HEADER_BYTES: u64 = 24;

/// Every regular name, listed or not, bare, at the first root.
fn catalog_builds() -> impl Iterator<Item = Request> {
    walk(&[64, 256]).into_iter().filter(|request| {
        matches!(request.source, Source::Regular(_)) && request.segments == 1 && request.root == 0
    })
}

#[test]
fn every_catalog_algorithm_allocates_for_its_schedule_plus_linear_scratch() {
    let mut over = Vec::new();
    let mut built = 0;
    for request in catalog_builds() {
        let (allocated, sched) = allocations(|| request.build());
        let sched = sched.expect("every row builds at powers of two");
        let (messages, steps) = (sched.messages().count(), sched.num_steps());
        let bound = (2 * steps + 64) as u64;
        if allocated > bound {
            over.push(format!(
                "{}: {allocated} allocations for {messages} messages in {steps} steps \
                 (bound {bound})",
                request.label()
            ));
        }
        built += 1;
    }
    assert_eq!(built, 2 * 37, "builds measured");
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// The `4·p²`-byte tables a builder may hold as scratch: a butterfly's
/// responsibilities, the allgather's holdings — at most two, for the
/// composed allreduces — and for the alltoalls two flat tables of `p²`
/// 12-byte blocks beside the responsibilities.
fn square_tables(collective: Collective) -> u64 {
    if collective == Collective::Alltoall {
        7
    } else {
        2
    }
}

#[test]
fn every_catalog_algorithm_requests_its_schedule_at_exact_size_plus_scratch() {
    // A step that grows its headers or its arena instead of sizing them
    // requests up to twice their bytes again; no scratch term absorbs that.
    let mut over = Vec::new();
    for request in catalog_builds() {
        let (requested, sched) = bytes(|| request.build());
        let sched = sched.expect("every row builds at powers of two");
        let blocks: usize = sched.steps.iter().map(|step| step.blocks().len()).sum();
        let blocks = (blocks * std::mem::size_of::<BlockId>()) as u64;
        let (messages, steps) = (sched.messages().count() as u64, sched.num_steps() as u64);
        let p = request.p as u64;
        let scratch = square_tables(request.collective) * 4 * p * p + 128 * (p + steps) + 16384;
        let bound = blocks + messages * HEADER_BYTES + scratch;
        if requested > bound {
            over.push(format!(
                "{}: {requested} B for {blocks} B of blocks and {messages} messages in \
                 {steps} steps (bound {bound})",
                request.label()
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// What synthesizing a `k`-tree ForestColl broadcast of `steps` steps may
/// allocate on a view of `e` edges with two distinct capacities. The
/// threshold search builds the view's flat adjacency (2), collects and
/// sorts the capacities (2) and peels 3 times (the lowest capacity, one
/// bisection step, the winner). A peel holds its used-edge table and tree
/// list (2) and per tree a reach table, the tree and a heap of at most `e`
/// entries, which doubles at most ⌈log2 e⌉ times (3 + ⌈log2 e⌉). The step
/// packer allocates two port tables and the step's headers and blocks per
/// step (4), and 64 covers its per-tree tables, the name and its lists'
/// doublings. An adjacency rebuilt per peel costs more than p per peel.
fn forest_bound(k: u64, e: usize, steps: usize) -> u64 {
    let heap_doublings = e.next_power_of_two().trailing_zeros() as u64;
    4 + 3 * (2 + k * (3 + heap_doublings)) + 4 * steps as u64 + 64
}

#[test]
fn a_forest_peels_over_one_adjacency_not_a_table_per_rank() {
    for size in [16usize, 64] {
        let view = TopologyView::clustered(&[size; 4], (100.0, 0.3), (5.0, 25.0)).unwrap();
        let forest = SynthSpec::ForestColl { k: 2 };
        let (allocated, sched) = allocations(|| forest.synthesize(Collective::Broadcast, &view, 0));
        let steps = sched.expect("two trees fit").num_steps();
        let bound = forest_bound(2, view.edges().len(), steps);
        assert!(
            allocated <= bound,
            "p={}: the forest allocated {allocated} times in {steps} steps (bound {bound})",
            view.num_ranks()
        );
    }
}
