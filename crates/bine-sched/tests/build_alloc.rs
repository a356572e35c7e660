//! Pins what building a schedule allocates: per step, the step's message
//! headers and its block arena, each sized exactly once; per build, scratch
//! in proportion to the rank count, never to the message count (see "What a
//! builder may allocate" in `collectives/builders.rs`). Measured with a
//! per-thread counting wrapper around the system allocator (tests are their
//! own crates, so `bine-sched`'s `#![forbid(unsafe_code)]` still holds for
//! the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::{allocations_in as allocations, bytes_in as bytes};

use bine_sched::catalog::Source;
use bine_sched::{walk, BlockId, Collective, Request};

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
        let bound = (2 * steps + 3 * request.p + 64) as u64;
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
/// composed allreduces — and for the alltoalls two sets of `p` holding lists
/// of `p` 12-byte blocks beside the responsibilities.
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
