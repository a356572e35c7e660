//! Pins what building a schedule allocates: the result — one block list per
//! message, one message list per step — plus scratch in proportion to the
//! rank count, never to the message count (see "What a builder may allocate"
//! in `collectives/builders.rs`). Measured with a per-thread counting wrapper
//! around the system allocator (tests are their own crates, so `bine-sched`'s
//! `#![forbid(unsafe_code)]` still holds for the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::allocations_in as allocations;

use bine_sched::catalog::Source;
use bine_sched::walk;

#[test]
fn every_catalog_algorithm_allocates_for_its_schedule_plus_linear_scratch() {
    let mut over = Vec::new();
    let mut built = 0;
    // Every regular name, listed or not, bare, at the first root.
    for request in walk(&[64, 256]) {
        if !matches!(request.source, Source::Regular(_)) || request.segments > 1 || request.root > 0
        {
            continue;
        }
        let (allocated, sched) = allocations(|| request.build());
        let sched = sched.expect("every row builds at powers of two");
        let (messages, steps) = (sched.messages().count(), sched.num_steps());
        let bound = (messages + steps + 3 * request.p + 64) as u64;
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
