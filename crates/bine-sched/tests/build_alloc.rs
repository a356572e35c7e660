//! Pins what building a schedule allocates: the result — one block list per
//! message, one message list per step — plus scratch in proportion to the
//! rank count, never to the message count (see "What a builder may allocate"
//! in `collectives/builders.rs`). Measured with a per-thread counting wrapper
//! around the system allocator (tests are their own crates, so `bine-sched`'s
//! `#![forbid(unsafe_code)]` still holds for the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::allocations_in as allocations;

use bine_sched::{algorithms, build, Collective};

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
