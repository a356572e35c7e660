//! Pins what the dense conversion and a one-lane pool run allocate: executor
//! state is sized by the blocks a rank touches, not by every block the
//! schedule interned, and the pool adds nothing to the step kernel. Measured
//! with a per-thread counting wrapper around the system allocator (tests are
//! their own crates, so `bine-exec`'s `#![forbid(unsafe_code)]` still holds
//! for the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::bytes_in as bytes_requested;

use std::sync::Arc;

use bine_exec::{compiled, ExecutorPool, Workload};
use bine_sched::collectives::{allreduce, alltoall, AllreduceAlg, AlltoallAlg};

#[test]
fn to_dense_allocates_for_touched_blocks_not_interned_ones() {
    let p = 64;
    let sched = alltoall(p, AlltoallAlg::Bine);
    let compiled = sched.compile();
    let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
    // The layout is derived once per compiled handle, not per request.
    compiled.slot_layout();

    let before = counting::bytes();
    let dense = compiled::to_dense(&compiled, initial);
    let allocated = counting::bytes() - before;

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

#[test]
fn a_one_lane_pool_run_allocates_what_the_compiled_executor_does() {
    // One lane is the calling thread in the compiled executor's own loop:
    // no boxed jobs, no batch status, no second staging buffer per step.
    let sched = alltoall(64, AlltoallAlg::Bine);
    let handle = Arc::new(sched.compile());
    let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
    handle.slot_layout();
    let pool = ExecutorPool::new(1);

    let mut dense = compiled::to_dense(&handle, initial.clone());
    let (compiled_bytes, ()) = bytes_requested(|| compiled::run_dense(&handle, &mut dense));
    let dense = compiled::to_dense(&handle, initial);
    let (pool_bytes, finals) = bytes_requested(|| pool.run_dense(&handle, dense));
    assert_eq!(finals.len(), 64);
    assert!(
        pool_bytes <= compiled_bytes + 64,
        "pool requested {pool_bytes} B, compiled::run_dense {compiled_bytes} B"
    );
}

#[test]
fn a_block_sent_and_reduced_in_one_step_is_copied_once_per_pair() {
    // Recursive doubling over inputs the caller still holds: both partners
    // of a step send the block they also reduce into. The receiver takes
    // the staged reference over, so whichever partner applies first copies
    // on write and the other sums in place — on the pool as in
    // `compiled::run`. A staging buffer that kept its references through
    // the apply phase would make both copy.
    let sched = allreduce(16, AllreduceAlg::BineSmall);
    let handle = Arc::new(sched.compile());
    let shared = Workload::for_schedule(&sched, 4096).initial_state(&sched);
    handle.slot_layout();
    let pool = ExecutorPool::new(1);

    let (compiled_bytes, finals) = bytes_requested(|| compiled::run(&handle, shared.clone()));
    let (pool_bytes, pooled) = bytes_requested(|| pool.run(&handle, shared.clone()));
    assert_eq!(pooled, finals);
    let payload = 4096 * 16 * 8;
    assert!(compiled_bytes > payload, "the reduction copies on write");
    assert!(
        pool_bytes.abs_diff(compiled_bytes) < payload,
        "pool requested {pool_bytes} B, compiled::run {compiled_bytes} B"
    );
}
