//! Pins what the dense conversion and a pool run allocate: executor
//! state is sized by the blocks a rank touches, not by every block the
//! schedule interned, entering it from map form allocates one slot table
//! per run, not a row per rank — none once the thread keeps one large
//! enough — a run holds each payload once, leaving
//! dense form — and entering it again with the finals — allocates nothing,
//! the pool adds nothing to the step kernel, a run stages in one
//! allocation, the block walk of a large reduction allocates what the step
//! walk does, neither stages an identity move, a reducing run
//! allocates one arena for all its sums, the plan writes a sum into
//! the room a freed sum left, and what a warm run allocates does not
//! depend on which runs came before it on its thread. Measured with a
//! per-thread counting wrapper around the system allocator (tests are their
//! own crates, so `bine-exec`'s `#![forbid(unsafe_code)]` still holds for
//! the library itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::bytes_in as bytes_requested;

use std::collections::HashSet;
use std::sync::Arc;

use bine_exec::{compiled, BlockStore, ExecutorPool, Workload};
use bine_sched::collectives::{
    allgather, allreduce, alltoall, gather, reduce_scatter, AllgatherAlg, AllreduceAlg,
    AlltoallAlg, GatherAlg, ReduceScatterAlg,
};
use bine_sched::{
    BlockId, Collective, CompiledSchedule, NonContigStrategy, Schedule, Step, TransferKind,
    WalkOrder,
};

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
fn to_dense_of_map_form_input_allocates_per_run_not_per_rank() {
    // Re-keying looks each block up in the interner's tables and moves it
    // into the run's table: per run its `Arc`, its one slot table for every
    // rank and its list of the caller's payloads; nothing per rank, nothing
    // per block — what a rank holds but never moves stays in its map, in
    // place. The slot table and the payload list are those a dropped table
    // left on the thread once they are large enough, so a warm thread
    // allocates the `Arc` alone, the same every time (while a run sized its
    // own, 4 B per slot and 8 B per payload more).
    let mut arcs = Vec::new();
    for p in [16, 64, 256] {
        for sched in [
            alltoall(p, AlltoallAlg::Bine),
            allgather(p, AllgatherAlg::Bine),
            reduce_scatter(p, ReduceScatterAlg::Bine(NonContigStrategy::Permute)),
        ] {
            let what = format!("{:?} {} p={p}", sched.collective, sched.algorithm);
            let handle = sched.compile();
            handle.slot_layout();
            let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
            drop(compiled::to_dense(&handle, initial.clone()));
            let entering = || compiled::to_dense(&handle, initial);
            let (allocated, (bytes, dense)) =
                counting::allocations_in(|| bytes_requested(entering));
            assert_eq!(dense.len(), p);
            assert_eq!(allocated, 1, "{what}: to_dense allocated {allocated} times");
            arcs.push(bytes);
        }
    }
    assert!(arcs.windows(2).all(|w| w[0] == w[1]), "{arcs:?}");
}

#[test]
fn a_non_reducing_run_holds_each_input_payload_once() {
    // However many ranks hold a block on its way — all of them at the end
    // of an allgather, those it passes through in an alltoall, which ends
    // with each block at its destination alone — the run's payload table
    // holds its payload once: the caller's reference plus the table's.
    let p = 256;
    for (sched, ends_at) in [
        (allgather(p, AllgatherAlg::Bine), p),
        (alltoall(p, AlltoallAlg::Bine), 1),
    ] {
        let what = format!("{:?} {}", sched.collective, sched.algorithm);
        let handle = sched.compile();
        let input = Workload::for_schedule(&sched, 1).initial_state(&sched);
        let finals = compiled::run(&handle, input.clone());
        let holdings = |stores: &[BlockStore]| stores.iter().map(BlockStore::len).sum();
        let (held_in, held_out): (usize, usize) = (holdings(&input), holdings(&finals));
        assert_eq!(
            held_out,
            ends_at * held_in,
            "{what}: {held_in} → {held_out} holdings"
        );
        for (id, payload) in input.into_iter().flat_map(BlockStore::into_blocks) {
            assert_eq!(Arc::strong_count(&payload), 2, "{what}: {id:?}");
        }
    }
}

#[test]
fn leaving_dense_form_allocates_nothing() {
    // Finals stay under the handle's key table: `from_dense` hands every
    // rank's slots over as they are — the ranks of a gather tree that end up
    // holding nothing included — and `to_dense` takes them straight back.
    for p in [16, 256] {
        for sched in [
            allgather(p, AllgatherAlg::Bine),
            alltoall(p, AlltoallAlg::Bine),
            gather(p, 0, GatherAlg::Bine),
        ] {
            let what = format!("{:?} {} p={p}", sched.collective, sched.algorithm);
            let handle = sched.compile();
            let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
            let mut dense = compiled::to_dense(&handle, initial);
            compiled::run_dense(&handle, &mut dense);
            let leaving = || compiled::from_dense(&handle, dense);
            let (allocated, (bytes, finals)) =
                counting::allocations_in(|| bytes_requested(leaving));
            assert_eq!((allocated, bytes), (0, 0), "from_dense: {what}");
            assert!(finals.iter().any(|store| !store.is_empty()), "{what}");
            let entering = || compiled::to_dense(&handle, finals);
            let (allocated, again) = counting::allocations_in(entering);
            assert_eq!(allocated, 0, "to_dense of the handle's own finals: {what}");
            assert_eq!(again.len(), p);
        }
    }
}

#[test]
fn a_warm_pool_run_allocates_what_entering_and_running_do() {
    // `run` = `to_dense` + `run_dense` + `from_dense`, and the last is free.
    let sched = alltoall(256, AlltoallAlg::Bine);
    let handle = Arc::new(sched.compile());
    let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
    let pool = ExecutorPool::global();
    drop(pool.run(&handle, initial.clone()));

    let staged = initial.clone();
    let (entering, dense) = counting::allocations_in(|| compiled::to_dense(&handle, staged));
    let (running, dense) = counting::allocations_in(|| pool.run_dense(&handle, dense));
    drop(dense);
    let (whole, finals) = counting::allocations_in(|| pool.run(&handle, initial));
    assert_eq!(finals.len(), 256);
    assert!(
        whole <= entering + running,
        "run: {whole} allocations, to_dense {entering} + run_dense {running}"
    );
}

#[test]
fn a_one_lane_pool_run_allocates_what_the_compiled_executor_does() {
    // The pool is the calling thread in the compiled executor's own loop:
    // no boxed jobs, no batch status, no second staging buffer per step.
    let sched = alltoall(64, AlltoallAlg::Bine);
    let handle = Arc::new(sched.compile());
    let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
    handle.slot_layout();
    let pool = ExecutorPool::global();

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
    let pool = ExecutorPool::global();

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

/// Allocations and bytes of one `compiled::run_dense` of `sched` on `handle`
/// at `elems` elements per block, over inputs the caller still holds (so
/// every first reduction into a block copies on write).
fn run_dense_cost(sched: &Schedule, handle: &CompiledSchedule, elems: usize) -> (u64, u64) {
    let shared = Workload::for_schedule(sched, elems).initial_state(sched);
    let mut dense = compiled::to_dense(handle, shared.clone());
    let counted = || bytes_requested(|| compiled::run_dense(handle, &mut dense));
    let (allocations, (bytes, ())) = counting::allocations_in(counted);
    (allocations, bytes)
}

#[test]
fn a_warm_non_reducing_run_allocates_its_staging_once() {
    // A run moving payloads allocates its staging buffer and nothing else,
    // sized once for the step that stages the most
    // (`CompiledSchedule::max_staged`) — on a thread that kept none large
    // enough: a walk leaves its staging to the next, so a warm run
    // allocates nothing. Grown by doubling from empty it took one
    // allocation per doubling on every run, and then one per run.
    for p in [16, 64, 256] {
        for sched in [
            allgather(p, AllgatherAlg::Bine),
            alltoall(p, AlltoallAlg::Bine),
        ] {
            let handle = sched.compile();
            handle.slot_layout();
            let what = format!("{:?} {} p={p}", sched.collective, sched.algorithm);
            let (first, _) = fresh_thread(|| run_dense_cost(&sched, &handle, 1));
            assert_eq!(first, 1, "{what}: {first} allocations on a fresh thread");
            run_dense_cost(&sched, &handle, 1);
            let (warm, _) = run_dense_cost(&sched, &handle, 1);
            assert_eq!(warm, 0, "{what}: {warm} allocations once warm");
        }
    }
}

/// `body`'s result, run on a thread of its own: one whose spare holds no
/// buffer, so that the run allocates every buffer it uses.
fn fresh_thread<T: Send>(body: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(body).join().expect("no panic"))
}

#[test]
fn what_a_warm_run_allocates_does_not_depend_on_the_runs_before_it() {
    // Two handles of different sizes — every buffer a run takes from its
    // thread's spare larger for `large`, its arena in `large` alone — run
    // in the orders A B A and B A B, each on a fresh thread after one run
    // of each: every run allocates the same, its table's `Arc` and nothing
    // else, whichever ran before it. A slot table shrunk to its run's size
    // (as a `Box<[u32]>` is) reallocates whenever the smaller handle
    // follows the larger, and then a run's count, and a benchmark's, would
    // depend on the order of its requests.
    let small = alltoall(16, AlltoallAlg::Bine);
    let large = reduce_scatter(64, ReduceScatterAlg::Bine(NonContigStrategy::Permute));
    let handles = [small.compile(), large.compile()];
    let inputs = [
        Workload::for_schedule(&small, 1).initial_state(&small),
        Workload::for_schedule(&large, 4).initial_state(&large),
    ];
    let run = |h: usize| {
        let input = inputs[h].clone();
        let (allocations, (bytes, ())) = counting::allocations_in(|| {
            bytes_requested(|| drop(compiled::run(&handles[h], input)))
        });
        (allocations, bytes)
    };
    let in_order = |order: [usize; 3]| {
        fresh_thread(|| {
            run(0);
            run(1);
            order.map(|h| (h, run(h)))
        })
    };
    let orders = [in_order([0, 1, 0]), in_order([1, 0, 1])];
    let (_, arc) = orders[0][0].1;
    for (h, cost) in orders.into_iter().flatten() {
        assert_eq!(cost, (1, arc), "{orders:?}: handle {h}");
    }
    // Finals held across a smaller run: the spare keeps the larger table's
    // buffers, though the smaller table let go of its own first.
    let held_across = fresh_thread(|| {
        let held = compiled::run(&handles[1], inputs[1].clone());
        run(0);
        drop(held);
        run(1)
    });
    assert_eq!(held_across, (1, arc));
}

#[test]
fn the_block_walk_allocates_no_more_than_the_step_walk() {
    // One element apart, on either side of the size from which a reducing
    // run walks block by block: the same copy-on-write buffers (every slot
    // sees the same writes at the same reference counts) plus a staging
    // buffer — one block's payloads of a step, not all of a step's.
    let sched = allreduce(64, AllreduceAlg::BineLarge);
    let handle = sched.compile();
    handle.slot_layout();
    let first = run_dense_cost(&sched, &handle, 1024);
    let by_step = run_dense_cost(&sched, &handle, 1023);
    let by_block = run_dense_cost(&sched, &handle, 1024);
    assert!(
        by_block.0 <= by_step.0,
        "block walk: {} allocations, step walk: {}",
        by_block.0,
        by_step.0
    );
    // All but the staging scales with the payload.
    assert!(
        by_block.1 * 1023 <= by_step.1 * 1024,
        "block walk: {} B at 1024 elements, step walk: {} B at 1023",
        by_block.1,
        by_step.1
    );
    // The order of the walk is derived by the first run that takes it, once.
    assert!(
        first.0 > by_block.0,
        "the first block walk derives the table"
    );
    let (again, _) = counting::allocations_in(|| handle.max_staged(WalkOrder::Blocks));
    assert_eq!(again, 0, "and it stays with the handle");
}

#[test]
fn one_element_sums_allocate_per_chunk_not_per_sum() {
    // Reduce-scatter `bine-permute` at p = 256, 1 element per block, over
    // inputs the caller still holds: the first reduction into each of the
    // p² blocks copies on write, and every sum is a buffer of the run's one
    // arena — one allocation for all of them (while short sums were packed
    // into 32 KiB chunks, one per chunk: 17 measured).
    let p = 256;
    let sched = reduce_scatter(p, ReduceScatterAlg::Bine(NonContigStrategy::Permute));
    let handle = sched.compile();
    handle.slot_layout();
    run_dense_cost(&sched, &handle, 1);
    let (allocations, _) = run_dense_cost(&sched, &handle, 1);
    assert!(
        allocations <= WARM_RUN_ALLOCATIONS,
        "run_dense allocated {allocations} times"
    );
}

/// What a warm run of a reducing schedule allocates at any p and any number
/// of sums: the arena its plan lays every sum out in, and its staging.
const WARM_RUN_ALLOCATIONS: u64 = 2;

/// [`run_dense_cost`] of a warm handle: the block order, if the run walks
/// block by block, is derived by a run before the measured one.
fn warm_run_dense_cost(alg: AllreduceAlg, p: usize, elems: usize) -> (u64, u64) {
    let sched = allreduce(p, alg);
    let handle = sched.compile();
    handle.slot_layout();
    run_dense_cost(&sched, &handle, elems);
    run_dense_cost(&sched, &handle, elems)
}

/// Heap bytes of one long sum of `elems` elements: its buffer alone.
fn block_bytes(elems: usize) -> u64 {
    (elems * 8) as u64
}

#[test]
fn recursive_doubling_writes_its_sums_into_freed_room() {
    // Allreduce `bine-small` at p = 64 over 2048-element `Full` sums (one
    // block, so the block walk `run_dense` takes is the step walk's order).
    // The first step writes p new sums: both partners of a pair sum into an
    // input the caller holds. From the second on, the first partner of a
    // pair to apply copies on write and the second sums in place, freeing
    // the sum it sent, so a later copy takes a freed sum's buffer once the
    // frees catch up: the plan lays out at most a quarter of p more sums
    // than p (64 + 11 measured). Without reuse every
    // copy of the five later steps was new: 64 + 5 · 32 = 224 sums, 451
    // allocations and 3 680 768 B.
    let (p, elems) = (64, 2048);
    let sums = (p + p / 4) as u64;
    let (allocations, bytes) = warm_run_dense_cost(AllreduceAlg::BineSmall, p, elems / p);
    // One arena (82 allocations while a long sum was a buffer of its own,
    // 156 while it was an `Arc<Vec<f64>>`), and the staging.
    assert!(
        allocations <= WARM_RUN_ALLOCATIONS,
        "{allocations} allocations"
    );
    assert!(bytes <= sums * block_bytes(elems) + 8192, "{bytes} B");
}

#[test]
fn the_block_walk_writes_each_blocks_sums_into_the_last_blocks_room() {
    // Allreduce `bine-large` at p = 64, 1024 elements per block, walked
    // block by block. The first step of a block's reduce-scatter writes
    // p / 2 sums into inputs the caller holds; its allgather then replaces
    // every partial sum but the final one, which all ranks keep. So the
    // first block writes p / 2 new sums and every later block one more:
    // 32 + 63 = 95. Without reuse every block's first step was new:
    // 64 · 32 = 2048 sums, 4097 allocations and 16 859 264 B.
    let p = 64;
    let sums = (p / 2 + p - 1) as u64;
    let (allocations, bytes) = warm_run_dense_cost(AllreduceAlg::BineLarge, p, 1024);
    // One arena (102 allocations while a long sum was a buffer of its own,
    // 195 while it was an `Arc<Vec<f64>>`), and the staging.
    assert!(
        allocations <= WARM_RUN_ALLOCATIONS,
        "{allocations} allocations"
    );
    assert!(bytes <= sums * block_bytes(1024) + 8192, "{bytes} B");
}

#[test]
fn a_long_sum_is_one_allocation_even_when_no_room_is_freed() {
    // Reduce-scatter `swing` at p = 16 over 512-element blocks the caller
    // still holds, walked step by step: every first reduction into a block
    // copies on write, and every rank makes all its new sums in the first
    // step (the later ones sum in place), so no room comes back before the
    // last sum is made and every sum is new: p · p / 2 = 128 of them. The
    // finals keep one per rank, its own segment's. They share one
    // allocation, the arena, sized for exactly them.
    let (p, elems) = (16, 512);
    let sched = reduce_scatter(p, ReduceScatterAlg::Swing);
    let handle = sched.compile();
    handle.slot_layout();
    run_dense_cost(&sched, &handle, elems);
    let buffers = handle.memory_plan(WalkOrder::Steps).bounds().len() as u64 - 1;
    assert_eq!(buffers, (p * p / 2) as u64);
    let input = Workload::for_schedule(&sched, elems).initial_state(&sched);
    let mut dense = compiled::to_dense(&handle, input.clone());
    let running = || bytes_requested(|| compiled::run_dense(&handle, &mut dense));
    let (allocations, (bytes, ())) = counting::allocations_in(running);
    // The sums: the finals' payloads that are not the caller's.
    let payloads = |stores: &[BlockStore]| -> HashSet<*const f64> {
        stores
            .iter()
            .flat_map(|s| s.iter().map(|(_, v)| v.as_ptr()))
            .collect()
    };
    let sums = payloads(&dense).difference(&payloads(&input)).count();
    assert_eq!(sums, p, "{sums} sums");
    assert!(
        allocations <= WARM_RUN_ALLOCATIONS,
        "{allocations} allocations, {buffers} buffers"
    );
    assert!(bytes <= buffers * block_bytes(elems) + 8192, "{bytes} B");
}

#[test]
fn packed_sums_are_written_into_freed_places() {
    // Allreduce `bine-small` at p = 256 and one element per rank:
    // 256-element `Full` sums packed side by side into the run's arena. As
    // at p = 64, the first step writes p sums and the later steps take the
    // places the earlier ones freed (256 + 43 measured). Without reuse
    // every copy of the seven later steps took a new place: 256 + 7 · 128 =
    // 1152 sums, 89 allocations and 2 379 688 B; in 32 KiB chunks with
    // reuse, 21 chunks.
    let p = 256;
    let chunks = ((p + p / 4) / 16) as u64;
    let chunk_bytes = 32 * 1024;
    let (allocations, bytes) = warm_run_dense_cost(AllreduceAlg::BineSmall, p, 1);
    assert!(
        allocations <= WARM_RUN_ALLOCATIONS,
        "{allocations} allocations"
    );
    assert!(bytes <= (chunks + 1) * chunk_bytes, "{bytes} B");
}

#[test]
fn finals_fed_back_request_the_same_bytes_every_time() {
    // Allreduce `bine-small` at p = 16 over 1-element blocks, its finals
    // fed back again and again: each run starts from what the last left —
    // every rank one sum nobody else holds — so each asks for what the last
    // asked for, and the finals keep one arena of the last run's sums.
    // While short sums were packed into chunks that a later run appended
    // to, the finals kept 96 more packed elements each time (240, 336, …),
    // and the 42nd run allocated a second chunk (32 928 B more).
    let sched = allreduce(16, AllreduceAlg::BineSmall);
    let handle = sched.compile();
    let mut finals = Workload::for_schedule(&sched, 1).initial_state(&sched);
    let mut requested = Vec::new();
    for _ in 0..48 {
        let (bytes, next) = bytes_requested(|| compiled::run(&handle, finals));
        requested.push(bytes);
        finals = next;
    }
    let fed_back = &requested[1..];
    assert!(fed_back.iter().all(|&b| b == fed_back[0]), "{requested:?}");
}

/// A reduce-scatter of the `permute` strategy's local pass alone — every rank
/// copies all `p` segments onto itself — and one reduction of no blocks,
/// which makes it a reducing schedule that large payloads walk block by
/// block.
fn local_permute_pass(p: usize) -> Schedule {
    let mut sched = Schedule::new(p, Collective::ReduceScatter, "local-permute", 0);
    let mut local = Step::with_capacity(p, p * p);
    for r in 0..p {
        let segments = (0..p as u32).map(BlockId::Segment);
        local.push_with_segments(r, r, segments, TransferKind::Copy, 1);
    }
    sched.push_step(local);
    let mut empty = Step::new();
    empty.push_with_segments(0, 1, [], TransferKind::Reduce, 1);
    sched.push_step(empty);
    sched
}

#[test]
fn identity_moves_stage_nothing_on_either_walk() {
    // Every rank holds all its segments (the reduce-scatter contract) and
    // keeps them where they are: no payload is staged, so nothing is
    // allocated, at 1 element per block (the step walk) as at 1024 (the block
    // walk, whose order the first such run derives).
    let sched = local_permute_pass(64);
    let handle = sched.compile();
    handle.slot_layout();
    for elems in [1, 1024] {
        run_dense_cost(&sched, &handle, elems);
        let cost = run_dense_cost(&sched, &handle, elems);
        assert_eq!(cost, (0, 0), "{elems} elements per block");
    }
    let (derived_now, _) = counting::allocations_in(|| handle.max_staged(WalkOrder::Blocks));
    assert_eq!(
        derived_now, 0,
        "the 1024-element runs walked block by block"
    );
}

#[test]
fn small_payloads_and_non_reducing_schedules_never_derive_the_block_order() {
    let reducing = allreduce(64, AllreduceAlg::BineLarge);
    let moving = allgather(64, AllgatherAlg::Bine);
    for (sched, elems) in [(&reducing, 1023), (&moving, 1024)] {
        let handle = sched.compile();
        run_dense_cost(sched, &handle, elems);
        let (derived_now, _) = counting::allocations_in(|| handle.max_staged(WalkOrder::Blocks));
        assert!(derived_now > 0, "{} at {elems} elements", sched.algorithm);
    }
}
