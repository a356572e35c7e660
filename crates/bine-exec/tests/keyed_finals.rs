//! Finals stay under the key table of the schedule that produced them
//! ([`BlockStore`]'s table-backed form): whatever a caller could tell apart
//! from the map-form finals of the reference interpreter — equality in
//! either order, the set `iter()` yields, `len()` — must not differ, feeding
//! finals back in must give what their map-form copy gives, on the handle
//! they came from (nothing to re-key) and on any other (everything is), and
//! a dead rank's state comes back as it went in, in either form. The ranks
//! of a run share one payload table: neither a caller's write to one rank's
//! finals nor a later run may show through another rank's or a clone's —
//! whether a final is a caller's payload, a sum in the run's arena, or a
//! sum written into the room a freed one left.

use std::sync::Arc;

use bine_exec::{compiled, sequential, ExecutorPool};
use bine_exec::{BlockStore, Workload};
use bine_sched::collectives::{
    allgather, allreduce, alltoall, broadcast, gather, reduce_scatter, AllgatherAlg, AllreduceAlg,
    AlltoallAlg, BroadcastAlg, GatherAlg, ReduceScatterAlg,
};
use bine_sched::{walk, BlockId, Collective, Granularity, NonContigStrategy, Schedule};

/// The blocks of `store`, in one order whatever the store's form.
fn sorted_blocks(store: &BlockStore) -> Vec<(&BlockId, &[f64])> {
    let mut blocks: Vec<_> = store.iter().collect();
    blocks.sort_by_key(|(id, _)| **id);
    blocks
}

fn map_form(stores: &[BlockStore]) -> Vec<BlockStore> {
    stores.iter().map(BlockStore::deep_clone).collect()
}

/// Two sum lengths one element apart, kept from when sums up to 256
/// elements were stored apart from longer ones.
const SUM_LENGTHS: [usize; 2] = [256, 257];

/// Reducing schedules, the first two chainable: their finals are valid
/// inputs of the same schedule.
fn reducing() -> Vec<Schedule> {
    vec![
        allreduce(16, AllreduceAlg::BineLarge),
        allreduce(16, AllreduceAlg::RecursiveDoubling),
        reduce_scatter(16, ReduceScatterAlg::Bine(NonContigStrategy::Permute)),
    ]
}

/// The finals of `sched` at `elems` elements per block from inputs the
/// caller still holds — so every first reduction into a block copies on
/// write — with the inputs and the reference interpreter's finals.
fn sums_of(
    sched: &Schedule,
    handle: &Arc<bine_sched::CompiledSchedule>,
    elems: usize,
) -> (Vec<BlockStore>, Vec<BlockStore>, Vec<BlockStore>) {
    let initial = Workload::for_schedule(sched, elems).initial_state(sched);
    let reference = sequential::run_reference(sched, initial.clone());
    let finals = ExecutorPool::global().run(handle, initial.clone());
    (finals, initial, reference)
}

/// Every block of `store` as an owned `(id, values)` pair, sorted.
fn owned_blocks(store: BlockStore) -> Vec<(BlockId, Vec<f64>)> {
    let mut blocks: Vec<_> = store
        .into_blocks()
        .map(|(id, b)| (id, b.to_vec()))
        .collect();
    blocks.sort_by_key(|(id, _)| *id);
    blocks
}

#[test]
fn finals_read_the_same_whichever_executor_produced_them() {
    let mut ran = 0;
    for request in walk(&[16]) {
        if request.repeats_root_zero() {
            continue;
        }
        let Some(sched) = request.build() else {
            continue;
        };
        let handle = Arc::new(sched.compile());
        let workload = Workload::for_schedule(&sched, 2);
        let initial = workload.initial_state(&sched);
        let reference = sequential::run_reference(&sched, initial.clone());
        let produced = [
            ("compiled", compiled::run(&handle, initial.clone())),
            ("pool", ExecutorPool::global().run(&handle, initial.clone())),
        ];
        for (executor, finals) in &produced {
            let what = format!("{executor}: {}", request.label());
            assert!(*finals == reference, "{what}");
            assert!(reference == *finals, "{what}, reference on the left");
            for (rank, (ours, theirs)) in finals.iter().zip(&reference).enumerate() {
                assert_eq!(ours.len(), theirs.len(), "{what} rank {rank}");
                assert_eq!(ours.is_empty(), theirs.is_empty(), "{what} rank {rank}");
                assert_eq!(
                    sorted_blocks(ours),
                    sorted_blocks(theirs),
                    "{what} rank {rank}"
                );
            }
        }
        ran += 1;
    }
    assert!(ran > 500, "only {ran} schedules ran");
}

/// Schedules whose finals are valid inputs of the same schedule: the
/// contract keeps every block a rank starts with.
fn chainable() -> Vec<Schedule> {
    vec![
        allreduce(16, AllreduceAlg::BineLarge),
        allreduce(16, AllreduceAlg::RecursiveDoubling),
        allgather(16, AllgatherAlg::Bine),
    ]
}

#[test]
fn finals_fed_back_in_give_what_their_map_form_copy_gives() {
    let pool = ExecutorPool::global();
    for sched in chainable() {
        let what = &sched.algorithm;
        let handle = Arc::new(sched.compile());
        let initial = Workload::for_schedule(&sched, 3).initial_state(&sched);
        let first = compiled::run(&handle, initial.clone());
        assert!(holds_its_inputs(&initial, &first), "{what}: chains");
        let reference = sequential::run_reference(&sched, map_form(&first));
        // The same handle: the stores are under its table already.
        let chained = compiled::run(&handle, first.clone());
        assert_eq!(chained, reference, "{what}: chained");
        // Their map-form copy: re-keyed block by block.
        let rekeyed = compiled::run(&handle, map_form(&first));
        assert_eq!(rekeyed, chained, "{what}: map form");
        // A clone of the handle shares its table; a second lowering of the
        // same schedule has a table of its own, as has any other schedule.
        let shared = compiled::run(&handle.as_ref().clone(), first.clone());
        assert_eq!(shared, chained, "{what}: cloned handle");
        let other = Arc::new(sched.compile());
        assert_eq!(
            pool.run(&other, first.clone()),
            chained,
            "{what}: another handle"
        );
        // A store under another rank's row of the same table is re-keyed,
        // not trusted: rotate allgather finals (every rank holds every
        // segment) by one rank.
        if sched.algorithm == "bine" {
            let mut rotated = first.clone();
            rotated.rotate_left(1);
            assert_eq!(
                compiled::run(&handle, rotated),
                chained,
                "{what}: another rank's row"
            );
        }
        // Finals are ordinary stores: a caller can add to them.
        let mut extended = chained.clone();
        extended[3].insert(BlockId::Segment(4096), vec![1.0]);
        assert_eq!(extended[3].len(), chained[3].len() + 1);
        assert_eq!(extended[3].get(&BlockId::Segment(4096)), Some(&[1.0][..]));
        assert_ne!(extended, chained);
    }
}

#[test]
fn finals_fed_back_while_a_clone_is_held_leave_the_clone_as_it_was() {
    // The clone shares the run's payload table, so the next run copies the
    // table rather than write under the clone.
    for sched in chainable() {
        let what = &sched.algorithm;
        let handle = Arc::new(sched.compile());
        let initial = Workload::for_schedule(&sched, 3).initial_state(&sched);
        let first = compiled::run(&handle, initial);
        let (kept, before) = (first.clone(), map_form(&first));
        let reference = sequential::run_reference(&sched, map_form(&first));
        let chained = ExecutorPool::global().run(&handle, first);
        assert_eq!(chained, reference, "{what}");
        assert_eq!(kept, before, "{what}: the clone");
        assert_eq!(
            compiled::run(&handle, kept),
            chained,
            "{what}: the clone fed back"
        );
    }
}

/// Sum lengths on either side of the block walk: 1 and 300 elements (step
/// walk) and 2048 (block walk).
const SUM_ELEMS: [usize; 3] = [1, 300, 2048];

/// The largest input, in elements over all ranks, the reference interpreter
/// is run on below (4 MiB): a reduce-scatter at p = 16 and 2048 elements
/// per block. At p = 64 a reduce-scatter of 300-element blocks takes the
/// reference over half a second.
const MAX_INPUT_ELEMS: usize = 1 << 19;

/// Every payload bit of `stores`, rank by rank, in one order whatever the
/// stores' form.
fn bits(stores: &[BlockStore]) -> Vec<Vec<(BlockId, Vec<u64>)>> {
    let bits_of = |store: &BlockStore| {
        let blocks = sorted_blocks(store).into_iter();
        blocks
            .map(|(id, b)| (*id, b.iter().map(|x| x.to_bits()).collect()))
            .collect()
    };
    stores.iter().map(bits_of).collect()
}

/// Whether every rank ends holding every block it started with, so the
/// finals are valid inputs of the same schedule.
fn holds_its_inputs(initial: &[BlockStore], finals: &[BlockStore]) -> bool {
    let holds = |(start, end): (&BlockStore, &BlockStore)| {
        start.iter().all(|(id, _)| end.get(id).is_some())
    };
    initial.iter().zip(finals).all(holds)
}

#[test]
fn a_sum_written_into_freed_room_never_shows_through_a_held_payload() {
    // A reducing run writes a sum into the room of a sum it freed. Every
    // reducing request of the walk, at short and long sums, walked step by
    // step or block by block: the caller's inputs keep every bit, the
    // finals are the reference's, and finals fed back in while the caller
    // holds a clone of them leave the clone as it was. The `+seg` variants
    // run at p = 16 and one-element sums; every input stays under
    // `MAX_INPUT_ELEMS`.
    let mut ran = [0; 3];
    let reducing = [
        Collective::Allreduce,
        Collective::ReduceScatter,
        Collective::Reduce,
    ];
    for request in walk(&[16, 64]) {
        if !reducing.contains(&request.collective) || request.repeats_root_zero() {
            continue;
        }
        let Some(sched) = request.build() else {
            continue;
        };
        let handle = Arc::new(sched.compile());
        let p = sched.num_ranks;
        // Elements held over all ranks at one element per block.
        let input = Workload::for_schedule(&sched, 1).initial_state(&sched);
        let unit: usize = input
            .iter()
            .flat_map(BlockStore::iter)
            .map(|(_, b)| b.len())
            .sum();
        for (size, elems) in SUM_ELEMS.into_iter().enumerate() {
            if request.segments > 1 && (p > 16 || elems > 1) {
                continue;
            }
            // A `Full` block is `p` blocks' elements long.
            let per_block = match Granularity::from(&sched).segments {
                true => elems,
                false => elems.div_ceil(p),
            };
            if unit * per_block > MAX_INPUT_ELEMS {
                continue;
            }
            let initial = Workload::for_schedule(&sched, per_block).initial_state(&sched);
            let what = format!("{} at {per_block} elements per block", request.label());
            let before = bits(&initial);
            let reference = sequential::run_reference(&sched, initial.clone());
            let finals = compiled::run(&handle, initial.clone());
            assert!(bits(&initial) == before, "{what}: the inputs");
            assert!(finals == reference, "{what}: the finals");
            if holds_its_inputs(&initial, &finals) {
                let (kept, was) = (finals.clone(), bits(&finals));
                drop(compiled::run(&handle, finals));
                assert!(bits(&kept) == was, "{what}: the finals' clone");
            }
            ran[size] += 1;
        }
    }
    assert!(ran.iter().all(|&n| n > 90), "runs per sum length: {ran:?}");
}

#[test]
fn a_write_to_one_ranks_finals_leaves_the_others_and_any_clone_untouched() {
    let sched = allgather(16, AllgatherAlg::Bine);
    let handle = Arc::new(sched.compile());
    let initial = Workload::for_schedule(&sched, 3).initial_state(&sched);
    let mut finals = compiled::run(&handle, initial);
    let (clone, before) = (finals.clone(), map_form(&finals));
    let (inserted, reduced) = (BlockId::Segment(0), BlockId::Segment(1));
    finals[3].insert(inserted, vec![-1.0; 3]);
    finals[5].reduce(reduced, &[1.0; 3]);
    // The written block is the store's own now, held once.
    assert_eq!(finals[3].get(&inserted), Some(&[-1.0; 3][..]));
    let summed: Vec<f64> = before[5]
        .get(&reduced)
        .unwrap()
        .iter()
        .map(|x| x + 1.0)
        .collect();
    assert_eq!(finals[5].get(&reduced), Some(&summed[..]));
    for (rank, (store, was)) in finals.iter().zip(&before).enumerate() {
        assert_eq!(store.len(), was.len(), "rank {rank}");
        if rank != 3 && rank != 5 {
            assert_eq!(store, was, "rank {rank}");
        }
    }
    assert_eq!(clone, before);
    // Fed back in, they give what their map-form copy gives.
    let reference = sequential::run_reference(&sched, map_form(&finals));
    assert_eq!(compiled::run(&handle, finals), reference);
}

#[test]
fn a_write_to_any_ranks_finals_leaves_every_other_rank_and_a_clone_as_they_were() {
    // The ranks of a run read rows of one shared slot table: a write puts
    // the one store it lands in into map form and leaves the table as it
    // was, for the other ranks and for every clone.
    for sched in [
        alltoall(16, AlltoallAlg::Bine),
        allreduce(16, AllreduceAlg::BineLarge),
    ] {
        let handle = Arc::new(sched.compile());
        let initial = Workload::for_schedule(&sched, 3).initial_state(&sched);
        let finals = compiled::run(&handle, initial);
        let before = map_form(&finals);
        for rank in 0..16 {
            for reduces in [false, true] {
                let what = format!("{}, rank {rank}, reduces: {reduces}", sched.algorithm);
                let (mut written, clone) = (finals.clone(), finals.clone());
                let id = *sorted_blocks(&finals[rank])[0].0;
                let was = before[rank].get(&id).unwrap();
                let want: Vec<f64> = if reduces {
                    written[rank].reduce(id, &vec![1.0; was.len()]);
                    was.iter().map(|x| x + 1.0).collect()
                } else {
                    written[rank].insert(id, vec![-1.0; was.len()]);
                    vec![-1.0; was.len()]
                };
                assert_eq!(written[rank].get(&id), Some(&want[..]), "{what}");
                assert_eq!(written[rank].len(), before[rank].len(), "{what}");
                for (other, (store, was)) in written.iter().zip(&before).enumerate() {
                    if other != rank {
                        assert_eq!(sorted_blocks(store), sorted_blocks(was), "{what}: {other}");
                    }
                }
                for (other, (store, was)) in clone.iter().zip(&before).enumerate() {
                    assert_eq!(sorted_blocks(store), sorted_blocks(was), "{what}: {other}");
                }
            }
        }
        assert_eq!(finals, before, "{}: the finals", sched.algorithm);
    }
}

#[test]
fn a_run_that_panics_leaves_the_handle_to_the_next_one() {
    // Finals with one block too long, fed back in: the reduction that meets
    // it panics on the step walk (2 elements) and on the block walk (1024).
    let pool = ExecutorPool::global();
    let sched = allreduce(16, AllreduceAlg::BineLarge);
    let handle = Arc::new(sched.compile());
    for elems in [2, 1024] {
        let workload = Workload::for_schedule(&sched, elems);
        let mut corrupted = compiled::run(&handle, workload.initial_state(&sched));
        corrupted[3].insert(BlockId::Segment(0), vec![0.0; elems + 1]);
        let err = pool
            .try_run(&handle, corrupted)
            .expect_err("mismatched lengths must fail");
        assert!(err.message().contains("block length mismatch"), "{err}");
        let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
        let finals = pool.try_run(&handle, workload.initial_state(&sched));
        assert_eq!(finals.expect("healthy run"), reference, "{elems} elements");
    }
}

#[test]
fn survivors_of_a_wider_handle_rekey_onto_the_shrunk_one() {
    // What shrink-and-retry hands the 15-rank schedule when the survivors'
    // stores are still under the 16-rank handle's table, segments in slots.
    let wide = allreduce(16, AllreduceAlg::Ring);
    let shrunk = allreduce(15, AllreduceAlg::Ring);
    let (wide_handle, shrunk_handle) = (wide.compile(), Arc::new(shrunk.compile()));
    let inputs = Workload::for_schedule(&shrunk, 2).initial_state(&shrunk);
    // Pad to 16 ranks so the wide handle can key them, then drop rank 5.
    let mut keyed = inputs.clone();
    keyed.insert(5, BlockStore::new());
    let mut survivors = compiled::to_dense(&wide_handle, keyed);
    survivors.remove(5);
    assert_eq!(survivors, inputs);
    let reference = sequential::run_reference(&shrunk, inputs);
    let finals = ExecutorPool::global().run(&shrunk_handle, survivors);
    assert_eq!(finals, reference);
}

#[test]
fn a_dead_ranks_state_comes_back_untouched_in_either_form() {
    // A dead broadcast leaf and a dead gather root stall nobody: the runs
    // complete, and the dead rank holds what it held — nothing, or its own
    // segment — plus a block the schedule never mentions.
    let tree = broadcast(16, 0, BroadcastAlg::BineTree);
    let leaf = (0..16)
        .find(|r| tree.messages().all(|(_, m)| m.src != *r))
        .expect("a broadcast tree has leaves");
    for (sched, dead) in [(tree, leaf), (gather(16, 0, GatherAlg::Bine), 0)] {
        let handle = Arc::new(sched.compile());
        let mut initial = Workload::for_schedule(&sched, 2).initial_state(&sched);
        initial[dead].insert(BlockId::Segment(77), vec![7.0]);
        let keyed = compiled::to_dense(&handle, initial.clone());
        for (form, input) in [("map", &initial), ("table-backed", &keyed)] {
            let what = format!("{}, {form} input", sched.algorithm);
            let finals = ExecutorPool::global()
                .try_run_with_dead(&handle, input.clone(), &[dead])
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(finals[dead], initial[dead], "{what}");
            assert_eq!(finals[dead].len(), initial[dead].len(), "{what}");
        }
    }
}

#[test]
fn sums_read_the_same_packed_or_not() {
    for sched in reducing() {
        let handle = Arc::new(sched.compile());
        for elems in SUM_LENGTHS {
            let what = format!("{} at {elems} elements", sched.algorithm);
            let (finals, initial, reference) = sums_of(&sched, &handle, elems);
            assert!(finals == reference, "{what}");
            assert!(reference == finals, "{what}, reference on the left");
            for (rank, (ours, theirs)) in finals.iter().zip(&reference).enumerate() {
                assert_eq!(
                    sorted_blocks(ours),
                    sorted_blocks(theirs),
                    "{what} rank {rank}"
                );
                for (id, value) in theirs.iter() {
                    assert_eq!(ours.get(id), Some(value), "{what} rank {rank} {id:?}");
                }
                let (ours, theirs) = (ours.clone(), theirs.clone());
                assert_eq!(
                    owned_blocks(ours),
                    owned_blocks(theirs),
                    "{what} rank {rank}"
                );
            }
            let untouched = Workload::for_schedule(&sched, elems).initial_state(&sched);
            assert_eq!(initial, untouched, "{what}: the inputs");
        }
    }
}

#[test]
fn a_write_to_one_ranks_sums_leaves_the_others_and_any_clone_untouched() {
    for sched in reducing() {
        let handle = Arc::new(sched.compile());
        for elems in SUM_LENGTHS {
            let what = format!("{} at {elems} elements", sched.algorithm);
            let (mut finals, _, reference) = sums_of(&sched, &handle, elems);
            let (clone, before) = (finals.clone(), map_form(&finals));
            let first = |store: &BlockStore| *sorted_blocks(store)[0].0;
            let (reduced, inserted) = (first(&finals[3]), first(&finals[5]));
            let was = before[3].get(&reduced).unwrap();
            finals[3].reduce(reduced, &vec![1.0; was.len()]);
            let written = vec![-1.0; before[5].get(&inserted).unwrap().len()];
            finals[5].insert(inserted, written.clone());
            let summed: Vec<f64> = was.iter().map(|x| x + 1.0).collect();
            assert_eq!(finals[3].get(&reduced), Some(&summed[..]), "{what}");
            assert_eq!(finals[5].get(&inserted), Some(&written[..]), "{what}");
            for (rank, (store, was)) in finals.iter().zip(&before).enumerate() {
                assert_eq!(store.len(), was.len(), "{what} rank {rank}");
                if rank != 3 && rank != 5 {
                    assert_eq!(store, was, "{what} rank {rank}");
                }
            }
            assert_eq!(clone, before, "{what}: the clone");
            assert_eq!(clone, reference, "{what}: the clone");
        }
    }
}

#[test]
fn sums_fed_back_while_a_clone_is_held_leave_the_clone_as_it_was() {
    for sched in reducing().into_iter().take(2) {
        let handle = Arc::new(sched.compile());
        for elems in SUM_LENGTHS {
            let what = format!("{} at {elems} elements", sched.algorithm);
            let (first, _, _) = sums_of(&sched, &handle, elems);
            let (kept, before) = (first.clone(), map_form(&first));
            let reference = sequential::run_reference(&sched, map_form(&first));
            let chained = ExecutorPool::global().run(&handle, first);
            assert_eq!(chained, reference, "{what}");
            assert_eq!(kept, before, "{what}: the clone");
            assert_eq!(
                compiled::run(&handle, kept),
                chained,
                "{what}: the clone fed back"
            );
        }
    }
}
