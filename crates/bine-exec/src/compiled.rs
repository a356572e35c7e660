//! Execution of [`CompiledSchedule`]s over dense per-rank state.
//!
//! This is the fast single-threaded path of the crate: block identifiers are
//! pre-interned to dense indices (see [`bine_sched::compile`]), so the inner
//! loop indexes flat `Vec`s instead of hashing `BlockId`s, and a slot holds a
//! `u32` handle into the run's payload table, so moving data copies an
//! integer. A sum goes where the handle's memory plan for the walk puts it
//! ([`bine_sched::MemoryPlan`]) — in place, or into a buffer of the run's one
//! arena — so the walks allocate no payload and count no holder. Results are
//! bit-identical to
//! [`crate::sequential::run_reference`]: payloads are gathered from the
//! pre-step state and applied per receiver in schedule order — exactly the
//! order the reference interpreter applies them in.
//!
//! A run keeps one slot table for all its ranks, laid out by the
//! [`SlotLayout`](bine_sched::SlotLayout) the handle shares with it: per rank
//! one slot per block the rank ever sends or receives. Every payload of the
//! compiled form carries its slot's position in that table at both ends
//! ([`CompiledSchedule::payload_slots`]), so a walk indexes the table
//! directly. A rank's [`DenseState`] is a
//! [`BlockStore`] reading its row. [`to_dense`] builds the table — block by
//! block for stores in map form or under another table, not at all for the
//! finals of an earlier run of this handle — and [`from_dense`] has nothing
//! left to do: the finals *are* the dense states.
//!
//! One walk in two orders ([`CompiledSchedule::walk`], which the memory
//! plan replays too): step by step, or block by block — a payload of block
//! `b` reads slot `b` of its sender and writes slot `b` of its receiver and
//! nothing else, so one block's entries are a schedule of their own, and
//! running them start to finish keeps its partial sums in cache where the
//! step order streams the whole working set through it once per step. One
//! body runs every group of either order: it stages the group's handles,
//! in one buffer sized once per run
//! ([`max_staged`](CompiledSchedule::max_staged)), and then delivers them
//! through `receive`. Every `(rank, block)` slot sees the same writes in
//! the same order in both: the finals agree bit for bit. An identity move
//! ([`Payloads::moves`]) is only checked to be held. Once a walk has run, a
//! slot that dies ([`SlotLayout::dies`](bine_sched::SlotLayout::dies))
//! holds nothing, so a rank's finals are the blocks it keeps.
//!
//! [`run_dense`] picks the order from what it can see of the run: blocks
//! when the schedule has a `Reduce` send and the payloads are large
//! (`BLOCK_WALK_MIN_ELEMS`, with the measurements behind it), steps
//! otherwise. Both are fault-free: a crash is decided before a run starts,
//! by the validator's survivor replay (see
//! [`ExecError::RankDead`](crate::ExecError::RankDead)).

use bine_sched::{CompiledSchedule, Payloads, Visit, WalkOrder};

use crate::state::{self, BlockStore, WalkTable, NOT_HELD};

/// The data a single rank holds, in dense form: a [`BlockStore`] reading its
/// rank's row of the run's slot table — slot `i` of the row holds the handle,
/// in the run's payload table, of the `i`-th block of the rank's
/// [`rank_blocks`](bine_sched::SlotLayout::rank_blocks) — and what the rank
/// holds but never moves (the alltoall block a rank keeps for itself under
/// an algorithm that never moves it) rides along in the store's map,
/// untouched.
pub type DenseState = BlockStore;

/// Puts symbolic per-rank stores under `compiled`'s key table and one slot
/// and payload table, in place.
///
/// The finals of an earlier run of this handle are taken as they are (their
/// payload table copied if a caller still holds a clone of them); any other
/// store (one a caller built, another handle's finals) is re-keyed block by
/// block: `BlockId` → interned index → local slot.
pub fn to_dense(compiled: &CompiledSchedule, mut initial: Vec<BlockStore>) -> Vec<DenseState> {
    assert_eq!(
        initial.len(),
        compiled.num_ranks,
        "initial state must have one store per rank"
    );
    state::rekey(&mut initial, compiled.slot_layout());
    initial
}

/// Hands dense states back as the per-rank stores they are: the finals stay
/// under `compiled`'s key table and the run's payload table (which they keep
/// alive, see [`BlockStore`]), so leaving dense form moves, hashes and
/// allocates nothing.
///
/// # Panics
/// Panics unless there is one state per rank, each built for this schedule
/// and rank.
pub fn from_dense(compiled: &CompiledSchedule, finals: Vec<DenseState>) -> Vec<BlockStore> {
    assert_eq!(
        finals.len(),
        compiled.num_ranks,
        "one dense state per rank required"
    );
    let table = compiled.slot_layout();
    for (rank, state) in finals.iter().enumerate() {
        assert!(
            state.is_keyed_by(table, rank),
            "dense state of rank {rank} was not built for this schedule"
        );
    }
    finals
}

/// Executes `compiled` over dense states, in place: a reducing schedule
/// over large payloads block by block, every other run step by step (see
/// the module docs). This is what [`ExecutorPool`](crate::ExecutorPool)
/// runs.
///
/// # Panics
/// Panics if a send references a block its source rank does not hold.
pub fn run_dense(compiled: &CompiledSchedule, states: &mut [DenseState]) {
    assert_eq!(
        states.len(),
        compiled.num_ranks,
        "one dense state per rank required"
    );
    state::with_table(states, compiled, |table, slots| {
        let order = match compiled.reduces() && payloads_are_large(compiled, table, slots) {
            true => WalkOrder::Blocks,
            false => WalkOrder::Steps,
        };
        walk(compiled, order, table, slots);
    })
}

/// Mean payload, in elements, of the sampled rank from which a reducing run
/// walks block by block (8 KiB of `f64`s).
///
/// The crossover, as block walk ÷ step walk on one confined vCPU (4 MiB L2),
/// lower quartile of 25 rounds of reduce-scatter `bine-permute`, allreduce
/// `bine-large` and reduce-scatter `swing` entered, run and dropped in turn,
/// best of three alternating repeats:
///
/// | block | p = 16 | p = 64 | p = 256 |
/// |---|---|---|---|
/// | 1 KiB | 1.37 / 0.85 / 1.03 | 1.28 / 1.08 / 1.12 | 0.88 / 0.95 / 0.92 |
/// | 2 KiB | 1.05 / 1.06 / 0.95 | 0.54 / 0.85 / 0.98 | 0.69 / 0.84 / 0.70 |
/// | 4 KiB | 1.09 / 0.34 / 0.98 | 0.49 / 0.69 / 0.91 | 0.57 / 0.66 / 0.85 |
/// | 8 KiB | 1.03 / 0.38 / 1.00 | 0.44 / 0.58 / 0.54 | 0.55 / 0.69 / 0.86 |
/// | 16 KiB | 0.97 / 0.42 / 0.94 | 1.08 / 0.38 / 1.08 | not run (2 GiB) |
///
/// What the block walk saves is memory traffic: a block's partial sums are
/// read back from cache. What it costs is bookkeeping per payload entry — a
/// staging round per block and step, not per step — which small payloads do
/// not amortise. At p = 256 the block walk wins from 1 KiB up; at p ≤ 64 it
/// loses below 8 KiB (p = 16, 2 KiB: reduce-scatter `bine-permute`
/// 1.05–1.26 over four repeats), which is what keeps the constant. At
/// 16 KiB and p = 64 both walks wait on page faults of the copy-on-write
/// buffers and agree within 8 %. A non-reducing schedule has nothing to
/// save at any size (allgather `bine`, p = 256, 1 and 8 KiB: 6.6 block by
/// block, which is why [`run_dense`] asks [`CompiledSchedule::reduces`]
/// first).
const BLOCK_WALK_MIN_ELEMS: usize = 1024;

/// Whether the payloads of this run are large enough for the block walk:
/// the mean over the slots of the first rank that holds anything — a sample,
/// not a scan of the state.
fn payloads_are_large(compiled: &CompiledSchedule, table: &WalkTable, slots: &[u32]) -> bool {
    let layout = compiled.slot_layout();
    let sampled = (0..compiled.num_ranks).find_map(|rank| {
        let row = &slots[layout.rank_slots(rank)];
        let held = row.iter().filter(|&&h| h != NOT_HELD);
        let (blocks, elems) = held.fold((0, 0), |(n, e), &h| (n + 1, e + table.get(h).len()));
        (blocks > 0).then_some(elems >= blocks * BLOCK_WALK_MIN_ELEMS)
    });
    sampled.unwrap_or(false)
}

/// Walks `compiled` in `order` over the run's table, under the plan for it.
fn walk<'a>(
    compiled: &'a CompiledSchedule,
    order: WalkOrder,
    table: &mut WalkTable<'a>,
    slots: &mut [u32],
) {
    table.plan(compiled, order, slots);
    let (src, dst) = compiled.payload_slots();
    let staging = state::staging(compiled.max_staged(order));
    let mut kernel = Kernel {
        compiled,
        src,
        dst,
        table,
        slots,
        staging,
    };
    compiled.walk(order, &mut kernel);
    state::keep_staging(kernel.staging);
}

/// The one body of both orders, over a run's table and slots; `src` and
/// `dst` are [`CompiledSchedule::payload_slots`].
struct Kernel<'k, 'a> {
    compiled: &'a CompiledSchedule,
    src: &'a [u32],
    dst: &'a [u32],
    table: &'k mut WalkTable<'a>,
    slots: &'k mut [u32],
    staging: Vec<u32>,
}

impl Visit for Kernel<'_, '_> {
    /// Stages the handles of the group's payloads out of their senders'
    /// slots before any slot mutates, then applies them to their
    /// receivers' in apply order — bit-identical float reduction order to
    /// the reference interpreter. A block that a rank both sends and
    /// reduces in one step is summed into a new buffer by whichever partner
    /// applies first and in place by the other, as the plan says.
    ///
    /// # Panics
    /// Panics if a send references a block its source rank does not hold.
    fn group(&mut self, step: u32, runs: impl Iterator<Item = Payloads> + Clone) {
        let compiled = self.compiled;
        self.staging.clear();
        for run in runs.clone() {
            let held = self.src[run.entries.clone()]
                .iter()
                .enumerate()
                .map(|(k, &at)| {
                    let handle = self.slots[at as usize];
                    if handle == NOT_HELD {
                        panic!(
                            "step {step}: rank {} sends block {:?} it does not hold ({})",
                            compiled.send(run.send as usize).src,
                            compiled.payload_block(run.entries.start + k),
                            compiled.algorithm
                        );
                    }
                    handle
                });
            if run.moves {
                self.staging.extend(held);
            } else {
                // The possession check alone: the payloads stay in their slots.
                held.for_each(drop);
            }
        }
        let mut taken = 0;
        for run in runs.filter(|run| run.moves) {
            let payloads = &self.staging[taken..taken + run.entries.len()];
            taken += payloads.len();
            let dst = self.dst[run.entries.clone()].iter();
            for (k, (&at, &payload)) in dst.zip(payloads).enumerate() {
                let held = &mut self.slots[at as usize];
                receive(compiled, &run, k, self.table, held, payload);
            }
        }
    }
}

/// Delivers the staged handle `payload`, `run`'s `k`-th, into the
/// receiver's slot `held`: summed into what is there if the send reduces,
/// in its place otherwise.
///
/// # Panics
/// Panics if a reduction meets a held block of another length.
fn receive(
    compiled: &CompiledSchedule,
    run: &Payloads,
    k: usize,
    table: &mut WalkTable,
    held: &mut u32,
    payload: u32,
) {
    let entry = run.entries.start + k;
    if run.reduces && *held != NOT_HELD {
        assert_eq!(
            table.get(*held).len(),
            table.get(payload).len(),
            "block length mismatch for {:?}",
            compiled.payload_block(entry)
        );
        table.reduce(held, payload, entry);
    } else {
        // A copy — or a reduce into an absent block, where the payload
        // becomes the partial result, as in `BlockStore::reduce`.
        *held = payload;
    }
}

/// Executes `compiled` starting from symbolic `initial` stores and returns
/// symbolic final stores (convenience wrapper over [`to_dense`] /
/// [`run_dense`] / [`from_dense`]).
pub fn run(compiled: &CompiledSchedule, initial: Vec<BlockStore>) -> Vec<BlockStore> {
    let mut dense = to_dense(compiled, initial);
    run_dense(compiled, &mut dense);
    from_dense(compiled, dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ExecutorPool;
    use crate::sequential;
    use crate::workload::Workload;
    use bine_sched::collectives::{
        allgather, allreduce, alltoall, broadcast, reduce_scatter, AllgatherAlg, AllreduceAlg,
        AlltoallAlg, BroadcastAlg, ReduceScatterAlg,
    };
    use bine_sched::{
        BlockId, Collective, Contract, NonContigStrategy, Schedule, Step, TransferKind,
    };
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Runs `states` in `order`, whichever order `run_dense` would pick.
    fn walked(compiled: &CompiledSchedule, states: &mut [DenseState], order: WalkOrder) {
        state::with_table(states, compiled, |table, slots| {
            walk(compiled, order, table, slots)
        });
    }

    #[test]
    fn dense_round_trip_preserves_every_block() {
        let sched = alltoall(8, AlltoallAlg::Bine);
        let compiled = sched.compile();
        let w = Workload::for_schedule(&sched, 3);
        let initial = w.initial_state(&sched);
        let round_tripped = from_dense(&compiled, to_dense(&compiled, initial.clone()));
        assert_eq!(initial, round_tripped);
    }

    #[test]
    #[should_panic(expected = "one dense state per rank required")]
    fn from_dense_rejects_a_truncated_state_vector() {
        let sched = alltoall(8, AlltoallAlg::Bine);
        let compiled = sched.compile();
        let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
        let states = to_dense(&compiled, initial);
        from_dense(&compiled, states[..7].to_vec());
    }

    #[test]
    #[should_panic(expected = "rank 1 was not built for this schedule")]
    fn from_dense_rejects_states_of_another_handle_or_rank() {
        let sched = alltoall(8, AlltoallAlg::Bine);
        let (compiled, other) = (sched.compile(), sched.compile());
        let initial = Workload::for_schedule(&sched, 1).initial_state(&sched);
        let mut dense = to_dense(&compiled, initial.clone());
        // Rank 0 is this handle's, rank 1 an equal handle's.
        dense[1] = to_dense(&other, initial).swap_remove(1);
        from_dense(&compiled, dense);
    }

    #[test]
    fn untouched_blocks_survive_execution() {
        let sched = broadcast(8, 0, BroadcastAlg::BineTree);
        let compiled = sched.compile();
        let w = Workload::for_schedule(&sched, 2);
        let mut initial = w.initial_state(&sched);
        // A block the schedule never references must pass through untouched.
        initial[5].insert(BlockId::Segment(77), vec![1.0, 2.0, 3.0]);
        let finals = run(&compiled, initial);
        assert_eq!(
            finals[5].get(&BlockId::Segment(77)),
            Some(&[1.0, 2.0, 3.0][..])
        );
    }

    #[test]
    fn compiled_execution_matches_the_reference_for_every_algorithm() {
        let mut ran = 0;
        for request in bine_sched::walk(&[1, 2, 3, 16]) {
            let Some(sched) = request.build() else {
                continue;
            };
            let compiled = sched.compile();
            let w = Workload::for_schedule(&sched, 2);
            let fast = run(&compiled, w.initial_state(&sched));
            let reference = sequential::run_reference(&sched, w.initial_state(&sched));
            assert_eq!(fast, reference, "{}", request.label());
            ran += 1;
        }
        assert!(ran > 900, "only {ran} schedules ran");
    }

    /// The block ids every rank of a run of `sched` from `initial` ends
    /// with under the contract, replayed over ids alone: what it held or
    /// received, less what it sent or received that
    /// [`Contract::keeps`](bine_sched::Contract::keeps) does not name.
    fn contract_finals(sched: &Schedule, initial: &[BlockStore]) -> Vec<BTreeSet<BlockId>> {
        let contract = Contract::from(sched);
        let mut held: Vec<BTreeSet<BlockId>> = initial.iter().map(ids).collect();
        let mut moved = vec![BTreeSet::new(); sched.num_ranks];
        for (_, m) in sched.messages() {
            for &block in m.blocks {
                held[m.dst].insert(block);
                moved[m.src].insert(block);
                moved[m.dst].insert(block);
            }
        }
        for (rank, held) in held.iter_mut().enumerate() {
            held.retain(|&block| !moved[rank].contains(&block) || contract.keeps(rank, block));
        }
        held
    }

    fn ids(store: &BlockStore) -> BTreeSet<BlockId> {
        store.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn finals_are_the_contract() {
        // Every executor ends a run with the blocks the contract keeps of
        // those a rank moved, and every block it never moved — here one the
        // schedule never names — and nothing else: no partial sum, no
        // forwarded block.
        let untouched = BlockId::Segment(4096);
        let mut ran = 0;
        for request in bine_sched::walk(&[1, 2, 3, 16]) {
            let Some(sched) = request.build() else {
                continue;
            };
            let compiled = Arc::new(sched.compile());
            let mut initial = Workload::for_schedule(&sched, 2).initial_state(&sched);
            initial[0].insert(untouched, vec![4.0]);
            let expected = contract_finals(&sched, &initial);
            let reference = sequential::run_reference(&sched, initial.clone());
            let mut by_step = to_dense(&compiled, initial.clone());
            let mut by_block = to_dense(&compiled, initial.clone());
            walked(&compiled, &mut by_step, WalkOrder::Steps);
            walked(&compiled, &mut by_block, WalkOrder::Blocks);
            let finals = [
                ("the step walk", by_step),
                ("the block walk", by_block),
                (
                    "the pool",
                    ExecutorPool::global().run(&compiled, initial.clone()),
                ),
            ];
            let what = request.label();
            let held: Vec<_> = reference.iter().map(ids).collect();
            assert_eq!(held, expected, "the reference: {what}");
            for (executor, finals) in finals {
                let held: Vec<_> = finals.iter().map(ids).collect();
                assert_eq!(held, expected, "{executor}: {what}");
                assert_eq!(finals, reference, "{executor}: {what}");
            }
            ran += 1;
        }
        assert!(ran > 900, "only {ran} schedules ran");
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn missing_blocks_are_detected() {
        let sched = broadcast(8, 0, BroadcastAlg::BineTree);
        let compiled = sched.compile();
        let empty = (0..8).map(|_| BlockStore::new()).collect();
        run(&compiled, empty);
    }

    #[test]
    fn the_two_walks_agree_on_every_catalog_algorithm() {
        // The same small input through both walks, whatever `run_dense` would
        // pick for it — non-reducing schedules and the doubly-pipelined
        // dual-root allreduce (many small segments, each reduced twice)
        // included, bare and cut into two and four chunks.
        let mut ran = 0;
        for request in bine_sched::walk(&[1, 2, 3, 16]) {
            let Some(sched) = request.build() else {
                continue;
            };
            let compiled = sched.compile();
            let w = Workload::for_schedule(&sched, 2);
            let mut by_step = to_dense(&compiled, w.initial_state(&sched));
            let mut by_block = by_step.clone();
            walked(&compiled, &mut by_step, WalkOrder::Steps);
            walked(&compiled, &mut by_block, WalkOrder::Blocks);
            assert_eq!(by_block, by_step, "{}", request.label());
            let reference = sequential::run_reference(&sched, w.initial_state(&sched));
            let finals = from_dense(&compiled, by_block);
            assert_eq!(finals, reference, "{}", request.label());
            ran += 1;
        }
        assert!(ran > 900, "only {ran} schedules ran");
    }

    #[test]
    fn the_block_walk_is_for_large_payloads_of_reducing_schedules() {
        let sched = allreduce(8, AllreduceAlg::BineLarge);
        let compiled = sched.compile();
        let initial = |elems| Workload::for_schedule(&sched, elems).initial_state(&sched);
        let large = |stores| {
            let mut states = to_dense(&compiled, stores);
            let large = |t: &mut WalkTable, s: &mut [u32]| payloads_are_large(&compiled, t, s);
            state::with_table(&mut states, &compiled, large)
        };
        assert!(!large(initial(BLOCK_WALK_MIN_ELEMS - 1)));
        assert!(large(initial(BLOCK_WALK_MIN_ELEMS)));
        // The sample is the first rank that holds anything, and its mean.
        let mut stores = initial(BLOCK_WALK_MIN_ELEMS);
        stores[0] = BlockStore::new();
        assert!(large(stores.clone()));
        stores[1].insert(BlockId::Segment(0), vec![0.0; 1]);
        assert!(!large(stores.clone()));
        stores[1].insert(BlockId::Segment(1), vec![0.0; 2 * BLOCK_WALK_MIN_ELEMS]);
        assert!(large(stores));
        assert!(!large(vec![BlockStore::new(); 8]));
        // Either side of the rule, `run_dense` ends where the reference does.
        for elems in [BLOCK_WALK_MIN_ELEMS - 1, BLOCK_WALK_MIN_ELEMS] {
            let w = Workload::for_schedule(&sched, elems);
            let reference = sequential::run_reference(&sched, w.initial_state(&sched));
            assert_eq!(run(&compiled, w.initial_state(&sched)), reference);
        }
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn the_block_walk_detects_missing_blocks() {
        let compiled = allreduce(8, AllreduceAlg::BineLarge).compile();
        let empty = (0..8).map(|_| BlockStore::new()).collect();
        walked(
            &compiled,
            &mut to_dense(&compiled, empty),
            WalkOrder::Blocks,
        );
    }

    /// Runs `sched` in `order` from `initial` with `Segment(5)` taken from
    /// rank 3.
    fn run_without_a_block(sched: &Schedule, mut initial: Vec<BlockStore>, order: WalkOrder) {
        let kept = initial[3].clone().into_blocks();
        initial[3] = BlockStore::new();
        for (id, payload) in kept.filter(|(id, _)| *id != BlockId::Segment(5)) {
            initial[3].insert(id, payload);
        }
        let compiled = sched.compile();
        walked(&compiled, &mut to_dense(&compiled, initial), order);
    }

    /// Reduce-scatter `bine-permute`, whose first step is the local permute
    /// pass, and the inputs it starts from.
    fn permuting_reduce_scatter() -> (Schedule, Vec<BlockStore>) {
        let sched = reduce_scatter(8, ReduceScatterAlg::Bine(NonContigStrategy::Permute));
        let initial = Workload::for_schedule(&sched, 2).initial_state(&sched);
        (sched, initial)
    }

    /// Allgather `bine`'s last step — its local permute pass — alone, and the
    /// state it starts from: the allgather's finals.
    fn permuting_allgather_step() -> (Schedule, Vec<BlockStore>) {
        let mut sched = allgather(8, AllgatherAlg::Bine);
        let w = Workload::for_schedule(&sched, 2);
        let finals = sequential::run_reference(&sched, w.initial_state(&sched));
        sched.steps.drain(..sched.num_steps() - 1);
        assert!(sched.steps[0].messages().all(|m| m.is_local()));
        (sched, finals)
    }

    #[test]
    #[should_panic(expected = "step 0: rank 3 sends block Segment(5) it does not hold")]
    fn the_step_walk_checks_a_permuting_reduce_scatter_holds_what_it_permutes() {
        let (sched, initial) = permuting_reduce_scatter();
        run_without_a_block(&sched, initial, WalkOrder::Steps);
    }

    #[test]
    #[should_panic(expected = "step 0: rank 3 sends block Segment(5) it does not hold")]
    fn the_block_walk_checks_a_permuting_reduce_scatter_holds_what_it_permutes() {
        let (sched, initial) = permuting_reduce_scatter();
        run_without_a_block(&sched, initial, WalkOrder::Blocks);
    }

    #[test]
    #[should_panic(expected = "step 0: rank 3 sends block Segment(5) it does not hold")]
    fn the_step_walk_checks_a_permuting_allgather_holds_what_it_permutes() {
        let (sched, initial) = permuting_allgather_step();
        run_without_a_block(&sched, initial, WalkOrder::Steps);
    }

    #[test]
    #[should_panic(expected = "step 0: rank 3 sends block Segment(5) it does not hold")]
    fn the_block_walk_checks_a_permuting_allgather_holds_what_it_permutes() {
        let (sched, initial) = permuting_allgather_step();
        run_without_a_block(&sched, initial, WalkOrder::Blocks);
    }

    #[test]
    fn a_copy_onto_itself_that_is_not_its_ranks_only_receive_is_applied() {
        // Rank 1 receives rank 0's `Segment(0)`, then copies its own onto
        // itself: not an identity move, and in schedule order the second
        // receive puts rank 1's own value back. An allreduce, so that rank 1
        // keeps the segment.
        let segment = BlockId::Segment(0);
        let mut sched = Schedule::new(2, Collective::Allreduce, "hand-built", 0);
        let mut step = Step::new();
        for src in [0, 1] {
            step.push_with_segments(src, 1, [segment], TransferKind::Copy, 1);
        }
        sched.push_step(step);
        let compiled = sched.compile();
        let initial = Workload::for_schedule(&sched, 2).initial_state(&sched);
        assert_ne!(initial[0].get(&segment), initial[1].get(&segment));
        let reference = sequential::run_reference(&sched, initial.clone());
        assert_eq!(reference[1].get(&segment), initial[1].get(&segment));
        for order in [WalkOrder::Steps, WalkOrder::Blocks] {
            let mut states = to_dense(&compiled, initial.clone());
            walked(&compiled, &mut states, order);
            assert_eq!(from_dense(&compiled, states), reference);
        }
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn the_block_walk_detects_mismatched_block_lengths() {
        let sched = allreduce(8, AllreduceAlg::BineLarge);
        let compiled = sched.compile();
        let mut initial = Workload::for_schedule(&sched, 2).initial_state(&sched);
        initial[3].insert(BlockId::Segment(0), vec![0.0; 3]);
        walked(
            &compiled,
            &mut to_dense(&compiled, initial),
            WalkOrder::Blocks,
        );
    }
}
