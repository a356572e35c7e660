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
//! compiled form carries its slot's position in that table at both ends, so
//! the walks index the table directly. A rank's [`DenseState`] is a
//! [`BlockStore`] reading its row. [`to_dense`] builds the table — block by
//! block for stores in map form or under another table, not at all for the
//! finals of an earlier run of this handle — and [`from_dense`] has nothing
//! left to do: the finals *are* the dense states.
//!
//! One compiled form, two walks over it. The **step walk** (`run_steps`) is
//! the step kernel — `gather_recvs` then `apply_recvs` — over all of a
//! step's receives, step after step. The **block walk** (`run_blocks`)
//! takes the payload entries block by block ([`bine_sched::BlockMajor`]): a
//! payload of block `b` reads slot `b` of its sender and writes slot `b` of
//! its receiver and nothing else, so one block's entries, in receive order,
//! are a schedule of their own, and running them start to finish keeps the
//! block's partial sums in cache where the step walk streams the whole
//! working set through it once per step. Both stage a step's handles
//! before applying them, in one buffer sized once per run for the most
//! they stage at a time (`max_staged`); both deliver through the same
//! `receive` and so the same payload-table reduction, and every
//! `(rank, block)` slot sees the same writes in the same order: the finals
//! agree bit for bit. Both end where the contract does: once a walk has
//! run, a slot that dies ([`SlotLayout::dies`](bine_sched::SlotLayout::dies))
//! holds nothing, so a rank's finals are the blocks it keeps. Neither
//! moves the payloads of an identity move — a rank's copy onto itself as its
//! only receive of the step, the `permute` strategy's local pass — which
//! would put each back where it came from; both only check they are held.
//!
//! [`run_dense`] picks the walk from what it can see of the run: the block
//! walk when the schedule has a `Reduce` send and the payloads are large
//! (`BLOCK_WALK_MIN_ELEMS`, with the measurements behind it), the step walk
//! otherwise. Both are fault-free: a crash is decided before a run starts,
//! by the validator's survivor replay (see
//! [`ExecError::RankDead`](crate::ExecError::RankDead)).

use bine_sched::{BlockEntry, CompiledSchedule, CompiledSend, TransferKind, WalkOrder};

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
        if compiled.reduces() && payloads_are_large(compiled, table, slots) {
            run_blocks(compiled, table, slots);
        } else {
            run_steps(compiled, table, slots);
        }
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

/// The step walk: every step's receives gathered and then applied, staged
/// in one buffer sized for the largest step.
fn run_steps<'a>(compiled: &'a CompiledSchedule, table: &mut WalkTable<'a>, slots: &mut [u32]) {
    table.plan(compiled, WalkOrder::Steps, slots);
    let mut staging = Vec::with_capacity(compiled.max_staged());
    for step in 0..compiled.num_steps() {
        let recvs = compiled.step_recvs(step);
        // Stage every payload of the step before any slot mutates.
        gather_recvs(compiled, step, recvs, slots, &mut staging);
        apply_recvs(compiled, step, recvs, &staging, table, slots);
    }
}

/// The block walk (see the module docs for why it ends where [`run_steps`]
/// does): every block's payload entries from its first step to its last
/// ([`bine_sched::BlockMajor`]), a step's entries gathered and then applied,
/// before the next block starts.
///
/// # Panics
/// Panics if a send references a block its source rank does not hold.
fn run_blocks<'a>(compiled: &'a CompiledSchedule, table: &mut WalkTable<'a>, slots: &mut [u32]) {
    table.plan(compiled, WalkOrder::Blocks, slots);
    let order = compiled.block_major();
    // The send of an entry, and which of the send's payloads it is.
    let payload_of = |e: &BlockEntry| (compiled.send(e.send as usize), e.entry as usize);
    let moves = |e: &&BlockEntry| !compiled.is_identity_move(e.step as usize, payload_of(e).0);
    let mut staging = Vec::with_capacity(order.max_staged());
    for block in 0..compiled.num_blocks() {
        for in_step in order.entries_of(block).chunk_by(|a, b| a.step == b.step) {
            // Stage the block's payloads of the step before any slot
            // mutates.
            for e in in_step {
                let (send, k) = payload_of(e);
                let at = compiled.src_slots(send)[k];
                let held = held_handle(compiled, e.step as usize, send, k, slots, at);
                if moves(&e) {
                    staging.push(held);
                }
            }
            for (e, payload) in in_step.iter().filter(moves).zip(staging.drain(..)) {
                let (send, k) = payload_of(e);
                let held = &mut slots[compiled.dst_slots(send)[k] as usize];
                receive(compiled, send, k, table, held, payload);
            }
        }
    }
}

/// The handle rank `send.src` holds in slot `at` of the run's `slots`,
/// which `send` carries as its `k`-th block in `step`.
///
/// # Panics
/// Panics if the rank does not hold the block.
fn held_handle(
    compiled: &CompiledSchedule,
    step: usize,
    send: &CompiledSend,
    k: usize,
    slots: &[u32],
    at: u32,
) -> u32 {
    let handle = slots[at as usize];
    if handle == NOT_HELD {
        panic!(
            "step {step}: rank {} sends block {:?} it does not hold ({})",
            send.src,
            compiled
                .blocks()
                .resolve(compiled.block_index_slice(send)[k]),
            compiled.algorithm
        );
    }
    handle
}

/// Delivers the staged handle `payload`, the `k`-th block of `send`, into
/// the receiver's slot `held`: summed into what is there if the send
/// reduces, in its place otherwise.
///
/// # Panics
/// Panics if a reduction meets a held block of another length.
fn receive(
    compiled: &CompiledSchedule,
    send: &CompiledSend,
    k: usize,
    table: &mut WalkTable,
    held: &mut u32,
    payload: u32,
) {
    match send.kind {
        TransferKind::Reduce if *held != NOT_HELD => {
            assert_eq!(
                table.get(*held).len(),
                table.get(payload).len(),
                "block length mismatch for {:?}",
                compiled
                    .blocks()
                    .resolve(compiled.block_index_slice(send)[k])
            );
            table.reduce(held, payload, send.blocks_start as usize + k);
        }
        // A copy — or a reduce into an absent block, where the payload
        // becomes the partial result, as in `BlockStore::reduce`.
        _ => *held = payload,
    }
}

/// Gather half of the step kernel: reads the handles of the receives
/// `recvs` of `step` (send indices grouped by ascending destination rank,
/// see [`CompiledSchedule::step_recvs`]) out of their source ranks' slots
/// into `staging`, one entry per payload in `recvs` order, replacing what
/// it held. An identity move
/// ([`CompiledSchedule::is_identity_move`]) stages nothing; its payloads
/// are only checked to be held.
///
/// # Panics
/// Panics if a send references a block its source rank does not hold.
fn gather_recvs(
    compiled: &CompiledSchedule,
    step: usize,
    recvs: &[u32],
    slots: &[u32],
    staging: &mut Vec<u32>,
) {
    staging.clear();
    for send in recvs.iter().map(|&i| compiled.send(i as usize)) {
        let payloads = compiled.src_slots(send).iter().enumerate();
        let held = payloads.map(|(k, &at)| held_handle(compiled, step, send, k, slots, at));
        if compiled.is_identity_move(step, send) {
            // The possession check alone: the payloads stay in their slots.
            held.for_each(|_| ());
        } else {
            staging.extend(held);
        }
    }
}

/// Apply half of the step kernel: the handles [`gather_recvs`] staged for
/// `recvs` are applied to their destination ranks' slots in schedule
/// order — bit-identical float reduction order to the reference
/// interpreter. A block that a rank both sends and reduces in one step is
/// summed into a new buffer by whichever partner applies first and in place
/// by the other, as the plan says. Only ranks that receive something are
/// visited, and an identity move is not applied: nothing of it was staged.
fn apply_recvs(
    compiled: &CompiledSchedule,
    step: usize,
    recvs: &[u32],
    staging: &[u32],
    table: &mut WalkTable,
    slots: &mut [u32],
) {
    let mut taken = 0;
    for send in recvs.iter().map(|&i| compiled.send(i as usize)) {
        if compiled.is_identity_move(step, send) {
            continue;
        }
        let payloads = &staging[taken..taken + send.num_blocks()];
        taken += payloads.len();
        for ((k, &at), &payload) in compiled.dst_slots(send).iter().enumerate().zip(payloads) {
            receive(compiled, send, k, table, &mut slots[at as usize], payload);
        }
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
    use bine_sched::{BlockId, Collective, Contract, NonContigStrategy, Schedule, Step};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// A walk of the run's table.
    type Walk = for<'a> fn(&'a CompiledSchedule, &mut WalkTable<'a>, &mut [u32]);

    /// Runs `states` by `walk`, whichever walk `run_dense` would pick.
    fn walked(compiled: &CompiledSchedule, states: &mut [DenseState], walk: Walk) {
        state::with_table(states, compiled, |table, slots| {
            walk(compiled, table, slots)
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
            walked(&compiled, &mut by_step, run_steps);
            walked(&compiled, &mut by_block, run_blocks);
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
            walked(&compiled, &mut by_step, run_steps);
            walked(&compiled, &mut by_block, run_blocks);
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
        walked(&compiled, &mut to_dense(&compiled, empty), run_blocks);
    }

    /// Runs `sched` by `walk` from `initial` with `Segment(5)` taken from
    /// rank 3.
    fn run_without_a_block(sched: &Schedule, mut initial: Vec<BlockStore>, walk: Walk) {
        let kept = initial[3].clone().into_blocks();
        initial[3] = BlockStore::new();
        for (id, payload) in kept.filter(|(id, _)| *id != BlockId::Segment(5)) {
            initial[3].insert(id, payload);
        }
        let compiled = sched.compile();
        walked(&compiled, &mut to_dense(&compiled, initial), walk);
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
        run_without_a_block(&sched, initial, run_steps);
    }

    #[test]
    #[should_panic(expected = "step 0: rank 3 sends block Segment(5) it does not hold")]
    fn the_block_walk_checks_a_permuting_reduce_scatter_holds_what_it_permutes() {
        let (sched, initial) = permuting_reduce_scatter();
        run_without_a_block(&sched, initial, run_blocks);
    }

    #[test]
    #[should_panic(expected = "step 0: rank 3 sends block Segment(5) it does not hold")]
    fn the_step_walk_checks_a_permuting_allgather_holds_what_it_permutes() {
        let (sched, initial) = permuting_allgather_step();
        run_without_a_block(&sched, initial, run_steps);
    }

    #[test]
    #[should_panic(expected = "step 0: rank 3 sends block Segment(5) it does not hold")]
    fn the_block_walk_checks_a_permuting_allgather_holds_what_it_permutes() {
        let (sched, initial) = permuting_allgather_step();
        run_without_a_block(&sched, initial, run_blocks);
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
        for walk in [run_steps as Walk, run_blocks] {
            let mut states = to_dense(&compiled, initial.clone());
            walked(&compiled, &mut states, walk);
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
        walked(&compiled, &mut to_dense(&compiled, initial), run_blocks);
    }
}
