//! Execution of [`CompiledSchedule`]s over dense per-rank state.
//!
//! This is the fast single-threaded path of the crate: block identifiers are
//! pre-interned to dense indices (see [`bine_sched::compile`]), so the inner
//! loop indexes flat `Vec`s instead of hashing `BlockId`s, and payloads are
//! shared [`Block`]s, so moving data is a refcount bump and reductions are
//! copy-on-write. Results are bit-identical to
//! [`crate::sequential::run_reference`]: payloads are gathered from the
//! pre-step state and applied per receiver in schedule order — exactly the
//! order the reference interpreter applies them in.
//!
//! A rank's [`DenseState`] has one slot per block the rank ever sends or
//! receives — its local slots in the schedule's
//! [`SlotLayout`](bine_sched::SlotLayout) — not one per block the schedule
//! interned, so building, converting and dropping the state of a request
//! costs what its ranks touch. Every payload of the compiled form carries
//! its local slot at both ends, so the step kernel indexes `slots[local]`
//! directly.
//!
//! The step kernel — `gather_recvs` then `apply_recvs` — is written once
//! here. [`run_dense`] calls it over all of a step's receives, and so does
//! a one-lane [`ExecutorPool`](crate::ExecutorPool); a pool of more lanes
//! calls it per lane, over the receives of the lane's destination ranks.

use std::ops::{Deref, DerefMut};

use bine_sched::{CompiledSchedule, TransferKind};

use crate::state::{reduce_into, Block, BlockStore};

/// The data a single rank holds, in dense form: slot `i` is the payload of
/// the `i`-th block of the rank's
/// [`rank_blocks`](bine_sched::SlotLayout::rank_blocks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseState {
    /// One slot per block the rank touches (None = not held).
    slots: Vec<Option<Block>>,
    /// The store the state was converted from, minus the blocks now in
    /// `slots`: what the rank holds but never moves (e.g. the alltoall block
    /// a rank keeps for itself under an algorithm that never moves it) is
    /// carried through here untouched, and [`from_dense`] refills the rest.
    unmoved: BlockStore,
}

impl DenseState {
    /// Number of held blocks (slots plus schedule-untouched blocks).
    pub fn len(&self) -> usize {
        self.held_slots() + self.unmoved.len()
    }

    /// Whether the rank holds no blocks at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn held_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Converts symbolic per-rank stores into dense states for `compiled`.
pub fn to_dense(compiled: &CompiledSchedule, initial: Vec<BlockStore>) -> Vec<DenseState> {
    assert_eq!(
        initial.len(),
        compiled.num_ranks,
        "initial state must have one store per rank"
    );
    let layout = compiled.slot_layout();
    initial
        .into_iter()
        .enumerate()
        .map(|(rank, mut store)| {
            let mut slots = vec![None; layout.rank_blocks(rank).len()];
            let mut unmoved = Vec::new();
            for (id, payload) in store.drain() {
                let interned = compiled.blocks().index_of(&id);
                match interned.and_then(|block| layout.local_slot(rank, block)) {
                    Some(slot) => slots[slot] = Some(payload),
                    None => unmoved.push((id, payload)),
                }
            }
            for (id, payload) in unmoved {
                store.insert(id, payload);
            }
            DenseState {
                slots,
                unmoved: store,
            }
        })
        .collect()
}

/// Converts dense states back into symbolic per-rank stores.
pub fn from_dense(compiled: &CompiledSchedule, finals: Vec<DenseState>) -> Vec<BlockStore> {
    let layout = compiled.slot_layout();
    finals
        .into_iter()
        .enumerate()
        .map(|(rank, dense)| {
            let touched = layout.rank_blocks(rank);
            assert_eq!(
                dense.slots.len(),
                touched.len(),
                "dense state of rank {rank} was not built for this schedule"
            );
            let held = dense.held_slots();
            let mut store = dense.unmoved;
            store.reserve(held);
            for (&block, slot) in touched.iter().zip(dense.slots) {
                if let Some(payload) = slot {
                    store.insert(compiled.blocks().resolve(block), payload);
                }
            }
            store
        })
        .collect()
}

/// Executes `compiled` over dense states, in place.
///
/// # Panics
/// Panics if a send references a block its source rank does not hold.
pub fn run_dense(compiled: &CompiledSchedule, states: &mut [DenseState]) {
    assert_eq!(
        states.len(),
        compiled.num_ranks,
        "one dense state per rank required"
    );
    let stall = run_lane(compiled, states, None);
    debug_assert!(stall.is_none(), "nothing stalls without dead ranks");
}

/// A receive that can never complete because its sender is dead: what the
/// per-step watchdog of a run under dead-rank injection reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stall {
    /// Step at whose barrier the stall was detected.
    pub step: usize,
    /// Global index of the earliest unsatisfiable send of that step.
    pub send: u32,
}

/// The whole schedule on one lane: every step's receives gathered and then
/// applied by the calling thread, with plain borrows of the states. This is
/// [`run_dense`], and what a one-lane [`ExecutorPool`](crate::ExecutorPool)
/// runs; `dead` marks the crashed ranks of an injected run, which ends at
/// the first step with a [`Stall`].
pub(crate) fn run_lane(
    compiled: &CompiledSchedule,
    states: &mut [DenseState],
    dead: Option<&[bool]>,
) -> Option<Stall> {
    let mut staging = Vec::new();
    for step in 0..compiled.num_steps() {
        let recvs = compiled.recvs_to_ranks(step, 0..compiled.num_ranks);
        // Stage every payload of the step before any state mutates.
        let pre_step: &[DenseState] = states;
        gather_recvs(
            compiled,
            step,
            recvs,
            dead,
            |rank| &pre_step[rank],
            &mut staging,
        );
        // Receivers come in ascending rank order, so one pass over the
        // states hands each its own.
        let mut rest = states.iter_mut();
        let mut next_rank = 0;
        let stalled = apply_recvs(compiled, recvs, dead, &mut staging, |rank| {
            let state = rest.nth(rank - next_rank).expect("receiver in range");
            next_rank = rank + 1;
            state
        });
        if let Some(send) = stalled {
            return Some(Stall { step, send });
        }
    }
    None
}

/// Gather half of the step kernel: reads the payloads of the receives
/// `recvs` of `step` (send indices grouped by ascending destination rank,
/// see [`CompiledSchedule::recvs_to_ranks`]) out of their source ranks'
/// states — refcount bumps only — into `staging`, one entry per payload in
/// `recvs` order, replacing what it held.
///
/// Under dead-rank injection `dead[rank]` marks the crashed ranks: their
/// sends never leave, the staging entries stay empty.
///
/// # Panics
/// Panics if a send references a block its source rank does not hold.
pub(crate) fn gather_recvs<S: Deref<Target = DenseState>>(
    compiled: &CompiledSchedule,
    step: usize,
    recvs: &[u32],
    dead: Option<&[bool]>,
    state_of: impl Fn(usize) -> S,
    staging: &mut Vec<Option<Block>>,
) {
    let layout = compiled.slot_layout();
    staging.clear();
    for send in recvs.iter().map(|&i| compiled.send(i as usize)) {
        if dead.is_some_and(|dead| dead[send.src as usize]) {
            staging.resize(staging.len() + send.num_blocks(), None);
            continue;
        }
        let src = state_of(send.src as usize);
        let payloads = layout.src_slots(send).iter().enumerate().map(|(k, &slot)| {
            let payload = src.slots[slot as usize].as_ref().unwrap_or_else(|| {
                panic!(
                    "step {step}: rank {} sends block {:?} it does not hold ({})",
                    send.src,
                    compiled
                        .blocks()
                        .resolve(compiled.block_index_slice(send)[k]),
                    compiled.algorithm
                )
            });
            Some(Block::clone(payload))
        });
        staging.extend(payloads);
    }
}

/// Apply half of the step kernel: the payloads [`gather_recvs`] staged for
/// `recvs` are moved out of `staging` and applied to their destination
/// ranks' states in schedule order — bit-identical float reduction order to
/// the reference interpreter. Every payload has exactly one receiver, so
/// the receiver takes the staged reference over: a block that a rank both
/// sends and reduces in one step is copied on write by whichever partner
/// applies first and summed in place by the other. Only ranks that receive
/// something are visited: `state_of` is asked once per such rank, in
/// ascending order, for exclusive access to its state.
///
/// Under dead-rank injection a `dead` rank posts no receives, so its state
/// stays untouched, and a surviving rank's receive from a dead sender has
/// nothing staged: in a real run the rank hangs there and never posts its
/// later receives, so its remaining receives of the step are skipped and
/// the smallest such send index is returned.
pub(crate) fn apply_recvs<S: DerefMut<Target = DenseState>>(
    compiled: &CompiledSchedule,
    recvs: &[u32],
    dead: Option<&[bool]>,
    staging: &mut [Option<Block>],
    mut state_of: impl FnMut(usize) -> S,
) -> Option<u32> {
    let layout = compiled.slot_layout();
    let is_dead = |rank: u32| dead.is_some_and(|dead| dead[rank as usize]);
    let dst_of = |send_idx: u32| compiled.send(send_idx as usize).dst;
    let mut stalled: Option<u32> = None;
    let mut taken = 0;
    for to_rank in recvs.chunk_by(|&a, &b| dst_of(a) == dst_of(b)) {
        let rank = dst_of(to_rank[0]);
        // `None` once the rank posts no (further) receives.
        let mut dst = (!is_dead(rank)).then(|| state_of(rank as usize));
        for &send_idx in to_rank {
            let send = compiled.send(send_idx as usize);
            let payloads = &mut staging[taken..taken + send.num_blocks()];
            taken += payloads.len();
            let Some(state) = &mut dst else { continue };
            if is_dead(send.src) {
                stalled = Some(stalled.map_or(send_idx, |s| s.min(send_idx)));
                dst = None;
                continue;
            }
            for ((k, &slot), payload) in layout.dst_slots(send).iter().enumerate().zip(payloads) {
                let payload = payload.take().expect("staged payload missing");
                match (send.kind, &mut state.slots[slot as usize]) {
                    (TransferKind::Reduce, Some(existing)) => {
                        assert_eq!(
                            existing.len(),
                            payload.len(),
                            "block length mismatch for {:?}",
                            compiled
                                .blocks()
                                .resolve(compiled.block_index_slice(send)[k])
                        );
                        reduce_into(existing, &payload);
                    }
                    // A copy — or a reduce into an absent block, where the
                    // payload becomes the partial result, as in
                    // `BlockStore::reduce`.
                    (_, held) => *held = Some(payload),
                }
            }
        }
    }
    stalled
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
    use crate::sequential;
    use crate::state::Workload;
    use bine_sched::collectives::{alltoall, broadcast, AlltoallAlg, BroadcastAlg};
    use bine_sched::{algorithms, build, BlockId, Collective};

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
            Some(&vec![1.0, 2.0, 3.0])
        );
    }

    #[test]
    fn compiled_execution_matches_the_reference_for_every_algorithm() {
        for collective in Collective::ALL {
            for alg in algorithms(collective) {
                let sched = build(collective, alg.name(), 16, 5)
                    .unwrap_or_else(|| panic!("{}", alg.name()));
                let compiled = sched.compile();
                let w = Workload::for_schedule(&sched, 2);
                let fast = run(&compiled, w.initial_state(&sched));
                let reference = sequential::run_reference(&sched, w.initial_state(&sched));
                assert_eq!(fast, reference, "{:?}/{}", collective, alg.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn missing_blocks_are_detected() {
        let sched = broadcast(8, 0, BroadcastAlg::BineTree);
        let compiled = sched.compile();
        let empty = (0..8).map(|_| BlockStore::new()).collect();
        run(&compiled, empty);
    }
}
