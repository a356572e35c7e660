//! The seed interpreter, and the name that runs a symbolic schedule.
//!
//! [`run_reference`] executes steps synchronously: within a step every
//! message reads the sender's state *as it was at the beginning of the
//! step*, mirroring the semantics of a bulk-synchronous message-passing
//! round. It deep-copies every rank's state per step, as the seed executor
//! did, and is the semantic baseline every walk of [`crate::compiled`] is
//! cross-checked bit-identical against. A run ends where its contract does:
//! a rank drops the blocks it sent or received that [`Contract::keeps`]
//! does not name, as every executor does.
//!
//! [`run`] compiles the schedule and runs the compiled walks.

use bine_sched::{Contract, Schedule, TransferKind};

use crate::compiled;
use crate::state::BlockStore;

/// Executes `schedule` starting from `initial` per-rank states and returns
/// the final per-rank states: [`compiled::run`] of the schedule's compiled
/// form.
///
/// # Panics
/// Panics if a message references a block its sender does not hold — that is
/// always a bug in the schedule generator, not a data error.
pub fn run(schedule: &Schedule, initial: Vec<BlockStore>) -> Vec<BlockStore> {
    compiled::run(&schedule.compile(), initial)
}

/// The seed interpreter: snapshots **all** per-rank states at every step via
/// a deep copy, then applies the messages against the snapshot.
///
/// Kept as the executable semantic definition of a schedule (and as the
/// benchmark baseline); all optimised executors must produce bit-identical
/// results.
pub fn run_reference(schedule: &Schedule, initial: Vec<BlockStore>) -> Vec<BlockStore> {
    assert_eq!(
        initial.len(),
        schedule.num_ranks,
        "initial state must have one store per rank"
    );
    let mut states = initial;
    for (step_idx, step) in schedule.steps.iter().enumerate() {
        // Snapshot the pre-step state so that all messages of a step are
        // logically simultaneous. Deliberately a deep copy — this is the
        // seed executor's O(ranks × elements) per-step cost.
        let snapshot: Vec<BlockStore> = states.iter().map(BlockStore::deep_clone).collect();
        for m in step.messages() {
            for block in m.blocks {
                let value = snapshot[m.src].get(block).unwrap_or_else(|| {
                    panic!(
                        "step {step_idx}: rank {} sends block {block:?} it does not hold ({})",
                        m.src, schedule.algorithm
                    )
                });
                match m.kind {
                    TransferKind::Copy => states[m.dst].insert(*block, value.to_vec()),
                    TransferKind::Reduce => states[m.dst].reduce(*block, value),
                }
            }
        }
    }
    end_at_the_contract(schedule, &mut states);
    states
}

/// Ends a run where the contract does: every rank drops the blocks it sent
/// or received that [`Contract::keeps`] does not name — its partial sums,
/// what it only forwarded — and keeps every block it never moved.
fn end_at_the_contract(schedule: &Schedule, states: &mut [BlockStore]) {
    let contract = Contract::from(schedule);
    for (_, m) in schedule.messages() {
        for block in m.blocks {
            for rank in [m.src, m.dst] {
                if !contract.keeps(rank, *block) {
                    states[rank].remove(block);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use bine_sched::collectives::{broadcast, BroadcastAlg};
    use bine_sched::BlockId;

    #[test]
    fn broadcast_tree_delivers_the_root_vector() {
        let p = 16;
        let sched = broadcast(p, 2, BroadcastAlg::BineTree);
        let w = Workload::for_schedule(&sched, 4);
        let finals = run(&sched, w.initial_state(&sched));
        let expected = w.full_vector(2);
        for (r, state) in finals.iter().enumerate() {
            assert_eq!(state.get(&BlockId::Full), Some(&expected[..]), "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn missing_blocks_are_detected() {
        let p = 8;
        let sched = broadcast(p, 0, BroadcastAlg::BineTree);
        // Start from an empty state: the root has nothing to send.
        let empty = (0..p).map(|_| BlockStore::new()).collect();
        run(&sched, empty);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn reference_detects_missing_blocks_too() {
        let p = 8;
        let sched = broadcast(p, 0, BroadcastAlg::BineTree);
        let empty = (0..p).map(|_| BlockStore::new()).collect();
        run_reference(&sched, empty);
    }
}
