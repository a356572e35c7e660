//! Golden-result verification for every collective.
//!
//! Given a [`Workload`] and the final per-rank [`BlockStore`]s produced by an
//! executor, this asserts the MPI-level post-condition of the collective
//! (e.g. "after an allreduce every rank holds the elementwise sum of all
//! contributions") as its [`bine_sched::Contract`] states it. Numeric
//! comparison catches both missing and duplicated contributions, which is
//! how schedule-generator bugs would show up.

use bine_sched::{BlockId, BlockMap};

use crate::state::BlockStore;
use crate::workload::Workload;

/// Maximum tolerated absolute error. Inputs are small integers plus simple
/// fractions, so reductions are exact in f64; any deviation is a real bug.
const TOLERANCE: f64 = 1e-9;

/// Outcome of a verification.
pub type VerifyResult = Result<(), String>;

fn compare(got: &[f64], expected: &[f64]) -> VerifyResult {
    if got.len() != expected.len() {
        let (got, expected) = (got.len(), expected.len());
        return Err(format!("has length {got} instead of {expected}"));
    }
    // Fail closed: a NaN is within no tolerance of anything, itself included.
    let agree = |a: f64, b: f64| (a - b).abs() <= TOLERANCE;
    let differ = |(_, (a, b)): &(usize, (&f64, &f64))| !agree(**a, **b);
    match got.iter().zip(expected).enumerate().find(differ) {
        Some((j, (a, b))) => Err(format!("element {j} is {a}, expected {b}")),
        None => Ok(()),
    }
}

/// Verifies the final states of the workload's collective: every rank must
/// hold, with the expected values, every block of one of the alternatives its
/// [`Contract`](bine_sched::Contract) requires — so the small-vector (`Full`)
/// and large-vector (`Segment`) algorithm families both verify naturally, and
/// zero-count segments of an irregular workload are not asked for. An
/// expected block that consecutive ranks require is computed once.
pub fn verify(workload: &Workload, finals: &[BlockStore]) -> VerifyResult {
    let p = workload.num_ranks;
    if finals.len() != p {
        return Err(format!("expected {p} rank states, got {}", finals.len()));
    }
    let contract = workload.contract();
    let what = workload.collective.name();
    // What the previous rank was compared against: all that is kept, so an
    // allreduce computes each sum once and an alltoall never holds more than
    // one rank's blocks.
    let mut previous: BlockMap<Vec<f64>> = BlockMap::default();
    for (rank, store) in finals.iter().enumerate() {
        let mut expected = BlockMap::default();
        let mut check = |id: &BlockId| {
            let got = store
                .get(id)
                .ok_or_else(|| format!("rank {rank}: missing {what} block {id:?}"))?;
            let expected = expected.entry(*id).or_insert_with(|| {
                let kept = previous.remove(id);
                kept.unwrap_or_else(|| workload.expected(*id))
            });
            compare(got, expected).map_err(|e| format!("rank {rank}: {what} block {id:?} {e}"))
        };
        let mut failures = Vec::new();
        let satisfied = contract.required(rank).iter().any(|alternative| {
            let outcome = alternative.iter().try_for_each(&mut check);
            outcome.map_err(|e| failures.push(e)).is_ok()
        });
        if !satisfied {
            return Err(failures.join("; or "));
        }
        previous = expected;
    }
    Ok(())
}

/// Convenience helper: builds the workload for a schedule, runs its
/// compiled form and verifies the result.
pub fn run_and_verify(schedule: &bine_sched::Schedule, elems_per_block: usize) -> VerifyResult {
    let workload = Workload::for_schedule(schedule, elems_per_block);
    let finals = crate::compiled::run(&schedule.compile(), workload.initial_state(schedule));
    verify(&workload, &finals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bine_sched::collectives::{allreduce, AllreduceAlg};

    #[test]
    fn verification_passes_for_a_correct_schedule() {
        let sched = allreduce(8, AllreduceAlg::BineSmall);
        assert!(run_and_verify(&sched, 2).is_ok());
    }

    #[test]
    fn verification_detects_corrupted_results() {
        let sched = allreduce(8, AllreduceAlg::BineSmall);
        let w = Workload::for_schedule(&sched, 2);
        let mut finals = crate::compiled::run(&sched.compile(), w.initial_state(&sched));
        // Corrupt one element on one rank.
        let mut v = finals[3].get(&BlockId::Full).unwrap().to_vec();
        v[0] += 1.0;
        finals[3].insert(BlockId::Full, v);
        let err = verify(&w, &finals).unwrap_err();
        assert!(err.contains("rank 3"), "{err}");
    }

    #[test]
    fn verification_fails_on_nan_and_infinite_results() {
        let sched = allreduce(8, AllreduceAlg::BineSmall);
        let w = Workload::for_schedule(&sched, 2);
        let finals = crate::compiled::run(&sched.compile(), w.initial_state(&sched));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut broken = finals.clone();
            let mut v = broken[5].get(&BlockId::Full).unwrap().to_vec();
            v[1] = bad;
            broken[5].insert(BlockId::Full, v);
            let err = verify(&w, &broken).expect_err("a non-finite result verifies");
            assert!(err.contains("rank 5") && err.contains("element 1"), "{err}");
        }
    }

    #[test]
    fn irregular_schedules_execute_and_verify_end_to_end() {
        use bine_sched::{build_irregular, Collective, SizeDist};
        let p = 8;
        for dist in SizeDist::ALL {
            let counts = dist.counts(p, 0);
            let sched = build_irregular(Collective::Gather, "traff", p, 0, &counts).unwrap();
            assert!(run_and_verify(&sched, 3).is_ok(), "gatherv {}", dist.name());
        }
        // A zero-total segment on some ranks through the reduce path.
        let counts = SizeDist::Linear.counts(p, 0);
        let sched = build_irregular(Collective::ReduceScatter, "ring", p, 0, &counts).unwrap();
        assert!(run_and_verify(&sched, 2).is_ok());
    }

    #[test]
    fn verification_detects_missing_blocks() {
        let sched = allreduce(8, AllreduceAlg::BineLarge);
        let w = Workload::for_schedule(&sched, 2);
        let mut finals = crate::compiled::run(&sched.compile(), w.initial_state(&sched));
        finals[0] = BlockStore::new();
        assert!(verify(&w, &finals).is_err());
    }
}
