//! The executor every served request runs on.
//!
//! An [`ExecutorPool`] runs a compiled schedule on the calling thread —
//! [`compiled::run_dense`] — inside one `catch_unwind`: a rank job that
//! panics comes back as a typed [`ExecError`]. Dead ranks are the
//! validator's survivor replay, read before anything runs: a stall is
//! returned as [`ExecError::RankDead`], and otherwise the run is the healthy
//! one. Concurrent callers share nothing but the compiled handle, so they
//! never wait for each other. Results are bit-identical to the reference
//! interpreter: each receiver applies its payloads in schedule order.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bine_sched::{CompiledSchedule, PendingRecv, ScheduleValidator, StallReason};

use crate::compiled::{self, DenseState};
use crate::state::BlockStore;

/// Typed failure of a pool execution: the panic contract of the executor.
///
/// A rank job that panics (a reduce op applied to mismatched block lengths,
/// a send of a block the rank does not hold, a user-provided op gone wrong)
/// is caught and surfaced to the caller — as this error from the `try_run*`
/// entry points, or re-raised verbatim by the panicking ones. The pool holds
/// no state, so it stays fully usable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A job panicked; `message` is the panic payload (`"opaque panic
    /// payload"` when it was not a string).
    JobPanicked {
        /// The panic message of the failing job.
        message: String,
    },
    /// A surviving rank would block forever on a receive whose sender is
    /// dead (see [`ExecutorPool::try_run_with_dead`]): in a real run it
    /// hangs there. Found by the validator's survivor replay before anything
    /// runs.
    RankDead {
        /// Step of the blocked receive.
        step: usize,
        /// The dead sending rank the receive waited on.
        src: usize,
        /// The surviving rank that blocked.
        dst: usize,
    },
}

impl ExecError {
    fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
        let message = text.unwrap_or("opaque panic payload").to_owned();
        ExecError::JobPanicked { message }
    }

    /// The panic message of the failing job, or a static description for
    /// non-panic failures (the step and rank numbers of
    /// [`ExecError::RankDead`] are in its `Display` form).
    pub fn message(&self) -> &str {
        match self {
            ExecError::JobPanicked { message } => message,
            ExecError::RankDead { .. } => "rank blocked forever on a receive from a dead rank",
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::JobPanicked { message } => {
                write!(f, "executor job panicked: {message}")
            }
            ExecError::RankDead { step, src, dst } => {
                write!(
                    f,
                    "step {step}: rank {dst} blocked forever on a receive from dead rank {src}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The executor of served requests: the calling thread, with panics and
/// dead-rank stalls surfaced as [`ExecError`]. It holds nothing; use the
/// process-wide [`ExecutorPool::global`].
#[non_exhaustive]
pub struct ExecutorPool;

impl ExecutorPool {
    /// The process-wide pool.
    pub fn global() -> &'static ExecutorPool {
        static GLOBAL: ExecutorPool = ExecutorPool;
        &GLOBAL
    }

    /// The primary symbolic entry point: executes `compiled` starting from
    /// symbolic `initial` stores and returns symbolic final stores, with a
    /// panicking rank job (e.g. a reduce op applied to mismatched block
    /// lengths) returned as [`ExecError`].
    ///
    /// The schedule is taken as an `Arc` so repeated runs share one compiled
    /// form without re-copying it.
    pub fn try_run(
        &self,
        compiled: &Arc<CompiledSchedule>,
        initial: Vec<BlockStore>,
    ) -> Result<Vec<BlockStore>, ExecError> {
        let dense = compiled::to_dense(compiled, initial);
        let finals = self.try_run_dense(compiled, dense)?;
        Ok(compiled::from_dense(compiled, finals))
    }

    /// [`ExecutorPool::try_run`] with the `dead` ranks crashed before the
    /// collective starts: their sends never leave, their receives are never
    /// posted, their state is returned untouched; sends *into* a dead rank
    /// complete eagerly at the sender. A surviving rank that receives from a
    /// dead one would block forever in a real run: the earliest such receive
    /// — the first of [`ScheduleValidator::survivors`]' crashed ones with a
    /// live receiver — is returned as [`ExecError::RankDead`] before
    /// anything runs. Otherwise no survivor reads a dead rank's data, so the
    /// run is the healthy one with the dead ranks' inputs put back. An empty
    /// `dead` slice is exactly [`ExecutorPool::try_run`].
    ///
    /// # Panics
    /// Panics unless there is one store per rank, or if a dead rank is out
    /// of range.
    pub fn try_run_with_dead(
        &self,
        compiled: &Arc<CompiledSchedule>,
        initial: Vec<BlockStore>,
        dead: &[usize],
    ) -> Result<Vec<BlockStore>, ExecError> {
        if dead.is_empty() {
            return self.try_run(compiled, initial);
        }
        let ranks = compiled.num_ranks;
        assert_eq!(
            initial.len(),
            ranks,
            "initial state must have one store per rank"
        );
        // Before the replay: it ignores ranks out of range.
        let in_range = dead.iter().all(|&d| d < ranks);
        assert!(
            in_range,
            "dead rank out of range for {ranks} ranks: {dead:?}"
        );
        let report = ScheduleValidator::new(compiled).survivors(dead);
        let blocks = |r: &&PendingRecv| r.reason == StallReason::Crashed && !dead.contains(&r.dst);
        if let Some(r) = report.undeliverable.iter().find(blocks) {
            let (step, src, dst) = (r.step, r.src, r.dst);
            return Err(ExecError::RankDead { step, src, dst });
        }
        let kept: Vec<_> = dead.iter().map(|&d| (d, initial[d].clone())).collect();
        let mut finals = self.try_run(compiled, initial)?;
        for (rank, store) in kept {
            finals[rank] = store;
        }
        Ok(finals)
    }

    /// Thin panicking wrapper over [`ExecutorPool::try_run`] for callers
    /// that treat a failed rank job as a bug.
    ///
    /// # Panics
    /// On the first failed rank job, with the [`ExecError`] display message
    /// (the pool itself stays usable).
    pub fn run(
        &self,
        compiled: &Arc<CompiledSchedule>,
        initial: Vec<BlockStore>,
    ) -> Vec<BlockStore> {
        self.try_run(compiled, initial)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Thin panicking wrapper over [`compiled::run_dense`] for callers
    /// that treat a failed rank job as a bug.
    ///
    /// # Panics
    /// On the first failed rank job, with the [`ExecError`] display message
    /// (the pool itself stays usable).
    pub fn run_dense(
        &self,
        compiled: &Arc<CompiledSchedule>,
        states: Vec<DenseState>,
    ) -> Vec<DenseState> {
        self.try_run_dense(compiled, states)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`compiled::run_dense`] with a panicking rank job returned as
    /// [`ExecError`].
    fn try_run_dense(
        &self,
        compiled: &CompiledSchedule,
        mut states: Vec<DenseState>,
    ) -> Result<Vec<DenseState>, ExecError> {
        // Outside the catch: a wrong count is the caller's bug, not a job's.
        let ranks = compiled.num_ranks;
        assert_eq!(states.len(), ranks, "one dense state per rank required");
        let run = || compiled::run_dense(compiled, &mut states);
        catch_unwind(AssertUnwindSafe(run)).map_err(ExecError::from_panic)?;
        Ok(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use crate::workload::Workload;
    use bine_sched::collectives::{
        allreduce, alltoall, broadcast, AllreduceAlg, AlltoallAlg, BroadcastAlg,
    };
    use std::thread;

    #[test]
    fn pool_executor_matches_sequential_for_allreduce() {
        for alg in [
            AllreduceAlg::BineSmall,
            AllreduceAlg::BineLarge,
            AllreduceAlg::Ring,
        ] {
            let sched = allreduce(16, alg);
            let w = Workload::for_schedule(&sched, 3);
            let seq = sequential::run_reference(&sched, w.initial_state(&sched));
            let pooled =
                ExecutorPool::global().run(&Arc::new(sched.compile()), w.initial_state(&sched));
            assert_eq!(seq, pooled, "{}", sched.algorithm);
        }
    }

    #[test]
    fn pool_executor_matches_sequential_for_alltoall() {
        let sched = alltoall(8, AlltoallAlg::Bine);
        let w = Workload::for_schedule(&sched, 2);
        let seq = sequential::run_reference(&sched, w.initial_state(&sched));
        let pooled =
            ExecutorPool::global().run(&Arc::new(sched.compile()), w.initial_state(&sched));
        assert_eq!(seq, pooled);
    }

    #[test]
    fn worker_count_is_independent_of_rank_count() {
        // A 1024-rank schedule runs on the calling thread: the pool never
        // spawns per-rank threads.
        let sched = allreduce(1024, AllreduceAlg::BineSmall);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 1);
        let finals = ExecutorPool::global().run(&compiled, w.initial_state(&sched));
        assert_eq!(finals.len(), 1024);
        assert!(crate::verify::verify(&w, &finals).is_ok());
    }

    #[test]
    fn panics_inside_jobs_propagate_and_leave_the_pool_usable() {
        let pool = ExecutorPool::global();
        let sched = broadcast(8, 0, BroadcastAlg::BineTree);
        let compiled = Arc::new(sched.compile());
        let empty: Vec<BlockStore> = (0..8).map(|_| BlockStore::new()).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(&compiled, empty)));
        let message = *result
            .unwrap_err()
            .downcast::<String>()
            .expect("string panic");
        assert!(message.contains("does not hold"), "{message}");
        // The pool survives and still executes correctly.
        let w = Workload::for_schedule(&sched, 2);
        let finals = pool.run(&compiled, w.initial_state(&sched));
        assert!(crate::verify::verify(&w, &finals).is_ok());
    }

    /// An initial state whose rank-3 payloads are one element too long: any
    /// reduce combining them with a healthy block trips `compiled::receive`'s
    /// length assertion — the injected panicking reduce op.
    fn corrupted_initial(w: &Workload, sched: &bine_sched::Schedule) -> Vec<BlockStore> {
        let mut initial = w.initial_state(sched);
        let store = &mut initial[3];
        let ids: Vec<_> = store.iter().map(|(id, _)| *id).collect();
        for id in ids {
            let mut long = store.get(&id).expect("just listed").to_vec();
            long.push(0.0);
            store.insert(id, long);
        }
        initial
    }

    #[test]
    fn try_run_surfaces_worker_panics_as_typed_errors() {
        let pool = ExecutorPool::global();
        let sched = allreduce(8, AllreduceAlg::RecursiveDoubling);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);

        // Injected panicking reduce op: mismatched block lengths.
        let err = pool
            .try_run(&compiled, corrupted_initial(&w, &sched))
            .expect_err("mismatched lengths must fail");
        assert!(
            err.message().contains("block length mismatch"),
            "unexpected error: {err}"
        );
        assert!(err.to_string().starts_with("executor job panicked:"));

        // Missing blocks (gather-phase panic) are typed too.
        let empty: Vec<BlockStore> = (0..8).map(|_| BlockStore::new()).collect();
        let err = pool
            .try_run(&compiled, empty)
            .expect_err("missing blocks must fail");
        assert!(err.message().contains("does not hold"), "{err}");

        // The pool is fully usable afterwards and still bit-identical to the
        // sequential reference.
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        let finals = pool
            .try_run(&compiled, w.initial_state(&sched))
            .expect("healthy run");
        assert_eq!(finals, reference);
    }

    #[test]
    fn stress_racing_panicking_reduce_ops_against_healthy_runs() {
        // 8 caller threads share the pool for several rounds; half inject
        // the panicking reduce op, half run healthy workloads. Every
        // injected run must fail typed, every healthy run must stay
        // bit-identical to the sequential reference, and the pool must end
        // the stress fully usable.
        let pool = ExecutorPool::global();
        let sched = allreduce(16, AllreduceAlg::BineSmall);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        thread::scope(|scope| {
            for caller in 0..8 {
                let (sched, compiled, w, reference) = (&sched, &compiled, &w, &reference);
                scope.spawn(move || {
                    for _round in 0..6 {
                        if caller % 2 == 0 {
                            let finals = pool
                                .try_run(compiled, w.initial_state(sched))
                                .expect("healthy run must succeed");
                            assert_eq!(finals, *reference);
                        } else {
                            let err = pool
                                .try_run(compiled, corrupted_initial(w, sched))
                                .expect_err("corrupted run must fail");
                            assert!(
                                err.message().contains("block length mismatch"),
                                "unexpected error: {err}"
                            );
                        }
                    }
                });
            }
        });

        // Still healthy after the stress.
        let finals = pool.run(&compiled, w.initial_state(&sched));
        assert_eq!(finals, reference);
    }

    #[test]
    fn dead_rank_injection_stalls_dependents_with_a_typed_error() {
        // Recursive-doubling allreduce: every rank exchanges with a partner
        // each step, so killing rank 3 blocks its step-0 partner forever.
        // The watchdog must surface that as RankDead, not hang or panic.
        let pool = ExecutorPool::global();
        let sched = allreduce(8, AllreduceAlg::RecursiveDoubling);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let err = pool
            .try_run_with_dead(&compiled, w.initial_state(&sched), &[3])
            .expect_err("a dead partner must stall the exchange");
        match err {
            ExecError::RankDead { step, src, dst } => {
                assert_eq!(step, 0, "the stall is detected at the first exchange");
                assert_eq!(src, 3, "the diagnosed sender is the dead rank");
                assert_ne!(dst, 3, "the blocked rank survived");
            }
            other => panic!("expected RankDead, got {other}"),
        }
        assert_eq!(
            err.message(),
            "rank blocked forever on a receive from a dead rank"
        );
        assert!(err.to_string().contains("dead rank 3"), "{err}");

        // The pool is fully usable afterwards and still bit-identical.
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        let finals = pool
            .try_run_with_dead(&compiled, w.initial_state(&sched), &[])
            .expect("empty dead set is the healthy path");
        assert_eq!(finals, reference);
    }

    #[test]
    fn a_dead_leaf_does_not_stall_the_surviving_ranks() {
        // A broadcast leaf forwards nothing: killing it leaves every other
        // rank's data flow intact, so the run completes and the survivors'
        // results are bit-identical to the healthy reference.
        let sched = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
        let leaf = (0..8)
            .find(|r| sched.messages().all(|(_, m)| m.src != *r))
            .expect("a binomial tree has leaves");
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        let finals = ExecutorPool::global()
            .try_run_with_dead(&compiled, w.initial_state(&sched), &[leaf])
            .expect("a dead leaf stalls nobody");
        for (rank, (got, want)) in finals.iter().zip(&reference).enumerate() {
            if rank != leaf {
                assert_eq!(got, want, "rank {rank} diverged");
            }
        }
    }

    #[test]
    fn a_one_lane_pool_is_the_calling_thread() {
        // Nothing to hand a run to: no worker handles, no queue.
        assert_eq!(std::mem::size_of::<ExecutorPool>(), 0);
        let sched = allreduce(16, AllreduceAlg::BineLarge);
        let compiled = Arc::new(sched.compile());
        for elems in [2, 1024] {
            let initial = Workload::for_schedule(&sched, elems).initial_state(&sched);
            let mut by_hand = compiled::to_dense(&compiled, initial.clone());
            compiled::run_dense(&compiled, &mut by_hand);
            let dense = compiled::to_dense(&compiled, initial);
            let pooled = ExecutorPool::global().run_dense(&compiled, dense);
            assert_eq!(pooled, by_hand, "{elems} elements");
        }
    }

    #[test]
    fn more_callers_than_lanes_all_finish() {
        // Eight callers, more than there are cores: each completes on its
        // own thread, none waits for another.
        let pool = ExecutorPool::global();
        let sched = allreduce(16, AllreduceAlg::BineLarge);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    assert_eq!(pool.run(&compiled, w.initial_state(&sched)), reference);
                });
            }
        });
    }

    /// The stall rule, written out apart from the survivor replay: the
    /// receive dead ranks stall is in the earliest step in which a live rank
    /// receives from a dead one, at that step's smallest such send index.
    fn first_blocked_receive(compiled: &CompiledSchedule, dead: &[usize]) -> Option<ExecError> {
        let is_dead = |rank: u32| dead.contains(&(rank as usize));
        (0..compiled.num_steps()).find_map(|step| {
            let mut sends = compiled.step_send_range(step).map(|i| compiled.send(i));
            let send = sends.find(|s| is_dead(s.src) && !is_dead(s.dst))?;
            let (src, dst) = (send.src as usize, send.dst as usize);
            Some(ExecError::RankDead { step, src, dst })
        })
    }

    #[test]
    fn a_dead_rank_stalls_the_earliest_receive_from_it_or_nobody() {
        let (mut stalled, mut completed) = (0, 0);
        for request in bine_sched::walk(&[3, 8, 16]) {
            let Some(sched) = request.build() else {
                continue;
            };
            let compiled = Arc::new(sched.compile());
            let initial = Workload::for_schedule(&sched, 2).initial_state(&sched);
            let healthy = std::cell::OnceCell::new();
            // Every rank up to p = 8, a few at p = 16.
            let p = sched.num_ranks;
            let victims: Vec<usize> = match p {
                ..=8 => (0..p).collect(),
                _ => vec![0, p / 2 + 1, p - 1],
            };
            for dead in victims {
                let what = format!("{} with rank {dead} dead", request.label());
                let got =
                    ExecutorPool::global().try_run_with_dead(&compiled, initial.clone(), &[dead]);
                match first_blocked_receive(&compiled, &[dead]) {
                    Some(stall) => {
                        assert_eq!(got, Err(stall), "{what}");
                        stalled += 1;
                    }
                    None => {
                        let healthy = healthy
                            .get_or_init(|| sequential::run_reference(&sched, initial.clone()));
                        let mut expected = healthy.clone();
                        expected[dead] = initial[dead].clone();
                        assert_eq!(got, Ok(expected), "{what}");
                        completed += 1;
                    }
                }
            }
        }
        assert!(
            stalled > 8000 && completed > 1000,
            "{stalled} stalled, {completed} completed"
        );
    }

    #[test]
    fn global_pool_is_shared_and_bounded() {
        let a = ExecutorPool::global();
        let b = ExecutorPool::global();
        assert!(std::ptr::eq(a, b));
    }
}
