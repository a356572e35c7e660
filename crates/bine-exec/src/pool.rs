//! The executor every served request runs on.
//!
//! An [`ExecutorPool`] runs a compiled schedule on the calling thread —
//! [`compiled`]'s step or block walk, picked from the input — inside one
//! `catch_unwind`: a rank job that panics comes back as a typed
//! [`ExecError`], and a run with injected dead ranks ends at the first
//! receive that can never complete. Concurrent callers share nothing but the
//! compiled handle, so they never wait for each other. Results are
//! bit-identical to the reference interpreter: each receiver applies its
//! payloads in schedule order.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bine_sched::CompiledSchedule;

use crate::compiled::{self, DenseState, Stall};
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
    /// A surviving rank blocked forever on a receive whose sender is dead
    /// (deterministic dead-rank injection, see
    /// [`ExecutorPool::try_run_with_dead`]). Detected by the per-step
    /// bounded-progress watchdog: the step barrier was reached with the
    /// receive still unsatisfiable, which in a real run means the rank
    /// hangs.
    RankDead {
        /// Step at which the stall was detected.
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
        self.try_run_with_dead(compiled, initial, &[])
    }

    /// [`ExecutorPool::try_run`] with deterministic dead-rank injection: the
    /// `dead` ranks crash before the collective starts — their sends never
    /// leave, their receives are never posted, their state is returned
    /// untouched. Sends *into* a dead rank complete eagerly at the sender.
    /// A surviving rank whose scheduled receive has no payload (its sender
    /// is dead) would block forever in a real run; the per-step watchdog
    /// detects this at the step barrier and aborts the run with
    /// [`ExecError::RankDead`] naming the earliest blocked receive. An empty
    /// `dead` slice is exactly the healthy path.
    ///
    /// # Panics
    /// Panics if a dead rank is out of range.
    pub fn try_run_with_dead(
        &self,
        compiled: &Arc<CompiledSchedule>,
        initial: Vec<BlockStore>,
        dead: &[usize],
    ) -> Result<Vec<BlockStore>, ExecError> {
        let dense = compiled::to_dense(compiled, initial);
        let finals = self.try_run_dense_with_dead(compiled, dense, dead)?;
        Ok(compiled::from_dense(compiled, finals))
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

    /// Thin panicking wrapper over [`ExecutorPool::try_run_dense_with_dead`]
    /// with nobody dead.
    ///
    /// # Panics
    /// On the first failed rank job, with the [`ExecError`] display message
    /// (the pool itself stays usable).
    pub fn run_dense(
        &self,
        compiled: &Arc<CompiledSchedule>,
        states: Vec<DenseState>,
    ) -> Vec<DenseState> {
        self.try_run_dense_with_dead(compiled, states, &[])
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The primary dense entry point: executes `compiled` over dense states,
    /// with panics surfaced as [`ExecError`] and deterministic dead-rank
    /// injection (see [`ExecutorPool::try_run_with_dead`] for the fault
    /// semantics; an empty `dead` slice is the healthy path).
    ///
    /// # Panics
    /// Panics if a dead rank is out of range.
    pub fn try_run_dense_with_dead(
        &self,
        compiled: &Arc<CompiledSchedule>,
        mut states: Vec<DenseState>,
        dead: &[usize],
    ) -> Result<Vec<DenseState>, ExecError> {
        let ranks = compiled.num_ranks;
        assert_eq!(states.len(), ranks, "one dense state per rank required");
        let in_range = dead.iter().all(|&d| d < ranks);
        assert!(
            in_range,
            "dead rank out of range for {ranks} ranks: {dead:?}"
        );
        // A healthy run allocates nothing for the watchdog.
        let is_dead = || (0..ranks).map(|rank| dead.contains(&rank)).collect();
        let dead: Option<Vec<bool>> = (!dead.is_empty()).then(is_dead);
        let run = || compiled::run_lane(compiled, &mut states, dead.as_deref());
        let stall = catch_unwind(AssertUnwindSafe(run)).map_err(ExecError::from_panic)?;
        let Some(Stall { step, send }) = stall else {
            return Ok(states);
        };
        let send = compiled.send(send as usize);
        let (src, dst) = (send.src as usize, send.dst as usize);
        Err(ExecError::RankDead { step, src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use crate::state::Workload;
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
            let seq = sequential::run(&sched, w.initial_state(&sched));
            let pooled =
                ExecutorPool::global().run(&Arc::new(sched.compile()), w.initial_state(&sched));
            assert_eq!(seq, pooled, "{}", sched.algorithm);
        }
    }

    #[test]
    fn pool_executor_matches_sequential_for_alltoall() {
        let sched = alltoall(8, AlltoallAlg::Bine);
        let w = Workload::for_schedule(&sched, 2);
        let seq = sequential::run(&sched, w.initial_state(&sched));
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

    #[test]
    fn the_watchdog_names_the_receive_the_step_walk_stalls_on() {
        let sched = allreduce(16, AllreduceAlg::BineLarge);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let err = ExecutorPool::global()
            .try_run_with_dead(&compiled, w.initial_state(&sched), &[5, 11])
            .expect_err("dead partners stall the exchange");
        let mut dead = vec![false; 16];
        (dead[5], dead[11]) = (true, true);
        let mut states = compiled::to_dense(&compiled, w.initial_state(&sched));
        let stall = compiled::run_steps(&compiled, &mut states, Some(&dead))
            .expect("the step walk stalls too");
        let send = compiled.send(stall.send as usize);
        let (src, dst) = (send.src as usize, send.dst as usize);
        assert_eq!(
            err,
            ExecError::RankDead {
                step: stall.step,
                src,
                dst
            }
        );
        assert!(matches!(err, ExecError::RankDead { step: 0, .. }));
    }

    #[test]
    fn global_pool_is_shared_and_bounded() {
        let a = ExecutorPool::global();
        let b = ExecutorPool::global();
        assert!(std::ptr::eq(a, b));
    }
}
