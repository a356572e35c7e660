//! A persistent worker pool for multi-threaded schedule execution.
//!
//! One OS thread per simulated rank would mean 1024 thread spawns *every
//! call* for a 1024-rank schedule. The [`ExecutorPool`] instead keeps a
//! small fixed set of workers (one per available core by default) alive
//! across runs and multiplexes the ranks over them with per-step work
//! queues:
//!
//! * **gather phase** — the step's sends are split across the workers; each
//!   worker reads the shared payloads of its sends (refcount bumps) into a
//!   staging buffer,
//! * **apply phase** — the destination ranks are split across the workers;
//!   each worker applies the staged payloads of its ranks in schedule order.
//!
//! Both phases are the one step kernel of [`crate::compiled`]
//! (`gather_sends`, `apply_recvs`), run here over per-worker chunks. The
//! phase barrier makes the two phases race-free without contending on the
//! rank states: gathers only read, applies only write the worker's own
//! ranks. Results are bit-identical to the reference interpreter because
//! each receiver applies its payloads in schedule order — thread scheduling
//! cannot reorder floating-point reductions.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use bine_sched::CompiledSchedule;

use crate::compiled::{self, DenseState};
use crate::state::{Block, BlockStore};

/// One unit of work submitted to the pool via
/// [`ExecutorPool::try_run_batch`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The panic payload a worker caught, before conversion to [`ExecError`].
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Typed failure of a pool execution: the panic contract of the executor.
///
/// A rank job that panics inside a worker (a reduce op applied to
/// mismatched block lengths, a send of a block the rank does not hold, a
/// user-provided op gone wrong) is caught *at the worker*, the batch drains
/// fully so no in-flight job still references the run's state, and the
/// failure is surfaced to the caller — as this error from
/// [`ExecutorPool::try_run`] / [`ExecutorPool::try_run_dense`], or re-raised
/// verbatim by the panicking entry points. The pool itself remains fully
/// usable afterwards: no poisoned pool locks, no leaked jobs, no dead
/// workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A job panicked on a worker thread; `message` is the panic payload
    /// (`"opaque panic payload"` when it was not a string).
    JobPanicked {
        /// The panic message of the first failing job of the run.
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
    fn from_panic(payload: PanicPayload) -> Self {
        let message = match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => match payload.downcast::<&'static str>() {
                Ok(s) => (*s).to_owned(),
                Err(_) => "opaque panic payload".to_owned(),
            },
        };
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

/// Locks a mutex, tolerating poison.
///
/// A gather job that panics (e.g. on a missing block) dies while holding a
/// rank's state lock; sibling jobs must still complete their batch so the
/// *original* panic — not a secondary "poisoned" one — reaches the caller,
/// and the states are discarded after a panicked batch anyway.
fn lock_any<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

enum Command {
    Run(Job),
    Exit,
}

/// Completion tracking for one batch of jobs. Each [`ExecutorPool::run_batch`]
/// call gets its own status, so concurrent runs sharing one pool (e.g. the
/// global pool under a parallel test harness) cannot observe each other's
/// completion or panics.
struct BatchStatus {
    /// (jobs still running or queued, first panic payload of this batch).
    state: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    done: Condvar,
}

/// The per-step bounded-progress watchdog of a run under dead-rank
/// injection, shared read-mostly across the step jobs. Before the first
/// stall the only unsatisfiable receives are those from initially-dead
/// ranks, and the run aborts at the step that detects one, so the dead set
/// never grows.
struct Watchdog {
    is_dead: Vec<bool>,
    /// The earliest (smallest send index) receive found unsatisfiable —
    /// sender dead, nothing staged.
    stalled: Mutex<Option<u32>>,
}

/// Shared state between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<VecDeque<Command>>,
    /// Signalled when work is pushed.
    work_ready: Condvar,
}

/// A persistent pool of worker threads executing compiled schedules.
///
/// Create one with [`ExecutorPool::new`] or use the process-wide
/// [`ExecutorPool::global`]. Dropping a pool shuts its workers down.
pub struct ExecutorPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ExecutorPool {
    /// Creates a pool with `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("bine-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// The process-wide pool, sized to the available parallelism. Created on
    /// first use and kept alive for the life of the process.
    pub fn global() -> &'static ExecutorPool {
        static GLOBAL: OnceLock<ExecutorPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            ExecutorPool::new(cores)
        })
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs a batch of jobs to completion, surfacing the first panic as a
    /// typed [`ExecError`] instead of unwinding. The batch always drains
    /// fully — even after a panic every remaining job runs (or has run)
    /// before this returns, so no job still holding state references is in
    /// flight afterwards.
    ///
    /// This is the primary fallible surface the `try_run*` schedule
    /// executors are built on; it is public so callers with their own job
    /// shapes get the same drain-fully panic contract.
    pub fn try_run_batch(&self, jobs: Vec<Job>) -> Result<(), ExecError> {
        self.run_batch_impl(jobs).map_err(ExecError::from_panic)
    }

    /// [`ExecutorPool::try_run_batch`] with the raw panic payload, so the
    /// dense executors can convert once at their own boundary.
    fn run_batch_impl(&self, jobs: Vec<Job>) -> Result<(), PanicPayload> {
        if jobs.is_empty() {
            return Ok(());
        }
        let batch = Arc::new(BatchStatus {
            state: Mutex::new((jobs.len(), None)),
            done: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool poisoned");
            for job in jobs {
                let batch = Arc::clone(&batch);
                queue.push_back(Command::Run(Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(job));
                    let mut state = batch.state.lock().expect("batch poisoned");
                    state.0 -= 1;
                    if let Err(panic) = outcome {
                        state.1.get_or_insert(panic);
                    }
                    if state.0 == 0 {
                        batch.done.notify_all();
                    }
                })));
            }
        }
        self.shared.work_ready.notify_all();
        let mut state = batch.state.lock().expect("batch poisoned");
        while state.0 > 0 {
            state = batch.done.wait(state).expect("batch poisoned");
        }
        match state.1.take() {
            Some(panic) => Err(panic),
            None => Ok(()),
        }
    }

    /// The primary symbolic entry point: executes `compiled` starting from
    /// symbolic `initial` stores on this pool and returns symbolic final
    /// stores, with the executor panic contract surfaced as a typed error —
    /// a panicking rank job (e.g. a reduce op applied to mismatched block
    /// lengths) is caught at the worker and returned as [`ExecError`] after
    /// the whole batch has drained. The pool remains fully usable
    /// afterwards.
    ///
    /// The schedule is taken as an `Arc` so repeated runs (and the worker
    /// jobs) share one compiled form without re-copying it.
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

    /// The primary dense entry point: executes `compiled` over dense states
    /// on this pool, with panics surfaced as [`ExecError`].
    pub fn try_run_dense(
        &self,
        compiled: &Arc<CompiledSchedule>,
        states: Vec<DenseState>,
    ) -> Result<Vec<DenseState>, ExecError> {
        self.run_dense_impl(compiled, states, &[])
    }

    /// [`ExecutorPool::try_run_dense`] with deterministic dead-rank
    /// injection (see [`ExecutorPool::try_run_with_dead`] for the fault
    /// semantics).
    ///
    /// # Panics
    /// Panics if a dead rank is out of range.
    pub fn try_run_dense_with_dead(
        &self,
        compiled: &Arc<CompiledSchedule>,
        states: Vec<DenseState>,
        dead: &[usize],
    ) -> Result<Vec<DenseState>, ExecError> {
        self.run_dense_impl(compiled, states, dead)
    }

    /// Thin panicking wrapper over [`ExecutorPool::try_run_dense`].
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

    fn run_dense_impl(
        &self,
        compiled: &Arc<CompiledSchedule>,
        states: Vec<DenseState>,
        dead: &[usize],
    ) -> Result<Vec<DenseState>, ExecError> {
        let p = compiled.num_ranks;
        assert_eq!(states.len(), p, "one dense state per rank required");
        if p == 0 {
            return Ok(states);
        }
        // Only an injected run has a watchdog; a healthy one allocates
        // nothing for it.
        let watchdog = (!dead.is_empty()).then(|| {
            let mut is_dead = vec![false; p];
            for &d in dead {
                assert!(d < p, "dead rank {d} out of range for {p} ranks");
                is_dead[d] = true;
            }
            Arc::new(Watchdog {
                is_dead,
                stalled: Mutex::new(None),
            })
        });
        let states: Arc<Vec<Mutex<DenseState>>> =
            Arc::new(states.into_iter().map(Mutex::new).collect());
        let layout = compiled.slot_layout();
        // Reused by every step: what each gather worker read, and the
        // staging buffer those reads are assembled into.
        type Staged = Vec<(usize, Block)>;
        let partial: Arc<Vec<Mutex<Staged>>> = Arc::new(
            (0..self.num_workers())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        );
        let mut staging: Arc<Vec<Option<Block>>> = Arc::new(Vec::new());

        for step in 0..compiled.num_steps() {
            let send_range = compiled.step_send_range(step);
            if send_range.is_empty() {
                continue;
            }

            // Gather phase: the step's sends are split across the workers.
            let workers = self.num_workers().min(send_range.len());
            let chunk = send_range.len().div_ceil(workers);
            let jobs = (0..workers).map(|w| {
                let lo = send_range.start + w * chunk;
                let hi = (lo + chunk).min(send_range.end);
                let compiled = Arc::clone(compiled);
                let states = Arc::clone(&states);
                let partial = Arc::clone(&partial);
                let watchdog = watchdog.clone();
                Box::new(move || {
                    let mut staged = lock_any(&partial[w]);
                    compiled::gather_sends(
                        &compiled,
                        step,
                        lo..hi,
                        watchdog.as_deref().map(|w| &w.is_dead[..]),
                        |rank| lock_any(&states[rank]),
                        |entry, payload| staged.push((entry, payload)),
                    );
                }) as Job
            });
            self.run_batch_impl(jobs.collect())
                .map_err(ExecError::from_panic)?;

            // Assemble the staging buffer (moves Arcs, no payload copies).
            // Batches drain fully, so the previous step's apply jobs have
            // let go of it.
            let slots = Arc::get_mut(&mut staging).expect("worker kept a staging reference");
            slots.clear();
            slots.resize(layout.step_payloads(step).len(), None);
            for staged in partial.iter() {
                for (entry, payload) in lock_any(staged).drain(..) {
                    slots[entry] = Some(payload);
                }
            }

            // Apply phase: workers own disjoint destination-rank chunks.
            let workers = self.num_workers().min(p);
            let chunk = p.div_ceil(workers);
            let jobs = (0..workers).map(|w| {
                let lo = w * chunk;
                let hi = (lo + chunk).min(p);
                let compiled = Arc::clone(compiled);
                let states = Arc::clone(&states);
                let staging = Arc::clone(&staging);
                let watchdog = watchdog.clone();
                Box::new(move || {
                    let stalled = compiled::apply_recvs(
                        &compiled,
                        step,
                        compiled.recvs_to_ranks(step, lo..hi),
                        watchdog.as_deref().map(|w| &w.is_dead[..]),
                        |rank| lock_any(&states[rank]),
                        |entry| {
                            Cow::Borrowed(staging[entry].as_ref().expect("staged payload missing"))
                        },
                    );
                    if let (Some(send_idx), Some(watchdog)) = (stalled, &watchdog) {
                        let mut earliest = lock_any(&watchdog.stalled);
                        *earliest = Some(earliest.map_or(send_idx, |e| e.min(send_idx)));
                    }
                }) as Job
            });
            self.run_batch_impl(jobs.collect())
                .map_err(ExecError::from_panic)?;
            let stalled = watchdog.as_ref().and_then(|w| *lock_any(&w.stalled));
            if let Some(send_idx) = stalled {
                let send = compiled.send(send_idx as usize);
                return Err(ExecError::RankDead {
                    step,
                    src: send.src as usize,
                    dst: send.dst as usize,
                });
            }
        }

        // Batches drain fully even on a panic, so no in-flight job can still
        // hold a reference here — on success *or* on the early-error paths
        // above, where `states` is simply dropped.
        let states = Arc::try_unwrap(states).expect("worker kept a state reference");
        Ok(states
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect())
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool poisoned");
            for _ in 0..self.workers.len() {
                queue.push_back(Command::Exit);
            }
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let command = {
            let mut queue = shared.queue.lock().expect("pool poisoned");
            loop {
                match queue.pop_front() {
                    Some(c) => break c,
                    None => queue = shared.work_ready.wait(queue).expect("pool poisoned"),
                }
            }
        };
        match command {
            // Batch wrappers catch panics themselves, so `job()` never
            // unwinds into the worker loop.
            Command::Run(job) => job(),
            Command::Exit => return,
        }
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
    fn pool_reuses_a_fixed_worker_set_across_runs() {
        let pool = ExecutorPool::new(3);
        assert_eq!(pool.num_workers(), 3);
        let sched = allreduce(16, AllreduceAlg::BineLarge);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        for _ in 0..5 {
            let finals = pool.run(&compiled, w.initial_state(&sched));
            assert_eq!(finals, reference);
        }
        assert_eq!(pool.num_workers(), 3, "workers must persist across runs");
    }

    #[test]
    fn worker_count_is_independent_of_rank_count() {
        // A 1024-rank schedule on 2 workers: the pool multiplexes, it never
        // spawns per-rank threads.
        let pool = ExecutorPool::new(2);
        let sched = allreduce(1024, AllreduceAlg::BineSmall);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 1);
        let finals = pool.run(&compiled, w.initial_state(&sched));
        assert_eq!(finals.len(), 1024);
        assert!(crate::verify::verify(&w, &finals).is_ok());
    }

    #[test]
    fn panics_inside_jobs_propagate_and_leave_the_pool_usable() {
        let pool = ExecutorPool::new(2);
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
    /// reduce combining them with a healthy block trips `compiled::apply`'s
    /// length assertion *inside a worker* — the injected panicking reduce op.
    fn corrupted_initial(w: &Workload, sched: &bine_sched::Schedule) -> Vec<BlockStore> {
        let mut initial = w.initial_state(sched);
        let store = &mut initial[3];
        let ids: Vec<_> = store.iter().map(|(id, _)| *id).collect();
        for id in ids {
            let mut long = store.get(&id).expect("just listed").clone();
            long.push(0.0);
            store.insert(id, long);
        }
        initial
    }

    #[test]
    fn try_run_surfaces_worker_panics_as_typed_errors() {
        let pool = ExecutorPool::new(2);
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
        // 8 caller threads share one 4-worker pool for several rounds; half
        // inject the panicking reduce op, half run healthy workloads. Every
        // injected run must fail typed, every healthy run must stay
        // bit-identical to the sequential reference, and the pool must end
        // the stress fully usable — no poisoned locks, no leaked jobs.
        let pool = Arc::new(ExecutorPool::new(4));
        let sched = Arc::new(allreduce(16, AllreduceAlg::BineSmall));
        let compiled = Arc::new(sched.compile());
        let w = Arc::new(Workload::for_schedule(&sched, 2));
        let reference = Arc::new(sequential::run_reference(&sched, w.initial_state(&sched)));

        let handles: Vec<_> = (0..8)
            .map(|caller| {
                let pool = Arc::clone(&pool);
                let sched = Arc::clone(&sched);
                let compiled = Arc::clone(&compiled);
                let w = Arc::clone(&w);
                let reference = Arc::clone(&reference);
                thread::spawn(move || {
                    for _round in 0..6 {
                        if caller % 2 == 0 {
                            let finals = pool
                                .try_run(&compiled, w.initial_state(&sched))
                                .expect("healthy run must succeed");
                            assert_eq!(finals, *reference);
                        } else {
                            let err = pool
                                .try_run(&compiled, corrupted_initial(&w, &sched))
                                .expect_err("corrupted run must fail");
                            assert!(
                                err.message().contains("block length mismatch"),
                                "unexpected error: {err}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread must not die");
        }

        // Still healthy after the stress.
        let finals = pool.run(&compiled, w.initial_state(&sched));
        assert_eq!(finals, *reference);
        assert_eq!(pool.num_workers(), 4);
    }

    #[test]
    fn dead_rank_injection_stalls_dependents_with_a_typed_error() {
        // Recursive-doubling allreduce: every rank exchanges with a partner
        // each step, so killing rank 3 blocks its step-0 partner forever.
        // The watchdog must surface that as RankDead, not hang or panic.
        let pool = ExecutorPool::new(2);
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
        let pool = ExecutorPool::new(2);
        let sched = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
        let leaf = (0..8)
            .find(|r| sched.messages().all(|(_, m)| m.src != *r))
            .expect("a binomial tree has leaves");
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        let finals = pool
            .try_run_with_dead(&compiled, w.initial_state(&sched), &[leaf])
            .expect("a dead leaf stalls nobody");
        for (rank, (got, want)) in finals.iter().zip(&reference).enumerate() {
            if rank != leaf {
                assert_eq!(got, want, "rank {rank} diverged");
            }
        }
    }

    #[test]
    fn global_pool_is_shared_and_bounded() {
        let a = ExecutorPool::global();
        let b = ExecutorPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.num_workers() >= 1);
    }
}
