//! A persistent pool of lanes for multi-threaded schedule execution.
//!
//! One OS thread per simulated rank would mean 1024 thread spawns *every
//! call* for a 1024-rank schedule. An [`ExecutorPool`] of `n` lanes is
//! instead the calling thread plus `n − 1` parked workers that stay alive
//! across runs. A run gives each lane a contiguous chunk of the ranks and
//! splits every step in two phases:
//!
//! * **gather phase** — each lane reads the payloads addressed to its own
//!   ranks out of their senders' states (refcount bumps) into its staging,
//! * **apply phase** — each lane moves its staged payloads into its ranks'
//!   states, in schedule order.
//!
//! Both are the one step kernel of [`crate::compiled`] (`gather_recvs`,
//! `apply_recvs`). The caller opens a phase and works through its lanes
//! itself; workers that pick up a ticket of the run claim lanes beside it.
//! The caller waits only for lanes a worker has already claimed, so it can
//! always finish alone: concurrent callers cannot deadlock each other, and
//! a one-lane pool is the calling thread in [`compiled::run_dense`]'s loop
//! — no queue, no locks, no hand-over — including its choice of walk: a
//! large reduction on one lane runs block by block (see [`crate::compiled`]),
//! a run on more lanes is always the two phases per step described here. The
//! phase barrier makes the phases
//! race-free: gathers only read, applies only write the lane's own ranks.
//! Results are bit-identical to the reference interpreter because each
//! receiver applies its payloads in schedule order — thread scheduling
//! cannot reorder floating-point reductions.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

use bine_sched::CompiledSchedule;

use crate::compiled::{self, DenseState, Stall};
use crate::state::{Block, BlockStore};

/// One unit of work submitted to the pool via
/// [`ExecutorPool::try_run_batch`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The panic payload a lane caught, before conversion to [`ExecError`].
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Typed failure of a pool execution: the panic contract of the executor.
///
/// A rank job that panics (a reduce op applied to mismatched block lengths,
/// a send of a block the rank does not hold, a user-provided op gone wrong)
/// is caught *on the lane it ran on* — a worker's or the caller's own — the
/// phase drains fully so no in-flight job still references the run's state,
/// and the failure is surfaced to the caller — as this error from the
/// `try_run*` entry points, or re-raised verbatim by the panicking ones. The
/// pool itself remains fully usable afterwards: no poisoned pool locks, no
/// leaked jobs, no dead workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A job panicked on one of the lanes; `message` is the panic payload
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

/// Locks a mutex, tolerating poison.
///
/// A gather that panics (e.g. on a missing block) dies holding a rank's
/// state lock; its sibling lanes must still finish the phase so the
/// *original* panic — not a secondary "poisoned" one — reaches the caller,
/// and the states of a panicked run are discarded anyway.
fn lock_any<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One caller's work: units `0..end` of one phase after another, handed to
/// whichever lane asks next. The caller opens the phases and works through
/// each itself ([`Task::run_phase`]); workers holding a ticket for the task
/// claim units beside it ([`Task::help`]). Each task has its own state, so
/// concurrent callers cannot observe each other's completion or panics.
struct Task {
    state: Mutex<TaskState>,
    /// Signalled when a phase opens, when its last unit finishes and when
    /// the task closes — if a lane waits: a caller whose helpers are all
    /// busy elsewhere pays for no wake-up call.
    changed: Condvar,
    /// Runs unit `index` of `phase`.
    unit: Box<dyn Fn(usize, usize) + Send + Sync>,
}

#[derive(Default)]
struct TaskState {
    phase: usize,
    /// The next unclaimed unit of the open phase.
    next: usize,
    end: usize,
    /// Units claimed and not yet finished.
    running: usize,
    /// Lanes blocked on `changed`.
    waiting: usize,
    closed: bool,
    /// The first panic of the open phase.
    panic: Option<PanicPayload>,
}

impl Task {
    fn new(unit: impl Fn(usize, usize) + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::default(),
            changed: Condvar::new(),
            unit: Box::new(unit),
        })
    }

    fn signal(&self, state: &TaskState) {
        if state.waiting > 0 {
            self.changed.notify_all();
        }
    }

    /// Claims and runs units, lock released, until none is left and `done`
    /// holds. A panicking unit is caught here, on whichever lane it runs —
    /// the caller's included — so a phase always drains fully.
    fn work<'a>(
        &'a self,
        mut state: MutexGuard<'a, TaskState>,
        done: impl Fn(&TaskState) -> bool,
    ) -> MutexGuard<'a, TaskState> {
        loop {
            if state.next < state.end {
                let (phase, index) = (state.phase, state.next);
                state.next += 1;
                state.running += 1;
                drop(state);
                let outcome = catch_unwind(AssertUnwindSafe(|| (self.unit)(phase, index)));
                state = lock_any(&self.state);
                state.running -= 1;
                state.panic = state.panic.take().or(outcome.err());
                if state.running == 0 && state.next == state.end {
                    self.signal(&state);
                }
            } else if done(&state) {
                return state;
            } else {
                state.waiting += 1;
                let woken = self.changed.wait(state);
                state = woken.unwrap_or_else(std::sync::PoisonError::into_inner);
                state.waiting -= 1;
            }
        }
    }

    /// The caller's side: opens `phase`, runs every unit no helper claims
    /// first and waits for the claimed ones — never for a helper to start
    /// one. Returns the first panic, if a unit panicked.
    fn run_phase(&self, phase: usize, units: usize) -> Result<(), PanicPayload> {
        let mut state = lock_any(&self.state);
        (state.phase, state.next, state.end) = (phase, 0, units);
        self.signal(&state);
        let mut state = self.work(state, |state| state.running == 0);
        state.panic.take().map_or(Ok(()), Err)
    }

    /// A worker's side: claims units of every phase until the task closes.
    fn help(&self) {
        drop(self.work(lock_any(&self.state), |state| state.closed));
    }

    /// Ends the task: helpers leave, a ticket picked up late does nothing.
    fn close(&self) {
        let mut state = lock_any(&self.state);
        state.closed = true;
        self.signal(&state);
    }
}

/// One multi-lane execution of a compiled schedule: the rank states, and
/// per lane (a contiguous chunk of destination ranks) the staging buffer its
/// gather phase (`2·step`) fills and its apply phase (`2·step + 1`) empties.
/// A phase's units are the lanes.
struct Run {
    compiled: Arc<CompiledSchedule>,
    states: Vec<Mutex<DenseState>>,
    staging: Vec<Mutex<Vec<Option<Block>>>>,
    /// The crashed ranks of an injected run. The run aborts at the first
    /// step that finds a receive from one, so the set never grows.
    dead: Option<Vec<bool>>,
    /// The per-step bounded-progress watchdog: the earliest (smallest send
    /// index) receive any lane found unsatisfiable.
    stalled: Mutex<Option<u32>>,
}

impl Run {
    fn lane_phase(&self, phase: usize, lane: usize) {
        let (step, compiled) = (phase / 2, &*self.compiled);
        let ranks = compiled.num_ranks;
        let per_lane = ranks.div_ceil(self.staging.len());
        let first = (lane * per_lane).min(ranks);
        let recvs = compiled.recvs_to_ranks(step, first..(first + per_lane).min(ranks));
        let dead = self.dead.as_deref();
        let state_of = |rank: usize| lock_any(&self.states[rank]);
        let mut staging = lock_any(&self.staging[lane]);
        if phase & 1 == 0 {
            compiled::gather_recvs(compiled, step, recvs, dead, state_of, &mut staging);
        } else if let Some(send) =
            compiled::apply_recvs(compiled, recvs, dead, &mut staging, state_of)
        {
            let mut earliest = lock_any(&self.stalled);
            *earliest = Some(earliest.map_or(send, |e| e.min(send)));
        }
    }

    /// The caller's side: every step's two phases, up to a panic or stall.
    fn run_steps(&self, task: &Task) -> Result<Option<Stall>, PanicPayload> {
        for step in 0..self.compiled.num_steps() {
            task.run_phase(2 * step, self.staging.len())?;
            task.run_phase(2 * step + 1, self.staging.len())?;
            if let Some(send) = *lock_any(&self.stalled) {
                return Ok(Some(Stall { step, send }));
            }
        }
        Ok(None)
    }
}

/// What the pool handle and its workers share.
struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled once per ticket pushed, and to all on exit.
    work_ready: Condvar,
}

#[derive(Default)]
struct Queue {
    /// One entry per worker a task asked for; never more than workers.
    tickets: VecDeque<Arc<Task>>,
    exit: bool,
}

/// A persistent pool of lanes executing compiled schedules: the calling
/// thread plus parked worker threads. Create one with [`ExecutorPool::new`]
/// or use the process-wide [`ExecutorPool::global`]. Dropping a pool shuts
/// its workers down.
pub struct ExecutorPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ExecutorPool {
    /// Creates a pool of `lanes` lanes (at least 1): the calling thread of
    /// each run plus `lanes − 1` worker threads — none for one lane.
    pub fn new(lanes: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::default(),
            work_ready: Condvar::new(),
        });
        let workers = (1..lanes)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("bine-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The process-wide pool, one lane per available core. Created on first
    /// use and kept alive for the life of the process.
    pub fn global() -> &'static ExecutorPool {
        static GLOBAL: OnceLock<ExecutorPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            ExecutorPool::new(thread::available_parallelism().map_or(4, |n| n.get()))
        })
    }

    /// Lanes of a run on this pool: its worker threads plus the calling thread.
    pub fn num_workers(&self) -> usize {
        self.workers.len() + 1
    }

    /// Offers `task` to up to `helpers` workers no waiting ticket speaks
    /// for; one that a busy worker picks up late finds the task closed. A
    /// one-lane pool has no queue to touch.
    fn post(&self, task: &Arc<Task>, helpers: usize) {
        if self.workers.is_empty() {
            return;
        }
        let mut queue = self.shared.queue.lock().expect("pool poisoned");
        let free = self.workers.len().saturating_sub(queue.tickets.len());
        for _ in 0..helpers.min(free) {
            queue.tickets.push_back(Arc::clone(task));
            self.shared.work_ready.notify_one();
        }
    }

    /// Runs a batch of jobs to completion on the caller's lane and whatever
    /// workers pick it up, surfacing the first panic as a typed
    /// [`ExecError`] instead of unwinding. The batch always drains fully —
    /// even after a panic every remaining job has run before this returns,
    /// so none still holding state references is in flight afterwards: the
    /// contract of the `try_run*` schedule executors, for callers with
    /// their own job shapes.
    pub fn try_run_batch(&self, jobs: Vec<Job>) -> Result<(), ExecError> {
        let units = jobs.len();
        let jobs: Vec<_> = jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
        let task = Task::new(move |_, index| {
            let job = lock_any(&jobs[index]).take();
            job.expect("a unit is claimed once")();
        });
        self.post(&task, units.saturating_sub(1));
        let drained = task.run_phase(0, units);
        task.close();
        drained.map_err(ExecError::from_panic)
    }

    /// The primary symbolic entry point: executes `compiled` starting from
    /// symbolic `initial` stores on this pool and returns symbolic final
    /// stores, with the executor panic contract surfaced as a typed error —
    /// a panicking rank job (e.g. a reduce op applied to mismatched block
    /// lengths) is caught on its lane and returned as [`ExecError`] after
    /// the whole phase has drained. The pool remains fully usable
    /// afterwards.
    ///
    /// The schedule is taken as an `Arc` so repeated runs (and the lanes of
    /// a run) share one compiled form without re-copying it.
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

    /// The primary dense entry point: executes `compiled` over dense states
    /// on this pool, with panics surfaced as [`ExecError`] and deterministic
    /// dead-rank injection (see [`ExecutorPool::try_run_with_dead`] for the
    /// fault semantics; an empty `dead` slice is the healthy path).
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
        let lanes = self.num_workers().min(ranks);
        let stall = if lanes <= 1 {
            // The single-threaded step loop, on the states as they are.
            let run = || compiled::run_lane(compiled, &mut states, dead.as_deref());
            catch_unwind(AssertUnwindSafe(run))
        } else {
            let run = Arc::new(Run {
                compiled: Arc::clone(compiled),
                states: states.into_iter().map(Mutex::new).collect(),
                staging: (0..lanes).map(|_| Mutex::default()).collect(),
                dead,
                stalled: Mutex::new(None),
            });
            let lanes_of = Arc::clone(&run);
            let task = Task::new(move |phase, lane| lanes_of.lane_phase(phase, lane));
            self.post(&task, lanes - 1);
            let stall = run.run_steps(&task);
            task.close();
            // Phases drain fully, so no lane is inside a state any more; a
            // helper on its way out may still hold the run, so the states
            // are taken out of it, not unwrapped.
            let state_of = |state| std::mem::take(&mut *lock_any(state));
            states = run.states.iter().map(state_of).collect();
            stall
        };
        let Some(Stall { step, send }) = stall.map_err(ExecError::from_panic)? else {
            return Ok(states);
        };
        let send = compiled.send(send as usize);
        let (src, dst) = (send.src as usize, send.dst as usize);
        Err(ExecError::RankDead { step, src, dst })
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        // Not `expect`: a drop must not panic.
        lock_any(&self.shared.queue).exit = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool poisoned");
            loop {
                if let Some(task) = queue.tickets.pop_front() {
                    break task;
                }
                if queue.exit {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("pool poisoned");
            }
        };
        // Units catch their own panics: `help` never unwinds into the loop.
        task.help();
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
    fn a_one_lane_pool_is_the_calling_thread() {
        let pool = ExecutorPool::new(1);
        assert!(pool.workers.is_empty(), "one lane spawns no thread");
        assert_eq!(pool.num_workers(), 1);
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let jobs = (0..4).map(|_| {
            let ran_on = Arc::clone(&ran_on);
            Box::new(move || ran_on.lock().unwrap().push(thread::current().id())) as Job
        });
        pool.try_run_batch(jobs.collect()).expect("healthy batch");
        assert_eq!(*ran_on.lock().unwrap(), vec![thread::current().id(); 4]);
    }

    #[test]
    fn a_panic_on_the_callers_own_lane_is_typed_and_the_batch_still_drains() {
        // One lane: every job, the panicking one included, runs on the caller.
        let pool = ExecutorPool::new(1);
        let done = Arc::new(Mutex::new(Vec::new()));
        let jobs = (0..4).map(|i| {
            let done = Arc::clone(&done);
            Box::new(move || {
                assert!(i != 1, "job {i} fails");
                done.lock().unwrap().push(i);
            }) as Job
        });
        let err = pool
            .try_run_batch(jobs.collect())
            .expect_err("job 1 panics");
        assert_eq!(
            err,
            ExecError::JobPanicked {
                message: "job 1 fails".into()
            }
        );
        assert_eq!(*done.lock().unwrap(), vec![0, 2, 3], "drained fully");

        // The same through the schedule executor, and the pool stays good.
        let sched = allreduce(8, AllreduceAlg::RecursiveDoubling);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let err = pool
            .try_run(&compiled, corrupted_initial(&w, &sched))
            .expect_err("mismatched lengths must fail");
        assert!(err.message().contains("block length mismatch"), "{err}");
        let reference = sequential::run_reference(&sched, w.initial_state(&sched));
        assert_eq!(pool.run(&compiled, w.initial_state(&sched)), reference);
    }

    #[test]
    fn more_callers_than_lanes_all_finish() {
        // Eight callers, one worker: seven of them never get a helper, and
        // each completes alone — no lane waits for a lane that has not
        // started.
        let pool = ExecutorPool::new(2);
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
    fn the_watchdog_names_the_same_receive_at_every_lane_count() {
        let sched = allreduce(16, AllreduceAlg::BineLarge);
        let compiled = Arc::new(sched.compile());
        let w = Workload::for_schedule(&sched, 2);
        let stall = |lanes| {
            ExecutorPool::new(lanes)
                .try_run_with_dead(&compiled, w.initial_state(&sched), &[5, 11])
                .expect_err("dead partners stall the exchange")
        };
        let one_lane = stall(1);
        assert!(matches!(one_lane, ExecError::RankDead { step: 0, .. }));
        assert_eq!(stall(2), one_lane);
        assert_eq!(stall(4), one_lane);
    }

    #[test]
    fn global_pool_is_shared_and_bounded() {
        let a = ExecutorPool::global();
        let b = ExecutorPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.num_workers() >= 1);
    }
}
