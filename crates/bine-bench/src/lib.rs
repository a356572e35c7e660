//! # bine-bench
//!
//! The benchmark harness of the Bine Trees reproduction: the evaluation
//! library behind the one `bine-bench <subcommand>` binary (`src/main.rs`
//! is its dispatch table, `src/cli.rs` its argument / exit-code plumbing,
//! `src/cmd/` the subcommand entry functions). The shared modules:
//!
//! * [`systems`] — the four evaluation targets (LUMI, Leonardo,
//!   MareNostrum 5, Fugaku) with their node counts and vector sizes,
//! * [`runner`] — the [`Evaluator`]: a `bine_tune::Scorer` over one system
//!   (modelled time and global traffic of every (collective, algorithm,
//!   nodes, vector size) configuration) plus the paper's naming, the pruned
//!   best-algorithm sweeps behind the heatmaps, and the bridge to the
//!   `bine-tune` decision tables (`Evaluator::tuned_pick`),
//! * [`report`] — geometric means, percentiles, box-plot summaries and table
//!   rendering,
//! * [`tables`] — the shared table/figure builders (`bine-bench paper`),
//! * [`perfgate`] — the CI perf-regression gate over `BENCH_exec.json`
//!   (`bine-bench gate perf`),
//! * [`serve`] — the serving-layer benchmark: requests/sec and p99/p999 latency
//!   of the concurrent `bine_tune::ServiceSelector` against the
//!   single-threaded selector baseline (`bine-bench serve`),
//! * [`chaos`] — the failure-injection harness: a request storm with seeded
//!   compile panics and a faulted-DES verification pass, asserting 100%
//!   answer availability with fallback answers bit-identical to the
//!   binomial baseline (`bine-bench chaos`, a CI smoke step),
//! * [`crash`] — the crash-fault harness: a storm of executions under
//!   seeded dead-rank plans, asserting that every stall either recovers by
//!   shrink-and-retry bit-identically to a direct survivor-communicator
//!   run (finals and traffic) or surfaces as a typed error
//!   (`bine-bench crash`, a CI smoke step),
//! * [`adaptive`] — the adaptive-serving harness: the online feedback loop
//!   against a seeded faulted DES (`bine-bench adaptive`, a CI smoke step).
//!
//! `bine-bench tune` regenerates the committed `tuning/*.json` decision
//! tables from [`runner::tune_target`]; `bine-bench gate tune` is the CI
//! drift gate over them. `bine-bench exec` records the execution
//! micro-benchmarks into `BENCH_exec.json`; together with `gate perf` it is
//! the one way a micro-number is produced and held.
//!
//! ## Quick example
//!
//! ```
//! use bine_bench::{Evaluator, System};
//! use bine_sched::Collective;
//!
//! // One Fig. 9-style grid point: modelled allreduce time and global-link
//! // traffic for bine-large vs the recursive-doubling butterfly at 16 LUMI
//! // nodes, 1 MiB vectors.
//! let mut eval = Evaluator::new(System::lumi());
//! let bine = eval.evaluate(Collective::Allreduce, "bine-large", 16, 1 << 20);
//! let rd = eval.evaluate(Collective::Allreduce, "recursive-doubling", 16, 1 << 20);
//! assert!(bine.time_us > 0.0 && rd.time_us > 0.0);
//! // The paper's headline: Bine's locality keeps bytes off the global links.
//! assert!(bine.global_bytes < rd.global_bytes);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod chaos;
pub mod crash;
pub mod perfgate;
pub mod report;
pub mod runner;
pub mod serve;
pub mod systems;
pub mod tables;

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

pub use runner::{compare_vs_binomial, heatmap, improvement_distribution, Evaluator, HeadToHead};
pub use systems::{paper_vector_sizes, System, SystemKind};

/// The best-of clock: the minimum over `repeats` runs (at least one) of the
/// elapsed time `run` reports, divided by the `ops` it performed, in
/// nanoseconds. The minimum, not the median, because `gate perf` diffs
/// these numbers across runs and machines: co-scheduled load inflates
/// medians but rarely the best sample.
pub fn best_of(repeats: usize, ops: usize, mut run: impl FnMut() -> Duration) -> f64 {
    let per_op = |_| run().as_nanos() as f64 / ops as f64;
    (0..repeats.max(1))
        .map(per_op)
        .fold(f64::INFINITY, f64::min)
}

/// How long `body` takes: one run of the [`best_of`] clock.
pub fn timed(body: impl FnOnce()) -> Duration {
    let start = Instant::now();
    body();
    start.elapsed()
}

/// What one storm worker records, merged with the others' after the join.
pub(crate) trait Tally: Send {
    /// An empty tally with room for `visits` records. Workers build theirs
    /// before the barrier, so the storm times requests, not the growth of
    /// a sample vector.
    fn with_capacity(visits: usize) -> Self;
    fn merge(&mut self, other: Self);
}

impl Tally for () {
    fn with_capacity(_: usize) {}
    fn merge(&mut self, _: ()) {}
}

/// Per-request samples, concatenated.
impl Tally for Vec<u64> {
    fn with_capacity(visits: usize) -> Self {
        Vec::with_capacity(visits)
    }
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Per-class counts, summed.
impl<const N: usize> Tally for [u64; N] {
    fn with_capacity(_: usize) -> Self {
        [0; N]
    }
    fn merge(&mut self, other: Self) {
        self.iter_mut().zip(other).for_each(|(a, b)| *a += b);
    }
}

/// The seeded request storm of the serving harnesses: `threads` workers
/// (at least one) start on one barrier, and worker `t` visits mix index
/// `(i + 7t) % len` for `i < per_thread`, recording into its own tally.
/// Returns the merged tally and the worker-side span, from the first
/// barrier release to the last completion — the spawning thread's clock
/// would race the workers on a saturated machine.
pub(crate) fn storm<T: Tally>(
    threads: usize,
    per_thread: usize,
    len: usize,
    visit: impl Fn(&mut T, usize) + Sync,
) -> (T, Duration) {
    let threads = threads.max(1);
    let barrier = Barrier::new(threads);
    let epoch = Instant::now();
    // Workers hand their results over through a mutex and the scope joins
    // them. Joining each handle in turn read serve's gated throughput
    // slower in 40 of 60 paired runs (2000 requests per worker, two shared
    // vCPUs).
    let done = Mutex::new(Vec::with_capacity(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (barrier, visit, done) = (&barrier, &visit, &done);
            scope.spawn(move || {
                let mut tally = T::with_capacity(per_thread);
                barrier.wait();
                let begin = epoch.elapsed();
                for i in 0..per_thread {
                    visit(&mut tally, (i + 7 * t) % len);
                }
                let end = epoch.elapsed();
                done.lock()
                    .expect("no worker panics holding the results")
                    .push((tally, begin, end));
            });
        }
    });
    let workers: Vec<(T, Duration, Duration)> = done
        .into_inner()
        .expect("no worker panics holding the results");
    let first = workers.iter().map(|w| w.1).min().unwrap_or_default();
    let last = workers.iter().map(|w| w.2).max().unwrap_or_default();
    let mut tallies = workers.into_iter().map(|w| w.0);
    let mut merged = tallies.next().expect("at least one worker");
    tallies.for_each(|tally| merged.merge(tally));
    (merged, last.saturating_sub(first))
}

/// Scope guard of the serving harnesses ([`chaos`], [`crash`],
/// [`adaptive`]): unless the run reaches its end and calls
/// [`StatsOnFailure::passed`], dropping it prints the service's counter
/// snapshot to stderr — so a failed (or panicking) run shows what the
/// service was doing, whichever `?` it bailed out through.
pub(crate) struct StatsOnFailure<'a>(Option<&'a bine_tune::ServiceSelector>);

impl<'a> StatsOnFailure<'a> {
    pub(crate) fn watch(service: &'a bine_tune::ServiceSelector) -> Self {
        StatsOnFailure(Some(service))
    }

    pub(crate) fn passed(mut self) {
        self.0 = None;
    }
}

impl Drop for StatsOnFailure<'_> {
    fn drop(&mut self) {
        if let Some(service) = self.0 {
            eprintln!("service stats at failure: {:?}", service.stats());
        }
    }
}
