//! Chaos harness for the failure-aware stack: hammers the
//! [`bine_tune::ServiceSelector`] with seeded, deterministic compile
//! failures while verifying the degraded answers against the binomial
//! baseline under a fault-injected discrete-event simulation.
//!
//! The harness asserts the two robustness contracts of the serving layer:
//!
//! 1. **100% answer availability** — every request gets a compiled,
//!    executable schedule, however many injected compile panics, retries
//!    and tripped circuit breakers it took to produce it. A degraded
//!    request is answered with the binomial [`bine_tune::fallback_pick`];
//!    it is never an error.
//! 2. **Degraded answers are bit-identical to the baseline** — each served
//!    fallback schedule is simulated under a seeded
//!    [`bine_net::fault::FaultSpec`] plan (degraded links, latency spikes,
//!    stragglers) on the optimized DES and compared bit-for-bit against
//!    the *reference* DES running a directly-built binomial schedule: same
//!    makespan bits, same per-rank finish bits, same message counts.
//!    Healthy answers get the same optimized-vs-reference pin on their own
//!    schedule, so the chaos run doubles as a faulted-DES equivalence
//!    sweep.
//!
//! [`run`] is shared by `bine-bench chaos` (the CI smoke step) and the
//! unit tests below.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::fault::{splitmix64, FaultSpec};
use bine_net::sim::{SimReport, SimRequest};
use bine_net::view::system_topology;
use bine_sched::{build, Collective};
use bine_tune::{
    fallback_pick, slug, tuned_name, CompileAttempt, DegradePolicy, ServiceSelector, ServiceStats,
};

use crate::{serve, storm, StatsOnFailure};

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// System whose committed decision table is served (and whose topology
    /// hosts the faulted simulations).
    pub system: String,
    /// Concurrent requester threads in the storm phase.
    pub threads: usize,
    /// Requests issued per thread during the storm.
    pub requests_per_thread: usize,
    /// Seed of both fault surfaces: the compile-failure draws and the DES
    /// fault plan. Same seed, same chaos — the run is fully reproducible.
    pub seed: u64,
    /// Probability that a primary compile attempt panics. Drawn
    /// deterministically per `(collective, nodes, attempt)`, so some
    /// entries always fail (their breaker trips), some recover on retry
    /// and some never fail.
    pub fail_rate: f64,
    /// Degradation policy the service runs under. The default uses an
    /// hour-long breaker cooldown so entries broken during the storm are
    /// still observably degraded in the verification pass (half-open
    /// recovery is pinned by the `bine-tune` unit tests instead).
    pub policy: DegradePolicy,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            system: "LUMI".into(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            requests_per_thread: 400,
            seed: 42,
            fail_rate: 0.4,
            policy: DegradePolicy {
                flight_timeout: Duration::from_millis(500),
                max_retries: 1,
                backoff_base: Duration::from_micros(100),
                backoff_cap: Duration::from_millis(2),
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(3600),
            },
        }
    }
}

/// Outcome of one chaos run. `availability` must be 1.0 and
/// `unexpected_answers` 0 for the run to count as passed (`bine-bench chaos`
/// exits non-zero otherwise); bit-identity of the degraded answers is
/// verified inside [`run`], which errors on any mismatch.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Requests issued during the storm phase.
    pub total_requests: u64,
    /// Storm requests that received a compiled schedule.
    pub answered: u64,
    /// Storm answers that were the tuned pick.
    pub tuned_answers: u64,
    /// Storm answers that were the binomial fallback (degraded mode).
    pub fallback_answers: u64,
    /// Storm answers that were neither — always 0 unless the cache
    /// published a corrupted entry.
    pub unexpected_answers: u64,
    /// Compile panics the injection hook actually fired.
    pub injected_panics: u64,
    /// The service's counter snapshot after the verification pass.
    pub service: ServiceStats,
    /// Entries still answering with the fallback in the verification pass
    /// (their breakers tripped during the storm and stayed open).
    pub degraded_entries: usize,
    /// Schedules simulated under the seeded fault plan, optimized vs
    /// reference, all bit-identical (a mismatch aborts [`run`] instead).
    pub sim_checked: usize,
    /// Links degraded or spiked by the seeded fault plan (at the largest
    /// node count of the query mix).
    pub faulted_links: usize,
    /// Straggler ranks in the seeded fault plan (at the largest node count
    /// of the query mix).
    pub stragglers: usize,
}

impl ChaosReport {
    /// Fraction of storm requests that received an answer. The contract is
    /// exactly 1.0.
    pub fn availability(&self) -> f64 {
        if self.total_requests == 0 {
            1.0
        } else {
            self.answered as f64 / self.total_requests as f64
        }
    }

    /// Fraction of answered storm requests served in degraded mode.
    pub fn degraded_share(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.fallback_answers as f64 / self.answered as f64
        }
    }
}

/// A uniform draw in `[0, 1)` for one compile attempt.
fn failure_roll(seed: u64, collective: Collective, nodes: usize, attempt: u32) -> f64 {
    let h = splitmix64(
        seed ^ splitmix64(
            collective as u64 ^ splitmix64(nodes as u64 ^ splitmix64(attempt as u64)),
        ),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// What a served answer is; the discriminant indexes the storm's tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// The tuned pick.
    Tuned,
    /// The binomial fallback: degraded mode.
    Fallback,
    /// Neither: the cache published a corrupted entry.
    Unexpected,
}

fn classify(algorithm: &str, tuned: &str, collective: Collective, bytes: u64) -> Answer {
    if algorithm == tuned {
        Answer::Tuned
    } else if algorithm == fallback_pick(collective, bytes) {
        Answer::Fallback
    } else {
        Answer::Unexpected
    }
}

fn reports_bit_identical(a: &SimReport, b: &SimReport) -> bool {
    a.makespan_us.to_bits() == b.makespan_us.to_bits()
        && a.network_messages == b.network_messages
        && a.peak_active_flows == b.peak_active_flows
        && a.rank_finish_us.len() == b.rank_finish_us.len()
        && a.rank_finish_us
            .iter()
            .zip(&b.rank_finish_us)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the chaos harness: a multi-threaded request storm against a
/// fault-injected service, then a serial verification pass that simulates
/// every answer under the seeded DES fault plan and checks degraded
/// answers bit-for-bit against directly-built binomial baselines.
///
/// `Err` means the harness itself could not uphold a contract it checks
/// structurally (missing tables, an unanswered verification request, or a
/// bit mismatch); storm-phase availability lands in the report for the
/// caller to judge.
pub fn run(opts: &ChaosOptions) -> Result<ChaosReport, String> {
    let injected = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&injected);
    let (seed, fail_rate) = (opts.seed, opts.fail_rate);
    let service = ServiceSelector::load_default()?
        .with_policy(opts.policy)
        .with_compile_hook(Arc::new(move |a: &CompileAttempt| {
            if failure_roll(seed, a.collective, a.nodes, a.attempt) < fail_rate {
                counter.fetch_add(1, Ordering::Relaxed);
                panic!("injected compile failure");
            }
        }));
    let sys = service.resolve_system(&opts.system)?;
    let on_failure = StatsOnFailure::watch(&service);

    // The standard serving query mix: every query resolves against the
    // committed tables, and every pick (tuned or fallback) is buildable at
    // its power-of-two rank count.
    let queries = serve::queries();
    let expected: Vec<String> = queries
        .iter()
        .map(|&(c, n, b)| {
            service
                .choose_at(sys, c, n, b)
                .map(|t| tuned_name(t.algorithm, t.segments))
                .ok_or_else(|| format!("no table entry for ({}, {n}, {b})", c.name()))
        })
        .collect::<Result<_, _>>()?;

    // --- storm phase: concurrent requests against the failing service ---
    let threads = opts.threads.max(1);
    let requests_per_thread = opts.requests_per_thread.max(queries.len());
    let (answers, _) = storm(
        threads,
        requests_per_thread,
        queries.len(),
        |tally: &mut [u64; 3], j| {
            let (c, n, b) = queries[j];
            // Unanswered requests are not tallied: availability drops below 1.
            if let Some(compiled) = service.compiled_at(sys, c, n, b) {
                tally[classify(&compiled.algorithm, &expected[j], c, b) as usize] += 1;
            }
        },
    );

    // --- verification pass: simulate every answer under the fault plan ---
    let model = CostModel::default();
    let spec = FaultSpec::moderate(opts.seed);
    let slug = slug(&opts.system);
    let mut degraded_entries = 0usize;
    let mut sim_checked = 0usize;
    let mut faulted_links = 0usize;
    let mut stragglers = 0usize;
    for (j, &(c, n, b)) in queries.iter().enumerate() {
        let compiled = service
            .compiled_at(sys, c, n, b)
            .ok_or_else(|| format!("verification request ({}, {n}, {b}) unanswered", c.name()))?;
        let topo = system_topology(&slug, n)
            .ok_or_else(|| format!("no topology for system {:?}", opts.system))?;
        let alloc = Allocation::block(n);
        let plan = spec.plan(topo.num_links(), n).map_err(|e| e.to_string())?;
        faulted_links = faulted_links.max(plan.link_faults().len());
        stragglers = stragglers.max(plan.stragglers().len());
        // The reference-side schedule: the tuned pick itself when healthy,
        // a directly-built binomial baseline when degraded — so a degraded
        // answer is pinned bit-identical to the baseline, not to itself.
        let baseline = match classify(&compiled.algorithm, &expected[j], c, b) {
            Answer::Tuned => None,
            Answer::Fallback => {
                degraded_entries += 1;
                let fallback = fallback_pick(c, b);
                let sched = build(c, fallback, n, 0)
                    .ok_or_else(|| format!("fallback {fallback} unbuildable at {n} ranks"))?;
                Some(sched.compile())
            }
            Answer::Unexpected => {
                return Err(format!(
                    "answer for ({}, {n}, {b}) is {:?}: neither the tuned pick {:?} \
                     nor the fallback {:?}",
                    c.name(),
                    compiled.algorithm,
                    expected[j],
                    fallback_pick(c, b)
                ))
            }
        };
        let optimized = SimRequest::new(&model, &compiled, b, topo.as_ref(), &alloc)
            .faults(&plan)
            .run()
            .into_report();
        let reference = SimRequest::new(
            &model,
            baseline.as_ref().unwrap_or(&compiled),
            b,
            topo.as_ref(),
            &alloc,
        )
        .reference()
        .faults(&plan)
        .run()
        .into_report();
        if !reports_bit_identical(&optimized, &reference) {
            return Err(format!(
                "faulted DES mismatch for ({}, {n}, {b}) answer {:?}: optimized \
                 {:?} vs reference {:?} ({} vs {} messages)",
                c.name(),
                compiled.algorithm,
                optimized.makespan_us,
                reference.makespan_us,
                optimized.network_messages,
                reference.network_messages,
            ));
        }
        sim_checked += 1;
    }

    on_failure.passed();
    Ok(ChaosReport {
        total_requests: (threads * requests_per_thread) as u64,
        answered: answers.iter().sum(),
        tuned_answers: answers[Answer::Tuned as usize],
        fallback_answers: answers[Answer::Fallback as usize],
        unexpected_answers: answers[Answer::Unexpected as usize],
        injected_panics: injected.load(Ordering::Relaxed),
        service: service.stats(),
        degraded_entries,
        sim_checked,
        faulted_links,
        stragglers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rolls_are_deterministic_and_spread() {
        let a = failure_roll(7, Collective::Allreduce, 16, 0);
        assert_eq!(a, failure_roll(7, Collective::Allreduce, 16, 0));
        assert!((0.0..1.0).contains(&a));
        // Different inputs draw differently (overwhelmingly).
        assert_ne!(a, failure_roll(7, Collective::Allreduce, 16, 1));
        assert_ne!(a, failure_roll(8, Collective::Allreduce, 16, 0));
    }

    /// The acceptance scenario at test scale: a storm with an aggressive
    /// fail rate must keep availability at exactly 100%, actually degrade
    /// some entries to the binomial fallback, and pass the faulted-DES
    /// bit-identity verification for every answer.
    #[test]
    fn chaos_run_keeps_full_availability_with_bit_identical_fallbacks() {
        let report = run(&ChaosOptions {
            threads: 4,
            requests_per_thread: 64,
            seed: 7,
            fail_rate: 0.5,
            ..ChaosOptions::default()
        })
        .expect("chaos run");
        assert_eq!(report.availability(), 1.0, "{report:?}");
        assert_eq!(report.unexpected_answers, 0);
        assert_eq!(report.answered, report.total_requests);
        assert!(report.injected_panics > 0, "the hook must actually fire");
        assert!(report.fallback_answers > 0, "some answers must degrade");
        assert!(report.degraded_entries > 0);
        assert_eq!(report.sim_checked, serve::queries().len());
        assert!(report.faulted_links > 0, "the fault plan must not be empty");
        assert!(report.degraded_share() > 0.0 && report.degraded_share() < 1.0);
        assert!(
            report.service.retries > 0,
            "some attempts must have retried"
        );
    }

    /// A zero fail rate is a healthy service: no degradation anywhere, and
    /// the verification pass still pins optimized-vs-reference DES bits
    /// under the fault plan for every tuned answer.
    #[test]
    fn zero_fail_rate_never_degrades() {
        let report = run(&ChaosOptions {
            threads: 2,
            requests_per_thread: 64,
            seed: 3,
            fail_rate: 0.0,
            ..ChaosOptions::default()
        })
        .expect("chaos run");
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.fallback_answers, 0);
        assert_eq!(report.injected_panics, 0);
        assert_eq!(report.degraded_entries, 0);
        assert_eq!(report.service.fallbacks, 0);
        assert_eq!(report.service.timeouts, 0);
        assert_eq!(report.service.retries, 0);
        assert_eq!(report.sim_checked, serve::queries().len());
    }
}
