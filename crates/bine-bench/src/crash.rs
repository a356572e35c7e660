//! Crash-chaos harness for the shrink-and-retry recovery path: hammers
//! [`bine_tune::ServiceSelector::try_execute_recovering`] with seeded
//! dead-rank plans and verifies every answer against a directly-built
//! reference.
//!
//! Where the [`crate::chaos`] harness injects *compile* failures and pins
//! degraded answers under a faulted DES, this harness injects *crash*
//! faults at execution time and asserts the recovery contracts of the
//! serving layer:
//!
//! 1. **100% answer availability** — every request gets a typed outcome:
//!    a completed run over the full communicator, a recovery over the
//!    survivors, or a typed [`bine_exec::ExecError::RankDead`] when the
//!    dead rank's payload is genuinely unrecoverable (a broadcast root).
//!    Nothing hangs, nothing panics, nothing is answered with a wrong
//!    outcome class.
//! 2. **Recovered answers are bit-identical to a direct shrunk run** —
//!    for every recovery, the final block stores equal a reference
//!    interpreter run of the same pick built directly on the survivor
//!    communicator, the recovery schedule passes the
//!    [`bine_sched::ScheduleValidator`], and its [`TrafficReport`] equals
//!    the directly-built schedule's report on the host topology.
//!
//! [`run`] is shared by `bine-bench crash` (the CI smoke step) and the
//! unit tests below.
//!
//! [`TrafficReport`]: bine_net::traffic::TrafficReport

use bine_exec::{ExecError, Workload};
use bine_net::allocation::Allocation;
use bine_net::fault::splitmix64;
use bine_net::traffic;
use bine_net::view::system_topology;
use bine_sched::{Collective, ProviderSet, Schedule};
use bine_tune::{fallback_pick, slug, tuned_name, Served, ServiceSelector, ServiceStats};

use crate::{storm, StatsOnFailure};

/// Configuration of one crash-chaos run.
#[derive(Debug, Clone)]
pub struct CrashOptions {
    /// System whose committed decision table is served (and whose topology
    /// hosts the traffic accounting of the recovery schedules).
    pub system: String,
    /// Concurrent requester threads in the storm phase.
    pub threads: usize,
    /// Requests issued per thread during the storm (floored at one full
    /// pass over the scenario list).
    pub requests_per_thread: usize,
    /// Seed of the dead-rank draws: same seed, same victims, same run.
    pub seed: u64,
    /// Elements per block of the executed workloads (kept small: the
    /// harness checks bits, not throughput).
    pub elems_per_block: usize,
}

impl Default for CrashOptions {
    fn default() -> Self {
        CrashOptions {
            system: "LUMI".into(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            requests_per_thread: 96,
            seed: 42,
            elems_per_block: 2,
        }
    }
}

/// Outcome of one crash-chaos run. `availability` must be 1.0 and
/// `unexpected_outcomes` 0 for the run to count as passed
/// (`bine-bench crash` exits non-zero otherwise); bit-identity of the
/// recovered answers is verified inside [`run`], which errors on any
/// mismatch.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Requests issued during the storm phase.
    pub total_requests: u64,
    /// Storm requests that received a typed outcome.
    pub answered: u64,
    /// Storm answers that completed over the full communicator.
    pub full_answers: u64,
    /// Storm answers recovered over the survivor communicator.
    pub recovered_answers: u64,
    /// Storm answers that were the expected typed unrecoverable error
    /// (a dead rank whose payload exists nowhere else).
    pub unrecoverable_answers: u64,
    /// Storm answers whose outcome class did not match the scenario —
    /// always 0 unless the recovery ladder misjudged a crash plan.
    pub unexpected_outcomes: u64,
    /// Distinct scenarios in the mix (query × kill plan).
    pub scenarios: usize,
    /// Recoveries verified bit-identical to a direct shrunk-communicator
    /// reference run (a mismatch aborts [`run`] instead).
    pub recoveries_checked: usize,
    /// Recovery schedules whose [`bine_net::traffic::TrafficReport`]
    /// matched the directly-built schedule's report.
    pub traffic_checked: usize,
    /// Full-communicator answers verified against the healthy reference
    /// interpreter (per surviving rank when the plan had a harmless death).
    pub full_checked: usize,
    /// Typed unrecoverable errors verified to name the seeded victim.
    pub unrecoverable_checked: usize,
    /// The service's counter snapshot after the verification pass
    /// (`stalls` vs `recoveries` are the two sides of the ladder).
    pub service: ServiceStats,
}

impl CrashReport {
    /// Fraction of storm requests that received a typed outcome. The
    /// contract is exactly 1.0.
    pub fn availability(&self) -> f64 {
        if self.total_requests == 0 {
            1.0
        } else {
            self.answered as f64 / self.total_requests as f64
        }
    }
}

/// The crash query mix: the four tuned collectives at two node counts and
/// two vector sizes, so both recovery cache size classes and the
/// below-grid clamp are exercised. Node counts stay small — every request
/// executes real schedules, twice when it recovers.
pub fn queries() -> Vec<(Collective, usize, u64)> {
    let mut q = Vec::new();
    for &collective in &[
        Collective::Allreduce,
        Collective::Allgather,
        Collective::ReduceScatter,
        Collective::Broadcast,
    ] {
        for &nodes in &[8usize, 16] {
            for &bytes in &[64u64, 1 << 20] {
                q.push((collective, nodes, bytes));
            }
        }
    }
    q
}

/// The outcome class a scenario's kill plan must produce; the discriminant
/// indexes the storm's tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// No load-bearing rank died: the run completes over the full
    /// communicator.
    Full,
    /// A load-bearing rank died and the survivors can rebuild: the service
    /// shrinks and retries.
    Recovered,
    /// The dead rank's payload exists nowhere else (or no algorithm builds
    /// on the survivors): the stall surfaces as a typed error.
    Unrecoverable,
}

/// One storm scenario: a serving query plus a seeded kill plan and the
/// outcome class it must produce.
#[derive(Debug, Clone)]
struct Scenario {
    collective: Collective,
    nodes: usize,
    bytes: u64,
    dead: Vec<usize>,
    expect: Expect,
}

/// The class of an outcome, `None` for an error no kill plan should cause.
fn classify(outcome: &Result<Served, ExecError>) -> Option<Expect> {
    match outcome {
        Ok(Served::Full(_)) => Some(Expect::Full),
        Ok(Served::Recovered(_)) => Some(Expect::Recovered),
        Err(ExecError::RankDead { .. }) => Some(Expect::Unrecoverable),
        Err(_) => None,
    }
}

/// True when `rank` never sends in `sched` — its death stalls nobody.
fn is_leaf(sched: &Schedule, rank: usize) -> bool {
    sched.messages().all(|(_, m)| m.src != rank)
}

/// Derives the deterministic scenario list: for every query, a healthy
/// plan, a seeded non-root kill and a rank-0 kill.
///
/// The expected class encodes the recovery ladder's reach: the reduction
/// and gather families re-contribute from every survivor and always have a
/// linear algorithm at the shrunk (non-power-of-two) rank count, so any
/// single death recovers. Rooted dissemination (broadcast) recovers never:
/// a dead root's payload is lost, a dead leaf stalls nobody, and a dead
/// interior rank leaves a survivor count no tree builder supports — the
/// contract there is a *typed* error, not a hang.
/// The provider set of one loaded system's index — tuned picks can be
/// synthesized (`synth:` names), which the bare catalog cannot build.
fn providers_of(service: &ServiceSelector, sys: usize) -> ProviderSet {
    service
        .index(sys)
        .map(|i| i.providers().clone())
        .unwrap_or_default()
}

fn scenarios(service: &ServiceSelector, sys: usize, seed: u64) -> Result<Vec<Scenario>, String> {
    // Tuned picks can be synthesized (`synth:` names), so they are built
    // through the index's provider set, never the bare catalog.
    let providers = providers_of(service, sys);
    let mut out = Vec::new();
    for (j, &(collective, nodes, bytes)) in queries().iter().enumerate() {
        let tuned = service
            .choose_at(sys, collective, nodes, bytes)
            .ok_or_else(|| {
                format!(
                    "no table entry for ({}, {nodes}, {bytes})",
                    collective.name()
                )
            })?;
        let pick = tuned_name(tuned.algorithm, tuned.segments);
        let sched = providers
            .build(collective, &pick, nodes, 0)
            .ok_or_else(|| format!("tuned pick {pick} unbuildable at {nodes} ranks"))?;
        out.push(Scenario {
            collective,
            nodes,
            bytes,
            dead: vec![],
            expect: Expect::Full,
        });
        let victim = 1 + (splitmix64(seed ^ j as u64) as usize) % (nodes - 1);
        let expect = match collective {
            Collective::Broadcast if is_leaf(&sched, victim) => Expect::Full,
            Collective::Broadcast => {
                // Mirrors shrink_and_retry's candidate probe — the slot
                // pick, then the binomial fallback, on the survivor
                // communicator. A synthesized pick builds at any rank
                // count its view covers, so an interior-victim broadcast
                // that used to be unrecoverable (no non-pow2 catalog
                // builder) now shrinks and recovers.
                let survivors = nodes - 1;
                let recoverable = [pick.as_str(), fallback_pick(collective, bytes)]
                    .iter()
                    .any(|cand| providers.build(collective, cand, survivors, 0).is_some());
                if recoverable {
                    Expect::Recovered
                } else {
                    Expect::Unrecoverable
                }
            }
            _ => Expect::Recovered,
        };
        out.push(Scenario {
            collective,
            nodes,
            bytes,
            dead: vec![victim],
            expect,
        });
        out.push(Scenario {
            collective,
            nodes,
            bytes,
            dead: vec![0],
            expect: match collective {
                Collective::Broadcast => Expect::Unrecoverable,
                _ => Expect::Recovered,
            },
        });
    }
    Ok(out)
}

/// Runs the crash-chaos harness: a multi-threaded storm of
/// `try_execute_recovering` requests under seeded kill plans, then a
/// serial verification pass that re-runs every scenario and checks each
/// outcome in depth — recovered finals against a direct shrunk-communicator
/// reference run, recovery schedules through the validator and the traffic
/// accountant, typed errors against the seeded victim.
///
/// `Err` means a structural contract broke (an unanswered request in the
/// verification pass, a bit mismatch, a traffic mismatch, an invalid
/// recovery schedule); storm-phase availability lands in the report for
/// the caller to judge.
pub fn run(opts: &CrashOptions) -> Result<CrashReport, String> {
    let service = ServiceSelector::load_default()?;
    let on_failure = StatsOnFailure::watch(&service);
    let sys = service.resolve_system(&opts.system)?;
    let scenarios = scenarios(&service, sys, opts.seed)?;
    let elems = opts.elems_per_block.max(1);
    let request = |s: &Scenario| {
        let (c, n, b) = (s.collective, s.nodes, s.bytes);
        service.try_execute_recovering(&opts.system, c, n, b, elems, &s.dead)
    };

    // --- storm phase: concurrent requests with seeded kill plans ---
    let threads = opts.threads.max(1);
    let requests_per_thread = opts.requests_per_thread.max(scenarios.len());
    let (outcomes, _) = storm(
        threads,
        requests_per_thread,
        scenarios.len(),
        |tally: &mut [u64; 4], j| {
            let s = &scenarios[j];
            // Unanswered requests are not tallied: availability drops below 1.
            // Answers count under their class when it is the expected one, and
            // in the last slot otherwise.
            if let Some(outcome) = request(s) {
                let met = classify(&outcome).filter(|&class| class == s.expect);
                tally[met.map_or(3, |class| class as usize)] += 1;
            }
        },
    );

    // --- verification pass: every scenario re-run and checked in depth ---
    let slug = slug(&opts.system);
    let mut recoveries_checked = 0usize;
    let mut traffic_checked = 0usize;
    let mut full_checked = 0usize;
    let mut unrecoverable_checked = 0usize;
    for s in &scenarios {
        let label = format!(
            "({}, {}, {}) dead {:?}",
            s.collective.name(),
            s.nodes,
            s.bytes,
            s.dead
        );
        let outcome =
            request(s).ok_or_else(|| format!("verification request {label} unanswered"))?;
        if classify(&outcome) != Some(s.expect) {
            return Err(format!("{label}: expected {:?}, got {outcome:?}", s.expect));
        }
        match outcome {
            Ok(Served::Full(finals)) => {
                // Pin against the healthy reference interpreter; a dead
                // leaf's own store stays untouched initial state, so only
                // survivors are compared.
                let tuned = service
                    .choose_at(sys, s.collective, s.nodes, s.bytes)
                    .ok_or_else(|| format!("{label}: tuned pick vanished"))?;
                let pick = tuned_name(tuned.algorithm, tuned.segments);
                let sched = providers_of(&service, sys)
                    .build(s.collective, &pick, s.nodes, 0)
                    .ok_or_else(|| format!("{label}: {pick} unbuildable"))?;
                let w = Workload::for_schedule(&sched, elems);
                let expected =
                    bine_exec::sequential::run_reference(&sched, w.initial_state(&sched));
                for rank in 0..s.nodes {
                    if !s.dead.contains(&rank) && finals[rank] != expected[rank] {
                        return Err(format!(
                            "{label}: full-communicator finals of rank {rank} differ \
                             from the reference interpreter"
                        ));
                    }
                }
                full_checked += 1;
            }
            Ok(Served::Recovered(rec)) => {
                let victim = s.dead[0];
                if !matches!(rec.error, ExecError::RankDead { src, .. } if src == victim) {
                    return Err(format!(
                        "{label}: recovery blamed {:?}, not the seeded victim",
                        rec.error
                    ));
                }
                let survivors = s.nodes - s.dead.len();
                if rec.map.num_survivors() != survivors || rec.map.new_rank(victim).is_some() {
                    return Err(format!("{label}: survivor map does not drop the victim"));
                }
                if let Err(e) = rec.schedule.validate() {
                    return Err(format!("{label}: recovery schedule invalid: {e}"));
                }
                // Bit-identity against a direct run of the recovery pick
                // built straight on the survivor communicator.
                let direct = providers_of(&service, sys)
                    .build(s.collective, &rec.pick, survivors, 0)
                    .ok_or_else(|| {
                        format!(
                            "{label}: recovery pick {} unbuildable at {survivors}",
                            rec.pick
                        )
                    })?;
                let w = Workload::for_schedule(&direct, elems);
                let expected =
                    bine_exec::sequential::run_reference(&direct, w.initial_state(&direct));
                if rec.finals != expected {
                    return Err(format!(
                        "{label}: recovered finals differ from a direct {} run at \
                         {survivors} ranks",
                        rec.pick
                    ));
                }
                recoveries_checked += 1;
                // The recovery schedule must offer the same bytes to the
                // same links as the directly-built one.
                let topo = system_topology(&slug, s.nodes)
                    .ok_or_else(|| format!("no topology for system {:?}", opts.system))?;
                let alloc = Allocation::block(survivors);
                let served_traffic =
                    traffic::measure(&rec.schedule, s.bytes, topo.as_ref(), &alloc);
                let direct_traffic = traffic::measure(&direct, s.bytes, topo.as_ref(), &alloc);
                if served_traffic != direct_traffic {
                    return Err(format!(
                        "{label}: recovery traffic {served_traffic:?} differs from the \
                         direct schedule's {direct_traffic:?}"
                    ));
                }
                traffic_checked += 1;
            }
            Err(e) => {
                let victim = s.dead[0];
                if !matches!(e, ExecError::RankDead { src, .. } if src == victim) {
                    return Err(format!("{label}: typed error blamed the wrong rank: {e}"));
                }
                unrecoverable_checked += 1;
            }
        }
    }

    on_failure.passed();
    Ok(CrashReport {
        total_requests: (threads * requests_per_thread) as u64,
        answered: outcomes.iter().sum(),
        full_answers: outcomes[Expect::Full as usize],
        recovered_answers: outcomes[Expect::Recovered as usize],
        unrecoverable_answers: outcomes[Expect::Unrecoverable as usize],
        unexpected_outcomes: outcomes[3],
        scenarios: scenarios.len(),
        recoveries_checked,
        traffic_checked,
        full_checked,
        unrecoverable_checked,
        service: service.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scenario_mix_covers_all_three_outcome_classes() {
        let service = ServiceSelector::load_default().expect("committed tables");
        let sys = service.resolve_system("LUMI").expect("LUMI table");
        let list = scenarios(&service, sys, 42).expect("scenarios");
        assert_eq!(list.len(), 3 * queries().len());
        for expect in [Expect::Full, Expect::Recovered, Expect::Unrecoverable] {
            assert!(
                list.iter().any(|s| s.expect == expect),
                "no scenario expects {expect:?}"
            );
        }
        // Every seeded victim is a live rank of its communicator.
        for s in &list {
            for &d in &s.dead {
                assert!(d < s.nodes);
            }
        }
    }

    /// The acceptance scenario at test scale: seeded crashes must keep
    /// availability at exactly 100%, every recoverable stall must recover
    /// bit-identically to a direct shrunk run (finals and traffic), and
    /// every unrecoverable stall must surface as the typed error naming
    /// the victim.
    #[test]
    fn crash_run_recovers_every_recoverable_stall_bit_identically() {
        let opts = CrashOptions {
            threads: 2,
            requests_per_thread: 1, // floored to one full pass over the scenarios
            seed: 7,
            ..CrashOptions::default()
        };
        let report = run(&opts).expect("crash run");
        assert_eq!(report.availability(), 1.0, "{report:?}");
        assert_eq!(report.unexpected_outcomes, 0, "{report:?}");
        assert_eq!(report.answered, report.total_requests);
        assert!(report.full_answers > 0);
        assert!(report.recovered_answers > 0, "some answers must recover");
        assert!(report.unrecoverable_answers > 0);
        assert!(report.recoveries_checked > 0);
        assert_eq!(report.traffic_checked, report.recoveries_checked);
        assert!(report.full_checked > 0 && report.unrecoverable_checked > 0);
        // Every stall is either recovered or typed-unrecoverable; both
        // phases re-trigger them, so the counters line up exactly.
        assert!(report.service.stalls > report.service.recoveries);
        assert!(report.service.recoveries > 0);
        // The exact outcome of this pass: a change to what stalls or
        // recovers has to say so here.
        let outcomes = (
            report.full_answers,
            report.recovered_answers,
            report.unrecoverable_answers,
        );
        assert_eq!(outcomes, (34, 50, 12), "{report:?}");
        let counters = (report.service.stalls, report.service.recoveries);
        assert_eq!(counters, (93, 75), "{report:?}");
    }

    /// A kill plan of nobody is exactly the healthy path: every answer
    /// completes over the full communicator and no stall is counted.
    #[test]
    fn empty_kill_plans_never_stall() {
        let service = ServiceSelector::load_default().expect("committed tables");
        for (c, n, b) in queries() {
            let served = service
                .try_execute_recovering("LUMI", c, n, b, 2, &[])
                .expect("query resolves")
                .expect("healthy runs complete");
            assert!(!served.is_recovered());
            assert_eq!(served.finals().len(), n);
        }
        let stats = service.stats();
        assert_eq!((stats.stalls, stats.recoveries), (0, 0));
    }
}
