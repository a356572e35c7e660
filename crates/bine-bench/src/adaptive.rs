//! The adaptive-serving harness: drives the online feedback loop of
//! [`bine_tune::ServiceSelector`] end to end against a *wrong* committed
//! model, and proves it converges to the simulation-true winner.
//!
//! The scenario is the one the tentpole exists for. A decision table is
//! committed with the pick the **healthy** model chooses, but the machine
//! then develops a seeded, deterministic fault plan (degraded links,
//! latency spikes, stragglers) the offline model knows nothing about.
//! Observed per-pick costs — here the faulted DES, so the whole run is
//! bit-reproducible across machines — are fed back through
//! [`bine_tune::ServiceSelector::observe_at`]:
//!
//! 1. the entry's observed mean diverges past the committed modelled
//!    score, triggering a single-flight re-evaluation whose scorer is the
//!    *faulted* DES;
//! 2. the DES-true winner (computed independently by this harness over the
//!    same catalog) is promoted into the epoch-versioned overlay, and the
//!    warm request path serves it as an `Arc` clone;
//! 3. when the faults clear (the harness flips its scorer back to the
//!    healthy DES), the override's periodic re-check lets the committed
//!    pick win again and the overlay reverts to empty — the committed
//!    tables were never touched.
//!
//! [`measure`] is shared by `bine-bench adaptive` (CI smoke: exits
//! non-zero unless the run converged and reverted) and `bine-bench exec`, which
//! records the `/adaptive/` warm-path timings into `BENCH_exec.json`
//! (hard-gated like `/serve/`; the `overrides`/`reverts`/`reevals`
//! counters ride along ungated, like the serve-layer health counters).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::fault::FaultSpec;
use bine_net::sim::SimRequest;
use bine_net::view::system_topology;
use bine_net::{FaultPlan, ObservedTiming, Topology};
use bine_sched::{algorithms, Collective, ProviderSet};
use bine_tune::{
    slug, AdaptPolicy, DecisionTable, Entry, Reevaluator, ScoreFn, ScoreModel, ServiceSelector,
};

use crate::{best_of, timed, StatsOnFailure};

/// Configuration of one adaptive-serving run.
#[derive(Debug, Clone)]
pub struct AdaptiveOptions {
    /// Benchmark system whose topology hosts the simulations.
    pub system: String,
    /// Collective of the diverging grid entry.
    pub collective: Collective,
    /// Rank count of the diverging grid entry.
    pub nodes: usize,
    /// Vector size of the grid entry (scoring and observations).
    pub bytes: u64,
    /// Base seed of the fault-plan search (see [`measure`]: the first plan
    /// from this seed that actually flips the DES winner is used, so the
    /// run is deterministic).
    pub seed: u64,
    /// The feedback-loop policy the service runs under.
    pub policy: AdaptPolicy,
    /// Warm-path timing samples per repeat (observe / overridden-hit ns).
    pub timing_samples: usize,
    /// Timing repeats; best (minimum) ns is reported.
    pub repeats: usize,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            system: "LUMI".into(),
            collective: Collective::Allreduce,
            nodes: 16,
            bytes: 1 << 20,
            seed: 42,
            policy: AdaptPolicy::default(),
            timing_samples: 4096,
            repeats: 5,
        }
    }
}

/// Outcome of one adaptive-serving run. The convergence contract is
/// checked structurally inside [`measure`] (which errors on any violation);
/// the fields record what happened for reporting and `BENCH_exec.json`.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The committed pick — the healthy model's winner.
    pub committed_pick: String,
    /// The faulted-DES winner the harness computed independently.
    pub des_true_pick: String,
    /// The committed pick's healthy modelled score (µs), as committed.
    pub committed_healthy_us: f64,
    /// The committed pick's cost under the fault plan (µs) — what the
    /// service actually observes.
    pub committed_faulted_us: f64,
    /// The DES-true winner's cost under the fault plan (µs).
    pub challenger_faulted_us: f64,
    /// Fault-plan seed the search settled on.
    pub plan_seed: u64,
    /// Links degraded or spiked by the chosen plan.
    pub faulted_links: usize,
    /// Straggler ranks in the chosen plan.
    pub stragglers: usize,
    /// Service counter: overrides promoted (exactly 1 in this scenario).
    pub overrides: u64,
    /// Service counter: overrides reverted (exactly 1 in this scenario).
    pub reverts: u64,
    /// Service counter: re-evaluations run (divergence + re-checks).
    pub reevals: u64,
    /// Warm observe cost on a healthy, fully-sampled entry (ns, best-of).
    pub observe_ns: f64,
    /// Warm `compiled_at` cost while the override is active (ns, best-of).
    pub overridden_hit_ns: f64,
}

/// The DES of a `nodes`-rank job on one system, block-allocated: every
/// cost in the loop — committed, observed and re-evaluated — is its
/// makespan.
struct Des {
    model: CostModel,
    topo: Box<dyn Topology + Send + Sync>,
    alloc: Allocation,
    nodes: usize,
}

impl Des {
    fn at(slug: &str, nodes: usize) -> Result<Des, String> {
        Ok(Des {
            model: CostModel::default(),
            topo: system_topology(slug, nodes)
                .ok_or_else(|| format!("no topology for system {slug:?}"))?,
            alloc: Allocation::block(nodes),
            nodes,
        })
    }

    /// The cost of one pick under `faults`, `None` when the pick is not
    /// buildable at this rank count.
    fn cost(
        &self,
        pick: &str,
        collective: Collective,
        bytes: u64,
        faults: Option<&FaultPlan>,
    ) -> Option<f64> {
        let compiled = ProviderSet::catalog_only().compile(collective, pick, self.nodes, 0)?;
        let req = SimRequest::new(
            &self.model,
            &compiled,
            bytes,
            self.topo.as_ref(),
            &self.alloc,
        )
        .time_only();
        let req = match faults {
            Some(plan) => req.faults(plan),
            None => req,
        };
        Some(req.run().makespan_us())
    }

    /// First strict minimum over the catalog of `collective` (the same
    /// tie-break the service's re-evaluator uses), under `faults`.
    fn winner(
        &self,
        collective: Collective,
        bytes: u64,
        faults: Option<&FaultPlan>,
    ) -> Option<(String, f64)> {
        let mut best: Option<(String, f64)> = None;
        for alg in algorithms(collective) {
            if let Some(cost) = self.cost(alg.name(), collective, bytes, faults) {
                if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                    best = Some((alg.name().to_string(), cost));
                }
            }
        }
        best
    }
}

/// Runs the adaptive-serving scenario end to end and checks every step of
/// the convergence contract, erroring (rather than reporting) on any
/// violation: the override must be promoted, must be the independently
/// computed DES-true winner, must be served from the warm path, and must
/// revert once the faults clear.
pub fn measure(opts: &AdaptiveOptions) -> Result<AdaptiveReport, String> {
    let slug = slug(&opts.system);
    let (collective, nodes, bytes) = (opts.collective, opts.nodes, opts.bytes);
    let des = Des::at(&slug, nodes)?;

    // The committed pick: the healthy DES winner, scored exactly as the
    // offline tuner would have (no faults).
    let (committed, committed_healthy) = des
        .winner(collective, bytes, None)
        .ok_or_else(|| format!("no buildable {} at {nodes} ranks", collective.name()))?;

    // Search for the first seeded fault plan that makes the committed
    // model *wrong*: a different catalog winner under the faulted DES, and
    // far enough from the healthy score to clear the divergence threshold.
    // The search order is fixed, so the chosen plan is deterministic.
    let mut chosen = None;
    for plan_seed in opts.seed..opts.seed + 64 {
        let plan = FaultSpec::moderate(plan_seed)
            .plan(des.topo.num_links(), nodes)
            .map_err(|e| e.to_string())?;
        let Some((winner, winner_cost)) = des.winner(collective, bytes, Some(&plan)) else {
            continue;
        };
        let committed_faulted = des
            .cost(&committed, collective, bytes, Some(&plan))
            .expect("the committed pick stays buildable under faults");
        if winner != committed && committed_faulted >= opts.policy.divergence * committed_healthy {
            chosen = Some((plan_seed, plan, winner, winner_cost, committed_faulted));
            break;
        }
    }
    let (plan_seed, plan, des_true, challenger_faulted, committed_faulted) =
        chosen.ok_or_else(|| {
            format!(
                "no fault plan in [{}, {}) flips the {} winner at {nodes} ranks",
                opts.seed,
                opts.seed + 64,
                collective.name()
            )
        })?;
    let (faulted_links, stragglers) = (plan.link_faults().len(), plan.stragglers().len());

    // The service's re-evaluation scorer: the DES over the same catalog,
    // under the fault plan while it is active and healthy after it clears.
    // The flag is the harness's stand-in for "the machine got repaired".
    let healthy = Arc::new(AtomicBool::new(false));
    let scorer: Arc<ScoreFn> = {
        let (healthy, slug, plan) = (Arc::clone(&healthy), slug.clone(), plan.clone());
        Arc::new(move |pick, collective, nodes, bytes| {
            let faults = (!healthy.load(Ordering::Relaxed)).then_some(&plan);
            Des::at(&slug, nodes)
                .ok()?
                .cost(pick, collective, bytes, faults)
        })
    };

    // The served table: the diverging entry plus a permanently-healthy
    // sibling at twice the rank count (its modelled score *is* what the
    // harness observes for it), used to time the steady-state observe path
    // without tripping re-evaluations.
    let sibling_nodes = nodes * 2;
    let sibling_healthy = Des::at(&slug, sibling_nodes)?
        .cost(&committed, collective, bytes, None)
        .ok_or_else(|| format!("{committed} unbuildable at {sibling_nodes} ranks"))?;
    let row = |nodes, time_us| Entry {
        collective,
        dist: None,
        nodes,
        vector_bytes: bytes,
        pick: committed.clone(),
        model: ScoreModel::Des,
        time_us,
    };
    let table = DecisionTable {
        system: "adaptive-lab".into(),
        entries: vec![
            row(nodes, committed_healthy),
            row(sibling_nodes, sibling_healthy),
        ],
    };
    let service = ServiceSelector::from_tables(&[table])
        .with_adaptation(opts.policy, Reevaluator::catalog(scorer));
    let sys = 0;
    let on_failure = StatsOnFailure::watch(&service);
    let observe = |nodes, us| {
        service.observe_at(
            sys,
            collective,
            nodes,
            bytes,
            ObservedTiming::simulation(us),
        );
    };
    // What the warm path answers for the diverging entry, against `want`.
    let serves = |want: &str, when: &str| -> Result<(), String> {
        let served = service
            .compiled_at(sys, collective, nodes, bytes)
            .ok_or_else(|| format!("{when}: the entry must stay servable"))?;
        if served.algorithm != want {
            return Err(format!(
                "{when}: the warm path serves {:?}, expected {want:?}",
                served.algorithm
            ));
        }
        Ok(())
    };

    // --- phase 1: faults active, observations diverge, override lands ---
    serves(&committed, "before the divergence")?;
    for _ in 0..opts.policy.min_samples {
        observe(nodes, committed_faulted);
    }
    let overlay = service.overlay();
    let entry = overlay
        .entries
        .first()
        .ok_or("divergence fed past min_samples must promote an override")?;
    if entry.pick != des_true {
        return Err(format!(
            "override converged to {:?}, but the DES-true winner is {des_true:?}",
            entry.pick
        ));
    }
    serves(&des_true, "under the override")?;

    // --- timings on the warm paths (override still active) ---
    let samples = opts.timing_samples.max(1);
    let overridden_hit_ns = best_of(opts.repeats, samples, || {
        timed(|| {
            for _ in 0..samples {
                std::hint::black_box(service.compiled_at(sys, collective, nodes, bytes));
            }
        })
    });
    // Steady-state observe: the healthy sibling entry, fed its own
    // modelled score so the divergence check runs every time and never
    // fires. Warm it past min_samples first.
    for _ in 0..opts.policy.min_samples {
        observe(sibling_nodes, sibling_healthy);
    }
    let observe_ns = best_of(opts.repeats, samples, || {
        timed(|| {
            for _ in 0..samples {
                observe(sibling_nodes, sibling_healthy);
            }
        })
    });

    // --- phase 2: faults clear, the re-check reverts the override ---
    healthy.store(true, Ordering::Relaxed);
    for _ in 0..opts.policy.recheck_interval {
        observe(nodes, committed_healthy);
    }
    if !service.overlay().is_empty() {
        return Err("the override must revert once the faults clear".into());
    }
    serves(&committed, "after the revert")?;

    on_failure.passed();
    let stats = service.stats();
    Ok(AdaptiveReport {
        committed_pick: committed,
        des_true_pick: des_true,
        committed_healthy_us: committed_healthy,
        committed_faulted_us: committed_faulted,
        challenger_faulted_us: challenger_faulted,
        plan_seed,
        faulted_links,
        stragglers,
        overrides: stats.overrides,
        reverts: stats.reverts,
        reevals: stats.reevals,
        observe_ns,
        overridden_hit_ns,
    })
}

/// The `BENCH_exec.json` entries of a run. The two warm-path timings are
/// hard-gated by `gate perf` (they are the adaptive layer's tax on the
/// serving hot path); the loop counters ride along ungated, like the
/// serve layer's degradation counters.
pub fn bench_entries(r: &AdaptiveReport) -> Vec<(String, f64)> {
    vec![
        ("select-mix/adaptive/observe-ns".into(), r.observe_ns),
        (
            "select-mix/adaptive/overridden-hit-ns".into(),
            r.overridden_hit_ns,
        ),
        ("select-mix/adaptive/overrides".into(), r.overrides as f64),
        ("select-mix/adaptive/reverts".into(), r.reverts as f64),
        ("select-mix/adaptive/reevals".into(), r.reevals as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance scenario at test scale: a seeded fault plan makes
    /// the committed model wrong, the overlay converges to the DES-true
    /// winner, and clearing the faults reverts it — deterministically.
    #[test]
    fn adaptive_run_converges_to_the_des_true_winner_and_reverts() {
        let opts = AdaptiveOptions {
            timing_samples: 64,
            repeats: 1,
            ..AdaptiveOptions::default()
        };
        let r = measure(&opts).expect("adaptive run");
        assert_ne!(r.committed_pick, r.des_true_pick);
        assert!(r.committed_faulted_us >= opts.policy.divergence * r.committed_healthy_us);
        assert!(r.challenger_faulted_us < r.committed_faulted_us);
        assert_eq!(r.overrides, 1, "{r:?}");
        assert_eq!(r.reverts, 1, "{r:?}");
        assert!(r.reevals >= 2, "{r:?}");
        assert!(r.observe_ns > 0.0 && r.overridden_hit_ns > 0.0);

        // Deterministic: a second run lands on the same plan and winner.
        let again = measure(&opts).expect("adaptive run");
        assert_eq!(again.plan_seed, r.plan_seed);
        assert_eq!(again.des_true_pick, r.des_true_pick);
        assert_eq!(
            again.committed_faulted_us.to_bits(),
            r.committed_faulted_us.to_bits()
        );
    }
}
