//! `bine-bench paper <artifact>`: the tables and figures of the paper's
//! evaluation, one entry function per rendering.

use bine_bench::report::{format_bytes, render_table, BoxPlot};
use bine_bench::systems::{paper_vector_sizes, System, SystemKind};
use bine_bench::tables::{
    comparison_table, des_comparison_table, heatmap_table, improvement_summary,
};
use bine_core::distance::{
    delta_bine, delta_binomial, total_distance_bine, total_distance_binomial,
};
use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::sim::SimRequest;
use bine_net::topology::{Dragonfly, FatTree, Topology};
use bine_net::trace::JobTraceGenerator;
use bine_net::traffic::{global_traffic_reduction, per_step};
use bine_sched::collectives::allgather::allgather_with_strategy;
use bine_sched::collectives::{
    allgather, allreduce, broadcast, AllgatherAlg, AllreduceAlg, BroadcastAlg,
};
use bine_sched::{bine_default, binomial_default, build, Collective, NonContigStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cli::{Args, Outcome};

/// Fig. 1 — global-link traffic of a broadcast on an 8-node, 2:1
/// oversubscribed fat tree (two nodes per leaf switch).
///
/// Paper result: the distance-doubling binomial broadcast (Open MPI) forwards
/// 6n bytes over global links, the distance-halving one (MPICH) 3n bytes.
/// This recomputes both, plus the Bine tree, per step.
pub fn fig01(_: Args) -> Outcome {
    let topo = FatTree::figure1();
    let alloc = Allocation::block(8);
    let n: u64 = 1000; // "n bytes" in the figure

    println!("Fig. 1 — broadcast on an 8-node 2:1 oversubscribed fat tree (n = {n} bytes)");
    println!("paper: distance-doubling = 6n, distance-halving = 3n over global links\n");

    let algs = [
        BroadcastAlg::BinomialDistanceDoubling,
        BroadcastAlg::BinomialDistanceHalving,
        BroadcastAlg::BineTree,
    ];
    for alg in algs {
        let steps = per_step(&broadcast(8, 0, alg), n, &topo, &alloc);
        let per_step: Vec<u64> = steps.iter().map(|step| step.global_bytes).collect();
        let global_bytes: u64 = per_step.iter().sum();
        println!(
            "{:<32} global bytes = {global_bytes:>5}  ({:.1} n)   per step: {per_step:?}",
            alg.name(),
            global_bytes as f64 / n as f64,
        );
    }

    // The same comparison under both time models, at a bandwidth-dominated
    // vector size: the DES tracks per-rank dependencies instead of global
    // barriers, so the traffic difference translates into a larger runtime
    // gap than the synchronous per-step maxima suggest.
    let model = CostModel::default();
    let big = 8 << 20;
    println!("\nmodelled broadcast time at 8 MiB (us): synchronous barrier model vs DES");
    for alg in algs {
        let sched = broadcast(8, 0, alg);
        let sync = model.time_us(&sched, big, &topo, &alloc);
        let des = SimRequest::new(&model, &sched.compile(), big, &topo, &alloc)
            .run()
            .makespan_us();
        println!("{:<32} sync = {sync:>9.1}   DES = {des:>9.1}", alg.name());
    }
    Ok(())
}

/// Fig. 5 — distribution of the global-traffic reduction of Bine over
/// binomial trees across job allocations on Leonardo and LUMI.
///
/// The paper mines one/two weeks of Slurm allocations; this samples
/// synthetic fragmented allocations with the same qualitative properties
/// (block distribution over a busy machine) and estimates, for every job, the
/// global traffic of a small-vector allreduce under Bine and binomial trees.
///
/// Paper result: the reduction grows with the job size, stays below the 33%
/// theoretical bound, and a few sub-64-node jobs see a small increase.
pub fn fig05(_: Args) -> Outcome {
    let jobs_per_size = 60;
    println!(
        "Fig. 5 — global-traffic reduction of Bine vs binomial allreduce across job allocations"
    );
    println!("({jobs_per_size} synthetic jobs per node count; theoretical bound = 33%)\n");

    let systems: Vec<(&str, Box<dyn Topology>, Vec<usize>)> = vec![
        (
            "Leonardo",
            Box::new(Dragonfly::leonardo()),
            vec![2, 4, 8, 16, 32, 64, 128, 256],
        ),
        (
            "LUMI",
            Box::new(Dragonfly::lumi()),
            vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
        ),
    ];

    for (name, topo, node_counts) in systems {
        let mut rng = StdRng::seed_from_u64(5);
        let generator = JobTraceGenerator::default();
        let mut rows = Vec::new();
        for &nodes in &node_counts {
            let bine = allreduce(nodes, AllreduceAlg::BineSmall);
            let binom = allreduce(nodes, AllreduceAlg::RecursiveDoubling);
            let mut reductions = Vec::new();
            for sample in generator.sample(topo.as_ref(), nodes, jobs_per_size, &mut rng) {
                let alloc = sample.allocation();
                let red = global_traffic_reduction(&bine, &binom, 1 << 20, topo.as_ref(), &alloc);
                reductions.push(red * 100.0);
            }
            let bp = BoxPlot::of(&reductions);
            let above_bound = reductions.iter().filter(|&&r| r > 33.4).count();
            let negative = reductions.iter().filter(|&&r| r < 0.0).count();
            rows.push(vec![
                nodes.to_string(),
                format!("{:.1}", bp.min),
                format!("{:.1}", bp.q1),
                format!("{:.1}", bp.median),
                format!("{:.1}", bp.q3),
                format!("{:.1}", bp.max),
                negative.to_string(),
                above_bound.to_string(),
            ]);
        }
        println!(
            "{} ({})\n{}",
            name,
            topo.name(),
            render_table(
                &[
                    "nodes",
                    "min%",
                    "q1%",
                    "median%",
                    "q3%",
                    "max%",
                    "#negative",
                    "#above 33%"
                ],
                &rows
            )
        );
    }
    Ok(())
}

/// Fig. 9 (LUMI) and Fig. 10 (Leonardo) — (a) best-algorithm heatmap for
/// allreduce across node counts and vector sizes, (b) distribution of Bine's
/// improvement over the best state-of-the-art algorithm for all eight
/// collectives.
///
/// Paper result: on LUMI Bine is the best allreduce in almost all
/// configurations (up to 1.62×), and the best algorithm in 21–85% of
/// configurations for the other collectives; on Leonardo it is the best
/// allreduce in 67% of configurations (up to 1.45×), the ring algorithm
/// winning for very large vectors at small node counts.
pub fn best_algorithm_figure(system: System) -> Outcome {
    println!("{}", heatmap_table(system.clone(), Collective::Allreduce));
    println!();
    println!("{}", improvement_summary(system.clone()));
    println!();
    println!(
        "{}",
        des_comparison_table(system, Collective::Allreduce, 64, 8)
    );
    Ok(())
}

/// Fig. 11 — improvement of Bine over the best state-of-the-art algorithm on
/// (a) MareNostrum 5 and (b) Fugaku.
///
/// Paper result: on MareNostrum 5 Bine is the best algorithm in 7–86% of
/// configurations depending on the collective (linear algorithms win at the
/// small 4–64-node scale for large vectors); on Fugaku the torus makes every
/// link oversubscribed and Bine's gains are the largest of the four systems.
pub fn fig11(_: Args) -> Outcome {
    println!("{}", improvement_summary(System::marenostrum5()));
    println!();
    println!("{}", improvement_summary(System::fugaku()));
    println!();
    println!(
        "{}",
        des_comparison_table(System::fugaku(), Collective::Allreduce, 64, 8)
    );
    println!();
    println!(
        "note: alltoall on Fugaku is evaluated up to 2048 nodes (a schedule tracks p² blocks)."
    );
    Ok(())
}

/// Fig. 14 (Appendix B) — which non-contiguous-data strategy wins for the
/// Bine allgather on LUMI, per (node count, vector size), and its gain over
/// the standard binomial butterfly.
///
/// Paper result: `permute` wins for small vectors (up to 2.27×), `send`
/// takes over at larger node counts, `block-by-block` for large vectors at
/// moderate scale and `two transmissions` at the largest node counts.
pub fn fig14(_: Args) -> Outcome {
    let system = System::lumi();
    let node_counts = vec![8usize, 16, 32, 64, 128, 256, 512, 1024];
    let sizes = paper_vector_sizes();
    let model = CostModel::default();

    println!("Fig. 14 — best non-contiguous-data strategy for the Bine allgather on LUMI");
    println!("(cell = strategy letter and gain over the standard binomial butterfly;");
    println!(" B = block-by-block, P = permute, S = send, T = two transmissions)\n");

    let mut rows = Vec::new();
    for &n in &sizes {
        let mut row = vec![format_bytes(n)];
        for &nodes in &node_counts {
            let topo = system.topology(nodes);
            let mut rng = StdRng::seed_from_u64(0xF16 ^ nodes as u64);
            let alloc =
                JobTraceGenerator::with_occupancy(0.9).sample(topo.as_ref(), nodes, 1, &mut rng)[0]
                    .allocation();
            let baseline = model.time_us(
                &allgather(nodes, AllgatherAlg::RecursiveDoubling),
                n,
                topo.as_ref(),
                &alloc,
            );
            let mut best: Option<(char, f64)> = None;
            for strategy in NonContigStrategy::ALL {
                let sched = allgather_with_strategy(nodes, strategy)
                    .expect("the figure's node counts are powers of two");
                let t = model.time_us(&sched, n, topo.as_ref(), &alloc);
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((strategy.code(), t));
                }
            }
            let (code, t) = best.unwrap();
            row.push(format!("{code} {:.2}x", baseline / t));
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["Vector".to_string()];
    header.extend(node_counts.iter().map(|n| n.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("{}", render_table(&header_refs, &rows));
    Ok(())
}

/// Tables 3, 4 and 5 — comparison with binomial trees on LUMI (24-group
/// Dragonfly, 16–1024 nodes), Leonardo (23-group Dragonfly+, 16–2048 nodes)
/// and MareNostrum 5 (2:1 oversubscribed fat tree with 160-node subtrees,
/// 4–64 nodes), 32 B–512 MiB vectors.
///
/// Paper result: on LUMI Bine wins 39–94% of the configurations depending on
/// the collective, with average gains around 7–33% and global-traffic
/// reductions of ~10% on average (up to 94% for broadcast). On Leonardo it
/// wins the majority of configurations for every collective (over 90% for
/// half of them), with broadcast gains larger than on LUMI because Open MPI
/// uses the distance-doubling binomial tree. On MareNostrum 5 it wins most
/// configurations; gather/scatter occasionally *increase* global traffic
/// (negative reduction) because the Open MPI distance-doubling binomial
/// keeps its heaviest edge at distance 1.
pub fn comparison(system: System) -> Outcome {
    // The baseline flavour follows the system's MPI library, as in
    // `Evaluator::binomial_algorithm`.
    let baseline = if system.kind == SystemKind::Lumi {
        "Cray MPICH distance-halving"
    } else {
        "Open MPI distance-doubling"
    };
    println!("{}", comparison_table(system));
    println!("(baseline: {baseline} binomial trees and standard butterflies)");
    Ok(())
}

/// Eq. 2 / Sec. 2.4.1 — the ratio between the modular distance of
/// communicating ranks in Bine and binomial trees.
///
/// Paper result: δ_bine(i) / δ_binomial(i) = 2/3 (up to ±1 block), i.e. a
/// 33% reduction in distance and hence an upper bound of 33% on the
/// global-link traffic reduction.
pub fn eq2(_: Args) -> Outcome {
    println!("Eq. 2 — distance ratio between Bine and binomial trees\n");
    let mut rows = Vec::new();
    for s in 3..=16u32 {
        let p = 1u64 << s;
        let per_step: Vec<String> = (0..s.min(6))
            .map(|i| {
                format!(
                    "{:.3}",
                    delta_bine(i, s) as f64 / delta_binomial(i, s) as f64
                )
            })
            .collect();
        let total_ratio = total_distance_bine(s) as f64 / total_distance_binomial(s) as f64;
        rows.push(vec![
            p.to_string(),
            s.to_string(),
            per_step.join(" "),
            format!("{total_ratio:.4}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["p", "steps", "ratio at steps 0..5", "total-distance ratio"],
            &rows
        )
    );
    println!(
        "paper: the ratio converges to 2/3 ≈ 0.667 (Eq. 2), bounding the traffic reduction at 33%"
    );
    Ok(())
}

/// Sec. 6.1 — impact of the number of processes per node: 64 LUMI nodes with
/// one or four ranks per node.
///
/// Paper result: results are largely consistent, but some collectives see
/// larger Bine gains with four processes per node because each node injects
/// more traffic, which emphasises the global-link reduction (e.g. the 1 MiB
/// reduce-scatter gain grows from 59% to 84%).
pub fn disc_ppn(_: Args) -> Outcome {
    let system = System::lumi();
    let nodes = 64usize;
    let model = CostModel::default();
    let topo = system.topology(nodes);

    // Same set of physical nodes for both runs.
    let mut rng = StdRng::seed_from_u64(0x66);
    let node_sample =
        JobTraceGenerator::with_occupancy(0.9).sample(topo.as_ref(), nodes, 1, &mut rng)[0]
            .nodes
            .clone();

    println!("Sec. 6.1 — Bine vs binomial speedup on 64 LUMI nodes, 1 vs 4 processes per node\n");

    let mut rows = Vec::new();
    for collective in [
        Collective::Allreduce,
        Collective::ReduceScatter,
        Collective::Allgather,
        Collective::Broadcast,
    ] {
        for &n in &paper_vector_sizes() {
            if n > 64 * 1024 * 1024 {
                continue;
            }
            let mut cells = vec![collective.name().to_string(), format_bytes(n)];
            for ppn in [1usize, 4] {
                let ranks = nodes * ppn;
                let rank_nodes: Vec<usize> = (0..ranks).map(|r| node_sample[r / ppn]).collect();
                let alloc = Allocation::from_nodes(rank_nodes);
                let small = n <= bine_tune::FALLBACK_SMALL_VECTOR_THRESHOLD;
                let bine = build(collective, bine_default(collective, small), ranks, 0).unwrap();
                let base =
                    build(collective, binomial_default(collective, small), ranks, 0).unwrap();
                let speedup = model.time_us(&base, n, topo.as_ref(), &alloc)
                    / model.time_us(&bine, n, topo.as_ref(), &alloc);
                cells.push(format!("{speedup:.2}x"));
            }
            rows.push(cells);
        }
    }
    println!(
        "{}",
        render_table(
            &["collective", "vector", "speedup @1 ppn", "speedup @4 ppn"],
            &rows
        )
    );
    Ok(())
}
