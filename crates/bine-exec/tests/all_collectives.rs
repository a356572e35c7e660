//! End-to-end correctness: every algorithm of every collective, executed over
//! real data by the reference interpreter and the compiled walks, must
//! satisfy the MPI post-condition of its collective. This is the repository's substitute for the paper's
//! correctness claim that any rank-to-node mapping yields a valid algorithm.

use std::sync::Arc;

use bine_exec::{compiled, sequential, verify, ExecutorPool};
use bine_exec::{BlockStore, Workload};
use bine_sched::catalog::Source;
use bine_sched::{build, walk, Collective, Schedule};

/// Compiles `schedule` and runs it on the process-wide [`ExecutorPool`].
fn pool_run(schedule: &Schedule, initial: Vec<BlockStore>) -> Vec<BlockStore> {
    ExecutorPool::global().run(&Arc::new(schedule.compile()), initial)
}

#[test]
fn every_algorithm_is_correct_on_the_sequential_executor() {
    let mut ran = 0;
    for request in walk(&[2, 4, 8, 32, 64]) {
        // Bare regular names; the root is irrelevant where the collective
        // has none, no need to repeat.
        if !matches!(request.source, Source::Regular(_))
            || request.segments > 1
            || request.repeats_root_zero()
        {
            continue;
        }
        let Some(sched) = request.build() else {
            continue;
        };
        let workload = Workload::for_schedule(&sched, 3);
        let finals = sequential::run_reference(&sched, workload.initial_state(&sched));
        if let Err(e) = verify::verify(&workload, &finals) {
            panic!("{}: {e}", request.label());
        }
        ran += 1;
    }
    assert!(ran > 300, "only {ran} schedules ran");
}

#[test]
fn every_algorithm_is_correct_on_the_pool_executor() {
    let mut ran = 0;
    for request in walk(&[16]) {
        let Some(sched) = request.build() else {
            continue;
        };
        let workload = Workload::for_schedule(&sched, 2);
        let finals = pool_run(&sched, workload.initial_state(&sched));
        if let Err(e) = verify::verify(&workload, &finals) {
            panic!("{} (pool): {e}", request.label());
        }
        ran += 1;
    }
    assert!(ran > 900, "only {ran} schedules ran");
}

#[test]
fn all_four_executors_agree_exactly_with_the_reference() {
    // The reference against the step walk, the block walk and the pool:
    // payloads on both sides of the size (1024 elements) from which a run of
    // a reducing schedule walks block by block. Every regular name, bare, at
    // an interior root.
    let pool = ExecutorPool::global();
    let mut ran = 0;
    for request in walk(&[32]) {
        if !matches!(request.source, Source::Regular(_))
            || request.segments > 1
            || request.root != request.p / 3
        {
            continue;
        }
        let sched = request
            .build()
            .unwrap_or_else(|| panic!("{}", request.label()));
        let handle = Arc::new(sched.compile());
        for elems in [2, 1023, 1024] {
            let what = format!("{} at {elems} elements", request.label());
            let workload = Workload::for_schedule(&sched, elems);
            let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
            let comp = compiled::run(&handle, workload.initial_state(&sched));
            assert_eq!(comp, reference, "compiled: {what}");
            let pooled = pool.run(&handle, workload.initial_state(&sched));
            assert_eq!(pooled, reference, "pool: {what}");
        }
        ran += 1;
    }
    assert_eq!(ran, 37, "regular names");
}

#[test]
fn a_1024_rank_schedule_runs_on_the_pool() {
    for (collective, name) in [
        (Collective::Allreduce, "bine-large"),
        (Collective::Allgather, "bine"),
    ] {
        let sched = build(collective, name, 1024, 0).unwrap();
        let workload = Workload::for_schedule(&sched, 1);
        let finals = pool_run(&sched, workload.initial_state(&sched));
        if let Err(e) = verify::verify(&workload, &finals) {
            panic!("{collective:?}/{name} p=1024 (pool): {e}");
        }
    }
}

#[test]
fn reduce_scatter_strategy_variants_are_all_correct() {
    for name in [
        "bine-permute",
        "bine-block-by-block",
        "bine-send",
        "bine-two-transmissions",
    ] {
        for p in [4usize, 16, 128] {
            let sched = build(Collective::ReduceScatter, name, p, 0).unwrap();
            assert!(
                verify::run_and_verify(&sched, 2).is_ok(),
                "strategy {name} failed at p = {p}"
            );
        }
    }
}

#[test]
fn irregular_edge_cases_execute_identically_on_every_executor() {
    // Deterministic edge-case matrix for the v-variants: zero-count ranks
    // (the one-heavy distribution), equal counts (the regular special
    // case), a linear skew, each plain and under segmentation — where a
    // zero-count segment splits into chunks that are all empty. Every
    // executor must agree with the reference bit for bit and satisfy the
    // counts-weighted post-condition.
    let mut ran = 0;
    for request in walk(&[16]) {
        if !matches!(request.source, Source::Irregular(..)) || request.root != request.p / 3 {
            continue;
        }
        let what = request.label();
        let sched = request
            .build()
            .unwrap_or_else(|| panic!("{what} did not build"));
        assert_eq!(sched.validate(), Ok(()), "{what}");
        let workload = Workload::for_schedule(&sched, 2);
        let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
        let comp = compiled::run(&sched.compile(), workload.initial_state(&sched));
        assert_eq!(comp, reference, "compiled: {what}");
        let thr = pool_run(&sched, workload.initial_state(&sched));
        assert_eq!(thr, reference, "pool: {what}");
        if let Err(e) = verify::verify(&workload, &reference) {
            panic!("{what}: {e}");
        }
        ran += 1;
    }
    assert_eq!(
        ran,
        10 * 3 * 3,
        "v-variants x distributions x segmentations"
    );
}

#[test]
fn large_rank_counts_still_verify() {
    // A coarser sweep at larger scale to catch issues that only appear with
    // deeper trees/butterflies.
    for (collective, name) in [
        (Collective::Allreduce, "bine-large"),
        (Collective::Allreduce, "bine-small"),
        (Collective::Broadcast, "bine-scatter-allgather"),
        (Collective::ReduceScatter, "bine-permute"),
        (Collective::Allgather, "bine"),
        (Collective::Gather, "bine"),
        (Collective::Scatter, "bine"),
        (Collective::Alltoall, "bine"),
    ] {
        let sched = build(collective, name, 256, 0).unwrap();
        assert!(
            verify::run_and_verify(&sched, 1).is_ok(),
            "{collective:?}/{name} failed at p = 256"
        );
    }
}

#[test]
fn the_cluster_facade_runs_the_whole_catalog() {
    // Every algorithm variant through `Cluster`, against a naive computation
    // on the plain buffers — no `Workload`, no `verify`. The values are
    // small integers, so sums are exact in any association order.
    use bine_exec::Cluster;
    use bine_sched::collectives::{
        AllgatherAlg, AllreduceAlg, AlltoallAlg, BroadcastAlg, GatherAlg, ReduceAlg,
        ReduceScatterAlg, ScatterAlg,
    };
    use bine_sched::NonContigStrategy;

    let p = 8;
    let cluster = Cluster::new(p);
    let len = 2 * p;
    let inputs: Vec<Vec<f64>> = (0..p)
        .map(|r| (0..len).map(|j| ((r * 17 + j * 5) % 23) as f64).collect())
        .collect();
    let sum: Vec<f64> = (0..len)
        .map(|j| inputs.iter().map(|v| v[j]).sum())
        .collect();
    let concatenated = inputs.concat();
    let segment = |v: &[f64], i: usize| v[2 * i..2 * (i + 1)].to_vec();

    for alg in AllreduceAlg::ALL {
        for (r, out) in cluster.allreduce(&inputs, alg).iter().enumerate() {
            assert_eq!(out, &sum, "allreduce {alg:?} rank {r}");
        }
    }
    for alg in AllgatherAlg::ALL {
        for (r, out) in cluster.allgather(&inputs, alg).iter().enumerate() {
            assert_eq!(out, &concatenated, "allgather {alg:?} rank {r}");
        }
    }
    // The listed reduce-scatters and the strategy forms only a name reaches.
    let strategies = NonContigStrategy::ALL.map(ReduceScatterAlg::Bine);
    for alg in ReduceScatterAlg::ALL.into_iter().chain(strategies) {
        for (r, out) in cluster.reduce_scatter(&inputs, alg).iter().enumerate() {
            assert_eq!(out, &segment(&sum, r), "reduce-scatter {alg:?} rank {r}");
        }
    }
    let blocks: Vec<Vec<Vec<f64>>> = (0..p)
        .map(|r| (0..p).map(|d| vec![(r * 10 + d) as f64, 0.5]).collect())
        .collect();
    for alg in AlltoallAlg::ALL {
        for (r, row) in cluster.alltoall(&blocks, alg).iter().enumerate() {
            for (o, block) in row.iter().enumerate() {
                assert_eq!(block, &blocks[o][r], "alltoall {alg:?} {o} -> {r}");
            }
        }
    }
    for root in [0, 5] {
        for alg in BroadcastAlg::ALL {
            for (r, out) in cluster
                .broadcast(&inputs[root], root, alg)
                .iter()
                .enumerate()
            {
                assert_eq!(out, &inputs[root], "broadcast {alg:?} root {root} rank {r}");
            }
        }
        for alg in ReduceAlg::ALL {
            let out = cluster.reduce(&inputs, root, alg);
            assert_eq!(out, sum, "reduce {alg:?} root {root}");
        }
        for alg in GatherAlg::ALL {
            let out = cluster.gather(&inputs, root, alg);
            assert_eq!(out, concatenated, "gather {alg:?} root {root}");
        }
        for alg in ScatterAlg::ALL {
            for (r, out) in cluster.scatter(&inputs[root], root, alg).iter().enumerate() {
                let expected = segment(&inputs[root], r);
                assert_eq!(out, &expected, "scatter {alg:?} root {root} rank {r}");
            }
        }
    }
}
