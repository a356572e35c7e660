//! Criterion micro-benchmarks: executing schedules over real data (the
//! in-process substitute for running the collectives on a cluster).
//!
//! The headline comparison is compiled-vs-naive on the BineLarge allreduce
//! at p ∈ {64, 256, 1024}:
//!
//! * `reference` — the seed interpreter (deep per-step snapshot of all rank
//!   states, O(ranks × elements) per step),
//! * `sequential` — the zero-copy interpreter (shared payloads, no
//!   snapshot),
//! * `compiled` — dense execution of a pre-compiled schedule (no hashing,
//!   no message-list scans),
//! * `pool` — the persistent-thread-pool executor.
//!
//! Compilation cost is measured separately (`compile-schedule`) — it is
//! paid once per schedule, not per run.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bine_exec::state::Workload;
use bine_exec::{compiled, sequential, ExecutorPool};
use bine_sched::collectives::{allreduce, AllreduceAlg};

/// Short measurement configuration so a full `cargo bench --workspace` stays
/// inexpensive on a single-core CI machine.
fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

fn bench_compiled_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce-execution");
    let pool = ExecutorPool::global();
    for p in [64usize, 256, 1024] {
        let sched = allreduce(p, AllreduceAlg::BineLarge);
        let workload = Workload::for_schedule(&sched, bine_bench::exec_bench_elems(p));
        // Built once; per-iteration clones are refcount bumps, so the
        // benches measure execution, not input construction.
        let initial = workload.initial_state(&sched);
        let compiled_sched = Arc::new(sched.compile());
        group.bench_with_input(BenchmarkId::new("reference-bine-large", p), &p, |b, _| {
            b.iter(|| sequential::run_reference(&sched, initial.clone()))
        });
        group.bench_with_input(BenchmarkId::new("sequential-bine-large", p), &p, |b, _| {
            b.iter(|| sequential::run(&sched, initial.clone()))
        });
        group.bench_with_input(BenchmarkId::new("compiled-bine-large", p), &p, |b, _| {
            b.iter(|| compiled::run(&compiled_sched, initial.clone()))
        });
        group.bench_with_input(BenchmarkId::new("pool-bine-large", p), &p, |b, _| {
            b.iter(|| pool.run(&compiled_sched, initial.clone()))
        });
    }
    group.finish();
}

fn bench_other_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce-execution-by-algorithm");
    let p = 64;
    for alg in [AllreduceAlg::RecursiveDoubling, AllreduceAlg::Ring] {
        let sched = allreduce(p, alg);
        let workload = Workload::for_schedule(&sched, 64);
        let initial = workload.initial_state(&sched);
        let compiled_sched = Arc::new(sched.compile());
        group.bench_function(format!("compiled-{}", sched.algorithm), |b| {
            b.iter(|| compiled::run(&compiled_sched, initial.clone()))
        });
    }
    group.finish();
}

fn bench_schedule_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile-schedule");
    for p in [64usize, 1024] {
        let sched = allreduce(p, AllreduceAlg::BineLarge);
        group.bench_with_input(BenchmarkId::new("bine-large", p), &p, |b, _| {
            b.iter(|| sched.compile())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_compiled_vs_naive, bench_other_algorithms, bench_schedule_compilation
}
criterion_main!(benches);
