//! Fixed per-layer probes: small, workload-independent measurements of one
//! public entry point each, run at the end of every traced run. They are the
//! per-layer metrics that spans cannot give — calls of tens of nanoseconds
//! (timed in batches), and the same request pushed through the executors the
//! serving path does *not* use.
//!
//! Values are medians over `REPS` repetitions; `_ns` metrics are per call
//! over batches of `BATCH`.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bine_core::{build_tree, Butterfly, ButterflyKind, TreeKind};
use bine_exec::{compiled, sequential, ExecutorPool};
use bine_net::view::{system_allocation, system_topology, system_view, TUNING_PLACEMENT_SEED};
use bine_net::{CostModel, ObservedTiming, SimArena, SimRequest};
use bine_sched::{build, Collective};
use bine_tune::ServiceSelector;

use crate::stats::median;
use crate::workloads::{grid, Request, SYSTEM};

const REPS: usize = 9;
const BATCH: usize = 1000;
const CORE_RANKS: usize = 1024;

/// Median wall time of `f` in microseconds.
fn time_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Median per-call time in nanoseconds of `f` applied round-robin to
/// `queries`, in batches of `BATCH`.
fn per_call_ns<T>(queries: &[Request], mut f: impl FnMut(Request) -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for k in 0..BATCH {
                black_box(f(queries[k % queries.len()]));
            }
            start.elapsed().as_secs_f64() * 1e9 / BATCH as f64
        })
        .collect();
    median(&samples)
}

/// The serving queries the `tune.*` probes look up: small-vector LUMI mix.
fn queries() -> Vec<Request> {
    use Collective::*;
    grid(
        &[Allreduce, Allgather, ReduceScatter, Broadcast],
        &[16, 64, 256],
        &[256, 16 << 10],
    )
}

/// Runs every probe; returns `(metric name, value)` pairs.
pub fn probe_all() -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();

    // bine-core: the walks a schedule generator does over a tree / butterfly.
    out.push((
        "core.tree_us",
        time_us(|| {
            let tree = build_tree(TreeKind::BineDistanceHalving, CORE_RANKS, 0);
            (0..CORE_RANKS)
                .filter_map(|r| tree.parent(r))
                .sum::<usize>()
        }),
    ));
    out.push((
        "core.butterfly_us",
        time_us(|| {
            let b = Butterfly::new(ButterflyKind::BineDistanceHalving, CORE_RANKS);
            let mut acc = 0usize;
            for step in 0..b.num_steps() {
                for r in 0..CORE_RANKS {
                    acc += b.partner(r, step);
                }
            }
            acc
        }),
    ));

    // bine-tune: load, then the warm lookups.
    out.push((
        "tune.load_ms",
        time_us(|| ServiceSelector::load_default().map(|s| s.system_index(SYSTEM))) / 1e3,
    ));
    let selector = ServiceSelector::load_default()?;
    let system = selector
        .system_index(SYSTEM)
        .ok_or_else(|| format!("no decision table for {SYSTEM}"))?;
    let queries = queries();
    for q in &queries {
        selector
            .compiled_at(system, q.collective, q.nodes, q.bytes)
            .ok_or_else(|| format!("{q:?} resolved to no buildable pick"))?;
    }
    out.push((
        "tune.choose_ns",
        per_call_ns(&queries, |q| {
            selector
                .choose_at(system, q.collective, q.nodes, q.bytes)
                .map(|t| t.segments)
        }),
    ));
    out.push((
        "tune.hit_ns",
        per_call_ns(&queries, |q| {
            selector.compiled_at(system, q.collective, q.nodes, q.bytes)
        }),
    ));
    out.push(("tune.hit_ns_2t", {
        // The same warm lookups from two client threads at once (the pool is
        // idle): what the sharded cache costs under the smallest contention.
        let barrier = Barrier::new(2);
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        per_call_ns(&queries, |q| {
                            selector.compiled_at(system, q.collective, q.nodes, q.bytes)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lookup thread panicked"))
                .collect()
        });
        median(&per_thread)
    }));
    out.push((
        "tune.observe_ns",
        per_call_ns(&queries, |q| {
            selector.observe_at(
                system,
                q.collective,
                q.nodes,
                q.bytes,
                ObservedTiming::execution(50.0),
            )
        }),
    ));

    // bine-sched: one topology-synthesized build (the committed LUMI bcast
    // pick at 256 nodes). The provider caches the view per rank count, so
    // the median is synthesis alone; deriving the view is the next probe.
    let providers = selector
        .index(system)
        .ok_or("system index out of range")?
        .providers();
    let synthesize = || providers.build(Collective::Broadcast, "synth:multilevel:tiers=2", 256, 0);
    synthesize().ok_or("the committed synth pick is not buildable")?;
    out.push((
        "sched.synth_us",
        time_us(|| synthesize().map(|s| s.num_steps())),
    ));

    // bine-net: what a fresh selector pays before its first synthesized pick
    // at a rank count — topology, pinned placement, all-pairs route view.
    out.push((
        "net.view_us",
        time_us(|| system_view(SYSTEM, 256).map(|v| v.num_ranks())),
    ));

    // bine-net: reference simulator ÷ optimized simulator on one cell.
    let topo = system_topology(SYSTEM, 64).ok_or("LUMI is a modelled system")?;
    let alloc = system_allocation(SYSTEM, topo.as_ref(), 64, TUNING_PLACEMENT_SEED);
    let schedule = build(Collective::Allreduce, "bine-large", 64, 0).ok_or("bine-large")?;
    let sim_schedule = schedule.compile();
    let cost = CostModel::default();
    let mut arena = SimArena::new();
    let fast_us = time_us(|| {
        SimRequest::new(&cost, &sim_schedule, 1 << 20, topo.as_ref(), &alloc)
            .arena(&mut arena)
            .time_only()
            .run()
            .try_makespan()
    });
    let reference_us = time_us(|| {
        SimRequest::new(&cost, &sim_schedule, 1 << 20, topo.as_ref(), &alloc)
            .reference()
            .time_only()
            .run()
            .try_makespan()
    });
    out.push(("net.sim_ref_ratio", reference_us / fast_us));

    // bine-exec: one request (that allreduce, 16 KiB) through the serving
    // executor and the two it is compared against in ROADMAP's anomalies.
    let data = bine_exec::Workload::for_schedule(&schedule, 32);
    let input = data.initial_state(&schedule);
    let handle = Arc::new(schedule.compile());
    let pool = ExecutorPool::global();
    out.push(("exec.pool_us", time_us(|| pool.run(&handle, input.clone()))));
    out.push((
        "exec.compiled_us",
        time_us(|| compiled::run(&handle, input.clone())),
    ));
    out.push((
        "exec.sequential_us",
        time_us(|| sequential::run(&schedule, input.clone())),
    ));
    Ok(out)
}
