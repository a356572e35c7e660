//! Records the execution-benchmark trajectory as `BENCH_exec.json`.
//!
//! Measures ns/op of the four executors on the BineLarge allreduce at
//! p ∈ {64, 256, 1024} (the same configurations as `benches/execution.rs`),
//! plus the post-seed collective surfaces at p = 256 — dual-root pipelined
//! allreduce, two irregular v-variant schedules and the Bine alltoall, each
//! with a gated `/compiled/` entry — plus the synthesized data plane (multilevel
//! provider allreduce on the heterogeneous island view: gated `/compiled/`
//! and `/sim/` entries, ungated `/synthesize/` build cost) — plus the
//! discrete-event simulator — optimized fast path (`/sim/`, gated
//! by `perf_gate`) against the from-scratch reference (`/sim-reference/`,
//! context only) at p ∈ {64, 256} — plus the selection serving layer
//! at `available_parallelism` workers (gated `/serve/` aggregate
//! ns/request of the concurrent `ServiceSelector`; ungated
//! `/serve-latency/` p99 and p999 tails and single-threaded `/serial/`
//! baseline) —
//! plus the adaptive feedback loop (gated `/adaptive/` observe and
//! overridden-hit warm paths; ungated loop counters) — and writes a flat
//! JSON report, so future PRs can diff the perf trajectory of the data
//! plane without parsing criterion output.
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin bench_exec [out.json] [--iters N]`
//!
//! `--iters N` fixes the number of timed samples per benchmark (after one
//! warm-up run), making the recorder's runtime deterministic and bounded —
//! exactly what the CI perf-record step needs. Without the flag the default
//! is 25 samples locally and 7 under CI (detected via the `CI` environment
//! variable GitHub Actions always sets).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bine_exec::state::Workload;
use bine_exec::{compiled, sequential, ExecutorPool};
use bine_net::cost::CostModel;
use bine_net::sim;
use bine_sched::collectives::{allreduce, alltoall, AllreduceAlg, AlltoallAlg};
use bine_sched::Schedule;

/// Minimum ns/op of `body` over exactly `iters` timed samples (plus one
/// untimed warm-up run). The minimum — not the median — is recorded because
/// the perf gate diffs these numbers across runs and machines: co-scheduled
/// load inflates medians but rarely the best-case sample, so the minimum is
/// the most reproducible statistic for a hard regression threshold.
fn measure(iters: usize, mut body: impl FnMut()) -> f64 {
    body(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        body();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

struct Record {
    name: String,
    ns_per_op: f64,
}

fn bench_all_executors(records: &mut Vec<Record>, sched: &Schedule, p: usize, iters: usize) {
    let workload = Workload::for_schedule(sched, bine_bench::exec_bench_elems(p));
    // Built once; per-iteration clones are refcount bumps, so the timings
    // below measure execution, not input construction.
    let initial = workload.initial_state(sched);
    let compiled_sched = Arc::new(sched.compile());
    let pool = ExecutorPool::global();
    let record = |records: &mut Vec<Record>, executor: &str, ns: f64| {
        let name = format!("allreduce-bine-large/{executor}/{p}");
        println!("{name:<48} {ns:>14.0} ns/op");
        records.push(Record {
            name,
            ns_per_op: ns,
        });
    };
    let ns = measure(iters, || {
        sequential::run_reference(sched, initial.clone());
    });
    record(records, "reference", ns);
    let ns = measure(iters, || {
        sequential::run(sched, initial.clone());
    });
    record(records, "sequential", ns);
    let ns = measure(iters, || {
        compiled::run(&compiled_sched, initial.clone());
    });
    record(records, "compiled", ns);
    let ns = measure(iters, || {
        pool.run(&compiled_sched, initial.clone());
    });
    record(records, "pool", ns);
    // Compilation cost, paid once per schedule.
    let ns = measure(iters, || {
        sched.compile();
    });
    let name = format!("allreduce-bine-large/compile/{p}");
    println!("{name:<48} {ns:>14.0} ns/op");
    records.push(Record {
        name,
        ns_per_op: ns,
    });
}

/// The collective surfaces added after the seed four: the dual-root
/// pipelined allreduce, the counts-aware irregular schedules and the Bine
/// alltoall. Each gets a gated `/compiled/` entry (plus an ungated
/// `/sequential/` context line) on its own workload — non-uniform block
/// sizes drive different layout and copy paths through the compiled
/// executor than the uniform seed collectives, so a regression there would
/// be invisible to the `allreduce-bine-large` entries above. The shallow
/// gather tree (a handful of blocks per rank) and the alltoall (p² interned
/// blocks, O(p log p) of them touched per rank) are also where executor
/// state sized by interned rather than touched blocks would show.
fn bench_new_paths(records: &mut Vec<Record>, p: usize, iters: usize) {
    let one_heavy = bine_sched::SizeDist::OneHeavy.counts(p, p / 2 + 1);
    let cases: [(&str, Schedule); 4] = [
        (
            "allreduce-dual-root",
            bine_sched::build(bine_sched::Collective::Allreduce, "dual-root", p, 0)
                .expect("dual-root builds at pow2"),
        ),
        (
            "gatherv-traff-one-heavy",
            bine_sched::build_irregular(bine_sched::Collective::Gather, "traff", p, 0, &one_heavy)
                .expect("traff gatherv builds"),
        ),
        (
            "allgatherv-bine-linear",
            bine_sched::build_irregular(
                bine_sched::Collective::Allgather,
                "bine",
                p,
                0,
                &bine_sched::SizeDist::Linear.counts(p, 0),
            )
            .expect("bine allgatherv builds at pow2"),
        ),
        ("alltoall-bine", alltoall(p, AlltoallAlg::Bine)),
    ];
    for (label, sched) in &cases {
        let workload = Workload::for_schedule(sched, bine_bench::exec_bench_elems(p));
        let initial = workload.initial_state(sched);
        let compiled_sched = Arc::new(sched.compile());
        let record = |records: &mut Vec<Record>, executor: &str, ns: f64| {
            let name = format!("{label}/{executor}/{p}");
            println!("{name:<48} {ns:>14.0} ns/op");
            records.push(Record {
                name,
                ns_per_op: ns,
            });
        };
        let ns = measure(iters, || {
            sequential::run(sched, initial.clone());
        });
        record(records, "sequential", ns);
        let ns = measure(iters, || {
            compiled::run(&compiled_sched, initial.clone());
        });
        record(records, "compiled", ns);
    }
}

/// The synthesized data plane: the multilevel provider's allreduce on the
/// heterogeneous island fabric's serving-layer view. Synthesized schedules
/// reach production through exactly the compiled executor and the DES the
/// catalog schedules use, but their shape is different — tier-crossing
/// trees with island-local fan-out — so each surface gets its own gated
/// entry (`/compiled/`, `/sim/`) plus ungated context (`/sequential/`,
/// `/synthesize/` — the provider's build cost, which serving pays on every
/// cache miss of a `synth:` pick).
fn bench_synth(records: &mut Vec<Record>, p: usize, iters: usize) {
    let view = bine_net::view::system_view("heterofat", p).expect("heterofat view");
    let spec = bine_sched::SynthSpec::parse("synth:multilevel:tiers=2").expect("canonical name");
    let sched = spec
        .synthesize(bine_sched::Collective::Allreduce, &view, 0)
        .expect("multilevel allreduce synthesizes");
    let record = |records: &mut Vec<Record>, variant: &str, ns: f64| {
        let name = format!("allreduce-synth-multilevel/{variant}/{p}");
        println!("{name:<48} {ns:>14.0} ns/op");
        records.push(Record {
            name,
            ns_per_op: ns,
        });
    };
    let ns = measure(iters, || {
        spec.synthesize(bine_sched::Collective::Allreduce, &view, 0)
            .unwrap();
    });
    record(records, "synthesize", ns);
    let workload = Workload::for_schedule(&sched, bine_bench::exec_bench_elems(p));
    let initial = workload.initial_state(&sched);
    let compiled_sched = Arc::new(sched.compile());
    let ns = measure(iters, || {
        sequential::run(&sched, initial.clone());
    });
    record(records, "sequential", ns);
    let ns = measure(iters, || {
        compiled::run(&compiled_sched, initial.clone());
    });
    record(records, "compiled", ns);
    // The same schedule under the DES, on the fabric it was derived for.
    let model = CostModel::default();
    let system = bine_bench::systems::System::heterofat();
    let topo = system.topology(p);
    let alloc = bine_bench::runner::sample_allocation(&system, topo.as_ref(), p, 42);
    let mut arena = sim::SimArena::new();
    let ns = measure(iters, || {
        sim::SimRequest::new(&model, &compiled_sched, 1u64 << 20, topo.as_ref(), &alloc)
            .arena(&mut arena)
            .time_only()
            .run();
    });
    record(records, "sim", ns);
}

/// DES ns/op on the tuner's workload shape: the optimized arena-backed
/// simulator (`/sim/`, hard-gated by `perf_gate` like the compiled
/// executors) and the from-scratch reference (`/sim-reference/`, an ungated
/// baseline). The configuration — BineLarge allreduce on the LUMI dragonfly
/// under the tuning tables' pinned fragmented placement (seed 42) — is what
/// the DES refinement stage simulates thousands of times: asymmetric routes
/// make flow completions stagger, so the fair-share recomputation (the hot
/// path the incremental optimization targets) dominates.
fn bench_sim(records: &mut Vec<Record>, p: usize, iters: usize) {
    let model = CostModel::default();
    let system = bine_bench::systems::System::lumi();
    let topo = system.topology(p);
    let alloc = bine_bench::runner::sample_allocation(&system, topo.as_ref(), p, 42);
    let topo = topo.as_ref();
    let compiled_sched = allreduce(p, AllreduceAlg::BineLarge).compile();
    let n = 1u64 << 20;
    let record = |records: &mut Vec<Record>, variant: &str, ns: f64| {
        let name = format!("allreduce-bine-large/{variant}/{p}");
        println!("{name:<48} {ns:>14.0} ns/op");
        records.push(Record {
            name,
            ns_per_op: ns,
        });
    };
    let mut arena = sim::SimArena::new();
    let ns = measure(iters, || {
        sim::SimRequest::new(&model, &compiled_sched, n, topo, &alloc)
            .arena(&mut arena)
            .time_only()
            .run();
    });
    record(records, "sim", ns);
    let ns = measure(iters, || {
        sim::SimRequest::new(&model, &compiled_sched, n, topo, &alloc)
            .reference()
            .run();
    });
    record(records, "sim-reference", ns);
}

/// Serving-layer throughput and tail latency (see `bine_bench::serve`):
/// the gated `/serve/` throughput entry plus the ungated p99/p999 tails
/// and single-threaded selector baseline. Returns the measurement for the
/// summary fields.
fn bench_serve(records: &mut Vec<Record>, iters: usize) -> bine_bench::serve::ServeMeasurement {
    let opts = bine_bench::serve::ServeOptions {
        repeats: iters.clamp(3, 9),
        ..Default::default()
    };
    let m = bine_bench::serve::measure(&opts).expect("serving benchmark failed");
    for (name, ns) in bine_bench::serve::bench_entries(&m) {
        println!("{name:<48} {ns:>14.0} ns/op");
        records.push(Record {
            name,
            ns_per_op: ns,
        });
    }
    m
}

/// Adaptive-serving warm paths and loop counters (see
/// `bine_bench::adaptive`): the gated `/adaptive/` observe and
/// overridden-hit timings plus the ungated override/revert/re-eval
/// counters. The run itself re-checks the convergence contract.
fn bench_adaptive(records: &mut Vec<Record>, iters: usize) {
    let opts = bine_bench::adaptive::AdaptiveOptions {
        repeats: iters.clamp(3, 9),
        ..Default::default()
    };
    let m = bine_bench::adaptive::measure(&opts).expect("adaptive benchmark failed");
    for (name, ns) in bine_bench::adaptive::bench_entries(&m) {
        println!("{name:<48} {ns:>14.0} ns/op");
        records.push(Record {
            name,
            ns_per_op: ns,
        });
    }
}

fn lookup(records: &[Record], name: &str) -> f64 {
    records
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.ns_per_op)
        .expect(name)
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut iters: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--iters" {
            let n = args.next().expect("--iters needs a value");
            iters = Some(n.parse().expect("--iters must be a positive integer"));
        } else if arg.starts_with('-') {
            panic!("unknown flag {arg}; usage: bench_exec [out.json] [--iters N]");
        } else if out_path.is_some() {
            panic!("unexpected extra argument {arg}; usage: bench_exec [out.json] [--iters N]");
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_exec.json".to_string());
    // Deterministic, bounded runtime: a fixed sample count instead of a
    // wall-clock budget. Low under CI (whose runners are slow and whose
    // perf-record step must stay cheap), higher locally for stabler medians.
    let iters = iters
        .unwrap_or_else(|| {
            if std::env::var_os("CI").is_some() {
                7
            } else {
                25
            }
        })
        .max(1);
    println!("{iters} timed samples per benchmark\n");
    let mut records = Vec::new();
    for p in [64usize, 256, 1024] {
        let sched = allreduce(p, AllreduceAlg::BineLarge);
        bench_all_executors(&mut records, &sched, p, iters);
    }
    bench_new_paths(&mut records, 256, iters);
    bench_synth(&mut records, 256, iters);
    for p in [64usize, 256] {
        bench_sim(&mut records, p, iters);
    }
    let serve = bench_serve(&mut records, iters);
    bench_adaptive(&mut records, iters);
    // The acceptance headline: compiled vs the seed interpreter at p = 256.
    let speedup_256 = lookup(&records, "allreduce-bine-large/reference/256")
        / lookup(&records, "allreduce-bine-large/compiled/256");
    // The DES headline: the incremental fair-share + arena fast path against
    // the from-scratch reference simulator at p = 256 (the acceptance bar is
    // ≥ 10x; this field is the recorded evidence).
    let speedup_sim_256 = lookup(&records, "allreduce-bine-large/sim-reference/256")
        / lookup(&records, "allreduce-bine-large/sim/256");
    let workers = ExecutorPool::global().num_workers();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json = String::from("{\n  \"benches\": {\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{}\": {:.1}{comma}", r.name, r.ns_per_op);
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"speedup_compiled_vs_reference_p256\": {speedup_256:.2},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_sim_vs_reference_p256\": {speedup_sim_256:.2},"
    );
    let _ = writeln!(
        json,
        "  \"serve_threads\": {},\n  \"serve_requests_per_sec\": {:.0},\n  \
         \"speedup_serve_vs_serial\": {:.2},",
        serve.threads, serve.requests_per_sec, serve.speedup_vs_serial
    );
    if workers > 1 {
        let pool_speedup = lookup(&records, "allreduce-bine-large/sequential/256")
            / lookup(&records, "allreduce-bine-large/pool/256");
        let _ = writeln!(
            json,
            "  \"speedup_pool_vs_sequential_p256\": {pool_speedup:.2},"
        );
        println!("\nspeedup pool vs sequential @p=256: {pool_speedup:.2}x ({workers} workers)");
    } else {
        // A single-worker pool degenerates to the sequential executor plus
        // scheduling overhead; printing a "speedup" would just be noise, so
        // the line is skipped and the recorded parallelism explains why.
        println!(
            "\npool has a single worker (available parallelism {parallelism}); \
             pool-vs-sequential speedup omitted"
        );
    }
    let _ = writeln!(json, "  \"pool_workers\": {workers},");
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"unit\": \"ns/op (min over samples)\"");
    json.push('}');
    json.push('\n');
    std::fs::write(&out_path, &json).expect("failed to write the report");
    println!("speedup compiled vs reference @p=256: {speedup_256:.2}x");
    println!("speedup DES vs reference simulator @p=256: {speedup_sim_256:.2}x");
    println!(
        "serving layer: {:.0} req/s at {} workers ({:.2}x the serial selector)",
        serve.requests_per_sec, serve.threads, serve.speedup_vs_serial
    );
    println!("wrote {out_path}");
}
