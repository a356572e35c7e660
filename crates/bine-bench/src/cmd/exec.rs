//! `bine-bench exec`: the `BENCH_exec.json` perf-trajectory recorder.

use std::fmt::Write as _;
use std::sync::Arc;

use bine_bench::systems::System;
use bine_bench::{best_of, timed};
use bine_exec::{compiled, sequential};
use bine_exec::{BlockStore, Workload};
use bine_net::cost::CostModel;
use bine_net::sim;
use bine_net::view::TUNING_PLACEMENT_SEED;
use bine_sched::collectives::{
    allreduce, alltoall, reduce_scatter, AllreduceAlg, AlltoallAlg, ReduceScatterAlg,
};
use bine_sched::{CompiledSchedule, Schedule};

use crate::cli::{Args, Failure, Outcome};

/// Elements per block at a given rank count. Scaled down at the largest
/// sizes because the seed reference interpreter's per-step snapshot is
/// O(ranks × elements).
fn elems_per_block(p: usize) -> usize {
    match p {
        0..=64 => 64,
        65..=256 => 16,
        _ => 1,
    }
}

/// The recorded entries, in recording order.
#[derive(Default)]
struct Records(Vec<(String, f64)>);

impl Records {
    fn push(&mut self, name: String, ns_per_op: f64) {
        println!("{name:<48} {ns_per_op:>14.0} ns/op");
        self.0.push((name, ns_per_op));
    }

    /// Records the best ns/op of `body` over exactly `iters` timed samples,
    /// after one untimed warm-up run, as `name`.
    fn time(&mut self, name: String, iters: usize, mut body: impl FnMut()) {
        body();
        self.push(name, best_of(iters, 1, || timed(&mut body)));
    }

    fn lookup(&self, name: &str) -> f64 {
        let entry = self.0.iter().find(|(n, _)| n == name);
        entry.map(|&(_, ns)| ns).expect(name)
    }
}

/// The initial per-rank state the executors of `sched` are timed on. Built
/// once; per-iteration clones are refcount bumps, so the timings measure
/// execution, not input construction.
fn initial_state(sched: &Schedule) -> Vec<BlockStore> {
    Workload::for_schedule(sched, elems_per_block(sched.num_ranks)).initial_state(sched)
}

/// Times the compiled executor on `sched` (`{label}/compiled/{p}`, gated).
/// Returns the compiled schedule for the callers that time more on it.
fn bench_compiled(
    records: &mut Records,
    label: &str,
    sched: &Schedule,
    initial: &[BlockStore],
    iters: usize,
) -> Arc<CompiledSchedule> {
    let p = sched.num_ranks;
    let compiled_sched = Arc::new(sched.compile());
    records.time(format!("{label}/compiled/{p}"), iters, || {
        compiled::run(&compiled_sched, initial.to_vec());
    });
    compiled_sched
}

/// The large reductions the repository benchmark's `exec-reduce` workload
/// runs: 1 and 4 MiB vectors over 64 ranks (`bytes / 8 / p` elements per
/// block), where a run walks block by block and the time is memory
/// traffic, not dispatch. Gated `/compiled/` entries. No reference
/// interpreter: it takes seconds per run here.
fn bench_large_reductions(records: &mut Records, iters: usize) {
    let p = 64;
    let large = allreduce(p, AllreduceAlg::BineLarge);
    let swing = reduce_scatter(p, ReduceScatterAlg::Swing);
    let cases = [
        ("allreduce-bine-large-1MiB", &large, 1usize << 20),
        ("allreduce-bine-large-4MiB", &large, 4 << 20),
        ("reduce-scatter-swing-4MiB", &swing, 4 << 20),
    ];
    for (label, sched, bytes) in cases {
        let initial = Workload::for_schedule(sched, bytes / 8 / p).initial_state(sched);
        let handle = Arc::new(sched.compile());
        records.time(format!("{label}/compiled/{p}"), iters, || {
            compiled::run(&handle, initial.clone());
        });
    }
}

fn bench_all_executors(records: &mut Records, sched: &Schedule, iters: usize) {
    let (label, p) = ("allreduce-bine-large", sched.num_ranks);
    let initial = initial_state(sched);
    records.time(format!("{label}/reference/{p}"), iters, || {
        sequential::run_reference(sched, initial.clone());
    });
    bench_compiled(records, label, sched, &initial, iters);
    // What the schedule costs before any executor sees it (all gated): the
    // builder, then lowering — unsegmented at every size, and at the 16
    // pipeline chunks the LUMI table serves this allreduce with above 1 MiB
    // (the base is built outside the clock).
    records.time(format!("{label}/build/{p}"), iters, || {
        allreduce(p, AllreduceAlg::BineLarge);
    });
    records.time(format!("{label}/compile/{p}"), iters, || {
        sched.compile();
    });
    if p == 256 {
        records.time(format!("{label}/lower-seg16/{p}"), iters, || {
            sched.compile_segmented(16);
        });
    }
}

/// The collective surfaces added after the seed four: the dual-root
/// pipelined allreduce, the counts-aware irregular schedules and the Bine
/// alltoall. Each gets a gated `/compiled/` entry on its own workload — non-uniform block
/// sizes drive different layout and copy paths through the compiled
/// executor than the uniform seed collectives, so a regression there would
/// be invisible to the `allreduce-bine-large` entries above. The shallow
/// gather tree (a handful of blocks per rank) and the alltoall (p² interned
/// blocks, O(p log p) of them touched per rank) are also where executor
/// state sized by interned rather than touched blocks would show.
fn bench_new_paths(records: &mut Records, p: usize, iters: usize) {
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
        bench_compiled(records, label, sched, &initial_state(sched), iters);
    }
    // The store-and-forward builder moves p² held blocks through every one
    // of its log p steps: the build whose bookkeeping can outweigh its
    // output (gated).
    records.time(format!("alltoall-bine/build/{p}"), iters, || {
        alltoall(p, AlltoallAlg::Bine);
    });
}

/// The synthesized data plane: the multilevel provider's allreduce on the
/// heterogeneous island fabric's serving-layer view. Synthesized schedules
/// reach production through exactly the compiled executor and the DES the
/// catalog schedules use, but their shape is different — tier-crossing
/// trees with island-local fan-out — so each surface gets its own gated
/// entry (`/compiled/`, `/sim/`) plus ungated context (`/synthesize/` —
/// the provider's build cost, which serving pays on every cache miss of a
/// `synth:` pick).
fn bench_synth(records: &mut Records, p: usize, iters: usize) {
    let label = "allreduce-synth-multilevel";
    let view = bine_net::view::system_view("heterofat", p).expect("heterofat view");
    let spec = bine_sched::SynthSpec::parse("synth:multilevel:tiers=2").expect("canonical name");
    let sched = spec
        .synthesize(bine_sched::Collective::Allreduce, &view, 0)
        .expect("multilevel allreduce synthesizes");
    records.time(format!("{label}/synthesize/{p}"), iters, || {
        spec.synthesize(bine_sched::Collective::Allreduce, &view, 0)
            .unwrap();
    });
    let initial = initial_state(&sched);
    let compiled_sched = bench_compiled(records, label, &sched, &initial, iters);
    // The same schedule under the DES, on the fabric it was derived for.
    let model = CostModel::default();
    let system = System::heterofat();
    let topo = system.topology(p);
    let alloc =
        bine_bench::runner::sample_allocation(&system, topo.as_ref(), p, TUNING_PLACEMENT_SEED);
    let mut arena = sim::SimArena::new();
    records.time(format!("{label}/sim/{p}"), iters, || {
        sim::SimRequest::new(&model, &compiled_sched, 1u64 << 20, topo.as_ref(), &alloc)
            .arena(&mut arena)
            .time_only()
            .run();
    });
}

/// DES ns/op on the tuner's workload shape: the optimized arena-backed
/// simulator (`/sim/`, hard-gated by `gate perf` like the compiled
/// executors), the same request on a fresh arena (`/sim-cold/`, gated:
/// static resolution, dependency derivation and one simulation — what the
/// tuner pays once per candidate) and the from-scratch reference
/// (`/sim-reference/`, an ungated baseline). The configuration — BineLarge
/// allreduce on the LUMI dragonfly under the tuning tables' pinned
/// fragmented placement ([`TUNING_PLACEMENT_SEED`]) — is what the DES refinement stage
/// simulates thousands of times: asymmetric routes make flow completions
/// stagger, so the fair-share recomputation (the hot
/// path the incremental optimization targets) dominates.
fn bench_sim(records: &mut Records, p: usize, iters: usize) {
    let model = CostModel::default();
    let system = System::lumi();
    let topo = system.topology(p);
    let alloc =
        bine_bench::runner::sample_allocation(&system, topo.as_ref(), p, TUNING_PLACEMENT_SEED);
    let topo = topo.as_ref();
    let compiled_sched = allreduce(p, AllreduceAlg::BineLarge).compile();
    let n = 1u64 << 20;
    let mut arena = sim::SimArena::new();
    records.time(format!("allreduce-bine-large/sim/{p}"), iters, || {
        sim::SimRequest::new(&model, &compiled_sched, n, topo, &alloc)
            .arena(&mut arena)
            .time_only()
            .run();
    });
    records.time(format!("allreduce-bine-large/sim-cold/{p}"), iters, || {
        sim::SimRequest::new(&model, &compiled_sched, n, topo, &alloc)
            .time_only()
            .run();
    });
    records.time(
        format!("allreduce-bine-large/sim-reference/{p}"),
        iters,
        || {
            sim::SimRequest::new(&model, &compiled_sched, n, topo, &alloc)
                .reference()
                .run();
        },
    );
}

/// Records the execution-benchmark trajectory as `BENCH_exec.json`.
///
/// Measures ns/op of the reference interpreter and the compiled executor
/// on the BineLarge allreduce at p ∈ {64, 256, 1024} and what building and lowering it cost (gated
/// `/build/` and `/compile/` at each size, `/lower-seg16/256` at 16
/// pipeline chunks), plus 1 and 4 MiB reductions over 64 ranks, where the
/// executors walk block by block (`allreduce-bine-large-{1,4}MiB` and
/// `reduce-scatter-swing-4MiB`: gated `/compiled/`), plus the post-seed collective surfaces at p = 256 —
/// dual-root pipelined allreduce, two irregular v-variant schedules and the
/// Bine alltoall, each with a gated `/compiled/` entry, the alltoall with a
/// gated `/build/` as well — plus the
/// synthesized data plane (multilevel provider allreduce on the
/// heterogeneous island view: gated `/compiled/` and `/sim/` entries,
/// ungated `/synthesize/` build cost) — plus the discrete-event simulator —
/// optimized fast path, arena-warm (`/sim/`) and on a fresh arena
/// (`/sim-cold/`), both gated by `gate perf`, against the from-scratch
/// reference (`/sim-reference/`, context only) at p ∈ {64, 256} — plus the
/// selection serving layer at `available_parallelism` workers (gated `/serve/` aggregate ns/request of
/// the concurrent `ServiceSelector`; ungated `/serve-latency/` p99 and p999
/// tails and the `/serial/` baseline, one thread of the same warm service,
/// see `bine_bench::serve`) —
/// plus the adaptive feedback loop (gated `/adaptive/` observe and
/// overridden-hit warm paths; ungated loop counters, see
/// `bine_bench::adaptive`, whose run re-checks the convergence contract) —
/// and writes a flat JSON report, so future PRs can diff the perf
/// trajectory of the data plane. This recording plus `gate perf` is the one
/// way a micro-number is produced and held.
///
/// `--iters N` fixes the number of timed samples per benchmark (after one
/// warm-up run), making the recorder's runtime deterministic and bounded —
/// exactly what the CI perf-record step needs. The default is 25.
pub fn run(args: Args) -> Outcome {
    let out_path: String = args.positional(0)?.unwrap_or("BENCH_exec.json".into());
    let iters: usize = args.flag_or("--iters", 25)?.max(1);
    println!("{iters} timed samples per benchmark\n");
    let mut records = Records::default();
    for p in [64usize, 256, 1024] {
        let sched = allreduce(p, AllreduceAlg::BineLarge);
        bench_all_executors(&mut records, &sched, iters);
    }
    bench_large_reductions(&mut records, iters);
    bench_new_paths(&mut records, 256, iters);
    bench_synth(&mut records, 256, iters);
    for p in [64usize, 256] {
        bench_sim(&mut records, p, iters);
    }
    let repeats = iters.clamp(3, 9);
    let service = bine_tune::ServiceSelector::load_default()
        .map_err(|e| Failure::Io(format!("committed tables: {e}")))?;
    let serve = bine_bench::serve::measure(
        &service,
        &bine_bench::serve::ServeOptions {
            repeats,
            ..Default::default()
        },
    )
    .map_err(|e| Failure::Check(format!("serving benchmark failed: {e}")))?;
    for (name, ns) in bine_bench::serve::bench_entries(&serve) {
        records.push(name, ns);
    }
    let adaptive = bine_bench::adaptive::measure(&bine_bench::adaptive::AdaptiveOptions {
        repeats,
        ..Default::default()
    })
    .map_err(|e| Failure::Check(format!("adaptive benchmark failed: {e}")))?;
    for (name, ns) in bine_bench::adaptive::bench_entries(&adaptive) {
        records.push(name, ns);
    }
    // The acceptance headline: compiled vs the seed interpreter at p = 256.
    let speedup_256 = records.lookup("allreduce-bine-large/reference/256")
        / records.lookup("allreduce-bine-large/compiled/256");
    // The DES headline: the incremental fair-share + arena fast path against
    // the from-scratch reference simulator at p = 256 (the acceptance bar is
    // ≥ 10x; this field is the recorded evidence).
    let speedup_sim_256 = records.lookup("allreduce-bine-large/sim-reference/256")
        / records.lookup("allreduce-bine-large/sim/256");
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json = String::from("{\n  \"benches\": {\n");
    for (i, (name, ns_per_op)) in records.0.iter().enumerate() {
        let comma = if i + 1 == records.0.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ns_per_op:.1}{comma}");
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
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"unit\": \"ns/op (min over samples)\"");
    json.push('}');
    json.push('\n');
    std::fs::write(&out_path, &json)
        .map_err(|e| Failure::Io(format!("cannot write {out_path}: {e}")))?;
    println!("speedup compiled vs reference @p=256: {speedup_256:.2}x");
    println!("speedup DES vs reference simulator @p=256: {speedup_sim_256:.2}x");
    println!(
        "serving layer: {:.0} req/s at {} workers ({:.2}x one thread of it)",
        serve.requests_per_sec, serve.threads, serve.speedup_vs_serial
    );
    println!("wrote {out_path}");
    Ok(())
}
