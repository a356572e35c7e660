//! One run of one workload in this process: input generation, repeated
//! set-up, then either timed rounds (`--trace 0`, the end-to-end metrics) or
//! alternating plain and span-recording rounds (`--trace 1`, the per-layer
//! metrics).
//!
//! One closed-loop client — this thread — drives the library: callers of a
//! collective block on the result, so the next request starts when the
//! previous one returned. The library's own `ExecutorPool::global()` has one
//! worker per core.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::alloc::Snapshot;
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe::{probe_units, Probe};
use crate::stats::{median, quantile, thirds_spread_pct};
use crate::trace::Tracer;
use crate::workloads::{self, paper_metrics, Kind, Workload};
use crate::{layers, system};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Timed rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// One untimed checking round after this many timed ones.
const CHECK_EVERY: usize = 16;
/// Failure messages echoed to stderr per run.
const MAX_REPORTED: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run prints as its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Where traces and `all`'s result file go: `out/` beside this package's
/// manifest, so inside whatever checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// splitmix64: the harness's only randomness (op order), from `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle(&mut self, items: &mut [usize]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// How the ops of a round are performed.
enum Mode<'a> {
    /// The request path, nothing else on the clock.
    Plain { keep: bool },
    /// The request path with a clock around every op (traced runs only).
    PerOp(&'a mut [Vec<f64>]),
    /// Stage by stage under spans.
    Traced(&'a mut Tracer),
}

struct Round {
    wall: Duration,
    probe: Duration,
    allocs: Snapshot,
    /// Ops of this round that failed.
    failed_ops: Vec<usize>,
}

impl Round {
    fn pu(&self) -> f64 {
        probe_units(self.wall, self.probe)
    }
}

struct Harness {
    workload: Box<dyn Workload>,
    rng: Rng,
    probe: Probe,
    rounds_run: u64,
    attempted: u64,
    failed: u64,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

impl Harness {
    /// Runs `f` with panics caught; counts and reports a failure. Returns
    /// whether `f` succeeded.
    fn guarded(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut dyn Workload) -> Result<(), String>,
    ) -> bool {
        let workload = self.workload.as_mut();
        let result = catch_unwind(AssertUnwindSafe(|| f(workload)))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_text(payload))));
        if let Err(e) = &result {
            self.failed += 1;
            if self.failed <= MAX_REPORTED as u64 {
                eprintln!("benchmark: {what} failed: {e}");
            }
        }
        result.is_ok()
    }

    /// One round: every op once, in an order drawn from the seed. Staging
    /// (input clones) and the probe run before the clock starts.
    fn round(&mut self, mut mode: Mode) -> Round {
        let ops = self.workload.ops();
        let mut order: Vec<usize> = (0..ops).collect();
        self.rng.shuffle(&mut order);
        for &i in &order {
            self.workload.stage(i);
        }
        let round_index = self.rounds_run;
        self.rounds_run += 1;
        let probe = self.probe.run();
        let allocs_before = Snapshot::now();
        let start = Instant::now();
        let started = match &mut mode {
            Mode::Traced(t) => self.guarded("round start", |w| w.round_start(Some(t))),
            _ => self.guarded("round start", |w| w.round_start(None)),
        };
        // A failed round start is one more failed operation of this round.
        self.attempted += u64::from(!started);
        let mut failed_ops = Vec::new();
        for &i in &order {
            self.attempted += 1;
            let ok = match &mut mode {
                Mode::Plain { keep } => self.guarded("op", |w| w.op(i, *keep)),
                Mode::PerOp(times) => {
                    let op_start = Instant::now();
                    let ok = self.guarded("op", |w| w.op(i, false));
                    times[i].push(op_start.elapsed().as_secs_f64() * 1e6);
                    ok
                }
                Mode::Traced(t) => {
                    t.set_op(round_index * ops as u64 + i as u64);
                    let ok = self.guarded("traced op", |w| w.op_traced(i, t));
                    if !ok {
                        t.unwind();
                    }
                    ok
                }
            };
            if !ok {
                failed_ops.push(i);
            }
        }
        Round {
            wall: start.elapsed(),
            allocs: Snapshot::since(allocs_before),
            probe,
            failed_ops,
        }
    }

    /// An untimed round whose results are kept and checked. A failed check
    /// fails its op, so `failed` never exceeds `attempted`.
    fn checked_round(&mut self, warm: bool) -> Round {
        let round = self.round(Mode::Plain { keep: true });
        for i in 0..self.workload.ops() {
            if !round.failed_ops.contains(&i) {
                self.guarded("check", |w| w.check(i, warm));
            }
        }
        round
    }

    /// Library set-up plus the warm round; returns their time on the clock
    /// (staging, probe and checks are off it).
    fn setup(&mut self, check: bool) -> Result<Duration, String> {
        let start = Instant::now();
        self.workload.setup()?;
        let load = start.elapsed();
        let warm = if check {
            self.checked_round(true)
        } else {
            self.round(Mode::Plain { keep: false })
        };
        Ok(load + warm.wall)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputgen = Instant::now();
    let workload = workloads::build(&args.workload)?;
    let inputgen_s = inputgen.elapsed().as_secs_f64();
    let mut h = Harness {
        workload,
        rng: Rng(args.seed),
        probe: Probe::new(),
        rounds_run: 0,
        attempted: 0,
        failed: 0,
    };
    let values = if args.trace {
        traced(&mut h, args, inputgen_s)?
    } else {
        end_to_end(&mut h, args)?
    };
    let counters = h.workload.counters();
    if h.workload.kind() == Kind::Serving && counters.fallbacks > 0 {
        return Err(format!(
            "{} requests were served the fallback pick on a warm workload",
            counters.fallbacks
        ));
    }
    Ok(Outcome {
        attempted: h.attempted,
        failed: h.failed,
        metrics: if args.trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, values[m.name], m.unit))
                .collect()
        },
    })
}

type Values = BTreeMap<&'static str, f64>;

fn end_to_end(h: &mut Harness, args: &Args) -> Result<Values, String> {
    let mut setups = Vec::new();
    for k in 0..SETUPS {
        setups.push(h.setup(k == 0)?.as_secs_f64());
    }
    let mut rounds: Vec<Round> = Vec::new();
    let window = Instant::now();
    while rounds.len() < MIN_ROUNDS || window.elapsed().as_secs_f64() < args.seconds {
        rounds.push(h.round(Mode::Plain { keep: false }));
        if rounds.len().is_multiple_of(CHECK_EVERY) {
            h.checked_round(false);
        }
    }
    // Simulated, so outside every clock and exact.
    let (reduction_pct, speedup) = paper_metrics(&h.workload.cells())?;

    let of = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let pu: Vec<f64> = rounds.iter().map(Round::pu).collect();
    Ok(Values::from([
        ("setup_s", median(&setups)),
        // The lower quartile, not the median: what disturbs a round on a
        // shared machine only ever adds time, and over 2 × 50 measured runs
        // the quartile repeated better than the median on every
        // multi-threaded workload (README.md, "Noise").
        ("round_pu", quantile(&pu, 0.25)),
        ("allocs_per_round", of(|r| r.allocs.allocs as f64)),
        (
            "alloc_mib_per_round",
            of(|r| r.allocs.bytes as f64 / (1 << 20) as f64),
        ),
        ("global_traffic_reduction_pct", reduction_pct),
        ("modelled_speedup_geomean", speedup),
    ]))
}

fn traced(h: &mut Harness, args: &Args, inputgen_s: f64) -> Result<Values, String> {
    h.setup(true)?;
    let ops = h.workload.ops();
    let mut tracer = Tracer::new();
    let mut op_us: Vec<Vec<f64>> = vec![Vec::new(); ops];
    let mut plain: Vec<Round> = Vec::new();
    let mut spanned: Vec<Round> = Vec::new();
    let sched_before = system::schedstat();
    let window = Instant::now();
    while plain.len() < MIN_ROUNDS || window.elapsed().as_secs_f64() < args.seconds {
        plain.push(h.round(Mode::PerOp(&mut op_us)));
        spanned.push(h.round(Mode::Traced(&mut tracer)));
    }
    let sched = system::schedstat().since(sched_before);
    let counters = h.workload.counters();
    let shape = h.workload.shape();
    let kind = h.workload.kind();

    let mut v = Values::new();
    for (name, value) in layers::probe_all()? {
        v.insert(name, value);
    }

    // --- spans: per-stage medians, allocation means, self time per layer ---
    let spans = tracer.spans();
    let own = tracer.self_ns();
    let traced_rounds = spanned.len() as f64;
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut allocs: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    // Per op: per traced round, the summed duration of its stage spans.
    let mut staged_us: Vec<Vec<f64>> = vec![Vec::new(); ops];
    let mut children_ns = vec![0u64; spans.len()];
    for (s, own_ns) in spans.iter().zip(&own) {
        durations
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 / 1e3);
        let a = allocs.entry(s.name).or_default();
        *a = (a.0 + s.allocs, a.1 + 1);
        *layer_ns.entry(s.layer()).or_default() += own_ns;
        if let Some(parent) = s.parent {
            children_ns[parent as usize] += s.dur_ns();
        }
    }
    for (s, children) in spans.iter().zip(&children_ns) {
        if s.name == "request" {
            staged_us[(s.op % ops as u64) as usize].push(*children as f64 / 1e3);
        }
    }
    let stage_total_s = |name: &str| {
        durations
            .get(name)
            .map_or(0.0, |d| d.iter().sum::<f64>() / 1e6)
    };
    let mean_allocs = |name: &str| {
        allocs
            .get(name)
            .map_or(0.0, |&(sum, n)| sum as f64 / n as f64)
    };
    let layer_ms =
        |layer: &str| layer_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / traced_rounds;

    v.insert("layer.tune_self_ms", layer_ms("tune"));
    v.insert("layer.sched_self_ms", layer_ms("sched"));
    v.insert("layer.exec_self_ms", layer_ms("exec"));
    v.insert("layer.net_self_ms", layer_ms("net"));
    v.insert("layer.harness_self_ms", layer_ms("request"));
    // `<span name>_us` is the median duration of that span.
    for m in PER_LAYER {
        if let Some(d) = m.name.strip_suffix("_us").and_then(|s| durations.get(s)) {
            v.insert(m.name, median(d));
        }
    }
    v.insert("sched.allocs_per_build", mean_allocs("sched.build"));
    v.insert("sched.allocs_per_compile", mean_allocs("sched.compile"));
    v.insert("exec.allocs_per_run", mean_allocs("exec.run_dense"));
    v.insert("net.sim_allocs_repeat", mean_allocs("net.sim_repeat"));
    v.insert("sched.sends_per_round", shape.sends as f64);
    v.insert("sched.steps_per_round", shape.steps as f64);
    v.insert("net.makespan_us_sum", shape.makespan_us_sum);
    v.insert("net.global_bytes_sum", shape.global_bytes_sum as f64);

    let run_dense_s = stage_total_s("exec.run_dense");
    if run_dense_s > 0.0 {
        v.insert(
            "exec.step_us",
            run_dense_s * 1e6 / (shape.steps as f64 * traced_rounds),
        );
        v.insert(
            "exec.reduce_gbs",
            shape.reduce_bytes as f64 * traced_rounds / run_dense_s / 1e9,
        );
    }
    let sim_s = stage_total_s("net.sim_first") + stage_total_s("net.sim_repeat");
    if sim_s > 0.0 {
        v.insert(
            "net.sim_sends_per_s",
            shape.sends as f64 * traced_rounds / sim_s,
        );
    }
    v.insert("exec.runq_wait_share", sched.wait_share());

    // --- plain against staged: overheads and the instrumentation checks ---
    let op_median_us: Vec<f64> = op_us.iter().map(|t| median(t)).collect();
    let staged_median_us: Vec<f64> = staged_us.iter().map(|t| median(t)).collect();
    let plain_sum: f64 = op_median_us.iter().sum();
    let staged_sum: f64 = staged_median_us.iter().sum();
    let overhead_us = (plain_sum - staged_sum) / ops as f64;
    match kind {
        Kind::Serving => {
            v.insert("tune.execute_overhead_us", overhead_us);
        }
        Kind::Cold => {
            v.insert("tune.miss_us", median(&op_us.concat()));
            v.insert("tune.miss_overhead_us", overhead_us);
        }
        Kind::Model => {}
    }
    v.insert("tune.hits", counters.hits as f64);
    v.insert("tune.misses", counters.misses as f64);
    v.insert("tune.compilations", counters.compilations as f64);
    v.insert("tune.fallbacks", counters.fallbacks as f64);

    let wall_ms = |rounds: &[Round]| -> Vec<f64> {
        rounds.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect()
    };
    let plain_ms = wall_ms(&plain);
    let round_ms = median(&plain_ms);
    v.insert("harness.round_ms", round_ms);
    v.insert("harness.round_ms_p95", quantile(&plain_ms, 0.95));
    v.insert("harness.ops_per_s", ops as f64 / (round_ms / 1e3));
    v.insert(
        "harness.probe_ms",
        median(
            &plain
                .iter()
                .map(|r| r.probe.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    v.insert(
        "harness.thirds_spread_pct",
        thirds_spread_pct(&plain.iter().map(Round::pu).collect::<Vec<_>>()),
    );
    v.insert("harness.peak_rss_mib", system::peak_rss_mib());
    v.insert("harness.inputgen_s", inputgen_s);
    v.insert("harness.rounds", plain.len() as f64);
    v.insert(
        "harness.available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
    v.insert(
        "harness.trace_overhead_pct",
        (median(&wall_ms(&spanned)) / round_ms - 1.0) * 100.0,
    );
    v.insert("harness.stage_sum_ratio", staged_sum / plain_sum);

    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| tracer.write_chrome(&dir.join(format!("trace-{}.json", args.workload))))
        .map_err(|e| format!("cannot write the trace under {}: {e}", dir.display()))?;
    if tracer.dropped() > 0 {
        eprintln!(
            "benchmark: {} spans did not fit the trace buffer",
            tracer.dropped()
        );
    }
    Ok(v)
}
