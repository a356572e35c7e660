//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` is generated from these tables
//! (`benchmark manifest`) and a self-test keeps the two identical.

use crate::json::Value;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "serve-latency",
        why: "warm small-vector serving on LUMI: selection, cache hit, dense conversion and per-step pool dispatch do all the work, reduction arithmetic none",
    },
    WorkloadDef {
        name: "exec-reduce",
        why: "warm 1-4 MiB allreduce/reduce-scatter: copy-on-write reduction and its allocations dominate, selection and compile do nothing",
    },
    WorkloadDef {
        name: "exec-move",
        why: "warm non-reducing and irregular collectives up to 16 MiB: transfers are refcount bumps, so pure dispatch; a reduce-kernel win must not move it",
    },
    WorkloadDef {
        name: "serve-cold",
        why: "fresh selector every round, segmented and synthesized picks, no execution: build, segment, compile and view derivation do all the work",
    },
    WorkloadDef {
        name: "model-sweep",
        why: "single-threaded researcher path over five systems: build, compile, traffic, cost model and DES; bine-net does most of the work, bine-exec none",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_pu",
        unit: "pu",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_round",
        unit: "count",
        better: Better::Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "alloc_mib_per_round",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "global_traffic_reduction_pct",
        unit: "%",
        better: Better::Higher,
        bound: 1e-9,
    },
    EndToEnd {
        name: "modelled_speedup_geomean",
        unit: "x",
        better: Better::Higher,
        bound: 1e-9,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload — the
    /// prediction a later change is checked against (README.md).
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const COLD: &str = "round_pu, allocs_per_round on serve-cold; round_pu on model-sweep; setup_s on the warm workloads";
const DISPATCH: &str = "round_pu on serve-latency, exec-move";
const REDUCE: &str = "round_pu, allocs_per_round on exec-reduce only";
const MODEL: &str = "round_pu on model-sweep";
const NOTHING: &str = "nothing at one client (about 50 ns in a request of 50 us or more)";
const DIAG: &str = "diagnostic";

pub const PER_LAYER: &[PerLayer] = &[
    // Self time per traced round, by layer: which layer a workload stresses.
    lower("layer.tune_self_ms", "ms", "round_pu on serve-cold"),
    lower("layer.sched_self_ms", "ms", COLD),
    lower(
        "layer.exec_self_ms",
        "ms",
        "round_pu on serve-latency, exec-reduce, exec-move",
    ),
    lower("layer.net_self_ms", "ms", MODEL),
    lower("layer.harness_self_ms", "ms", DIAG),
    // bine-core (fixed probes, p = 1024).
    lower(
        "core.tree_us",
        "us",
        "sched.build_us, then round_pu on serve-cold",
    ),
    lower(
        "core.butterfly_us",
        "us",
        "sched.build_us, then round_pu on serve-cold",
    ),
    // bine-sched.
    lower("sched.build_us", "us", COLD),
    lower("sched.segment_us", "us", COLD),
    lower("sched.compile_us", "us", COLD),
    lower("sched.drop_us", "us", COLD),
    lower("sched.synth_us", "us", COLD),
    lower(
        "sched.allocs_per_build",
        "count",
        "allocs_per_round on serve-cold",
    ),
    lower(
        "sched.allocs_per_compile",
        "count",
        "allocs_per_round on serve-cold",
    ),
    lower("sched.sends_per_round", "count", DISPATCH),
    lower("sched.steps_per_round", "count", DISPATCH),
    // bine-exec.
    lower("exec.to_dense_us", "us", DISPATCH),
    lower(
        "exec.run_dense_us",
        "us",
        "round_pu on serve-latency, exec-reduce, exec-move",
    ),
    lower("exec.from_dense_us", "us", DISPATCH),
    lower(
        "exec.drop_us",
        "us",
        "round_pu on serve-latency, exec-reduce, exec-move",
    ),
    lower("exec.step_us", "us", DISPATCH),
    lower("exec.pool_us", "us", DISPATCH),
    lower(
        "exec.compiled_us",
        "us",
        "nothing: off the serving path, kept for the pool-vs-compiled anomaly",
    ),
    lower(
        "exec.sequential_us",
        "us",
        "nothing: off the serving path, kept for the dense-vs-interpreter anomaly",
    ),
    higher("exec.reduce_gbs", "GB/s", REDUCE),
    lower("exec.allocs_per_run", "count", REDUCE),
    lower("exec.runq_wait_share", "ratio", DISPATCH),
    // bine-net.
    lower(
        "net.view_us",
        "us",
        "round_pu on serve-cold (synth picks); setup_s",
    ),
    lower("net.traffic_us", "us", MODEL),
    lower("net.cost_us", "us", MODEL),
    lower("net.sim_first_us", "us", MODEL),
    lower("net.sim_repeat_us", "us", MODEL),
    higher("net.sim_sends_per_s", "1/s", MODEL),
    lower(
        "net.sim_allocs_repeat",
        "count",
        "allocs_per_round on model-sweep; meant to be 0",
    ),
    higher("net.sim_ref_ratio", "x", MODEL),
    lower(
        "net.makespan_us_sum",
        "us",
        "exact check: modelled_speedup_geomean on model-sweep",
    ),
    lower(
        "net.global_bytes_sum",
        "B",
        "exact check: global_traffic_reduction_pct on model-sweep",
    ),
    // bine-tune.
    lower("tune.load_ms", "ms", "setup_s on the warm workloads"),
    lower("tune.choose_ns", "ns", NOTHING),
    lower("tune.hit_ns", "ns", NOTHING),
    lower(
        "tune.hit_ns_2t",
        "ns",
        "nothing here; documents the serve-vs-serial anomaly",
    ),
    lower("tune.observe_ns", "ns", NOTHING),
    lower("tune.index_us", "us", "round_pu on serve-cold; setup_s"),
    lower("tune.miss_us", "us", "round_pu on serve-cold"),
    lower("tune.miss_overhead_us", "us", "round_pu on serve-cold"),
    lower("tune.execute_overhead_us", "us", DISPATCH),
    higher("tune.hits", "count", DIAG),
    lower("tune.misses", "count", DIAG),
    lower(
        "tune.compilations",
        "count",
        "setup_s on the warm workloads; round_pu on serve-cold",
    ),
    lower(
        "tune.fallbacks",
        "count",
        "must stay 0 (hard error on the warm workloads)",
    ),
    // The harness itself.
    lower("harness.round_ms", "ms", DIAG),
    lower("harness.round_ms_p95", "ms", DIAG),
    higher("harness.ops_per_s", "1/s", DIAG),
    lower("harness.probe_ms", "ms", DIAG),
    lower("harness.thirds_spread_pct", "%", DIAG),
    lower("harness.peak_rss_mib", "MiB", DIAG),
    lower("harness.inputgen_s", "s", DIAG),
    higher("harness.rounds", "count", DIAG),
    lower(
        "harness.available_parallelism",
        "count",
        "1 when the run is confined to one CPU, as it should be",
    ),
    lower("harness.trace_overhead_pct", "%", DIAG),
    lower("harness.stage_sum_ratio", "ratio", "self-check: 0.9 to 1.1"),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// The exact content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better.name())),
        ]
    };
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Value::str)
                .to_vec(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Value::Num(m.bound)));
                        Value::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Value::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            crate::json::parse(&text).unwrap(),
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
