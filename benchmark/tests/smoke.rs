//! End-to-end smokes: the built binary, driven exactly as the benchmark
//! driver drives it, at the shortest run length (`--seconds 0` still does
//! every set-up, the warm checks and the minimum number of rounds).

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "serve-latency",
    "exec-reduce",
    "exec-move",
    "serve-cold",
    "model-sweep",
];

/// Runs the binary and returns the last line of its standard output.
fn last_line(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("UTF-8 output")
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

fn run(workload: &str, seed: &str, trace: &str) -> String {
    last_line(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
    ])
}

/// The number after `"<key>": ` (or after `"<key>": {"value": `).
fn number(line: &str, key: &str) -> f64 {
    let at = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = line[at + key.len() + 4..].trim_start_matches("{\"value\": ");
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {line}"))
}

const EXACT: [&str; 4] = [
    "allocs_per_round",
    "alloc_mib_per_round",
    "global_traffic_reduction_pct",
    "modelled_speedup_geomean",
];

#[test]
fn every_workload_runs_clean_and_its_exact_metrics_repeat() {
    for workload in WORKLOADS {
        let first = run(workload, "3", "0");
        assert!(
            first.starts_with("{\"correct\": true, "),
            "{workload}: {first}"
        );
        assert_eq!(number(&first, "failed"), 0.0, "{workload}");
        assert!(number(&first, "attempted") >= 1.0, "{workload}");
        for metric in ["setup_s", "round_pu"] {
            assert!(number(&first, metric) > 0.0, "{workload}/{metric}");
        }
        // A different seed only reorders the ops: the counts and the
        // simulated numbers may not move at all.
        let second = run(workload, "4", "0");
        for metric in EXACT {
            let (a, b) = (number(&first, metric), number(&second, metric));
            assert!(a > 0.0, "{workload}/{metric} must never be 0");
            assert_eq!(a.to_bits(), b.to_bits(), "{workload}/{metric}");
        }
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let line = run("model-sweep", "3", "1");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    for metric in [
        "layer.net_self_ms",
        "sched.build_us",
        "net.sim_first_us",
        "net.makespan_us_sum",
        "core.tree_us",
        "tune.hit_ns",
        "exec.pool_us",
        "harness.stage_sum_ratio",
    ] {
        assert!(number(&line, metric) > 0.0, "{metric}");
    }
    // Stages this workload never reaches are reported as 0, not left out.
    assert_eq!(number(&line, "exec.run_dense_us"), 0.0);
    assert_eq!(number(&line, "tune.miss_us"), 0.0);
    // The warm simulator path stays allocation-free.
    assert_eq!(number(&line, "net.sim_allocs_repeat"), 0.0);
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nonsense",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &["--workload", "model-sweep", "--seed", "1", "--seconds", "0"][..],
        &[
            "--workload",
            "model-sweep",
            "--seed",
            "x",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &["frobnicate"][..],
        &[][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
