//! `benchmark all`: every workload, each run in a process of its own (fresh
//! allocator, fresh global pool, meaningful peak RSS), in interleaved cycles
//! `A B C D E · A B C D E · …` so that slow drift of the machine hits every
//! workload alike, then one traced run per workload.
//!
//! A metric's reported value is the median of its per-cycle values;
//! `cycle_spread_pct` is `(max − min) ÷ median` over the cycles, so a noisy
//! invocation is visible as such (and `compare` refuses to judge it).

use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::out_dir;
use crate::stats::{median, spread_pct};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub cycles: usize,
}

/// One child run's parsed result line.
struct Child {
    attempted: f64,
    failed: f64,
    metrics: Value,
}

fn child(workload: &str, opts: &Options, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("the {workload} run printed nothing"))?;
    let doc = json::parse(line)?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("the {workload} result has no {key}"))
    };
    Ok(Child {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics: doc.get("metrics").cloned().unwrap_or(Value::Null),
    })
}

fn metric_value(metrics: &Value, name: &str) -> Result<f64, String> {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("a run did not report {name}"))
}

pub fn run(opts: &Options) -> Result<ExitCode, String> {
    if opts.cycles == 0 {
        return Err("--cycles must be at least 1".into());
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut cycles: Vec<Vec<Child>> = names.iter().map(|_| Vec::new()).collect();
    for cycle in 0..opts.cycles {
        for (w, name) in names.iter().enumerate() {
            eprintln!("benchmark: cycle {}/{} {name}", cycle + 1, opts.cycles);
            cycles[w].push(child(name, opts, false)?);
        }
    }
    let mut traced = Vec::new();
    for name in &names {
        eprintln!("benchmark: traced {name}");
        traced.push(child(name, opts, true)?);
    }

    let mut failed_total = 0.0;
    let mut workloads = Vec::new();
    for ((name, runs), traced) in names.iter().zip(&cycles).zip(&traced) {
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum::<f64>() + traced.attempted;
        let failed: f64 = runs.iter().map(|r| r.failed).sum::<f64>() + traced.failed;
        failed_total += failed;
        println!("\n== {name}  ({attempted} ops attempted, {failed} failed)");
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let per_cycle = runs
                .iter()
                .map(|r| metric_value(&r.metrics, m.name))
                .collect::<Result<Vec<f64>, _>>()?;
            let (value, spread) = (median(&per_cycle), spread_pct(&per_cycle));
            println!(
                "  {:<32} {value:>16.6} {:<6} cycle spread {spread:.2} %",
                m.name, m.unit
            );
            end_to_end.push((
                m.name,
                Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::str(m.unit)),
                    ("cycle_spread_pct", Value::Num(spread)),
                    (
                        "cycles",
                        Value::Arr(per_cycle.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        println!(
            "  {:<32} {:>16.6} ratio",
            "failed_share",
            failed / attempted
        );
        let mut per_layer = Vec::new();
        for m in PER_LAYER {
            let value = metric_value(&traced.metrics, m.name)?;
            println!(
                "  {:<32} {value:>16.6} {:<6} -> {}",
                m.name, m.unit, m.moves
            );
            per_layer.push((
                m.name,
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(m.unit))]),
            ));
        }
        workloads.push((
            *name,
            Value::obj([
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("end_to_end", Value::obj(end_to_end)),
                ("per_layer", Value::obj(per_layer)),
            ]),
        ));
    }

    println!("\n== self time per traced round by layer (ms); * marks the largest");
    let layers = ["tune", "sched", "exec", "net"];
    for (name, traced) in names.iter().zip(&traced) {
        let own = layers
            .iter()
            .map(|l| metric_value(&traced.metrics, &format!("layer.{l}_self_ms")))
            .collect::<Result<Vec<f64>, _>>()?;
        let top = own.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let cells: Vec<String> = layers
            .iter()
            .zip(&own)
            .map(|(l, v)| format!("{l} {v:>9.3}{}", if *v == top { "*" } else { " " }))
            .collect();
        println!("  {name:<14} {}", cells.join("  "));
    }

    let result = Value::obj([
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("cycles", Value::Num(opts.cycles as f64)),
        (
            // Of the machine; every run confines itself to one CPU.
            "host_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Value::obj(workloads)),
    ]);
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result.to_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if failed_total > 0.0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
