//! The repository's benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all [--seed <n>] [--seconds <s>] [--cycles <k>]
//! benchmark compare <a.json> <b.json>
//! benchmark manifest
//! ```

mod all;
mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod probe;
mod run;
mod stats;
mod system;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last line of stdout is its result
  benchmark all [--seed <n>] [--seconds <s>] [--cycles <k>]
      every workload, <k> interleaved cycles plus a traced pass, one process
      per run; prints every metric and writes out/result.json
  benchmark compare <a.json> <b.json>
      two result files against the bounds; exit 1 on any 'worse'
  benchmark manifest
      the content of BENCHMARK.json";

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let key = name
                .strip_prefix("--")
                .filter(|k| allowed.contains(k))
                .ok_or_else(|| format!("unexpected argument {name:?}"))?;
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            flags.push((key.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().rev().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }
}

fn seconds(flags: &Flags) -> Result<Option<f64>, String> {
    match flags.get::<f64>("seconds")? {
        Some(s) if !(0.0..=60.0).contains(&s) => Err("--seconds must lie in 0..=60".into()),
        other => Ok(other),
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..], &["seed", "seconds", "cycles"])?;
            all::run(&all::Options {
                seed: flags.get("seed")?.unwrap_or(42),
                seconds: seconds(&flags)?.unwrap_or(f64::from(metrics::RUN_SECONDS)),
                cycles: flags.get("cycles")?.unwrap_or(3),
            })
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("compare takes exactly two result files".into()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
            let trace = match flags.required::<u8>("trace")? {
                0 => false,
                1 => true,
                _ => return Err("--trace takes 0 or 1".into()),
            };
            // Both before the first thread is spawned; both only steady the
            // measurement, so a refusal is reported and the run goes on.
            if system::confine_to_one_cpu().is_none() {
                eprintln!("benchmark: cannot confine the run to one CPU; timings will be noisier");
            }
            if !alloc::keep_freed_memory() {
                eprintln!(
                    "benchmark: cannot fix the allocator's trim threshold; timings will be noisier"
                );
            }
            let outcome = run::run(&run::Args {
                workload: flags.required("workload")?,
                seed: flags.required("seed")?,
                seconds: seconds(&flags)?.ok_or("--seconds is required")?,
                trace,
            })?;
            println!("{}", outcome.to_json().to_line());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
