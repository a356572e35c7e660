//! Crash-chaos smoke of the shrink-and-retry recovery stack.
//!
//! Hammers a shared [`bine_tune::ServiceSelector`] with executions whose
//! communicators lose seeded ranks mid-collective, then re-runs every
//! scenario serially and verifies each outcome in depth. The run fails
//! (non-zero exit) unless:
//!
//! * every request received a typed outcome — completed, recovered, or a
//!   typed [`bine_exec::ExecError::RankDead`] for genuinely unrecoverable
//!   plans (100% answer availability, nothing hangs),
//! * every recovery is **bit-identical** to a direct run of the same pick
//!   built straight on the survivor communicator — same final block
//!   stores, same traffic report — and its schedule passes the validator,
//! * every typed error names the seeded victim.
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin crash_chaos -- \
//!     [--seed N] [--threads N] [--requests N] [--system NAME] [--elems N]`
//!
//! The CI workflow runs this as a smoke step; same seed, same victims,
//! same report.

use bine_bench::crash::{run, CrashOptions};

fn main() {
    let mut opts = CrashOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed").parse().expect("--seed: integer"),
            "--threads" => opts.threads = value("--threads").parse().expect("--threads: integer"),
            "--requests" => {
                opts.requests_per_thread = value("--requests").parse().expect("--requests: integer")
            }
            "--system" => opts.system = value("--system"),
            "--elems" => opts.elems_per_block = value("--elems").parse().expect("--elems: integer"),
            other => panic!(
                "unknown argument {other}; usage: crash_chaos \
                 [--seed N] [--threads N] [--requests N] [--system NAME] [--elems N]"
            ),
        }
    }

    println!(
        "crash chaos: {} table, {} threads × {} requests, seed {}\n",
        opts.system, opts.threads, opts.requests_per_thread, opts.seed
    );
    // The recovery ladder probes schedule builders under `catch_unwind`;
    // unsupported rank counts assert, and those probe panics are expected.
    // Keep their backtraces off stderr for the duration of the run — any
    // real contract violation is caught and returned as `Err` instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run(&opts);
    std::panic::set_hook(default_hook);
    let report = report.unwrap_or_else(|e| {
        eprintln!("crash_chaos: {e}");
        std::process::exit(2);
    });

    println!(
        "requests answered     {:>10} / {}",
        report.answered, report.total_requests
    );
    println!(
        "availability          {:>9.1}%",
        report.availability() * 100.0
    );
    println!(
        "outcome classes       {:>10} full, {} recovered, {} typed-unrecoverable",
        report.full_answers, report.recovered_answers, report.unrecoverable_answers
    );
    println!(
        "service counters      {:>10} stalls, {} recoveries",
        report.service.stalls, report.service.recoveries
    );
    println!(
        "verification          {:>10} scenarios: {} recoveries bit-identical \
         ({} traffic reports matched), {} full runs pinned, {} typed errors checked",
        report.scenarios,
        report.recoveries_checked,
        report.traffic_checked,
        report.full_checked,
        report.unrecoverable_checked
    );

    if report.availability() < 1.0 || report.unexpected_outcomes > 0 {
        eprintln!(
            "\ncrash_chaos: FAILED — availability {:.3}%, {} unexpected outcomes\n{:?}",
            report.availability() * 100.0,
            report.unexpected_outcomes,
            report.service
        );
        std::process::exit(1);
    }
    println!(
        "\ncrash_chaos: 100% availability; every recoverable stall recovered \
         bit-identically on the survivor communicator"
    );
}
