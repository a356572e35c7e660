//! Chaos smoke of the failure-aware serving stack.
//!
//! Hammers a shared [`bine_tune::ServiceSelector`] whose compile path is
//! rigged with seeded, deterministic panics, then simulates every answer
//! under a seeded DES fault plan ([`bine_net::fault::FaultSpec`]). The run
//! fails (non-zero exit) unless:
//!
//! * every request received a compiled schedule (100% answer availability),
//! * every answer was either the tuned pick or the binomial
//!   [`bine_tune::fallback_pick`] (nothing corrupted ever leaves the cache),
//! * every degraded answer simulates **bit-identically** to a
//!   directly-built binomial baseline under the fault plan, and every
//!   healthy answer pins the optimized DES to the reference DES.
//!
//! Usage:
//! `cargo run --release -p bine-bench --bin chaos_bench -- \
//!     [--seed N] [--threads N] [--requests N] [--fail-rate F] [--system NAME]`
//!
//! The CI workflow runs this as a smoke step; same seed, same chaos, same
//! report.

use bine_bench::chaos::{run, ChaosOptions};

fn main() {
    let mut opts = ChaosOptions::default();
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
            "--fail-rate" => {
                opts.fail_rate = value("--fail-rate").parse().expect("--fail-rate: float")
            }
            "--system" => opts.system = value("--system"),
            other => panic!(
                "unknown argument {other}; usage: chaos_bench \
                 [--seed N] [--threads N] [--requests N] [--fail-rate F] [--system NAME]"
            ),
        }
    }

    // The injected panics are the whole point of the run; keep their
    // backtraces off stderr so real failures stay visible. Anything else
    // still reaches the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected compile failure"));
        if !injected {
            default_hook(info);
        }
    }));

    println!(
        "chaos: {} table, {} threads × {} requests, fail rate {:.0}%, seed {}\n",
        opts.system,
        opts.threads,
        opts.requests_per_thread,
        opts.fail_rate * 100.0,
        opts.seed
    );
    let report = run(&opts).unwrap_or_else(|e| {
        eprintln!("chaos_bench: {e}");
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
        "tuned answers         {:>10}  ({} degraded to the binomial fallback)",
        report.tuned_answers, report.fallback_answers
    );
    println!(
        "degraded-mode share   {:>9.1}%",
        report.degraded_share() * 100.0
    );
    println!("injected panics       {:>10}", report.injected_panics);
    println!(
        "service counters      {:>10} fallbacks, {} timeouts, {} retries, {} compilations",
        report.service.fallbacks,
        report.service.timeouts,
        report.service.retries,
        report.service.compilations
    );
    println!(
        "faulted DES           {:>10} schedules bit-identical (plan: {} faulted links, {} stragglers)",
        report.sim_checked, report.faulted_links, report.stragglers
    );

    if report.availability() < 1.0 || report.unexpected_answers > 0 {
        eprintln!(
            "\nchaos_bench: FAILED — availability {:.3}%, {} unexpected answers\n{:?}",
            report.availability() * 100.0,
            report.unexpected_answers,
            report.service
        );
        std::process::exit(1);
    }
    println!(
        "\nchaos_bench: 100% availability; {} broken entries served the binomial \
         fallback bit-identically to the baseline",
        report.degraded_entries
    );
}
