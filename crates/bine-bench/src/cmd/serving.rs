//! `bine-bench serve | chaos | crash | adaptive`: the serving-layer
//! benchmark and its three smokes.

use bine_bench::adaptive::AdaptiveOptions;
use bine_bench::chaos::ChaosOptions;
use bine_bench::crash::CrashOptions;
use bine_bench::serve::ServeOptions;
use bine_exec::Workload;
use bine_sched::Collective;
use bine_tune::ServiceSelector;

use crate::cli::{quiet_panics, Args, Failure, Outcome};

/// Multithreaded benchmark of the selection serving layer.
///
/// Hammers a shared [`bine_tune::ServiceSelector`] with the standard query
/// mix from `available_parallelism` worker threads (override with
/// `--threads`), reports requests/sec, mean, p99 and p999 request latency,
/// the serial baseline (the same warm service driven by one thread), and
/// the single-flight compile statistics — then runs one tuned pick end to
/// end on the shared executor pool as a smoke of the full request path.
///
/// The same measurement is recorded into `BENCH_exec.json` by
/// `bine-bench exec` (`select-mix/serve/...` entries), where CI's
/// `gate perf` hard-gates it like `/compiled/` and `/sim/`.
pub fn serve(args: Args) -> Outcome {
    let mut opts = ServeOptions::default();
    opts.threads = args.flag_or("--threads", opts.threads)?;
    opts.requests_per_thread = args.flag_or("--requests", opts.requests_per_thread)?;
    opts.repeats = args.flag_or("--repeats", opts.repeats)?;
    opts.system = args.flag_or("--system", opts.system)?;

    println!(
        "serving {} decision table: {} threads × {} requests × {} repeats\n",
        opts.system, opts.threads, opts.requests_per_thread, opts.repeats
    );
    let service = ServiceSelector::load_default()
        .map_err(|e| Failure::Io(format!("committed tables: {e}")))?;
    let m = bine_bench::serve::measure(&service, &opts)
        .map_err(|e| Failure::Check(format!("serving benchmark failed: {e}")))?;
    println!("requests/sec          {:>14.0}", m.requests_per_sec);
    println!("aggregate ns/request  {:>14.1}", m.ns_per_req);
    println!(
        "worker ns/request     {:>14.1}  (x{} workers; the gated statistic)",
        m.worker_ns_per_req, m.threads
    );
    println!("p99 request latency   {:>14.0} ns", m.p99_ns);
    println!("p999 request latency  {:>14.0} ns", m.p999_ns);
    println!(
        "serial ns/request     {:>14.1}  (one thread of the same service)",
        m.serial_ns_per_req
    );
    println!("speedup vs serial     {:>13.2}x", m.speedup_vs_serial);
    println!(
        "compilations          {:>14}  ({} distinct cache entries — single-flight)",
        m.compilations, m.distinct
    );

    // Full-request-path smoke: resolve + compile + execute one tuned
    // allreduce on the shared pool, verified against the direct build.
    let smoke = |what: &str| Failure::Check(format!("execute smoke: {what}"));
    let pick = service
        .choose(&opts.system, Collective::Allreduce, 16, 1 << 20)
        .ok_or_else(|| smoke("no tuned pick"))?;
    let name = bine_tune::tuned_name(pick.algorithm, pick.segments);
    let sched = bine_sched::build(Collective::Allreduce, &name, 16, 0)
        .ok_or_else(|| smoke("tuned pick does not build"))?;
    let w = Workload::for_schedule(&sched, 4);
    let finals = service
        .execute(
            &opts.system,
            Collective::Allreduce,
            16,
            1 << 20,
            w.initial_state(&sched),
        )
        .ok_or_else(|| smoke("execute returned nothing"))?;
    bine_exec::verify(&w, &finals).map_err(|e| smoke(&format!("tuned allreduce: {e}")))?;
    println!("\nexecute smoke: tuned pick {name} @16 ranks ran and verified on the shared pool");
    Ok(())
}

/// Chaos smoke of the failure-aware serving stack.
///
/// Hammers a shared [`bine_tune::ServiceSelector`] whose compile path is
/// rigged with seeded, deterministic panics, then simulates every answer
/// under a seeded DES fault plan ([`bine_net::fault::FaultSpec`]). The run
/// fails (non-zero exit) unless:
///
/// * every request received a compiled schedule (100% answer availability),
/// * every answer was either the tuned pick or the binomial
///   [`bine_tune::fallback_pick`] (nothing corrupted ever leaves the cache),
/// * every degraded answer simulates **bit-identically** to a
///   directly-built binomial baseline under the fault plan, and every
///   healthy answer pins the optimized DES to the reference DES.
///
/// The CI workflow runs this as a smoke step; same seed, same chaos, same
/// report.
pub fn chaos(args: Args) -> Outcome {
    let mut opts = ChaosOptions::default();
    opts.seed = args.flag_or("--seed", opts.seed)?;
    opts.threads = args.flag_or("--threads", opts.threads)?;
    opts.requests_per_thread = args.flag_or("--requests", opts.requests_per_thread)?;
    opts.fail_rate = args.flag_or("--fail-rate", opts.fail_rate)?;
    opts.system = args.flag_or("--system", opts.system)?;

    // The injected panics are the whole point of the run; keep their
    // backtraces off stderr so real failures stay visible. Anything else
    // still reaches the default hook.
    let _quiet = quiet_panics(|info| {
        info.payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected compile failure"))
    });

    println!(
        "chaos: {} table, {} threads × {} requests, fail rate {:.0}%, seed {}\n",
        opts.system,
        opts.threads,
        opts.requests_per_thread,
        opts.fail_rate * 100.0,
        opts.seed
    );
    let report =
        bine_bench::chaos::run(&opts).map_err(|e| Failure::Check(format!("chaos_bench: {e}")))?;

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
        return Err(Failure::Check(format!(
            "\nchaos_bench: FAILED — availability {:.3}%, {} unexpected answers\n{:?}",
            report.availability() * 100.0,
            report.unexpected_answers,
            report.service
        )));
    }
    println!(
        "\nchaos_bench: 100% availability; {} broken entries served the binomial \
         fallback bit-identically to the baseline",
        report.degraded_entries
    );
    Ok(())
}

/// Crash-chaos smoke of the shrink-and-retry recovery stack.
///
/// Hammers a shared [`bine_tune::ServiceSelector`] with executions whose
/// communicators lose seeded ranks mid-collective, then re-runs every
/// scenario serially and verifies each outcome in depth. The run fails
/// (non-zero exit) unless:
///
/// * every request received a typed outcome — completed, recovered, or a
///   typed [`bine_exec::ExecError::RankDead`] for genuinely unrecoverable
///   plans (100% answer availability, nothing hangs),
/// * every recovery is **bit-identical** to a direct run of the same pick
///   built straight on the survivor communicator — same final block
///   stores, same traffic report — and its schedule passes the validator,
/// * every typed error names the seeded victim.
///
/// The CI workflow runs this as a smoke step; same seed, same victims,
/// same report.
pub fn crash(args: Args) -> Outcome {
    let mut opts = CrashOptions::default();
    opts.seed = args.flag_or("--seed", opts.seed)?;
    opts.threads = args.flag_or("--threads", opts.threads)?;
    opts.requests_per_thread = args.flag_or("--requests", opts.requests_per_thread)?;
    opts.system = args.flag_or("--system", opts.system)?;
    opts.elems_per_block = args.flag_or("--elems", opts.elems_per_block)?;

    println!(
        "crash chaos: {} table, {} threads × {} requests, seed {}\n",
        opts.system, opts.threads, opts.requests_per_thread, opts.seed
    );
    let report =
        bine_bench::crash::run(&opts).map_err(|e| Failure::Check(format!("crash_chaos: {e}")))?;

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
        return Err(Failure::Check(format!(
            "\ncrash_chaos: FAILED — availability {:.3}%, {} unexpected outcomes\n{:?}",
            report.availability() * 100.0,
            report.unexpected_outcomes,
            report.service
        )));
    }
    println!(
        "\ncrash_chaos: 100% availability; every recoverable stall recovered \
         bit-identically on the survivor communicator"
    );
    Ok(())
}

/// Adaptive-serving smoke: the online feedback loop against a wrong model.
///
/// Commits a decision table with the healthy DES winner, then activates a
/// seeded fault plan the model knows nothing about and feeds the observed
/// (faulted-DES) costs back through [`bine_tune::ServiceSelector::observe_at`].
/// The run fails (non-zero exit) unless the convergence contract holds —
/// [`bine_bench::adaptive::measure`] checks every step structurally:
///
/// * the diverging entry promotes exactly one override,
/// * the override is the independently computed DES-true winner and the
///   warm request path serves it,
/// * clearing the faults reverts the overlay to empty and the committed
///   pick is served again (the committed tables were never mutated).
///
/// The CI workflow runs this as a smoke step; same seed, same faults, same
/// convergence — every cost in the loop is simulated, so the run is
/// bit-reproducible across machines.
pub fn adaptive(args: Args) -> Outcome {
    let mut opts = AdaptiveOptions::default();
    opts.seed = args.flag_or("--seed", opts.seed)?;
    opts.nodes = args.flag_or("--nodes", opts.nodes)?;
    opts.bytes = args.flag_or("--bytes", opts.bytes)?;
    opts.system = args.flag_or("--system", opts.system)?;

    println!(
        "adaptive: {} topology, {} at {} nodes × {} B, seed {}\n",
        opts.system,
        opts.collective.name(),
        opts.nodes,
        opts.bytes,
        opts.seed
    );
    let r = bine_bench::adaptive::measure(&opts)
        .map_err(|e| Failure::Check(format!("adaptive_bench: FAILED — {e}")))?;

    println!(
        "committed pick        {:>24}  (healthy model: {:.0} us)",
        r.committed_pick, r.committed_healthy_us
    );
    println!(
        "under fault plan      {:>24}  ({:.0} us observed, {:.1}x the model)",
        "…the model is wrong",
        r.committed_faulted_us,
        r.committed_faulted_us / r.committed_healthy_us
    );
    println!(
        "DES-true winner       {:>24}  ({:.0} us under the same plan)",
        r.des_true_pick, r.challenger_faulted_us
    );
    println!(
        "fault plan            seed {}, {} faulted links, {} stragglers",
        r.plan_seed, r.faulted_links, r.stragglers
    );
    println!(
        "feedback loop         {} override, {} revert, {} re-evaluations",
        r.overrides, r.reverts, r.reevals
    );
    println!(
        "warm paths            observe {:.0} ns, overridden hit {:.0} ns",
        r.observe_ns, r.overridden_hit_ns
    );
    println!(
        "\nadaptive_bench: overlay converged to {} and reverted once the faults cleared",
        r.des_true_pick
    );
    Ok(())
}
