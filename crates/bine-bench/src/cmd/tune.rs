//! `bine-bench tune`: regenerates the committed decision tables.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use bine_bench::runner::{tune_target, tuned_collectives, MAX_TUNED_NODES};
use bine_bench::systems::System;
use bine_sched::Collective;
use bine_tune::{slug, DecisionTable, Entry, Tuner, TunerConfig};

use crate::cli::{Args, Failure, Outcome};

/// Regenerates the committed `tuning/*.json` decision tables: one offline
/// tuning sweep per paper system over {allreduce, allgather,
/// reduce-scatter, bcast, alltoall, gather, scatter} (see
/// `bine_bench::runner::tuned_collectives`), with the default `bine-tune`
/// configuration. The v-variant collectives additionally get irregular
/// grids keyed by size distribution (`"dist"` entries, synchronous-model
/// scored).
///
/// * `--out DIR` — write tables to `DIR` instead of the committed `tuning/`
///   directory (what CI's drift gate does before diffing).
/// * `--system NAME` — tune only one system (display name or slug).
/// * `--max-nodes N` — largest node count tuned (default 2048). This trims
///   only Fugaku's 4096/8192-node 2D tori, whose p²-block schedules are the
///   repository's one impractically slow sweep; queries above the cap fall
///   back to the largest tuned breakpoint via the selector's floor lookup.
///
/// Ends with the run's wall time and peak resident set: CI holds the first
/// to its 300 s budget and reports the second beside it.
pub fn run(args: Args) -> Outcome {
    let wall = Instant::now();
    let only_system: Option<String> = args.flag("--system")?;
    let max_nodes: usize = args.flag_or("--max-nodes", MAX_TUNED_NODES)?;
    // The default output is a *write target*, not a load path, so it must
    // resolve even when the directory does not exist yet (`rm -rf tuning`
    // then regenerate is the documented clean-regeneration flow):
    // BINE_TUNING_DIR when set, otherwise the repository checkout —
    // deliberately not `default_tuning_dir()`, whose exe-adjacent probe
    // could silently redirect regenerated tables to e.g. target/release/.
    let out_dir = match (args.flag("--out")?, std::env::var_os("BINE_TUNING_DIR")) {
        (Some(dir), _) => dir,
        (None, Some(dir)) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tuning")),
    };

    let systems: Vec<System> = System::tuned()
        .into_iter()
        .filter(|system| {
            only_system
                .as_deref()
                .is_none_or(|only| slug(system.name) == slug(only))
        })
        .map(|mut system| {
            system.node_counts.retain(|&n| n <= max_nodes);
            system
        })
        .collect();
    if systems.is_empty() {
        let known: Vec<String> = System::tuned().iter().map(|s| slug(s.name)).collect();
        return Err(args.usage_error(format!(
            "--system {} matches no system; known: {}",
            only_system.as_deref().unwrap_or(""),
            known.join(", ")
        )));
    }
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| Failure::Io(format!("cannot create {}: {e}", out_dir.display())))?;

    // Every (system, collective) sweep is independent: the tuner drops its
    // schedule caches between collectives anyway, and the per-collective
    // entry lists merge into a table whose `sort` is a total order over the
    // grid key — so splitting one system's sweep across workers is
    // byte-identical to tuning it on one thread. That split is what keeps
    // full regeneration inside the CI drift gate's 5-minute budget: one
    // system (Leonardo, 8 node counts × 7 collectives + 4 irregular grids)
    // costs more serial time than the budget allows, but its collectives
    // pack onto the worker pool alongside everyone else's. Items are queued
    // heaviest-system-first so the long poles start immediately.
    // `pop` drains from the back, so the heaviest system is pushed last.
    let mut items: Vec<(usize, Collective)> = Vec::new();
    let mut order: Vec<usize> = (0..systems.len()).collect();
    order.sort_by_key(|&i| systems[i].node_counts.iter().sum::<usize>());
    for &i in &order {
        for collective in tuned_collectives() {
            items.push((i, collective));
        }
    }
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let workers = workers.min(items.len());
    let queue = Mutex::new(items);
    let results: Mutex<Vec<(usize, Vec<Entry>, f64)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let item = queue.lock().unwrap().pop();
                let Some((idx, collective)) = item else { break };
                let start = Instant::now();
                let target = tune_target(&systems[idx], vec![collective]);
                let mut tuner = Tuner::new(target, TunerConfig::default());
                let table = tuner.tune();
                let secs = start.elapsed().as_secs_f64();
                results.lock().unwrap().push((idx, table.entries, secs));
            });
        }
    });
    let mut merged: Vec<(Vec<Entry>, f64)> = systems.iter().map(|_| (Vec::new(), 0.0)).collect();
    for (idx, entries, secs) in results.into_inner().unwrap() {
        merged[idx].0.extend(entries);
        merged[idx].1 += secs;
    }
    for (system, (entries, secs)) in systems.iter().zip(merged) {
        let mut table = DecisionTable {
            system: system.name.to_string(),
            entries,
        };
        table.sort();
        let path = out_dir.join(format!("{}.json", slug(system.name)));
        std::fs::write(&path, table.to_json())
            .map_err(|e| Failure::Io(format!("cannot write {}: {e}", path.display())))?;
        let des = table
            .entries
            .iter()
            .filter(|e| e.model == bine_tune::ScoreModel::Des)
            .count();
        println!(
            "{:<14} {:>4} grid points ({des} DES-refined) in {secs:>6.1}s of worker time -> {}",
            system.name,
            table.entries.len(),
            path.display()
        );
    }
    let secs = wall.elapsed().as_secs_f64();
    println!("tune: {secs:.1}s wall time, peak RSS {}", peak_rss());
    Ok(())
}

/// The process's peak resident set, `VmHWM` of `/proc/self/status`, in GB;
/// `n/a` where that file does not exist (off Linux).
fn peak_rss() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB")?.trim().parse::<u64>().ok());
    kib.map_or("n/a".to_string(), |kib| {
        format!("{:.2} GB", kib as f64 * 1024.0 / 1e9)
    })
}
