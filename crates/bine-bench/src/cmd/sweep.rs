//! `bine-bench sweep <sim|irregular|synth|validate>`: the sweeps CI runs as
//! smokes over the simulator, the extended collective space, the
//! synthesizers and the validator.

use bine_bench::report::{format_bytes, render_table};
use bine_bench::runner::Evaluator;
use bine_bench::systems::System;
use bine_sched::catalog::{RankRule, Source};
use bine_sched::{
    is_synthesizable, walk, AlgorithmId, Collective, Request, SizeDist, IRREGULAR_COLLECTIVES,
};
use bine_tune::{default_tuning_dir, irregular_scores, ScoreModel};

use super::gate::load_table;
use crate::cli::{Args, Failure, Outcome};

/// Segment counts swept by [`sim`] (1 = the unsegmented schedule).
const CHUNKS: [usize; 5] = [1, 2, 4, 8, 16];

/// The allreduce algorithm family of the paper's Fig. 9–11 sweeps.
const ALGORITHMS: [&str; 4] = ["bine-large", "recursive-doubling", "rabenseifner", "ring"];

/// Discrete-event sweep: message size × segment count × algorithm.
///
/// For each paper topology this simulates the allreduce algorithm family
/// with the DES of `bine-net` across the paper's vector sizes and a range of
/// pipeline segment counts, then reports where pipelining moves the
/// algorithm crossover points: configurations where the best algorithm under
/// the segmented (pipelined) prediction differs from the best under the
/// unsegmented one — the effect the synchronous barrier model cannot see.
///
/// `[nodes]` defaults to 64 nodes per system.
pub fn sim(args: Args) -> Outcome {
    let nodes: usize = args.positional(0)?.unwrap_or(64);
    let collective = Collective::Allreduce;
    let mut total_shifts = 0usize;
    let mut total_configs = 0usize;

    for system in System::all() {
        if !system.node_counts.contains(&nodes) {
            continue;
        }
        let mut eval = Evaluator::new(system.clone());
        let sizes = system.vector_sizes.clone();
        println!(
            "=== {} ({nodes} nodes, {}) — simulated allreduce, times in us ===",
            system.name,
            eval.system().topology(nodes).name()
        );
        let mut rows = Vec::new();
        let mut shifts = Vec::new();
        for &n in &sizes {
            let mut row = vec![format_bytes(n)];
            let mut flat_best: Option<(&str, f64)> = None;
            let mut piped_best: Option<(&str, f64, usize)> = None;
            for alg in ALGORITHMS {
                if eval.skip_algorithm(alg, nodes) {
                    row.push("-".into());
                    continue;
                }
                let by_chunks: Vec<(usize, f64)> = CHUNKS
                    .iter()
                    .map(|&s| (s, eval.simulate(collective, alg, nodes, n, s)))
                    .collect();
                let flat = by_chunks[0].1; // CHUNKS[0] == 1
                let (best_s, best_t) = by_chunks
                    .into_iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                row.push(if best_s == 1 {
                    format!("{flat:.1}")
                } else {
                    format!("{flat:.1}>{best_t:.1}(x{best_s})")
                });
                if flat_best.is_none_or(|(_, t)| flat < t) {
                    flat_best = Some((alg, flat));
                }
                if piped_best.is_none_or(|(_, t, _)| best_t < t) {
                    piped_best = Some((alg, best_t, best_s));
                }
            }
            let (flat_alg, _) = flat_best.expect("at least one algorithm");
            let (piped_alg, _, piped_s) = piped_best.expect("at least one algorithm");
            row.push(flat_alg.to_string());
            row.push(format!("{piped_alg} (x{piped_s})"));
            total_configs += 1;
            if flat_alg != piped_alg {
                shifts.push((n, flat_alg, piped_alg));
                total_shifts += 1;
                row.push("<< shift".into());
            } else {
                row.push(String::new());
            }
            rows.push(row);
        }
        let mut header = vec!["Vector"];
        header.extend(ALGORITHMS);
        header.extend(["best flat", "best pipelined", ""]);
        println!("{}", render_table(&header, &rows));
        if shifts.is_empty() {
            println!("no crossover shift on {}\n", system.name);
        } else {
            for (n, from, to) in shifts {
                println!(
                    "crossover shift at {}: {from} (unsegmented) -> {to} (pipelined)",
                    format_bytes(n)
                );
            }
            println!();
        }
    }
    println!(
        "{total_shifts} of {total_configs} (system x size) configurations change their best \
         algorithm when schedules are pipelined"
    );
    Ok(())
}

const ALLTOALL_ALGS: [&str; 3] = ["bine", "bruck", "pairwise"];

/// Smoke sweep over the extended collective space: the tuned alltoall and
/// the irregular (v-variant) grids.
///
/// For every paper system hosting the requested node count this
///
/// * sweeps the alltoall catalog (bine / bruck / pairwise) across the
///   paper's vector sizes with the synchronous model and the DES,
/// * sweeps every v-variant collective × size distribution × irregular
///   algorithm with the synchronous model — the sweep the tuner runs, cell
///   for cell: the same scorer on the same tuned placement — and simulates
///   the per-cell winner once with the DES, exercising the counts-aware
///   byte sizing end to end,
/// * cross-checks the committed decision table: every printed winner and
///   its synchronous time must equal the table's `pick` / `time_us` at that
///   cell (to the table's six decimals), or the sweep exits non-zero.
///
/// `[nodes]` defaults to 16. CI runs this as the v-variant/alltoall smoke.
pub fn irregular(args: Args) -> Outcome {
    let nodes: usize = args.positional(0)?.unwrap_or(16);
    for system in System::all() {
        if !system.node_counts.contains(&nodes) {
            continue;
        }
        let mut eval = Evaluator::new(system.clone());
        let sizes = system.vector_sizes.clone();

        // Alltoall: synchronous and simulated times per catalog algorithm.
        println!(
            "=== {} ({nodes} nodes, {}) — alltoall, times in us ===",
            system.name,
            eval.system().topology(nodes).name()
        );
        let mut rows = Vec::new();
        for &n in &sizes {
            let mut row = vec![format_bytes(n)];
            for alg in ALLTOALL_ALGS {
                if eval.skip_algorithm(alg, nodes) {
                    row.push("-".into());
                    continue;
                }
                let sync = eval.evaluate_time(Collective::Alltoall, alg, nodes, n);
                let des = eval.simulate(Collective::Alltoall, alg, nodes, n, 1);
                row.push(format!("{sync:.1} / {des:.1}"));
            }
            rows.push(row);
        }
        println!(
            "{}",
            render_table(
                &[
                    "size",
                    "bine (sync/des)",
                    "bruck (sync/des)",
                    "pairwise (sync/des)"
                ],
                &rows
            )
        );

        // V-variant grids: the synchronous sweep the tuner runs, plus one
        // DES simulation of each cell's winner, each winner checked against
        // the committed table.
        let dir = default_tuning_dir().map_err(Failure::Io)?;
        let table = load_table(&dir.join(format!("{}.json", system.slug())))?;
        let n = 1u64 << 20;
        println!(
            "=== {} ({nodes} nodes) — v-variants at {}, sync times in us (DES of winner) ===",
            system.name,
            format_bytes(n)
        );
        let mut rows = Vec::new();
        for collective in IRREGULAR_COLLECTIVES {
            for dist in SizeDist::ALL {
                let cell = format!("{}v@{}", collective.name(), dist.name());
                let scores = irregular_scores(eval.scorer_at(nodes), collective, dist, nodes, n);
                let cands: Vec<String> = scores
                    .iter()
                    .map(|(alg, t)| format!("{}={t:.1}", alg.name()))
                    .collect();
                // `min_by` keeps the first of equal minima, like the tuner.
                let best = scores.iter().min_by(|a, b| a.1.total_cmp(&b.1));
                let (winner, sync) = best.expect("every cell has a candidate");
                let (winner, sync) = (winner.name(), *sync);
                let des = eval
                    .scorer_at(nodes)
                    .score(collective, Some(dist), winner, nodes, n, ScoreModel::Des)
                    .expect("the winner built a moment ago");
                let committed = table.at(collective, Some(dist), nodes, n).ok_or_else(|| {
                    Failure::Check(format!("{}: no committed entry for {cell}", system.name))
                })?;
                if committed.pick != winner
                    || format!("{:.6}", committed.time_us) != format!("{sync:.6}")
                {
                    return Err(Failure::Check(format!(
                        "{}: {cell} at {nodes} nodes: swept {winner} {sync:.6} us, committed \
                         table says {} {:.6} us",
                        system.name, committed.pick, committed.time_us
                    )));
                }
                rows.push(vec![cell, cands.join("  "), format!("{winner} ({des:.1})")]);
            }
        }
        println!(
            "{}",
            render_table(&["cell", "candidates (sync us)", "winner (des us)"], &rows)
        );
        println!(
            "{}: {} v-variant winners and times match the committed table\n",
            system.name,
            rows.len()
        );
    }
    Ok(())
}

/// Vector sizes raced under the DES: one latency-bound, one
/// bandwidth-bound point per grid cell keeps the sweep under a minute.
const SYNTH_SIZES: [u64; 2] = [64 * 1024, 16 * 1024 * 1024];

/// Schedule-synthesis smoke sweep: synthesize, validate, race the catalog.
///
/// For every tuned system ([`System::tuned`]: the paper's four plus the
/// heterogeneous island fat tree) this derives the serving-layer topology
/// view at each small node count, synthesizes every provider candidate
/// (`synth:forestcoll:*`, `synth:multilevel:*`), runs each schedule through
/// [`bine_sched::ScheduleValidator`], and compares its DES makespan against
/// the best fixed-catalog pick at the same grid point.
///
/// Homogeneous fabrics are allowed to prefer the hand-derived catalog —
/// those results are reported but never fatal. The heterogeneous fabric
/// is the topology the synthesizers were derived for: the sweep exits
/// non-zero unless a synthesized schedule strictly beats the best catalog
/// pick on at least one HeteroFat grid point, or if any synthesized
/// schedule fails validation anywhere.
///
/// The CI workflow runs this as the synthesis-integrity step.
pub fn synth(args: Args) -> Outcome {
    let max_nodes: usize = args.flag_or("--max-nodes", 32)?;

    let mut validated = 0usize;
    let mut raced = 0usize;
    let mut hetero_wins = Vec::new();
    let mut failures = Vec::new();

    for system in System::tuned() {
        let slug = system.slug();
        let hetero = slug == "heterofat";
        // The tuned placement and the serving layer's provider set: a
        // synthesized schedule is raced exactly as the tuner would score it.
        let mut eval = Evaluator::new(system.clone());
        for &nodes in system.node_counts.iter().filter(|&&n| n <= max_nodes) {
            for collective in Collective::ALL.into_iter().filter(|&c| is_synthesizable(c)) {
                let scorer = eval.scorer_at(nodes);
                let providers = scorer.providers().clone();
                let (synth, catalog): (Vec<AlgorithmId>, Vec<AlgorithmId>) = providers
                    .algorithms(collective, nodes)
                    .into_iter()
                    .partition(|id| id.is_synthesized());

                // Build and validate every synthesized candidate once.
                let mut sound = Vec::new();
                for id in synth {
                    let label = format!("{slug}/{}/{} p={nodes}", collective.name(), id.name());
                    let Some(sched) = providers.build(collective, id.name(), nodes, 0) else {
                        failures.push(format!("{label}: synthesis returned nothing"));
                        continue;
                    };
                    validated += 1;
                    match sched.validate() {
                        Ok(()) => sound.push(id),
                        Err(e) => failures.push(format!("{label}: {e}")),
                    }
                }
                if sound.is_empty() {
                    continue;
                }

                for &n in &SYNTH_SIZES {
                    // The fastest of `ids` under the DES; catalog entries
                    // that do not build at this rank count drop out.
                    let mut best = |ids: &[AlgorithmId]| {
                        ids.iter()
                            .filter_map(|id| {
                                let model = ScoreModel::Des;
                                let t = scorer.score(collective, None, id.name(), nodes, n, model);
                                Some((id.name().to_string(), t?))
                            })
                            .min_by(|a, b| a.1.total_cmp(&b.1))
                    };
                    let best_synth = best(&sound).expect("non-empty synth set");
                    let best_cat = best(&catalog).expect("non-empty catalog");
                    raced += 1;
                    let verdict = if best_synth.1 < best_cat.1 {
                        "WIN "
                    } else {
                        "loss"
                    };
                    println!(
                        "{verdict} {slug:>12} {:>9} p={nodes:<4} n={n:<9} \
                         synth {} {:>10.2}us vs catalog {} {:>10.2}us",
                        collective.name(),
                        best_synth.0,
                        best_synth.1,
                        best_cat.0,
                        best_cat.1,
                    );
                    if hetero && best_synth.1 < best_cat.1 {
                        hetero_wins.push(format!(
                            "{}/p={nodes}/n={n}: {} {:.2}us beats {} {:.2}us",
                            collective.name(),
                            best_synth.0,
                            best_synth.1,
                            best_cat.0,
                            best_cat.1,
                        ));
                    }
                }
            }
        }
    }

    println!("\nvalidated {validated} synthesized schedules, raced {raced} grid points");
    if !failures.is_empty() {
        return Err(Failure::Check(format!(
            "{} validation failures:\n  {}",
            failures.len(),
            failures.join("\n  ")
        )));
    }
    if hetero_wins.is_empty() {
        return Err(Failure::Check(
            "synthesis never beat the catalog on the heterogeneous fabric it was derived for"
                .into(),
        ));
    }
    println!(
        "{} HeteroFat wins, e.g. {}",
        hetero_wins.len(),
        hetero_wins[0]
    );
    Ok(())
}

/// Validator sweep over the whole schedule catalog.
///
/// Iterates [`bine_sched::walk`] over every rank count up to the cap —
/// every regular name (listed or not), the v-variants under every
/// `SizeDist` (up to 32 ranks), both synthesizers on the fixture views; at
/// four roots and one past the last rank; bare, `+seg2` and `+seg4` — and
/// runs each
/// schedule that builds through [`bine_sched::ScheduleValidator`]. Exits
/// non-zero if the validator rejects any schedule — a failure here means
/// the catalog emitted a schedule that drops data, deadlocks, or miscounts
/// bytes — or if a request builds where its row's rank rule says it must
/// not (or the reverse), or under another name than it was asked for.
///
/// Prints built / refused per collective and per rank rule — the split a
/// change of a row's rule moves.
///
/// The CI workflow runs this as the schedule-integrity step.
pub fn validate(args: Args) -> Outcome {
    let max_ranks: usize = args.flag_or("--max-ranks", 64)?;
    let ranks: Vec<usize> = (2..=max_ranks).collect();

    // (built, refused) per collective and per rank rule; the synthesizers,
    // which have no row, count under their collective only.
    let mut by_collective = [(0usize, 0usize); Collective::ALL.len()];
    let mut by_rule = [(0usize, 0usize); RankRule::ALL.len()];
    let mut failures = Vec::new();
    // A regular name is validated once where its builder ignores the root,
    // and the v-variants — every rank count times three distributions — stop
    // at 32 ranks, where this sweep has always stopped them.
    let affordable = |r: &Request| {
        let small = r.p <= 32 || !matches!(r.source, Source::Irregular(..));
        small && !r.repeats_root_zero()
    };
    for request in walk(&ranks).into_iter().filter(affordable) {
        let label = request.label();
        let built = request.build();
        if request
            .must_build()
            .is_some_and(|must| must != built.is_some())
        {
            failures.push(format!("{label}: built = {}", built.is_some()));
        }
        let count = |slot: &mut (usize, usize)| match built {
            Some(_) => slot.0 += 1,
            None => slot.1 += 1,
        };
        let position = Collective::ALL
            .iter()
            .position(|&c| c == request.collective);
        count(&mut by_collective[position.expect("`ALL` lists every collective")]);
        if let Some(row) = request.row() {
            let position = RankRule::ALL.iter().position(|&rule| rule == row.rule);
            count(&mut by_rule[position.expect("`ALL` lists every rule")]);
        }
        let Some(sched) = built else { continue };
        if sched.algorithm != request.name {
            failures.push(format!("{label}: built as {}", sched.algorithm));
        }
        if let Err(e) = sched.validate() {
            failures.push(format!("{label}: {e}"));
        }
    }

    let row = |name: &str, (built, refused): (usize, usize)| {
        vec![name.to_string(), built.to_string(), refused.to_string()]
    };
    let collectives = Collective::ALL.iter().zip(by_collective);
    let rows: Vec<_> = collectives.map(|(c, tally)| row(c.name(), tally)).collect();
    println!(
        "{}",
        render_table(&["collective", "built", "refused"], &rows)
    );
    let rules = RankRule::ALL.iter().zip(by_rule);
    let rows: Vec<_> = rules.map(|(r, tally)| row(r.name(), tally)).collect();
    println!(
        "{}",
        render_table(&["rank rule", "built", "refused"], &rows)
    );

    let validated: usize = by_collective.iter().map(|t| t.0).sum();
    let skipped: usize = by_collective.iter().map(|t| t.1).sum();
    println!(
        "validate_sweep: {validated} schedules validated, {skipped} unsupported \
         configurations skipped (max {max_ranks} ranks)"
    );
    if !failures.is_empty() {
        return Err(Failure::Check(format!(
            "\nvalidate_sweep: {} FAILURES\n  {}",
            failures.len(),
            failures.join("\n  ")
        )));
    }
    println!("validate_sweep: the whole catalog validates");
    Ok(())
}
