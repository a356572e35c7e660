//! Shared report builders used by the `bine-bench paper` artifacts.

use bine_sched::Collective;

use crate::report::{
    algorithm_letter, format_bytes, geometric_mean, max, mean, render_table, BoxPlot,
};
use crate::runner::{compare_vs_binomial, heatmap, improvement_distribution, Evaluator};
use crate::systems::System;

/// Builds the per-collective "Comparison with Binomial Trees" table for one
/// system (the layout of Tables 3, 4 and 5).
pub fn comparison_table(system: System) -> String {
    let mut eval = Evaluator::new(system.clone());
    let mut rows = Vec::new();
    for collective in Collective::ALL {
        let h2h = compare_vs_binomial(&mut eval, collective);
        let avg_gain =
            (geometric_mean(&h2h.gains.iter().map(|g| 1.0 + g).collect::<Vec<_>>()) - 1.0) * 100.0;
        let max_gain = max(&h2h.gains) * 100.0;
        let avg_drop =
            (geometric_mean(&h2h.drops.iter().map(|d| 1.0 + d).collect::<Vec<_>>()) - 1.0) * 100.0;
        let max_drop = max(&h2h.drops) * 100.0;
        let avg_red = mean(&h2h.traffic_reductions) * 100.0;
        let max_red = max(&h2h.traffic_reductions) * 100.0;
        rows.push(vec![
            collective.name().to_string(),
            format!("{:.0}%", h2h.win_fraction() * 100.0),
            format!("{avg_gain:.0}%/{max_gain:.0}%"),
            format!("{:.0}%", h2h.loss_fraction() * 100.0),
            format!("{avg_drop:.0}%/{max_drop:.0}%"),
            format!("{avg_red:.0}%/{max_red:.0}%"),
        ]);
    }
    format!(
        "Comparison with binomial trees on {} ({} configurations per collective)\n{}",
        system.name,
        system.node_counts.len() * system.vector_sizes.len(),
        render_table(
            &[
                "Coll.",
                "%Win",
                "Avg/Max Gain",
                "%Loss",
                "Avg/Max Drop",
                "Avg/Max Traffic Red."
            ],
            &rows,
        )
    )
}

/// Builds the best-algorithm heatmap for one collective on one system (the
/// layout of Fig. 9a / Fig. 10a): rows are vector sizes, columns node counts.
pub fn heatmap_table(system: System, collective: Collective) -> String {
    let mut eval = Evaluator::new(system.clone());
    let cells = heatmap(&mut eval, collective);
    let node_counts: Vec<usize> = system.node_counts.clone();
    let sizes: Vec<u64> = system.vector_sizes.clone();
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut row = vec![format_bytes(n)];
        for &nodes in &node_counts {
            let cell = cells
                .iter()
                .find(|c| c.nodes == nodes && c.vector_bytes == n);
            row.push(match cell {
                None => "-".to_string(),
                Some(c) => match c.bine_advantage {
                    Some(adv) => format!("{adv:.2}"),
                    None => algorithm_letter(&c.best_algorithm).to_string(),
                },
            });
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["Vector".to_string()];
    header.extend(node_counts.iter().map(|n| n.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    format!(
        "Best algorithm per (vector size x node count) for {} on {}\n\
         (number = Bine wins by that factor over the next-best algorithm;\n\
          letter = best non-Bine algorithm: N binomial/butterfly, R ring, B Bruck, S swing, P pairwise)\n{}{}",
        collective.name(),
        system.name,
        render_table(&header_refs, &rows),
        tuned_table(&mut eval, collective)
    )
}

/// The `tuned` companion grid of a heatmap: what the committed decision
/// table picks at every (vector size × node count) point — segment suffix
/// included, so the pipelining-driven picks are visible next to the
/// synchronous-model heatmap above. Empty when the system has no committed
/// `tuning/` table for the collective.
fn tuned_table(eval: &mut Evaluator, collective: Collective) -> String {
    let node_counts: Vec<usize> = eval.system().node_counts.clone();
    let sizes: Vec<u64> = eval.system().vector_sizes.clone();
    if eval
        .tuned_pick(collective, node_counts[0], sizes[0])
        .is_none()
    {
        return String::new();
    }
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut row = vec![format_bytes(n)];
        for &nodes in &node_counts {
            row.push(match eval.tuned_pick(collective, nodes, n) {
                None => "-".to_string(),
                Some(t) => bine_tune::tuned_name(t.algorithm, t.segments),
            });
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["tuned".to_string()];
    header.extend(node_counts.iter().map(|n| n.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    format!(
        "\ntuned: decision-table pick per (vector size x node count), tuning/{}.json\n{}",
        bine_tune::slug(eval.system().name),
        render_table(&header_refs, &rows)
    )
}

/// Builds the all-collective improvement summary for one system (the layout
/// of Fig. 9b / 10b / 11a / 11b): for each collective, the share of
/// configurations where a Bine algorithm beats every other algorithm and the
/// distribution of the improvement in those configurations.
pub fn improvement_summary(system: System) -> String {
    let mut eval = Evaluator::new(system.clone());
    let mut rows = Vec::new();
    for collective in Collective::ALL {
        let (win_fraction, improvements) = improvement_distribution(&mut eval, collective);
        let bp = BoxPlot::of(&improvements);
        rows.push(vec![
            collective.name().to_string(),
            format!("{:.0}%", win_fraction * 100.0),
            if improvements.is_empty() {
                "-".into()
            } else {
                format!("{:.1}%", bp.min)
            },
            if improvements.is_empty() {
                "-".into()
            } else {
                format!("{:.1}%", bp.q1)
            },
            if improvements.is_empty() {
                "-".into()
            } else {
                format!("{:.1}%", bp.median)
            },
            if improvements.is_empty() {
                "-".into()
            } else {
                format!("{:.1}%", bp.q3)
            },
            if improvements.is_empty() {
                "-".into()
            } else {
                format!("{:.1}%", bp.max)
            },
        ]);
    }
    format!(
        "Improvement of Bine over the best non-Bine algorithm on {}\n\
         (%Best = share of configurations where Bine is the overall fastest;\n\
          distribution of the improvement over those configurations)\n{}",
        system.name,
        render_table(
            &["Coll.", "%Best", "min", "q1", "median", "q3", "max"],
            &rows
        )
    )
}

/// Builds the DES-vs-synchronous comparison for one collective on one
/// system at a fixed node count: for the Bine algorithm and the binomial
/// baseline, the synchronous barrier-model time, the discrete-event
/// simulated time, and the simulated time of the `chunks`-way segmented
/// (pipelined) schedule — plus which algorithm wins under each time model.
///
/// The interesting read is the last two columns: where the winner under
/// `DES+seg` differs from the winner under `sync`, the barrier model is
/// predicting the wrong algorithm choice — the crossover has moved.
pub fn des_comparison_table(
    system: System,
    collective: Collective,
    nodes: usize,
    chunks: usize,
) -> String {
    let mut eval = Evaluator::new(system.clone());
    let mut rows = Vec::new();
    for &n in &system.vector_sizes {
        let bine = eval.bine_algorithm(collective, n).to_string();
        let base = eval.binomial_algorithm(collective, n).to_string();
        let bine_sync = eval.evaluate(collective, &bine, nodes, n).time_us;
        let base_sync = eval.evaluate(collective, &base, nodes, n).time_us;
        let bine_des = eval.simulate(collective, &bine, nodes, n, 1);
        let base_des = eval.simulate(collective, &base, nodes, n, 1);
        // "seg" is the best of the flat and the {chunks}-way pipelined
        // schedule: pipelining is an optimisation a library would only apply
        // when it helps (small vectors lose to the extra per-chunk alpha).
        let bine_seg = eval
            .simulate(collective, &bine, nodes, n, chunks)
            .min(bine_des);
        let base_seg = eval
            .simulate(collective, &base, nodes, n, chunks)
            .min(base_des);
        let winner = |b: f64, o: f64| if b <= o { "bine" } else { "binomial" };
        // The tuned row: what the committed decision table picks here and
        // its DES time at the tuned segment count.
        let (tuned_pick, tuned_us) = match eval.simulate_tuned(collective, nodes, n) {
            Some((pick, t)) => (pick, format!("{t:.1}")),
            None => ("-".to_string(), "-".to_string()),
        };
        rows.push(vec![
            format_bytes(n),
            format!("{bine_sync:.1}"),
            format!("{bine_des:.1}"),
            format!("{bine_seg:.1}"),
            format!("{base_sync:.1}"),
            format!("{base_des:.1}"),
            format!("{base_seg:.1}"),
            winner(bine_sync, base_sync).to_string(),
            winner(bine_seg, base_seg).to_string(),
            tuned_pick,
            tuned_us,
        ]);
    }
    format!(
        "Synchronous barrier model vs discrete-event simulation for {} on {} ({nodes} nodes)\n\
         (times in us; seg = best of the flat and the {chunks}-chunk pipelined schedule;\n\
          win(..) = predicted winner under each time model; tuned = the committed\n\
          decision table's pick and its DES time at the tuned segment count)\n{}",
        collective.name(),
        system.name,
        render_table(
            &[
                "Vector",
                "bine sync",
                "bine DES",
                "bine seg",
                "binom sync",
                "binom DES",
                "binom seg",
                "win(sync)",
                "win(DES+seg)",
                "tuned",
                "tuned us"
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_table_has_one_row_per_collective() {
        let t = comparison_table(System::marenostrum5());
        for c in Collective::ALL {
            assert!(t.contains(c.name()), "missing {}", c.name());
        }
    }

    #[test]
    fn heatmap_table_mentions_every_node_count() {
        let t = heatmap_table(System::marenostrum5(), Collective::Allreduce);
        for nodes in System::marenostrum5().node_counts {
            assert!(t.contains(&nodes.to_string()));
        }
    }

    #[test]
    fn des_comparison_table_has_one_row_per_vector_size() {
        let t = des_comparison_table(System::marenostrum5(), Collective::Allreduce, 16, 4);
        for n in System::marenostrum5().vector_sizes {
            assert!(t.contains(&crate::report::format_bytes(n)));
        }
        assert!(t.contains("win(DES+seg)"));
        // The tuned columns must carry real picks from the committed MN5
        // table, not just the caption word or "-" placeholders.
        assert!(t.contains("tuned us"));
        assert!(
            t.contains("bine-small") || t.contains("bine-large"),
            "tuned column has no committed pick:\n{t}"
        );
    }

    #[test]
    fn heatmap_table_includes_the_tuned_companion_grid_when_tables_exist() {
        // The committed tuning/ tables cover allreduce on every system; the
        // heatmap must then carry the decision-table companion grid.
        let t = heatmap_table(System::marenostrum5(), Collective::Allreduce);
        assert!(
            t.contains("tuning/marenostrum5.json"),
            "missing tuned grid:\n{t}"
        );
        // Alltoall is tuned since the collective-space extension, so its
        // heatmap carries the companion grid too.
        let t = heatmap_table(System::marenostrum5(), Collective::Alltoall);
        assert!(
            t.contains("tuning/marenostrum5.json"),
            "missing tuned alltoall grid:\n{t}"
        );
        // Reduce has no committed table: no companion grid, no noise.
        let t = heatmap_table(System::marenostrum5(), Collective::Reduce);
        assert!(!t.contains("tuning/"));
    }
}
