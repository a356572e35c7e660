//! The CI decision-table drift gate.
//!
//! The committed `tuning/*.json` files are the repository's algorithm
//! selection policy; the tuner that regenerates them is deterministic (no
//! timing, no sampling beyond the seeded placements), so CI can rebuild
//! them from scratch and demand byte-level agreement of the *decisions* —
//! any divergence means a code change silently altered what the library
//! would pick, which must be an explicit, reviewed table regeneration
//! instead (the `bine-bench gate perf` pattern applied to policy instead of ns/op).
//!
//! Scores are compared with a small relative tolerance rather than
//! exactly: the serialised `time_us` is rounded to six decimals, so a
//! reparsed baseline can differ from a fresh computation in the last
//! digit without any behavioural change.

use crate::table::DecisionTable;

/// Relative `time_us` discrepancy treated as serialisation rounding noise.
pub const SCORE_TOLERANCE: f64 = 1e-6;

/// One divergent grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// `collective/nodes/bytes` key of the grid point.
    pub key: String,
    /// Committed pick (`None` when the point only exists regenerated).
    pub committed: Option<String>,
    /// Regenerated pick (`None` when the point vanished).
    pub regenerated: Option<String>,
    /// Human-readable description of what diverged.
    pub what: String,
}

/// Outcome of diffing a regenerated table against the committed one.
#[derive(Debug, Clone)]
pub struct DriftOutcome {
    /// The system the tables describe.
    pub system: String,
    /// Total grid points compared.
    pub compared: usize,
    /// Divergent grid points (empty = gate passes).
    pub rows: Vec<DriftRow>,
}

impl DriftOutcome {
    /// Whether the regenerated table matches the committed one.
    pub fn passed(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the diff as a GitHub-flavoured markdown table for the CI
    /// step summary.
    pub fn markdown(&self) -> String {
        let mut out = format!(
            "## Decision-table drift gate — {}\n\n{} grid points compared.\n\n",
            self.system, self.compared
        );
        if self.rows.is_empty() {
            out.push_str("No drift: the committed `tuning/` tables reproduce exactly.\n");
            return out;
        }
        out.push_str("| grid point | committed | regenerated | drift |\n|---|---|---|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} |\n",
                r.key,
                r.committed.as_deref().unwrap_or("missing"),
                r.regenerated.as_deref().unwrap_or("missing"),
                r.what
            ));
        }
        out.push_str(&format!(
            "\n**FAIL**: {} grid point{} diverged. If the algorithm-selection change is \
             intentional, regenerate the committed tables (`cargo run --release -p bine-bench \
             --bin tune`) and commit the `tuning/` diff for review.\n",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" },
        ));
        out
    }
}

/// Diffs `regenerated` against the `committed` baseline.
pub fn drift(committed: &DecisionTable, regenerated: &DecisionTable) -> DriftOutcome {
    let mut rows = Vec::new();
    if committed.system != regenerated.system {
        rows.push(DriftRow {
            key: "system".into(),
            committed: Some(committed.system.clone()),
            regenerated: Some(regenerated.system.clone()),
            what: "system name".into(),
        });
    }
    let key = |e: &crate::table::Entry| match e.dist {
        Some(d) => format!(
            "{}@{}/{}/{}",
            e.collective.name(),
            d.name(),
            e.nodes,
            e.vector_bytes
        ),
        None => format!("{}/{}/{}", e.collective.name(), e.nodes, e.vector_bytes),
    };
    for c in &committed.entries {
        match regenerated.at(c.collective, c.dist, c.nodes, c.vector_bytes) {
            None => rows.push(DriftRow {
                key: key(c),
                committed: Some(c.pick.clone()),
                regenerated: None,
                what: "grid point vanished".into(),
            }),
            Some(r) => {
                if r.pick != c.pick || r.model != c.model {
                    rows.push(DriftRow {
                        key: key(c),
                        committed: Some(format!("{} ({})", c.pick, c.model.name())),
                        regenerated: Some(format!("{} ({})", r.pick, r.model.name())),
                        what: "pick changed".into(),
                    });
                } else if (r.time_us - c.time_us).abs() > SCORE_TOLERANCE * c.time_us.abs() {
                    rows.push(DriftRow {
                        key: key(c),
                        committed: Some(format!("{:.6} us", c.time_us)),
                        regenerated: Some(format!("{:.6} us", r.time_us)),
                        what: "score changed".into(),
                    });
                }
            }
        }
    }
    for r in &regenerated.entries {
        if committed
            .at(r.collective, r.dist, r.nodes, r.vector_bytes)
            .is_none()
        {
            rows.push(DriftRow {
                key: key(r),
                committed: None,
                regenerated: Some(r.pick.clone()),
                what: "new grid point (baseline not regenerated)".into(),
            });
        }
    }
    DriftOutcome {
        system: committed.system.clone(),
        compared: committed.entries.len(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Entry, ScoreModel};
    use bine_sched::Collective;

    fn table() -> DecisionTable {
        DecisionTable {
            system: "Testbox".into(),
            entries: vec![
                Entry {
                    collective: Collective::Allreduce,
                    dist: None,
                    nodes: 16,
                    vector_bytes: 32,
                    pick: "recursive-doubling".into(),
                    model: ScoreModel::Sync,
                    time_us: 10.0,
                },
                Entry {
                    collective: Collective::Allreduce,
                    dist: None,
                    nodes: 16,
                    vector_bytes: 1 << 20,
                    pick: "bine-large+seg8".into(),
                    model: ScoreModel::Des,
                    time_us: 100.0,
                },
            ],
        }
    }

    #[test]
    fn identical_tables_pass() {
        let outcome = drift(&table(), &table());
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 2);
        assert!(outcome.markdown().contains("No drift"));
    }

    #[test]
    fn a_changed_pick_fails_with_a_markdown_diff() {
        let mut regen = table();
        regen.entries[1].pick = "ring".into();
        let outcome = drift(&table(), &regen);
        assert!(!outcome.passed());
        let md = outcome.markdown();
        assert!(md.contains("**FAIL**"));
        assert!(md.contains("allreduce/16/1048576"));
        assert!(md.contains("bine-large+seg8"));
        assert!(md.contains("ring"));
    }

    #[test]
    fn rounding_noise_passes_but_real_score_changes_fail() {
        let mut regen = table();
        regen.entries[0].time_us = 10.0 + 10.0 * SCORE_TOLERANCE * 0.5;
        assert!(drift(&table(), &regen).passed());
        regen.entries[0].time_us = 10.5;
        let outcome = drift(&table(), &regen);
        assert!(!outcome.passed());
        assert_eq!(outcome.rows[0].what, "score changed");
    }

    #[test]
    fn vanished_and_new_grid_points_fail() {
        let mut regen = table();
        regen.entries.pop();
        assert!(!drift(&table(), &regen).passed());
        let mut regen = table();
        regen.entries.push(Entry {
            collective: Collective::Broadcast,
            dist: None,
            nodes: 4,
            vector_bytes: 32,
            pick: "bine-tree".into(),
            model: ScoreModel::Sync,
            time_us: 1.0,
        });
        let outcome = drift(&table(), &regen);
        assert!(!outcome.passed());
        assert!(outcome.markdown().contains("new grid point"));
    }
}
