//! The decision-table model and its committed JSON representation.
//!
//! A [`DecisionTable`] is the tuner's output for one system: for every
//! `(collective, nodes, vector bytes)` grid point, the algorithm (and
//! pipeline segment count) that won the sweep, together with the winning
//! score and which time model produced it. Tables are committed under
//! `tuning/` at the repository root, one file per system, and reloaded at
//! runtime by [`crate::selector::Selector`].
//!
//! The serialisation is deliberately rigid line-oriented JSON — one entry
//! object per line, fixed key order — written and parsed by this module
//! without a serialisation framework (the build environment vendors no
//! serde), in the same spirit as the `BENCH_exec.json` perf baseline. The
//! strict format is what makes the CI drift gate's diff trivial and the
//! committed files merge-friendly.

use bine_sched::{
    algorithms, has_algorithm, irregular_algorithms, is_synth_name, split_segments, Collective,
    SizeDist, SynthSpec,
};

/// Which time model produced a winning score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreModel {
    /// The synchronous barrier model (`bine_net::cost`), used where the
    /// discrete-event refinement is out of budget.
    Sync,
    /// The discrete-event simulator (`bine_net::sim`), segmentation-aware.
    Des,
}

impl ScoreModel {
    /// Serialised name.
    pub fn name(&self) -> &'static str {
        match self {
            ScoreModel::Sync => "sync",
            ScoreModel::Des => "des",
        }
    }

    /// Parses the serialised name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sync" => Some(ScoreModel::Sync),
            "des" => Some(ScoreModel::Des),
            _ => None,
        }
    }
}

/// One tuned grid point: the winning `(algorithm, segments)` for a
/// `(collective, nodes, bytes)` configuration — or, for irregular
/// (v-variant) grid points, a `(collective, dist, nodes, bytes)` one.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The collective being tuned.
    pub collective: Collective,
    /// The per-rank size-distribution descriptor of an irregular (v-variant)
    /// grid point; `None` for the regular equal-counts grid. Serialised as
    /// an optional `"dist"` field, so regular entries keep their historical
    /// byte-exact line format.
    pub dist: Option<SizeDist>,
    /// Node count of the grid point.
    pub nodes: usize,
    /// Vector size in bytes of the grid point.
    pub vector_bytes: u64,
    /// The winning pick as a catalog-buildable name, segment suffix
    /// included (e.g. `"bine-large+seg8"`); `bine_sched::build` accepts it
    /// verbatim.
    pub pick: String,
    /// Which model scored the pick.
    pub model: ScoreModel,
    /// The winning score in microseconds under [`Entry::model`].
    pub time_us: f64,
}

impl Entry {
    /// The entry's place in [`DecisionTable::sort`]'s canonical order:
    /// collective, then distribution (the regular grid first), node count
    /// and vector size.
    pub(crate) fn canonical_key(&self) -> (usize, usize, usize, u64) {
        let collective = Collective::ALL.iter().position(|&x| x == self.collective);
        let collective = collective.expect("Collective::ALL lists every collective");
        (
            collective,
            dist_idx(self.dist),
            self.nodes,
            self.vector_bytes,
        )
    }

    /// The pick's base algorithm name, without the `+segS` suffix.
    pub fn algorithm(&self) -> &str {
        split_segments(&self.pick).0
    }

    /// The pick's pipeline segment count (1 = unsegmented).
    pub fn segments(&self) -> usize {
        split_segments(&self.pick).1
    }
}

/// The tuner's output for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTable {
    /// Display name of the system (e.g. `"MareNostrum 5"`).
    pub system: String,
    /// Entries sorted by `(collective, nodes, vector_bytes)`.
    pub entries: Vec<Entry>,
}

/// File-name slug of a system display name: lower-cased alphanumerics only
/// (`"MareNostrum 5"` → `"marenostrum5"`).
pub fn slug(system: &str) -> String {
    slug_chars(system).collect()
}

/// The characters of [`slug`]`(system)`, for comparing without allocating.
pub(crate) fn slug_chars(system: &str) -> impl Iterator<Item = char> + '_ {
    system
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
}

impl DecisionTable {
    /// Canonical entry order, so serialisation (and the drift gate's diff)
    /// is deterministic. The regular (no-`dist`) grid of a collective sorts
    /// before its irregular grids, and entries of one `(collective, dist)`
    /// group stay contiguous — the selector index's grouping scan relies on
    /// this.
    pub fn sort(&mut self) {
        self.entries.sort_by_key(Entry::canonical_key);
    }

    /// Serialises the table to the committed `tuning/*.json` format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"system\": \"{}\",\n", self.system));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let dist = match e.dist {
                Some(d) => format!(" \"dist\": \"{}\",", d.name()),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"collective\": \"{}\",{dist} \"nodes\": {}, \"bytes\": {}, \"pick\": \"{}\", \"model\": \"{}\", \"time_us\": {:.6}}}{comma}\n",
                e.collective.name(),
                e.nodes,
                e.vector_bytes,
                e.pick,
                e.model.name(),
                e.time_us,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the committed `tuning/*.json` format (the exact output of
    /// [`DecisionTable::to_json`]; anything looser is an error).
    pub fn from_json(text: &str) -> Result<DecisionTable, String> {
        let mut system: Option<String> = None;
        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("\"system\":") {
                system = Some(
                    rest.trim()
                        .trim_end_matches(',')
                        .trim_matches('"')
                        .to_string(),
                );
            } else if line.starts_with("{\"collective\"") {
                entries.push(parse_entry(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
            }
        }
        let system = system.ok_or("missing \"system\" field")?;
        if entries.is_empty() {
            return Err("no entries".into());
        }
        let table = DecisionTable { system, entries };
        // Duplicate grid points would give the selector two breakpoints for
        // one (collective, nodes, bytes) key, and which pick wins would then
        // depend on sort stability — reject them here so a corrupt or
        // hand-merged table fails loudly at load instead.
        if let Some((c, d, n, b)) = table.duplicate_key() {
            return Err(format!(
                "duplicate entry for (collective: {}{}, nodes: {n}, bytes: {b}); \
                 each grid point may appear at most once",
                c.name(),
                match d {
                    Some(d) => format!(", dist: {}", d.name()),
                    None => String::new(),
                }
            ));
        }
        Ok(table)
    }

    /// The first `(collective, dist, nodes, bytes)` grid point that appears
    /// more than once, if any. A table with duplicate keys has no
    /// well-defined selection policy (which pick wins would depend on sort
    /// stability): [`DecisionTable::from_json`] rejects such tables at parse
    /// time and the selector index refuses to build from them.
    pub fn duplicate_key(&self) -> Option<(Collective, Option<SizeDist>, usize, u64)> {
        let mut entries: Vec<&Entry> = self.entries.iter().collect();
        entries.sort_by_key(|e| e.canonical_key());
        entries
            .windows(2)
            .find(|w| w[0].canonical_key() == w[1].canonical_key())
            .map(|w| (w[0].collective, w[0].dist, w[0].nodes, w[0].vector_bytes))
    }

    /// The entry at an exact grid point, if present. Regular grid points
    /// have `dist == None`; irregular (v-variant) ones carry their
    /// distribution descriptor.
    pub fn at(
        &self,
        collective: Collective,
        dist: Option<SizeDist>,
        nodes: usize,
        vector_bytes: u64,
    ) -> Option<&Entry> {
        self.entries.iter().find(|e| {
            e.collective == collective
                && e.dist == dist
                && e.nodes == nodes
                && e.vector_bytes == vector_bytes
        })
    }
}

/// Canonical sort position of a dist key: the regular grid first, then the
/// irregular grids in [`SizeDist::ALL`] order.
fn dist_idx(dist: Option<SizeDist>) -> usize {
    match dist {
        None => 0,
        Some(d) => 1 + SizeDist::ALL.iter().position(|&x| x == d).unwrap(),
    }
}

/// Extracts the value of `"key": ...` from a single-line entry object. The
/// value ends at the next `,` or closing `}`; quoted values keep everything
/// between the quotes (pick names never contain quotes or commas).
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat).ok_or(format!("missing key {key}"))? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"').ok_or(format!("unterminated {key}"))?;
        Ok(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).ok_or(format!("unterminated {key}"))?;
        Ok(rest[..end].trim())
    }
}

fn parse_entry(line: &str) -> Result<Entry, String> {
    let collective = field(line, "collective")?;
    let collective =
        Collective::from_name(collective).ok_or(format!("unknown collective {collective}"))?;
    // The dist field is optional: regular grid points omit it entirely.
    let dist = match field(line, "dist") {
        Ok(name) => Some(SizeDist::from_name(name).ok_or(format!("unknown dist {name}"))?),
        Err(_) => None,
    };
    let nodes: usize = field(line, "nodes")?
        .parse()
        .map_err(|e| format!("bad nodes: {e}"))?;
    let vector_bytes: u64 = field(line, "bytes")?
        .parse()
        .map_err(|e| format!("bad bytes: {e}"))?;
    let pick = field(line, "pick")?.to_string();
    let model = field(line, "model")?;
    let model = ScoreModel::from_name(model).ok_or(format!("unknown model {model}"))?;
    let time_us: f64 = field(line, "time_us")?
        .parse()
        .map_err(|e| format!("bad time_us: {e}"))?;
    // Value sanity, not just syntax: a NaN score would poison every
    // comparison the selector and the adaptive layer run against it, a
    // negative one would always win a sweep, and a zero node count can
    // never resolve a rank. The tuner never emits these, so any of them
    // means a corrupt or hand-edited table — fail loudly at load.
    if time_us.is_nan() {
        return Err("time_us is NaN; scores must be comparable".into());
    }
    if time_us < 0.0 {
        return Err(format!(
            "time_us is negative ({time_us}); scores are durations"
        ));
    }
    if nodes == 0 {
        return Err("nodes is 0; a grid point needs at least one rank".into());
    }
    // The pick must name something the serving layer can actually build:
    // a catalog algorithm of this collective, a parseable synthesized name
    // it supports, or (for dist-keyed rows) an irregular v-variant. A typo
    // here would otherwise surface only as a panic at first request.
    let base = split_segments(&pick).0;
    let known = if is_synth_name(base) {
        dist.is_none() && SynthSpec::parse(base).is_some_and(|s| s.supports(collective))
    } else {
        // Dist-keyed rows may also name a v-variant on top of the regular
        // catalog (an irregular grid can still pick a regular algorithm
        // when the counts happen to be equal).
        has_algorithm(collective, base)
            || (dist.is_some()
                && irregular_algorithms(collective)
                    .iter()
                    .any(|a| a.name() == base))
    };
    if !known {
        let mut available: Vec<String> = algorithms(collective)
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        if dist.is_some() {
            available.extend(
                irregular_algorithms(collective)
                    .iter()
                    .map(|a| format!("{} (v-variant)", a.name())),
            );
        } else {
            available.push("synth:forestcoll:k=K".to_string());
            available.push("synth:multilevel:tiers=T".to_string());
        }
        return Err(format!(
            "unknown pick \"{pick}\" for {}; available: {}",
            collective.name(),
            available.join(", ")
        ));
    }
    Ok(Entry {
        collective,
        dist,
        nodes,
        vector_bytes,
        pick,
        model,
        time_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecisionTable {
        DecisionTable {
            system: "MareNostrum 5".into(),
            entries: vec![
                Entry {
                    collective: Collective::Allreduce,
                    dist: None,
                    nodes: 16,
                    vector_bytes: 32,
                    pick: "recursive-doubling".into(),
                    model: ScoreModel::Sync,
                    time_us: 12.25,
                },
                Entry {
                    collective: Collective::Allreduce,
                    dist: None,
                    nodes: 16,
                    vector_bytes: 64 << 20,
                    pick: "bine-large+seg8".into(),
                    model: ScoreModel::Des,
                    time_us: 31337.5,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let table = sample();
        let parsed = DecisionTable::from_json(&table.to_json()).unwrap();
        assert_eq!(parsed, table);
    }

    #[test]
    fn entries_expose_base_name_and_segments() {
        let table = sample();
        assert_eq!(table.entries[0].algorithm(), "recursive-doubling");
        assert_eq!(table.entries[0].segments(), 1);
        assert_eq!(table.entries[1].algorithm(), "bine-large");
        assert_eq!(table.entries[1].segments(), 8);
    }

    #[test]
    fn sort_orders_by_collective_then_nodes_then_bytes() {
        let mut table = sample();
        table.entries.reverse();
        table.entries.push(Entry {
            collective: Collective::Broadcast,
            dist: None,
            nodes: 4,
            vector_bytes: 32,
            pick: "bine-tree".into(),
            model: ScoreModel::Sync,
            time_us: 1.0,
        });
        table.sort();
        // Broadcast precedes Allreduce in Collective::ALL.
        assert_eq!(table.entries[0].collective, Collective::Broadcast);
        assert_eq!(table.entries[1].vector_bytes, 32);
        assert_eq!(table.entries[2].vector_bytes, 64 << 20);
    }

    #[test]
    fn irregular_entries_round_trip_and_keep_regular_lines_stable() {
        let regular_json = sample().to_json();
        let mut table = sample();
        table.entries.push(Entry {
            collective: Collective::Allreduce,
            dist: Some(SizeDist::Linear),
            nodes: 16,
            vector_bytes: 32, // same (nodes, bytes) as entry 0: distinct key by dist
            pick: "ring".into(),
            model: ScoreModel::Sync,
            time_us: 3.5,
        });
        let json = table.to_json();
        // Regular entry lines are byte-identical with or without irregular
        // rows in the table (older committed files stay parseable and
        // diff-stable).
        for line in regular_json.lines().filter(|l| l.contains("\"pick\"")) {
            assert!(json.contains(line), "regular line changed: {line}");
        }
        assert!(json.contains("\"dist\": \"linear\""), "{json}");
        let parsed = DecisionTable::from_json(&json).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(
            parsed.at(Collective::Allreduce, Some(SizeDist::Linear), 16, 32),
            Some(&table.entries[2])
        );
        // The dist-keyed row never shadows the regular grid point.
        assert_eq!(
            parsed.at(Collective::Allreduce, None, 16, 32).unwrap().pick,
            "recursive-doubling"
        );
    }

    #[test]
    fn sort_places_irregular_grids_after_the_regular_grid() {
        let mut table = sample();
        table.entries.insert(
            0,
            Entry {
                collective: Collective::Allreduce,
                dist: Some(SizeDist::Uniform),
                nodes: 4,
                vector_bytes: 32,
                pick: "ring".into(),
                model: ScoreModel::Sync,
                time_us: 1.0,
            },
        );
        table.sort();
        assert_eq!(table.entries[0].dist, None);
        assert_eq!(table.entries[1].dist, None);
        assert_eq!(table.entries[2].dist, Some(SizeDist::Uniform));
    }

    #[test]
    fn duplicate_detection_is_dist_aware() {
        // Same (collective, nodes, bytes) under two dists: not a duplicate.
        let mut table = sample();
        for dist in [Some(SizeDist::Linear), Some(SizeDist::OneHeavy)] {
            table.entries.push(Entry {
                collective: Collective::Allreduce,
                dist,
                nodes: 16,
                vector_bytes: 32,
                pick: "ring".into(),
                model: ScoreModel::Sync,
                time_us: 1.0,
            });
        }
        assert!(table.duplicate_key().is_none());
        // The same dist twice is one, and the error names the dist.
        let dup = table.entries.last().unwrap().clone();
        table.entries.push(dup);
        assert!(table.duplicate_key().is_some());
        let err = DecisionTable::from_json(&table.to_json()).unwrap_err();
        assert!(err.contains("dist: one-heavy"), "{err}");
    }

    #[test]
    fn slugs_drop_spaces_and_case() {
        assert_eq!(slug("MareNostrum 5"), "marenostrum5");
        assert_eq!(slug("LUMI"), "lumi");
        assert_eq!(slug("Leonardo"), "leonardo");
        assert_eq!(slug("Fugaku"), "fugaku");
    }

    #[test]
    fn malformed_tables_are_rejected() {
        assert!(DecisionTable::from_json("{}").is_err());
        assert!(
            DecisionTable::from_json("{\n  \"system\": \"x\",\n  \"entries\": [\n  ]\n}").is_err()
        );
        let bad = sample().to_json().replace("allreduce", "allred");
        assert!(DecisionTable::from_json(&bad).is_err());
    }

    #[test]
    fn corrupt_scores_and_rank_counts_are_rejected_with_line_numbers() {
        // A NaN score: every comparison against it is false, so the
        // selector's floor lookups and the adaptive divergence test would
        // silently misbehave. Entry objects start on line 4 of the format.
        let bad = sample().to_json().replace("12.250000", "NaN");
        let err = DecisionTable::from_json(&bad).unwrap_err();
        assert!(err.contains("NaN"), "{err}");
        assert!(err.contains("line 4"), "{err}");

        // A negative score would win every sweep it appears in.
        let bad = sample().to_json().replace("31337.500000", "-1.5");
        let err = DecisionTable::from_json(&bad).unwrap_err();
        assert!(err.contains("negative"), "{err}");
        assert!(err.contains("line 5"), "{err}");

        // Zero nodes can never resolve a rank.
        let bad = sample().to_json().replace("\"nodes\": 16", "\"nodes\": 0");
        let err = DecisionTable::from_json(&bad).unwrap_err();
        assert!(err.contains("nodes is 0"), "{err}");
        assert!(err.contains("line 4"), "{err}");

        // Infinity stays loadable: the tuner emits it for unbuildable
        // picks it still has to rank, and it compares correctly.
        let inf = sample().to_json().replace("12.250000", "inf");
        assert!(DecisionTable::from_json(&inf).is_ok());
    }

    #[test]
    fn duplicate_grid_points_are_rejected_with_the_offending_key() {
        // Regression: duplicates used to parse fine and silently make the
        // resolved pick depend on sort stability.
        let mut table = sample();
        let mut dup = table.entries[0].clone();
        dup.pick = "ring".into(); // same key, conflicting pick
        table.entries.push(dup);
        let err = DecisionTable::from_json(&table.to_json()).unwrap_err();
        assert!(err.contains("duplicate entry"), "{err}");
        assert!(
            err.contains("allreduce") && err.contains("16") && err.contains("32"),
            "{err}"
        );
        // Non-adjacent duplicates (different sort position in the file) are
        // caught too: detection is over canonically sorted keys.
        let mut table = sample();
        let dup = table.entries[1].clone();
        table.entries.insert(0, dup);
        assert!(DecisionTable::from_json(&table.to_json())
            .unwrap_err()
            .contains("duplicate entry"));
    }

    #[test]
    fn unknown_picks_are_rejected_with_the_available_names() {
        // A typo'd catalog name fails at load, names the line, and lists
        // what would have been accepted.
        let bad = sample()
            .to_json()
            .replace("recursive-doubling", "recursiv-doubling");
        let err = DecisionTable::from_json(&bad).unwrap_err();
        assert!(err.contains("unknown pick \"recursiv-doubling\""), "{err}");
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("recursive-doubling"), "{err}");
        assert!(err.contains("synth:forestcoll"), "{err}");

        // A valid name for the *wrong* collective is just as unbuildable.
        let bad = sample().to_json().replace(
            "\"pick\": \"recursive-doubling\"",
            "\"pick\": \"bine-tree\"",
        );
        assert!(DecisionTable::from_json(&bad)
            .unwrap_err()
            .contains("unknown pick"));

        // Segment suffixes are split off before the name check, malformed
        // ones (leading zero) are not and fail as a whole.
        let ok = sample().to_json().replace(
            "\"pick\": \"recursive-doubling\"",
            "\"pick\": \"recursive-doubling+seg4\"",
        );
        assert!(DecisionTable::from_json(&ok).is_ok());
        let bad = sample().to_json().replace(
            "\"pick\": \"recursive-doubling\"",
            "\"pick\": \"recursive-doubling+seg04\"",
        );
        assert!(DecisionTable::from_json(&bad)
            .unwrap_err()
            .contains("unknown pick"));
    }

    #[test]
    fn synthesized_picks_parse_when_canonical_and_supported() {
        let base = sample().to_json();
        for (pick, ok) in [
            ("synth:multilevel:tiers=2", true),
            ("synth:multilevel:tiers=2+seg8", true),
            ("synth:multilevel:tiers=0", false),  // out of range
            ("synth:multilevel:tiers=02", false), // non-canonical
            ("synth:forestcoll:k=2", false),      // broadcast-only, row is allreduce
            ("synth:unknown:x=1", false),
        ] {
            let json = base.replace(
                "\"pick\": \"recursive-doubling\"",
                &format!("\"pick\": \"{pick}\""),
            );
            assert_eq!(DecisionTable::from_json(&json).is_ok(), ok, "{pick}");
        }
    }

    #[test]
    fn irregular_picks_validate_against_the_v_variant_names() {
        let mut table = sample();
        table.entries.push(Entry {
            collective: Collective::Gather,
            dist: Some(SizeDist::Linear),
            nodes: 16,
            vector_bytes: 32,
            pick: "traff".into(),
            model: ScoreModel::Sync,
            time_us: 3.5,
        });
        let json = table.to_json();
        assert!(DecisionTable::from_json(&json).is_ok(), "{json}");
        let bad = json.replace("\"pick\": \"traff\"", "\"pick\": \"no-such-v\"");
        let err = DecisionTable::from_json(&bad).unwrap_err();
        assert!(err.contains("unknown pick"), "{err}");
        assert!(
            err.contains("traff (v-variant)"),
            "should list v-variants: {err}"
        );
        // The v-variant name is only valid on dist-keyed rows.
        let bad = sample()
            .to_json()
            .replace("\"pick\": \"recursive-doubling\"", "\"pick\": \"traff\"");
        assert!(DecisionTable::from_json(&bad)
            .unwrap_err()
            .contains("unknown pick"));
    }

    #[test]
    fn exact_lookup_finds_grid_points() {
        let table = sample();
        assert!(table.at(Collective::Allreduce, None, 16, 32).is_some());
        assert!(table.at(Collective::Allreduce, None, 16, 33).is_none());
        assert!(table.at(Collective::Broadcast, None, 16, 32).is_none());
    }
}
