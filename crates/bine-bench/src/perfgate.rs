//! The CI perf-regression gate over `BENCH_exec.json`.
//!
//! `bine-bench exec` records the ns/op of every executor as a flat JSON report;
//! the committed `BENCH_exec.json` is the perf baseline of the repository
//! and CI re-records `BENCH_exec.ci.json` on every push. This module diffs
//! the two: if any **compiled-executor** entry (name containing
//! `/compiled/` — the data plane the repo's headline speedup lives on, and
//! the kernel the serving executor runs), **discrete-event simulator**
//! entry (name containing `/sim/` — the time model the
//! 512-node tuning horizon depends on) or **serving-layer
//! throughput** entry (name containing `/serve/` — the worker-normalized
//! ns/request of the concurrent `ServiceSelector` request path, the
//! core-count-robust statistic) or **build** or **lowering** entry (name
//! containing `/build/`, `/compile/` or `/lower-` — what every cache miss of
//! the serving layer and every candidate of the tuner pays for a schedule
//! and to turn it into the compiled form, unsegmented and at `S` pipeline
//! chunks) regresses by more
//! than the threshold, the gate fails and CI goes red. Interpreter baselines
//! (`reference`, `sim-reference`, the `/serial/` one-thread
//! run of the service) and the `/serve-latency/` p99 tail are reported
//! for context but not gated — they are either deliberately slow baselines
//! or too scheduler-noisy for a hard threshold (tail latency in particular
//! depends on the runner's core count and co-scheduled load).
//!
//! The gate is exercised end to end by `tests/` below: a synthetic 2×
//! slowdown of a compiled entry must fail it, anything inside the threshold
//! must pass.

/// Relative slowdown above which the gate fails (0.25 = +25% ns/op).
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// One benchmark entry: name and ns/op.
pub type BenchEntry = (String, f64);

/// Parses the flat `BENCH_exec.json` format written by `bine-bench exec`:
/// a `"benches"` object of `"name": ns_per_op` pairs.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchEntry>, String> {
    let mut entries = Vec::new();
    let mut in_benches = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("\"benches\"") {
            in_benches = true;
            continue;
        }
        if !in_benches {
            continue;
        }
        if line.starts_with('}') {
            break;
        }
        let line = line.strip_suffix(',').unwrap_or(line);
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("line {}: expected \"name\": value", lineno + 1));
        };
        let name = name.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("line {}: bad ns/op for {name}: {e}", lineno + 1))?;
        entries.push((name, value));
    }
    if entries.is_empty() {
        return Err("no \"benches\" entries found".into());
    }
    Ok(entries)
}

/// Whether an entry is hard-gated (see the module docs). `/sim-reference/`
/// entries deliberately do not match `/sim/`: the reference simulator is a
/// baseline, not a perf surface. Likewise `/serial/` (the service driven
/// by one thread) and `/serve-latency/`
/// (scheduler-noisy p99 tail) do not match `/serve/`. `/serve/` and
/// `/adaptive/` entries whose last
/// segment is one of the service's health counters (`fallbacks`,
/// `timeouts`, `retries`, and the adaptive loop's `overrides`, `reverts`,
/// `reevals`) are also exempt: they are *observations*, not perf numbers —
/// a chaos or timing wobble that degrades a few requests, or an adaptive
/// run that re-checks its override once more, must not fail the perf gate
/// (the availability and convergence contracts are enforced by
/// `bine-bench chaos` and `bine-bench adaptive` instead).
pub fn is_gated(name: &str) -> bool {
    let health_counter = name.rsplit('/').next().is_some_and(|tail| {
        matches!(
            tail,
            "fallbacks" | "timeouts" | "retries" | "overrides" | "reverts" | "reevals"
        )
    });
    (name.contains("/compiled/")
        || name.contains("/build/")
        || name.contains("/compile/")
        || name.contains("/lower-")
        || name.contains("/sim/")
        || name.contains("/sim-cold/")
        || name.contains("/serve/")
        || name.contains("/adaptive/"))
        && !health_counter
}

/// Verdict for one benchmark entry present in the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Baseline ns/op (committed `BENCH_exec.json`), `None` for a benchmark
    /// that only exists in the current report.
    pub baseline: Option<f64>,
    /// Benchmark name.
    pub name: String,
    /// Current ns/op (`BENCH_exec.ci.json`), `None` if the entry vanished.
    pub current: Option<f64>,
    /// Whether this entry participates in the hard gate.
    pub gated: bool,
}

impl GateRow {
    /// current / baseline, i.e. > 1 means slower.
    pub fn ratio(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => Some(c / b.max(1e-9)),
            _ => None,
        }
    }

    /// Whether this row fails the gate at `threshold`.
    pub fn fails(&self, threshold: f64) -> bool {
        if !self.gated {
            return false;
        }
        match self.ratio() {
            // A gated benchmark that disappeared is a regression too: it
            // means the perf trajectory silently lost coverage. A NaN ratio
            // (corrupt recording) also fails rather than slipping through a
            // `>` comparison.
            None => true,
            Some(r) => r.is_nan() || r > 1.0 + threshold,
        }
    }
}

/// Outcome of diffing a current report against the baseline.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// One row per baseline entry, in baseline order.
    pub rows: Vec<GateRow>,
    /// The slowdown threshold the gate ran with.
    pub threshold: f64,
}

impl GateOutcome {
    /// Names of the gated entries that fail.
    pub fn failures(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.fails(self.threshold))
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Renders the diff as a GitHub-flavoured markdown table (used for the
    /// CI step summary).
    pub fn markdown(&self) -> String {
        let mut out = String::from(
            "## Perf-regression gate (compiled executors)\n\n\
             | benchmark | baseline ns/op | current ns/op | ratio | gate |\n\
             |---|---:|---:|---:|:---:|\n",
        );
        for r in &self.rows {
            let baseline = match r.baseline {
                Some(b) => format!("{b:.0}"),
                None => "new".into(),
            };
            let current = match r.current {
                Some(c) => format!("{c:.0}"),
                None => "missing".into(),
            };
            let ratio = match r.ratio() {
                Some(q) => format!("{q:.2}x"),
                None => "-".into(),
            };
            let verdict = if !r.gated {
                "–"
            } else if r.fails(self.threshold) {
                "❌"
            } else {
                "✅"
            };
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                r.name, baseline, current, ratio, verdict
            ));
        }
        let failures = self.failures();
        if failures.is_empty() {
            out.push_str(&format!(
                "\nAll gated entries within +{:.0}% of the committed baseline.\n",
                self.threshold * 100.0
            ));
        } else {
            out.push_str(&format!(
                "\n**FAIL**: {} gated entr{} regressed beyond +{:.0}%: {}\n\n\
                 If this is an intentional perf change (or baseline hardware drift, not a \
                 code change), regenerate `BENCH_exec.json` with `bine-bench exec` — or \
                 from the uploaded `BENCH_exec` artifact — and commit it.\n",
                failures.len(),
                if failures.len() == 1 { "y" } else { "ies" },
                self.threshold * 100.0,
                failures.join(", ")
            ));
        }
        out
    }
}

/// Diffs `current` against `baseline` at `threshold`.
///
/// Entries present only in `current` (benchmarks added without regenerating
/// the committed baseline) are reported as un-gated `new` rows so the
/// coverage gap is visible instead of silent.
pub fn gate(baseline: &[BenchEntry], current: &[BenchEntry], threshold: f64) -> GateOutcome {
    let mut rows: Vec<GateRow> = baseline
        .iter()
        .map(|(name, base)| GateRow {
            name: name.clone(),
            baseline: Some(*base),
            current: current.iter().find(|(n, _)| n == name).map(|&(_, ns)| ns),
            gated: is_gated(name),
        })
        .collect();
    for (name, ns) in current {
        if !baseline.iter().any(|(n, _)| n == name) {
            rows.push(GateRow {
                name: name.clone(),
                baseline: None,
                current: Some(*ns),
                gated: false,
            });
        }
    }
    GateOutcome { rows, threshold }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benches": {
    "allreduce-bine-large/reference/64": 1000000.0,
    "allreduce-bine-large/compiled/64": 1000.0,
    "allreduce-bine-large/compile/64": 500.0,
    "allreduce-bine-large/sim/64": 300000.0,
    "allreduce-bine-large/sim-reference/64": 9000000.0,
    "select-mix/serve/worker-ns-per-req": 500.0,
    "select-mix/serve-latency/p99-ns": 1500.0,
    "select-mix/serial/ns-per-req": 450.0
  },
  "unit": "ns/op (median)"
}
"#;

    fn entries() -> Vec<BenchEntry> {
        parse_bench_json(SAMPLE).unwrap()
    }

    #[test]
    fn parses_the_bench_exec_format() {
        let e = entries();
        assert_eq!(e.len(), 8);
        assert_eq!(e[1].0, "allreduce-bine-large/compiled/64");
        assert_eq!(e[1].1, 1000.0);
        assert!(parse_bench_json("{}").is_err());
    }

    #[test]
    fn only_compiled_lowering_des_and_serve_entries_are_gated() {
        assert!(is_gated("allreduce-bine-large/compiled/256"));
        assert!(is_gated("allreduce-bine-large/sim/256"));
        assert!(is_gated("allreduce-bine-large/sim-cold/256"));
        assert!(is_gated("select-mix/serve/worker-ns-per-req"));
        assert!(!is_gated("allreduce-bine-large/reference/256"));
        assert!(!is_gated("allreduce-bine-large/sim-reference/256"));
        assert!(is_gated("allreduce-bine-large-1MiB/compiled/64"));
        assert!(is_gated("reduce-scatter-swing-4MiB/compiled/64"));
        assert!(is_gated("allreduce-bine-large/build/256"));
        assert!(is_gated("allreduce-bine-large/compile/256"));
        assert!(is_gated("allreduce-bine-large/lower-seg16/256"));
        assert!(!is_gated("allreduce-synth-multilevel/synthesize/256"));
        assert!(!is_gated("select-mix/serial/ns-per-req"));
        assert!(!is_gated("select-mix/serve-latency/p99-ns"));
    }

    #[test]
    fn serve_degradation_counters_are_observations_not_perf_gates() {
        assert!(!is_gated("select-mix/serve/fallbacks"));
        assert!(!is_gated("select-mix/serve/timeouts"));
        assert!(!is_gated("select-mix/serve/retries"));
        // The throughput statistic next to them stays hard-gated.
        assert!(is_gated("select-mix/serve/worker-ns-per-req"));
    }

    #[test]
    fn adaptive_timings_are_gated_but_its_counters_are_not() {
        assert!(is_gated("select-mix/adaptive/observe-ns"));
        assert!(is_gated("select-mix/adaptive/overridden-hit-ns"));
        assert!(!is_gated("select-mix/adaptive/overrides"));
        assert!(!is_gated("select-mix/adaptive/reverts"));
        assert!(!is_gated("select-mix/adaptive/reevals"));
    }

    #[test]
    fn a_serve_throughput_slowdown_fails_but_the_p99_tail_may_drift() {
        let mut slowed = entries();
        for e in &mut slowed {
            if e.0.contains("/serve/") || e.0.contains("/serve-latency/") {
                e.1 *= 2.0;
            }
        }
        let outcome = gate(&entries(), &slowed, DEFAULT_THRESHOLD);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.failures(),
            vec!["select-mix/serve/worker-ns-per-req"]
        );
    }

    #[test]
    fn a_des_slowdown_fails_the_gate_like_an_executor_slowdown() {
        let mut slowed = entries();
        for e in &mut slowed {
            if e.0.contains("/sim/") {
                e.1 *= 2.0;
            }
        }
        let outcome = gate(&entries(), &slowed, DEFAULT_THRESHOLD);
        assert!(!outcome.passed());
        assert_eq!(outcome.failures(), vec!["allreduce-bine-large/sim/64"]);
    }

    #[test]
    fn identical_reports_pass() {
        let outcome = gate(&entries(), &entries(), DEFAULT_THRESHOLD);
        assert!(outcome.passed());
        assert!(outcome.markdown().contains("All gated entries"));
    }

    #[test]
    fn a_deliberate_2x_slowdown_fails_the_gate() {
        // The acceptance scenario: double a compiled executor's ns/op.
        let mut slowed = entries();
        for e in &mut slowed {
            if e.0.contains("/compiled/") {
                e.1 *= 2.0;
            }
        }
        let outcome = gate(&entries(), &slowed, DEFAULT_THRESHOLD);
        assert!(!outcome.passed());
        assert_eq!(outcome.failures(), vec!["allreduce-bine-large/compiled/64"]);
        assert!(outcome.markdown().contains("**FAIL**"));
    }

    #[test]
    fn ungated_entries_may_regress_freely() {
        let mut slowed = entries();
        for e in &mut slowed {
            if !is_gated(&e.0) {
                e.1 *= 10.0;
            }
        }
        assert!(gate(&entries(), &slowed, DEFAULT_THRESHOLD).passed());
    }

    #[test]
    fn slowdowns_within_the_threshold_pass() {
        let mut slowed = entries();
        for e in &mut slowed {
            e.1 *= 1.2;
        }
        assert!(gate(&entries(), &slowed, DEFAULT_THRESHOLD).passed());
        let mut slower = entries();
        for e in &mut slower {
            e.1 *= 1.26;
        }
        assert!(!gate(&entries(), &slower, DEFAULT_THRESHOLD).passed());
    }

    #[test]
    fn a_vanished_gated_entry_fails() {
        let current: Vec<BenchEntry> = entries()
            .into_iter()
            .filter(|(n, _)| !n.contains("/compiled/"))
            .collect();
        let outcome = gate(&entries(), &current, DEFAULT_THRESHOLD);
        assert!(!outcome.passed());
        assert!(outcome.markdown().contains("missing"));
    }

    #[test]
    fn a_nan_recording_fails_rather_than_passing() {
        let mut corrupt = entries();
        for e in &mut corrupt {
            if e.0.contains("/compiled/") {
                e.1 = f64::NAN;
            }
        }
        assert!(!gate(&entries(), &corrupt, DEFAULT_THRESHOLD).passed());
    }

    #[test]
    fn entries_only_in_the_current_report_are_surfaced_as_new() {
        let mut current = entries();
        current.push(("allreduce-bine-large/compiled/4096".into(), 123.0));
        let outcome = gate(&entries(), &current, DEFAULT_THRESHOLD);
        // Visible in the report, but not gated (no baseline to compare to).
        assert!(outcome.passed());
        let md = outcome.markdown();
        assert!(md.contains("allreduce-bine-large/compiled/4096"));
        assert!(md.contains("| new |"));
    }
}
