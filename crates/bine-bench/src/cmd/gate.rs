//! `bine-bench gate <perf|tune>`: the two CI gates over committed baselines.

use std::path::Path;

use bine_bench::perfgate::{gate, parse_bench_json, BenchEntry, DEFAULT_THRESHOLD};
use bine_tune::{drift, DecisionTable};

use crate::cli::{step_summary, Args, Failure, Outcome};

fn read(path: &Path, what: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path)
        .map_err(|e| Failure::Io(format!("cannot read {what} {}: {e}", path.display())))
}

fn load_bench(path: &str) -> Result<Vec<BenchEntry>, Failure> {
    parse_bench_json(&read(Path::new(path), "bench report")?)
        .map_err(|e| Failure::Io(format!("cannot parse {path}: {e}")))
}

/// CI perf-regression gate: diffs a freshly recorded `BENCH_exec.ci.json`
/// against the committed `BENCH_exec.json` baseline and fails (exit code 1)
/// if any gated ns/op entry (see `bine_bench::perfgate`) regressed by more
/// than the threshold (default +25%).
///
/// The markdown diff table is also appended to the GitHub Actions step
/// summary, so the verdict shows up on the workflow summary page.
pub fn perf(args: Args) -> Outcome {
    let baseline_path: String = args.positional(0)?.expect("required by the synopsis");
    let current_path: String = args.positional(1)?.expect("required by the synopsis");
    // `r > 1.0 + NaN` is false: a NaN or infinite threshold would pass
    // every regression, so it is refused before anything is read.
    let threshold = match args.positional::<f64>(2)? {
        None => DEFAULT_THRESHOLD,
        Some(percent) if percent.is_finite() && percent >= 0.0 => percent / 100.0,
        Some(percent) => {
            return Err(args.usage_error(format!(
                "threshold-% must be finite and non-negative, not {percent}"
            )))
        }
    };

    let outcome = gate(
        &load_bench(&baseline_path)?,
        &load_bench(&current_path)?,
        threshold,
    );
    let markdown = outcome.markdown();
    println!("{markdown}");
    step_summary(&markdown);

    if !outcome.passed() {
        return Err(Failure::Check(format!(
            "perf gate FAILED: {:?} regressed beyond +{:.0}% vs {baseline_path}",
            outcome.failures(),
            threshold * 100.0
        )));
    }
    println!("perf gate PASSED (threshold +{:.0}%)", threshold * 100.0);
    Ok(())
}

pub(super) fn load_table(path: &Path) -> Result<DecisionTable, Failure> {
    DecisionTable::from_json(&read(path, "decision table")?)
        .map_err(|e| Failure::Io(format!("cannot parse {}: {e}", path.display())))
}

/// CI decision-table drift gate: diffs freshly tuned tables against the
/// committed `tuning/` baseline and fails (exit code 1) on any divergence —
/// a silent change of algorithm-selection policy must become an explicit,
/// reviewed table regeneration instead.
///
/// Every `*.json` in `<committed-dir>` must have an identical-decision
/// counterpart in `<regenerated-dir>`. The markdown diff is also appended
/// to the GitHub Actions step summary, exactly like `gate perf`.
pub fn tune(args: Args) -> Outcome {
    let committed_dir: String = args.positional(0)?.expect("required by the synopsis");
    let regen_dir: String = args.positional(1)?.expect("required by the synopsis");

    let mut committed: Vec<_> = std::fs::read_dir(&committed_dir)
        .map_err(|e| Failure::Io(format!("cannot list {committed_dir}: {e}")))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    committed.sort();
    if committed.is_empty() {
        return Err(Failure::Io(format!(
            "no committed decision tables under {committed_dir}"
        )));
    }

    let mut failed = false;
    for path in committed {
        let baseline = load_table(&path)?;
        let regen_path = Path::new(&regen_dir).join(path.file_name().unwrap());
        if !regen_path.exists() {
            eprintln!(
                "{}: not regenerated (missing {})",
                path.display(),
                regen_path.display()
            );
            failed = true;
            continue;
        }
        let outcome = drift(&baseline, &load_table(&regen_path)?);
        let markdown = outcome.markdown();
        println!("{markdown}");
        step_summary(&markdown);
        failed |= !outcome.passed();
    }

    if failed {
        return Err(Failure::Check(
            "decision-table drift gate FAILED: regenerate with `bine-bench tune` \
             and commit the tuning/ diff"
                .into(),
        ));
    }
    println!("decision-table drift gate PASSED");
    Ok(())
}
