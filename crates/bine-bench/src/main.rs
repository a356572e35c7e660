//! `bine-bench <subcommand>`: the one front-end of the benchmark harness.
//! This file is the dispatch table and nothing else — every row is a name,
//! a one-line help text and the function that runs it; argument parsing,
//! the exit-code contract and the panic-hook / step-summary plumbing live
//! in [`cli`], the subcommands themselves in [`cmd`].

mod cli;
mod cmd;

use std::process::ExitCode;

use bine_bench::systems::System;
use cli::{Args, Command, Outcome};
use cmd::{exec, gate, paper, serving, sweep, tune};

#[rustfmt::skip] // one row per command: name, synopsis, help, entry function
const COMMANDS: &[Command] = &[
    ("paper fig01", "", "Fig. 1 — global-link traffic of a broadcast on an 8-node 2:1 fat tree", paper::fig01),
    ("paper fig05", "", "Fig. 5 — global-traffic reduction of Bine across job allocations", paper::fig05),
    ("paper fig09", "", "Fig. 9 — LUMI: best-algorithm heatmap, Bine's improvement per collective", |_| paper::best_algorithm_figure(System::lumi())),
    ("paper fig10", "", "Fig. 10 — Leonardo: best-algorithm heatmap, Bine's improvement per collective", |_| paper::best_algorithm_figure(System::leonardo())),
    ("paper fig11", "", "Fig. 11 — Bine's improvement on MareNostrum 5 and Fugaku", paper::fig11),
    ("paper fig14", "", "Fig. 14 — best non-contiguous-data strategy for the Bine allgather on LUMI", paper::fig14),
    ("paper table3", "", "Table 3 — comparison with binomial trees on LUMI", |_| paper::comparison(System::lumi())),
    ("paper table4", "", "Table 4 — comparison with binomial trees on Leonardo", |_| paper::comparison(System::leonardo())),
    ("paper table5", "", "Table 5 — comparison with binomial trees on MareNostrum 5", |_| paper::comparison(System::marenostrum5())),
    ("paper eq2", "", "Eq. 2 — the distance ratio between Bine and binomial trees", paper::eq2),
    ("paper disc-ppn", "", "Sec. 6.1 — impact of the number of processes per node", paper::disc_ppn),
    ("paper all", "", "every `paper` artifact above, in this order", paper_all),
    ("exec", "[out.json] [--iters N]", "Records the execution-benchmark trajectory as BENCH_exec.json", exec::run),
    ("gate perf", "<baseline.json> <current.json> [threshold-%]", "CI perf-regression gate over BENCH_exec.json", gate::perf),
    ("gate tune", "<committed-dir> <regenerated-dir>", "CI decision-table drift gate over tuning/", gate::tune),
    ("tune", "[--out DIR] [--system NAME] [--max-nodes N]", "Regenerates the committed tuning/*.json decision tables", tune::run),
    ("serve", "[--threads N] [--requests N] [--repeats N] [--system NAME]", "Multithreaded benchmark of the selection serving layer", serving::serve),
    ("chaos", "[--seed N] [--threads N] [--requests N] [--fail-rate F] [--system NAME]", "Chaos smoke of the failure-aware serving stack", serving::chaos),
    ("crash", "[--seed N] [--threads N] [--requests N] [--system NAME] [--elems N]", "Crash-chaos smoke of the shrink-and-retry recovery stack", serving::crash),
    ("adaptive", "[--seed N] [--nodes N] [--bytes N] [--system NAME]", "Adaptive-serving smoke: the online feedback loop against a wrong model", serving::adaptive),
    ("sweep sim", "[nodes]", "Discrete-event sweep: message size × segment count × algorithm", sweep::sim),
    ("sweep irregular", "[nodes]", "Smoke sweep over the tuned alltoall and the v-variant grids", sweep::irregular),
    ("sweep synth", "[--max-nodes N]", "Schedule-synthesis smoke sweep: synthesize, validate, race the catalog", sweep::synth),
    ("sweep validate", "[--max-ranks N]", "Validator sweep over the whole schedule catalog", sweep::validate),
];

/// `paper all`: every other `paper` row in table order, a blank line after
/// each.
fn paper_all(args: Args) -> Outcome {
    for (name, _, _, run) in COMMANDS {
        if name.starts_with("paper ") && *name != "paper all" {
            run(args.clone())?;
            println!();
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main(COMMANDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cli::{resolve, Failure, Resolved};

    #[test]
    fn subcommand_names_are_unique_and_every_one_has_help() {
        for (i, (name, _, help, _)) in COMMANDS.iter().enumerate() {
            assert!(!help.is_empty(), "{name}: no help");
            assert!(
                COMMANDS[..i].iter().all(|(other, ..)| other != name),
                "two subcommands named {name}"
            );
        }
    }

    /// Every `bine-bench …` command line in `text`: what follows
    /// `-p bine-bench -- ` (cargo run), `/bine-bench ` (the built binary) or
    /// an opening backtick, up to the end of the line, a comment, a closing
    /// backtick or a shell operator. Backslash-newline continues a line.
    fn quoted_command_lines(text: &str) -> Vec<Vec<String>> {
        let text = text.replace("\\\n", " ");
        let mut lines = Vec::new();
        for line in text.lines() {
            for marker in ["-p bine-bench -- ", "/bine-bench ", "`bine-bench "] {
                for (at, _) in line.match_indices(marker) {
                    let rest = &line[at + marker.len()..];
                    let end = rest
                        .find(['#', '`', '|', '>', ';', '&'])
                        .unwrap_or(rest.len());
                    lines.push(rest[..end].split_whitespace().map(String::from).collect());
                }
            }
        }
        lines
    }

    #[test]
    fn every_command_line_the_docs_and_ci_quote_resolves() {
        let sources = [
            ("README.md", include_str!("../../../README.md"), 14),
            (
                "ci.yml",
                include_str!("../../../.github/workflows/ci.yml"),
                12,
            ),
        ];
        for (file, text, at_least) in sources {
            let lines = quoted_command_lines(text);
            assert!(
                lines.len() >= at_least,
                "{file}: only {} bine-bench command lines found",
                lines.len()
            );
            for tokens in lines {
                if let Err(failure) = resolve(COMMANDS, &tokens) {
                    panic!("{file}: {tokens:?} does not resolve: {failure:?}");
                }
            }
        }
    }

    #[test]
    fn gate_perf_refuses_a_threshold_every_regression_passes() {
        let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
        for threshold in ["NaN", "inf", "-5"] {
            let tokens = ["gate", "perf", baseline, baseline, threshold].map(String::from);
            let outcome = match resolve(COMMANDS, &tokens) {
                Ok(Resolved::Run(run, args)) => run(args),
                Ok(Resolved::Help(_)) => panic!("{threshold}: help"),
                Err(failure) => Err(failure),
            };
            assert!(
                matches!(outcome, Err(Failure::Usage(_))),
                "{threshold}: {outcome:?}"
            );
        }
    }

    #[test]
    fn help_and_unknown_words_never_run_anything() {
        let resolve = |line: &str| {
            let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
            resolve(COMMANDS, &tokens)
        };
        for help in [
            "--help",
            "paper -h",
            "chaos --seed 1 --help",
            "gate perf -h",
        ] {
            assert!(matches!(resolve(help), Ok(Resolved::Help(_))), "{help}");
        }
        for bad in [
            "",
            "papre",
            "paper",
            "paper fig99",
            "gate",
            "paper fig01 extra",
        ] {
            assert!(matches!(resolve(bad), Err(Failure::Usage(_))), "{bad}");
        }
    }
}
