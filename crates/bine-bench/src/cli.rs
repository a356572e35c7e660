//! The front-end plumbing every `bine-bench` subcommand shares, and the
//! only place in the crate that touches `std::env::args`,
//! `std::panic::set_hook`, the process exit code or `GITHUB_STEP_SUMMARY`.
//!
//! * [`Command`] — one row of the dispatch table in `main.rs`.
//! * [`Args`] — the typed command line of one command. The row's synopsis
//!   (`[out.json] [--iters N]`) is the single declaration of what is
//!   accepted: an unknown flag, a flag without a value, a stray positional
//!   or a value that does not parse is a [`Failure::Usage`] quoting it.
//! * [`Failure`] / [`main`] — the exit-code contract: 0 the command
//!   passed, 1 a check it exists to make failed, 2 usage or I/O error.
//! * [`quiet_panics`] — the RAII guard for runs whose expected panics
//!   (`chaos`'s injected compile failures, filtered by message) should stay
//!   off stderr.
//! * [`step_summary`] — appends markdown to the GitHub Actions step
//!   summary when there is one.

use std::io::Write as _;
use std::panic::PanicHookInfo;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why a subcommand did not pass.
#[derive(Debug, PartialEq)]
pub enum Failure {
    /// A check the subcommand exists to make failed (exit code 1).
    Check(String),
    /// The command line was not understood (exit code 2).
    Usage(String),
    /// A file could not be read, parsed or written (exit code 2).
    Io(String),
}

/// What a subcommand returns; [`main`] turns it into the exit code.
pub type Outcome = Result<(), Failure>;

/// One row of the dispatch table: the one or two words that select the
/// command, the synopsis of the arguments it accepts (`<name>` a required
/// positional, `[name]` an optional one, `[--flag VALUE]` a flag — every
/// flag takes a value), one line of help, and the entry function.
pub type Command = (
    &'static str,
    &'static str,
    &'static str,
    fn(Args) -> Outcome,
);

/// The parsed command line of one command.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `bine-bench chaos [--seed N] …`, quoted by every usage error.
    usage: String,
    /// `(flag, value)` in command-line order.
    flags: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Checks `tokens` against the synopsis at the end of `usage`
    /// (everything after the command path).
    fn parse(usage: String, synopsis: &str, tokens: &[String]) -> Result<Args, Failure> {
        let mut known = Vec::new();
        let (mut required, mut optional) = (0usize, 0usize);
        let mut words = synopsis.split_whitespace();
        while let Some(word) = words.next() {
            if let Some(flag) = word.strip_prefix('[').filter(|w| w.starts_with("--")) {
                known.push(flag);
                words.next(); // its value placeholder
            } else if word.starts_with('<') {
                required += 1;
            } else {
                optional += 1;
            }
        }

        let mut args = Args {
            usage,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            if token.starts_with('-') {
                if !known.contains(&token.as_str()) {
                    return Err(args.usage_error(format!("unknown flag {token}")));
                }
                let Some(value) = tokens.next() else {
                    return Err(args.usage_error(format!("{token} needs a value")));
                };
                args.flags.push((token.clone(), value.clone()));
            } else if args.positionals.len() == required + optional {
                return Err(args.usage_error(format!("unexpected argument {token}")));
            } else {
                args.positionals.push(token.clone());
            }
        }
        if args.positionals.len() < required {
            return Err(args.usage_error("missing argument".into()));
        }
        Ok(args)
    }

    /// A [`Failure::Usage`] that quotes this command's usage line.
    pub fn usage_error(&self, what: String) -> Failure {
        Failure::Usage(format!("{what}; usage: {}", self.usage))
    }

    fn parsed<T: FromStr>(&self, what: &str, value: &str) -> Result<T, Failure> {
        value
            .parse()
            .map_err(|_| self.usage_error(format!("{what}: cannot parse {value:?}")))
    }

    /// The value of `--name`, if given; a repeated flag keeps the last.
    pub fn flag<T: FromStr>(&self, name: &str) -> Result<Option<T>, Failure> {
        self.flags
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| self.parsed(name, value))
            .transpose()
    }

    /// The value of `--name`, or `default` when the flag is absent.
    pub fn flag_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, Failure> {
        Ok(self.flag(name)?.unwrap_or(default))
    }

    /// The `index`-th positional argument, if given.
    pub fn positional<T: FromStr>(&self, index: usize) -> Result<Option<T>, Failure> {
        self.positionals
            .get(index)
            .map(|value| self.parsed(&format!("argument {}", index + 1), value))
            .transpose()
    }
}

/// What a command line leads to.
pub enum Resolved {
    /// Run this function with these arguments.
    Run(fn(Args) -> Outcome, Args),
    /// Print this help text.
    Help(String),
}

fn wants_help(token: &String) -> bool {
    token == "--help" || token == "-h"
}

/// Finds the row whose name is the first word(s) of `tokens` and checks the
/// rest of the line against its synopsis — without running anything, so
/// tests can resolve the command lines the docs and CI quote.
pub fn resolve(table: &[Command], tokens: &[String]) -> Result<Resolved, Failure> {
    let row = table.iter().find(|(name, ..)| {
        let words = name.split(' ').count();
        tokens.len() >= words && name.split(' ').eq(tokens[..words].iter())
    });
    let Some(&(name, synopsis, help, run)) = row else {
        let mut listing = String::from("usage: bine-bench <subcommand> …\n");
        for (name, synopsis, help, _) in table {
            listing.push_str(&format!("\n  {name} {synopsis}\n      {help}"));
        }
        if tokens.iter().any(wants_help) {
            return Ok(Resolved::Help(listing));
        }
        return Err(Failure::Usage(listing));
    };
    let rest = &tokens[name.split(' ').count()..];
    let usage = format!("bine-bench {name} {synopsis}")
        .trim_end()
        .to_string();
    if rest.iter().any(wants_help) {
        return Ok(Resolved::Help(format!("{help}\n\nusage: {usage}")));
    }
    Ok(Resolved::Run(run, Args::parse(usage, synopsis, rest)?))
}

/// The process entry point: resolves the command line against `table`,
/// runs the command and maps its [`Outcome`] onto the exit-code contract.
pub fn main(table: &[Command]) -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match resolve(table, &tokens) {
        Ok(Resolved::Run(run, args)) => run(args),
        Ok(Resolved::Help(text)) => {
            println!("{text}");
            Ok(())
        }
        Err(failure) => Err(failure),
    };
    let (code, message) = match outcome {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Check(message)) => (1, message),
        Err(Failure::Usage(message) | Failure::Io(message)) => (2, message),
    };
    eprintln!("{message}");
    ExitCode::from(code)
}

/// While alive, panics for which its filter returns true print nothing; all
/// others still reach the hook that was installed before.
pub struct QuietPanics(Arc<AtomicBool>);

/// Installs a [`QuietPanics`] guard. The previous hook is restored when the
/// guard drops: the hook installed here stays in place but from then on
/// only forwards to it, which — unlike swapping hooks — is also possible
/// while the dropping thread unwinds from a panic.
pub fn quiet_panics(
    quiet: impl Fn(&PanicHookInfo<'_>) -> bool + Send + Sync + 'static,
) -> QuietPanics {
    let previous = std::panic::take_hook();
    let active = Arc::new(AtomicBool::new(true));
    let guard = QuietPanics(active.clone());
    std::panic::set_hook(Box::new(move |info| {
        if !(active.load(Ordering::SeqCst) && quiet(info)) {
            previous(info);
        }
    }));
    guard
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Appends `markdown` to the file `GITHUB_STEP_SUMMARY` names (set inside
/// GitHub Actions), so a gate's verdict shows on the workflow summary page.
pub fn step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = writeln!(f, "{markdown}");
        }
        Err(e) => eprintln!("warning: cannot append to GITHUB_STEP_SUMMARY ({path}): {e}"),
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    use super::*;

    const SYNOPSIS: &str = "<in.json> [out.json] [--seed N] [--rate F]";

    fn parse(line: &str) -> Result<Args, Failure> {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(format!("bine-bench demo {SYNOPSIS}"), SYNOPSIS, &tokens)
    }

    fn is_usage_error<T: std::fmt::Debug>(result: Result<T, Failure>, needle: &str) {
        match result {
            Err(Failure::Usage(message)) => {
                assert!(message.contains(needle), "{message}");
                assert!(message.ends_with(&format!("usage: bine-bench demo {SYNOPSIS}")));
            }
            other => panic!("expected a usage error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn bad_command_lines_are_usage_errors_not_panics() {
        is_usage_error(parse("a.json --sead 1"), "unknown flag --sead");
        is_usage_error(parse("a.json --seed"), "--seed needs a value");
        is_usage_error(parse("a.json b.json c.json"), "unexpected argument c.json");
        is_usage_error(parse("--seed 1"), "missing argument");
        let args = parse("a.json --seed x --rate 0.5").unwrap();
        is_usage_error(args.flag::<u64>("--seed"), "--seed: cannot parse \"x\"");
        assert_eq!(args.flag::<f64>("--rate"), Ok(Some(0.5)));
    }

    #[test]
    fn flags_and_positionals_come_back_typed() {
        let args = parse("a.json --seed 1 b.json --seed 2").unwrap();
        // A repeated flag keeps the last value, as the old loops did.
        assert_eq!(args.flag::<u64>("--seed"), Ok(Some(2)));
        assert_eq!(args.flag_or("--rate", 0.25), Ok(0.25));
        assert_eq!(args.positional::<String>(0), Ok(Some("a.json".into())));
        assert_eq!(args.positional::<String>(1), Ok(Some("b.json".into())));
        assert_eq!(parse("a.json").unwrap().positional::<String>(1), Ok(None));
        is_usage_error(args.positional::<u32>(0), "argument 1: cannot parse");
    }

    /// Panics carrying this marker are the ones the test hook counts; the
    /// hook is process-global and other tests may panic concurrently.
    const MARKER: &str = "quiet_panics test marker";

    fn panic_with_marker() {
        let _ = catch_unwind(|| panic!("{MARKER}"));
    }

    #[test]
    fn quiet_panics_restores_the_previous_hook_on_drop() {
        static SEEN: Mutex<usize> = Mutex::new(0);
        let seen = || *SEEN.lock().unwrap();
        let original = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            if info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s == MARKER)
            {
                *SEEN.lock().unwrap() += 1;
            }
        }));

        panic_with_marker();
        assert_eq!(seen(), 1, "the test hook sees unguarded panics");
        {
            let _quiet = quiet_panics(|_| true);
            panic_with_marker();
            assert_eq!(seen(), 1, "guarded panics are silent");
        }
        panic_with_marker();
        assert_eq!(seen(), 2, "the previous hook is back after the drop");

        // The guard dropped by an unwinding closure restores it too.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _quiet = quiet_panics(|_| true);
            panic!("{MARKER}");
        }));
        assert_eq!(seen(), 2, "the guarded panic itself was silent");
        panic_with_marker();
        assert_eq!(seen(), 3, "and the previous hook is back after it");

        // A filter silences only what it names.
        {
            let _quiet = quiet_panics(|info| {
                info.payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("expected"))
            });
            let _ = catch_unwind(|| panic!("expected probe failure"));
            panic_with_marker();
            assert_eq!(seen(), 4, "unfiltered panics still reach the previous hook");
        }
        std::panic::set_hook(original);
    }
}
