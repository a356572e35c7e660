//! The subcommands of `bine-bench`: the former one-program-per-artifact
//! binaries, each an entry function `fn(Args) -> Outcome` that fills the
//! library's `*Options`, calls its `run`/`measure` and prints the report.
//! `main.rs` holds the one table that names them.

pub mod exec;
pub mod gate;
pub mod paper;
pub mod serving;
pub mod sweep;
pub mod tune;
