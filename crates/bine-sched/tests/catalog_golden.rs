//! Golden digest of every schedule the builders emit.
//!
//! `catalog_golden.txt` holds one line per `(collective, algorithm)`: an
//! FNV-1a-64 digest (fixed constants, not `DefaultHasher`, so it means the
//! same in every toolchain) of every field of every schedule the algorithm
//! builds over p ∈ 2..=33 ∪ {64, 128} × roots {0, 1} — header, counts, and
//! per step per message `src, dst, kind, segments, blocks` in order. A rank
//! count the builder refuses is folded in as such, so the *set* of buildable
//! counts is pinned too. The irregular builders (every `SizeDist` at
//! `(p, root)` ∈ {(7, 0), (16, 5)}) and both synthesizers (on the clustered
//! `[4, 3, 5]` view) get a line each the same way. The configurations are
//! the bare-name requests of [`bine_sched::walk`] at those rank counts and
//! roots, in the walk's order.
//!
//! A builder refactor must leave the file untouched. After a change that is
//! *meant* to move a schedule, re-record it with
//! `cargo test -p bine-sched --test catalog_golden -- --ignored record`
//! and commit the diff next to the regenerated `tuning/` tables.

use std::fmt::Write as _;

use bine_sched::catalog::Source;
use bine_sched::collectives::allgather::allgather_with_strategy;
use bine_sched::{walk, BlockId, NonContigStrategy, Request, Schedule, TransferKind};

const GOLDEN: &str = include_str!("catalog_golden.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/catalog_golden.txt");

/// FNV-1a, 64 bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        self.bytes(text.as_bytes());
    }
}

/// Digest of everything a [`Schedule`] holds; every list is prefixed by its
/// length so no two schedules share a byte stream.
fn digest(sched: &Schedule) -> u64 {
    let mut h = Fnv::new();
    h.word(sched.num_ranks as u64);
    h.text(sched.collective.name());
    h.text(&sched.algorithm);
    h.word(sched.root as u64);
    match &sched.counts {
        None => h.word(0),
        Some(counts) => {
            h.word(1 + counts.num_ranks() as u64);
            counts.per_rank().iter().for_each(|&c| h.word(c));
        }
    }
    h.word(sched.steps.len() as u64);
    for step in &sched.steps {
        h.word(step.len() as u64);
        for m in step.messages() {
            h.word(m.src as u64);
            h.word(m.dst as u64);
            h.word(match m.kind {
                TransferKind::Copy => 0,
                TransferKind::Reduce => 1,
            });
            h.word(u64::from(m.segments));
            h.word(m.blocks.len() as u64);
            for block in m.blocks {
                match *block {
                    BlockId::Full => h.word(0),
                    BlockId::Segment(i) => {
                        h.word(1);
                        h.word(u64::from(i));
                    }
                    BlockId::Pairwise { origin, dest } => {
                        h.word(2);
                        h.word(u64::from(origin));
                        h.word(u64::from(dest));
                    }
                }
            }
        }
    }
    h.0
}

/// One golden line: its name, and per configuration a label and the digest
/// of what was built there (`None` when the builder refused).
struct Line {
    name: String,
    cells: Vec<(String, Option<u64>)>,
}

impl Line {
    fn cell(&mut self, label: String, built: Option<Schedule>) {
        self.cells.push((label, built.as_ref().map(digest)));
    }

    fn folded(&self) -> u64 {
        let mut h = Fnv::new();
        for (label, cell) in &self.cells {
            h.text(label);
            match cell {
                None => h.word(0),
                Some(d) => {
                    h.word(1);
                    h.word(*d);
                }
            }
        }
        h.0
    }

    fn render(&self) -> String {
        let built = self.cells.iter().filter(|(_, c)| c.is_some()).count();
        format!("{} {:016x} built={built}\n", self.name, self.folded())
    }

    fn per_cell(&self) -> String {
        let mut out = String::new();
        for (label, cell) in &self.cells {
            match cell {
                None => writeln!(out, "    {label}: refused"),
                Some(d) => writeln!(out, "    {label}: {d:016x}"),
            }
            .expect("writing to a String");
        }
        out
    }
}

/// The line a bare-name request of the walk is recorded on and its cell's
/// label there — `None` for the configurations the file does not hold.
fn recorded_as(request: &Request) -> Option<(String, String)> {
    let Request { name, p, root, .. } = request;
    let collective = request.collective.name();
    if request.segments != 1 {
        return None;
    }
    match request.source {
        Source::Regular(_) if *root <= 1 => {
            Some((format!("{collective}/{name}"), format!("p={p} root={root}")))
        }
        Source::Irregular(_, dist) if [(7, 0), (16, 5)].contains(&(*p, *root)) => Some((
            format!("{collective}v/{name}"),
            format!("{} p={p} root={root}", dist.name()),
        )),
        Source::Synth([4, 3, 5]) if *root <= 1 => {
            Some((format!("{collective}/{name}"), format!("root={root}")))
        }
        _ => None,
    }
}

fn catalog_lines() -> Vec<Line> {
    let rank_counts: Vec<usize> = (2..=33).chain([64, 128]).collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut regular_lines = 0;
    for request in walk(&rank_counts) {
        let Some((name, label)) = recorded_as(&request) else {
            continue;
        };
        // A line's requests are consecutive in the walk.
        if lines.last().is_none_or(|line| line.name != name) {
            let cells = Vec::new();
            lines.push(Line { name, cells });
        }
        let line = lines.last_mut().expect("pushed above");
        line.cell(label, request.build());
        if matches!(request.source, Source::Regular(_)) {
            regular_lines = lines.len();
        }
    }
    // Fig. 14's allgather strategies are built by function, not by name; the
    // file holds them between the regular lines and the v-variants.
    let strategy_line = |strategy: NonContigStrategy| {
        let name = format!("allgather-strategy/{}", strategy.name());
        let cells = Vec::new();
        let mut line = Line { name, cells };
        for &p in &rank_counts {
            line.cell(format!("p={p}"), allgather_with_strategy(p, strategy));
        }
        line
    };
    let strategies = NonContigStrategy::ALL.map(strategy_line);
    lines.splice(regular_lines..regular_lines, strategies);
    lines
}

#[test]
fn every_builder_emits_the_recorded_schedules() {
    let lines = catalog_lines();
    let synthesizers = lines.iter().filter(|l| l.name.contains("/synth:")).count();
    assert!(
        synthesizers >= 2,
        "only {synthesizers} synthesized lines enumerated"
    );
    let mut recorded = GOLDEN.lines();
    let mut report = String::new();
    for line in &lines {
        let now = line.render();
        let was = recorded.next().unwrap_or("<no line recorded>");
        if was != now.trim_end() {
            write!(
                report,
                "recorded: {was}\n     now: {now}{}",
                line.per_cell()
            )
            .expect("writing to a String");
        }
    }
    let extra = recorded.count();
    assert!(
        report.is_empty() && extra == 0,
        "schedules differ from {GOLDEN_PATH} ({extra} recorded lines not enumerated):\n{report}"
    );
}

/// Rewrites the golden file from what the builders emit now.
#[test]
#[ignore = "re-records tests/catalog_golden.txt; run by name after an intended schedule change"]
fn record() {
    let text: String = catalog_lines().iter().map(Line::render).collect();
    std::fs::write(GOLDEN_PATH, text).expect("writing the golden file");
}
