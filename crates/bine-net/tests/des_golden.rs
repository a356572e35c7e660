//! Golden DES makespans of the `model-sweep` cells.
//!
//! `des_golden.txt` holds one line per cell: five systems × eight
//! collectives × {`bine_default`, `binomial_default`} (large-vector
//! defaults), 64 nodes under [`TUNING_PLACEMENT_SEED`], simulated at 1 MiB
//! on a fresh arena. Each line carries the `f64` bits of the makespan (the
//! pin) and the makespan in µs (for the reader).
//!
//! A simulator refactor — a renumbering of links, a new per-tier counter —
//! must leave the file untouched. After a change that is *meant* to move a
//! makespan, re-record it with
//! `cargo test -p bine-net --test des_golden -- --ignored record`
//! and commit the diff next to the regenerated `tuning/` tables.

use bine_net::view::{system_allocation, system_topology, TUNING_PLACEMENT_SEED};
use bine_net::{CostModel, SimRequest};
use bine_sched::{bine_default, binomial_default, build, Collective};

const GOLDEN: &str = include_str!("des_golden.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/des_golden.txt");

const NODES: usize = 64;
const BYTES: u64 = 1 << 20;
const SYSTEMS: [&str; 5] = ["fugaku", "heterofat", "leonardo", "lumi", "marenostrum5"];

/// One line per cell, in the order of `model-sweep`'s ops.
fn lines() -> Vec<String> {
    let model = CostModel::default();
    let mut out = Vec::new();
    for slug in SYSTEMS {
        let topo = system_topology(slug, NODES).expect("a tuned system");
        let alloc = system_allocation(slug, topo.as_ref(), NODES, TUNING_PLACEMENT_SEED);
        for collective in Collective::ALL {
            for algorithm in [
                bine_default(collective, false),
                binomial_default(collective, false),
            ] {
                let compiled = build(collective, algorithm, NODES, 0)
                    .expect("a catalog default")
                    .compile();
                let makespan = SimRequest::new(&model, &compiled, BYTES, topo.as_ref(), &alloc)
                    .time_only()
                    .run()
                    .makespan_us();
                out.push(format!(
                    "{slug}/{}/{algorithm} {:016x} {makespan}",
                    collective.name(),
                    makespan.to_bits()
                ));
            }
        }
    }
    out
}

#[test]
fn every_cell_simulates_to_the_recorded_makespan() {
    let now = lines();
    let recorded: Vec<&str> = GOLDEN.lines().collect();
    let report: String = now
        .iter()
        .enumerate()
        .filter(|&(i, line)| recorded.get(i) != Some(&line.as_str()))
        .map(|(i, line)| {
            let was = recorded.get(i).copied().unwrap_or("<no line recorded>");
            format!("recorded: {was}\n     now: {line}\n")
        })
        .collect();
    assert!(
        report.is_empty() && recorded.len() == now.len(),
        "makespans differ from {GOLDEN_PATH} ({} lines recorded, {} simulated):\n{report}",
        recorded.len(),
        now.len()
    );
}

/// Rewrites the golden file from what the simulator computes now.
#[test]
#[ignore = "re-records tests/des_golden.txt; run by name after an intended model change"]
fn record() {
    let text: String = lines().iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(GOLDEN_PATH, text).expect("writing the golden file");
}
