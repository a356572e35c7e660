//! Tests of the committed `tuning/` decision tables and the selection layer
//! against the systems they were tuned on:
//!
//! * the pinned acceptance scenario — the tuned pick reproduces the paper's
//!   ring → bine-large crossover *shift* (Sec. 5.2.2) at ≥ 64 MiB on all
//!   four systems: the synchronous model alone would pick the ring, the
//!   pipelining-aware tuned tables pick bine-large;
//! * property tests pinning that the selector's pick is never worse than
//!   the binomial baseline under the repository's cost models, and that the
//!   committed tables agree with a pruning-disabled brute-force argmin at
//!   the swept grid points (i.e. lower-bound pruning never changes a
//!   decision).

use proptest::prelude::*;

use bine_bench::runner::{tune_target, tuned_collectives, MAX_TUNED_NODES};
use bine_bench::systems::System;
use bine_sched::{
    binomial_default, irregular_algorithms, Collective, SizeDist, IRREGULAR_COLLECTIVES,
};
use bine_tune::{DecisionTable, ScoreModel, SelectorIndex, Tuner, TunerConfig};

fn committed_table(system: &System) -> DecisionTable {
    let path = bine_tune::default_tuning_dir()
        .expect("tuning dir")
        .join(format!("{}.json", bine_tune::slug(system.name)));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed table {}: {e}", path.display()));
    DecisionTable::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed tables stop at [`MAX_TUNED_NODES`] (`tune --max-nodes`);
/// queries beyond fall back by floor lookup.
fn tuned_node_counts(system: &System) -> Vec<usize> {
    system
        .node_counts
        .iter()
        .copied()
        .filter(|&n| n <= MAX_TUNED_NODES)
        .collect()
}

#[test]
fn committed_tables_cover_all_four_systems_and_collectives() {
    for system in System::all() {
        let table = committed_table(&system);
        let selector = SelectorIndex::from_table(&table);
        assert_eq!(selector.system(), system.name);
        for collective in tuned_collectives() {
            for &nodes in &tuned_node_counts(&system) {
                for &bytes in &system.vector_sizes {
                    assert!(
                        table.at(collective, None, nodes, bytes).is_some(),
                        "{}: missing grid point {collective:?}/{nodes}/{bytes}",
                        system.name
                    );
                    assert!(selector.choose(collective, nodes, bytes).is_some());
                }
            }
        }
    }
}

#[test]
fn committed_tables_cover_the_irregular_grids() {
    // Every v-variant collective carries a full dist-keyed grid on every
    // system: each (dist, nodes, bytes) point exists, its pick is a valid
    // irregular algorithm for that collective, and the selector's
    // dist-aware lookup resolves to it.
    for system in System::all() {
        let table = committed_table(&system);
        let selector = SelectorIndex::from_table(&table);
        for collective in IRREGULAR_COLLECTIVES {
            for dist in SizeDist::ALL {
                for &nodes in &tuned_node_counts(&system) {
                    for &bytes in &system.vector_sizes {
                        let entry = table
                            .at(collective, Some(dist), nodes, bytes)
                            .unwrap_or_else(|| {
                                panic!(
                                    "{}: missing irregular point {collective:?}@{}/{nodes}/{bytes}",
                                    system.name,
                                    dist.name()
                                )
                            });
                        assert!(
                            irregular_algorithms(collective)
                                .iter()
                                .any(|a| a.name() == entry.algorithm()),
                            "{}: {collective:?}@{} pick {} is not a v-variant algorithm",
                            system.name,
                            dist.name(),
                            entry.pick
                        );
                        let tuned = selector
                            .choose_irregular(collective, dist, nodes, bytes)
                            .unwrap();
                        assert_eq!(tuned.algorithm, entry.algorithm());
                        assert_eq!(tuned.segments, entry.segments());
                    }
                }
            }
        }
    }
}

#[test]
fn every_committed_pick_simulates_through_the_evaluator() {
    // The Evaluator builds through the serving layer's provider set, so
    // whatever a committed table can hold — `synth:` picks included —
    // resolves through `simulate_tuned`. Covers every regular entry at
    // ≤ 32 nodes and every `synth:` entry at any node count.
    let mut synth = 0usize;
    for system in System::tuned() {
        let mut eval = bine_bench::Evaluator::new(system.clone());
        for entry in &committed_table(&system).entries {
            let is_synth = entry.pick.starts_with("synth:");
            if entry.dist.is_some() || !(entry.nodes <= 32 || is_synth) {
                continue;
            }
            synth += usize::from(is_synth);
            let (name, makespan) = eval
                .simulate_tuned(entry.collective, entry.nodes, entry.vector_bytes)
                .unwrap_or_else(|| panic!("{}: no pick for {entry:?}", system.name));
            assert_eq!(name, entry.pick, "{}: {entry:?}", system.name);
            assert!(
                makespan.is_finite() && makespan > 0.0,
                "{}: {entry:?} simulated to {makespan}",
                system.name
            );
        }
    }
    assert_eq!(synth, 75, "committed synth: entries");
}

#[test]
fn tuned_pick_reproduces_the_ring_to_bine_large_crossover_shift() {
    // The acceptance scenario. At 64 nodes and ≥ 64 MiB the synchronous
    // barrier model says the ring allreduce wins on every paper system —
    // and indeed production libraries pick linear algorithms there. The
    // committed decision tables, whose DES stage sees pipelining, pick the
    // segmented bine-large instead: the crossover has moved, exactly the
    // Sec. 5.2.2 effect the paper measures.
    for system in System::all() {
        let target = tune_target(&system, vec![Collective::Allreduce]);
        let mut tuner = Tuner::new(target, TunerConfig::default());
        let cell = tuner.sync_cell(Collective::Allreduce, 64, 64 << 20);
        assert_eq!(
            cell.best.0.name(),
            "ring",
            "{}: expected the sync model to pick the ring at 64 MiB",
            system.name
        );

        let table = committed_table(&system);
        let entry = table.at(Collective::Allreduce, None, 64, 64 << 20).unwrap();
        assert_eq!(
            entry.algorithm(),
            "bine-large",
            "{}: tuned pick at 64 nodes/64 MiB is {} — the crossover did not shift",
            system.name,
            entry.pick
        );
        assert!(
            entry.segments() > 1,
            "{}: the shift comes from pipelining, but the pick is unsegmented",
            system.name
        );
        assert_eq!(entry.model, ScoreModel::Des);

        // At 512 MiB the tuned pick stays a pipelined (segmented)
        // algorithm on every system.
        let entry = table
            .at(Collective::Allreduce, None, 64, 512 << 20)
            .unwrap();
        assert!(
            entry.segments() > 1,
            "{}: 512 MiB pick {} is unsegmented",
            system.name,
            entry.pick
        );
    }
}

/// Deterministic per-case grid sampling shared by the property tests: a
/// flat index over (system, collective, node index, size index), decoded
/// modulo the actual grid lengths inside each test.
fn grid_point() -> impl Strategy<Value = usize> {
    0usize..(4 * 7 * 8 * 9)
}

fn decode(point: usize) -> (usize, usize, usize, usize) {
    (point % 4, (point / 4) % 7, (point / 28) % 8, point / 224)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The selector's pick is never worse than the binomial baseline under
    // the cost model that produced the table entry (the DES for refined
    // points, the synchronous model beyond the DES budget) — on any of the
    // four paper systems. Both baseline flavours are force-included in the
    // tuner's candidate set, so this holds by construction; the test pins
    // it against regressions in the candidate generation.
    #[test]
    fn selector_pick_never_worse_than_the_binomial_baseline(point in grid_point()) {
        let (si, ci, ni, vi) = decode(point);
        let system = System::all().into_iter().nth(si).unwrap();
        let collective = tuned_collectives()[ci];
        let nodes = {
            let counts = tuned_node_counts(&system);
            counts[ni % counts.len()]
        };
        let bytes = system.vector_sizes[vi % system.vector_sizes.len()];

        let table = committed_table(&system);
        let entry = table.at(collective, None, nodes, bytes).unwrap().clone();
        let mut tuner = Tuner::new(
            tune_target(&system, vec![collective]),
            TunerConfig::default(),
        );
        for flavour in [
            binomial_default(collective, true),
            binomial_default(collective, false),
        ] {
            let baseline = tuner.score(collective, flavour, nodes, bytes, entry.model);
            // +1e-6 absolute: the committed time_us is serialised with six
            // decimals, so it can sit half an ULP above the fresh score.
            prop_assert!(
                entry.time_us <= baseline * (1.0 + 1e-9) + 1e-6,
                "{}/{:?}/{}/{}: tuned {} ({:.3} us) worse than baseline {flavour} ({baseline:.3} us)",
                system.name, collective, nodes, bytes, entry.pick, entry.time_us
            );
        }
    }

    // The committed decision tables agree with a pruning-disabled
    // brute-force argmin over the tuner's full candidate set at the swept
    // grid points: the lower-bound pruning provably changes no decision,
    // and the committed files are fresh.
    //
    // Sampling covers both stage shapes — DES-refined points (≤ 64 nodes)
    // and sync-only points (> `DES_MAX_NODES`) — but skips the 128–512-node
    // DES band: an unpruned DES re-tune there simulates every catalog
    // algorithm × segment count at up to 512 nodes, minutes per point in a
    // debug build, while exercising exactly the same pruning code path as
    // the ≤ 64-node points. Those points are still regenerated from scratch
    // (pruned, release mode) by the CI drift gate on every push.
    #[test]
    fn decision_table_agrees_with_the_brute_force_argmin(point in grid_point()) {
        let (si, ci, ni, vi) = decode(point);
        let system = System::all().into_iter().nth(si).unwrap();
        let collective = tuned_collectives()[ci];
        let nodes = {
            let counts: Vec<usize> = tuned_node_counts(&system)
                .into_iter()
                .filter(|&n| n <= 64 || n > bine_tune::DES_MAX_NODES)
                .collect();
            counts[ni % counts.len()]
        };
        let bytes = system.vector_sizes[vi % system.vector_sizes.len()];

        let committed = committed_table(&system);
        let entry = committed.at(collective, None, nodes, bytes).unwrap().clone();
        let mut brute = Tuner::new(
            tune_target(&system, vec![collective]),
            TunerConfig { prune: false },
        );
        let fresh = brute.tune_point(collective, nodes, bytes);
        prop_assert_eq!(&fresh.pick, &entry.pick);
        prop_assert_eq!(fresh.model, entry.model);
        let tol = 1e-9 * entry.time_us.abs() + 1e-6;
        prop_assert!(
            (fresh.time_us - entry.time_us).abs() <= tol,
            "{}/{:?}/{}/{}: committed {:.6} vs brute-force {:.6}",
            system.name, collective, nodes, bytes, entry.time_us, fresh.time_us
        );
        // And the selector lookup at the grid point returns exactly this
        // entry.
        let selector = SelectorIndex::from_table(&committed);
        let tuned = selector.choose(collective, nodes, bytes).unwrap();
        prop_assert_eq!(tuned.algorithm, entry.algorithm());
        prop_assert_eq!(tuned.segments, entry.segments());
    }

    // The irregular grids agree with a from-scratch re-score: the
    // irregular sweep is unpruned and sync-only by design, so every
    // committed dist point is reproducible everywhere — no node band needs
    // skipping. The dist-aware selector lookup returns exactly the
    // committed entry.
    #[test]
    fn irregular_table_agrees_with_the_brute_force_argmin(
        point in 0usize..(4 * 4 * 3 * 8 * 9),
    ) {
        let si = point % 4;
        let ci = (point / 4) % 4;
        let di = (point / 16) % 3;
        let ni = (point / 48) % 8;
        let vi = point / 384;
        let system = System::all().into_iter().nth(si).unwrap();
        let collective = IRREGULAR_COLLECTIVES[ci];
        let dist = SizeDist::ALL[di];
        let nodes = {
            let counts = tuned_node_counts(&system);
            counts[ni % counts.len()]
        };
        let bytes = system.vector_sizes[vi % system.vector_sizes.len()];

        let committed = committed_table(&system);
        let entry = committed.at(collective, Some(dist), nodes, bytes).unwrap().clone();
        let mut tuner = Tuner::new(
            tune_target(&system, vec![collective]),
            TunerConfig::default(),
        );
        let fresh = tuner.tune_irregular_point(collective, dist, nodes, bytes);
        prop_assert_eq!(&fresh.pick, &entry.pick,
            "{}/{:?}@{}/{}/{}", system.name, collective, dist.name(), nodes, bytes);
        prop_assert_eq!(fresh.model, entry.model);
        let tol = 1e-9 * entry.time_us.abs() + 1e-6;
        prop_assert!(
            (fresh.time_us - entry.time_us).abs() <= tol,
            "{}/{:?}@{}/{}/{}: committed {:.6} vs brute-force {:.6}",
            system.name, collective, dist.name(), nodes, bytes, entry.time_us, fresh.time_us
        );
        let selector = SelectorIndex::from_table(&committed);
        let tuned = selector.choose_irregular(collective, dist, nodes, bytes).unwrap();
        prop_assert_eq!(tuned.algorithm, entry.algorithm());
        prop_assert_eq!(tuned.segments, entry.segments());
    }
}
