//! Behavioural pins for the adaptive serving loop: divergence flips exactly
//! the diverged grid entry (and nothing else), a cleared divergence reverts
//! the override on the next re-check, and a service *without* adaptation
//! stays bit-identical to the committed table ([`SelectorIndex`]) under
//! multithreaded load even while `observe` is being called into it.
//!
//! The re-evaluator here is fully synthetic — a two-mode scorer flipped by
//! an `AtomicBool` stands in for "the live system diverged from the model"
//! — so every assertion is deterministic and runs in microseconds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use bine_net::ObservedTiming;
use bine_sched::Collective;
use bine_tune::{
    tuned_name, AdaptPolicy, DecisionTable, Entry, Reevaluator, ScoreModel, SelectorIndex,
    ServiceSelector,
};

const MODELLED_US: f64 = 100.0;
const FAULTED_US: f64 = 400.0;
const COMMITTED: &str = "bine-large";
const CHALLENGER: &str = "ring";

/// Two allreduce grid entries (8 and 32 ranks) plus a broadcast entry, all
/// committed to `bine-large` with the same modelled score — only the entry
/// the test feeds diverged observations into may flip.
fn table() -> DecisionTable {
    let e = |collective, nodes: usize, pick: &str| Entry {
        collective,
        dist: None,
        nodes,
        vector_bytes: 1 << 20,
        pick: pick.into(),
        model: ScoreModel::Sync,
        time_us: MODELLED_US,
    };
    DecisionTable {
        system: "Adaptbox".into(),
        entries: vec![
            e(Collective::Allreduce, 8, COMMITTED),
            e(Collective::Allreduce, 32, COMMITTED),
            e(Collective::Broadcast, 8, "bine-tree"),
        ],
    }
}

fn policy() -> AdaptPolicy {
    AdaptPolicy {
        min_samples: 8,
        divergence: 1.5,
        recheck_interval: 4,
    }
}

/// A two-mode scorer: while `faulted` is set the committed pick costs
/// [`FAULTED_US`] and the challenger wins; once cleared the committed pick
/// scores at its modelled cost and wins its slot back. Anything else is
/// unscorable, so the winner is always one of the two.
fn reevaluator(faulted: Arc<AtomicBool>) -> Reevaluator {
    Reevaluator::new(
        Arc::new(|_, _, _| vec![CHALLENGER.to_string()]),
        Arc::new(move |pick, _, _, _| {
            let faulted = faulted.load(Ordering::SeqCst);
            match pick {
                COMMITTED => Some(if faulted { FAULTED_US } else { MODELLED_US }),
                CHALLENGER => Some(if faulted { 50.0 } else { 300.0 }),
                _ => None,
            }
        }),
    )
}

fn observe_n(service: &ServiceSelector, nodes: usize, time_us: f64, n: u64) {
    for _ in 0..n {
        service.observe_at(
            0,
            Collective::Allreduce,
            nodes,
            1 << 20,
            ObservedTiming::execution(time_us),
        );
    }
}

/// The compiled algorithm name the service serves for an allreduce query.
fn served(service: &ServiceSelector, nodes: usize) -> String {
    service
        .compiled_at(0, Collective::Allreduce, nodes, 1 << 20)
        .expect("compiled")
        .algorithm
        .clone()
}

#[test]
fn divergence_flips_exactly_the_diverged_grid_entry() {
    let faulted = Arc::new(AtomicBool::new(true));
    let service = ServiceSelector::from_tables(&[table()])
        .with_adaptation(policy(), reevaluator(Arc::clone(&faulted)));
    assert!(service.adaptation_enabled());
    assert_eq!(served(&service, 8), COMMITTED, "committed before feedback");

    // The sibling entry observes exactly its modelled cost — healthy.
    observe_n(&service, 32, MODELLED_US, 8);
    // The 8-rank entry observes a 4x blowup: at `min_samples` the mean
    // clears the divergence threshold and the re-evaluation promotes the
    // challenger.
    observe_n(&service, 8, FAULTED_US, 8);

    let overlay = service.overlay();
    assert_eq!(overlay.len(), 1, "exactly one entry flips: {overlay:?}");
    let entry = &overlay.entries[0];
    assert_eq!(entry.system, "Adaptbox");
    assert_eq!(entry.collective, Collective::Allreduce);
    assert_eq!(entry.nodes, 8);
    assert_eq!(entry.committed, COMMITTED);
    assert_eq!(entry.pick, CHALLENGER);
    assert_eq!(entry.epoch, 1);
    assert!(entry.samples >= 8);
    assert!(entry.observed_mean_us >= 1.5 * MODELLED_US);
    assert_eq!(entry.modelled_us, MODELLED_US);
    assert_eq!(entry.challenger_us, 50.0);

    // The warm request path serves the override; the sibling entry and the
    // committed index itself are untouched.
    assert_eq!(served(&service, 8), CHALLENGER);
    assert_eq!(served(&service, 32), COMMITTED);
    let index = SelectorIndex::from_table(&table());
    let committed = index
        .choose(Collective::Allreduce, 8, 1 << 20)
        .expect("tuned");
    assert_eq!(committed.algorithm, COMMITTED, "committed table unchanged");
    let stats = service.stats();
    assert_eq!((stats.overrides, stats.reverts, stats.reevals), (1, 0, 1));
}

#[test]
fn override_reverts_once_the_divergence_clears() {
    let faulted = Arc::new(AtomicBool::new(true));
    let service = ServiceSelector::from_tables(&[table()])
        .with_adaptation(policy(), reevaluator(Arc::clone(&faulted)));
    observe_n(&service, 8, FAULTED_US, 8);
    assert_eq!(served(&service, 8), CHALLENGER, "override installed");

    // Conditions return to what the model predicted: the periodic re-check
    // (every `recheck_interval`-th observation on an overridden entry)
    // re-scores the committed pick, which wins its slot back.
    faulted.store(false, Ordering::SeqCst);
    observe_n(&service, 8, MODELLED_US, 4);

    assert!(
        service.overlay().is_empty(),
        "override reverted: {:?}",
        service.overlay()
    );
    assert_eq!(served(&service, 8), COMMITTED);
    let stats = service.stats();
    assert_eq!((stats.overrides, stats.reverts, stats.reevals), (1, 1, 2));
}

/// Adaptation off: picks stay bit-identical to the committed table's (the
/// index's pick, compiled through its providers at root 0) under an
/// 8-thread hammering that interleaves `observe` calls (no-ops on a service
/// without a re-evaluator) with the query stream.
#[test]
fn without_adaptation_picks_stay_serial_identical_under_stress() {
    let t = table();
    let index = SelectorIndex::from_table(&t);
    let queries: Vec<(Collective, usize)> = vec![
        (Collective::Allreduce, 8),
        (Collective::Allreduce, 16),
        (Collective::Allreduce, 32),
        (Collective::Broadcast, 8),
        (Collective::Broadcast, 16),
    ];
    let expected: Vec<(String, String)> = queries
        .iter()
        .map(|&(collective, nodes)| {
            let t = index.choose(collective, nodes, 1 << 20).expect("tuned");
            let compiled = index
                .providers()
                .compile(collective, &tuned_name(t.algorithm, t.segments), nodes, 0)
                .expect("compiled")
                .algorithm;
            (t.algorithm.to_string(), compiled)
        })
        .collect();

    let service = Arc::new(ServiceSelector::from_tables(&[t]));
    assert!(!service.adaptation_enabled());
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let queries = Arc::new(queries);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..threads)
        .map(|offset| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                barrier.wait();
                for round in 0..50 {
                    let j = (round + offset) % queries.len();
                    let (collective, nodes) = queries[j];
                    let (want_pick, want_compiled) = &expected[j];
                    let got = service
                        .choose_at(0, collective, nodes, 1 << 20)
                        .expect("pick");
                    assert_eq!(got.algorithm, want_pick);
                    let compiled = service
                        .compiled_at(0, collective, nodes, 1 << 20)
                        .expect("compiled");
                    assert_eq!(&compiled.algorithm, want_compiled);
                    // Feeding wildly diverged timings must change nothing:
                    // there is no re-evaluator to act on them.
                    service.observe_at(
                        0,
                        collective,
                        nodes,
                        1 << 20,
                        ObservedTiming::execution(1e9),
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }
    assert!(service.overlay().is_empty());
    let stats = service.stats();
    assert_eq!((stats.overrides, stats.reverts, stats.reevals), (0, 0, 0));
}
