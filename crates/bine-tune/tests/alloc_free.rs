//! Pins the allocation-freedom guarantees of the hot selection paths:
//! after load, `SelectorIndex::choose` must be pure binary searches, and the
//! adaptive `ServiceSelector`'s warm pick + observe loop must stay heap-free
//! too — so a hot collective-dispatch path can consult either per call
//! without allocator pressure. Measured with a counting wrapper around the
//! system allocator (tests are their own crates, so the library's
//! `#![forbid(unsafe_code)]` still holds for `bine-tune` itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::{allocations, allocations_in};

use std::sync::Arc;

use bine_net::ObservedTiming;
use bine_sched::Collective;
use bine_tune::{
    AdaptPolicy, DecisionTable, Entry, Reevaluator, ScoreModel, SelectorIndex, ServiceSelector,
};

fn table() -> DecisionTable {
    let mut entries = Vec::new();
    for &nodes in &[4usize, 16, 64, 256] {
        for &bytes in &[32u64, 4096, 1 << 20, 64 << 20] {
            entries.push(Entry {
                collective: Collective::Allreduce,
                dist: None,
                nodes,
                vector_bytes: bytes,
                pick: if bytes >= 1 << 20 {
                    "bine-large+seg8".into()
                } else {
                    "recursive-doubling".into()
                },
                model: ScoreModel::Sync,
                time_us: 1.0,
            });
        }
    }
    DecisionTable {
        system: "Testbox".into(),
        entries,
    }
}

#[test]
fn choose_never_allocates_after_load() {
    let selector = SelectorIndex::from_table(&table());
    // Warm nothing: choose must be allocation-free from the first call.
    let before = allocations();
    let mut checksum = 0usize;
    for nodes in [1usize, 4, 10, 64, 300, 10_000] {
        for bytes in [1u64, 32, 5000, 1 << 20, 1 << 30] {
            let t = selector
                .choose(Collective::Allreduce, nodes, bytes)
                .expect("allreduce is tuned");
            checksum += t.segments + t.algorithm.len();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "SelectorIndex::choose allocated {} times over 30 lookups",
        after - before
    );
    assert!(checksum > 0);
}

/// The adaptive serving loop's steady state — a warm `compiled_at` hit (by
/// index, and by system name) followed by an `observe_at` that records into
/// the per-entry histogram without diverging — must be allocation-free: the
/// by-name lookup compares slugs in place, the histogram is a fixed
/// array, the cache hit is an `Arc` clone, and the adapt entry is found
/// (not inserted) once warm. Divergence is parked out of reach so the
/// re-evaluation path (which does allocate, off the warm path) never runs.
#[test]
fn warm_service_pick_and_observe_never_allocate() {
    let service = ServiceSelector::from_tables(&[table()]).with_adaptation(
        AdaptPolicy {
            min_samples: 1,
            divergence: 1e12,
            recheck_interval: 16,
        },
        Reevaluator::new(Arc::new(|_, _, _| Vec::new()), Arc::new(|_, _, _, _| None)),
    );
    // Warm up: the first pick compiles and caches the schedule, the first
    // observation inserts the entry's histogram. Both allocate — once.
    let compiled = service
        .compiled_at(0, Collective::Allreduce, 16, 1 << 20)
        .expect("compiled");
    service.observe_at(
        0,
        Collective::Allreduce,
        16,
        1 << 20,
        ObservedTiming::execution(1.0),
    );

    let before = allocations();
    let mut steps = 0usize;
    for _ in 0..100 {
        let t = service
            .choose_at(0, Collective::Allreduce, 16, 1 << 20)
            .expect("pick");
        steps += t.segments;
        let warm = service
            .compiled_at(0, Collective::Allreduce, 16, 1 << 20)
            .expect("warm hit");
        assert!(Arc::ptr_eq(&warm, &compiled), "same cached schedule");
        // By name or slug: the system lookup allocates nothing either.
        let t = service
            .choose("testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("pick by slug");
        steps += t.segments;
        let warm = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("warm hit by name");
        assert!(Arc::ptr_eq(&warm, &compiled), "same cached schedule");
        service.observe_at(
            0,
            Collective::Allreduce,
            16,
            1 << 20,
            ObservedTiming::execution(1.0),
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm pick + observe allocated {} times over 100 rounds",
        after - before
    );
    assert!(steps > 0);
}

/// Building a system's index is the cold half of every fresh selector: it
/// sorts references to the table's entries instead of cloning the table, and
/// its slots share one `Arc<str>` per distinct pick instead of a `String`
/// each. LUMI's committed table has 1 197 entries.
#[test]
fn building_lumis_index_allocates_per_grid_row_not_per_entry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tuning/lumi.json");
    let text = std::fs::read_to_string(path).expect("the committed LUMI table");
    let table = DecisionTable::from_json(&text).expect("a valid table");
    assert_eq!(table.entries.len(), 1_197);
    let (allocs, index) = allocations_in(|| SelectorIndex::from_table(&table));
    assert_eq!(index.system(), table.system);
    assert!(
        allocs <= 600,
        "building LUMI's index allocated {allocs} times"
    );
}
