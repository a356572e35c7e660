//! Definition-level oracle for [`DepGraph`], and the pin on what deriving
//! one allocates.
//!
//! The oracle recomputes the three edge kinds quadratically, straight from
//! their prose definition and sharing no code with `DepGraph::derive`:
//!
//! * a send waits for the **latest earlier-step write** into each block it
//!   carries, at its sender;
//! * a write waits for the **previous write** into each of its blocks at its
//!   destination, earlier sends of the same step included;
//! * a rank's sends issue in **`(step, order)` order**.
//!
//! "Latest" and "previous" are by global send index. Edge sets, in-degrees
//! and rank queues must agree over the whole walk of the catalog — regular
//! and v-variant names, both synthesizers, bare and segmented — and every
//! edge must point forward.
//!
//! The allocation count is measured with a per-thread counting wrapper
//! around the system allocator (tests are their own crates, so
//! `bine-sched`'s `#![forbid(unsafe_code)]` still holds for the library).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::allocations_in as allocations;

use std::collections::BTreeSet;

use bine_sched::catalog::Source;
use bine_sched::collectives::{allreduce, AllreduceAlg};
use bine_sched::{
    walk, BlockId, Collective, CompiledSchedule, DepGraph, Schedule, Step, TransferKind,
};

/// One send as the definition sees it.
struct Send {
    step: usize,
    order: u32,
    src: u32,
    dst: u32,
    blocks: Vec<u32>,
}

fn sends_of(c: &CompiledSchedule) -> Vec<Send> {
    let mut sends = Vec::new();
    for step in 0..c.num_steps() {
        for i in c.step_send_range(step) {
            assert_eq!(i, sends.len(), "sends are numbered step by step");
            let s = c.send(i);
            sends.push(Send {
                step,
                order: s.order,
                src: s.src,
                dst: s.dst,
                blocks: c.block_index_slice(s).to_vec(),
            });
        }
    }
    sends
}

/// The writers send `i` waits on: per block it carries, the last send below
/// `i` that `counts` as earlier and writes that block at `rank`.
fn latest_writers(
    sends: &[Send],
    i: usize,
    rank: u32,
    counts: impl Fn(&Send) -> bool,
) -> BTreeSet<u32> {
    let mut writers = BTreeSet::new();
    for block in &sends[i].blocks {
        let writes_it = |w: &Send| w.dst == rank && w.blocks.contains(block) && counts(w);
        if let Some(w) = sends[..i].iter().rposition(writes_it) {
            writers.insert(w as u32);
        }
    }
    writers
}

/// Checks `DepGraph::derive(c)` against the definition.
fn assert_graph_matches_the_definition(c: &CompiledSchedule, what: &str) {
    let graph = DepGraph::derive(c);
    let sends = sends_of(c);
    assert_eq!(graph.num_sends(), sends.len(), "{what}");
    assert_eq!(graph.num_ranks(), c.num_ranks, "{what}");

    // Predecessor sets by definition, and the derived graph's dependents
    // inverted into predecessor sets.
    let mut read_preds = vec![BTreeSet::new(); sends.len()];
    let mut write_preds = vec![BTreeSet::new(); sends.len()];
    for (w, _) in sends.iter().enumerate() {
        for (derived, dependents) in [
            (&mut read_preds, graph.read_dependents(w as u32)),
            (&mut write_preds, graph.write_dependents(w as u32)),
        ] {
            for &d in dependents {
                assert!(d as usize > w, "{what}: edge {w} -> {d} points backwards");
                assert!(
                    derived[d as usize].insert(w as u32),
                    "{what}: edge {w} -> {d} twice"
                );
            }
        }
    }
    for (i, send) in sends.iter().enumerate() {
        let reads = latest_writers(&sends, i, send.src, |w| w.step < send.step);
        let writes = latest_writers(&sends, i, send.dst, |_| true);
        assert_eq!(read_preds[i], reads, "{what}: reads of send {i}");
        assert_eq!(write_preds[i], writes, "{what}: writes of send {i}");
        assert_eq!(
            graph.read_indegrees()[i] as usize,
            reads.len(),
            "{what}: {i}"
        );
        assert_eq!(
            graph.write_indegrees()[i] as usize,
            writes.len(),
            "{what}: {i}"
        );
    }

    for rank in 0..c.num_ranks {
        let mut queue: Vec<u32> = (0..sends.len() as u32)
            .filter(|&i| sends[i as usize].src as usize == rank)
            .collect();
        queue.sort_by_key(|&i| (sends[i as usize].step, sends[i as usize].order));
        assert_eq!(
            graph.rank_sends(rank),
            queue,
            "{what}: queue of rank {rank}"
        );
        assert!(queue.windows(2).all(|pair| pair[0] < pair[1]), "{what}");
    }
}

/// Checks every request of the walk over `ranks` that `keep` keeps, at the
/// first root and an interior one; returns how many schedules that was.
fn check_the_walk(ranks: &[usize], keep: impl Fn(&Source) -> bool) -> usize {
    let mut checked = 0;
    for request in walk(ranks) {
        if !keep(&request.source) || ![0, request.p / 3].contains(&request.root) {
            continue;
        }
        if let Some(sched) = request.build() {
            assert_graph_matches_the_definition(&sched.compile(), &request.label());
            checked += 1;
        }
    }
    checked
}

#[test]
fn the_graph_is_its_definition_over_the_catalog() {
    let checked = check_the_walk(&[1, 2, 4, 8, 16, 32], |s| matches!(s, Source::Regular(_)));
    assert!(checked > 1000, "only {checked} catalog schedules checked");
}

#[test]
fn the_graph_is_its_definition_for_irregular_and_synthesized_schedules() {
    // `SizeDist::ALL` includes the one-heavy layout: every rank but one has
    // a zero count.
    let irregular = check_the_walk(&[7, 16], |s| matches!(s, Source::Irregular(..)));
    assert_eq!(irregular, (4 + 10) * 3 * 2 * 3, "irregular schedules");
    let synthesized = check_the_walk(&[], |s| matches!(s, Source::Synth(_)));
    assert!(synthesized >= 4 * 3 * 3, "only {synthesized} synthesized");
}

#[test]
fn same_step_writes_chain_in_send_order_not_schedule_order() {
    // No catalog schedule writes one block twice at one rank in one step;
    // this one does, with the messages listed against the send order (sends
    // are numbered by source rank within a step).
    let reduces = |pairs: &[(usize, usize)]| {
        let mut step = Step::new();
        for &(src, dst) in pairs {
            step.push(src, dst, [BlockId::Segment(0)], TransferKind::Reduce);
        }
        step
    };
    let mut sched = Schedule::new(4, Collective::Reduce, "fan-in", 3);
    sched.steps.push(reduces(&[(2, 3), (0, 3), (1, 3)]));
    sched.steps.push(reduces(&[(3, 0)]));
    let compiled = sched.compile();
    assert_graph_matches_the_definition(&compiled, "fan-in");
    let graph = DepGraph::derive(&compiled);
    assert_eq!(graph.write_dependents(0), [1]);
    assert_eq!(graph.write_dependents(1), [2]);
    assert_eq!(graph.read_dependents(2), [3]);
}

#[test]
fn deriving_allocates_for_the_graph_not_per_send() {
    let sched = allreduce(256, AllreduceAlg::BineLarge);
    let (at_4, at_16) = (sched.compile_segmented(4), sched.compile_segmented(16));
    assert_eq!(at_16.num_sends(), 40_448);
    let (allocated_at_4, _) = allocations(|| DepGraph::derive(&at_4));
    let (allocated_at_16, graph) = allocations(|| DepGraph::derive(&at_16));
    assert_eq!(graph.num_sends(), 40_448);
    // A dependents list per send alone would be 80 896 of them. The graph
    // keeps eight arrays; both walks share one scratch set of four.
    assert!(
        allocated_at_16 <= 12,
        "deriving at 16 chunks allocated {allocated_at_16} times"
    );
    assert!(
        allocated_at_16 <= allocated_at_4,
        "{allocated_at_4} allocations at 4 chunks grew to {allocated_at_16} at 16"
    );
}
