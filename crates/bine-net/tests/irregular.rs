//! Network-layer pins for the irregular (v-variant) collectives.
//!
//! The v-variants reuse count-oblivious routing with counts-weighted
//! sizing, so three things must hold on this layer: equal counts reproduce
//! the regular byte accounting *exactly* (same `TrafficReport`, field for
//! field), skewed counts flow through the synchronous model and both DES
//! implementations without disagreement, and the degenerate one-heavy
//! distribution collapses traffic the way the Träff tree promises —
//! heaviest ranks adjacent to the root, so the bulk crosses one edge.

use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::sim::{SimArena, SimRequest};
use bine_net::topology::{Dragonfly, FatTree, IdealFullMesh, Topology};
use bine_net::traffic;

#[path = "../../../tests/support/walk.rs"]
mod walk;

use bine_sched::catalog::Source;
use bine_sched::{build, build_irregular, walk, Collective, Counts, Request, SizeDist};
use proptest::prelude::*;
use walk::Walk;

/// An index into the walk (see [`WALK`]).
fn any_draw() -> impl Strategy<Value = usize> {
    0usize..1 << 30
}

/// The walk of the catalog over p ∈ {4, 8, 16, 32}, kept to the bare
/// v-variant names (every `SizeDist`, heavy rank at the root) at the roots
/// that name a rank. A property draws a request that its own filter keeps,
/// with its schedule, and adds its own segmentation on top.
static WALK: Walk = Walk::new(&[4, 8, 16, 32], |r| {
    matches!(r.source, Source::Irregular(..)) && r.segments == 1 && r.must_build() == Some(true)
});

fn any_vector_bytes() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![32u64, 1000, 65536, 1 << 20, (8 << 20) + 17])
}

/// Irregular algorithms whose DES time coincides with the synchronous
/// barrier model at *uniform* counts in the congestion-free single-segment
/// limit. The exclusions mirror the regular catalog's: the `bine`
/// gather/scatter trees and the greedy Träff round scheduler leave ranks
/// idle for intermediate steps, so the per-step maximum the synchronous
/// model charges is not always on the dependency-driven critical path and
/// the DES runs ahead. (At skewed counts nothing coincides: heterogeneous
/// message sizes within a step let light ranks run ahead of the barrier.)
fn equals_sync_at_uniform_counts(collective: Collective, name: &str) -> bool {
    match name {
        "traff" => false,
        "bine" => !matches!(collective, Collective::Gather | Collective::Scatter),
        _ => true,
    }
}

#[test]
fn equal_counts_reproduce_the_regular_traffic_report_exactly() {
    // The equal-counts case is the regular collective: every field of the
    // traffic report — bytes, messages, per-link maxima — must be
    // *identical* to the count-free schedule, for every shared routing, on
    // a flat and a hierarchical topology. Any constant count must do; 7
    // stresses the proportional sizing more than 1 would.
    let n = (1u64 << 20) + 13; // a non-divisible size exercises the ceil
    let mut compared = 0;
    for request in walk(&[16]) {
        // One distribution stands for the v-variant name; `traff`'s
        // count-aware tree has no regular counterpart.
        let Source::Irregular(row, SizeDist::Uniform) = request.source else {
            continue;
        };
        let interior = request.root == request.p / 3;
        let (Some(regular_name), 1, true) = (row.name(), request.segments, interior) else {
            continue;
        };
        let Request {
            collective,
            p,
            root,
            ..
        } = request;
        let regular = build(collective, regular_name, p, root).expect(regular_name);
        let counts = Counts::new(vec![7; p]);
        let v = build_irregular(collective, &request.name, p, root, &counts)
            .unwrap_or_else(|| panic!("{} did not build", request.label()));
        let topos: [Box<dyn Topology>; 2] =
            [Box::new(FatTree::new(p, 4, 1)), Box::new(Dragonfly::lumi())];
        for topo in &topos {
            let a = traffic::measure(&regular, n, topo.as_ref(), &Allocation::block(p));
            let b = traffic::measure(&v, n, topo.as_ref(), &Allocation::block(p));
            assert_eq!(
                a,
                b,
                "{} vs regular {regular_name} on {}",
                request.label(),
                topo.name()
            );
        }
        compared += 1;
    }
    assert_eq!(compared, 8, "v-variants that borrow a regular routing");
}

#[test]
fn one_heavy_traff_tree_collapses_traffic_onto_one_edge() {
    let p = 16;
    let n = 1u64 << 20;
    let topo = IdealFullMesh::new(p);
    let alloc = Allocation::block(p);
    // Heavy rank at the root: the root already holds everything, so every
    // transfer carries a zero-count segment and no bytes move at all.
    let root = 4;
    let sched = build_irregular(
        Collective::Gather,
        "traff",
        p,
        root,
        &SizeDist::OneHeavy.counts(p, root),
    )
    .unwrap();
    let report = traffic::measure(&sched, n, &topo, &alloc);
    assert_eq!(report.total_bytes, 0, "root-heavy gatherv moved bytes");
    // Heavy rank elsewhere: the Träff tree places the heaviest rank
    // adjacent to the root, so the whole vector crosses exactly one edge —
    // total traffic is n, and no single link carries more than n.
    let heavy = 11;
    let sched = build_irregular(
        Collective::Gather,
        "traff",
        p,
        root,
        &SizeDist::OneHeavy.counts(p, heavy),
    )
    .unwrap();
    let report = traffic::measure(&sched, n, &topo, &alloc);
    assert_eq!(report.total_bytes, n, "off-root heavy rank should hop once");
    assert_eq!(report.max_link_bytes, n);
    // The mirror scatterv collapses identically.
    let sched = build_irregular(
        Collective::Scatter,
        "traff",
        p,
        root,
        &SizeDist::OneHeavy.counts(p, heavy),
    )
    .unwrap();
    let report = traffic::measure(&sched, n, &topo, &alloc);
    assert_eq!(report.total_bytes, n, "scatterv is gatherv reversed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The optimized simulator stays bit-identical to the from-scratch
    // reference on irregular schedules too: counts-weighted per-send bytes,
    // zero-byte sends from zero-count segments and all. Same makespan bits,
    // same per-rank finish bits, same message and peak-flow counts, on a
    // flat and a congested topology.
    #[test]
    fn irregular_optimized_des_is_bit_identical_to_the_reference(
        draw in any_draw(),
        chunks in 1usize..=4,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |_| true);
        let (p, what) = (request.p, request.label());
        let compiled = sched.segmented(chunks).compile();
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        let mut arena = SimArena::new();
        for topo in [
            Box::new(IdealFullMesh::new(p)) as Box<dyn Topology>,
            Box::new(FatTree::new(p, 4, 1)),
        ] {
            let reference = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .reference()
                .run()
                .into_report();
            let fast = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .run()
                .into_report();
            prop_assert_eq!(
                reference.makespan_us.to_bits(), fast.makespan_us.to_bits(),
                "{} n={} chunks={} on {}: reference {} vs fast {}",
                what, n, chunks, topo.name(), reference.makespan_us, fast.makespan_us
            );
            prop_assert_eq!(reference.network_messages, fast.network_messages);
            prop_assert_eq!(reference.peak_active_flows, fast.peak_active_flows);
            for (r, (a, b)) in reference.rank_finish_us.iter().zip(&fast.rank_finish_us).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} rank {} finish: reference {} vs fast {}", what, r, a, b
                );
            }
        }
    }

    // On an ideal network the DES only removes barrier waiting — for any
    // irregular algorithm, any size distribution, any segmentation.
    #[test]
    fn irregular_des_never_exceeds_sync_on_an_ideal_network(
        draw in any_draw(),
        chunks in 1usize..=4,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |_| true);
        let (p, what) = (request.p, request.label());
        let sched = sched.segmented(chunks);
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let sync = model.time_us(&sched, n, &topo, &alloc);
        let des = SimRequest::new(&model, &sched.compile(), n, &topo, &alloc)
            .time_only()
            .run()
            .makespan_us();
        prop_assert!(
            des <= sync * (1.0 + 1e-9),
            "{what} n={n} chunks={chunks}: DES {des} > sync {sync}"
        );
    }

    // At uniform counts the barrier-synchronous algorithms coincide with
    // the DES to 1e-9 relative error in the congestion-free single-segment
    // limit — the irregular twin of the regular acceptance property.
    #[test]
    fn uniform_counts_des_equals_sync_in_the_congestion_free_limit(
        draw in any_draw(),
        n in any_vector_bytes(),
    ) {
        let uniform = |r: &Request| matches!(r.source, Source::Irregular(_, SizeDist::Uniform));
        let (request, sched) = WALK.built(draw, |r| {
            uniform(r) && equals_sync_at_uniform_counts(r.collective, &r.name)
        });
        let (p, what) = (request.p, request.label());
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let sync = model.time_us(&sched, n, &topo, &alloc);
        let des = SimRequest::new(&model, &sched.compile(), n, &topo, &alloc)
            .time_only()
            .run()
            .makespan_us();
        prop_assert!(
            (des - sync).abs() <= 1e-9 * sync.max(1e-12),
            "{what} n={n}: DES {des} vs sync {sync}"
        );
    }

    // Segmentation moves the same counts-weighted bytes over the same
    // links — including zero-count segments, whose chunks are all empty.
    #[test]
    fn irregular_traffic_is_invariant_under_segmentation(
        draw in any_draw(),
        chunks in 2usize..=8,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |r| r.p == 32);
        let (p, what) = (request.p, request.label());
        let seg = sched.segmented(chunks);
        let topo = FatTree::new(p, 4, 1);
        let alloc = Allocation::block(p);
        let base = traffic::measure(&sched, n, &topo, &alloc);
        let piped = traffic::measure(&seg, n, &topo, &alloc);
        prop_assert_eq!(base.total_bytes, piped.total_bytes, "{}", what);
        prop_assert_eq!(base.global_bytes, piped.global_bytes, "{}", what);
        prop_assert_eq!(base.local_link_bytes, piped.local_link_bytes, "{}", what);
        prop_assert_eq!(base.global_link_bytes, piped.global_link_bytes, "{}", what);
        prop_assert_eq!(base.max_link_bytes, piped.max_link_bytes, "{}", what);
        prop_assert!(piped.messages >= base.messages, "{}", what);
    }
}
