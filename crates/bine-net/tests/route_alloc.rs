//! The [`Topology::route`] contract, its torus oracle, and what resolving
//! routes allocates.
//!
//! * **Contract.** `route(a, b, &mut links)` leaves exactly the route in
//!   `links`, whatever the buffer held before, and nothing when `a == b`.
//! * **Oracle.** The torus walks node ids arithmetically; the definition —
//!   dimension-ordered routing on coordinate vectors, the shorter way around
//!   each ring, forward on a tie — is spelled out here on `TorusShape`
//!   alone, sharing no code with the implementation, and must agree for
//!   every ordered pair.
//! * **Allocations.** A route into a warm buffer touches the heap zero
//!   times on every topology, so the consumers that resolve one route per
//!   message — `traffic::measure`, `CostModel::estimate`, `synth_view` —
//!   allocate for their own tables, not per message. Measured with a
//!   per-thread counting wrapper around the system allocator (tests are
//!   their own crates, so `bine-net`'s `#![forbid(unsafe_code)]` still holds
//!   for the library).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::allocations_in as allocations;

use bine_core::torus::TorusShape;
use bine_net::topology::{Dragonfly, FatTree, IdealFullMesh, LinkId, NodeId, Topology, Torus};
use bine_net::view::{synth_view, system_allocation, system_topology, TUNING_PLACEMENT_SEED};
use bine_net::{traffic, CostModel};
use bine_sched::collectives::{allreduce, AllreduceAlg};

/// The definition of the torus route: walk coordinate vectors dimension by
/// dimension, one hop at a time, re-deciding the direction at every hop.
fn coordinate_walk(shape: &TorusShape, a: NodeId, b: NodeId) -> Vec<LinkId> {
    let link_id = |node: NodeId, dim: usize, direction: usize| {
        (node * shape.num_dims() + dim) * 2 + direction
    };
    let mut links = Vec::new();
    let mut cur = shape.coords(a);
    let target = shape.coords(b);
    for (d, &k) in shape.dims().iter().enumerate() {
        while cur[d] != target[d] {
            let forward = (target[d] + k - cur[d]) % k;
            let backward = (cur[d] + k - target[d]) % k;
            let node = shape.rank(&cur);
            if forward <= backward {
                links.push(link_id(node, d, 0));
                cur[d] = (cur[d] + 1) % k;
            } else {
                links.push(link_id(node, d, 1));
                cur[d] = (cur[d] + k - 1) % k;
            }
        }
    }
    links
}

#[test]
fn the_torus_route_is_the_coordinate_walk() {
    let mut links = Vec::new();
    let mut ties = 0;
    for dims in [vec![4, 4, 4], vec![2, 8], vec![3, 5, 2], vec![1, 7]] {
        let torus = Torus::new(dims.clone());
        for a in 0..torus.num_nodes() {
            for b in 0..torus.num_nodes() {
                torus.route(a, b, &mut links);
                let walked = coordinate_walk(torus.shape(), a, b);
                assert_eq!(links, walked, "{dims:?}: {a} -> {b}");
                assert_eq!(links.len(), torus.shape().hop_distance(a, b));
                // A tie: some even ring crossed exactly half way round.
                let (ca, cb) = (torus.shape().coords(a), torus.shape().coords(b));
                let halfway = |d: usize| 2 * ((cb[d] + dims[d] - ca[d]) % dims[d]) == dims[d];
                ties += usize::from((0..dims.len()).any(halfway));
            }
        }
    }
    assert!(ties > 1000, "only {ties} tied pairs exercised");
}

/// The four topologies, small enough to route every ordered pair.
fn small_topologies() -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(FatTree::new(24, 4, 2)),
        Box::new(Dragonfly::new(
            bine_net::topology::DragonflyFlavour::Dragonfly,
            4,
            6,
            2,
        )),
        Box::new(IdealFullMesh::new(12)),
        Box::new(Torus::new(vec![3, 5, 2])),
    ]
}

#[test]
fn a_dirty_buffer_comes_back_holding_exactly_the_route() {
    for topo in small_topologies() {
        let n = topo.num_nodes();
        for a in 0..n {
            for b in 0..n {
                let mut clean = Vec::new();
                topo.route(a, b, &mut clean);
                let mut dirty = vec![usize::MAX; 37];
                topo.route(a, b, &mut dirty);
                assert_eq!(dirty, clean, "{}: {a} -> {b}", topo.name());
                assert_eq!(clean.is_empty(), a == b, "{}: {a} -> {b}", topo.name());
                assert!(clean.iter().all(|&l| l < topo.num_links()));
            }
        }
    }
}

#[test]
fn a_route_into_a_warm_buffer_allocates_nothing() {
    let case = |topo: Box<dyn Topology>, pairs: &[(NodeId, NodeId)]| (topo, pairs.to_vec());
    let cases = [
        case(
            Box::new(FatTree::marenostrum5(1280)),
            &[(0, 1), (3, 900), (1279, 0)],
        ),
        case(
            Box::new(Dragonfly::lumi()),
            &[(0, 1), (5, 2000), (2975, 124)],
        ),
        case(Box::new(IdealFullMesh::new(64)), &[(0, 63), (17, 4)]),
        case(
            Box::new(Torus::new(vec![4, 4, 4])),
            &[(0, 63), (21, 42), (63, 0)],
        ),
        case(Box::new(Torus::new(vec![2, 8])), &[(0, 12), (15, 3)]),
        case(Box::new(Torus::new(vec![3, 5, 2])), &[(0, 29), (13, 7)]),
        // A far pair: half way round both rings, 64 hops.
        case(
            Box::new(Torus::new(vec![64, 64])),
            &[(0, 32 * 64 + 32), (4095, 31 * 64 + 31)],
        ),
    ];
    for (topo, pairs) in cases {
        let mut links = Vec::new();
        for &(a, b) in &pairs {
            topo.route(a, b, &mut links); // warms the buffer
        }
        for &(a, b) in &pairs {
            let (allocated, ()) = allocations(|| topo.route(a, b, &mut links));
            assert_eq!(allocated, 0, "{}: {a} -> {b}", topo.name());
            assert!(!links.is_empty());
        }
    }
}

#[test]
fn the_network_models_allocate_for_their_tables_not_per_message() {
    let model = CostModel::default();
    for slug in ["lumi", "fugaku"] {
        for p in [64usize, 512] {
            let topo = system_topology(slug, p).expect("known system");
            let alloc = system_allocation(slug, topo.as_ref(), p, TUNING_PLACEMENT_SEED);
            let sched = allreduce(p, AllreduceAlg::BineLarge);
            let messages = sched.messages().count();
            assert!(messages >= 64 * 12, "{messages} messages");

            let (measured, report) =
                allocations(|| traffic::measure(&sched, 1 << 20, topo.as_ref(), &alloc));
            assert_eq!(report.messages as usize, messages);
            assert!(
                measured <= 8,
                "{slug} p={p}: traffic::measure allocated {measured} times"
            );

            let (estimated, cost) =
                allocations(|| model.estimate(&sched, 1 << 20, topo.as_ref(), &alloc));
            assert!(cost.total_us > 0.0);
            assert!(
                estimated <= 32,
                "{slug} p={p}: CostModel::estimate allocated {estimated} times"
            );
        }
    }
}

#[test]
fn deriving_a_view_allocates_per_rank_not_per_pair() {
    for slug in ["lumi", "fugaku"] {
        for p in [64usize, 256, 512] {
            let topo = system_topology(slug, p).expect("known system");
            let alloc = system_allocation(slug, topo.as_ref(), p, TUNING_PLACEMENT_SEED);
            let (allocated, view) = allocations(|| synth_view(topo.as_ref(), &alloc));
            assert_eq!(view.expect("valid view").num_ranks(), p);
            // One route `Vec` per rank pair alone would be p(p − 1)/2.
            assert!(
                allocated <= 16 * p as u64,
                "{slug} p={p}: synth_view allocated {allocated} times"
            );
            // The group and edge tables, the route buffer's few doublings
            // and the check's union-find: a handful at any p.
            assert!(
                allocated <= 8,
                "{slug} p={p}: synth_view allocated {allocated} times"
            );
        }
    }
}
