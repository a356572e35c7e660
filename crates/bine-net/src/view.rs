//! Deriving the synthesis-facing [`TopologyView`] from a physical
//! topology and a rank placement, plus the per-system factory that lets
//! the offline tuner and the serving layer derive *identical* views — a
//! tuned `synth:` pick must rebuild the same schedule at serve time.

use bine_sched::{TopoEdge, TopologyView};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::allocation::Allocation;
use crate::topology::{Dragonfly, FatTree, Topology, Torus};
use crate::trace::JobTraceGenerator;

/// The pinned placement seed shared by every committed decision table,
/// the benchmark figures and the serving layer's view derivation.
pub const TUNING_PLACEMENT_SEED: u64 = 42;

/// Derives the rank-level capacity/tier view of `(topo, alloc)`: one
/// undirected edge per rank pair carrying the bottleneck bandwidth and
/// total latency of the minimal route between their nodes, tier 1 when
/// the route crosses a group boundary; rank groups follow node groups.
///
/// Co-located ranks (same node) get a memory-speed edge: faster than any
/// network link, zero latency, tier 0.
///
/// The edges come out in strictly ascending `(a, b)` order, so
/// [`TopologyView::new`] checks them in one pass with no set of pairs; its
/// check holds O(p) beside the p(p − 1)/2 edges, and a derivation
/// allocates a fixed handful of times at any p (the group and edge tables,
/// one route buffer, the check's union-find).
pub fn synth_view(topo: &dyn Topology, alloc: &Allocation) -> Result<TopologyView, String> {
    let p = alloc.num_ranks();
    if p == 0 {
        return Err("empty allocation".into());
    }
    let group_of: Vec<usize> = (0..p).map(|r| topo.group_of(alloc.node_of(r))).collect();
    let memory_bw = topo.max_link_bandwidth_gib_s().max(1.0) * 8.0;
    let mut edges = Vec::with_capacity(p * (p - 1) / 2);
    let mut route = Vec::new();
    for a in 0..p {
        for b in a + 1..p {
            let (na, nb) = (alloc.node_of(a), alloc.node_of(b));
            let (bandwidth_gib_s, latency_us, tier) = if na == nb {
                (memory_bw, 0.0, 0)
            } else {
                topo.route(na, nb, &mut route);
                let bw = route
                    .iter()
                    .map(|&l| topo.link(l).bandwidth_gib_s)
                    .fold(f64::INFINITY, f64::min);
                let lat: f64 = route.iter().map(|&l| topo.link(l).latency_us).sum();
                let tier = usize::from(topo.crosses_groups(na, nb));
                (bw, lat, tier)
            };
            edges.push(TopoEdge {
                a,
                b,
                bandwidth_gib_s,
                latency_us,
                tier,
            });
        }
    }
    TopologyView::new(group_of, edges)
}

/// The torus shape used for a Fugaku job of `nodes` nodes (the paper's
/// published shapes, with a balanced power-of-two factorisation fallback).
pub fn fugaku_dims(nodes: usize) -> Vec<usize> {
    match nodes {
        8 => vec![2, 2, 2],
        64 => vec![4, 4, 4],
        512 => vec![8, 8, 8],
        4096 => vec![64, 64],
        8192 => vec![32, 256],
        _ => {
            let mut dims = vec![1usize; 3];
            let mut rest = nodes;
            let mut d = 0;
            while rest > 1 {
                dims[d % 3] *= 2;
                rest /= 2;
                d += 1;
            }
            dims
        }
    }
}

/// Builds the topology model hosting a job of `nodes` nodes on the system
/// with the given slug (`lumi`, `leonardo`, `marenostrum5`, `fugaku`,
/// `heterofat`). `None` for unknown slugs.
///
/// For the group-based systems the topology is the full machine (the job
/// occupies a sampled subset of its nodes); for the torus the job gets its
/// own sub-torus, as on the real machine.
pub fn system_topology(slug: &str, nodes: usize) -> Option<Box<dyn Topology + Send + Sync>> {
    Some(match slug {
        "lumi" => Box::new(Dragonfly::lumi()),
        "leonardo" => Box::new(Dragonfly::leonardo()),
        "marenostrum5" => Box::new(FatTree::marenostrum5(1280.max(nodes.next_multiple_of(160)))),
        "fugaku" => Box::new(Torus::new(fugaku_dims(nodes))),
        "heterofat" => Box::new(FatTree::hetero_island(64.max(nodes.next_multiple_of(16)))),
        _ => return None,
    })
}

/// The pinned rank→node placement for a job of `nodes` nodes: Fugaku jobs
/// get the whole sub-torus (block allocation); every other system samples
/// a fragmented placement from the job-trace generator at 90% machine
/// occupancy, seeded so the same `(slug, nodes, seed)` always places
/// identically.
pub fn system_allocation(slug: &str, topo: &dyn Topology, nodes: usize, seed: u64) -> Allocation {
    if slug == "fugaku" {
        return Allocation::block(nodes);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ nodes as u64);
    let generator = JobTraceGenerator::with_occupancy(0.9);
    let sample = &generator.sample(topo, nodes, 1, &mut rng)[0];
    sample.allocation()
}

/// The topology view the synthesizers consume for a `nodes`-rank job on a
/// system, under the pinned tuning placement. This is the serving-side
/// twin of the tuner's per-grid-column view: both sides derive from
/// [`system_topology`] + [`system_allocation`] with
/// [`TUNING_PLACEMENT_SEED`], so a `synth:` pick recorded in a committed
/// table resolves to the identical schedule wherever it is rebuilt.
pub fn system_view(slug: &str, nodes: usize) -> Option<TopologyView> {
    if nodes < 2 {
        return None;
    }
    let topo = system_topology(slug, nodes)?;
    if topo.num_nodes() < nodes {
        return None;
    }
    let alloc = system_allocation(slug, topo.as_ref(), nodes, TUNING_PLACEMENT_SEED);
    synth_view(topo.as_ref(), &alloc).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_view_matches_the_fabric() {
        let topo = FatTree::figure1();
        let alloc = Allocation::block(8);
        let view = synth_view(&topo, &alloc).unwrap();
        assert_eq!(view.num_ranks(), 8);
        assert_eq!(view.num_groups(), 4);
        // Intra-switch pairs: 2 injection links; inter-switch: + 2 uplinks.
        let e01 = view
            .edges()
            .iter()
            .find(|e| (e.a, e.b) == (0, 1))
            .unwrap()
            .clone();
        assert_eq!(e01.tier, 0);
        let e02 = view
            .edges()
            .iter()
            .find(|e| (e.a, e.b) == (0, 2))
            .unwrap()
            .clone();
        assert_eq!(e02.tier, 1);
        assert!(e02.latency_us > e01.latency_us);
    }

    #[test]
    fn colocated_ranks_get_memory_edges() {
        let topo = FatTree::figure1();
        let alloc = Allocation::new(vec![0, 0, 1]);
        let view = synth_view(&topo, &alloc).unwrap();
        let e01 = view.edges().iter().find(|e| (e.a, e.b) == (0, 1)).unwrap();
        let e02 = view.edges().iter().find(|e| (e.a, e.b) == (0, 2)).unwrap();
        assert!(e01.bandwidth_gib_s > e02.bandwidth_gib_s);
        assert_eq!(e01.latency_us, 0.0);
    }

    #[test]
    fn system_views_are_deterministic_and_sized() {
        for slug in ["lumi", "leonardo", "marenostrum5", "fugaku", "heterofat"] {
            let a = system_view(slug, 16).unwrap_or_else(|| panic!("{slug}"));
            let b = system_view(slug, 16).unwrap_or_else(|| panic!("{slug}"));
            assert_eq!(a, b, "{slug}");
            assert_eq!(a.num_ranks(), 16, "{slug}");
        }
        assert!(system_view("nonsense", 16).is_none());
        assert!(system_view("lumi", 0).is_none());
    }

    #[test]
    fn heterofat_views_span_islands() {
        let view = system_view("heterofat", 32).unwrap();
        let groups = view.num_groups();
        assert!(groups > 1, "placement should fragment across islands");
        assert!(groups < view.num_ranks());
        // The bandwidth gap between tiers is what synthesis keys on.
        let local_bw = view
            .edges()
            .iter()
            .filter(|e| e.tier == 0)
            .map(|e| e.bandwidth_gib_s)
            .fold(f64::INFINITY, f64::min);
        let global_bw = view
            .edges()
            .iter()
            .filter(|e| e.tier == 1)
            .map(|e| e.bandwidth_gib_s)
            .fold(f64::INFINITY, f64::min);
        assert!(local_bw > 10.0 * global_bw);
    }
}
