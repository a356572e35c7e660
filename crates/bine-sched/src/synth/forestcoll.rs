//! ForestColl-style broadcast synthesis: `k` edge-disjoint spanning trees
//! over the topology view, found by binary-searching the bottleneck
//! capacity, each carrying an interleaved share of the `p` segments so the
//! trees stream in parallel.
//!
//! The search follows the ForestColl recipe (SNIPPETS.md snippet 2): for a
//! candidate tree count `k`, binary-search the largest capacity threshold
//! `c` such that `k` edge-disjoint spanning trees still exist using only
//! edges of capacity ≥ `c` (feasibility checked by deterministic greedy
//! peeling), then pick the `k` maximizing the aggregate bottleneck rate
//! `k · c*(k)`. Steps are packed greedily under the single-ported
//! constraint the rest of the stack assumes (one network send and one
//! network receive per rank per step), and pipelining composes through the
//! ordinary `+seg{S}` segment machinery.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::schedule::{BlockId, Collective, Schedule, Step, TransferKind};
use crate::synth::view::{Adjacency, TopologyView};

/// Largest tree count the synthesizer considers. Beyond a handful of trees
/// the per-tree segment share stops paying for the extra edges on every
/// fabric this repository models.
pub const MAX_TREES: usize = 4;

/// A spanning tree as (parent, child) edges in the order the greedy peel
/// grew them — i.e. parents always appear as children of earlier edges, so
/// the order is a valid delivery order.
type Tree = Vec<(usize, usize)>;

/// Heap entry for the Prim frontier: ordered so the max element is the
/// highest-capacity edge, ties broken by lower tier (locality), then by the
/// most recently reached parent, then by lower edge index — a total order,
/// so peeling is deterministic.
///
/// The recency tie-break matters for edge-disjointness: preferring the
/// freshest parent grows *path-shaped* trees through regions of equal
/// capacity instead of stars. A star exhausts its center's edges in the
/// first tree and makes every later tree infeasible even on fabrics (like
/// a full mesh) that comfortably host `MAX_TREES` disjoint trees.
struct FrontierEdge {
    bandwidth: f64,
    tier: usize,
    parent_order: usize,
    edge: usize,
}

impl PartialEq for FrontierEdge {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for FrontierEdge {}
impl PartialOrd for FrontierEdge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEdge {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bandwidth
            .total_cmp(&other.bandwidth)
            .then(other.tier.cmp(&self.tier))
            .then(self.parent_order.cmp(&other.parent_order))
            .then(other.edge.cmp(&self.edge))
    }
}

/// Greedily peels `k` edge-disjoint spanning trees rooted at `root` using
/// only edges with capacity ≥ `threshold`. Each tree is grown Prim-style
/// from the root with a lazy-deletion frontier heap (stale entries — edge
/// already used or both endpoints reached — are skipped on pop), so a
/// single tree costs O(E log E) rather than a frontier rescan per edge.
/// `adj` is `view`'s adjacency, built once by the caller for every peel.
fn peel(
    view: &TopologyView,
    adj: &Adjacency,
    root: usize,
    k: usize,
    threshold: f64,
) -> Option<Vec<Tree>> {
    let p = view.num_ranks();
    let edges = view.edges();
    let mut used = vec![false; edges.len()];
    let mut trees = Vec::with_capacity(k);
    for _ in 0..k {
        // reach_order[r] = Some(i) once r was the i-th rank reached.
        let mut reach_order: Vec<Option<usize>> = vec![None; p];
        reach_order[root] = Some(0);
        let mut heap = BinaryHeap::with_capacity(adj.of(root).len());
        let grow = |rank: usize,
                    order: usize,
                    reach_order: &[Option<usize>],
                    used: &[bool],
                    heap: &mut BinaryHeap<FrontierEdge>| {
            for &ei in adj.of(rank) {
                let e = &edges[ei];
                if used[ei] || e.bandwidth_gib_s < threshold {
                    continue;
                }
                let other = if e.a == rank { e.b } else { e.a };
                if reach_order[other].is_none() {
                    heap.push(FrontierEdge {
                        bandwidth: e.bandwidth_gib_s,
                        tier: e.tier,
                        parent_order: order,
                        edge: ei,
                    });
                }
            }
        };
        grow(root, 0, &reach_order, &used, &mut heap);
        let mut tree: Tree = Vec::with_capacity(p - 1);
        while tree.len() < p - 1 {
            let fe = heap.pop()?;
            if used[fe.edge] {
                continue;
            }
            let e = &edges[fe.edge];
            // The edge was pushed with exactly one endpoint reached; if the
            // other side got reached meanwhile the entry is stale.
            let (parent, child) = match (reach_order[e.a].is_some(), reach_order[e.b].is_some()) {
                (true, false) => (e.a, e.b),
                (false, true) => (e.b, e.a),
                _ => continue,
            };
            used[fe.edge] = true;
            let order = tree.len() + 1;
            reach_order[child] = Some(order);
            tree.push((parent, child));
            grow(child, order, &reach_order, &used, &mut heap);
        }
        trees.push(tree);
    }
    Some(trees)
}

/// The capacity threshold search for a fixed `k`: the largest edge
/// capacity `c` (among the distinct capacities present in the view) for
/// which `k` edge-disjoint spanning trees exist, together with the trees.
fn best_threshold(
    view: &TopologyView,
    adj: &Adjacency,
    root: usize,
    k: usize,
) -> Option<(f64, Vec<Tree>)> {
    let mut caps: Vec<f64> = view.edges().iter().map(|e| e.bandwidth_gib_s).collect();
    caps.sort_by(|x, y| x.partial_cmp(y).expect("finite capacities"));
    caps.dedup();
    // Feasibility is monotone in the threshold (raising it only removes
    // edges), so binary-search the distinct capacities for the highest
    // feasible one.
    peel(view, adj, root, k, caps[0])?;
    let (mut lo, mut hi) = (0usize, caps.len() - 1); // lo always feasible
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if peel(view, adj, root, k, caps[mid]).is_some() {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    peel(view, adj, root, k, caps[lo]).map(|trees| (caps[lo], trees))
}

/// Picks the tree count maximizing the aggregate bottleneck rate
/// `k · c*(k)` (ties go to the smaller `k`, which needs fewer steps).
/// Returns `None` when the view is too small to host even one tree.
pub fn best_k(view: &TopologyView, root: usize) -> Option<usize> {
    let p = view.num_ranks();
    if p < 2 {
        return None;
    }
    let adj = view.adjacency();
    let mut best: Option<(usize, f64)> = None;
    for k in 1..=MAX_TREES.min(p) {
        let Some((cap, _)) = best_threshold(view, &adj, root, k) else {
            break; // more trees only need more edges
        };
        let rate = k as f64 * cap;
        if best.as_ref().is_none_or(|&(_, b)| rate > b * (1.0 + 1e-9)) {
            best = Some((k, rate));
        }
    }
    best.map(|(k, _)| k)
}

/// Synthesizes the `k`-tree pipelined broadcast schedule for `view`.
///
/// The vector's `p` segments are dealt round-robin to the trees (tree `t`
/// carries segments `{s : s ≡ t (mod k)}`), every tree spans all ranks, and
/// the step packer fills each step with as many ready tree edges as the
/// single-ported constraint admits. The result satisfies the broadcast
/// postcondition in its all-segments form: every rank ends up holding all
/// `p` segments.
pub fn build(view: &TopologyView, root: usize, k: usize) -> Option<Schedule> {
    let p = view.num_ranks();
    if p < 2 || k == 0 || k > p || root >= p {
        return None;
    }
    let (_, trees) = best_threshold(view, &view.adjacency(), root, k)?;
    let seg_sets: Vec<Vec<BlockId>> = (0..k)
        .map(|t| {
            (0..p as u32)
                .filter(|s| *s as usize % k == t)
                .map(BlockId::Segment)
                .collect()
        })
        .collect();

    let name = crate::synth::SynthSpec::ForestColl { k }.name();
    let mut sched = Schedule::new(p, Collective::Broadcast, name, root);
    // delivered[t][r] = step index after which rank r holds tree t's
    // segments (root holds everything before step 0).
    let mut delivered: Vec<Vec<Option<usize>>> = vec![vec![None; p]; k];
    for d in delivered.iter_mut() {
        d[root] = Some(0); // sentinel: usable from step 0 onwards
    }
    let mut next_edge = vec![0usize; k]; // per-tree progress pointer
    let mut scheduled = 0usize;
    let total: usize = trees.iter().map(|t| t.len()).sum();
    let mut step_idx = 0usize;
    // This step's edges, as (tree, parent, child), before they are listed.
    let mut edges = Vec::new();
    while scheduled < total {
        edges.clear();
        let mut send_busy = vec![false; p];
        let mut recv_busy = vec![false; p];
        // Round-robin over trees, consuming each tree's edges in peel
        // order (parents always precede children) as they become ready.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for t in 0..k {
                let Some(&(parent, child)) = trees[t].get(next_edge[t]) else {
                    continue;
                };
                let ready = delivered[t][parent].is_some_and(|d| d <= step_idx);
                if ready && !send_busy[parent] && !recv_busy[child] {
                    edges.push((t, parent, child));
                    send_busy[parent] = true;
                    recv_busy[child] = true;
                    delivered[t][child] = Some(step_idx + 1);
                    next_edge[t] += 1;
                    scheduled += 1;
                    progressed = true;
                }
            }
        }
        // At the start of a step no port is busy and every tree's next
        // edge has its parent delivered by an earlier step (peel order),
        // so the step is never empty while work remains.
        assert!(!edges.is_empty(), "step packer stalled");
        let blocks = edges.iter().map(|&(t, ..)| seg_sets[t].len()).sum();
        let mut step = Step::with_capacity(edges.len(), blocks);
        for &(t, parent, child) in &edges {
            let blocks = seg_sets[t].iter().copied();
            step.push(parent, child, blocks, TransferKind::Copy);
        }
        sched.push_step(step);
        step_idx += 1;
    }
    Some(sched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_builds_and_validates() {
        for p in [2usize, 3, 5, 8, 16, 17] {
            let view = TopologyView::full_mesh(p, 10.0, 1.0);
            let k = best_k(&view, 0).unwrap();
            assert!(k >= 1);
            let sched = build(&view, 0, k).unwrap();
            assert_eq!(sched.num_ranks, p);
            sched
                .validate()
                .unwrap_or_else(|e| panic!("p={p} k={k}: {e:?}"));
            sched.validate().unwrap();
        }
    }

    #[test]
    fn full_mesh_prefers_multiple_trees() {
        // On a uniform mesh with plenty of edges, every extra tree adds
        // bandwidth at the same bottleneck, so the search maxes out.
        let view = TopologyView::full_mesh(16, 10.0, 1.0);
        assert_eq!(best_k(&view, 0), Some(MAX_TREES));
    }

    #[test]
    fn two_ranks_single_tree() {
        let view = TopologyView::full_mesh(2, 10.0, 1.0);
        assert_eq!(best_k(&view, 0), Some(1));
        assert!(build(&view, 0, 2).is_none()); // only one edge exists
        let sched = build(&view, 0, 1).unwrap();
        assert_eq!(sched.num_steps(), 1);
    }

    #[test]
    fn clustered_view_builds_from_any_root() {
        let view = TopologyView::clustered(&[4, 4, 4], (100.0, 0.3), (5.0, 25.0)).unwrap();
        for root in 0..view.num_ranks() {
            let k = best_k(&view, root).unwrap();
            let sched = build(&view, root, k).unwrap();
            assert_eq!(sched.root, root);
            sched
                .validate()
                .unwrap_or_else(|e| panic!("root={root}: {e:?}"));
        }
    }

    #[test]
    fn deterministic() {
        let view = TopologyView::clustered(&[8, 8], (50.0, 0.5), (4.0, 10.0)).unwrap();
        let k = best_k(&view, 0).unwrap();
        let a = build(&view, 0, k).unwrap();
        let b = build(&view, 0, k).unwrap();
        assert_eq!(a, b);
    }
}
