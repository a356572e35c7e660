//! The link-capacity/tier view of a topology that schedule synthesis
//! consumes.
//!
//! `bine-net` owns the physical topology models (Dragonfly, fat tree,
//! torus) but depends on this crate, so synthesis cannot consume a
//! `Topology` directly. Instead the synthesizers work on a
//! [`TopologyView`]: an undirected weighted graph over the *ranks of one
//! allocation*, where each edge carries the bottleneck bandwidth and total
//! latency of the route between two ranks plus a locality tier. `bine-net`
//! derives a view from any `(Topology, Allocation)` pair
//! (`bine_net::synth_view`); tests build synthetic views directly.

/// One undirected edge of a [`TopologyView`], with `a < b`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoEdge {
    /// Lower-numbered endpoint rank.
    pub a: usize,
    /// Higher-numbered endpoint rank.
    pub b: usize,
    /// Bottleneck bandwidth of the route between the endpoints, GiB/s.
    pub bandwidth_gib_s: f64,
    /// End-to-end latency of the route, microseconds.
    pub latency_us: f64,
    /// Locality tier: 0 for intra-group routes, 1 for routes that cross a
    /// group (island) boundary. Synthesis prefers lower tiers on ties.
    pub tier: usize,
}

/// An undirected capacity/tier graph over the ranks of one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyView {
    num_ranks: usize,
    group_of: Vec<usize>,
    edges: Vec<TopoEdge>,
}

impl TopologyView {
    /// Builds a view and checks its invariants: every edge has `a < b <
    /// num_ranks`, positive finite bandwidth and non-negative finite
    /// latency, no two edges join the same pair, and the graph is connected
    /// (a disconnected fabric cannot host a collective at all).
    ///
    /// One pass over the edges, in their given order, checks each edge's
    /// range, bandwidth, latency and pair, and the first failure is the
    /// error; connectivity is checked after the pass. Ranks are joined in a
    /// union-find as the edges arrive. Duplicates are caught by the strictly
    /// ascending `(a, b)` order that [`full_mesh`](Self::full_mesh),
    /// [`clustered`](Self::clustered) and `bine_net::synth_view` emit; only a
    /// list that leaves that order gets a set of the pairs seen, built at
    /// its first out-of-order edge. The check's memory is O(p + E).
    pub fn new(group_of: Vec<usize>, edges: Vec<TopoEdge>) -> Result<Self, String> {
        let num_ranks = group_of.len();
        if num_ranks == 0 {
            return Err("view has no ranks".into());
        }
        // Union-find over the ranks: `root[r]` leads towards r's component.
        let mut root: Vec<usize> = (0..num_ranks).collect();
        fn find(root: &mut [usize], mut r: usize) -> usize {
            while root[r] != r {
                root[r] = root[root[r]];
                r = root[r];
            }
            r
        }
        let mut components = num_ranks;
        // The pairs seen, once the list has left ascending order.
        let mut seen: Option<std::collections::HashSet<(usize, usize)>> = None;
        for (i, e) in edges.iter().enumerate() {
            if e.a >= e.b || e.b >= num_ranks {
                return Err(format!(
                    "edge ({}, {}) is not a < b < {num_ranks}",
                    e.a, e.b
                ));
            }
            if !(e.bandwidth_gib_s > 0.0 && e.bandwidth_gib_s.is_finite()) {
                return Err(format!(
                    "edge ({}, {}) has non-positive bandwidth {}",
                    e.a, e.b, e.bandwidth_gib_s
                ));
            }
            if !(e.latency_us >= 0.0 && e.latency_us.is_finite()) {
                return Err(format!(
                    "edge ({}, {}) has invalid latency {}",
                    e.a, e.b, e.latency_us
                ));
            }
            let pair = (e.a, e.b);
            let fresh = match &mut seen {
                Some(seen) => seen.insert(pair),
                None => match i.checked_sub(1).map(|j| (edges[j].a, edges[j].b)) {
                    Some(last) if last == pair => false,
                    Some(last) if last > pair => {
                        // Every earlier edge ascends, so they are distinct.
                        let earlier = edges[..i].iter().map(|e| (e.a, e.b)).collect();
                        seen.insert(earlier).insert(pair)
                    }
                    _ => true,
                },
            };
            if !fresh {
                return Err(format!("duplicate edge ({}, {})", e.a, e.b));
            }
            let (ra, rb) = (find(&mut root, e.a), find(&mut root, e.b));
            if ra != rb {
                root[ra.max(rb)] = ra.min(rb);
                components -= 1;
            }
        }
        if components > 1 {
            return Err("view is not connected".into());
        }
        Ok(Self {
            num_ranks,
            group_of,
            edges,
        })
    }

    /// A uniform full mesh — the view of an ideal (topology-oblivious)
    /// fabric, and the smallest useful synthetic test fixture.
    pub fn full_mesh(num_ranks: usize, bandwidth_gib_s: f64, latency_us: f64) -> Self {
        let mut edges = Vec::new();
        for a in 0..num_ranks {
            for b in a + 1..num_ranks {
                edges.push(TopoEdge {
                    a,
                    b,
                    bandwidth_gib_s,
                    latency_us,
                    tier: 0,
                });
            }
        }
        Self::new(vec![0; num_ranks], edges).expect("full mesh is always valid")
    }

    /// A clustered (islands-of-ranks) view: full mesh at `(local_bw,
    /// local_lat)` inside each group, and `(global_bw, global_lat)` tier-1
    /// edges between every cross-group rank pair — the shape `bine-net`
    /// derives for a fat tree or Dragonfly allocation.
    pub fn clustered(
        group_sizes: &[usize],
        local: (f64, f64),
        global: (f64, f64),
    ) -> Result<Self, String> {
        let mut group_of = Vec::new();
        for (g, &size) in group_sizes.iter().enumerate() {
            if size == 0 {
                return Err(format!("group {g} is empty"));
            }
            group_of.extend(std::iter::repeat_n(g, size));
        }
        let num_ranks = group_of.len();
        let mut edges = Vec::new();
        for a in 0..num_ranks {
            for b in a + 1..num_ranks {
                let (bw, lat, tier) = if group_of[a] == group_of[b] {
                    (local.0, local.1, 0)
                } else {
                    (global.0, global.1, 1)
                };
                edges.push(TopoEdge {
                    a,
                    b,
                    bandwidth_gib_s: bw,
                    latency_us: lat,
                    tier,
                });
            }
        }
        Self::new(group_of, edges)
    }

    /// Number of ranks in the view.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The group (island) a rank belongs to.
    pub fn group_of(&self, rank: usize) -> usize {
        self.group_of[rank]
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        let mut groups: Vec<usize> = self.group_of.clone();
        groups.sort_unstable();
        groups.dedup();
        groups.len()
    }

    /// The undirected edges.
    pub fn edges(&self) -> &[TopoEdge] {
        &self.edges
    }

    /// Edge indices incident to each rank, each rank's in edge order.
    pub(crate) fn adjacency(&self) -> Adjacency {
        let mut offsets = vec![0usize; self.num_ranks + 1];
        for e in &self.edges {
            offsets[e.a + 1] += 1;
            offsets[e.b + 1] += 1;
        }
        for r in 0..self.num_ranks {
            offsets[r + 1] += offsets[r];
        }
        // `offsets[r]` is r's start; filling advances it to r's end, and
        // the shift after restores the starts.
        let mut edges = vec![0usize; offsets[self.num_ranks]];
        for (i, e) in self.edges.iter().enumerate() {
            for end in [e.a, e.b] {
                edges[offsets[end]] = i;
                offsets[end] += 1;
            }
        }
        offsets.copy_within(..self.num_ranks, 1);
        offsets[0] = 0;
        Adjacency { offsets, edges }
    }
}

/// A view's adjacency in one flat table: rank `r`'s incident edge ids are
/// `edges[offsets[r]..offsets[r + 1]]`.
pub(crate) struct Adjacency {
    offsets: Vec<usize>,
    edges: Vec<usize>,
}

impl Adjacency {
    /// The ids of the edges incident to `rank`, ascending.
    pub(crate) fn of(&self, rank: usize) -> &[usize] {
        &self.edges[self.offsets[rank]..self.offsets[rank + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_views() {
        assert!(TopologyView::new(vec![], vec![]).is_err());
        // a >= b
        assert!(TopologyView::new(
            vec![0, 0],
            vec![TopoEdge {
                a: 1,
                b: 1,
                bandwidth_gib_s: 1.0,
                latency_us: 1.0,
                tier: 0
            }]
        )
        .is_err());
        // disconnected
        assert!(TopologyView::new(vec![0, 0, 0], vec![]).is_err());
        // zero bandwidth
        assert!(TopologyView::new(
            vec![0, 0],
            vec![TopoEdge {
                a: 0,
                b: 1,
                bandwidth_gib_s: 0.0,
                latency_us: 1.0,
                tier: 0
            }]
        )
        .is_err());
    }

    #[test]
    fn clustered_shape() {
        let v = TopologyView::clustered(&[4, 4, 4], (100.0, 0.3), (5.0, 25.0)).unwrap();
        assert_eq!(v.num_ranks(), 12);
        assert_eq!(v.num_groups(), 3);
        assert_eq!(v.edges().len(), 12 * 11 / 2);
        let cross = v.edges().iter().filter(|e| e.tier == 1).count();
        assert_eq!(cross, 3 * 4 * 4);
        assert_eq!(v.group_of(0), 0);
        assert_eq!(v.group_of(11), 2);
    }

    fn edge(a: usize, b: usize, bandwidth_gib_s: f64, latency_us: f64) -> TopoEdge {
        TopoEdge {
            a,
            b,
            bandwidth_gib_s,
            latency_us,
            tier: 0,
        }
    }

    /// A path over `p` ranks, `(0, 1), (1, 2), …`, ascending.
    fn path(p: usize) -> Vec<TopoEdge> {
        (1..p).map(|b| edge(b - 1, b, 1.0, 1.0)).collect()
    }

    fn error(p: usize, edges: Vec<TopoEdge>) -> String {
        TopologyView::new(vec![0; p], edges).expect_err("invalid view")
    }

    #[test]
    fn an_empty_view_is_rejected() {
        assert_eq!(error(0, vec![]), "view has no ranks");
    }

    #[test]
    fn an_edge_with_a_not_below_b_is_rejected() {
        assert_eq!(
            error(3, vec![edge(1, 1, 1.0, 1.0)]),
            "edge (1, 1) is not a < b < 3"
        );
        assert_eq!(
            error(3, vec![edge(2, 1, 1.0, 1.0)]),
            "edge (2, 1) is not a < b < 3"
        );
    }

    #[test]
    fn an_edge_past_the_last_rank_is_rejected() {
        assert_eq!(
            error(3, vec![edge(1, 3, 1.0, 1.0)]),
            "edge (1, 3) is not a < b < 3"
        );
    }

    #[test]
    fn an_edge_without_positive_finite_bandwidth_is_rejected() {
        for (bandwidth, shown) in [(0.0, "0"), (f64::NAN, "NaN"), (f64::INFINITY, "inf")] {
            assert_eq!(
                error(2, vec![edge(0, 1, bandwidth, 1.0)]),
                format!("edge (0, 1) has non-positive bandwidth {shown}")
            );
        }
    }

    #[test]
    fn an_edge_with_negative_or_nan_latency_is_rejected() {
        for (latency, shown) in [(-1.0, "-1"), (f64::NAN, "NaN")] {
            assert_eq!(
                error(2, vec![edge(0, 1, 1.0, latency)]),
                format!("edge (0, 1) has invalid latency {shown}")
            );
        }
    }

    #[test]
    fn a_duplicate_pair_apart_in_the_list_is_rejected() {
        let mut edges = path(4);
        edges.push(edge(0, 1, 2.0, 1.0));
        assert_eq!(error(4, edges), "duplicate edge (0, 1)");
    }

    #[test]
    fn an_isolated_rank_is_rejected() {
        assert_eq!(error(4, path(3)), "view is not connected");
    }

    #[test]
    fn two_components_are_rejected() {
        let edges = vec![edge(0, 1, 1.0, 1.0), edge(2, 3, 1.0, 1.0)];
        assert_eq!(error(4, edges), "view is not connected");
    }

    #[test]
    fn an_edge_list_out_of_order_is_accepted() {
        let mut edges = path(5);
        edges.reverse();
        let view = TopologyView::new(vec![0; 5], edges.clone()).expect("valid view");
        assert_eq!(view.edges(), edges);
    }

    #[test]
    fn a_single_rank_needs_no_edges() {
        let view = TopologyView::new(vec![0], vec![]).expect("valid view");
        assert_eq!(view.num_ranks(), 1);
    }

    #[test]
    fn adjacency_lists_each_ranks_edges_in_edge_order() {
        let mut edges = path(4);
        edges.push(edge(0, 3, 1.0, 1.0));
        edges.swap(0, 2);
        let view = TopologyView::new(vec![0; 4], edges).expect("valid view");
        let adj = view.adjacency();
        let lists: Vec<&[usize]> = (0..4).map(|r| adj.of(r)).collect();
        assert_eq!(lists, [&[2, 3][..], &[1, 2], &[0, 1], &[0, 3]]);
    }

    /// The check `TopologyView::new` made before it took one pass: a set of
    /// every pair, then a search over a per-rank adjacency.
    fn checked_by_a_pair_set_and_a_search(
        group_of: Vec<usize>,
        edges: Vec<TopoEdge>,
    ) -> Result<TopologyView, String> {
        let num_ranks = group_of.len();
        if num_ranks == 0 {
            return Err("view has no ranks".into());
        }
        let mut seen = std::collections::HashSet::new();
        for e in &edges {
            if e.a >= e.b || e.b >= num_ranks {
                return Err(format!(
                    "edge ({}, {}) is not a < b < {num_ranks}",
                    e.a, e.b
                ));
            }
            if !(e.bandwidth_gib_s > 0.0 && e.bandwidth_gib_s.is_finite()) {
                return Err(format!(
                    "edge ({}, {}) has non-positive bandwidth {}",
                    e.a, e.b, e.bandwidth_gib_s
                ));
            }
            if !(e.latency_us >= 0.0 && e.latency_us.is_finite()) {
                return Err(format!(
                    "edge ({}, {}) has invalid latency {}",
                    e.a, e.b, e.latency_us
                ));
            }
            if !seen.insert((e.a, e.b)) {
                return Err(format!("duplicate edge ({}, {})", e.a, e.b));
            }
        }
        let view = TopologyView {
            num_ranks,
            group_of,
            edges,
        };
        if num_ranks > 1 && !is_connected(&view) {
            return Err("view is not connected".into());
        }
        Ok(view)
    }

    fn is_connected(view: &TopologyView) -> bool {
        let mut adj = vec![Vec::new(); view.num_ranks];
        for (i, e) in view.edges.iter().enumerate() {
            adj[e.a].push(i);
            adj[e.b].push(i);
        }
        let mut seen = vec![false; view.num_ranks];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(r) = stack.pop() {
            for &ei in &adj[r] {
                let e = &view.edges[ei];
                let other = if e.a == r { e.b } else { e.a };
                if !seen[other] {
                    seen[other] = true;
                    stack.push(other);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// SplitMix64: the draws of the oracle test below.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Random edge lists at p ≤ 12 — subsets of the full mesh, ascending or
    /// shuffled, with repeated pairs and bad values sprinkled in — get the
    /// same verdict, message or view, as the pair-set check.
    #[test]
    fn one_pass_check_agrees_with_the_pair_set_check() {
        let mut draws = Draws(42);
        let mut verdicts = [0usize; 2];
        for _ in 0..4000 {
            let p = draws.below(13);
            let keep = 1 + draws.below(4); // keep each pair with odds keep/4
            let mut edges = Vec::new();
            for (a, b) in (0..p).flat_map(|a| (a + 1..p).map(move |b| (a, b))) {
                if draws.below(4) < keep {
                    let bandwidth = 1.0 + draws.below(3) as f64;
                    edges.push(edge(a, b, bandwidth, draws.below(2) as f64));
                }
            }
            for _ in 0..draws.below(3) {
                if !edges.is_empty() {
                    let copy = edges[draws.below(edges.len())].clone();
                    edges.insert(draws.below(edges.len() + 1), copy);
                }
            }
            if draws.below(2) == 0 {
                for i in (1..edges.len()).rev() {
                    edges.swap(i, draws.below(i + 1));
                }
            }
            if draws.below(4) == 0 && !edges.is_empty() {
                let e = draws.below(edges.len());
                match draws.below(6) {
                    0 => edges[e].a = edges[e].b,
                    1 => edges[e].b = p + draws.below(2),
                    2 => edges[e].bandwidth_gib_s = [0.0, f64::NAN, f64::INFINITY][draws.below(3)],
                    3 => edges[e].latency_us = [-0.5, f64::NAN, f64::INFINITY][draws.below(3)],
                    4 => (edges[e].a, edges[e].b) = (edges[e].b, edges[e].a),
                    _ => {
                        edges.remove(e);
                    }
                }
            }
            let group_of: Vec<usize> = (0..p).map(|_| draws.below(3)).collect();
            let expected = checked_by_a_pair_set_and_a_search(group_of.clone(), edges.clone());
            let got = TopologyView::new(group_of, edges.clone());
            verdicts[usize::from(expected.is_ok())] += 1;
            assert_eq!(got, expected, "p={p} edges={edges:?}");
        }
        // Both verdicts are drawn often.
        assert!(verdicts.iter().all(|&n| n > 500), "{verdicts:?}");
    }
}
