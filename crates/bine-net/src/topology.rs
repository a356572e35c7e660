//! Network topology models for the four system classes evaluated in the
//! paper: Dragonfly (LUMI), Dragonfly+ (Leonardo), oversubscribed fat tree
//! (MareNostrum 5) and torus (Fugaku).
//!
//! The models are deliberately coarse: what matters for reproducing the
//! paper's results is (a) which node belongs to which *group* — the unit of
//! full-bandwidth connectivity — and (b) which links are *global*
//! (inter-group, oversubscribed) versus *local*. Routes are minimal and
//! deterministic; adaptive routing would only spread load further, so the
//! reported global-traffic numbers are lower bounds exactly as in Sec. 5.1.1.
//!
//! A route is resolved into a buffer the caller owns
//! ([`Topology::route`]; no form returns a list): the traffic accountant,
//! both time models and the view derivation ask for one route per message
//! or rank pair, and hold one buffer per call, so none of them allocates in
//! proportion to the messages it looks at.

use bine_core::torus::TorusShape;

/// Identifier of a compute node.
pub type NodeId = usize;
/// Identifier of a network link.
pub type LinkId = usize;

/// Whether a link is inside a group (full bandwidth) or between groups
/// (oversubscribed / long).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Intra-group link (node injection, leaf switch, intra-group router).
    Local,
    /// Inter-group (global) link: longer, oversubscribed, more expensive.
    Global,
}

/// Static properties of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkInfo {
    /// Local or global.
    pub class: LinkClass,
    /// Bandwidth in GiB/s.
    pub bandwidth_gib_s: f64,
    /// Latency contribution in microseconds.
    pub latency_us: f64,
}

/// A network topology: node→group membership, minimal routes and link
/// properties.
pub trait Topology {
    /// Total number of compute nodes.
    fn num_nodes(&self) -> usize;
    /// Number of groups (fully connected / full-bandwidth islands).
    fn num_groups(&self) -> usize;
    /// Group of a node.
    fn group_of(&self, node: NodeId) -> usize;
    /// Number of links in the model.
    fn num_links(&self) -> usize;
    /// Properties of a link.
    fn link(&self, link: LinkId) -> LinkInfo;
    /// Writes the links a message from `a` to `b` traverses into `links`, in
    /// traversal order: the buffer is cleared first and stays empty when
    /// `a == b`. The caller owns the buffer and holds one across the
    /// messages of a schedule, so resolving a route never allocates once the
    /// buffer has grown to the longest route.
    fn route(&self, a: NodeId, b: NodeId, links: &mut Vec<LinkId>);
    /// Human-readable name (e.g. `"dragonfly(24x124)"`).
    fn name(&self) -> String;

    /// Whether two nodes are in different groups, i.e. whether a message
    /// between them is counted as *global traffic* (the paper's headline
    /// metric, counted once per message as in Fig. 1).
    fn crosses_groups(&self, a: NodeId, b: NodeId) -> bool {
        self.group_of(a) != self.group_of(b)
    }

    /// The highest bandwidth of any link (GiB/s): no flow can ever drain
    /// faster than this, which makes it the bandwidth term of the cheap
    /// candidate lower bound in [`crate::cost::LowerBounds`].
    fn max_link_bandwidth_gib_s(&self) -> f64 {
        (0..self.num_links())
            .map(|l| self.link(l).bandwidth_gib_s)
            .fold(0.0, f64::max)
    }

    /// The lowest latency of any link (microseconds): no network message can
    /// pay less than this on top of the software alpha, which makes it the
    /// latency term of the cheap candidate lower bound in
    /// [`crate::cost::LowerBounds`].
    fn min_link_latency_us(&self) -> f64 {
        (0..self.num_links())
            .map(|l| self.link(l).latency_us)
            .fold(f64::INFINITY, f64::min)
    }
}

// Default link parameters, loosely modelled on a 200 Gb/s-class fabric.
const LOCAL_BW: f64 = 23.0; // GiB/s
const GLOBAL_BW: f64 = 23.0; // GiB/s per global link (oversubscription comes from sharing)
const LOCAL_LAT: f64 = 0.5; // us
const GLOBAL_LAT: f64 = 1.5; // us
const TORUS_BW: f64 = 6.3; // GiB/s per TNI-class link
const TORUS_LAT: f64 = 0.9; // us

fn local_link() -> LinkInfo {
    LinkInfo {
        class: LinkClass::Local,
        bandwidth_gib_s: LOCAL_BW,
        latency_us: LOCAL_LAT,
    }
}

fn global_link() -> LinkInfo {
    LinkInfo {
        class: LinkClass::Global,
        bandwidth_gib_s: GLOBAL_BW,
        latency_us: GLOBAL_LAT,
    }
}

/// Deterministic hash used to spread flows over parallel global links.
fn spread(a: usize, b: usize, buckets: usize) -> usize {
    // Fibonacci hashing of the pair; deterministic and cheap.
    let x = (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (x % buckets.max(1) as u64) as usize
}

// ---------------------------------------------------------------------------
// Oversubscribed fat tree (MareNostrum 5, and the Fig. 1 example)
// ---------------------------------------------------------------------------

/// A two-level oversubscribed fat tree: full-bandwidth sub-trees ("groups")
/// of `nodes_per_group` nodes, each connected to the core level by
/// `uplinks_per_group` links. A `nodes_per_group : uplinks_per_group` ratio
/// of 2:1 models MareNostrum 5; `2 : 1` with two-node groups models Fig. 1.
#[derive(Debug, Clone)]
pub struct FatTree {
    nodes_per_group: usize,
    uplinks_per_group: usize,
    num_nodes: usize,
    local: LinkInfo,
    global: LinkInfo,
}

impl FatTree {
    /// Creates an oversubscribed fat tree with the given shape and the
    /// default 200 Gb/s-class link parameters.
    pub fn new(num_nodes: usize, nodes_per_group: usize, uplinks_per_group: usize) -> Self {
        Self::with_links(
            num_nodes,
            nodes_per_group,
            uplinks_per_group,
            local_link(),
            global_link(),
        )
    }

    /// Creates an oversubscribed fat tree with explicit per-class link
    /// parameters — the knob that models *heterogeneous* fabrics (fast
    /// islands behind slow, long uplinks) the uniform presets cannot.
    pub fn with_links(
        num_nodes: usize,
        nodes_per_group: usize,
        uplinks_per_group: usize,
        local: LinkInfo,
        global: LinkInfo,
    ) -> Self {
        assert!(nodes_per_group >= 1 && uplinks_per_group >= 1 && num_nodes >= 1);
        Self {
            nodes_per_group,
            uplinks_per_group,
            num_nodes,
            local,
            global,
        }
    }

    /// The MareNostrum 5 ACC partition model: 160-node full-bandwidth
    /// sub-trees, 2:1 oversubscribed towards the core.
    pub fn marenostrum5(num_nodes: usize) -> Self {
        Self::new(num_nodes, 160, 8)
    }

    /// The 8-node, 2 nodes-per-switch, single-uplink example of Fig. 1.
    pub fn figure1() -> Self {
        Self::new(8, 2, 1)
    }

    /// A heterogeneous "accelerator island" fat tree: 16-node islands with
    /// NVLink-class intra-island bandwidth, joined by two heavily
    /// oversubscribed, long-haul uplinks per island. The 20:1 bandwidth
    /// gap and the ~80:1 latency gap between the tiers is the regime the
    /// fixed catalog cannot express and topology-aware synthesis exists
    /// for; `bine-bench` commits a tuned decision table for this fabric
    /// (`tuning/heterofat.json`).
    pub fn hetero_island(num_nodes: usize) -> Self {
        Self::with_links(
            num_nodes,
            16,
            2,
            LinkInfo {
                class: LinkClass::Local,
                bandwidth_gib_s: 100.0,
                latency_us: 0.3,
            },
            LinkInfo {
                class: LinkClass::Global,
                bandwidth_gib_s: 5.0,
                latency_us: 25.0,
            },
        )
    }

    fn injection(&self, node: NodeId) -> LinkId {
        node
    }

    fn uplink(&self, group: usize, idx: usize) -> LinkId {
        self.num_nodes + group * self.uplinks_per_group + idx
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }
    fn num_groups(&self) -> usize {
        self.num_nodes.div_ceil(self.nodes_per_group)
    }
    fn group_of(&self, node: NodeId) -> usize {
        node / self.nodes_per_group
    }
    fn num_links(&self) -> usize {
        self.num_nodes + self.num_groups() * self.uplinks_per_group
    }
    fn link(&self, link: LinkId) -> LinkInfo {
        if link < self.num_nodes {
            self.local
        } else {
            self.global
        }
    }
    fn route(&self, a: NodeId, b: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        if a == b {
            return;
        }
        let (ga, gb) = (self.group_of(a), self.group_of(b));
        if ga == gb {
            links.extend([self.injection(a), self.injection(b)]);
        } else {
            let up = self.uplink(ga, spread(a, b, self.uplinks_per_group));
            let down = self.uplink(gb, spread(b, a, self.uplinks_per_group));
            links.extend([self.injection(a), up, down, self.injection(b)]);
        }
    }
    fn name(&self) -> String {
        format!(
            "fat-tree({} nodes, {}:{} oversubscribed)",
            self.num_nodes, self.nodes_per_group, self.uplinks_per_group
        )
    }
}

// ---------------------------------------------------------------------------
// Ideal full mesh (the congestion-free limit)
// ---------------------------------------------------------------------------

/// An idealised fully connected network: every ordered node pair owns a
/// dedicated full-bandwidth link with uniform latency.
///
/// Because the schedules are single-ported (each rank sends at most one
/// network message per step), no two messages of a step ever share a link
/// here, so both the synchronous cost model's congestion terms and the
/// discrete-event simulator's fair-share division vanish. This is the
/// *congestion-free limit* in which the simulator is property-tested to
/// reproduce the synchronous alpha–beta model exactly, and the closed-form
/// alpha–beta predictions hold.
#[derive(Debug, Clone)]
pub struct IdealFullMesh {
    num_nodes: usize,
    link: LinkInfo,
}

impl IdealFullMesh {
    /// Creates an ideal full mesh with the default local-link parameters.
    pub fn new(num_nodes: usize) -> Self {
        Self::with_link(num_nodes, local_link())
    }

    /// Creates an ideal full mesh with explicit link parameters.
    pub fn with_link(num_nodes: usize, link: LinkInfo) -> Self {
        assert!(num_nodes >= 1);
        Self { num_nodes, link }
    }

    /// The uniform link parameters of this mesh.
    pub fn link_info(&self) -> LinkInfo {
        self.link
    }
}

impl Topology for IdealFullMesh {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }
    fn num_groups(&self) -> usize {
        // One full-bandwidth island: nothing ever counts as global traffic.
        1
    }
    fn group_of(&self, _node: NodeId) -> usize {
        0
    }
    fn num_links(&self) -> usize {
        self.num_nodes * self.num_nodes
    }
    fn link(&self, _link: LinkId) -> LinkInfo {
        self.link
    }
    fn route(&self, a: NodeId, b: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        if a != b {
            links.push(a * self.num_nodes + b);
        }
    }
    fn name(&self) -> String {
        format!("ideal-full-mesh({})", self.num_nodes)
    }
}

// ---------------------------------------------------------------------------
// Dragonfly (LUMI) and Dragonfly+ (Leonardo)
// ---------------------------------------------------------------------------

/// Flavour of group-based low-diameter topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DragonflyFlavour {
    /// Classic Dragonfly (fully connected routers inside a group), e.g.
    /// LUMI's Slingshot network.
    Dragonfly,
    /// Dragonfly+ (groups are two-level fat trees), e.g. Leonardo.
    DragonflyPlus,
}

/// A Dragonfly or Dragonfly+ network: `num_groups` groups of
/// `nodes_per_group` nodes, with `global_links_per_pair` parallel global
/// links between every pair of groups.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    flavour: DragonflyFlavour,
    num_groups: usize,
    nodes_per_group: usize,
    global_links_per_pair: usize,
}

impl Dragonfly {
    /// Creates a Dragonfly-style network.
    pub fn new(
        flavour: DragonflyFlavour,
        num_groups: usize,
        nodes_per_group: usize,
        global_links_per_pair: usize,
    ) -> Self {
        assert!(num_groups >= 1 && nodes_per_group >= 1 && global_links_per_pair >= 1);
        Self {
            flavour,
            num_groups,
            nodes_per_group,
            global_links_per_pair,
        }
    }

    /// The LUMI-G model: 24-group Slingshot Dragonfly with 124 nodes per
    /// group (Sec. 5.1).
    pub fn lumi() -> Self {
        Self::new(DragonflyFlavour::Dragonfly, 24, 124, 4)
    }

    /// The Leonardo Booster model: 23-group Dragonfly+ with 180 nodes per
    /// group (Sec. 5.2).
    pub fn leonardo() -> Self {
        Self::new(DragonflyFlavour::DragonflyPlus, 23, 180, 2)
    }

    fn injection(&self, node: NodeId) -> LinkId {
        node
    }

    fn pair_index(&self, ga: usize, gb: usize) -> usize {
        // Index of the unordered group pair (ga, gb), ga != gb.
        let (lo, hi) = if ga < gb { (ga, gb) } else { (gb, ga) };
        lo * self.num_groups + hi
    }

    fn global(&self, ga: usize, gb: usize, idx: usize) -> LinkId {
        self.num_nodes() + self.pair_index(ga, gb) * self.global_links_per_pair + idx
    }
}

impl Topology for Dragonfly {
    fn num_nodes(&self) -> usize {
        self.num_groups * self.nodes_per_group
    }
    fn num_groups(&self) -> usize {
        self.num_groups
    }
    fn group_of(&self, node: NodeId) -> usize {
        node / self.nodes_per_group
    }
    fn num_links(&self) -> usize {
        self.num_nodes() + self.num_groups * self.num_groups * self.global_links_per_pair
    }
    fn link(&self, link: LinkId) -> LinkInfo {
        if link < self.num_nodes() {
            local_link()
        } else {
            global_link()
        }
    }
    fn route(&self, a: NodeId, b: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        if a == b {
            return;
        }
        let (ga, gb) = (self.group_of(a), self.group_of(b));
        if ga == gb {
            links.extend([self.injection(a), self.injection(b)]);
        } else {
            let g = self.global(ga, gb, spread(a, b, self.global_links_per_pair));
            links.extend([self.injection(a), g, self.injection(b)]);
        }
    }
    fn name(&self) -> String {
        let kind = match self.flavour {
            DragonflyFlavour::Dragonfly => "dragonfly",
            DragonflyFlavour::DragonflyPlus => "dragonfly+",
        };
        format!("{kind}({}x{})", self.num_groups, self.nodes_per_group)
    }
}

// ---------------------------------------------------------------------------
// Torus (Fugaku)
// ---------------------------------------------------------------------------

/// A k-ary n-dimensional torus with bidirectional nearest-neighbour links and
/// dimension-ordered minimal routing. All links share the same class; the
/// torus has no "groups", so every inter-node link is treated as global
/// traffic (Sec. 5.4: on a torus, all links can be considered
/// oversubscribed).
#[derive(Debug, Clone)]
pub struct Torus {
    shape: TorusShape,
}

impl Torus {
    /// Creates a torus with the given dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Self {
            shape: TorusShape::new(dims),
        }
    }

    /// The shape of the torus.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// Link from `node` in `direction` (0 = positive, 1 = negative) along
    /// `dim`.
    fn link_id(&self, node: NodeId, dim: usize, direction: usize) -> LinkId {
        (node * self.shape.num_dims() + dim) * 2 + direction
    }
}

impl Topology for Torus {
    fn num_nodes(&self) -> usize {
        self.shape.num_ranks()
    }
    fn num_groups(&self) -> usize {
        // Every node is its own group: all inter-node traffic uses links that
        // the paper treats as oversubscribed.
        self.shape.num_ranks()
    }
    fn group_of(&self, node: NodeId) -> usize {
        node
    }
    fn num_links(&self) -> usize {
        self.shape.num_ranks() * self.shape.num_dims() * 2
    }
    fn link(&self, _link: LinkId) -> LinkInfo {
        LinkInfo {
            class: LinkClass::Global,
            bandwidth_gib_s: TORUS_BW,
            latency_us: TORUS_LAT,
        }
    }
    fn route(&self, a: NodeId, b: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        // Dimension-ordered routing along the shorter way around each ring
        // (forward on a tie), walked on the node id itself: in the row-major
        // numbering a hop along dimension `d` moves the id by that
        // dimension's stride, so no coordinate vector is ever built.
        let mut node = a;
        let mut stride = self.shape.num_ranks();
        for (d, &k) in self.shape.dims().iter().enumerate() {
            stride /= k;
            let (mut at, target) = ((node / stride) % k, (b / stride) % k);
            let forward = (target + k - at) % k;
            let (direction, hops) = if 2 * forward <= k {
                (0, forward)
            } else {
                (1, k - forward)
            };
            for _ in 0..hops {
                links.push(self.link_id(node, d, direction));
                let next = if direction == 0 {
                    (at + 1) % k
                } else {
                    (at + k - 1) % k
                };
                node = node - at * stride + next * stride;
                at = next;
            }
        }
    }
    fn name(&self) -> String {
        let dims: Vec<String> = self.shape.dims().iter().map(|d| d.to_string()).collect();
        format!("torus({})", dims.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_figure1_groups() {
        let ft = FatTree::figure1();
        assert_eq!(ft.num_nodes(), 8);
        assert_eq!(ft.num_groups(), 4);
        assert_eq!(ft.group_of(0), 0);
        assert_eq!(ft.group_of(3), 1);
        assert!(!ft.crosses_groups(0, 1));
        assert!(ft.crosses_groups(0, 2));
        // Intra-group route touches only local links.
        let mut links = Vec::new();
        ft.route(0, 1, &mut links);
        assert!(links.iter().all(|&l| ft.link(l).class == LinkClass::Local));
        // Inter-group route touches exactly two global links (up + down).
        ft.route(0, 4, &mut links);
        let globals = links
            .iter()
            .filter(|&&l| ft.link(l).class == LinkClass::Global)
            .count();
        assert_eq!(globals, 2);
    }

    #[test]
    fn dragonfly_routes_use_one_global_hop() {
        let df = Dragonfly::lumi();
        assert_eq!(df.num_nodes(), 24 * 124);
        assert_eq!(df.num_groups(), 24);
        let a = 0;
        let b = 3 * 124 + 17;
        let mut links = Vec::new();
        df.route(a, b, &mut links);
        let globals = links
            .iter()
            .filter(|&&l| df.link(l).class == LinkClass::Global)
            .count();
        assert_eq!(globals, 1);
        assert!(df.crosses_groups(a, b));
        assert!(!df.crosses_groups(5, 100));
    }

    #[test]
    fn routes_are_symmetric_in_link_count() {
        let topo = Dragonfly::leonardo();
        let (mut there, mut back) = (Vec::new(), Vec::new());
        for (a, b) in [(0, 1), (0, 500), (1000, 3000), (42, 42)] {
            topo.route(a, b, &mut there);
            topo.route(b, a, &mut back);
            assert_eq!(there.len(), back.len());
        }
    }

    #[test]
    fn torus_route_length_equals_hop_distance() {
        let torus = Torus::new(vec![4, 4, 4]);
        let mut links = Vec::new();
        for a in [0, 5, 17, 63] {
            for b in [0, 9, 33, 62] {
                torus.route(a, b, &mut links);
                assert_eq!(links.len(), torus.shape().hop_distance(a, b));
            }
        }
    }

    #[test]
    fn torus_links_are_valid_ids() {
        let torus = Torus::new(vec![2, 8]);
        let mut links = Vec::new();
        for a in 0..torus.num_nodes() {
            for b in 0..torus.num_nodes() {
                torus.route(a, b, &mut links);
                for &l in &links {
                    assert!(l < torus.num_links());
                }
            }
        }
    }

    #[test]
    fn link_ids_are_in_range_for_group_topologies() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(FatTree::marenostrum5(640)),
            Box::new(Dragonfly::lumi()),
            Box::new(Dragonfly::leonardo()),
        ];
        let mut links = Vec::new();
        for topo in &topos {
            let n = topo.num_nodes();
            for (a, b) in [(0, n - 1), (1, n / 2), (n / 3, n / 3 + 1)] {
                topo.route(a, b, &mut links);
                for &l in &links {
                    assert!(l < topo.num_links(), "{}", topo.name());
                }
            }
        }
    }
}
