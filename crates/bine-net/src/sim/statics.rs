//! Static resolution: everything about one simulation that is decided
//! before its first event.
//!
//! A resolution is sized by the job, not the machine. The links a job's
//! routes touch get *job-local* ids `0..k`, numbered in ascending machine
//! link id order, and every per-link column (route lists, capacities, the
//! fair share's scratch) is indexed by them. The order is what keeps both
//! implementations on the same bottleneck: the fair share breaks `(fair,
//! link)` ties on the local id, the reference scans machine ids ascending,
//! and ascending numbering makes the two orders one. A cached resolution is
//! revalidated by the topology's shape (node, group and link counts) plus
//! the touched links' [`LinkInfo`] only: a link the job never routes over
//! cannot change its simulation.

use bine_sched::{CompiledSchedule, DepGraph, TransferKind};

use super::request::Inputs;
use crate::allocation::Allocation;
use crate::cost::{CostModel, GIB_PER_US};
use crate::fault::FaultPlan;
use crate::topology::{LinkId, LinkInfo};

/// `StaticScratch::local_of`'s entry for a machine link no route touched.
const UNSEEN: u32 = u32::MAX;

/// The scratch of [`build_static`], held by the [`SimArena`](super::SimArena)
/// so a build allocates only the columns it keeps. The one machine-sized
/// table, `local_of`, grows once per arena, not once per build.
#[derive(Default)]
pub(super) struct StaticScratch {
    route: Vec<LinkId>,
    /// Every network send's route in machine link ids, in send order.
    routes: Vec<u32>,
    /// The distinct machine links `routes` touches.
    touched: Vec<u32>,
    /// Per machine link: its job-local id while a build runs, `UNSEEN`
    /// between builds.
    local_of: Vec<u32>,
}

/// Everything about one simulation that does not depend on the vector size:
/// per-send routes, latencies and flags, the dependency graph with its
/// per-rank FIFO send order, and the per-link capacity table. The one
/// resolution both implementations run on: the reference builds it per call,
/// the optimized path caches it in the [`SimArena`](super::SimArena) keyed by
/// [`CompiledSchedule::identity`] and revalidates it against the topology
/// shape and touched links, allocation, cost model and fault plan on every
/// use. Per-link columns are indexed by job-local link id (see the module
/// docs).
pub(super) struct CachedStatic {
    // Context validation (see [`CachedStatic::matches`]).
    model: CostModel,
    topo_nodes: usize,
    topo_groups: usize,
    topo_links: usize,
    alloc: Allocation,
    fault: FaultPlan,

    /// Per local link: its machine id (ascending) and what the topology said
    /// about it at build time.
    machine_link: Vec<u32>,
    link_info: Vec<LinkInfo>,

    pub(super) network_messages: u64,

    // Per-send statics, indexed by global send id.
    pub(super) latency_us: Vec<f64>,
    links_off: Vec<u32>,
    links_flat: Vec<u32>,
    pub(super) reduce: Vec<bool>,
    pub(super) local: Vec<bool>,
    pub(super) src: Vec<u32>,
    pub(super) dst: Vec<u32>,

    /// What every send waits for, and each rank's FIFO send queue.
    pub(super) deps: DepGraph,

    /// Per local link capacity in bytes/us, fault factor included (a
    /// healthy link's factor is the identity 1.0 — bit-exact).
    pub(super) link_cap: Vec<f64>,

    /// Per-rank copy and reduce rates in bytes/us: the model's bandwidths
    /// divided by the fault plan's compute slowdowns (identity 1.0 when
    /// healthy — bit-exact).
    pub(super) copy_rates: Vec<f64>,
    pub(super) reduce_rates: Vec<f64>,

    /// Per-send kill time: the earliest crash of an endpoint or severing of
    /// a route link (`INFINITY` when healthy — a min over identities, no
    /// arithmetic, bit-exact).
    pub(super) kill_time: Vec<f64>,

    /// The vector size the `bytes` column currently resolves, if any.
    bytes_n: Option<u64>,
    pub(super) bytes: Vec<f64>,
}

impl CachedStatic {
    /// The local link ids `send` traverses, in traversal order.
    #[inline]
    pub(super) fn links(&self, send: u32) -> &[u32] {
        &self.links_flat
            [self.links_off[send as usize] as usize..self.links_off[send as usize + 1] as usize]
    }

    /// The machine id of local link `link`.
    pub(super) fn machine_link(&self, link: u32) -> u32 {
        self.machine_link[link as usize]
    }

    /// Whether this entry was built for the same context. Allocation-free:
    /// the topology is revalidated by shape (node/group/link counts) and the
    /// links the job touches instead of its heap-allocated `name()`.
    pub(super) fn matches(&self, inputs: &Inputs<'_>) -> bool {
        let topo = inputs.topo;
        self.model == *inputs.model
            && self.fault == *inputs.plan
            && self.topo_nodes == topo.num_nodes()
            && self.topo_groups == topo.num_groups()
            && self.topo_links == topo.num_links()
            && self.alloc == *inputs.alloc
            && self
                .machine_link
                .iter()
                .zip(&self.link_info)
                .all(|(&l, info)| *info == topo.link(l as LinkId))
    }

    /// Resolves the per-send byte counts for vector size `n` (a no-op when
    /// the cached column already matches).
    pub(super) fn ensure_bytes(&mut self, schedule: &CompiledSchedule, n: u64) {
        if self.bytes_n == Some(n) {
            return;
        }
        self.bytes.clear();
        let sends = 0..schedule.num_sends();
        self.bytes
            .extend(sends.map(|i| schedule.send_bytes(i, n) as f64));
        self.bytes_n = Some(n);
    }
}

/// Builds the [`CachedStatic`] for one (schedule, topology, allocation,
/// model, fault plan) context — the only allocating step of the optimized
/// path, paid once per compiled schedule and amortised over every subsequent
/// vector size and repetition. Every network send is routed once, into
/// `scratch`; each kept column is allocated once, at its exact size.
pub(super) fn build_static(inputs: &Inputs<'_>, scratch: &mut StaticScratch) -> CachedStatic {
    let (model, schedule, plan) = (inputs.model, inputs.schedule, inputs.plan);
    let (topo, alloc) = (inputs.topo, inputs.alloc);
    let num_sends = schedule.num_sends();
    let StaticScratch {
        route,
        routes,
        touched,
        local_of,
    } = scratch;
    routes.clear();
    touched.clear();
    if local_of.len() < topo.num_links() {
        local_of.resize(topo.num_links(), UNSEEN);
    }

    let mut latency_us = Vec::with_capacity(num_sends);
    let mut links_off: Vec<u32> = Vec::with_capacity(num_sends + 1);
    let mut reduce = Vec::with_capacity(num_sends);
    let mut local = Vec::with_capacity(num_sends);
    let mut src = Vec::with_capacity(num_sends);
    let mut dst = Vec::with_capacity(num_sends);
    let mut kill_time = Vec::with_capacity(num_sends);
    let mut network_messages = 0u64;
    links_off.push(0);
    for i in 0..num_sends {
        let s = schedule.send(i);
        let is_local = s.is_local();
        let mut lat = if is_local {
            0.0
        } else {
            network_messages += 1;
            model.alpha_us + model.segment_overhead_us * (s.segments.saturating_sub(1)) as f64
        };
        let mut kill = plan
            .crash_time_us(s.src as usize)
            .min(plan.crash_time_us(s.dst as usize));
        if !is_local {
            let (a, b) = (alloc.node_of(s.src as usize), alloc.node_of(s.dst as usize));
            topo.route(a, b, route);
            for &l in route.iter() {
                // A zero spike adds 0.0 — bit-exact for the non-negative
                // latencies topologies produce.
                lat += topo.link(l).latency_us + plan.extra_latency_us(l);
                kill = kill.min(plan.link_down_time_us(l));
                if local_of[l] == UNSEEN {
                    // Seen; numbered once every route is in.
                    local_of[l] = 0;
                    touched.push(l as u32);
                }
            }
            routes.extend(route.iter().map(|&l| l as u32));
        }
        links_off.push(routes.len() as u32);
        kill_time.push(kill);
        latency_us.push(lat);
        reduce.push(s.kind == TransferKind::Reduce);
        local.push(is_local);
        src.push(s.src);
        dst.push(s.dst);
    }

    // Local ids in ascending machine order (see the module docs).
    touched.sort_unstable();
    for (id, &l) in touched.iter().enumerate() {
        local_of[l as usize] = id as u32;
    }
    let links_flat: Vec<u32> = routes.iter().map(|&l| local_of[l as usize]).collect();
    for &l in touched.iter() {
        local_of[l as usize] = UNSEEN;
    }
    let machine_link = touched.to_vec();
    let link_info: Vec<LinkInfo> = touched.iter().map(|&l| topo.link(l as LinkId)).collect();
    let link_cap: Vec<f64> = touched
        .iter()
        .zip(&link_info)
        .map(|(&l, info)| info.bandwidth_gib_s * GIB_PER_US * plan.bandwidth_factor(l as LinkId))
        .collect();
    // Straggler slowdowns divide the compute rates; dividing by the identity
    // 1.0 reproduces the healthy rate bit for bit.
    let slowdowns = (0..schedule.num_ranks).map(|r| plan.compute_slowdown(r));
    let slowed = |gib_s: f64| slowdowns.clone().map(move |by| gib_s * GIB_PER_US / by);

    CachedStatic {
        model: model.clone(),
        topo_nodes: topo.num_nodes(),
        topo_groups: topo.num_groups(),
        topo_links: topo.num_links(),
        alloc: alloc.clone(),
        fault: plan.clone(),
        machine_link,
        link_info,
        network_messages,
        latency_us,
        links_off,
        links_flat,
        reduce,
        local,
        src,
        dst,
        deps: DepGraph::derive(schedule),
        link_cap,
        copy_rates: slowed(model.copy_bandwidth_gib_s).collect(),
        reduce_rates: slowed(model.reduce_bandwidth_gib_s).collect(),
        kill_time,
        bytes_n: None,
        bytes: Vec::new(),
    }
}
