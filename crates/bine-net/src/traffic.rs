//! Traffic accounting: how many bytes a schedule pushes over global links
//! when executed on a given topology under a given allocation.
//!
//! This is the paper's headline metric (Tables 3–5 "Traffic Red.", Fig. 1,
//! Fig. 5). Following Fig. 1, *global bytes* count each message once when its
//! endpoints are in different groups; per-link byte counters are additionally
//! kept for the congestion term of the cost model. One walk accounts every
//! network message once: [`measure`] folds it whole, [`per_step`] by step.

use bine_sched::Schedule;

use crate::allocation::Allocation;
use crate::topology::{LinkClass, LinkId, Topology};

/// Byte-level traffic summary of a schedule or one of its steps on one topology/allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficReport {
    /// Total bytes moved over the network (local buffer moves excluded).
    pub total_bytes: u64,
    /// Bytes of messages whose endpoints are in different groups
    /// (counted once per message, as in Fig. 1).
    pub global_bytes: u64,
    /// Number of network messages.
    pub messages: u64,
    /// Number of inter-group messages.
    pub global_messages: u64,
    /// Bytes · links products accumulated per link class (local / global),
    /// i.e. the load actually offered to each class of link.
    pub local_link_bytes: u64,
    /// See [`TrafficReport::local_link_bytes`], for global links.
    pub global_link_bytes: u64,
    /// The largest number of bytes offered to any single link.
    pub max_link_bytes: u64,
}

impl TrafficReport {
    /// Accounts one network message along `route`; the busiest link is the
    /// caller's.
    fn add(&mut self, bytes: u64, global: bool, route: &[LinkId], topo: &dyn Topology) {
        self.total_bytes += bytes;
        self.messages += 1;
        if global {
            self.global_bytes += bytes;
            self.global_messages += 1;
        }
        for &link in route {
            match topo.link(link).class {
                LinkClass::Local => self.local_link_bytes += bytes,
                LinkClass::Global => self.global_link_bytes += bytes,
            }
        }
    }
}

/// The one walk over `schedule`'s network traffic at `n` bytes: every network
/// message once, in step order, as `visit(step, bytes, global, route)`.
fn walk(
    schedule: &Schedule,
    n: u64,
    topo: &dyn Topology,
    alloc: &Allocation,
    mut visit: impl FnMut(usize, u64, bool, &[LinkId]),
) {
    assert!(
        alloc.num_ranks() >= schedule.num_ranks,
        "allocation has {} ranks, schedule needs {}",
        alloc.num_ranks(),
        schedule.num_ranks
    );
    let mut route = Vec::new();
    for (step, m) in schedule.messages().filter(|(_, m)| !m.is_local()) {
        let (src, dst) = (alloc.node_of(m.src), alloc.node_of(m.dst));
        topo.route(src, dst, &mut route);
        let global = src != dst && topo.crosses_groups(src, dst);
        visit(step, schedule.message_bytes(m, n), global, &route);
    }
}

/// Measures the traffic of `schedule` with vectors of `n` bytes on `topo`
/// under `alloc`.
///
/// # Panics
/// Panics if the allocation has fewer ranks than the schedule.
pub fn measure(
    schedule: &Schedule,
    n: u64,
    topo: &dyn Topology,
    alloc: &Allocation,
) -> TrafficReport {
    let mut report = TrafficReport::default();
    let mut per_link = vec![0u64; topo.num_links()];
    walk(schedule, n, topo, alloc, |_, bytes, global, route| {
        report.add(bytes, global, route, topo);
        route.iter().for_each(|&link| per_link[link] += bytes);
    });
    report.max_link_bytes = per_link.into_iter().max().unwrap_or(0);
    report
}

/// [`measure`] step by step, and panicking where it does: one report per
/// step of `schedule`, its busiest link the step's own.
pub fn per_step(
    schedule: &Schedule,
    n: u64,
    topo: &dyn Topology,
    alloc: &Allocation,
) -> Vec<TrafficReport> {
    let mut steps = vec![TrafficReport::default(); schedule.num_steps()];
    let mut per_link = vec![(0, 0u64); topo.num_links()]; // (step, bytes in it)
    walk(schedule, n, topo, alloc, |step, bytes, global, route| {
        let report = &mut steps[step];
        report.add(bytes, global, route, topo);
        for &link in route {
            let (of, offered) = per_link[link];
            per_link[link] = (step, if of == step { offered + bytes } else { bytes });
            report.max_link_bytes = report.max_link_bytes.max(per_link[link].1);
        }
    });
    steps
}

/// Convenience wrapper returning only the global bytes of a schedule.
pub fn global_bytes(schedule: &Schedule, n: u64, topo: &dyn Topology, alloc: &Allocation) -> u64 {
    measure(schedule, n, topo, alloc).global_bytes
}

/// Relative reduction in global traffic of `candidate` with respect to
/// `baseline` (positive = candidate sends fewer bytes over global links).
pub fn global_traffic_reduction(
    candidate: &Schedule,
    baseline: &Schedule,
    n: u64,
    topo: &dyn Topology,
    alloc: &Allocation,
) -> f64 {
    let c = global_bytes(candidate, n, topo, alloc) as f64;
    let b = global_bytes(baseline, n, topo, alloc) as f64;
    if b == 0.0 {
        0.0
    } else {
        1.0 - c / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTree;
    use bine_sched::collectives::{broadcast, BroadcastAlg};

    /// The worked example of Fig. 1: on an 8-node, 2:1 oversubscribed fat
    /// tree with two nodes per switch, a distance-doubling binomial broadcast
    /// sends 6n bytes over global links while the distance-halving variant
    /// sends 3n.
    #[test]
    fn figure1_global_traffic() {
        let topo = FatTree::figure1();
        let alloc = Allocation::block(8);
        let n = 1_000u64;

        let dd = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
        let dh = broadcast(8, 0, BroadcastAlg::BinomialDistanceHalving);
        assert_eq!(global_bytes(&dd, n, &topo, &alloc), 6 * n);
        assert_eq!(global_bytes(&dh, n, &topo, &alloc), 3 * n);

        // Both move the same total volume.
        assert_eq!(measure(&dd, n, &topo, &alloc).total_bytes, 7 * n);
        assert_eq!(measure(&dh, n, &topo, &alloc).total_bytes, 7 * n);
        // Step by step: doubling crosses groups from its second step on.
        let steps = per_step(&dd, n, &topo, &alloc);
        let global: Vec<u64> = steps.iter().map(|step| step.global_bytes).collect();
        assert_eq!(global, [0, 2 * n, 4 * n]);
    }

    #[test]
    fn bine_tree_is_no_worse_than_distance_halving_on_figure1() {
        let topo = FatTree::figure1();
        let alloc = Allocation::block(8);
        let n = 1_000u64;
        let bine = broadcast(8, 0, BroadcastAlg::BineTree);
        assert!(global_bytes(&bine, n, &topo, &alloc) <= 3 * n);
    }

    #[test]
    fn reduction_metric_is_relative() {
        let topo = FatTree::figure1();
        let alloc = Allocation::block(8);
        let n = 1_000u64;
        let dd = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
        let dh = broadcast(8, 0, BroadcastAlg::BinomialDistanceHalving);
        let red = global_traffic_reduction(&dh, &dd, n, &topo, &alloc);
        assert!((red - 0.5).abs() < 1e-9);
    }

    #[test]
    fn intra_group_traffic_is_never_global() {
        let topo = FatTree::new(8, 8, 4);
        let alloc = Allocation::block(8);
        let sched = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
        let report = measure(&sched, 100, &topo, &alloc);
        assert_eq!(report.global_bytes, 0);
        assert_eq!(report.global_messages, 0);
        assert!(report.total_bytes > 0);
    }
}
