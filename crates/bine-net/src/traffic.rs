//! Traffic accounting: how many bytes a schedule pushes over global links
//! when executed on a given topology under a given allocation.
//!
//! This is the paper's headline metric (Tables 3–5 "Traffic Red.", Fig. 1,
//! Fig. 5). Following Fig. 1, *global bytes* count each message once when its
//! endpoints are in different groups; per-link byte counters are additionally
//! kept for the congestion term of the cost model.

use bine_sched::Schedule;

use crate::allocation::Allocation;
use crate::topology::{LinkClass, Topology};

/// Byte-level traffic summary of one schedule on one topology/allocation.
#[derive(Debug, Clone, PartialEq)]
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
    /// Fraction of the total bytes that crossed group boundaries.
    pub fn global_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.global_bytes as f64 / self.total_bytes as f64
        }
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
    assert!(
        alloc.num_ranks() >= schedule.num_ranks,
        "allocation has {} ranks, schedule needs {}",
        alloc.num_ranks(),
        schedule.num_ranks
    );
    let mut report = TrafficReport {
        total_bytes: 0,
        global_bytes: 0,
        messages: 0,
        global_messages: 0,
        local_link_bytes: 0,
        global_link_bytes: 0,
        max_link_bytes: 0,
    };
    let mut per_link = vec![0u64; topo.num_links()];
    let mut route = Vec::new();
    for (_, m) in schedule.messages() {
        if m.is_local() {
            continue;
        }
        let bytes = schedule.message_bytes(m, n);
        let (src, dst) = (alloc.node_of(m.src), alloc.node_of(m.dst));
        report.total_bytes += bytes;
        report.messages += 1;
        if src != dst && topo.crosses_groups(src, dst) {
            report.global_bytes += bytes;
            report.global_messages += 1;
        }
        topo.route(src, dst, &mut route);
        for &link in &route {
            per_link[link] += bytes;
            match topo.link(link).class {
                LinkClass::Local => report.local_link_bytes += bytes,
                LinkClass::Global => report.global_link_bytes += bytes,
            }
        }
    }
    report.max_link_bytes = per_link.into_iter().max().unwrap_or(0);
    report
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
