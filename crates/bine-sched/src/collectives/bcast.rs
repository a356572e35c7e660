//! Broadcast schedules (Sec. 4.5).

use bine_core::butterfly::{Butterfly, ButterflyKind};
use bine_core::tree::{build_tree, TreeKind};

use super::builders::{butterfly_allgather, compose, tree_broadcast, tree_scatter};
use crate::schedule::{Collective, Schedule};

/// Broadcast algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BroadcastAlg {
    /// Small-vector Bine broadcast: distance-halving Bine tree.
    BineTree,
    /// Large-vector Bine broadcast: distance-doubling Bine scatter followed
    /// by a distance-halving Bine allgather.
    BineScatterAllgather,
    /// Open MPI-style distance-doubling binomial tree.
    BinomialDistanceDoubling,
    /// MPICH-style distance-halving binomial tree.
    BinomialDistanceHalving,
    /// MPICH/Open MPI large-vector broadcast: binomial scatter followed by a
    /// recursive-doubling allgather.
    ScatterAllgather,
}

impl BroadcastAlg {
    /// All broadcast algorithms.
    pub const ALL: [BroadcastAlg; 5] = [
        BroadcastAlg::BineTree,
        BroadcastAlg::BineScatterAllgather,
        BroadcastAlg::BinomialDistanceDoubling,
        BroadcastAlg::BinomialDistanceHalving,
        BroadcastAlg::ScatterAllgather,
    ];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            BroadcastAlg::BineTree => "bine-tree",
            BroadcastAlg::BineScatterAllgather => "bine-scatter-allgather",
            BroadcastAlg::BinomialDistanceDoubling => "binomial-dd",
            BroadcastAlg::BinomialDistanceHalving => "binomial-dh",
            BroadcastAlg::ScatterAllgather => "scatter-allgather",
        }
    }
}

/// Builds the broadcast schedule for `p` ranks rooted at `root`.
///
/// # Panics
/// Panics if `p` is not a power of two: nothing folds other rank counts
/// onto the trees, and [`crate::build`] returns `None` for them instead.
pub fn broadcast(p: usize, root: usize, alg: BroadcastAlg) -> Schedule {
    let kind = match alg {
        BroadcastAlg::BineTree => TreeKind::BineDistanceHalving,
        BroadcastAlg::BineScatterAllgather => TreeKind::BineDistanceDoubling,
        BroadcastAlg::BinomialDistanceDoubling => TreeKind::BinomialDistanceDoubling,
        BroadcastAlg::BinomialDistanceHalving | BroadcastAlg::ScatterAllgather => {
            TreeKind::BinomialDistanceHalving
        }
    };
    let tree = build_tree(kind, p, root);
    // The large-vector variants scatter down the tree, then allgather over a
    // butterfly.
    let allgather = match alg {
        BroadcastAlg::BineScatterAllgather => ButterflyKind::BineDistanceHalving,
        BroadcastAlg::ScatterAllgather => ButterflyKind::RecursiveDoubling,
        _ => return tree_broadcast(&tree, alg.name()),
    };
    let scatter = tree_scatter(&tree, alg.name());
    let allgather = butterfly_allgather(&Butterfly::new(allgather, p), alg.name());
    compose(Collective::Broadcast, alg.name(), root, scatter, allgather)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_broadcast_algorithms_validate() {
        for &alg in &BroadcastAlg::ALL {
            for p in [2, 8, 64, 256] {
                let sched = broadcast(p, 3 % p, alg);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert_eq!(sched.collective, Collective::Broadcast);
            }
        }
    }

    #[test]
    fn tree_broadcasts_move_full_vectors() {
        let sched = broadcast(16, 0, BroadcastAlg::BineTree);
        assert_eq!(sched.total_network_bytes(1 << 20), 15 << 20);
    }

    #[test]
    fn scatter_allgather_has_lower_per_rank_load_than_tree_for_large_vectors() {
        // The scatter+allgather broadcast sends ~2n from the busiest rank
        // instead of n·log2(p) from the root of a binomial tree.
        let n = 1 << 20;
        let tree = broadcast(64, 0, BroadcastAlg::BinomialDistanceDoubling);
        let sag = broadcast(64, 0, BroadcastAlg::BineScatterAllgather);
        assert!(sag.max_bytes_sent_by_rank(n) < tree.max_bytes_sent_by_rank(n));
        assert!(tree.max_bytes_sent_by_rank(n) >= 6 * n);
        assert!(sag.max_bytes_sent_by_rank(n) <= 3 * n);
    }
}
