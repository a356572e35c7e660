//! Reduce schedules (Sec. 4.5).

use bine_core::butterfly::{Butterfly, ButterflyKind};
use bine_core::tree::{build_tree, TreeKind};

use super::builders::{butterfly_reduce_scatter, compose, tree_gather, tree_reduce};
use crate::noncontig::NonContigStrategy;
use crate::schedule::{Collective, Schedule};

/// Reduce algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceAlg {
    /// Small-vector Bine reduce: distance-halving Bine tree, leaves to root.
    BineTree,
    /// Large-vector Bine reduce: distance-doubling Bine butterfly
    /// reduce-scatter followed by a distance-halving Bine tree gather.
    BineReduceScatterGather,
    /// Open MPI-style distance-doubling binomial tree.
    BinomialDistanceDoubling,
    /// MPICH-style distance-halving binomial tree.
    BinomialDistanceHalving,
    /// Rabenseifner-style large-vector reduce: recursive-halving
    /// reduce-scatter followed by a binomial gather.
    ReduceScatterGather,
}

impl ReduceAlg {
    /// All reduce algorithms.
    pub const ALL: [ReduceAlg; 5] = [
        ReduceAlg::BineTree,
        ReduceAlg::BineReduceScatterGather,
        ReduceAlg::BinomialDistanceDoubling,
        ReduceAlg::BinomialDistanceHalving,
        ReduceAlg::ReduceScatterGather,
    ];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceAlg::BineTree => "bine-tree",
            ReduceAlg::BineReduceScatterGather => "bine-rs-gather",
            ReduceAlg::BinomialDistanceDoubling => "binomial-dd",
            ReduceAlg::BinomialDistanceHalving => "binomial-dh",
            ReduceAlg::ReduceScatterGather => "rs-gather",
        }
    }
}

/// Builds the reduce schedule for `p` ranks rooted at `root`.
pub fn reduce(p: usize, root: usize, alg: ReduceAlg) -> Schedule {
    let kind = match alg {
        ReduceAlg::BineTree | ReduceAlg::BineReduceScatterGather => TreeKind::BineDistanceHalving,
        ReduceAlg::BinomialDistanceDoubling => TreeKind::BinomialDistanceDoubling,
        ReduceAlg::BinomialDistanceHalving | ReduceAlg::ReduceScatterGather => {
            TreeKind::BinomialDistanceHalving
        }
    };
    // The large-vector variants reduce-scatter over a butterfly, then gather
    // up the tree.
    let butterfly = match alg {
        ReduceAlg::BineReduceScatterGather => ButterflyKind::BineDistanceDoubling,
        ReduceAlg::ReduceScatterGather => ButterflyKind::RecursiveHalving,
        _ => return tree_reduce(&build_tree(kind, p, root), alg.name()),
    };
    let rs = butterfly_reduce_scatter(
        &Butterfly::new(butterfly, p),
        NonContigStrategy::Permute,
        alg.name(),
    );
    let gather = tree_gather(&build_tree(kind, p, root), alg.name());
    compose(Collective::Reduce, alg.name(), root, rs, gather)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reduce_algorithms_validate() {
        for &alg in &ReduceAlg::ALL {
            for p in [2, 16, 128] {
                let sched = reduce(p, p / 2, alg);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert_eq!(sched.collective, Collective::Reduce);
            }
        }
    }

    #[test]
    fn tree_reduce_mirrors_broadcast() {
        // Tree reduce has the same edges as the broadcast tree, reversed.
        let sched = reduce(32, 0, ReduceAlg::BineTree);
        assert_eq!(sched.messages().count(), 31);
        // The root never sends, only receives.
        assert!(sched.messages().all(|(_, m)| m.src != 0));
        let recvs_by_root = sched.messages().filter(|(_, m)| m.dst == 0).count();
        assert_eq!(recvs_by_root, 5); // one per step: log2(32)
    }

    #[test]
    fn large_vector_reduce_has_lower_per_rank_load() {
        // In a binomial tree reduce the root receives (and reduces) n·log2(p)
        // bytes; the reduce-scatter + gather composition spreads that work.
        let n = 1 << 22;
        let tree = reduce(64, 0, ReduceAlg::BinomialDistanceDoubling);
        let rsg = reduce(64, 0, ReduceAlg::BineReduceScatterGather);
        assert!(rsg.max_bytes_received_by_rank(n) < tree.max_bytes_received_by_rank(n));
    }
}
