//! Scatter schedules (Sec. 4.2).

use bine_core::tree::{build_tree, TreeKind};

use super::builders::tree_scatter;
use crate::schedule::Schedule;

/// Scatter algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScatterAlg {
    /// Distance-halving Bine tree scatter (the reverse of the Bine gather).
    Bine,
    /// Open MPI-style distance-doubling binomial tree scatter.
    BinomialDistanceDoubling,
    /// MPICH-style distance-halving binomial tree scatter.
    BinomialDistanceHalving,
}

impl ScatterAlg {
    /// All scatter algorithms.
    pub const ALL: [ScatterAlg; 3] = [
        ScatterAlg::Bine,
        ScatterAlg::BinomialDistanceDoubling,
        ScatterAlg::BinomialDistanceHalving,
    ];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            ScatterAlg::Bine => "bine",
            ScatterAlg::BinomialDistanceDoubling => "binomial-dd",
            ScatterAlg::BinomialDistanceHalving => "binomial-dh",
        }
    }
}

/// Builds the scatter schedule for `p` ranks rooted at `root`.
pub fn scatter(p: usize, root: usize, alg: ScatterAlg) -> Schedule {
    let kind = match alg {
        ScatterAlg::Bine => TreeKind::BineDistanceHalving,
        ScatterAlg::BinomialDistanceDoubling => TreeKind::BinomialDistanceDoubling,
        ScatterAlg::BinomialDistanceHalving => TreeKind::BinomialDistanceHalving,
    };
    tree_scatter(&build_tree(kind, p, root), alg.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::BlockId;
    use crate::schedule::Collective;
    use std::collections::HashSet;

    #[test]
    fn all_scatter_algorithms_deliver_each_block_to_its_rank() {
        for &alg in &ScatterAlg::ALL {
            for p in [4, 32, 128] {
                let root = p - 1;
                let sched = scatter(p, root, alg);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert_eq!(sched.collective, Collective::Scatter);
                // Simulate: the root starts with all blocks; at the end every
                // rank must hold its own block.
                let mut held: Vec<HashSet<u32>> = (0..p).map(|_| HashSet::new()).collect();
                held[root] = (0..p as u32).collect();
                for step in &sched.steps {
                    let snap = held.clone();
                    for m in step.messages() {
                        for b in m.blocks {
                            if let BlockId::Segment(i) = b {
                                assert!(
                                    snap[m.src].contains(i),
                                    "{}: sender misses block",
                                    alg.name()
                                );
                                held[m.dst].insert(*i);
                            }
                        }
                    }
                }
                for (r, set) in held.iter().enumerate() {
                    assert!(
                        set.contains(&(r as u32)),
                        "{}: rank {r} missing its block",
                        alg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_is_the_mirror_of_gather_in_volume() {
        let n = 1 << 20;
        for p in [16, 64] {
            let s = scatter(p, 0, ScatterAlg::Bine);
            let g = super::super::gather::gather(p, 0, super::super::gather::GatherAlg::Bine);
            assert_eq!(s.total_network_bytes(n), g.total_network_bytes(n));
        }
    }

    #[test]
    fn scatter_root_sends_the_whole_vector_once() {
        let n = 1 << 20u64;
        let sched = scatter(64, 0, ScatterAlg::Bine);
        let root_bytes: u64 = sched
            .messages()
            .filter(|(_, m)| m.src == 0 && !m.is_local())
            .map(|(_, m)| sched.message_bytes(m, n))
            .sum();
        // The root sends every block except its own exactly once.
        assert_eq!(root_bytes, n - n / 64);
    }
}
