//! Gather schedules (Sec. 4.1).

use bine_core::tree::{build_tree, TreeKind};

use super::builders::tree_gather;
use crate::schedule::Schedule;

/// Gather algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatherAlg {
    /// Distance-halving Bine tree gather: buffers extend alternately upward
    /// and downward on the rank circle, keeping transfers (circularly)
    /// contiguous.
    Bine,
    /// Open MPI-style distance-doubling binomial tree gather.
    BinomialDistanceDoubling,
    /// MPICH-style distance-halving binomial tree gather.
    BinomialDistanceHalving,
}

impl GatherAlg {
    /// All gather algorithms.
    pub const ALL: [GatherAlg; 3] = [
        GatherAlg::Bine,
        GatherAlg::BinomialDistanceDoubling,
        GatherAlg::BinomialDistanceHalving,
    ];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            GatherAlg::Bine => "bine",
            GatherAlg::BinomialDistanceDoubling => "binomial-dd",
            GatherAlg::BinomialDistanceHalving => "binomial-dh",
        }
    }
}

/// Builds the gather schedule for `p` ranks rooted at `root`.
pub fn gather(p: usize, root: usize, alg: GatherAlg) -> Schedule {
    let kind = match alg {
        GatherAlg::Bine => TreeKind::BineDistanceHalving,
        GatherAlg::BinomialDistanceDoubling => TreeKind::BinomialDistanceDoubling,
        GatherAlg::BinomialDistanceHalving => TreeKind::BinomialDistanceHalving,
    };
    tree_gather(&build_tree(kind, p, root), alg.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::BlockId;
    use crate::schedule::Collective;
    use std::collections::HashSet;

    #[test]
    fn all_gather_tree_algorithms_validate_and_deliver_every_block() {
        for &alg in &GatherAlg::ALL {
            for p in [4, 32, 128] {
                let root = p / 3;
                let sched = gather(p, root, alg);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert_eq!(sched.collective, Collective::Gather);
                // Simulate: every rank starts with its own block; the root
                // must end up holding all p blocks.
                let mut held: Vec<HashSet<u32>> =
                    (0..p).map(|r| HashSet::from([r as u32])).collect();
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
                assert_eq!(held[root].len(), p, "{}", alg.name());
            }
        }
    }

    #[test]
    fn gather_message_count_matches_tree_edges() {
        let sched = gather(64, 0, GatherAlg::Bine);
        assert_eq!(sched.messages().count(), 63);
    }

    #[test]
    fn bine_gather_transfers_at_most_two_linear_segments() {
        // Sec. 4.1: Bine gather buffers are circular ranges, so a transfer
        // touches at most two linear memory segments.
        let sched = gather(128, 0, GatherAlg::Bine);
        for (_, m) in sched.messages() {
            assert!(m.segments <= 2, "message with {} segments", m.segments);
        }
    }
}
