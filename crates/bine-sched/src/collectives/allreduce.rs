//! Allreduce schedules (Sec. 4.4).

use bine_core::butterfly::{Butterfly, ButterflyKind};

use super::builders::{
    butterfly_allgather, butterfly_allgather_permute, butterfly_allreduce_small,
    butterfly_reduce_scatter_composed, compose, dual_root_allreduce, mark_noncontiguous,
    ring_allgather, ring_reduce_scatter,
};
use crate::schedule::{Collective, Schedule};

/// Allreduce algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceAlg {
    /// Small-vector Bine allreduce: recursive doubling over the Bine
    /// distance-halving butterfly.
    BineSmall,
    /// Large-vector Bine allreduce: Bine distance-doubling reduce-scatter
    /// followed by a Bine distance-halving allgather.
    BineLarge,
    /// Standard recursive-doubling allreduce.
    RecursiveDoubling,
    /// Rabenseifner allreduce: recursive-halving reduce-scatter followed by
    /// a recursive-doubling allgather.
    Rabenseifner,
    /// Ring allreduce (ring reduce-scatter + ring allgather).
    Ring,
    /// Swing allreduce: the Bine-large peer sequence with Swing's
    /// non-contiguous block handling.
    Swing,
    /// Träff's dual-root reduction-to-all: two interleaved binomial trees
    /// rooted at ranks `0` and `p/2`, each reducing and re-broadcasting one
    /// half of the vector. Pipelines via the `+segS` transform ("doubly
    /// pipelined" in the paper's terms).
    DualRootPipelined,
}

impl AllreduceAlg {
    /// All allreduce algorithms.
    pub const ALL: [AllreduceAlg; 7] = [
        AllreduceAlg::BineSmall,
        AllreduceAlg::BineLarge,
        AllreduceAlg::RecursiveDoubling,
        AllreduceAlg::Rabenseifner,
        AllreduceAlg::Ring,
        AllreduceAlg::Swing,
        AllreduceAlg::DualRootPipelined,
    ];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            AllreduceAlg::BineSmall => "bine-small",
            AllreduceAlg::BineLarge => "bine-large",
            AllreduceAlg::RecursiveDoubling => "recursive-doubling",
            AllreduceAlg::Rabenseifner => "rabenseifner",
            AllreduceAlg::Ring => "ring",
            AllreduceAlg::Swing => "swing",
            AllreduceAlg::DualRootPipelined => "dual-root",
        }
    }
}

/// Builds the allreduce schedule for `p` ranks.
pub fn allreduce(p: usize, alg: AllreduceAlg) -> Schedule {
    match alg {
        AllreduceAlg::BineSmall => butterfly_allreduce_small(
            &Butterfly::new(ButterflyKind::BineDistanceHalving, p),
            alg.name(),
        ),
        AllreduceAlg::RecursiveDoubling => butterfly_allreduce_small(
            &Butterfly::new(ButterflyKind::RecursiveDoubling, p),
            alg.name(),
        ),
        AllreduceAlg::BineLarge => {
            // Sec. 4.4: reduce-scatter on the distance-doubling butterfly,
            // allgather on the distance-halving one. The allgather implicitly
            // restores the block order, so no explicit permutation is paid.
            let rs = butterfly_reduce_scatter_composed(
                &Butterfly::new(ButterflyKind::BineDistanceDoubling, p),
                alg.name(),
            );
            let ag = butterfly_allgather_permute(
                &Butterfly::new(ButterflyKind::BineDistanceHalving, p),
                false,
                alg.name(),
            );
            compose(Collective::Allreduce, alg.name(), 0, rs, ag)
        }
        AllreduceAlg::Rabenseifner => {
            let rs = butterfly_reduce_scatter_composed(
                &Butterfly::new(ButterflyKind::RecursiveHalving, p),
                alg.name(),
            );
            let ag = butterfly_allgather(
                &Butterfly::new(ButterflyKind::RecursiveDoubling, p),
                alg.name(),
            );
            compose(Collective::Allreduce, alg.name(), 0, rs, ag)
        }
        AllreduceAlg::Ring => {
            let rs = ring_reduce_scatter(p, alg.name());
            let ag = ring_allgather(p, alg.name());
            compose(Collective::Allreduce, alg.name(), 0, rs, ag)
        }
        AllreduceAlg::Swing => {
            let rs = mark_noncontiguous(butterfly_reduce_scatter_composed(
                &Butterfly::new(ButterflyKind::BineDistanceDoubling, p),
                alg.name(),
            ));
            let ag = mark_noncontiguous(butterfly_allgather(
                &Butterfly::new(ButterflyKind::BineDistanceHalving, p),
                alg.name(),
            ));
            compose(Collective::Allreduce, alg.name(), 0, rs, ag)
        }
        AllreduceAlg::DualRootPipelined => dual_root_allreduce(p, alg.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_allreduce_algorithms_validate() {
        for &alg in &AllreduceAlg::ALL {
            for p in [2, 16, 128] {
                let sched = allreduce(p, alg);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert_eq!(sched.collective, Collective::Allreduce);
            }
        }
    }

    #[test]
    fn step_counts_match_the_textbook_values() {
        let p = 256;
        assert_eq!(allreduce(p, AllreduceAlg::BineSmall).num_steps(), 8);
        assert_eq!(allreduce(p, AllreduceAlg::RecursiveDoubling).num_steps(), 8);
        assert_eq!(allreduce(p, AllreduceAlg::BineLarge).num_steps(), 16);
        assert_eq!(allreduce(p, AllreduceAlg::Rabenseifner).num_steps(), 16);
        assert_eq!(allreduce(p, AllreduceAlg::Ring).num_steps(), 2 * (p - 1));
        // Dual-root: log2(p) tree levels per phase, two interleaved trees.
        assert_eq!(
            allreduce(p, AllreduceAlg::DualRootPipelined).num_steps(),
            4 * 8
        );
    }

    #[test]
    fn dual_root_halves_the_full_vector_tree_traffic() {
        let p = 64;
        let n = 1 << 20u64;
        let dual = allreduce(p, AllreduceAlg::DualRootPipelined);
        // Each phase crosses every edge of both trees once with a half
        // vector: 2 trees * (p - 1) edges * n/2 per phase, two phases.
        assert_eq!(dual.total_network_bytes(n), 2 * (p as u64 - 1) * n);
        // A single-tree reduce + broadcast at full vector size moves the
        // same volume but with every message twice as large — the dual-root
        // variant's advantage is concurrency, not volume.
        // The halves pipeline: each half is a multi-block message, so the
        // segmentation transform genuinely splits it.
        let seg = dual.segmented(4);
        assert!(seg.messages().count() > dual.messages().count());
        assert!(seg.validate().is_ok());
    }

    #[test]
    fn large_vector_algorithms_move_less_per_rank_than_recursive_doubling() {
        let p = 64;
        let n = 1 << 24u64;
        let rd = allreduce(p, AllreduceAlg::RecursiveDoubling);
        let large = allreduce(p, AllreduceAlg::BineLarge);
        let ring = allreduce(p, AllreduceAlg::Ring);
        // Recursive doubling sends n·log2(p) per rank; RS+AG sends ~2n.
        assert!(large.max_bytes_sent_by_rank(n) < rd.max_bytes_sent_by_rank(n) / 2);
        // The ring and the butterfly RS+AG move the same optimal volume.
        assert_eq!(
            ring.max_bytes_sent_by_rank(n),
            large.max_bytes_sent_by_rank(n)
        );
    }

    #[test]
    fn bine_and_swing_share_volume_but_not_contiguity() {
        let p = 128;
        let n = 1 << 20u64;
        let bine = allreduce(p, AllreduceAlg::BineLarge);
        let swing = allreduce(p, AllreduceAlg::Swing);
        assert_eq!(bine.total_network_bytes(n), swing.total_network_bytes(n));
        let max_seg = |s: &Schedule| s.messages().map(|(_, m)| m.segments).max().unwrap();
        assert_eq!(max_seg(&bine), 1);
        assert!(max_seg(&swing) > 1);
    }
}
