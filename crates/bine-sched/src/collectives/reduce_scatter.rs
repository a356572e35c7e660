//! Reduce-scatter schedules (Sec. 4.3).

use bine_core::butterfly::{Butterfly, ButterflyKind};

use super::builders::{butterfly_reduce_scatter, mark_noncontiguous, ring_reduce_scatter};
use crate::noncontig::NonContigStrategy;
use crate::schedule::Schedule;

/// Reduce-scatter algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceScatterAlg {
    /// Bine distance-doubling butterfly with a non-contiguous-data strategy
    /// (Sec. 4.3.1). The default strategy is `Permute`.
    Bine(NonContigStrategy),
    /// Standard recursive-halving butterfly reduce-scatter.
    RecursiveHalving,
    /// Ring reduce-scatter (`p − 1` nearest-neighbour steps).
    Ring,
    /// Swing reduce-scatter: same peer sequence as the Bine butterfly but
    /// with the original non-contiguous block layout.
    Swing,
}

impl ReduceScatterAlg {
    /// The algorithms compared in the paper's evaluation (Bine uses the
    /// default `Permute` strategy here; Fig. 14 sweeps the other strategies).
    pub const ALL: [ReduceScatterAlg; 4] = [
        ReduceScatterAlg::Bine(NonContigStrategy::Permute),
        ReduceScatterAlg::RecursiveHalving,
        ReduceScatterAlg::Ring,
        ReduceScatterAlg::Swing,
    ];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceScatterAlg::Bine(NonContigStrategy::Permute) => "bine-permute",
            ReduceScatterAlg::Bine(NonContigStrategy::BlockByBlock) => "bine-block-by-block",
            ReduceScatterAlg::Bine(NonContigStrategy::Send) => "bine-send",
            ReduceScatterAlg::Bine(NonContigStrategy::TwoTransmissions) => "bine-two-transmissions",
            ReduceScatterAlg::RecursiveHalving => "recursive-halving",
            ReduceScatterAlg::Ring => "ring",
            ReduceScatterAlg::Swing => "swing",
        }
    }
}

/// Builds the reduce-scatter schedule for `p` ranks.
pub fn reduce_scatter(p: usize, alg: ReduceScatterAlg) -> Schedule {
    match alg {
        ReduceScatterAlg::Bine(strategy) => {
            // The "two transmissions" strategy switches to a distance-halving
            // butterfly, whose exchanged block sets stay circularly
            // contiguous (Sec. 4.3.1).
            let kind = if strategy == NonContigStrategy::TwoTransmissions {
                ButterflyKind::BineDistanceHalving
            } else {
                ButterflyKind::BineDistanceDoubling
            };
            butterfly_reduce_scatter(&Butterfly::new(kind, p), strategy, alg.name())
        }
        ReduceScatterAlg::RecursiveHalving => butterfly_reduce_scatter(
            &Butterfly::new(ButterflyKind::RecursiveHalving, p),
            NonContigStrategy::TwoTransmissions,
            alg.name(),
        ),
        ReduceScatterAlg::Ring => ring_reduce_scatter(p, alg.name()),
        ReduceScatterAlg::Swing => mark_noncontiguous(butterfly_reduce_scatter(
            &Butterfly::new(ButterflyKind::BineDistanceDoubling, p),
            NonContigStrategy::Send,
            alg.name(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Collective;
    use crate::schedule::{BlockId, TransferKind};
    use std::collections::HashMap;

    fn algorithms_under_test() -> Vec<ReduceScatterAlg> {
        let mut algs = vec![
            ReduceScatterAlg::RecursiveHalving,
            ReduceScatterAlg::Ring,
            ReduceScatterAlg::Swing,
        ];
        for s in NonContigStrategy::ALL {
            algs.push(ReduceScatterAlg::Bine(s));
        }
        algs
    }

    /// Simulates the reduction dataflow: each rank's contribution to block
    /// `b` must reach the rank that finally owns `b` exactly once.
    fn check_reduction_coverage(sched: &Schedule, p: usize) {
        // contributions[r][b] = set of ranks whose input is already folded
        // into rank r's partial value of block b.
        let mut contrib: Vec<HashMap<u32, Vec<bool>>> = (0..p)
            .map(|r| {
                (0..p as u32)
                    .map(|b| {
                        let mut v = vec![false; p];
                        v[r] = true;
                        (b, v)
                    })
                    .collect()
            })
            .collect();
        for step in &sched.steps {
            let snapshot = contrib.clone();
            for m in step.messages() {
                if m.is_local() {
                    continue;
                }
                for blk in m.blocks {
                    if let BlockId::Segment(b) = blk {
                        let incoming = snapshot[m.src][b].clone();
                        let entry = contrib[m.dst].get_mut(b).unwrap();
                        for (i, had) in incoming.iter().enumerate() {
                            if *had {
                                if m.kind == TransferKind::Reduce {
                                    assert!(
                                        !entry[i] || snapshot[m.dst][b][i],
                                        "{}: contribution of rank {i} applied twice to block {b}",
                                        sched.algorithm
                                    );
                                }
                                entry[i] = true;
                            }
                        }
                    }
                }
            }
        }
        for r in 0..p {
            let own = &contrib[r][&(r as u32)];
            assert!(
                own.iter().all(|&x| x),
                "{}: rank {r} is missing contributions for its block",
                sched.algorithm
            );
        }
    }

    #[test]
    fn all_reduce_scatter_algorithms_cover_every_contribution() {
        for alg in algorithms_under_test() {
            for p in [4, 16, 64] {
                let sched = reduce_scatter(p, alg);
                assert!(sched.validate().is_ok(), "{}", sched.algorithm);
                assert_eq!(sched.collective, Collective::ReduceScatter);
                check_reduction_coverage(&sched, p);
            }
        }
    }

    #[test]
    fn strategy_affects_contiguity_not_volume() {
        let p = 64;
        let n = 1 << 22u64;
        let base = reduce_scatter(p, ReduceScatterAlg::Bine(NonContigStrategy::Permute));
        let bbb = reduce_scatter(p, ReduceScatterAlg::Bine(NonContigStrategy::BlockByBlock));
        assert_eq!(base.total_network_bytes(n), bbb.total_network_bytes(n));
        let max_seg = |s: &Schedule| s.messages().map(|(_, m)| m.segments).max().unwrap();
        assert_eq!(max_seg(&base), 1);
        assert!(max_seg(&bbb) > 1);
    }

    #[test]
    fn two_transmissions_uses_at_most_two_segments() {
        let sched = reduce_scatter(
            128,
            ReduceScatterAlg::Bine(NonContigStrategy::TwoTransmissions),
        );
        for (_, m) in sched.messages() {
            assert!(m.segments <= 2, "{} segments", m.segments);
        }
    }

    #[test]
    fn send_strategy_moves_slightly_more_data_than_permute() {
        let p = 32;
        let n = 1 << 20u64;
        let permute = reduce_scatter(p, ReduceScatterAlg::Bine(NonContigStrategy::Permute));
        let send = reduce_scatter(p, ReduceScatterAlg::Bine(NonContigStrategy::Send));
        assert!(send.total_network_bytes(n) > permute.total_network_bytes(n));
        // ... by exactly one extra block per rank that needs reordering.
        assert!(send.total_network_bytes(n) <= permute.total_network_bytes(n) + n);
    }
}
