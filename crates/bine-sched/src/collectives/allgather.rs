//! Allgather schedules (Sec. 4.3).

use bine_core::butterfly::{Butterfly, ButterflyKind};

use super::builders::{
    butterfly_allgather, butterfly_allgather_permute, force_contiguous, mark_noncontiguous,
    ring_allgather,
};
use crate::catalog::RankRule;
use crate::noncontig::NonContigStrategy;
use crate::schedule::Schedule;
use crate::schedule::{BlockId, Collective, Step, TransferKind};

/// Allgather algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllgatherAlg {
    /// Bine distance-halving butterfly allgather: the largest transfers of
    /// the final steps travel the shortest modular distances.
    Bine,
    /// Standard recursive-doubling butterfly allgather.
    RecursiveDoubling,
    /// Ring allgather (`p − 1` nearest-neighbour steps).
    Ring,
    /// Swing allgather: same peer sequence as the Bine butterfly but with
    /// the non-contiguous block layout of the original Swing algorithm.
    Swing,
}

impl AllgatherAlg {
    /// All allgather algorithms.
    pub const ALL: [AllgatherAlg; 4] = [
        AllgatherAlg::Bine,
        AllgatherAlg::RecursiveDoubling,
        AllgatherAlg::Ring,
        AllgatherAlg::Swing,
    ];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            AllgatherAlg::Bine => "bine",
            AllgatherAlg::RecursiveDoubling => "recursive-doubling",
            AllgatherAlg::Ring => "ring",
            AllgatherAlg::Swing => "swing",
        }
    }
}

/// Builds the allgather schedule for `p` ranks.
pub fn allgather(p: usize, alg: AllgatherAlg) -> Schedule {
    match alg {
        AllgatherAlg::Bine => butterfly_allgather_permute(
            &Butterfly::new(ButterflyKind::BineDistanceHalving, p),
            true,
            alg.name(),
        ),
        AllgatherAlg::RecursiveDoubling => butterfly_allgather(
            &Butterfly::new(ButterflyKind::RecursiveDoubling, p),
            alg.name(),
        ),
        AllgatherAlg::Ring => ring_allgather(p, alg.name()),
        AllgatherAlg::Swing => mark_noncontiguous(butterfly_allgather(
            &Butterfly::new(ButterflyKind::BineDistanceHalving, p),
            alg.name(),
        )),
    }
}

/// Bine allgather with an explicit non-contiguous-data strategy (Appendix B,
/// Fig. 14). All four variants exchange exactly the same blocks with the
/// same peers; they differ in segment counts, local permutation passes and —
/// for the `Send` strategy — one extra reordering exchange up front. `None`
/// off the powers of two, where the butterfly does not exist.
pub fn allgather_with_strategy(p: usize, strategy: NonContigStrategy) -> Option<Schedule> {
    if !RankRule::Pow2.admits(p) {
        return None;
    }
    let name = format!("bine-{}", strategy.name());
    let bf = Butterfly::new(ButterflyKind::BineDistanceHalving, p);
    Some(match strategy {
        NonContigStrategy::BlockByBlock => {
            let mut sched = mark_noncontiguous(butterfly_allgather(&bf, &name));
            sched.algorithm = name;
            sched
        }
        NonContigStrategy::Permute => butterfly_allgather_permute(&bf, true, &name),
        NonContigStrategy::TwoTransmissions => butterfly_allgather(&bf, &name),
        NonContigStrategy::Send => {
            // One extra exchange before the collective moves each rank's
            // contribution to the position the permuted layout expects
            // (Sec. 4.3.1: "the transmission to reorder the blocks is done
            // before the actual steps").
            let perm = bine_core::block::nu_bit_reversal_permutation(p);
            let mut sched = Schedule::new(p, Collective::Allgather, name.clone(), 0);
            let moved = perm.iter().enumerate().filter(|&(r, &dst)| dst != r);
            let count = moved.clone().count();
            let mut st = Step::with_capacity(count, count);
            for (r, &dst) in moved {
                let own = [BlockId::Segment(r as u32)];
                st.push_with_segments(r, dst, own, TransferKind::Copy, 1);
            }
            if !st.is_empty() {
                sched.push_step(st);
            }
            sched.extend_with(force_contiguous(butterfly_allgather(&bf, &name)));
            sched
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Collective;
    use std::collections::HashSet;

    #[test]
    fn all_allgather_algorithms_deliver_every_block_everywhere() {
        for &alg in &AllgatherAlg::ALL {
            for p in [4, 16, 64] {
                let sched = allgather(p, alg);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert_eq!(sched.collective, Collective::Allgather);
                let mut held: Vec<HashSet<u32>> =
                    (0..p).map(|r| HashSet::from([r as u32])).collect();
                for step in &sched.steps {
                    let snap = held.clone();
                    for m in step.messages() {
                        for b in m.blocks {
                            if let BlockId::Segment(i) = b {
                                assert!(snap[m.src].contains(i), "{}", alg.name());
                                held[m.dst].insert(*i);
                            }
                        }
                    }
                }
                assert!(held.iter().all(|s| s.len() == p), "{}", alg.name());
            }
        }
    }

    #[test]
    fn logarithmic_allgathers_use_log_p_steps() {
        // Bine pays one extra *local* reordering pass on top of the log2(p)
        // network steps (the `permute` strategy applied at the end).
        let bine = allgather(256, AllgatherAlg::Bine);
        assert_eq!(bine.num_steps(), 9);
        let network_steps = bine
            .steps
            .iter()
            .filter(|s| s.messages().any(|m| !m.is_local()))
            .count();
        assert_eq!(network_steps, 8);
        assert_eq!(
            allgather(256, AllgatherAlg::RecursiveDoubling).num_steps(),
            8
        );
        assert_eq!(allgather(256, AllgatherAlg::Ring).num_steps(), 255);
    }

    #[test]
    fn every_rank_sends_the_same_volume() {
        let p = 32;
        let n = 1 << 20u64;
        for &alg in &AllgatherAlg::ALL {
            let sched = allgather(p, alg);
            let expected = n * (p as u64 - 1) / p as u64;
            for r in 0..p {
                let sent: u64 = sched
                    .messages()
                    .filter(|(_, m)| m.src == r && !m.is_local())
                    .map(|(_, m)| sched.message_bytes(m, n))
                    .sum();
                assert_eq!(sent, expected, "{} rank {r}", alg.name());
            }
        }
    }

    #[test]
    fn strategy_variants_deliver_every_block_everywhere() {
        for strategy in NonContigStrategy::ALL {
            for p in [4usize, 32] {
                let sched = allgather_with_strategy(p, strategy).expect("a power of two");
                assert!(sched.validate().is_ok(), "{}", sched.algorithm);
                let mut held: Vec<HashSet<u32>> =
                    (0..p).map(|r| HashSet::from([r as u32])).collect();
                for step in &sched.steps {
                    let snap = held.clone();
                    for m in step.messages() {
                        for b in m.blocks {
                            if let BlockId::Segment(i) = b {
                                assert!(snap[m.src].contains(i), "{}", sched.algorithm);
                                held[m.dst].insert(*i);
                            }
                        }
                    }
                }
                assert!(held.iter().all(|s| s.len() == p), "{}", sched.algorithm);
            }
        }
    }

    #[test]
    fn swing_is_non_contiguous_while_bine_is_not() {
        let p = 64;
        let bine = allgather(p, AllgatherAlg::Bine);
        let swing = allgather(p, AllgatherAlg::Swing);
        let max_segments = |s: &Schedule| s.messages().map(|(_, m)| m.segments).max().unwrap();
        assert!(max_segments(&swing) > max_segments(&bine));
    }
}
