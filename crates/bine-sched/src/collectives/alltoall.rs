//! Alltoall schedules (Sec. 4.4).

use bine_core::butterfly::{Butterfly, ButterflyKind};

use super::builders::{bruck_alltoall, butterfly_alltoall, pairwise_alltoall};
use crate::schedule::Schedule;

/// Alltoall algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallAlg {
    /// Bine alltoall: logarithmic exchange over the Bine distance-halving
    /// butterfly, with block routing analogous to Bruck's rotations.
    Bine,
    /// Bruck's logarithmic alltoall.
    Bruck,
    /// Pairwise (linear) alltoall: `p − 1` direct exchanges.
    Pairwise,
}

impl AlltoallAlg {
    /// All alltoall algorithms.
    pub const ALL: [AlltoallAlg; 3] =
        [AlltoallAlg::Bine, AlltoallAlg::Bruck, AlltoallAlg::Pairwise];

    /// Harness name.
    pub fn name(&self) -> &'static str {
        match self {
            AlltoallAlg::Bine => "bine",
            AlltoallAlg::Bruck => "bruck",
            AlltoallAlg::Pairwise => "pairwise",
        }
    }
}

/// Builds the alltoall schedule for `p` ranks.
pub fn alltoall(p: usize, alg: AlltoallAlg) -> Schedule {
    match alg {
        AlltoallAlg::Bine => butterfly_alltoall(
            &Butterfly::new(ButterflyKind::BineDistanceHalving, p),
            alg.name(),
        ),
        AlltoallAlg::Bruck => bruck_alltoall(p, alg.name()),
        AlltoallAlg::Pairwise => pairwise_alltoall(p, alg.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Collective;

    #[test]
    fn all_alltoall_algorithms_validate() {
        for &alg in &AlltoallAlg::ALL {
            for p in [2, 8, 64] {
                let sched = alltoall(p, alg);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert_eq!(sched.collective, Collective::Alltoall);
            }
        }
    }

    #[test]
    fn logarithmic_alltoalls_trade_volume_for_steps() {
        let p = 64;
        let n = (64 * 1024) as u64; // per-rank send buffer
        let bine = alltoall(p, AlltoallAlg::Bine);
        let bruck = alltoall(p, AlltoallAlg::Bruck);
        let pairwise = alltoall(p, AlltoallAlg::Pairwise);
        // Logarithmic step counts vs linear.
        assert_eq!(bine.num_steps(), 6);
        assert_eq!(bruck.num_steps(), 6);
        assert_eq!(pairwise.num_steps(), p - 1);
        // Pairwise moves the minimum volume; the logarithmic algorithms move
        // roughly (log2 p)/2 times more because blocks travel multiple hops.
        let direct = pairwise.total_network_bytes(n);
        assert!(bine.total_network_bytes(n) > direct);
        assert!(bruck.total_network_bytes(n) > direct);
        assert!(bine.total_network_bytes(n) <= direct * 4);
    }

    #[test]
    fn bine_and_bruck_send_the_same_volume_per_step() {
        // Both send n/2 bytes per rank per step (Sec. 4.4).
        let p = 32;
        let n = 32 * 1024u64;
        let bine = alltoall(p, AlltoallAlg::Bine);
        for step in &bine.steps {
            for m in step.messages() {
                assert_eq!(bine.message_bytes(m, n), n / 2);
            }
        }
    }
}
