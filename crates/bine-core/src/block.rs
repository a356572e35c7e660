//! The bit-reversal block permutation used by the `permute` strategy of
//! Sec. 4.3.1.
//!
//! Vector-splitting collectives (gather, scatter, reduce-scatter, allgather,
//! alltoall) divide the vector into one *block* per rank. Bine trees extend a
//! rank's holdings both upward and downward on the rank circle (Sec. 4.1), so
//! ranges are circular; distance-doubling Bine subtrees are not contiguous at
//! all, which is why the paper discusses four strategies for transmitting
//! non-contiguous data. How many regions a transfer touches is
//! `bine_sched::contiguity_of`'s to count.

use crate::negabinary::{bit_reverse, num_steps};
use crate::tree::nu_labels;

/// The block permutation of the `permute` strategy (Sec. 4.3.1): block `i`
/// moves to position `reverse(ν(i))`, so that the blocks exchanged by a
/// distance-doubling Bine butterfly become contiguous in memory.
///
/// Returns `perm` with `perm[i] = destination position of block i`. The
/// permutation is an involution composed with bit reversal of a Gray-coded
/// negabinary label and is only defined for power-of-two `p`.
pub fn nu_bit_reversal_permutation(p: usize) -> Vec<usize> {
    let s = num_steps(p);
    let nu = nu_labels(p);
    (0..p).map(|i| bit_reverse(nu[i], s) as usize).collect()
}

/// Inverse of [`nu_bit_reversal_permutation`]: `inv[pos] = original block`.
pub fn inverse_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &d) in perm.iter().enumerate() {
        assert!(
            inv[d] == usize::MAX,
            "not a permutation: position {d} hit twice"
        );
        inv[d] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::{Butterfly, ButterflyKind};

    #[test]
    fn permutation_matches_figure_8() {
        // Fig. 8: for p = 8 the destination positions reverse(ν(i)) are
        // 000 100 110 001 011 111 101 010.
        let perm = nu_bit_reversal_permutation(8);
        assert_eq!(
            perm,
            vec![0b000, 0b100, 0b110, 0b001, 0b011, 0b111, 0b101, 0b010]
        );
        // After permuting, the blocks rank 0 sends at step 0 of the
        // reduce-scatter (blocks 1, 2, 5, 6) occupy positions 4–7.
        let mut positions: Vec<usize> = [1, 2, 5, 6].iter().map(|&b| perm[b]).collect();
        positions.sort_unstable();
        assert_eq!(positions, vec![4, 5, 6, 7]);
    }

    #[test]
    fn permutation_is_valid_for_all_sizes() {
        for s in 1..=10u32 {
            let p = 1usize << s;
            let perm = nu_bit_reversal_permutation(p);
            let inv = inverse_permutation(&perm);
            for i in 0..p {
                assert_eq!(inv[perm[i]], i);
            }
        }
    }

    #[test]
    fn permutation_makes_bine_dd_exchanges_contiguous() {
        // The whole point of the permute strategy: after remapping block i to
        // position reverse(ν(i)), every exchange of the distance-doubling
        // Bine butterfly reduce-scatter touches a contiguous range.
        for s in 2..=8u32 {
            let p = 1usize << s;
            let bf = Butterfly::new(ButterflyKind::BineDistanceDoubling, p);
            let resp = bf.responsibilities();
            let perm = nu_bit_reversal_permutation(p);
            for step in 0..s {
                for r in 0..p {
                    let q = bf.partner(r, step);
                    let mut sent: Vec<usize> =
                        resp.of(step, q).iter().map(|&b| perm[b as usize]).collect();
                    sent.sort_unstable();
                    assert!(
                        sent.windows(2).all(|w| w[1] == w[0] + 1),
                        "p={p} step={step} rank={r} blocks not contiguous after permute"
                    );
                }
            }
        }
    }
}
