//! Block bookkeeping helpers: circular block ranges, contiguity analysis and
//! the bit-reversal permutation used by the `permute` strategy of Sec. 4.3.1.
//!
//! Vector-splitting collectives (gather, scatter, reduce-scatter, allgather,
//! alltoall) divide the vector into one *block* per rank. Bine trees extend a
//! rank's holdings both upward and downward on the rank circle (Sec. 4.1), so
//! ranges are circular; distance-doubling Bine subtrees are not contiguous at
//! all, which is why the paper discusses four strategies for transmitting
//! non-contiguous data.

use crate::negabinary::{bit_reverse, num_steps};
use crate::tree::nu_labels;

/// A circular range of `len` blocks starting at `start` on a circle of `p`
/// blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircularRange {
    /// First block of the range.
    pub start: usize,
    /// Number of blocks in the range.
    pub len: usize,
    /// Total number of blocks on the circle.
    pub p: usize,
}

impl CircularRange {
    /// Creates a circular range; `len` may be at most `p`.
    pub fn new(start: usize, len: usize, p: usize) -> Self {
        assert!(start < p, "start {start} out of range for p = {p}");
        assert!(len <= p, "length {len} larger than the circle p = {p}");
        Self { start, len, p }
    }

    /// Whether the range contains block `b`.
    pub fn contains(&self, b: usize) -> bool {
        if self.len == self.p {
            return true;
        }
        let rel = (b + self.p - self.start) % self.p;
        rel < self.len
    }

    /// Iterates over the block indices in the range, in circular order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).map(move |k| (self.start + k) % self.p)
    }

    /// Whether the range wraps past the end of the linear buffer, i.e. a
    /// send of this range requires two contiguous transmissions
    /// (the "two transmissions" strategy of Sec. 4.3.1).
    pub fn wraps(&self) -> bool {
        self.len > 0 && self.start + self.len > self.p
    }

    /// Splits the range into at most two linear `(start, len)` segments.
    pub fn segments(&self) -> Vec<(usize, usize)> {
        if self.len == 0 {
            return Vec::new();
        }
        if self.wraps() {
            let first = self.p - self.start;
            vec![(self.start, first), (0, self.len - first)]
        } else {
            vec![(self.start, self.len)]
        }
    }
}

/// Number of maximal circularly-contiguous segments formed by `blocks` on a
/// circle of `p` blocks.
///
/// A result of 1 means the blocks can be sent as a single contiguous
/// transmission (possibly wrapping); larger values quantify how fragmented
/// the transfer is (the motivation for the strategies in Sec. 4.3.1).
pub fn contiguous_segments(blocks: &[u32], p: usize) -> usize {
    if blocks.is_empty() {
        return 0;
    }
    if blocks.len() >= p {
        return 1;
    }
    let mut present = vec![false; p];
    for &b in blocks {
        present[b as usize] = true;
    }
    // Count blocks whose circular successor is absent: one per segment.
    blocks
        .iter()
        .filter(|&&b| !present[(b as usize + 1) % p])
        .count()
}

/// Number of *linear* contiguous segments (no wrap-around allowed), i.e. the
/// number of separate `memcpy`/send calls needed without any reordering.
pub fn linear_segments(blocks: &[u32], p: usize) -> usize {
    if blocks.is_empty() {
        return 0;
    }
    let mut sorted: Vec<u32> = blocks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut segs = 1;
    for w in sorted.windows(2) {
        if w[1] != w[0] + 1 {
            segs += 1;
        }
    }
    let _ = p;
    segs
}

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
    fn circular_range_basics() {
        let r = CircularRange::new(6, 4, 8);
        assert!(r.contains(6) && r.contains(7) && r.contains(0) && r.contains(1));
        assert!(!r.contains(2) && !r.contains(5));
        assert!(r.wraps());
        assert_eq!(r.segments(), vec![(6, 2), (0, 2)]);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![6, 7, 0, 1]);

        let l = CircularRange::new(2, 3, 8);
        assert!(!l.wraps());
        assert_eq!(l.segments(), vec![(2, 3)]);
    }

    #[test]
    fn full_range_contains_everything() {
        let r = CircularRange::new(3, 8, 8);
        for b in 0..8 {
            assert!(r.contains(b));
        }
    }

    #[test]
    fn segment_counting() {
        assert_eq!(contiguous_segments(&[0, 1, 2, 3], 8), 1);
        assert_eq!(contiguous_segments(&[6, 7, 0, 1], 8), 1); // wraps but contiguous
        assert_eq!(contiguous_segments(&[0, 2, 4, 6], 8), 4);
        assert_eq!(contiguous_segments(&[], 8), 0);
        assert_eq!(linear_segments(&[6, 7, 0, 1], 8), 2);
        assert_eq!(linear_segments(&[0, 1, 2, 3], 8), 1);
    }

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
                    let sent: Vec<u32> = resp
                        .of(step, q)
                        .iter()
                        .map(|&b| perm[b as usize] as u32)
                        .collect();
                    assert_eq!(
                        linear_segments(&sent, p),
                        1,
                        "p={p} step={step} rank={r} blocks not contiguous after permute"
                    );
                }
            }
        }
    }
}
