//! Butterfly communication patterns: Bine butterflies (Sec. 3.1) and the
//! standard recursive-doubling / recursive-halving butterflies they replace.
//!
//! In a butterfly pattern every rank exchanges data with exactly one peer at
//! every step; after `s = log2 p` steps, data from every rank has reached
//! every other rank. Butterflies underlie allgather, reduce-scatter and the
//! small-vector (recursive-doubling) allreduce.

use crate::negabinary::{alternating_sum, num_steps};

/// Which butterfly-construction rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ButterflyKind {
    /// Bine distance-halving butterfly (Eq. 4): distances shrink step by step.
    BineDistanceHalving,
    /// Bine distance-doubling butterfly (Eq. 5): distances grow step by step.
    BineDistanceDoubling,
    /// Standard recursive-doubling butterfly (`r ⊕ 2^i`).
    RecursiveDoubling,
    /// Standard recursive-halving butterfly (`r ⊕ 2^(s−1−i)`).
    RecursiveHalving,
}

impl ButterflyKind {
    /// All supported butterfly kinds, in a stable order.
    pub const ALL: [ButterflyKind; 4] = [
        ButterflyKind::BineDistanceHalving,
        ButterflyKind::BineDistanceDoubling,
        ButterflyKind::RecursiveDoubling,
        ButterflyKind::RecursiveHalving,
    ];

    /// Short human-readable name used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            ButterflyKind::BineDistanceHalving => "bine-butterfly-dh",
            ButterflyKind::BineDistanceDoubling => "bine-butterfly-dd",
            ButterflyKind::RecursiveDoubling => "recursive-doubling",
            ButterflyKind::RecursiveHalving => "recursive-halving",
        }
    }

    /// True for the two Bine variants.
    pub fn is_bine(&self) -> bool {
        matches!(
            self,
            ButterflyKind::BineDistanceHalving | ButterflyKind::BineDistanceDoubling
        )
    }
}

/// A butterfly exchange pattern over `p = 2^s` ranks and `s` steps.
///
/// The pairing at every step is an involution (the partner of my partner is
/// me) and pairs always match an even rank with an odd rank for the Bine
/// variants.
#[derive(Debug, Clone)]
pub struct Butterfly {
    kind: ButterflyKind,
    p: usize,
    s: u32,
}

impl Butterfly {
    /// Creates a butterfly of the given kind over `p = 2^s` ranks.
    pub fn new(kind: ButterflyKind, p: usize) -> Self {
        let s = num_steps(p);
        Self { kind, p, s }
    }

    /// The construction rule of this butterfly.
    pub fn kind(&self) -> ButterflyKind {
        self.kind
    }

    /// Number of ranks `p`.
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// Number of steps `s = log2 p`.
    pub fn num_steps(&self) -> u32 {
        self.s
    }

    /// The peer rank `r` exchanges data with at `step`.
    ///
    /// # Panics
    /// Panics if `r ≥ p` or `step ≥ s`.
    pub fn partner(&self, r: usize, step: u32) -> usize {
        assert!(r < self.p, "rank {r} out of range for p = {}", self.p);
        assert!(step < self.s, "step {step} out of range for s = {}", self.s);
        let p = self.p as i64;
        match self.kind {
            ButterflyKind::RecursiveDoubling => r ^ (1usize << step),
            ButterflyKind::RecursiveHalving => r ^ (1usize << (self.s - 1 - step)),
            ButterflyKind::BineDistanceHalving => {
                // Eq. 4: the signed distance is Σ_{k=0}^{s−i−1} (−2)^k.
                let d = alternating_sum(self.s - step);
                let q = if r.is_multiple_of(2) {
                    r as i64 + d
                } else {
                    r as i64 - d
                };
                q.rem_euclid(p) as usize
            }
            ButterflyKind::BineDistanceDoubling => {
                // Eq. 5: the signed distance is Σ_{k=0}^{j} (−2)^k.
                let d = alternating_sum(step + 1);
                let q = if r.is_multiple_of(2) {
                    r as i64 + d
                } else {
                    r as i64 - d
                };
                q.rem_euclid(p) as usize
            }
        }
    }

    /// The modular distance covered by an exchange at `step`.
    pub fn step_distance(&self, step: u32) -> u64 {
        match self.kind {
            ButterflyKind::RecursiveDoubling => 1u64 << step,
            ButterflyKind::RecursiveHalving => 1u64 << (self.s - 1 - step),
            ButterflyKind::BineDistanceHalving => alternating_sum(self.s - step).unsigned_abs(),
            ButterflyKind::BineDistanceDoubling => alternating_sum(step + 1).unsigned_abs(),
        }
    }

    /// Iterator over the (unordered) pairs exchanging data at `step`.
    ///
    /// Each pair `(a, b)` is reported once, with `a` the even rank for the
    /// Bine variants and the smaller rank for the standard variants.
    pub fn pairs(&self, step: u32) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.p / 2);
        for r in 0..self.p {
            let q = self.partner(r, step);
            if (self.kind.is_bine() && r % 2 == 0) || (!self.kind.is_bine() && r < q) {
                out.push((r, q));
            }
        }
        out
    }

    /// The "responsibility sets" used by vector-halving collectives
    /// (reduce-scatter and its inverses).
    ///
    /// `responsibilities().of(step, r)` is the set of block indices that rank
    /// `r` must still hold *after* exchanging at `step`, computed backwards
    /// from the final state where each rank holds exactly its own block. At
    /// step `step`, a rank sends to its partner the blocks in the partner's
    /// responsibility set and keeps its own.
    pub fn responsibilities(&self) -> Responsibilities {
        let (p, s) = (self.p, self.s);
        let mut table = Responsibilities {
            p,
            steps: s,
            blocks: vec![0; p * (p - 1)],
        };
        if s == 0 {
            return table;
        }
        let last = table.start(s - 1, 0);
        for (r, own) in table.blocks[last..].iter_mut().enumerate() {
            *own = r as u32;
        }
        for step in (0..s - 1).rev() {
            // A rank answers after `step` for what it and its next partner
            // answer for after `step + 1`; the later steps' sets lie behind
            // this step's in the table.
            let half = table.set_len(step + 1);
            let (sets, later) = (table.start(step, 0), table.start(step + 1, 0));
            let (before, later) = table.blocks.split_at_mut(later);
            for (r, set) in before[sets..].chunks_exact_mut(2 * half).enumerate() {
                let q = self.partner(r, step + 1);
                set[..half].copy_from_slice(&later[r * half..][..half]);
                set[half..].copy_from_slice(&later[q * half..][..half]);
                set.sort_unstable();
            }
        }
        table
    }
}

/// The responsibility sets of a [`Butterfly`], every step's and every rank's
/// in one table (see [`Butterfly::responsibilities`]).
///
/// After step `i` a rank answers for `p / 2^(i+1)` blocks, so step `i`'s `p`
/// sets take `p · p / 2^(i+1)` entries and start `p · (p − p / 2^i)` entries
/// in: set boundaries are arithmetic, and the table is a single allocation
/// of `p · (p − 1)` block indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Responsibilities {
    p: usize,
    steps: u32,
    blocks: Vec<u32>,
}

impl Responsibilities {
    /// Number of steps `s` of the butterfly (0 for a single rank).
    pub fn num_steps(&self) -> u32 {
        self.steps
    }

    /// Blocks rank `r` is responsible for after `step`, ascending.
    ///
    /// # Panics
    /// Panics if `r ≥ p` or `step ≥ s`.
    pub fn of(&self, step: u32, r: usize) -> &[u32] {
        assert!(r < self.p, "rank {r} out of range for p = {}", self.p);
        assert!(step < self.steps, "step {step} out of range");
        &self.blocks[self.start(step, r)..][..self.set_len(step)]
    }

    fn set_len(&self, step: u32) -> usize {
        self.p >> (step + 1)
    }

    fn start(&self, step: u32, r: usize) -> usize {
        self.p * (self.p - (self.p >> step)) + r * self.set_len(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_butterfly_invariants(bf: &Butterfly) {
        let p = bf.num_ranks();
        let s = bf.num_steps();

        // Pairing is an involution with no self-pairs at every step.
        for step in 0..s {
            for r in 0..p {
                let q = bf.partner(r, step);
                assert_ne!(q, r, "self pair at step {step}");
                assert_eq!(bf.partner(q, step), r, "not an involution at step {step}");
            }
            assert_eq!(bf.pairs(step).len(), p / 2);
        }

        // Full dissemination: simulating an allgather, every rank ends up
        // with contributions from all ranks.
        let mut have: Vec<HashSet<usize>> = (0..p).map(|r| HashSet::from([r])).collect();
        for step in 0..s {
            let snapshot = have.clone();
            for (r, set) in have.iter_mut().enumerate() {
                let q = bf.partner(r, step);
                set.extend(snapshot[q].iter().copied());
            }
        }
        for (r, set) in have.iter().enumerate() {
            assert_eq!(set.len(), p, "rank {r} did not receive all contributions");
        }
    }

    #[test]
    fn all_butterfly_kinds_satisfy_invariants() {
        for &kind in &ButterflyKind::ALL {
            for s in 1..=10u32 {
                let bf = Butterfly::new(kind, 1usize << s);
                check_butterfly_invariants(&bf);
            }
        }
    }

    #[test]
    fn bine_butterflies_pair_even_with_odd() {
        for &kind in &[
            ButterflyKind::BineDistanceHalving,
            ButterflyKind::BineDistanceDoubling,
        ] {
            let bf = Butterfly::new(kind, 64);
            for step in 0..bf.num_steps() {
                for r in (0..64).step_by(2) {
                    assert_eq!(bf.partner(r, step) % 2, 1);
                }
            }
        }
    }

    #[test]
    fn bine_dh_eight_ranks_matches_hand_computation() {
        // p = 8: step distances are 3, 1, 1 (|1−2+4| = 3, |1−2| = 1, |1| = 1).
        let bf = Butterfly::new(ButterflyKind::BineDistanceHalving, 8);
        assert_eq!(bf.step_distance(0), 3);
        assert_eq!(bf.step_distance(1), 1);
        assert_eq!(bf.step_distance(2), 1);
        assert_eq!(bf.partner(0, 0), 3);
        assert_eq!(bf.partner(2, 0), 5);
        assert_eq!(bf.partner(6, 0), 1);
        assert_eq!(bf.partner(0, 1), 7); // d = −1 for even ranks
        assert_eq!(bf.partner(0, 2), 1);
    }

    #[test]
    fn bine_dd_is_reverse_of_bine_dh() {
        for s in 1..=9u32 {
            let p = 1usize << s;
            let dh = Butterfly::new(ButterflyKind::BineDistanceHalving, p);
            let dd = Butterfly::new(ButterflyKind::BineDistanceDoubling, p);
            for step in 0..s {
                for r in 0..p {
                    assert_eq!(dh.partner(r, step), dd.partner(r, s - 1 - step));
                }
            }
        }
    }

    #[test]
    fn bine_distances_are_about_two_thirds_of_standard() {
        let p = 1024;
        let s = 10;
        let bine = Butterfly::new(ButterflyKind::BineDistanceHalving, p);
        let std = Butterfly::new(ButterflyKind::RecursiveHalving, p);
        for step in 0..s {
            let ratio = bine.step_distance(step) as f64 / std.step_distance(step) as f64;
            assert!((0.5..=1.0).contains(&ratio), "step {step} ratio {ratio}");
        }
        let total_bine: u64 = (0..s).map(|i| bine.step_distance(i)).sum();
        let total_std: u64 = (0..s).map(|i| std.step_distance(i)).sum();
        assert!((total_bine as f64) < 0.72 * total_std as f64);
    }

    #[test]
    fn responsibilities_follow_the_backward_recursion() {
        // The definition, set by set: own block after the last step, and
        // before that the sorted union with the next partner's set.
        for &kind in &ButterflyKind::ALL {
            for s in 0..=6u32 {
                let bf = Butterfly::new(kind, 1usize << s);
                let resp = bf.responsibilities();
                assert_eq!(resp.num_steps(), s);
                for step in 0..s {
                    for r in 0..bf.num_ranks() {
                        let mut expected = vec![r as u32];
                        if step + 1 < s {
                            let q = bf.partner(r, step + 1);
                            expected = resp.of(step + 1, r).to_vec();
                            expected.extend_from_slice(resp.of(step + 1, q));
                            expected.sort_unstable();
                        }
                        assert_eq!(resp.of(step, r), expected, "{kind:?} s={s} step={step}");
                    }
                }
            }
        }
    }

    #[test]
    fn responsibilities_partition_blocks() {
        for &kind in &ButterflyKind::ALL {
            let p = 32;
            let bf = Butterfly::new(kind, p);
            let resp = bf.responsibilities();
            assert_eq!(resp.num_steps(), bf.num_steps());
            // After the last step each rank owns exactly its own block.
            for r in 0..p {
                assert_eq!(resp.of(bf.num_steps() - 1, r), [r as u32]);
            }
            // Before the first exchange, the blocks a pair is jointly
            // responsible for partition into the two halves they keep.
            for step in 0..resp.num_steps() {
                for r in 0..p {
                    let q = bf.partner(r, step);
                    let mine: HashSet<u32> = resp.of(step, r).iter().copied().collect();
                    let theirs: HashSet<u32> = resp.of(step, q).iter().copied().collect();
                    assert!(mine.is_disjoint(&theirs), "step {step} rank {r}");
                }
            }
        }
    }
}
