//! Helpers for rank counts that are not a power of two (Appendix C).
//!
//! [`Pow2Fold`] describes the fold of the `p − p'` "extra" ranks (where
//! `p' = 2^⌊log2 p⌋`) onto the first `p − p'` ranks that MPICH-style
//! binomial algorithms run before a power-of-two algorithm, as described at
//! the start of Appendix C. Nothing folds yet: the typed tree and butterfly
//! builders of `bine-sched` panic on such a `p`, and `bine_sched::build`
//! returns `None` for a `Pow2` row at it. The appendix's refinement
//! for even `p` (duplicate subtrees instead of a fold) is not implemented.

/// The largest power of two not exceeding `p`.
///
/// # Panics
/// Panics if `p == 0`.
#[inline]
pub fn largest_pow2_below(p: usize) -> usize {
    assert!(p > 0, "p must be positive");
    1usize << (usize::BITS - 1 - p.leading_zeros())
}

/// Describes how a non-power-of-two rank count is folded onto a
/// power-of-two core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pow2Fold {
    /// Original number of ranks.
    pub p: usize,
    /// Power-of-two core size `p' = 2^⌊log2 p⌋`.
    pub core: usize,
    /// Number of extra ranks `p − p'` folded onto the first `p − p'` core ranks.
    pub extra: usize,
}

impl Pow2Fold {
    /// Computes the fold for `p` ranks.
    pub fn new(p: usize) -> Self {
        let core = largest_pow2_below(p);
        Self {
            p,
            core,
            extra: p - core,
        }
    }

    /// True when no folding is needed.
    pub fn is_pow2(&self) -> bool {
        self.extra == 0
    }

    /// The core rank an extra rank is folded onto (`r − p'`).
    ///
    /// # Panics
    /// Panics if `r` is not an extra rank.
    pub fn proxy_of(&self, r: usize) -> usize {
        assert!(self.is_extra(r), "rank {r} is not an extra rank");
        r - self.core
    }

    /// The extra rank folded onto core rank `r`, if any.
    pub fn extra_of(&self, r: usize) -> Option<usize> {
        if r < self.extra {
            Some(r + self.core)
        } else {
            None
        }
    }

    /// Whether `r` is one of the extra (folded) ranks.
    pub fn is_extra(&self, r: usize) -> bool {
        r >= self.core && r < self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_detection() {
        assert_eq!(largest_pow2_below(1), 1);
        assert_eq!(largest_pow2_below(7), 4);
        assert_eq!(largest_pow2_below(8), 8);
        assert_eq!(largest_pow2_below(1000), 512);
    }

    #[test]
    fn fold_roundtrip() {
        for p in 1..200usize {
            let fold = Pow2Fold::new(p);
            assert_eq!(fold.core + fold.extra, p);
            assert_eq!(fold.is_pow2(), p.is_power_of_two());
            for r in fold.core..p {
                let proxy = fold.proxy_of(r);
                assert!(proxy < fold.extra);
                assert_eq!(fold.extra_of(proxy), Some(r));
            }
            for r in fold.extra..fold.core {
                assert_eq!(fold.extra_of(r), None);
            }
        }
    }

    #[test]
    #[should_panic]
    fn proxy_of_core_rank_panics() {
        Pow2Fold::new(10).proxy_of(0);
    }
}
