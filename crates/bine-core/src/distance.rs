//! Modular distance and the theoretical distance bounds of Sec. 2.4.1.
//!
//! The paper argues that communicating ranks in a Bine tree are at roughly
//! 2/3 of the modular distance of the corresponding binomial tree
//! (Eq. 2), which bounds the global-link traffic reduction at ~33%.

use crate::negabinary::alternating_sum;

/// Modular (circular) distance between ranks `r` and `q` on a ring of `p`
/// ranks: `min((r − q) mod p, (q − r) mod p)` (Sec. 2.2).
///
/// # Examples
/// ```
/// use bine_core::distance::modular_distance;
/// assert_eq!(modular_distance(0, 15, 16), 1);
/// assert_eq!(modular_distance(0, 8, 16), 8);
/// assert_eq!(modular_distance(3, 5, 16), 2);
/// ```
#[inline]
pub fn modular_distance(r: usize, q: usize, p: usize) -> usize {
    assert!(r < p && q < p, "ranks must be smaller than p");
    let a = (r + p - q) % p;
    let b = (q + p - r) % p;
    a.min(b)
}

/// Distance between communicating ranks at step `i` of a distance-halving
/// *binomial* tree over `2^s` ranks: `δ_binomial(i) = 2^(s−i−1)`.
#[inline]
pub fn delta_binomial(i: u32, s: u32) -> u64 {
    assert!(i < s, "step {i} out of range for s = {s}");
    1u64 << (s - i - 1)
}

/// Distance between communicating ranks at step `i` of a distance-halving
/// *Bine* tree over `2^s` ranks: `δ_bine(i) = |Σ_{j=0}^{s−i−1} (−2)^j|`.
#[inline]
pub fn delta_bine(i: u32, s: u32) -> u64 {
    assert!(i < s, "step {i} out of range for s = {s}");
    alternating_sum(s - i).unsigned_abs()
}

/// The ratio `δ_bine(i) / δ_binomial(i)` (Eq. 2), which converges to 2/3.
#[inline]
pub fn distance_ratio(i: u32, s: u32) -> f64 {
    delta_bine(i, s) as f64 / delta_binomial(i, s) as f64
}

/// Sum of per-step distances over all `s` steps of a distance-halving
/// binomial tree (used to compare cumulative distance budgets).
pub fn total_distance_binomial(s: u32) -> u64 {
    (0..s).map(|i| delta_binomial(i, s)).sum()
}

/// Sum of per-step distances over all `s` steps of a distance-halving Bine
/// tree.
pub fn total_distance_bine(s: u32) -> u64 {
    (0..s).map(|i| delta_bine(i, s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modular_distance_is_symmetric_and_bounded() {
        let p = 64;
        for r in 0..p {
            for q in 0..p {
                let d = modular_distance(r, q, p);
                assert_eq!(d, modular_distance(q, r, p));
                assert!(d <= p / 2);
                if r == q {
                    assert_eq!(d, 0);
                }
            }
        }
    }

    #[test]
    fn deltas_match_paper_examples() {
        // s = 4 (16 ranks): binomial distances 8, 4, 2, 1.
        assert_eq!(
            (0..4).map(|i| delta_binomial(i, 4)).collect::<Vec<_>>(),
            vec![8, 4, 2, 1]
        );
        // Bine distances |1−2+4−8| = 5, |1−2+4| = 3, |1−2| = 1, |1| = 1.
        assert_eq!(
            (0..4).map(|i| delta_bine(i, 4)).collect::<Vec<_>>(),
            vec![5, 3, 1, 1]
        );
    }

    #[test]
    fn ratio_converges_to_two_thirds() {
        // Eq. 2: δ_bine / δ_binomial ≈ 2/3, exact in the limit of large s − i.
        for s in 4..=30u32 {
            let ratio = distance_ratio(0, s);
            assert!(
                (ratio - 2.0 / 3.0).abs() < 0.7 / (1 << (s - 1)) as f64 + 1e-12,
                "s = {s}, ratio = {ratio}"
            );
        }
        // The early steps of small trees deviate by at most ±1 block.
        for s in 1..=20u32 {
            for i in 0..s {
                let diff = delta_bine(i, s) as i64 - (2 * delta_binomial(i, s) as i64) / 3;
                assert!(diff.abs() <= 1, "s={s} i={i} diff={diff}");
            }
        }
    }

    #[test]
    fn bine_total_distance_is_lower() {
        for s in 3..=20u32 {
            assert!(
                total_distance_bine(s) < total_distance_binomial(s),
                "s = {s}"
            );
        }
    }
}
