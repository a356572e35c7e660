//! Golden vectors from the paper's reference implementation
//! (`HLC-Lab/bine_trees_fugaku`, `simulation/binomial.py` — SNIPPETS.md
//! snippet 1): literal tables copied from there, so `bine-core` is checked
//! against the published code and not only against itself.

use bine_core::negabinary::{alternating_sum, largest_positive};

/// `distances[step]`: how far apart the peers of a distance-doubling Bine
/// step are, before the sign the rank's parity and the step give it.
const DISTANCES: [i64; 20] = [
    1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683, 1365, 2731, 5461, 10923, 21845, 43691, 87381,
    174763, 349525,
];

/// `largest_negabinaries[i]`: the largest number `i` negabinary digits hold.
const LARGEST_NEGABINARIES: [i64; 20] = [
    0, 1, 1, 5, 5, 21, 21, 85, 85, 341, 341, 1365, 1365, 5461, 5461, 21845, 21845, 87381, 87381,
    349525,
];

#[test]
fn peer_distances_match_the_reference_table() {
    // Peers at step `s` differ in their `s + 1` least-significant digits
    // (Sec. 2.4.1): the table holds the magnitude, the sign alternates.
    for (step, &distance) in DISTANCES.iter().enumerate() {
        let signed = alternating_sum(step as u32 + 1);
        assert_eq!(signed.abs(), distance, "step {step}");
        assert_eq!(signed > 0, step % 2 == 0, "step {step}");
    }
}

#[test]
fn largest_negabinaries_match_the_reference_table() {
    for (digits, &largest) in LARGEST_NEGABINARIES.iter().enumerate() {
        assert_eq!(largest_positive(digits as u32), largest, "{digits} digits");
    }
}
