//! Golden vectors from the paper's reference implementation
//! (`HLC-Lab/bine_trees_fugaku`, `simulation/binomial.py` — SNIPPETS.md
//! snippet 1): literal tables copied from there, so `bine-core` is checked
//! against the published code and not only against itself.

use bine_core::butterfly::{Butterfly, ButterflyKind};
use bine_core::negabinary::{alternating_sum, from_negabinary, largest_positive};

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

/// `smallest_negabinaries[i]`: the smallest number `i` negabinary digits hold.
const SMALLEST_NEGABINARIES: [i64; 20] = [
    0, 0, -2, -2, -10, -10, -42, -42, -170, -170, -682, -682, -2730, -2730, -10922, -10922, -43690,
    -43690, -174762, -174762,
];

#[test]
fn smallest_negabinaries_match_the_reference_table() {
    for (digits, &smallest) in SMALLEST_NEGABINARIES.iter().enumerate() {
        let found = if digits <= 16 {
            // Every string of that many digits.
            let strings = 0..1u64 << digits;
            strings.map(from_negabinary).min().expect("non-empty")
        } else {
            // All odd positions set: twice the largest number one digit
            // fewer holds, negated.
            -2 * largest_positive(digits as u32 - 1)
        };
        assert_eq!(found, smallest, "{digits} digits");
    }
}

/// `get_peer(sender, step, num_ranks, collective)` of the reference,
/// transcribed literally; `halving` is its `collective == "ALLGATHER"`.
fn get_peer(sender: usize, step: usize, num_ranks: usize, halving: bool) -> usize {
    let mut sign = (-1i64).pow(step as u32);
    if !sender.is_multiple_of(2) {
        sign *= -1;
    }
    let distance = if halving {
        let log2_ceil = num_ranks.next_power_of_two().trailing_zeros() as usize;
        sign * DISTANCES[log2_ceil - step - 1]
    } else {
        sign * DISTANCES[step]
    };
    (sender as i64 + distance).rem_euclid(num_ranks as i64) as usize
}

#[test]
fn distance_doubling_partners_match_the_reference_get_peer() {
    for s in 1..=10 {
        let p = 1usize << s;
        let butterfly = Butterfly::new(ButterflyKind::BineDistanceDoubling, p);
        for step in 0..s {
            for rank in 0..p {
                let peer = get_peer(rank, step, p, false);
                assert_eq!(
                    butterfly.partner(rank, step as u32),
                    peer,
                    "p={p} step={step}"
                );
            }
        }
    }
}

#[test]
fn distance_halving_partners_are_at_the_reference_distance() {
    // Only the distance: which side the partner is on depends on where the
    // sign comes from (`step` in the reference, the distance index
    // `s − 1 − step` in `bine-core`), and the two disagree at every even `s`
    // — see ROADMAP item 6.
    for s in 1..=10 {
        let p = 1usize << s;
        let butterfly = Butterfly::new(ButterflyKind::BineDistanceHalving, p);
        for step in 0..s {
            for rank in 0..p {
                let ours = (butterfly.partner(rank, step as u32) + p - rank) % p;
                let theirs = (get_peer(rank, step, p, true) + p - rank) % p;
                let distance = DISTANCES[s - step - 1] as usize;
                assert_eq!(
                    ours.min(p - ours),
                    distance,
                    "p={p} step={step} rank={rank}"
                );
                assert_eq!(theirs.min(p - theirs), distance, "p={p} step={step}");
            }
        }
    }
}
