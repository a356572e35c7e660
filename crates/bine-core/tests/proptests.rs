//! Property-based tests for the core Bine building blocks.

use bine_core::block::{inverse_permutation, nu_bit_reversal_permutation};
use bine_core::butterfly::{Butterfly, ButterflyKind};
use bine_core::distance::modular_distance;
use bine_core::negabinary::{
    from_negabinary, from_negabinary_reference, nb2rank, rank2nb, to_negabinary,
    to_negabinary_reference,
};
use bine_core::nonpow2::Pow2Fold;
use bine_core::torus::TorusShape;
use bine_core::tree::{build_tree, Tree, TreeKind};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy producing a power-of-two rank count between 2 and 1024.
fn pow2_p() -> impl Strategy<Value = usize> {
    (1u32..=10).prop_map(|s| 1usize << s)
}

fn tree_kind() -> impl Strategy<Value = TreeKind> {
    prop_oneof![
        Just(TreeKind::BineDistanceHalving),
        Just(TreeKind::BineDistanceDoubling),
        Just(TreeKind::BinomialDistanceHalving),
        Just(TreeKind::BinomialDistanceDoubling),
    ]
}

fn butterfly_kind() -> impl Strategy<Value = ButterflyKind> {
    prop_oneof![
        Just(ButterflyKind::BineDistanceHalving),
        Just(ButterflyKind::BineDistanceDoubling),
        Just(ButterflyKind::RecursiveDoubling),
        Just(ButterflyKind::RecursiveHalving),
    ]
}

proptest! {
    #[test]
    fn negabinary_roundtrip(n in -1_000_000_000i64..1_000_000_000) {
        prop_assert_eq!(from_negabinary(to_negabinary(n)), n);
        prop_assert_eq!(to_negabinary(n), to_negabinary_reference(n));
    }

    #[test]
    fn negabinary_eval_matches_reference(nb in 0u64..(1 << 40)) {
        prop_assert_eq!(from_negabinary(nb), from_negabinary_reference(nb));
    }

    #[test]
    fn rank_encoding_roundtrip(p in pow2_p(), r_seed in 0usize..1_000_000) {
        let r = r_seed % p;
        prop_assert_eq!(nb2rank(rank2nb(r, p), p), r);
    }

    #[test]
    fn modular_distance_triangle_inequality(
        p in 2usize..512, a_seed in 0usize..1_000_000, b_seed in 0usize..1_000_000, c_seed in 0usize..1_000_000
    ) {
        let (a, b, c) = (a_seed % p, b_seed % p, c_seed % p);
        prop_assert!(modular_distance(a, c, p) <= modular_distance(a, b, p) + modular_distance(b, c, p));
    }

    #[test]
    fn trees_reach_every_rank_exactly_once(kind in tree_kind(), p in pow2_p(), root_seed in 0usize..1_000_000) {
        let root = root_seed % p;
        let tree = build_tree(kind, p, root);
        // Every non-root has a parent that joined strictly earlier.
        let mut reached: HashSet<usize> = HashSet::from([root]);
        for step in 0..tree.num_steps() {
            let mut new = Vec::new();
            for &r in &reached {
                if step >= tree.first_send_step(r) {
                    if let Some(c) = tree.partner(r, step) {
                        new.push(c);
                    }
                }
            }
            for c in new {
                prop_assert!(reached.insert(c), "rank {} reached twice", c);
            }
        }
        prop_assert_eq!(reached.len(), p);
    }

    #[test]
    fn tree_subtrees_partition_the_ranks(kind in tree_kind(), p in pow2_p(), root_seed in 0usize..1_000_000) {
        let root = root_seed % p;
        let tree = build_tree(kind, p, root);
        let mut seen: HashSet<usize> = HashSet::from([root]);
        let mut sub = Vec::new();
        for (_, child) in tree.children(root) {
            tree.subtree(child, &mut sub);
            prop_assert!(sub.windows(2).all(|w| w[0] < w[1]), "subtree of {} not ascending", child);
            for &r in &sub {
                prop_assert!(seen.insert(r), "rank {} appears in two subtrees", r);
            }
        }
        prop_assert_eq!(seen.len(), p);
    }

    #[test]
    fn bine_trees_cover_less_modular_distance(p in (3u32..=10).prop_map(|s| 1usize << s)) {
        let bine = build_tree(TreeKind::BineDistanceHalving, p, 0);
        let binom = build_tree(TreeKind::BinomialDistanceHalving, p, 0);
        let total = |t: &Tree| -> usize {
            (1..p).map(|r| modular_distance(r, t.parent(r).unwrap(), p)).sum()
        };
        prop_assert!(total(&bine) < total(&binom));
    }

    #[test]
    fn butterflies_disseminate_fully(kind in butterfly_kind(), p in pow2_p()) {
        let bf = Butterfly::new(kind, p);
        let mut have: Vec<HashSet<usize>> = (0..p).map(|r| HashSet::from([r])).collect();
        for step in 0..bf.num_steps() {
            let snap = have.clone();
            for (r, set) in have.iter_mut().enumerate() {
                let q = bf.partner(r, step);
                prop_assert_eq!(bf.partner(q, step), r);
                set.extend(snap[q].iter().copied());
            }
        }
        for set in &have {
            prop_assert_eq!(set.len(), p);
        }
    }

    #[test]
    fn butterfly_responsibilities_form_a_partition(kind in butterfly_kind(), p in (1u32..=7).prop_map(|s| 1usize << s)) {
        let bf = Butterfly::new(kind, p);
        let resp = bf.responsibilities();
        for step in 0..resp.num_steps() {
            // At every step the responsibility sets of all ranks cover every
            // block the "right" number of times: block b appears in exactly
            // 2^(s−1−step) responsibility sets.
            let mut count = vec![0usize; p];
            for r in 0..p {
                let set = resp.of(step, r);
                prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "step {} rank {}", step, r);
                for &b in set {
                    count[b as usize] += 1;
                }
            }
            let expected = 1usize << (bf.num_steps() - 1 - step);
            for (b, &c) in count.iter().enumerate() {
                prop_assert_eq!(c, expected, "block {} step {}", b, step);
            }
        }
    }

    #[test]
    fn bit_reversal_permutation_is_bijective(p in pow2_p()) {
        let perm = nu_bit_reversal_permutation(p);
        let inv = inverse_permutation(&perm);
        for i in 0..p {
            prop_assert_eq!(inv[perm[i]], i);
        }
    }

    #[test]
    fn pow2_fold_is_consistent(p in 1usize..4096) {
        let fold = Pow2Fold::new(p);
        prop_assert!(fold.core.is_power_of_two());
        prop_assert!(fold.core <= p && p < 2 * fold.core);
        for r in 0..p {
            if fold.is_extra(r) {
                prop_assert_eq!(fold.extra_of(fold.proxy_of(r)), Some(r));
            }
        }
    }

    #[test]
    fn torus_coords_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let shape = TorusShape::new(dims);
        for r in 0..shape.num_ranks() {
            prop_assert_eq!(shape.rank(&shape.coords(r)), r);
        }
    }
}
