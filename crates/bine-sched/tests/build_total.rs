//! `build` and `build_irregular` are total: for any `(collective, name, p,
//! root)` they return — `Some` exactly where the builder behind the name
//! supports the rank count and root, `None` everywhere else — and never
//! panic. The serving layer's crash recovery walks its ladder at whatever
//! survivor count a shrink lands on, so "does this build here?" is a
//! question of the request path, not one to answer by unwinding.
//!
//! No `catch_unwind` in this file: a builder assertion reached through
//! `build` fails the test by panicking.

use bine_sched::{
    algorithms, build, build_irregular, irregular_algorithms, validate_schedule, Collective,
    Counts, SizeDist, IRREGULAR_COLLECTIVES,
};

/// Where a name builds, written out independently of the catalog: the root
/// names a rank; the chains, Bruck and the `traff` tree take any rank
/// count, every other tree and butterfly a power of two, and `dual-root`
/// needs its two roots.
fn builds(name: &str, p: usize, root: usize) -> bool {
    let any_count = matches!(name, "ring" | "pairwise" | "bruck" | "traff");
    root < p && (any_count || p.is_power_of_two()) && (name != "dual-root" || p >= 2)
}

fn roots(p: usize) -> [usize; 4] {
    [0, p.wrapping_sub(1), p, p + 3]
}

#[test]
fn build_returns_for_every_name_rank_count_and_root() {
    let (mut built, mut none) = (0usize, 0usize);
    for collective in Collective::ALL {
        let mut names: Vec<String> = algorithms(collective)
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        if collective == Collective::ReduceScatter {
            names.extend(
                ["bine-block-by-block", "bine-send", "bine-two-transmissions"].map(String::from),
            );
        }
        names.push("nonsense".into());
        for base in &names {
            for name in [base.clone(), format!("{base}+seg4")] {
                for p in 0..=40usize {
                    for root in roots(p) {
                        let label = format!("{}/{name} p={p} root={root}", collective.name());
                        let sched = build(collective, &name, p, root);
                        let expected = base != "nonsense" && builds(base, p, root);
                        assert_eq!(sched.is_some(), expected, "{label}");
                        match sched {
                            Some(sched) => {
                                built += 1;
                                assert_eq!(sched.num_ranks, p, "{label}");
                                validate_schedule(&sched)
                                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                            }
                            None => none += 1,
                        }
                    }
                }
            }
        }
    }
    // 37 names, bare and segmented: 31 power-of-two-only × 6 counts,
    // dual-root × 5, five any-count × 40 — each at the two in-range roots.
    assert_eq!(built, 2 * 2 * (31 * 6 + 5 + 5 * 40));
    assert_eq!(built + none, (37 + 8) * 2 * 41 * 4);
}

#[test]
fn build_irregular_returns_for_every_algorithm_distribution_and_rank_count() {
    let (mut built, mut none) = (0usize, 0usize);
    for collective in IRREGULAR_COLLECTIVES {
        for alg in irregular_algorithms(collective) {
            for dist in SizeDist::ALL {
                for p in 1..=40usize {
                    let counts = dist.counts(p, 0);
                    for root in roots(p) {
                        let label = format!(
                            "{}v/{} {} p={p} root={root}",
                            collective.name(),
                            alg.name(),
                            dist.name()
                        );
                        let sched = build_irregular(collective, alg.name(), p, root, &counts);
                        assert_eq!(sched.is_some(), builds(alg.name(), p, root), "{label}");
                        match sched {
                            Some(sched) => {
                                built += 1;
                                validate_schedule(&sched)
                                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                            }
                            None => none += 1,
                        }
                    }
                    // Counts that do not cover exactly `p` ranks build nowhere.
                    let wrong = Counts::new(vec![1; p + 1]);
                    assert!(
                        build_irregular(collective, alg.name(), p, 0, &wrong).is_none(),
                        "{}v/{} p={p} with {} counts",
                        collective.name(),
                        alg.name(),
                        p + 1
                    );
                }
            }
        }
    }
    // Ten (collective, algorithm) pairs × three distributions: four
    // any-count (traff ×2, ring ×2) × 40 counts, six power-of-two-only × 6.
    assert_eq!(built, 3 * 2 * (4 * 40 + 6 * 6));
    assert_eq!(built + none, 10 * 3 * 40 * 4);
    // Names of the regular catalog that are not v-variant algorithms, and
    // collectives without a v-variant, are `None` too.
    let counts = SizeDist::Uniform.counts(16, 0);
    assert!(build_irregular(Collective::Allgather, "traff", 16, 0, &counts).is_none());
    assert!(build_irregular(Collective::Gather, "binomial-dh", 16, 0, &counts).is_none());
    assert!(build_irregular(Collective::Broadcast, "bine", 16, 0, &counts).is_none());
}
