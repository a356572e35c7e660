//! `build` and `build_irregular` are total: for any `(collective, name, p,
//! root)` they return — `Some` exactly where the row behind the name builds
//! at the rank count and root, `None` everywhere else — and never panic. The
//! serving layer's crash recovery walks its ladder at whatever survivor
//! count a shrink lands on, so "does this build here?" is a question of the
//! request path, not one to answer by unwinding.
//!
//! No `catch_unwind` in this file: a builder assertion reached through
//! `build` fails the test by panicking.

use bine_sched::catalog::Source;
use bine_sched::{build, build_irregular, walk, Collective, Counts, Request, SizeDist};

#[test]
fn every_request_of_the_walk_builds_what_it_names_exactly_where_its_row_says() {
    let ranks: Vec<usize> = (0..=40).collect();
    let (mut built, mut synthesized, mut refused) = (0usize, 0usize, 0usize);
    for request in walk(&ranks) {
        let label = request.label();
        let sched = request.build();
        if let Some(expected) = request.must_build() {
            assert_eq!(sched.is_some(), expected, "{label}");
        }
        let Some(sched) = sched else {
            refused += 1;
            continue;
        };
        match request.row() {
            Some(_) => built += 1,
            None => synthesized += 1,
        }
        assert_eq!(sched.algorithm, request.name, "{label}");
        assert_eq!(sched.collective, request.collective, "{label}");
        assert_eq!(sched.num_ranks, request.p, "{label}");
        assert_eq!(sched.counts, request.counts(), "{label}");
        sched.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    // The walk's roots that name a rank: 1 at p = 1, 2 at p = 2, 3 at
    // p = 3..=5 (where p / 3 is rank 1), 4 from p = 6 — 152 over p = 1..=40,
    // 18 over its powers of two, 17 without p = 1. Rows: 5 regular and
    // 4 × 3 v-variant (per distribution) under `any p`, 31 and 6 × 3 under
    // `2^k`, dual-root. Everything at three segmentations.
    assert_eq!(built, 3 * ((5 + 12) * 152 + (31 + 18) * 18 + 17));
    // Four names on three views, three segmentations, at least root 0.
    assert!(synthesized >= 4 * 3 * 3, "{synthesized} synthesized");
    assert!(refused > 2 * built, "{built} built, {refused} refused");
}

#[test]
fn build_returns_for_every_name_rank_count_and_root() {
    // The names no row answers to, at every rank count and root the walk
    // visits and past them.
    for collective in Collective::ALL {
        for name in [
            "nonsense",
            "nonsense+seg4",
            "traff",
            "",
            "+seg4",
            "bine+seg1",
        ] {
            for p in 0..=40usize {
                for root in [0, p.wrapping_sub(1), p, p + 3] {
                    let sched = build(collective, name, p, root);
                    assert!(sched.is_none(), "{}/{name} p={p}", collective.name());
                }
            }
        }
    }
}

#[test]
fn build_irregular_returns_for_every_algorithm_distribution_and_rank_count() {
    // What the walk cannot ask: counts that do not cover exactly `p` ranks
    // build nowhere …
    for request in walk(&(1..=40).collect::<Vec<_>>()) {
        if matches!(request.source, Source::Irregular(..)) && request.root == 0 {
            let wrong = Counts::new(vec![1; request.p + 1]);
            let Request {
                collective,
                name,
                p,
                ..
            } = &request;
            let sched = build_irregular(*collective, name, *p, 0, &wrong);
            assert!(sched.is_none(), "{} with {} counts", request.label(), p + 1);
        }
    }
    // … and names of the regular catalog that are not v-variant algorithms,
    // and collectives without a v-variant, are `None` too.
    let counts = SizeDist::Uniform.counts(16, 0);
    assert!(build_irregular(Collective::Allgather, "traff", 16, 0, &counts).is_none());
    assert!(build_irregular(Collective::Gather, "binomial-dh", 16, 0, &counts).is_none());
    assert!(build_irregular(Collective::ReduceScatter, "bine-permute", 16, 0, &counts).is_none());
    assert!(build_irregular(Collective::Broadcast, "bine", 16, 0, &counts).is_none());
}
