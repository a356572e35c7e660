//! Property tests for the schedule validator.
//!
//! Two directions, both fuzzed over the whole catalog:
//!
//! * **soundness on real schedules** — every schedule the catalog builds
//!   (all collectives × algorithms × segmentations × irregular
//!   distributions, power-of-two and non-power-of-two rank counts where
//!   the builder supports them) passes [`bine_sched::ScheduleValidator`]
//!   end to end. The validator is the gate the CI sweep runs over the
//!   committed catalog; a false positive here would block good schedules.
//! * **sensitivity to seeded corruption** — schedules mutated in ways
//!   real bugs produce (a dropped send, reordered tree steps, a count
//!   vector that does not match the rank count) are rejected, and with
//!   the *right* diagnosis, not just any error.
//!
//! Beside them, the **lowering equalities** the serving path rests on: the
//! fused `Schedule::compile_segmented(S)` is `segmented(S).compile()` in
//! every field over the whole catalog, both synthesizers and the irregular
//! builders, and the in-place `contiguity_of` is its sort-dedup-count
//! definition.
//!
//! `build` is total (`tests/build_total.rs`): a skipped configuration is
//! one the catalog answers `None` for, never a silenced failure.

use bine_sched::schedule::contiguity_of;
use bine_sched::{
    algorithms, build, build_irregular, irregular_algorithms, synth_algorithms, validate_schedule,
    BlockId, Collective, CompiledSchedule, Schedule, SizeDist, SynthSpec, TopologyView,
    ValidationError, IRREGULAR_COLLECTIVES,
};
use proptest::prelude::*;

fn any_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(Collective::ALL.to_vec())
}

/// Everything a [`CompiledSchedule`] holds but its `identity`, through the
/// accessors executors and simulators read it by: the sends, the block
/// indices, the four offset arrays (as the per-step, per-source and
/// per-destination ranges they delimit), the interner in order, the name and
/// the counts.
fn fields(c: &CompiledSchedule) -> impl PartialEq + std::fmt::Debug + '_ {
    let steps = 0..c.num_steps();
    let sends: Vec<_> = (0..c.num_sends()).map(|i| *c.send(i)).collect();
    let block_indices: Vec<u32> = sends
        .iter()
        .flat_map(|s| c.block_index_slice(s))
        .copied()
        .collect();
    let step_ranges: Vec<_> = steps.clone().map(|s| c.step_send_range(s)).collect();
    let per_rank = |s| (0..c.num_ranks).map(move |r| (c.sends_from(s, r), c.recvs_to(s, r)));
    let rank_lists: Vec<_> = steps.flat_map(per_rank).collect();
    let interner: Vec<_> = c.blocks().iter().collect();
    let header = (c.num_ranks, c.collective, c.root, &c.algorithm, c.counts());
    (
        header,
        sends,
        block_indices,
        step_ranges,
        rank_lists,
        interner,
    )
}

/// The fused lowering of `sched` at every chunk count the tables use (and
/// the odd one out) against the owned transform compiled.
fn assert_fused_lowering_equals_the_reference(sched: &Schedule, what: &str) {
    for chunks in [1usize, 2, 3, 4, 8, 16] {
        let fused = sched.compile_segmented(chunks);
        let reference = sched.segmented(chunks).compile();
        assert_eq!(fields(&fused), fields(&reference), "{what} chunks={chunks}");
    }
}

#[test]
fn fused_lowering_equals_segment_then_compile_over_the_catalog() {
    for collective in Collective::ALL {
        for alg in algorithms(collective) {
            for p in (2..=33).chain([64]) {
                let roots: &[usize] = if collective.is_rooted() {
                    &[0, 1]
                } else {
                    &[0]
                };
                for &root in roots {
                    let Some(sched) = build(collective, alg.name(), p, root) else {
                        continue;
                    };
                    let what = format!("{}/{} p={p} root={root}", collective.name(), alg.name());
                    assert_fused_lowering_equals_the_reference(&sched, &what);
                }
            }
        }
    }
}

#[test]
fn fused_lowering_equals_segment_then_compile_for_synthesized_and_irregular_schedules() {
    for groups in [&[8usize, 8][..], &[4, 3, 5], &[2, 6]] {
        let view = TopologyView::clustered(groups, (100.0, 0.3), (5.0, 25.0)).unwrap();
        for collective in [
            Collective::Broadcast,
            Collective::Reduce,
            Collective::Allreduce,
        ] {
            for id in synth_algorithms(collective, &view) {
                let spec = SynthSpec::parse(id.name()).unwrap();
                for root in [0, 1] {
                    let Some(sched) = spec.synthesize(collective, &view, root) else {
                        continue;
                    };
                    let what =
                        format!("{}/{} {groups:?} root={root}", collective.name(), id.name());
                    assert_fused_lowering_equals_the_reference(&sched, &what);
                }
            }
        }
    }
    // `SizeDist::ALL` includes the one-heavy layout: every rank but one has
    // a zero count.
    for collective in IRREGULAR_COLLECTIVES {
        for alg in irregular_algorithms(collective) {
            for dist in SizeDist::ALL {
                for p in [2usize, 7, 16, 17] {
                    let counts = dist.counts(p, 0);
                    let Some(sched) = build_irregular(collective, alg.name(), p, 0, &counts) else {
                        continue;
                    };
                    let what = format!(
                        "{}v/{} {} p={p}",
                        collective.name(),
                        alg.name(),
                        dist.name()
                    );
                    assert_fused_lowering_equals_the_reference(&sched, &what);
                }
            }
        }
    }
}

/// `Full`, a segment, or a pairwise block (the vendored proptest has no
/// tuple strategies, so the pair is decoded from one draw).
fn any_block() -> impl Strategy<Value = BlockId> {
    let pair = |draw: u32| BlockId::Pairwise {
        origin: draw / 24,
        dest: draw % 24,
    };
    prop_oneof![
        Just(BlockId::Full),
        (0u32..24).prop_map(BlockId::Segment),
        (0u32..24 * 24).prop_map(pair),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `contiguity_of` counts runs in place when it can; on any block list —
    // duplicates, descending stretches, `Full` mixed in — it is the number
    // of maximal runs of consecutive values among the distinct indices.
    #[test]
    fn contiguity_is_the_run_count_of_the_sorted_distinct_indices(
        blocks in prop::collection::vec(any_block(), 0..40),
        ascending in 0u32..2,
    ) {
        let mut blocks = blocks;
        if ascending == 1 {
            blocks.sort();
        }
        let indices: std::collections::BTreeSet<u32> = blocks
            .iter()
            .filter_map(|b| match b {
                BlockId::Full => None,
                BlockId::Segment(i) => Some(*i),
                BlockId::Pairwise { dest, .. } => Some(*dest),
            })
            .collect();
        let runs = indices.iter().filter(|&&i| i == 0 || !indices.contains(&(i - 1))).count();
        prop_assert_eq!(contiguity_of(&blocks, 24) as usize, runs.max(1), "{:?}", blocks);
    }

    // Soundness: whatever the catalog builds — any collective, any
    // algorithm, any segmentation, any rank count (power of two or not),
    // any root — the validator accepts it.
    #[test]
    fn every_catalog_schedule_validates(
        collective in any_collective(),
        alg_seed in 0usize..100,
        p in 2usize..=33,
        chunks in prop::sample::select(vec![1usize, 2, 4]),
        root_seed in 0usize..1000,
    ) {
        let algs = algorithms(collective);
        let alg = algs[alg_seed % algs.len()].clone();
        let Some(sched) = build(collective, alg.name(), p, root_seed % p) else {
            return Ok(());
        };
        let sched = sched.segmented(chunks);
        prop_assert!(
            validate_schedule(&sched).is_ok(),
            "{}/{} p={p} chunks={chunks}: {:?}",
            collective.name(), alg.name(), validate_schedule(&sched)
        );
    }

    // Soundness over the irregular (v-variant) catalog, including the
    // one-heavy distribution whose zero-count segments are the classic
    // edge case for delivery accounting.
    #[test]
    fn every_irregular_schedule_validates(
        coll_seed in 0usize..4,
        alg_seed in 0usize..100,
        dist in prop::sample::select(SizeDist::ALL.to_vec()),
        p in 2usize..=17,
        chunks in prop::sample::select(vec![1usize, 2]),
    ) {
        let collective = IRREGULAR_COLLECTIVES[coll_seed % IRREGULAR_COLLECTIVES.len()];
        let algs = irregular_algorithms(collective);
        let alg = algs[alg_seed % algs.len()];
        let counts = dist.counts(p, 0);
        let name = if chunks > 1 {
            format!("{}+seg{chunks}", alg.name())
        } else {
            alg.name().to_string()
        };
        let Some(sched) = build_irregular(collective, &name, p, 0, &counts) else {
            return Ok(());
        };
        prop_assert!(
            validate_schedule(&sched).is_ok(),
            "{}v/{name} p={p} dist={}: {:?}",
            collective.name(), dist.name(), validate_schedule(&sched)
        );
    }

    // Sensitivity: dropping any network send from a schedule in which
    // every send is load-bearing must be caught, and as a *delivery*
    // failure — a later sender missing its payload, or a rank ending
    // without its postcondition — never accepted and never misreported as
    // a structural problem.
    #[test]
    fn dropping_a_send_is_diagnosed_as_a_delivery_failure(
        pick_seed in 0usize..6,
        s in 1u32..=5,
        victim_seed in 0usize..1000,
    ) {
        let picks = [
            (Collective::Allreduce, "recursive-doubling"),
            (Collective::Allreduce, "bine-large"),
            (Collective::Allreduce, "bine-small"),
            (Collective::Broadcast, "binomial-dd"),
            (Collective::Broadcast, "bine-tree"),
            (Collective::Allgather, "ring"),
        ];
        let (collective, name) = picks[pick_seed % picks.len()];
        let p = 1usize << s;
        let Some(mut sched) = build(collective, name, p, 0) else {
            return Ok(());
        };
        let total: usize = sched.steps.iter().map(|st| st.messages.len()).sum();
        let mut victim = victim_seed % total;
        for step in &mut sched.steps {
            if victim < step.messages.len() {
                step.messages.remove(victim);
                break;
            }
            victim -= step.messages.len();
        }
        let err = validate_schedule(&sched);
        prop_assert!(
            matches!(
                err,
                Err(ValidationError::MissingBlock { .. })
                    | Err(ValidationError::Incomplete { .. })
            ),
            "{}/{name} p={p}: dropped send #{} gave {err:?}",
            collective.name(), victim_seed % total
        );
    }

    // Sensitivity: reversing the steps of a dissemination tree makes
    // ranks forward data before they have received it — the validator
    // must pin that on the sender's missing block.
    #[test]
    fn reversed_tree_steps_are_diagnosed_as_missing_blocks(
        name in prop::sample::select(vec!["binomial-dd", "bine-tree"]),
        s in 2u32..=5,
        root_seed in 0usize..1000,
    ) {
        let p = 1usize << s;
        let Some(mut sched) = build(Collective::Broadcast, name, p, root_seed % p) else {
            return Ok(());
        };
        sched.steps.reverse();
        let err = validate_schedule(&sched);
        prop_assert!(
            matches!(err, Err(ValidationError::MissingBlock { .. })),
            "broadcast/{name} p={p}: reversed steps gave {err:?}"
        );
    }

    // Sensitivity: a count vector covering the wrong number of ranks is a
    // well-formedness failure with the exact mismatch in the diagnosis.
    #[test]
    fn corrupted_irregular_counts_are_diagnosed_as_a_mismatch(
        coll_seed in 0usize..4,
        s in 1u32..=4,
        shrink in 1usize..=2,
    ) {
        let collective = IRREGULAR_COLLECTIVES[coll_seed % IRREGULAR_COLLECTIVES.len()];
        let p = 1usize << s;
        if p <= shrink {
            return Ok(());
        }
        let counts = SizeDist::Linear.counts(p, 0);
        let algs = irregular_algorithms(collective);
        let built = algs
            .iter()
            .find_map(|alg| build_irregular(collective, alg.name(), p, 0, &counts));
        let Some(mut sched) = built else { return Ok(()) };
        sched.counts = Some(SizeDist::Linear.counts(p - shrink, 0));
        let err = validate_schedule(&sched);
        prop_assert!(
            matches!(
                err,
                Err(ValidationError::CountsMismatch { counts, ranks })
                    if counts == p - shrink && ranks == p
            ),
            "{}v p={p}: shrunk counts gave {err:?}", collective.name()
        );
    }
}
