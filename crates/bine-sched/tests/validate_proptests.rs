//! Property tests for the schedule validator.
//!
//! Two directions, both fuzzed over the whole catalog:
//!
//! * **soundness on real schedules** — every schedule the catalog builds
//!   (a request drawn from [`bine_sched::walk`]: all collectives ×
//!   algorithms × segmentations × irregular distributions, power-of-two
//!   and non-power-of-two rank counts where the row builds) passes
//!   [`bine_sched::ScheduleValidator`] end to end. The validator is the
//!   gate the CI sweep runs over the committed catalog; a false positive
//!   here would block good schedules.
//! * **sensitivity to seeded corruption** — schedules mutated in ways
//!   real bugs produce (a dropped send, reordered tree steps, a count
//!   vector that does not match the rank count) are rejected, and with
//!   the *right* diagnosis, not just any error.
//!
//! Beside them, the **lowering equalities** the serving path rests on: the
//! fused `Schedule::compile_segmented(S)` is `segmented(S).compile()` in
//! every field over the whole catalog, both synthesizers and the irregular
//! builders, the per-rank send and receive lists of any step are its chunks
//! filtered by rank, and the in-place `contiguity_of` is its
//! sort-dedup-count definition.
//!
//! `build` is total (`tests/build_total.rs`): a skipped configuration is
//! one the catalog answers `None` for, never a silenced failure.

use std::sync::OnceLock;

use bine_sched::catalog::Source;
use bine_sched::schedule::contiguity_of;
use bine_sched::{
    build, walk, BlockId, Collective, CompiledSchedule, CompiledSend, MessageRef, Request,
    Schedule, SizeDist, Step, TransferKind, ValidationError,
};
use proptest::prelude::*;

/// The walk over p ∈ 2..=33, for the properties that draw a request from it.
fn requests() -> &'static [Request] {
    static REQUESTS: OnceLock<Vec<Request>> = OnceLock::new();
    REQUESTS.get_or_init(|| walk(&(2..=33).collect::<Vec<_>>()))
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
    let ranks: Vec<usize> = (2..=33).chain([64]).collect();
    let mut lowered = 0;
    for request in walk(&ranks) {
        // Bare regular names at the first two roots.
        if !matches!(request.source, Source::Regular(_))
            || request.segments > 1
            || request.root > 1
            || request.repeats_root_zero()
        {
            continue;
        }
        if let Some(sched) = request.build() {
            assert_fused_lowering_equals_the_reference(&sched, &request.label());
            lowered += 1;
        }
    }
    assert!(lowered > 400, "only {lowered} schedules lowered");
}

#[test]
fn fused_lowering_equals_segment_then_compile_for_synthesized_and_irregular_schedules() {
    // Both synthesizers on every fixture view; every v-variant under every
    // `SizeDist` — the one-heavy layout included: every rank but one has a
    // zero count.
    let mut lowered = 0;
    for request in walk(&[2, 7, 16, 17]) {
        let kept = match request.source {
            Source::Regular(_) => false,
            Source::Irregular(..) => request.root == 0,
            Source::Synth(_) => request.root <= 1,
        };
        if !kept || request.segments > 1 {
            continue;
        }
        if let Some(sched) = request.build() {
            assert_fused_lowering_equals_the_reference(&sched, &request.label());
            lowered += 1;
        }
    }
    assert!(lowered > 90, "only {lowered} schedules lowered");
}

/// A message as plain data: source, destination, kind, regions, blocks.
type Owned = (usize, usize, TransferKind, u32, Vec<BlockId>);

fn owned(m: MessageRef) -> Owned {
    (m.src, m.dst, m.kind, m.segments, m.blocks.to_vec())
}

/// Appends the message decoded from one draw over `p` ranks: any source and
/// destination (the same one included), either kind, one to four blocks and
/// one to three annotated regions.
fn push_drawn(step: &mut Step, draw: u32, p: usize) {
    let d = draw as usize;
    let (src, dst) = (d % p, d / p % p);
    let kind = [TransferKind::Copy, TransferKind::Reduce][d / (p * p) % 2];
    let rest = d / (2 * p * p);
    let blocks = (0..1 + rest % 4).map(|b| BlockId::Segment(((rest / 4 + b) % p) as u32));
    let segments = 1 + (rest / 16 % 3) as u32;
    step.push_with_segments(src, dst, blocks, kind, segments);
}

/// The message a compiled send stands for, with its schedule order.
fn message_of(c: &CompiledSchedule, s: &CompiledSend) -> (u32, Owned) {
    let blocks = c
        .block_index_slice(s)
        .iter()
        .map(|&b| c.blocks().resolve(b));
    let (src, dst) = (s.src as usize, s.dst as usize);
    (s.order, (src, dst, s.kind, s.segments, blocks.collect()))
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
        prop_assert_eq!(contiguity_of(&blocks) as usize, runs.max(1), "{:?}", blocks);
    }

    // Lowering groups each sub-step's sends by source and its receives by
    // destination, in schedule order within a rank. Most builders list a
    // step by ascending source; here messages come in any order, several to
    // one `(src, dst)` pair, local moves among them, and the groupings must
    // still be the sub-step's chunks filtered by rank.
    #[test]
    fn lowering_groups_any_step_by_rank_in_schedule_order(
        p in 1usize..6,
        steps in prop::collection::vec(prop::collection::vec(0u32..1 << 12, 0..24), 1..4),
        chunks in 1usize..4,
    ) {
        let mut sched = Schedule::new(p, Collective::Allgather, "adversarial", 0);
        for draws in &steps {
            let mut step = Step::new();
            for &d in draws {
                push_drawn(&mut step, d, p);
            }
            sched.push_step(step);
        }
        let compiled = sched.compile_segmented(chunks);
        let reference = sched.segmented(chunks);
        prop_assert_eq!(compiled.num_steps(), reference.num_steps());
        for (step, sub) in reference.steps.iter().enumerate() {
            let listed: Vec<(u32, Owned)> = (0u32..).zip(sub.messages().map(owned)).collect();
            let of = |keep: &dyn Fn(&Owned) -> bool| -> Vec<(u32, Owned)> {
                listed.iter().filter(|(_, m)| keep(m)).cloned().collect()
            };
            let (mut by_src, mut by_dst) = (Vec::new(), Vec::new());
            for rank in 0..p {
                let sent: Vec<_> = compiled
                    .sends_from(step, rank)
                    .iter()
                    .map(|s| message_of(&compiled, s))
                    .collect();
                prop_assert_eq!(&sent, &of(&|m| m.0 == rank), "step {} rank {}", step, rank);
                let received: Vec<_> = compiled
                    .recvs_to(step, rank)
                    .iter()
                    .map(|&i| message_of(&compiled, compiled.send(i as usize)))
                    .collect();
                prop_assert_eq!(&received, &of(&|m| m.1 == rank), "step {} rank {}", step, rank);
                by_src.extend(sent);
                by_dst.extend(received);
            }
            let all_sent: Vec<_> = compiled
                .step_sends(step)
                .iter()
                .map(|s| message_of(&compiled, s))
                .collect();
            prop_assert_eq!(all_sent, by_src, "step {}", step);
            let all_received: Vec<_> = compiled
                .step_recvs(step)
                .iter()
                .map(|&i| message_of(&compiled, compiled.send(i as usize)))
                .collect();
            prop_assert_eq!(all_received, by_dst, "step {}", step);
        }
    }

    // Soundness: whatever the walk builds — any collective, any name
    // (regular, v-variant under any distribution — the one-heavy one, whose
    // zero-count segments are the classic edge case for delivery
    // accounting, included — or synthesized), any segmentation, any rank
    // count (power of two or not), any root — the validator accepts it.
    #[test]
    fn every_catalog_schedule_validates(draw in 0usize..1 << 30) {
        let regular: Vec<&Request> = requests()
            .iter()
            .filter(|r| !matches!(r.source, Source::Irregular(..)))
            .collect();
        let request = regular[draw % regular.len()];
        let Some(sched) = request.build() else {
            return Ok(());
        };
        prop_assert!(sched.validate().is_ok(), "{}: {:?}", request.label(), sched.validate());
    }

    #[test]
    fn every_irregular_schedule_validates(draw in 0usize..1 << 30) {
        let irregular: Vec<&Request> = requests()
            .iter()
            .filter(|r| matches!(r.source, Source::Irregular(..)))
            .collect();
        let request = irregular[draw % irregular.len()];
        let Some(sched) = request.build() else {
            return Ok(());
        };
        prop_assert!(sched.validate().is_ok(), "{}: {:?}", request.label(), sched.validate());
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
        let total: usize = sched.steps.iter().map(|st| st.len()).sum();
        let mut victim = victim_seed % total;
        for step in &mut sched.steps {
            if victim < step.len() {
                step.remove(victim);
                break;
            }
            victim -= step.len();
        }
        let err = sched.validate();
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
        let err = sched.validate();
        prop_assert!(
            matches!(err, Err(ValidationError::MissingBlock { .. })),
            "broadcast/{name} p={p}: reversed steps gave {err:?}"
        );
    }

    // Sensitivity: a count vector covering the wrong number of ranks is a
    // well-formedness failure with the exact mismatch in the diagnosis.
    #[test]
    fn corrupted_irregular_counts_are_diagnosed_as_a_mismatch(
        draw in 0usize..1 << 30,
        shrink in 1usize..=2,
    ) {
        let irregular: Vec<&Request> = requests()
            .iter()
            .filter(|r| matches!(r.source, Source::Irregular(..)) && r.p > shrink)
            .collect();
        let request = irregular[draw % irregular.len()];
        let Some(mut sched) = request.build() else {
            return Ok(());
        };
        let p = request.p;
        sched.counts = Some(SizeDist::Linear.counts(p - shrink, 0));
        let err = sched.validate();
        prop_assert!(
            matches!(
                err,
                Err(ValidationError::CountsMismatch { counts, ranks })
                    if counts == p - shrink && ranks == p
            ),
            "{}: shrunk counts gave {err:?}", request.label()
        );
    }
}
