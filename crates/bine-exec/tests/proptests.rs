//! Property-based end-to-end tests: a random request of the catalog's walk
//! (collective, algorithm, rank count, root, segmentation, distribution) —
//! the executed result must always satisfy the collective's post-condition.

#[path = "../../../tests/support/walk.rs"]
mod walk;

use std::sync::Arc;

use bine_exec::{compiled, sequential, verify, ExecutorPool};
use bine_exec::{BlockStore, Workload};
use bine_sched::catalog::Source;
use bine_sched::{build, Collective, ProviderSet, Request, Schedule};
use proptest::prelude::*;
use walk::Walk;

/// Compiles `schedule` and runs it on the process-wide [`ExecutorPool`].
fn pool_run(schedule: &Schedule, initial: Vec<BlockStore>) -> Vec<BlockStore> {
    ExecutorPool::global().run(&Arc::new(schedule.compile()), initial)
}

/// `initial` rebuilt store by store with the blocks inserted in the reverse
/// of their iteration order: the same stores, laid out by a different
/// insertion history.
fn reinserted_backwards(initial: &[BlockStore]) -> Vec<BlockStore> {
    let rebuild = |store: &BlockStore| {
        let mut blocks: Vec<_> = store.clone().into_blocks().collect();
        blocks.reverse();
        let mut rebuilt = BlockStore::new();
        for (id, payload) in blocks {
            rebuilt.insert(id, payload);
        }
        rebuilt
    };
    initial.iter().map(rebuild).collect()
}

/// The walk over the rank counts the executor properties are checked at:
/// powers of two (every algorithm) and non-powers of two (the rows that
/// build there, e.g. the ring family). A property draws an index into the
/// requests it `keep`s.
static WALK: Walk = Walk::new(&[2, 4, 8, 16, 32, 64, 128, 3, 5, 6, 7, 12, 24, 48], |_| {
    true
});

fn is_regular(request: &Request) -> bool {
    matches!(request.source, Source::Regular(_))
}

fn any_draw() -> impl Strategy<Value = usize> {
    0usize..1 << 30
}

/// Elements per block on both sides of the payload size (1024 elements) from
/// which a run of a reducing schedule walks block by block instead
/// of step by step: every equivalence below holds for either walk.
fn any_elems() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..4, 1024usize..=1026]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_algorithm_instances_verify(draw in any_draw(), elems in 1usize..4) {
        let request = WALK.drawn(draw, |r| is_regular(r) && r.p.is_power_of_two());
        let Some(sched) = request.build() else { return Ok(()) };
        prop_assert!(sched.validate().is_ok());
        let workload = Workload::for_schedule(&sched, elems);
        let finals = compiled::run(&sched.compile(), workload.initial_state(&sched));
        if let Err(e) = verify::verify(&workload, &finals) {
            return Err(TestCaseError::fail(format!("{}: {e}", request.label())));
        }
    }

    #[test]
    fn schedules_never_exceed_one_send_and_receive_per_rank_per_step(draw in any_draw()) {
        let request = WALK.drawn(draw, |r| r.p <= 64);
        let Some(sched) = request.build() else { return Ok(()) };
        prop_assert!(sched.validate().is_ok(), "{}", request.label());
    }

    #[test]
    fn all_executors_produce_identical_final_states(draw in any_draw(), elems in any_elems()) {
        // A row that does not build at the rank count builds nothing (the
        // paper's power-of-two restriction); everything that builds must
        // execute identically on every executor.
        let request = WALK.drawn(draw, |r| is_regular(r) && r.p <= 64);
        let what = request.label();
        let Some(sched) = request.build() else { return Ok(()) };
        let workload = Workload::for_schedule(&sched, elems);
        let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
        let comp = compiled::run(&sched.compile(), workload.initial_state(&sched));
        prop_assert_eq!(&comp, &reference, "compiled: {}", what);
        let pooled = pool_run(&sched, workload.initial_state(&sched));
        prop_assert_eq!(&pooled, &reference, "pool: {}", what);
        // Neither store equality nor the finals depend on the order the
        // inputs were inserted in (the block hasher is unkeyed: iteration
        // order is a function of the insertion history alone).
        let backwards = reinserted_backwards(&workload.initial_state(&sched));
        prop_assert_eq!(&backwards, &workload.initial_state(&sched));
        let comp = compiled::run(&sched.compile(), backwards.clone());
        prop_assert_eq!(&comp, &reference, "compiled, reinserted: {}", what);
        let pooled = pool_run(&sched, backwards);
        prop_assert_eq!(&pooled, &reference, "pool, reinserted: {}", what);
    }

    // The pipelining transform (`bine_sched::segment`) must be a semantic
    // no-op: a segmented schedule partitions each message's blocks over
    // sub-steps, so every block sees the same transfers and reductions in
    // the same order, and the final states of every executor are
    // bit-identical to running the unsegmented schedule.
    #[test]
    fn segmented_schedules_execute_bit_identically(
        draw in any_draw(),
        chunks in 2usize..=6,
        elems in any_elems(),
    ) {
        let bare = |r: &Request| is_regular(r) && r.segments == 1;
        let request = WALK.drawn(draw, |r| bare(r) && r.p <= 64 && r.p.is_power_of_two());
        let what = request.label();
        let Some(sched) = request.build() else { return Ok(()) };
        let seg = sched.segmented(chunks);
        prop_assert!(seg.validate().is_ok(), "{}+seg{}", what, chunks);
        let workload = Workload::for_schedule(&sched, elems);
        let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
        for (name, finals) in [
            ("reference", sequential::run_reference(&seg, workload.initial_state(&seg))),
            ("compiled", compiled::run(&seg.compile(), workload.initial_state(&seg))),
            ("pool", pool_run(&seg, workload.initial_state(&seg))),
        ] {
            prop_assert_eq!(&finals, &reference, "{} on {}+seg{}", name, what, chunks);
        }
        if let Err(e) = verify::verify(&workload, &reference) {
            return Err(TestCaseError::fail(format!("{what}: {e}")));
        }
    }

    // The irregular (v-variant) leg of the equivalence matrix: every
    // buildable v-variant schedule — any size distribution, any root, any
    // segmentation, pow2 and non-pow2 rank counts alike — executes
    // bit-identically on the reference, the compiled walks and the pool and
    // satisfies the collective's counts-weighted post-condition. Zero-count
    // segments (the one-heavy distribution) must flow through every
    // executor the same way as any other block.
    #[test]
    fn irregular_schedules_execute_identically_on_all_executors(
        draw in any_draw(),
        elems in any_elems(),
    ) {
        // The butterfly-backed variants only exist at pow2 rank counts and
        // build nothing at the others, exactly as in the regular matrix.
        let request = WALK.drawn(draw, |r| matches!(r.source, Source::Irregular(..)) && r.p <= 64);
        let what = request.label();
        let Some(sched) = request.build() else { return Ok(()) };
        prop_assert!(sched.counts.is_some(), "irregular schedule lost its counts");
        let workload = Workload::for_schedule(&sched, elems);
        let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
        for (exec, finals) in [
            ("compiled", compiled::run(&sched.compile(), workload.initial_state(&sched))),
            ("pool", pool_run(&sched, workload.initial_state(&sched))),
        ] {
            prop_assert_eq!(&finals, &reference, "{} on {}", exec, what);
        }
        if let Err(e) = verify::verify(&workload, &reference) {
            return Err(TestCaseError::fail(format!("{what}: {e}")));
        }
    }

    // The doubly-pipelined dual-root allreduce, pinned explicitly: the two
    // interleaved trees reduce and broadcast concurrently, which makes its
    // step structure unlike anything else in the catalog — every executor
    // and every segmentation must still agree with the reference bit for
    // bit, at every power-of-two rank count.
    #[test]
    fn dual_root_allreduce_is_bit_identical_across_executors(
        s in 1u32..=6,
        chunks in 1usize..=6,
        elems in any_elems(),
    ) {
        let p = 1usize << s;
        let sched = build(Collective::Allreduce, "dual-root", p, 0).expect("dual-root");
        let seg = sched.segmented(chunks);
        prop_assert!(seg.validate().is_ok(), "dual-root+seg{chunks} p={p}");
        let workload = Workload::for_schedule(&sched, elems);
        let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
        for (exec, finals) in [
            ("reference", sequential::run_reference(&seg, workload.initial_state(&seg))),
            ("compiled", compiled::run(&seg.compile(), workload.initial_state(&seg))),
            ("pool", pool_run(&seg, workload.initial_state(&seg))),
        ] {
            prop_assert_eq!(
                &finals, &reference,
                "{} on dual-root+seg{}: p={}", exec, chunks, p
            );
        }
        if let Err(e) = verify::verify(&workload, &reference) {
            return Err(TestCaseError::fail(format!("dual-root p={p}: {e}")));
        }
    }

    // Synthesized schedules enter production through the same executors as
    // the catalog, but their dataflow is derived from a topology view
    // instead of a closed form — so executor equivalence (and the
    // collective post-condition) is asserted over random views too:
    // random island structure, power-of-two and non-power-of-two rank
    // counts, random bandwidth hierarchy, random root, with and without
    // segmentation.
    #[test]
    fn synthesized_schedules_execute_bit_identically_on_all_executors(
        groups in prop::collection::vec(1usize..7, 1..5).prop_map(|mut g| { g[0] += 1; g }),
        local_seed in 0usize..3,
        global_seed in 0usize..3,
        collective_seed in 0usize..3,
        root_seed in 0usize..1000,
        chunks in 1usize..=4,
        elems in any_elems(),
    ) {
        let local = [12.5f64, 100.0, 400.0][local_seed];
        let global = [2.5f64, 25.0, 100.0][global_seed];
        let view = bine_sched::TopologyView::clustered(&groups, (local, 0.3), (global, 25.0))
            .expect("non-empty groups build");
        let collective = [Collective::Broadcast, Collective::Reduce, Collective::Allreduce]
            [collective_seed];
        let p = view.num_ranks();
        let root = root_seed % p;
        let providers = ProviderSet::with_view(view);
        let candidates = providers.algorithms(collective, p);
        for id in candidates.iter().filter(|id| id.is_synthesized()) {
            // ForestColl's rate-optimal tree count is root-dependent: a k
            // enumerated for root 0 may admit no k edge-disjoint spanning
            // trees from another root. The provider returns None there and
            // serving falls back; only the tuned root must always build.
            let Some(sched) = providers.build(collective, id.name(), p, root) else {
                prop_assert!(root != 0, "{} p={p}: unbuildable at the tuned root", id.name());
                continue;
            };
            prop_assert!(sched.validate().is_ok(), "{} p={p} root={root}", id.name());
            let seg = sched.segmented(chunks);
            let workload = Workload::for_schedule(&seg, elems);
            let reference = sequential::run_reference(&seg, workload.initial_state(&seg));
            for (exec, finals) in [
                ("compiled", compiled::run(&seg.compile(), workload.initial_state(&seg))),
                ("pool", pool_run(&seg, workload.initial_state(&seg))),
            ] {
                prop_assert_eq!(
                    &finals, &reference,
                    "{} on {}+seg{}: p={} root={}", exec, id.name(), chunks, p, root
                );
            }
            if let Err(e) = verify::verify(&workload, &reference) {
                return Err(TestCaseError::fail(format!(
                    "{}/{:?} p={p} root={root} chunks={chunks}: {e}", id.name(), collective
                )));
            }
        }
    }
}
