//! Property-based end-to-end tests: random collective, algorithm, rank count
//! and root — the executed result must always satisfy the collective's
//! post-condition.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bine_exec::state::{BlockStore, Workload};
use bine_exec::{compiled, sequential, verify, ExecutorPool};
use bine_sched::{
    algorithms, build, build_irregular, irregular_algorithms, Collective, Schedule, SizeDist,
    IRREGULAR_COLLECTIVES,
};
use proptest::prelude::*;

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

fn any_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(Collective::ALL.to_vec())
}

fn any_irregular_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(IRREGULAR_COLLECTIVES.to_vec())
}

fn any_dist() -> impl Strategy<Value = SizeDist> {
    prop::sample::select(SizeDist::ALL.to_vec())
}

/// Rank counts the executor-equivalence property is checked at: powers of
/// two (every algorithm) and non-powers of two (the algorithms whose
/// generators support them, e.g. the ring family).
fn any_rank_count() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![2usize, 4, 8, 16, 32, 64, 3, 5, 6, 7, 12, 24, 48])
}

/// Elements per block on both sides of the payload size (1024 elements) from
/// which a one-lane run of a reducing schedule walks block by block instead
/// of step by step: every equivalence below holds for either walk.
fn any_elems() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..4, 1024usize..=1026]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_algorithm_instances_verify(
        collective in any_collective(),
        s in 1u32..=7,
        alg_seed in 0usize..100,
        root_seed in 0usize..1000,
        elems in 1usize..4,
    ) {
        let p = 1usize << s;
        let algs = algorithms(collective);
        let alg = &algs[alg_seed % algs.len()];
        let root = root_seed % p;
        let sched = build(collective, alg.name(), p, root).unwrap_or_else(|| panic!("{}", alg.name()));
        prop_assert!(sched.validate().is_ok());
        let workload = Workload::for_schedule(&sched, elems);
        let finals = sequential::run(&sched, workload.initial_state(&sched));
        if let Err(e) = verify::verify(&workload, &finals) {
            return Err(TestCaseError::fail(format!("{:?}/{}: {e}", collective, alg.name())));
        }
    }

    #[test]
    fn schedules_never_exceed_one_send_and_receive_per_rank_per_step(
        collective in any_collective(),
        s in 1u32..=6,
        alg_seed in 0usize..100,
    ) {
        let p = 1usize << s;
        let algs = algorithms(collective);
        let alg = &algs[alg_seed % algs.len()];
        let sched = build(collective, alg.name(), p, 0).unwrap_or_else(|| panic!("{}", alg.name()));
        prop_assert!(sched.validate().is_ok(), "{}", alg.name());
    }

    #[test]
    fn all_executors_produce_identical_final_states(
        collective in any_collective(),
        p in any_rank_count(),
        alg_seed in 0usize..100,
        root_seed in 0usize..1000,
        elems in any_elems(),
    ) {
        let algs = algorithms(collective);
        let alg = &algs[alg_seed % algs.len()];
        let root = root_seed % p;
        // Some generators only support power-of-two rank counts (the paper's
        // restriction) and build nothing at the others; everything that
        // builds must execute identically on every executor.
        let Some(sched) = build(collective, alg.name(), p, root) else { return Ok(()) };
        if sched.validate().is_err() {
            // Non-pow2 counts can produce structurally invalid schedules in
            // pow2-only generators without panicking; equivalence is only
            // claimed for valid schedules.
            return Ok(());
        }
        let workload = Workload::for_schedule(&sched, elems);
        let reference = catch_unwind(AssertUnwindSafe(|| {
            sequential::run_reference(&sched, workload.initial_state(&sched))
        }));
        // A generator that silently mis-builds at unsupported counts may
        // reference blocks nobody holds; the reference interpreter panics,
        // and equivalence requires every executor to reject it the same way.
        let Ok(reference) = reference else {
            for (name, outcome) in [
                ("sequential", catch_unwind(AssertUnwindSafe(|| sequential::run(&sched, workload.initial_state(&sched))))),
                ("compiled", catch_unwind(AssertUnwindSafe(|| compiled::run(&sched.compile(), workload.initial_state(&sched))))),
                ("pool", catch_unwind(AssertUnwindSafe(|| pool_run(&sched, workload.initial_state(&sched))))),
            ] {
                prop_assert!(outcome.is_err(), "{name} accepted a schedule the reference rejects ({:?}/{} p={p})", collective, alg.name());
            }
            return Ok(());
        };
        let seq = sequential::run(&sched, workload.initial_state(&sched));
        prop_assert_eq!(&seq, &reference, "sequential: {:?}/{} p={} root={}", collective, alg.name(), p, root);
        let comp = compiled::run(&sched.compile(), workload.initial_state(&sched));
        prop_assert_eq!(&comp, &reference, "compiled: {:?}/{} p={} root={}", collective, alg.name(), p, root);
        let pooled = pool_run(&sched, workload.initial_state(&sched));
        prop_assert_eq!(&pooled, &reference, "pool: {:?}/{} p={} root={}", collective, alg.name(), p, root);
        // Neither store equality nor the finals depend on the order the
        // inputs were inserted in (the block hasher is unkeyed: iteration
        // order is a function of the insertion history alone).
        let backwards = reinserted_backwards(&workload.initial_state(&sched));
        prop_assert_eq!(&backwards, &workload.initial_state(&sched));
        let comp = compiled::run(&sched.compile(), backwards.clone());
        prop_assert_eq!(&comp, &reference, "compiled, reinserted: {:?}/{} p={}", collective, alg.name(), p);
        let pooled = pool_run(&sched, backwards);
        prop_assert_eq!(&pooled, &reference, "pool, reinserted: {:?}/{} p={}", collective, alg.name(), p);
    }

    // The pipelining transform (`bine_sched::segment`) must be a semantic
    // no-op: a segmented schedule partitions each message's blocks over
    // sub-steps, so every block sees the same transfers and reductions in
    // the same order, and the final states of every executor are
    // bit-identical to running the unsegmented schedule.
    #[test]
    fn segmented_schedules_execute_bit_identically(
        collective in any_collective(),
        s in 1u32..=6,
        alg_seed in 0usize..100,
        root_seed in 0usize..1000,
        chunks in 2usize..=6,
        elems in any_elems(),
    ) {
        let p = 1usize << s;
        let algs = algorithms(collective);
        let alg = &algs[alg_seed % algs.len()];
        let root = root_seed % p;
        let sched = build(collective, alg.name(), p, root).unwrap_or_else(|| panic!("{}", alg.name()));
        let seg = sched.segmented(chunks);
        prop_assert!(seg.validate().is_ok(), "{}+seg{chunks}", alg.name());
        let workload = Workload::for_schedule(&sched, elems);
        let reference = sequential::run_reference(&sched, workload.initial_state(&sched));
        for (name, finals) in [
            ("reference", sequential::run_reference(&seg, workload.initial_state(&seg))),
            ("sequential", sequential::run(&seg, workload.initial_state(&seg))),
            ("compiled", compiled::run(&seg.compile(), workload.initial_state(&seg))),
            ("pool", pool_run(&seg, workload.initial_state(&seg))),
        ] {
            prop_assert_eq!(
                &finals, &reference,
                "{} on {}+seg{}: p={} root={}", name, alg.name(), chunks, p, root
            );
        }
        if let Err(e) = verify::verify(&workload, &reference) {
            return Err(TestCaseError::fail(format!("{:?}/{}: {e}", collective, alg.name())));
        }
    }

    // The irregular (v-variant) leg of the equivalence matrix: every
    // buildable v-variant schedule — any size distribution, any root, any
    // segmentation, pow2 and non-pow2 rank counts alike — executes
    // bit-identically on all three executors and satisfies the collective's
    // counts-weighted post-condition. Zero-count segments (the one-heavy
    // distribution) must flow through every executor the same way as any
    // other block.
    #[test]
    fn irregular_schedules_execute_identically_on_all_executors(
        collective in any_irregular_collective(),
        p in any_rank_count(),
        dist in any_dist(),
        alg_seed in 0usize..100,
        root_seed in 0usize..1000,
        chunks in 1usize..=4,
        elems in any_elems(),
    ) {
        let algs = irregular_algorithms(collective);
        let alg = algs[alg_seed % algs.len()];
        let root = root_seed % p;
        let counts = dist.counts(p, root);
        let name = if chunks > 1 {
            format!("{}+seg{chunks}", alg.name())
        } else {
            alg.name().to_string()
        };
        // The butterfly-backed variants only exist at pow2 rank counts and
        // build nothing at the others, exactly as in the regular matrix.
        let Some(sched) = build_irregular(collective, &name, p, root, &counts) else {
            return Ok(());
        };
        if sched.validate().is_err() {
            return Ok(());
        }
        prop_assert!(sched.counts.is_some(), "irregular schedule lost its counts");
        let workload = Workload::for_schedule(&sched, elems);
        let reference = catch_unwind(AssertUnwindSafe(|| {
            sequential::run_reference(&sched, workload.initial_state(&sched))
        }));
        let Ok(reference) = reference else {
            for (exec, outcome) in [
                ("sequential", catch_unwind(AssertUnwindSafe(|| sequential::run(&sched, workload.initial_state(&sched))))),
                ("compiled", catch_unwind(AssertUnwindSafe(|| compiled::run(&sched.compile(), workload.initial_state(&sched))))),
                ("pool", catch_unwind(AssertUnwindSafe(|| pool_run(&sched, workload.initial_state(&sched))))),
            ] {
                prop_assert!(
                    outcome.is_err(),
                    "{exec} accepted an irregular schedule the reference rejects \
                     ({:?}/{name} p={p} dist={})",
                    collective, dist.name()
                );
            }
            return Ok(());
        };
        for (exec, finals) in [
            ("sequential", sequential::run(&sched, workload.initial_state(&sched))),
            ("compiled", compiled::run(&sched.compile(), workload.initial_state(&sched))),
            ("pool", pool_run(&sched, workload.initial_state(&sched))),
        ] {
            prop_assert_eq!(
                &finals, &reference,
                "{} on {:?}/{} p={} root={} dist={}",
                exec, collective, &name, p, root, dist.name()
            );
        }
        if let Err(e) = verify::verify(&workload, &reference) {
            return Err(TestCaseError::fail(format!(
                "{:?}/{name} p={p} dist={}: {e}", collective, dist.name()
            )));
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
            ("sequential", sequential::run(&seg, workload.initial_state(&seg))),
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
        for id in bine_sched::synth_algorithms(collective, &view) {
            let spec = bine_sched::SynthSpec::parse(id.name()).expect("canonical name");
            // ForestColl's rate-optimal tree count is root-dependent: a k
            // enumerated for root 0 may admit no k edge-disjoint spanning
            // trees from another root. The provider returns None there and
            // serving falls back; only the tuned root must always build.
            let Some(sched) = spec.synthesize(collective, &view, root) else {
                prop_assert!(root != 0, "{} p={p}: unbuildable at the tuned root", id.name());
                continue;
            };
            prop_assert!(sched.validate().is_ok(), "{} p={p} root={root}", id.name());
            let seg = sched.segmented(chunks);
            let workload = Workload::for_schedule(&seg, elems);
            let reference = sequential::run_reference(&seg, workload.initial_state(&seg));
            for (exec, finals) in [
                ("sequential", sequential::run(&seg, workload.initial_state(&seg))),
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
