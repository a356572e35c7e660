//! Concurrency pins for the serving layer: [`ServiceSelector`] must answer
//! every query stream — cold, warm, or hammered from many threads at once —
//! with picks bit-identical to the committed table's — [`SelectorIndex`]'s
//! lookup, compiled through the index's providers — while respecting
//! the per-shard cache capacity and compiling each entry exactly once under
//! single-flight.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use bine_sched::{Collective, CompiledSchedule, SizeDist};
use bine_tune::{
    fallback_pick, tuned_name, CompileAttempt, DecisionTable, DegradePolicy, Entry, ScoreModel,
    SelectorIndex, Served, ServiceSelector,
};
use proptest::prelude::*;

/// A two-collective table with enough breakpoints that random queries
/// exercise clamping, floor lookup and multiple distinct slots. Picks are
/// all buildable at power-of-two rank counts.
fn table() -> DecisionTable {
    let e = |collective, nodes: usize, bytes: u64, pick: &str| Entry {
        collective,
        dist: None,
        nodes,
        vector_bytes: bytes,
        pick: pick.into(),
        model: ScoreModel::Sync,
        time_us: 1.0,
    };
    DecisionTable {
        system: "Stressbox".into(),
        entries: vec![
            e(Collective::Allreduce, 8, 32, "recursive-doubling"),
            e(Collective::Allreduce, 8, 1 << 20, "bine-large"),
            e(Collective::Allreduce, 32, 32, "recursive-doubling"),
            e(Collective::Allreduce, 32, 1 << 16, "bine-large+seg2"),
            e(Collective::Allreduce, 32, 1 << 20, "bine-large+seg8"),
            e(Collective::Broadcast, 8, 32, "bine-tree"),
            e(Collective::Broadcast, 32, 1 << 20, "bine-scatter-allgather"),
        ],
    }
}

/// The query grid the stress threads draw from: power-of-two node counts
/// (every pick above is buildable there) across both collectives and sizes
/// spanning all byte breakpoints.
fn queries() -> Vec<(Collective, usize, u64)> {
    let mut q = Vec::new();
    for &collective in &[Collective::Allreduce, Collective::Broadcast] {
        for &nodes in &[4usize, 8, 16, 32, 64] {
            for &bytes in &[1u64, 32, 4096, 1 << 16, 1 << 20, 1 << 24] {
                q.push((collective, nodes, bytes));
            }
        }
    }
    q
}

/// The committed pick's schedule, built as the service builds its committed
/// rung: the index's lookup, compiled through the index's providers at
/// root 0.
fn committed_compiled(
    index: &SelectorIndex,
    collective: Collective,
    nodes: usize,
    bytes: u64,
) -> Option<CompiledSchedule> {
    let t = index.choose(collective, nodes, bytes)?;
    let pick = tuned_name(t.algorithm, t.segments);
    index.providers().compile(collective, &pick, nodes, 0)
}

/// What the committed table answers for every query: the pick, plus the
/// compiled schedule's identity-relevant fields (algorithm name carries the
/// segment suffix; rank count and step count pin the build).
struct Expected {
    algorithm: String,
    segments: usize,
    compiled_name: String,
    num_ranks: usize,
    num_steps: usize,
}

fn expectations(queries: &[(Collective, usize, u64)]) -> Vec<Expected> {
    let index = SelectorIndex::from_table(&table());
    queries
        .iter()
        .map(|&(collective, nodes, bytes)| {
            let t = index.choose(collective, nodes, bytes).expect("pick");
            let (algorithm, segments) = (t.algorithm.to_string(), t.segments);
            let compiled = committed_compiled(&index, collective, nodes, bytes).expect("compiled");
            Expected {
                algorithm,
                segments,
                compiled_name: compiled.algorithm.clone(),
                num_ranks: compiled.num_ranks,
                num_steps: compiled.num_steps(),
            }
        })
        .collect()
}

/// N threads hammer one shared service with interleaved query streams;
/// every answer must match the committed table's, the per-shard cache must
/// stay within capacity throughout, and — because the capacity covers the
/// whole working set — every distinct entry must compile exactly once.
#[test]
fn stress_matches_serial_and_respects_capacity() {
    let queries = Arc::new(queries());
    let expected = Arc::new(expectations(&queries));
    // Distinct (collective, nodes, slot) keys: count via the committed pick of
    // each query (compiled entries are keyed by resolved slot + rank count).
    let distinct = {
        let mut keys: Vec<(&str, usize, String)> = queries
            .iter()
            .zip(expected.iter())
            .map(|(&(c, n, _), e)| (c.name(), n, e.compiled_name.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    };

    let service = Arc::new(
        ServiceSelector::from_tables(&[table()])
            .with_shards(4)
            .with_shard_capacity(distinct), // warm: no evictions, exact compile count
    );
    let threads = 8;
    let rounds = 6;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&service);
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for round in 0..rounds {
                    // Every thread walks the full grid, each from its own
                    // offset, so cold entries are raced from many threads.
                    for i in 0..queries.len() {
                        let j = (i + t * 7 + round * 3) % queries.len();
                        let (collective, nodes, bytes) = queries[j];
                        let want = &expected[j];
                        let got = service
                            .choose_at(0, collective, nodes, bytes)
                            .expect("service pick");
                        assert_eq!(got.algorithm, want.algorithm);
                        assert_eq!(got.segments, want.segments);
                        let compiled = service
                            .compiled_at(0, collective, nodes, bytes)
                            .expect("service compiled");
                        assert_eq!(compiled.algorithm, want.compiled_name);
                        assert_eq!(compiled.num_ranks, want.num_ranks);
                        assert_eq!(compiled.num_steps(), want.num_steps);
                    }
                    // Capacity invariant, checked live under contention.
                    assert!(service
                        .shard_lens()
                        .iter()
                        .all(|&len| len <= service.shard_capacity()));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    // Warm cache held every entry: single-flight means each distinct entry
    // compiled exactly once across all 8 threads × 6 rounds.
    assert_eq!(service.compilations(), distinct as u64);
    assert_eq!(service.cached_schedules(), distinct);
    let total = (threads * rounds * queries.len()) as u64;
    assert_eq!(service.hits() + service.misses(), total);
    assert!(service.hits() >= total - distinct as u64 * threads as u64);
}

/// Irregular grids through the serving layer: many threads hammer
/// `choose_irregular_at` across every size distribution — dist-grid hits
/// and regular-grid fallbacks alike — and every answer must stay equal to
/// the index's, including the `None`s for collectives the table
/// does not carry at all.
#[test]
fn irregular_queries_stay_serial_identical_under_contention() {
    let e = |collective, dist, nodes: usize, bytes: u64, pick: &str| Entry {
        collective,
        dist,
        nodes,
        vector_bytes: bytes,
        pick: pick.into(),
        model: ScoreModel::Sync,
        time_us: 1.0,
    };
    let table = DecisionTable {
        system: "Stressbox".into(),
        entries: vec![
            // The regular grid the dist misses fall back to.
            e(Collective::Allgather, None, 8, 32, "recursive-doubling"),
            e(Collective::Allgather, None, 8, 1 << 20, "ring"),
            e(Collective::Gather, None, 8, 32, "binomial-dd"),
            // Two dist grids with their own breakpoints.
            e(
                Collective::Allgather,
                Some(SizeDist::OneHeavy),
                8,
                32,
                "ring",
            ),
            e(
                Collective::Allgather,
                Some(SizeDist::OneHeavy),
                8,
                1 << 20,
                "bine",
            ),
            e(Collective::Gather, Some(SizeDist::Linear), 8, 32, "traff"),
        ],
    };
    let mut queries = Vec::new();
    for &collective in &[
        Collective::Allgather,
        Collective::Gather,
        Collective::Scatter,
    ] {
        for dist in SizeDist::ALL {
            for &nodes in &[4usize, 8, 16, 64] {
                for &bytes in &[1u64, 32, 4096, 1 << 20, 1 << 24] {
                    queries.push((collective, dist, nodes, bytes));
                }
            }
        }
    }
    let index = SelectorIndex::from_table(&table);
    let expected: Vec<Option<(String, usize)>> = queries
        .iter()
        .map(|&(collective, dist, nodes, bytes)| {
            index
                .choose_irregular(collective, dist, nodes, bytes)
                .map(|t| (t.algorithm.to_string(), t.segments))
        })
        .collect();
    // Scatter has no rows at all: the fallback must be a clean None, and at
    // least one dist-grid query and one fallback query must resolve.
    assert!(expected.iter().any(|e| e.is_none()));
    assert!(expected
        .iter()
        .any(|e| matches!(e, Some((a, _)) if a == "traff")));
    assert!(expected
        .iter()
        .any(|e| matches!(e, Some((a, _)) if a == "recursive-doubling")));

    let service = Arc::new(ServiceSelector::from_tables(&[table]).with_shards(4));
    let queries = Arc::new(queries);
    let expected = Arc::new(expected);
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&service);
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for round in 0..6 {
                    for i in 0..queries.len() {
                        let j = (i + t * 11 + round * 5) % queries.len();
                        let (collective, dist, nodes, bytes) = queries[j];
                        let got = service
                            .choose_irregular_at(0, collective, dist, nodes, bytes)
                            .map(|t| (t.algorithm.to_string(), t.segments));
                        assert_eq!(
                            got,
                            expected[j],
                            "{collective:?} dist={} nodes={nodes} bytes={bytes}",
                            dist.name()
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("irregular stress thread panicked");
    }
}

/// All threads release on a barrier straight into the same cold entry: one
/// compiles, the rest wait on the in-flight handle — and everyone gets the
/// same `Arc`.
#[test]
fn single_flight_dedupes_concurrent_compiles() {
    let service = Arc::new(ServiceSelector::from_tables(&[table()]).with_shards(1));
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let results = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let results = Arc::clone(&results);
            thread::spawn(move || {
                barrier.wait();
                let compiled = service
                    .compiled_at(0, Collective::Allreduce, 32, 1 << 20)
                    .expect("compiled");
                results.lock().unwrap().push(compiled);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread panicked");
    }
    let results = results.lock().unwrap();
    assert_eq!(results.len(), threads);
    assert!(
        results.iter().all(|c| Arc::ptr_eq(c, &results[0])),
        "all racers must share the one compiled schedule"
    );
    assert_eq!(
        service.compilations(),
        1,
        "the cold entry must compile exactly once, not once per racer"
    );
    // Racers that lost the race to the *completed* compile are hits; every
    // request is one or the other, and at least the leader missed.
    assert_eq!(service.hits() + service.misses(), threads as u64);
    assert!(service.misses() >= 1);
}

/// Cold-cache race on a *recovery* key: eight threads hit the same dead
/// rank at once, so all of them stall on the same committed schedule and
/// shrink to the same survivor communicator. Recovery compiles go through
/// the same single-flight as every other miss, so each distinct key — the
/// committed pick at 8 ranks, the ring the ladder lands on at 7 — compiles
/// exactly once however the threads interleave.
#[test]
fn racing_recoveries_compile_each_distinct_key_exactly_once() {
    let service = Arc::new(ServiceSelector::from_tables(&[table()]).with_shards(1));
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // (allreduce, 8, 32) resolves to recursive-doubling, which
                // stalls on any dead exchange partner.
                let served = service
                    .try_execute_recovering("Stressbox", Collective::Allreduce, 8, 32, 2, &[3])
                    .expect("query resolves")
                    .expect("the stall recovers");
                let Served::Recovered(rec) = served else {
                    panic!("a dead exchange partner must stall recursive doubling");
                };
                assert_eq!(rec.map.num_survivors(), 7);
                (rec.pick, rec.finals)
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("recovering thread panicked"))
        .collect();
    assert!(
        results.iter().all(|r| *r == results[0]),
        "every racer recovers to the same pick and the same finals"
    );
    assert_eq!(results[0].0, "ring");
    let stats = service.stats();
    assert_eq!(stats.compilations, 2, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, 2 * threads as u64, "{stats:?}");
    assert_eq!(
        (stats.stalls, stats.recoveries),
        (threads as u64, threads as u64),
        "{stats:?}"
    );
}

/// A tiny cache under contention: per-shard capacity 1 forces constant
/// eviction + recompilation, and the capacity bound and the equality of
/// picks with the committed table's must both survive it.
#[test]
fn contended_evictions_keep_answers_serial_identical() {
    let queries = queries();
    let expected = expectations(&queries);
    let service = Arc::new(
        ServiceSelector::from_tables(&[table()])
            .with_shards(2)
            .with_shard_capacity(1),
    );
    let threads = 4;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            let pinned: Vec<(Collective, usize, u64, String, usize)> = queries
                .iter()
                .zip(expected.iter())
                .map(|(&(c, n, b), e)| (c, n, b, e.compiled_name.clone(), e.num_ranks))
                .collect();
            thread::spawn(move || {
                for round in 0..4 {
                    for i in 0..pinned.len() {
                        let (collective, nodes, bytes, ref name, num_ranks) =
                            pinned[(i + t + round) % pinned.len()];
                        let compiled = service
                            .compiled_at(0, collective, nodes, bytes)
                            .expect("compiled");
                        assert_eq!(compiled.algorithm, *name);
                        assert_eq!(compiled.num_ranks, num_ranks);
                        assert!(service.shard_lens().iter().all(|&len| len <= 1));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread panicked");
    }
    assert!(service.cached_schedules() <= 2);
    // Thrashing forces recompiles: far more compilations than distinct
    // entries, yet never more than total misses.
    assert!(service.compilations() >= 2);
    assert!(service.compilations() <= service.misses());
}

/// Regression for the unbounded follower wait: a leader stalled inside its
/// compile must not strand followers. The follower's bounded wait times
/// out, the request is answered with the binomial fallback, and once the
/// leader is released its (healthy) compile still publishes normally.
#[test]
fn stalled_leader_does_not_strand_followers() {
    // The hook blocks Allreduce compiles until the test releases them, and
    // flags when the leader has actually entered the compile (so the main
    // thread is guaranteed to register as a follower, not a leader).
    #[derive(Default)]
    struct Gate {
        state: Mutex<(bool, bool)>, // (leader entered, released)
        cv: Condvar,
    }
    let gate = Arc::new(Gate::default());
    let hook_gate = Arc::clone(&gate);
    let service = Arc::new(
        ServiceSelector::from_tables(&[table()])
            .with_policy(DegradePolicy {
                flight_timeout: Duration::from_millis(50),
                max_retries: 0,
                backoff_base: Duration::ZERO,
                backoff_cap: Duration::ZERO,
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_secs(3600),
            })
            .with_compile_hook(Arc::new(move |a: &CompileAttempt| {
                if a.collective != Collective::Allreduce {
                    return;
                }
                let mut st = hook_gate.state.lock().unwrap();
                st.0 = true;
                hook_gate.cv.notify_all();
                while !st.1 {
                    st = hook_gate.cv.wait(st).unwrap();
                }
            })),
    );

    let leader_service = Arc::clone(&service);
    let leader = thread::spawn(move || {
        leader_service
            .compiled_at(0, Collective::Allreduce, 8, 1 << 20)
            .expect("leader result")
    });
    // Wait until the leader is provably stalled inside its compile.
    {
        let mut st = gate.state.lock().unwrap();
        while !st.0 {
            st = gate.cv.wait(st).unwrap();
        }
    }

    // The follower times out after 50 ms and degrades instead of hanging.
    let degraded = service
        .compiled_at(0, Collective::Allreduce, 8, 1 << 20)
        .expect("follower must still get an answer");
    assert_eq!(
        degraded.algorithm,
        fallback_pick(Collective::Allreduce, 1 << 20)
    );
    assert_eq!(degraded.num_ranks, 8);
    assert_eq!(service.stats().timeouts, 1);
    assert!(service.fallbacks() >= 1);
    // The timed-out wait counted as a failure; at threshold 1 the breaker
    // is open, so further requests degrade immediately, without waiting.
    let degraded = service
        .compiled_at(0, Collective::Allreduce, 8, 1 << 20)
        .expect("degraded answer");
    assert_eq!(
        degraded.algorithm,
        fallback_pick(Collective::Allreduce, 1 << 20)
    );
    assert_eq!(
        service.stats().timeouts,
        1,
        "no second wait once the breaker is open"
    );

    // Release the leader: its compile completes and publishes the tuned
    // pick; the stall was a delay, not a corruption.
    {
        let mut st = gate.state.lock().unwrap();
        st.1 = true;
        gate.cv.notify_all();
    }
    let led = leader.join().expect("leader thread panicked");
    assert_eq!(led.algorithm, "bine-large");
    // The published line is served to later requests (the open breaker is
    // consulted only after the cache, and a cached line is always good).
    let hit = service
        .compiled_at(0, Collective::Allreduce, 8, 1 << 20)
        .expect("cached answer");
    assert!(Arc::ptr_eq(&led, &hit));
}

/// Satellite stress pin: 8 threads race injected compile panics against
/// warm cache hits. The cache must never publish a poisoned entry (every
/// degraded answer is exactly the binomial fallback, every healthy answer
/// the already-published line), and retry accounting must be exactly-once:
/// each failed leadership records precisely `max_retries` retries, however
/// many threads race.
#[test]
fn racing_compile_panics_never_poison_the_cache_and_count_retries_once() {
    let poisoned_calls = Arc::new(AtomicU64::new(0));
    let calls = Arc::clone(&poisoned_calls);
    let service = Arc::new(
        ServiceSelector::from_tables(&[table()])
            .with_policy(DegradePolicy {
                flight_timeout: Duration::from_secs(30),
                max_retries: 1,
                backoff_base: Duration::ZERO,
                backoff_cap: Duration::ZERO,
                breaker_threshold: 3,
                breaker_cooldown: Duration::from_secs(3600),
            })
            .with_compile_hook(Arc::new(move |a: &CompileAttempt| {
                if a.collective == Collective::Allreduce && a.nodes == 8 {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("injected compile failure");
                }
            })),
    );
    // Pre-warm the healthy entry the even threads hammer.
    let warm = service
        .compiled_at(0, Collective::Broadcast, 8, 32)
        .expect("warm");

    let threads = 8;
    let rounds = 16;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&service);
            let warm = Arc::clone(&warm);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for _ in 0..rounds {
                    if t % 2 == 0 {
                        // Warm hits must keep returning the published line,
                        // races with the panicking entry notwithstanding.
                        let c = service
                            .compiled_at(0, Collective::Broadcast, 8, 32)
                            .expect("warm hit");
                        assert!(Arc::ptr_eq(&c, &warm), "healthy entry must stay cached");
                    } else {
                        // The poisoned entry always degrades to the binomial
                        // fallback — never a partially-compiled tuned pick,
                        // and never an error: availability stays 100%.
                        let c = service
                            .compiled_at(0, Collective::Allreduce, 8, 1 << 20)
                            .expect("degraded answer");
                        assert_eq!(c.algorithm, fallback_pick(Collective::Allreduce, 1 << 20));
                        assert_eq!(c.num_ranks, 8);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    // Single-flight serialises leaderships and each failure lands in the
    // breaker before followers wake, so exactly `breaker_threshold` (3)
    // leaderships ran, each trying twice (first try + one retry): 6 hook
    // calls and 3 recorded retries — exactly-once accounting under racing.
    assert_eq!(poisoned_calls.load(Ordering::SeqCst), 6);
    assert_eq!(service.stats().retries, 3);
    assert_eq!(service.stats().timeouts, 0);
    // Compilations started: the warm broadcast entry, 3 failed
    // leaderships, and the single-flight fallback compile.
    assert_eq!(service.compilations(), 5);
    // The cache holds exactly the healthy line and the fallback line — the
    // poisoned tuned pick was never published.
    assert_eq!(service.cached_schedules(), 2);
    // With the breaker open (hour-long cooldown), one more request degrades
    // without attempting any compile.
    let c = service
        .compiled_at(0, Collective::Allreduce, 8, 1 << 20)
        .expect("degraded answer");
    assert_eq!(c.algorithm, fallback_pick(Collective::Allreduce, 1 << 20));
    assert_eq!(
        poisoned_calls.load(Ordering::SeqCst),
        6,
        "breaker skips compiles"
    );
}

/// Decodes one random `u64` into a query: collective (including one absent
/// from the table, which must be `None` on both paths), a power-of-two node
/// count (every pick is buildable there) and an arbitrary byte size.
fn decode(seed: u64) -> (Collective, usize, u64) {
    let collective = [
        Collective::Allreduce,
        Collective::Broadcast,
        Collective::Alltoall, // absent from the table
    ][(seed % 3) as usize];
    let nodes = [4usize, 8, 16, 32, 64][((seed >> 2) % 5) as usize];
    let bytes = 1 + ((seed >> 5) % (1 << 22));
    (collective, nodes, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Cold cache, arbitrary query streams: the service's pick equals the
    // index's for every query, and the compiled schedule is the same build
    // (name, rank count, step count).
    #[test]
    fn random_streams_resolve_bit_identical_to_serial(
        seeds in prop::collection::vec(0u64..(1 << 62), 1..24),
    ) {
        let stream: Vec<(Collective, usize, u64)> = seeds.iter().map(|&s| decode(s)).collect();
        let t = table();
        let index = SelectorIndex::from_table(&t);
        let service = ServiceSelector::from_tables(&[t]);
        for &(collective, nodes, bytes) in &stream {
            let want = index.choose(collective, nodes, bytes);
            let got = service.choose_at(0, collective, nodes, bytes);
            prop_assert_eq!(got, want);
            let want_compiled = committed_compiled(&index, collective, nodes, bytes);
            let got_compiled = service.compiled_at(0, collective, nodes, bytes);
            prop_assert_eq!(want_compiled.is_some(), got_compiled.is_some());
            if let (Some(a), Some(b)) = (want_compiled, got_compiled) {
                prop_assert_eq!(&a.algorithm, &b.algorithm);
                prop_assert_eq!(a.num_ranks, b.num_ranks);
                prop_assert_eq!(a.num_steps(), b.num_steps());
            }
        }
    }

    // Contended caches: four threads replay one random stream against a
    // shared service (small shard capacity, so eviction races happen);
    // every thread's answers must equal the committed table's.
    #[test]
    fn contended_random_streams_stay_serial_identical(
        seeds in prop::collection::vec(0u64..(1 << 62), 1..12),
        capacity in 1usize..4,
        shards in 1usize..4,
    ) {
        // Restrict to collectives present in the table and ≤ 32 nodes so the
        // 4-way replay stays cheap in debug builds.
        let stream: Vec<(Collective, usize, u64)> = seeds
            .iter()
            .map(|&s| {
                let (c, n, b) = decode(s);
                let c = if c == Collective::Alltoall { Collective::Allreduce } else { c };
                (c, n.min(32), b)
            })
            .collect();
        let t = table();
        let index = SelectorIndex::from_table(&t);
        let expected: Vec<Option<(String, usize, String)>> = stream
            .iter()
            .map(|&(collective, nodes, bytes)| {
                committed_compiled(&index, collective, nodes, bytes).map(|c| {
                    let pick = index.choose(collective, nodes, bytes).unwrap();
                    (pick.algorithm.to_string(), pick.segments, c.algorithm.clone())
                })
            })
            .collect();
        let service = Arc::new(
            ServiceSelector::from_tables(&[t])
                .with_shards(shards)
                .with_shard_capacity(capacity),
        );
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = Arc::clone(&service);
                let stream = stream.clone();
                let expected = expected.clone();
                thread::spawn(move || {
                    for (&(collective, nodes, bytes), want) in stream.iter().zip(&expected) {
                        let got = service
                            .compiled_at(0, collective, nodes, bytes)
                            .map(|c| {
                                let pick =
                                    service.choose_at(0, collective, nodes, bytes).unwrap();
                                (pick.algorithm.to_string(), pick.segments, c.algorithm.clone())
                            });
                        assert_eq!(&got, want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("contended thread panicked");
        }
        prop_assert!(service
            .shard_lens()
            .iter()
            .all(|&len| len <= capacity));
    }
}
