//! The serving layer over the decision tables: the one way to turn a
//! `(system, collective, nodes, bytes)` query into an executable schedule.
//!
//! [`ServiceSelector`] is `&self` end to end, over **immutable indexes**:
//! every loaded system's table is pre-indexed once into an
//! `Arc<`[`SelectorIndex`]`>`, and a pick is that index's binary searches,
//! so the service serves exactly the committed table's pick (pinned by
//! proptests in `tests/service.rs`). One thread or many, callers share one
//! service.
//!
//! This module is the façade; each mechanism behind it exists exactly once,
//! in its own submodule:
//!
//! * `cache` — the sharded, lock-striped compiled-schedule cache;
//! * `flight` — single-flight compilation with bounded follower waits and
//!   leader retries: a key compiles exactly once however many threads race
//!   for it cold;
//! * `breaker` — the per-entry circuit breaker, shared by the compile path
//!   and the adaptive re-evaluation path;
//! * `ladder` — the one policy of what to serve when the first choice is
//!   unavailable (*override → committed pick → binomial [`fallback_pick`]
//!   → linear any-p*), so every request gets *an* answer;
//! * `recover` — shrink-and-retry crash recovery
//!   ([`ServiceSelector::try_execute_recovering`]): the ladder walked at
//!   the survivor count;
//! * `adapt` — the serving side of online adaptation ([`crate::adapt`]).
//!
//! [`ServiceSelector::execute`] additionally runs the resolved schedule on
//! the process-wide [`bine_exec::ExecutorPool`], turning a `(system,
//! collective, nodes, bytes, data)` request into finished block stores
//! without the caller touching schedules at all; [`ServiceStats`] makes
//! every mechanism observable.

mod adapt;
mod breaker;
mod cache;
mod flight;
mod ladder;
mod recover;

use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bine_exec::{BlockStore, ExecError, ExecutorPool};
use bine_net::feedback::ObservedTiming;
use bine_sched::{Collective, CompiledSchedule};

use self::adapt::AdaptConfig;
use self::cache::{Key, ShardState};
use self::flight::{lock_any, Guard, Resolved};
use self::ladder::Rung;
use crate::adapt::{AdaptPolicy, Reevaluator};
use crate::selector::{SelectorIndex, Tuned};
use crate::table::{slug, slug_chars, DecisionTable};

pub use self::cache::ServiceStats;
pub use self::ladder::{fallback_pick, FALLBACK_SMALL_VECTOR_THRESHOLD};
pub use self::recover::{Recovery, Served};

/// Default number of cache shards. More shards than typical worker counts,
/// so two concurrent requests rarely contend on one stripe.
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard capacity of the compiled-schedule cache: enough for
/// every vector size of one sweep at a fixed node count without eviction.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// Knobs of the degradation ladder in [`ServiceSelector::compiled`]:
/// bounded follower waits, leader retries with capped exponential backoff,
/// and a per-entry circuit breaker guarding the binomial fallback. The
/// defaults are generous enough that a healthy service never degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// How long a follower blocks on another thread's in-flight compile
    /// before giving up and serving the fallback pick. A timed-out wait
    /// also counts one failure against the entry's breaker: a permanently
    /// stalled leader must eventually trip it.
    pub flight_timeout: Duration,
    /// How many times a leader retries a panicking compile before the
    /// leadership counts as failed (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// [`DegradePolicy::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound of the exponential backoff.
    pub backoff_cap: Duration,
    /// Consecutive failed leaderships (not individual retries) that trip
    /// the entry's breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker serves the fallback unconditionally before
    /// a single request is let through as a half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy {
            flight_timeout: Duration::from_secs(5),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// One compile attempt about to run, handed to the hook installed with
/// [`ServiceSelector::with_compile_hook`]. The hook runs inside the
/// leader's `catch_unwind` scope, so a panicking hook is exactly an
/// injected compile failure (and a blocking hook a stalled leader) — the
/// levers the chaos tests and `bine-bench chaos` pull. Only the committed rung
/// runs the hook: the degraded path must stay unkillable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileAttempt {
    /// Index of the system the entry belongs to.
    pub system: usize,
    /// Collective of the entry.
    pub collective: Collective,
    /// Rank count the schedule is being built for.
    pub nodes: usize,
    /// 0 on the leadership's first try, `k` on its `k`-th retry.
    pub attempt: u32,
}

/// Observer invoked before every primary compile attempt; see
/// [`CompileAttempt`].
pub type CompileHook = Arc<dyn Fn(&CompileAttempt) + Send + Sync>;

/// A thread-safe selection service over one or more systems' decision
/// tables: `&self` end-to-end lookup, a sharded compiled-schedule cache
/// with single-flight compilation, and batch execution on the shared
/// executor pool. See the [module docs](crate::service) for the design.
pub struct ServiceSelector {
    /// One immutable pre-indexed table per loaded system, in load order.
    systems: Vec<Arc<SelectorIndex>>,
    /// Slugs of the loaded systems (parallel to `systems`), for by-name
    /// resolution without re-slugging the stored display names per query.
    slugs: Vec<String>,
    shards: Vec<Mutex<ShardState>>,
    policy: DegradePolicy,
    compile_hook: Option<CompileHook>,
    /// Adaptive tuning, off by default; see
    /// [`ServiceSelector::with_adaptation`].
    adapt: Option<AdaptConfig>,
    /// Service-wide override epoch: every promotion gets the next value,
    /// so overlay dumps order deterministically across shards.
    adapt_epoch: AtomicU64,
}

impl ServiceSelector {
    /// Builds a service over pre-indexed tables (shared with their other
    /// holders via the `Arc`s).
    ///
    /// # Panics
    ///
    /// When two indexes name the same system (equal [`slug`]s): by-name
    /// requests would only ever reach the first. [`ServiceSelector::load_dir`]
    /// reports the same conflict as an `Err` naming both files.
    pub fn from_indexes(indexes: Vec<Arc<SelectorIndex>>) -> ServiceSelector {
        let slugs: Vec<String> = indexes.iter().map(|i| slug(i.system())).collect();
        if let Some((a, b)) = same_system(slugs.len(), |i| &slugs[i]) {
            panic!(
                "systems {:?} and {:?} share the slug {:?}",
                indexes[a].system(),
                indexes[b].system(),
                slugs[a]
            );
        }
        ServiceSelector {
            systems: indexes,
            slugs,
            shards: (0..DEFAULT_SHARDS)
                .map(|_| ShardState::new(DEFAULT_CACHE_CAPACITY))
                .collect(),
            policy: DegradePolicy::default(),
            compile_hook: None,
            adapt: None,
            adapt_epoch: AtomicU64::new(0),
        }
    }

    /// Builds a service from in-memory decision tables.
    ///
    /// # Panics
    ///
    /// On two tables for one system, as [`ServiceSelector::from_indexes`].
    pub fn from_tables(tables: &[DecisionTable]) -> ServiceSelector {
        Self::from_indexes(
            tables
                .iter()
                .map(|t| Arc::new(SelectorIndex::from_table(t)))
                .collect(),
        )
    }

    /// Loads every committed decision table (`*.json`) from the tuning
    /// directory resolved by [`crate::default_tuning_dir`] — all four paper
    /// systems in the stock checkout.
    pub fn load_default() -> Result<ServiceSelector, String> {
        Self::load_dir(&crate::default_tuning_dir()?)
    }

    /// Loads every `*.json` decision table under `dir`, sorted by file name
    /// so system indices are deterministic. Two tables for one system (equal
    /// [`slug`]s) are an `Err` naming both files.
    pub fn load_dir(dir: &Path) -> Result<ServiceSelector, String> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read tuning directory {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("no decision tables (*.json) in {}", dir.display()));
        }
        let mut tables = Vec::with_capacity(paths.len());
        for path in &paths {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read decision table {}: {e}", path.display()))?;
            tables.push(
                DecisionTable::from_json(&text)
                    .map_err(|e| format!("cannot parse {}: {e}", path.display()))?,
            );
        }
        if let Some((a, b)) = same_system(tables.len(), |i| &tables[i].system) {
            return Err(format!(
                "decision tables {} and {} are both for system {:?}",
                paths[a].display(),
                paths[b].display(),
                tables[a].system
            ));
        }
        Ok(Self::from_tables(&tables))
    }

    /// Sets the number of cache shards (clamped to ≥ 1). Call before
    /// serving: rebuilding the stripes drops any cached schedules.
    pub fn with_shards(mut self, shards: usize) -> ServiceSelector {
        let capacity = self.shard_capacity();
        self.shards = (0..shards.max(1))
            .map(|_| ShardState::new(capacity))
            .collect();
        self
    }

    /// Sets the per-shard LRU capacity (clamped to ≥ 1: a cache that can
    /// hold nothing could not hand back what it was just given).
    pub fn with_shard_capacity(self, capacity: usize) -> ServiceSelector {
        for shard in &self.shards {
            lock_any(shard).cache.set_capacity(capacity);
        }
        self
    }

    /// Sets the degradation policy: follower wait bound, retry/backoff
    /// schedule and circuit-breaker thresholds. See [`DegradePolicy`].
    pub fn with_policy(mut self, policy: DegradePolicy) -> ServiceSelector {
        self.policy = policy;
        self
    }

    /// Installs an observer run before every compile attempt of a
    /// *committed* pick (never on the lower ladder rungs). A panicking hook
    /// is an injected compile failure, a blocking one a stalled leader —
    /// the fault levers of the chaos tests and `bine-bench chaos`.
    pub fn with_compile_hook(mut self, hook: CompileHook) -> ServiceSelector {
        self.compile_hook = Some(hook);
        self
    }

    /// Enables online adaptive tuning: the service records per-pick
    /// observed timings (fed by [`ServiceSelector::observe_at`] and the
    /// `execute` family), compares them against the committed modelled
    /// scores, and when an entry diverges past [`AdaptPolicy::divergence`]
    /// re-evaluates challengers through `reevaluator` — promoting a winner
    /// into an epoch-versioned overlay on top of the immutable committed
    /// tables. The tables themselves are never mutated; see
    /// [`crate::adapt`] for the invariants and
    /// [`ServiceSelector::overlay`] for the observability dump.
    pub fn with_adaptation(
        mut self,
        policy: AdaptPolicy,
        reevaluator: Reevaluator,
    ) -> ServiceSelector {
        self.adapt = Some(AdaptConfig {
            policy,
            reevaluator,
        });
        self
    }

    /// `true` when [`ServiceSelector::with_adaptation`] was called. A
    /// service without adaptation never consults the overlay: its picks
    /// are bit-identical to [`SelectorIndex::choose`]'s.
    pub fn adaptation_enabled(&self) -> bool {
        self.adapt.is_some()
    }

    /// The active degradation policy.
    pub fn policy(&self) -> &DegradePolicy {
        &self.policy
    }

    /// Display names of the loaded systems, in index order.
    pub fn system_names(&self) -> Vec<&str> {
        self.systems.iter().map(|i| i.system()).collect()
    }

    /// Index of a system by display name or slug (`"MareNostrum 5"` and
    /// `"marenostrum5"` both resolve). Allocation-free: every by-name
    /// request resolves through it.
    pub fn system_index(&self, system: &str) -> Option<usize> {
        self.slugs
            .iter()
            .position(|s| s.chars().eq(slug_chars(system)))
    }

    /// Like [`ServiceSelector::system_index`], but an unknown system is an
    /// `Err` naming every loaded system — so a typo'd request says what the
    /// service can actually answer for instead of a bare `None`.
    pub fn resolve_system(&self, system: &str) -> Result<usize, String> {
        self.system_index(system).ok_or_else(|| {
            format!(
                "unknown system {system:?}; loaded systems: {}",
                self.system_names().join(", ")
            )
        })
    }

    /// The shared index of system `sys`, if loaded.
    pub fn index(&self, sys: usize) -> Option<&Arc<SelectorIndex>> {
        self.systems.get(sys)
    }

    /// The tuned `(algorithm, segments)` for a query against `system`
    /// (by name or slug): [`SelectorIndex::choose`] on that system's index.
    pub fn choose(
        &self,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.choose_at(self.system_index(system)?, collective, nodes, bytes)
    }

    /// [`ServiceSelector::choose`] by system index (skips the name lookup
    /// on hot paths).
    pub fn choose_at(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.systems.get(sys)?.choose(collective, nodes, bytes)
    }

    /// The tuned pick for an irregular (v-variant) query against `system`:
    /// resolved on the grid tuned for `dist`, falling back to the regular
    /// grid when the table carries none (see
    /// [`crate::SelectorIndex::choose_irregular`]). `&self` and
    /// allocation-free, like [`ServiceSelector::choose`].
    pub fn choose_irregular(
        &self,
        system: &str,
        collective: Collective,
        dist: bine_sched::SizeDist,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.choose_irregular_at(self.system_index(system)?, collective, dist, nodes, bytes)
    }

    /// [`ServiceSelector::choose_irregular`] by system index.
    pub fn choose_irregular_at(
        &self,
        sys: usize,
        collective: Collective,
        dist: bine_sched::SizeDist,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.systems
            .get(sys)?
            .choose_irregular(collective, dist, nodes, bytes)
    }
    /// The compiled schedule of the tuned pick, from the sharded cache or
    /// compiled once under single-flight. `&self`: safe to call from any
    /// number of threads over one shared service.
    ///
    /// Degradation: when the entry's circuit breaker is open (repeated
    /// compile failures) or a follower's bounded wait times out, the
    /// request steps down the ladder and the binomial [`fallback_pick`] is
    /// served instead of the tuned pick — the request still gets a correct,
    /// executable schedule. See [`DegradePolicy`] and [`ServiceStats`].
    ///
    /// Rooted collectives (broadcast in the committed tables) are built
    /// with **root 0**, the root of the harness and the tuning sweeps. For
    /// a different root, build [`ServiceSelector::choose`]'s pick with
    /// [`SelectorIndex::providers`] directly.
    pub fn compiled(
        &self,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Arc<CompiledSchedule>> {
        self.compiled_at(self.system_index(system)?, collective, nodes, bytes)
    }

    /// [`ServiceSelector::compiled`] by system index.
    pub fn compiled_at(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Arc<CompiledSchedule>> {
        let index = self.systems.get(sys)?;
        let slot = index.slot_index(collective, nodes, bytes)?;
        for rung in ladder::rungs(slot, bytes) {
            let key = Key::new(sys, collective, nodes, rung);
            // Only the committed rung is guarded and fault-injectable: the
            // rungs below it must stay unkillable.
            let guard = match rung {
                Rung::Committed(_) => Guard::On,
                Rung::Binomial { .. } | Rung::Linear => Guard::Off,
            };
            let resolved = self.resolve(key, guard, &|attempt| {
                if let (Guard::On, Some(hook)) = (guard, &self.compile_hook) {
                    hook(&CompileAttempt {
                        system: sys,
                        collective,
                        nodes,
                        attempt,
                    });
                }
                let (base, chunks) = rung.build(index, collective, nodes)?;
                Some(Arc::new(base.compile_segmented(chunks)))
            });
            if let Resolved::Served(answer) = resolved {
                return answer;
            }
        }
        None
    }

    /// Resolves the tuned pick, compiles (or fetches) its schedule and
    /// executes it over `initial` block stores on [`ExecutorPool::global`],
    /// reporting job panics as [`ExecError`] instead of unwinding. `None`
    /// when the query resolves to no table entry or the pick is not
    /// buildable at this rank count. On success the execution wall time is
    /// fed back into the adaptive loop (see [`ServiceSelector::observe_at`]).
    pub fn try_execute(
        &self,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        initial: Vec<BlockStore>,
    ) -> Option<Result<Vec<BlockStore>, ExecError>> {
        let sys = self.system_index(system)?;
        let compiled = self.compiled_at(sys, collective, nodes, bytes)?;
        let start = Instant::now();
        let result = ExecutorPool::global().try_run(&compiled, initial);
        if result.is_ok() {
            self.observe_at(
                sys,
                collective,
                nodes,
                bytes,
                ObservedTiming::execution(start.elapsed().as_secs_f64() * 1e6),
            );
        }
        Some(result)
    }

    /// [`ServiceSelector::try_execute`], panicking if the run failed.
    pub fn execute(
        &self,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        initial: Vec<BlockStore>,
    ) -> Option<Vec<BlockStore>> {
        self.try_execute(system, collective, nodes, bytes, initial)
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
    }

    /// [`ServiceSelector::execute`]: the pool is always
    /// [`ExecutorPool::global`].
    pub fn execute_on(
        &self,
        _pool: &ExecutorPool,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        initial: Vec<BlockStore>,
    ) -> Option<Vec<BlockStore>> {
        self.execute(system, collective, nodes, bytes, initial)
    }

    /// The stripe `key` lives in.
    fn shard(&self, key: &Key) -> &Mutex<ShardState> {
        &self.shards[key.shard_of(self.shards.len())]
    }

    /// Number of cache shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard LRU capacity.
    pub fn shard_capacity(&self) -> usize {
        lock_any(&self.shards[0]).cache.capacity()
    }

    /// Number of compiled schedules currently cached, across all shards.
    pub fn cached_schedules(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Current line count of every shard (for capacity-invariant tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| lock_any(s).cache.len())
            .collect()
    }

    /// A point-in-time snapshot of every counter, summed over all shards.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for shard in &self.shards {
            total += lock_any(shard).stats;
        }
        total
    }

    /// [`ServiceStats::hits`] of a fresh [`ServiceSelector::stats`].
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// [`ServiceStats::misses`] of a fresh [`ServiceSelector::stats`].
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// [`ServiceStats::compilations`] of a fresh [`ServiceSelector::stats`].
    pub fn compilations(&self) -> u64 {
        self.stats().compilations
    }

    /// [`ServiceStats::fallbacks`] of a fresh [`ServiceSelector::stats`].
    pub fn fallbacks(&self) -> u64 {
        self.stats().fallbacks
    }
}

/// The first two of `len` system names (`name(i)`) with equal slugs, if
/// any, compared in place.
fn same_system<'a>(len: usize, name: impl Fn(usize) -> &'a str) -> Option<(usize, usize)> {
    (0..len).find_map(|b| {
        let a = (0..b).find(|&a| slug_chars(name(a)).eq(slug_chars(name(b))))?;
        Some((a, b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Entry, ScoreModel};

    pub(super) fn table(system: &str) -> DecisionTable {
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
            system: system.into(),
            entries: vec![
                e(Collective::Allreduce, 16, 32, "recursive-doubling"),
                e(Collective::Allreduce, 16, 1 << 20, "bine-large"),
                e(Collective::Allreduce, 64, 32, "recursive-doubling"),
                e(Collective::Allreduce, 64, 1 << 20, "bine-large+seg8"),
                e(Collective::Broadcast, 16, 32, "bine-tree"),
            ],
        }
    }

    #[test]
    fn choose_matches_the_serial_selector() {
        let t = table("Testbox");
        let index = SelectorIndex::from_table(&t);
        let service = ServiceSelector::from_tables(&[t]);
        for nodes in [4usize, 16, 40, 64, 100] {
            for bytes in [1u64, 32, 4096, 1 << 20, 1 << 26] {
                assert_eq!(
                    service.choose("Testbox", Collective::Allreduce, nodes, bytes),
                    index.choose(Collective::Allreduce, nodes, bytes),
                );
            }
        }
        assert!(service
            .choose("Testbox", Collective::Alltoall, 16, 32)
            .is_none());
        assert!(service
            .choose("nosuch", Collective::Allreduce, 16, 32)
            .is_none());
    }

    #[test]
    fn systems_resolve_by_name_or_slug() {
        let service = ServiceSelector::from_tables(&[table("MareNostrum 5"), table("LUMI")]);
        assert_eq!(service.system_index("MareNostrum 5"), Some(0));
        assert_eq!(service.system_index("marenostrum5"), Some(0));
        assert_eq!(service.system_index("lumi"), Some(1));
        assert_eq!(service.system_index("Frontier"), None);
        assert_eq!(service.system_names(), vec!["MareNostrum 5", "LUMI"]);
    }

    #[test]
    #[should_panic(expected = "share the slug")]
    fn two_tables_for_one_system_panic() {
        let _ = ServiceSelector::from_tables(&[table("MareNostrum 5"), table("marenostrum5")]);
    }

    #[test]
    fn load_dir_names_both_files_of_one_system() {
        let dir = std::env::temp_dir().join(format!("bine-tune-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (file, system) in [
            ("a.json", "LUMI"),
            ("b.json", "MareNostrum 5"),
            ("c.json", "lumi"),
        ] {
            std::fs::write(dir.join(file), table(system).to_json()).unwrap();
        }
        let err = ServiceSelector::load_dir(&dir).err();
        std::fs::remove_dir_all(&dir).unwrap();
        let err = err.expect("two tables for LUMI must not load");
        assert!(err.contains("a.json") && err.contains("c.json"), "{err}");
        assert!(!err.contains("b.json"), "{err}");
    }

    #[test]
    fn compiled_hits_the_cache_on_repeat() {
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let a = service
            .compiled("Testbox", Collective::Allreduce, 16, 32)
            .unwrap();
        let b = service
            .compiled("Testbox", Collective::Allreduce, 16, 32)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(service.compilations(), 1);
        assert_eq!(service.hits(), 1);
        assert_eq!(service.misses(), 1);
        assert_eq!(service.cached_schedules(), 1);
        // Distinct node counts compile separately even for one entry.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 32, 32)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.num_ranks, 32);
        assert_eq!(service.compilations(), 2);
    }

    #[test]
    fn resolve_system_lists_the_loaded_systems_on_a_miss() {
        let service = ServiceSelector::from_tables(&[table("MareNostrum 5"), table("LUMI")]);
        assert_eq!(service.resolve_system("lumi"), Ok(1));
        let err = service.resolve_system("Frontier").unwrap_err();
        assert!(err.contains("Frontier"), "{err}");
        assert!(err.contains("MareNostrum 5"), "{err}");
        assert!(err.contains("LUMI"), "{err}");
    }

    #[test]
    fn execute_runs_the_tuned_pick_end_to_end() {
        use bine_exec::Workload;
        use bine_sched::build;

        let t = table("Testbox");
        let service = ServiceSelector::from_tables(&[t]);
        // The pick at (allreduce, 16, 32) is recursive-doubling; run it and
        // cross-check against the serial reference executor.
        let sched = build(Collective::Allreduce, "recursive-doubling", 16, 0).unwrap();
        let w = Workload::for_schedule(&sched, 2);
        let expected = bine_exec::sequential::run_reference(&sched, w.initial_state(&sched));
        let finals = service
            .execute(
                "Testbox",
                Collective::Allreduce,
                16,
                32,
                w.initial_state(&sched),
            )
            .unwrap();
        assert_eq!(finals, expected);
    }
    #[test]
    fn finals_outlive_the_handle_the_cache_evicts() {
        use bine_exec::{BlockStore, Workload};
        use bine_sched::{build, BlockId};

        // One line in the whole cache: the next pick evicts the handle the
        // finals were produced by, and with it the last reference but theirs
        // to the key table they are held under.
        let service = ServiceSelector::from_tables(&[table("Testbox")])
            .with_shards(1)
            .with_shard_capacity(1);
        let sched = build(Collective::Allreduce, "recursive-doubling", 16, 0).unwrap();
        let w = Workload::for_schedule(&sched, 2);
        let run = |input| service.execute("Testbox", Collective::Allreduce, 16, 32, input);
        let finals = run(w.initial_state(&sched)).unwrap();
        let expected = bine_exec::sequential::run_reference(&sched, w.initial_state(&sched));
        service
            .compiled("Testbox", Collective::Broadcast, 16, 32)
            .unwrap();
        assert_eq!(
            service.cached_schedules(),
            1,
            "the allreduce handle is gone"
        );
        assert_eq!(finals, expected);
        assert_eq!(
            finals[7].get(&BlockId::Full),
            expected[7].get(&BlockId::Full)
        );
        // Finals are the contract: every rank holds the sum, and nothing of
        // the run's partial sums.
        assert!(finals.iter().all(|store| store.len() == 1));
        // Fed back in, they meet a recompiled handle — a table of its own —
        // and are re-keyed like any other input.
        let copies: Vec<BlockStore> = finals.iter().map(BlockStore::deep_clone).collect();
        let again = run(finals).unwrap();
        assert_eq!(service.compilations(), 3);
        assert_eq!(again, bine_exec::sequential::run_reference(&sched, copies));
    }
}
