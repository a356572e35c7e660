//! The compiled-schedule cache: the [`Lru`] every service shard holds, the
//! rung-carrying cache [`Key`], and the per-shard state ([`ShardState`])
//! the stripe locks protect — cache lines, in-flight compiles, breakers,
//! adaptive entries and the [`ServiceStats`] counter block.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bine_sched::{Collective, CompiledSchedule};

use super::adapt::AdaptEntry;
use super::breaker::Breaker;
use super::flight::Flight;
use super::ladder::Rung;

/// A small least-recently-used cache of compiled schedules: a line vector
/// scanned linearly (capacities are a few dozen), an access clock, and
/// eviction down to a capacity that is clamped to ≥ 1 — a cache that can
/// hold nothing could not hand back what it was just given.
pub(crate) struct Lru<K> {
    lines: Vec<Line<K>>,
    capacity: usize,
    clock: u64,
}

struct Line<K> {
    key: K,
    compiled: Arc<CompiledSchedule>,
    last_used: u64,
}

impl<K: PartialEq> Lru<K> {
    pub(crate) fn new(capacity: usize) -> Lru<K> {
        Lru {
            lines: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets the capacity (clamped to ≥ 1); shrinking below the current
    /// population evicts the least-recently-used lines immediately, so
    /// `len ≤ capacity` holds from here on.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.evict_down_to(self.capacity);
    }

    /// The line cached under `key`, marked most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<Arc<CompiledSchedule>> {
        self.clock += 1;
        let line = self.lines.iter_mut().find(|l| l.key == *key)?;
        line.last_used = self.clock;
        Some(Arc::clone(&line.compiled))
    }

    /// Inserts a line, first evicting down to `capacity − 1` so the cache
    /// never exceeds its capacity.
    pub(crate) fn insert(&mut self, key: K, compiled: Arc<CompiledSchedule>) {
        self.clock += 1;
        self.evict_down_to(self.capacity - 1);
        self.lines.push(Line {
            key,
            compiled,
            last_used: self.clock,
        });
    }

    fn evict_down_to(&mut self, max_lines: usize) {
        while self.lines.len() > max_lines {
            let victim = self
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
                .expect("a cache over its bound has a line to evict");
            self.lines.swap_remove(victim);
        }
    }
}

/// Cache key of the service: the entry `(system index, collective, nodes)`
/// plus the ladder [`Rung`] served for it. Distinct byte sizes resolving to
/// one table slot share a compiled schedule; off-grid node counts get their
/// own compilation; each rung of an entry has its own line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Key {
    pub(super) sys: u32,
    pub(super) collective: Collective,
    pub(super) nodes: usize,
    pub(super) rung: Rung,
}

impl Key {
    pub(super) fn new(sys: usize, collective: Collective, nodes: usize, rung: Rung) -> Key {
        Key {
            sys: sys as u32,
            collective,
            nodes,
            rung,
        }
    }

    /// The stripe of an `n`-shard service this key lives in. A cheap
    /// splitmix-style integer mix instead of the std SipHash: the stripe
    /// choice runs on every request and only needs to spread a handful of
    /// small integers, not resist collision attacks.
    pub(super) fn shard_of(&self, num_shards: usize) -> usize {
        let mut h = (self.sys as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (self.collective as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ (self.nodes as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
            ^ self.rung.hash_bits().wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        (h % num_shards as u64) as usize
    }
}

/// A point-in-time snapshot of the service's counters, summed over all
/// shards by [`super::ServiceSelector::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cache hits served.
    pub hits: u64,
    /// Cache misses (followers waiting on an in-flight compile count as
    /// misses, not as compilations).
    pub misses: u64,
    /// Compilations started (single-flight leaderships taken) — with a
    /// warm-enough cache this equals the number of distinct cache keys
    /// ever requested, however many threads raced for them; evicted
    /// entries recompile on re-request.
    pub compilations: u64,
    /// Requests that stepped down from the committed rung — open breaker,
    /// failed leadership, or timed-out follower wait. Zero on a healthy
    /// service.
    pub fallbacks: u64,
    /// Follower waits that hit [`super::DegradePolicy::flight_timeout`]
    /// before their leader settled.
    pub timeouts: u64,
    /// Compile retries after a panicking attempt (the first try of each
    /// leadership is not a retry).
    pub retries: u64,
    /// Overrides installed by the adaptive loop (promotions, not
    /// currently-active overrides — see
    /// [`super::ServiceSelector::overlay`] for those).
    pub overrides: u64,
    /// Overrides reverted after the committed pick won a re-check.
    pub reverts: u64,
    /// Re-evaluations started (divergence triggers plus override
    /// re-checks).
    pub reevals: u64,
    /// Dead-rank stalls ([`bine_exec::ExecError::RankDead`]) the
    /// crash-tolerant execution path has hit.
    pub stalls: u64,
    /// Successful shrink-and-retry recoveries; equals `stalls` when every
    /// stall was recoverable.
    pub recoveries: u64,
}

impl std::ops::AddAssign for ServiceStats {
    fn add_assign(&mut self, o: ServiceStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.compilations += o.compilations;
        self.fallbacks += o.fallbacks;
        self.timeouts += o.timeouts;
        self.retries += o.retries;
        self.overrides += o.overrides;
        self.reverts += o.reverts;
        self.reevals += o.reevals;
        self.stalls += o.stalls;
        self.recoveries += o.recoveries;
    }
}

/// Everything one stripe lock protects.
pub(super) struct ShardState {
    pub(super) cache: Lru<Key>,
    pub(super) in_flight: Vec<(Key, Arc<Flight>)>,
    /// Circuit breakers of entries that have failed recently. An entry with
    /// no record here is healthy; successful compiles remove the record, so
    /// the vector stays as small as the set of currently-broken entries.
    pub(super) breakers: Vec<(Key, Breaker)>,
    /// Adaptive state of this shard's entries (empty unless adaptation is
    /// enabled and an entry has been observed).
    pub(super) adapt: Vec<AdaptEntry>,
    /// Stats live per shard, as plain integers under the stripe lock the
    /// hot path already holds — global atomic counters would put one cache
    /// line ping-ponging between every core on every request.
    pub(super) stats: ServiceStats,
}

impl ShardState {
    pub(super) fn new(capacity: usize) -> Mutex<ShardState> {
        Mutex::new(ShardState {
            cache: Lru::new(capacity),
            in_flight: Vec::new(),
            breakers: Vec::new(),
            adapt: Vec::new(),
            stats: ServiceStats::default(),
        })
    }

    /// Whether `key`'s breaker lets this request try a real compile (an
    /// entry with no breaker on record is healthy).
    pub(super) fn admit(&mut self, key: &Key, cooldown: Duration) -> bool {
        match self.breakers.iter_mut().find(|(k, _)| k == key) {
            Some((_, breaker)) => breaker.admit(cooldown),
            None => true,
        }
    }

    /// Records one failed leadership (or timed-out follower wait) against
    /// `key`'s breaker.
    pub(super) fn strike(&mut self, key: Key, threshold: u32) {
        match self.breakers.iter_mut().find(|(k, _)| *k == key) {
            Some((_, breaker)) => breaker.strike(threshold),
            None => {
                let mut breaker = Breaker::CLOSED;
                breaker.strike(threshold);
                self.breakers.push((key, breaker));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bine_sched::collectives::{allreduce, AllreduceAlg};

    fn schedule() -> Arc<CompiledSchedule> {
        Arc::new(allreduce(2, AllreduceAlg::RecursiveDoubling).compile())
    }

    #[test]
    fn a_hit_returns_the_inserted_line_and_a_miss_nothing() {
        let mut lru = Lru::new(4);
        let a = schedule();
        lru.insert(1u32, Arc::clone(&a));
        assert!(Arc::ptr_eq(&lru.get(&1).expect("cached"), &a));
        assert!(lru.get(&2).is_none());
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn the_least_recently_used_line_is_the_victim() {
        let mut lru = Lru::new(2);
        lru.insert(1u32, schedule());
        lru.insert(2, schedule());
        // Touch the first line so the second is the LRU victim.
        assert!(lru.get(&1).is_some());
        lru.insert(3, schedule());
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&1).is_some());
        assert!(lru.get(&2).is_none());
        assert!(lru.get(&3).is_some());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one_and_never_panics() {
        // Regression: an eviction scan that expected a victim in an empty
        // cache panicked on the very first insert at capacity 0.
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        let a = schedule();
        lru.insert(1u32, Arc::clone(&a));
        assert!(Arc::ptr_eq(&lru.get(&1).expect("cached"), &a));
        // Capacity one caches exactly the last entry.
        lru.insert(2, schedule());
        assert_eq!(lru.len(), 1);
        assert!(lru.get(&1).is_none(), "the line was evicted");
        assert!(lru.get(&2).is_some());
    }

    #[test]
    fn shrinking_the_capacity_evicts_down_to_the_new_bound() {
        let mut lru = Lru::new(16);
        for key in 0u32..3 {
            lru.insert(key, schedule());
        }
        assert_eq!(lru.len(), 3);
        lru.set_capacity(0); // clamped to 1
        assert_eq!((lru.len(), lru.capacity()), (1, 1));
        assert!(lru.get(&2).is_some(), "the most recent line survives");
    }
}
