//! Shrink-and-retry crash recovery: a dead-rank stall
//! ([`ExecError::RankDead`]) shrinks the communicator to the dense survivor
//! renumbering and walks the ladder ([`super::ladder`]) *at the survivor
//! count* until a rung builds, then re-executes the collective there.

use std::sync::Arc;

use bine_exec::{BlockStore, ExecError, ExecutorPool, Workload};
use bine_sched::{Collective, CompiledSchedule, Contract, RankMap, Schedule};

use super::cache::Key;
use super::flight::{lock_any, Guard, Resolved};
use super::ladder::{self, Rung};
use super::ServiceSelector;

/// How a crash-tolerant request (see
/// [`ServiceSelector::try_execute_recovering`]) was answered.
#[derive(Debug)]
pub enum Served {
    /// No dead rank stalled the tuned pick: final block stores of every
    /// rank of the full communicator.
    Full(Vec<BlockStore>),
    /// A dead rank stalled the run mid-collective; the service shrank the
    /// communicator to the survivors and re-executed there.
    Recovered(Recovery),
}

impl Served {
    /// The final block stores, indexed by rank of whichever communicator
    /// actually completed (the full one, or the shrunk one after a
    /// recovery — see [`Recovery::map`] to translate).
    pub fn finals(&self) -> &[BlockStore] {
        match self {
            Served::Full(finals) => finals,
            Served::Recovered(r) => &r.finals,
        }
    }

    /// Whether this answer came from the shrink-and-retry ladder.
    pub fn is_recovered(&self) -> bool {
        matches!(self, Served::Recovered(_))
    }
}

/// A successful shrink-and-retry: the ULFM-style recovery the service runs
/// when a dead rank stalls the tuned pick. The collective was re-invoked
/// over the dense survivor communicator, with every survivor
/// re-contributing its input under its new rank — so `finals[new]` is
/// exactly what a fresh run of `schedule` at `map.num_survivors()` ranks
/// produces, bit for bit.
#[derive(Debug)]
pub struct Recovery {
    /// Final block stores of the shrunk run, indexed by **new** (dense)
    /// rank; translate with [`Recovery::map`].
    pub finals: Vec<BlockStore>,
    /// The order-preserving survivor bijection (old rank ↔ new rank).
    pub map: RankMap,
    /// The schedule rebuilt over the survivors (for validation, traffic
    /// accounting, or building matching initial states).
    pub schedule: Schedule,
    /// The pick actually built at the shrunk size: the slot's own pick
    /// when it builds there, otherwise the binomial
    /// [`super::fallback_pick`] or the collective's linear any-rank-count
    /// algorithm.
    pub pick: String,
    /// The typed stall that triggered the recovery.
    pub error: ExecError,
}

impl ServiceSelector {
    /// Crash-tolerant execution with shrink-and-retry recovery: resolves
    /// the tuned pick, builds its schedule and the deterministic workload
    /// (`elems_per_block` elements per block, root 0), and runs it with
    /// `dead` crashed before the collective starts
    /// ([`ExecutorPool::try_run_with_dead`]).
    ///
    /// * When the survivor replay finds no stall, the service runs healthy
    ///   over the full communicator: [`Served::Full`].
    /// * On a stall ([`ExecError::RankDead`]) the service shrinks the
    ///   communicator to the dense survivor renumbering
    ///   ([`RankMap::dense`]) and rebuilds a schedule at the shrunk size —
    ///   the pick itself, the binomial [`super::fallback_pick`], or the
    ///   collective's linear any-rank-count algorithm (ring/pairwise),
    ///   whichever rung builds first — compiles it under that rung's cache
    ///   line, and re-executes the collective with every survivor
    ///   re-contributing its input under its new rank:
    ///   [`Served::Recovered`]. The recovered finals are bit identical to
    ///   a direct run of the same collective at the shrunk size — pinned
    ///   by the `bine-bench crash` harness.
    /// * Two stalls are unrecoverable and surface as the original typed
    ///   error: a rooted collective whose **source data** lived on a dead
    ///   root (broadcast or scatter from a crashed root 0 — no survivor
    ///   holds the payload), and a collective with no catalog algorithm at
    ///   the survivor count (the rooted collectives build only at
    ///   power-of-two sizes).
    ///
    /// `None` when the query resolves to no table entry or the pick is not
    /// buildable at `nodes` ranks. The `stalls` and `recoveries` counters
    /// of [`ServiceSelector::stats`] make the ladder observable.
    ///
    /// # Panics
    /// Panics if a dead rank is `>= nodes` or all ranks are dead.
    pub fn try_execute_recovering(
        &self,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        elems_per_block: usize,
        dead: &[usize],
    ) -> Option<Result<Served, ExecError>> {
        let sys = self.system_index(system)?;
        let slot = self
            .systems
            .get(sys)?
            .slot_index(collective, nodes, bytes)?;
        let ladder = ladder::rungs(slot, bytes);
        let (key, sched, _, compiled) =
            self.first_buildable(sys, collective, nodes, &ladder[..1])?;
        // Both documented panics, before anything runs.
        let map = RankMap::dense(nodes, dead);
        let pool = ExecutorPool::global();
        let w = Workload::for_schedule(&sched, elems_per_block);
        let error = match pool.try_run_with_dead(&compiled, w.initial_state(&sched), dead) {
            Ok(finals) => return Some(Ok(Served::Full(finals))),
            Err(error @ ExecError::RankDead { .. }) => error,
            Err(other) => return Some(Err(other)),
        };
        lock_any(self.shard(&key)).stats.stalls += 1;
        // Input that exists on one rank only (the source data of a
        // broadcast or scatter root) dies with it: shrinking cannot recover
        // it. Every other collective re-contributes from every survivor, so
        // it recovers whoever died.
        let sole_source = Contract::from(&sched).sole_source();
        if sole_source.is_some_and(|root| dead.contains(&root)) {
            return Some(Err(error));
        }
        let survivors = map.num_survivors();
        let Some((key, base, chunks, compiled)) =
            self.first_buildable(sys, collective, survivors, &ladder)
        else {
            // No rung builds over this survivor count — the rooted
            // collectives have no non-pow2 builder — so the stall is
            // unrecoverable and surfaces as the original typed error.
            return Some(Err(error));
        };
        let w = Workload::for_schedule(&base, elems_per_block);
        let finals = match pool.try_run(&compiled, w.initial_state(&base)) {
            Ok(finals) => finals,
            Err(e) => return Some(Err(e)),
        };
        lock_any(self.shard(&key)).stats.recoveries += 1;
        let pick = key
            .rung
            .pick(&self.systems[sys], collective)
            .expect("a rung that built has a pick")
            .to_string();
        Some(Ok(Served::Recovered(Recovery {
            finals,
            map,
            // The report, not the serving path: the one place a segmented
            // schedule is materialised.
            schedule: if chunks > 1 {
                base.segmented(chunks)
            } else {
                base
            },
            pick,
            error,
        })))
    }

    /// Walks `rungs` at `nodes` ranks until one builds, and resolves that
    /// rung's cache line (lowered under single-flight on a miss). The caller
    /// needs the base [`Schedule`] and its chunk count themselves — for the
    /// workload and the [`Recovery`] report — so they are built here,
    /// outside the cache; only the lowering is shared. A shrink almost
    /// always lands on a rank count some rung does not build at; the
    /// provider set answers `None` there and the walk steps down.
    fn first_buildable(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        rungs: &[Rung],
    ) -> Option<(Key, Schedule, usize, Arc<CompiledSchedule>)> {
        let index = &self.systems[sys];
        rungs.iter().find_map(|&rung| {
            let (base, chunks) = rung.build(index, collective, nodes)?;
            let key = Key::new(sys, collective, nodes, rung);
            let lower = |_| Some(Arc::new(base.compile_segmented(chunks)));
            match self.resolve(key, Guard::Off, &lower) {
                Resolved::Served(Some(compiled)) => Some((key, base, chunks, compiled)),
                _ => None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::table;
    use super::*;

    #[test]
    fn a_dead_rank_triggers_shrink_and_retry_bit_identical_to_a_direct_run() {
        use bine_exec::Workload;
        use bine_sched::build;

        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        // (allreduce, 16, 32) resolves to recursive-doubling; kill rank 5.
        let served = service
            .try_execute_recovering("Testbox", Collective::Allreduce, 16, 32, 2, &[5])
            .expect("query resolves")
            .expect("the stall recovers");
        let stats = service.stats();
        assert_eq!((stats.stalls, stats.recoveries), (1, 1));
        let Served::Recovered(rec) = served else {
            panic!("a dead exchange partner must stall recursive doubling");
        };
        assert!(matches!(rec.error, ExecError::RankDead { src: 5, .. }));
        assert_eq!(rec.map.num_survivors(), 15);
        assert_eq!(rec.map.new_rank(5), None);
        assert_eq!(rec.map.new_rank(6), Some(5));
        assert_eq!(rec.schedule.num_ranks, 15);
        // Bit-identity against a direct run of the same pick at 15 ranks.
        let direct = build(Collective::Allreduce, &rec.pick, 15, 0).unwrap();
        let w = Workload::for_schedule(&direct, 2);
        let expected = bine_exec::sequential::run_reference(&direct, w.initial_state(&direct));
        assert_eq!(rec.finals, expected);
        // The recovered finals are under the shrunk handle's key table: they
        // read like the reference's maps, from either side and by id. (What
        // survivors still under the *wide* handle's table would meet is
        // `bine-exec/tests/keyed_finals.rs`; here every survivor
        // re-contributes a fresh map.)
        assert_eq!(expected, rec.finals);
        for (ours, theirs) in rec.finals.iter().zip(&expected) {
            assert_eq!(ours.len(), theirs.len());
            for (id, value) in theirs.iter() {
                assert_eq!(ours.get(id), Some(value));
            }
        }
    }

    #[test]
    fn a_harmless_dead_rank_completes_over_the_full_communicator() {
        // Rank 3 is a leaf of the broadcast tree at (broadcast, 16, 32):
        // nobody receives from it, so the run completes without shrinking.
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let sched = bine_sched::build(Collective::Broadcast, "bine-tree", 16, 0).unwrap();
        let leaf = (0..16)
            .find(|r| sched.messages().all(|(_, m)| m.src != *r))
            .expect("a broadcast tree has leaves");
        let served = service
            .try_execute_recovering("Testbox", Collective::Broadcast, 16, 32, 2, &[leaf])
            .expect("query resolves")
            .expect("a dead leaf stalls nobody");
        assert!(!served.is_recovered());
        assert_eq!(served.finals().len(), 16);
        let stats = service.stats();
        assert_eq!((stats.stalls, stats.recoveries), (0, 0));
    }

    #[test]
    fn a_dead_broadcast_root_is_unrecoverable() {
        // Root 0's payload exists nowhere else: the stall must surface as
        // the original RankDead, and no recovery may be counted.
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let err = service
            .try_execute_recovering("Testbox", Collective::Broadcast, 16, 32, 2, &[0])
            .expect("query resolves")
            .expect_err("the source data died with the root");
        assert!(matches!(err, ExecError::RankDead { src: 0, .. }));
        let stats = service.stats();
        assert_eq!((stats.stalls, stats.recoveries), (1, 0));
    }

    #[test]
    #[should_panic(expected = "all 16 ranks dead")]
    fn a_communicator_with_every_rank_dead_is_refused() {
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let everyone: Vec<usize> = (0..16).collect();
        service.try_execute_recovering("Testbox", Collective::Allreduce, 16, 32, 2, &everyone);
    }

    #[test]
    #[should_panic(expected = "out of range for 16 ranks")]
    fn a_dead_rank_outside_the_communicator_is_refused() {
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        service.try_execute_recovering("Testbox", Collective::Allreduce, 16, 32, 2, &[16]);
    }

    #[test]
    fn repeated_recoveries_reuse_the_recovery_cache_slot() {
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        for _ in 0..3 {
            let served = service
                .try_execute_recovering("Testbox", Collective::Allreduce, 16, 32, 2, &[5])
                .unwrap()
                .unwrap();
            assert!(served.is_recovered());
        }
        assert_eq!(service.stats().recoveries, 3);
        // One compile of the 16-rank pick, one of the 15-rank recovery
        // schedule; the repeats are cache hits.
        assert_eq!(service.compilations(), 2);
    }
}
