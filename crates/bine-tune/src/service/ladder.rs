//! The one ladder: what the service serves when its first choice for a
//! `(system, collective, nodes, bytes)` request is unavailable. This is the
//! only module that knows the policy; degradation, crash recovery and
//! adaptation all walk the same ordered rungs:
//!
//! ```text
//!   override    the adaptive overlay's challenger — shadows the committed
//!      │        rung of its entry and is served from the same cache probe
//!      ▼        (see `super::adapt`); never a cache key of its own
//!   committed   the decision table's pick for the resolved slot
//!      ▼
//!   binomial    `fallback_pick`: the textbook binomial baseline
//!      ▼
//!   linear      the collective's any-rank-count algorithm (ring/pairwise)
//! ```
//!
//! * **degradation** ([`super::ServiceSelector::compiled_at`]) enters at
//!   the top and steps down when the rung's breaker is open, a follower's
//!   bounded wait on the rung's in-flight compile times out, or every
//!   compile attempt of a leadership panicked;
//! * **crash recovery** ([`super::recover`]) enters at the committed rung
//!   *at the survivor count* and steps down until a rung builds there (the
//!   butterfly and tree algorithms only build at power-of-two rank counts,
//!   and a shrink almost always lands off them);
//! * **adaptation** ([`super::adapt`]) pushes a winning challenger on top
//!   of the committed rung and pops it when the committed pick wins back.
//!
//! The rung is part of the cache key, so every rung of every entry has its
//! own line and its own single-flight: a committed rung rebuilt at a shrunk
//! rank count is literally the line an off-grid `compiled_at` query at that
//! count would cache, and the binomial rung a recovery lands on is the line
//! a degraded request would be served from.

use bine_sched::{binomial_default, linear_default, Collective, Schedule};

use crate::selector::SelectorIndex;

/// Vector sizes up to this many bytes take the small-vector algorithm
/// variants (tree broadcast/reduce, recursive-doubling allreduce), larger
/// ones the large-vector compositions — mirroring the switch points of
/// production MPI libraries. The one switch point: the ladder's binomial
/// rung and the benchmark harness's Bine / binomial flavours both read it,
/// so a degraded answer and the harness baseline are literally the same
/// schedule.
pub const FALLBACK_SMALL_VECTOR_THRESHOLD: u64 = 32 * 1024;

/// The binomial-baseline algorithm of the ladder's binomial rung:
/// [`bine_sched::binomial_default`] at the harness's small-vector switch
/// point. Always buildable at the rank counts the tables cover, so a
/// degraded request gets the textbook MPI default instead of an error.
pub fn fallback_pick(collective: Collective, bytes: u64) -> &'static str {
    binomial_default(collective, is_small(bytes))
}

fn is_small(bytes: u64) -> bool {
    bytes <= FALLBACK_SMALL_VECTOR_THRESHOLD
}

/// One cacheable rung of the ladder (the override rung lives in the
/// adaptive overlay, see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Rung {
    /// The committed pick of table slot `.0`.
    Committed(u32),
    /// [`fallback_pick`] for the request's size class.
    Binomial { small: bool },
    /// The collective's linear any-rank-count algorithm.
    Linear,
}

/// The rungs a request for table slot `slot` at `bytes` steps down, in
/// order.
pub(super) fn rungs(slot: u32, bytes: u64) -> [Rung; 3] {
    [
        Rung::Committed(slot),
        Rung::Binomial {
            small: is_small(bytes),
        },
        Rung::Linear,
    ]
}

impl Rung {
    /// The algorithm this rung serves for `collective`; `None` where the
    /// ladder ends early (the rooted collectives have no linear any-p
    /// algorithm).
    pub(super) fn pick(self, index: &SelectorIndex, collective: Collective) -> Option<&str> {
        match self {
            Rung::Committed(slot) => Some(&index.slot(slot).pick),
            Rung::Binomial { small } => Some(binomial_default(collective, small)),
            Rung::Linear => linear_default(collective),
        }
    }

    /// Builds this rung's *base* schedule at `nodes` ranks (root 0) through
    /// the index's provider set, so committed `synth:` picks rebuild exactly
    /// like catalog ones, and returns it with the pick's pipeline chunk
    /// count: callers lower the pair in one pass
    /// ([`Schedule::compile_segmented`]) instead of materialising the
    /// segmented schedule. `None` when the rung does not exist for
    /// `collective` or its pick is not buildable at this rank count — the
    /// provider set is total, so probing an off-grid count is a plain call.
    pub(super) fn build(
        self,
        index: &SelectorIndex,
        collective: Collective,
        nodes: usize,
    ) -> Option<(Schedule, usize)> {
        let pick = self.pick(index, collective)?;
        index.providers().build_base(collective, pick, nodes, 0)
    }

    /// Stripe-hash contribution of the rung (spread only — equality is the
    /// derived `PartialEq`).
    pub(super) fn hash_bits(self) -> u64 {
        match self {
            Rung::Committed(slot) => u64::from(slot),
            Rung::Binomial { small } => (1 << 32) | u64::from(small),
            Rung::Linear => 2 << 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{DecisionTable, Entry, ScoreModel};
    use bine_sched::{bine_default, build};

    #[test]
    fn fallback_pick_switches_at_the_harness_threshold() {
        assert_eq!(
            fallback_pick(Collective::Allreduce, 32),
            "recursive-doubling"
        );
        assert_eq!(
            fallback_pick(Collective::Allreduce, FALLBACK_SMALL_VECTOR_THRESHOLD),
            "recursive-doubling"
        );
        assert_eq!(
            fallback_pick(Collective::Allreduce, FALLBACK_SMALL_VECTOR_THRESHOLD + 1),
            "rabenseifner"
        );
        assert_eq!(
            fallback_pick(Collective::Broadcast, 1 << 20),
            "scatter-allgather"
        );
        // "Always buildable": every collective's fallback builds at the
        // table's rank counts, on both sides of the switch point.
        for collective in Collective::ALL {
            for bytes in [32u64, 1 << 20] {
                for nodes in [16usize, 64] {
                    assert!(
                        build(collective, fallback_pick(collective, bytes), nodes, 0).is_some(),
                        "{} fallback must build at {nodes} ranks",
                        collective.name()
                    );
                }
            }
        }
    }

    /// For every collective the rung sequence is committed pick →
    /// `fallback_pick` → ring/pairwise (where one exists), on both sides of
    /// the size switch; at a power-of-two count the committed rung already
    /// builds, at a shrunk (non-power-of-two) count the walk lands on the
    /// first rung that builds there — Bruck (the alltoall binomial rung
    /// builds at any count), the linear rung, or nothing for the rooted
    /// collectives, whose stalls stay unrecoverable.
    #[test]
    fn rungs_step_down_committed_then_binomial_then_linear() {
        for collective in Collective::ALL {
            for bytes in [32u64, 1 << 20] {
                let committed = bine_default(collective, true);
                let index = SelectorIndex::from_table(&DecisionTable {
                    system: "Testbox".into(),
                    entries: vec![Entry {
                        collective,
                        dist: None,
                        nodes: 16,
                        vector_bytes: 32,
                        pick: committed.into(),
                        model: ScoreModel::Sync,
                        time_us: 1.0,
                    }],
                });
                let slot = index.slot_index(collective, 16, bytes).expect("one slot");
                let ladder = rungs(slot, bytes);
                let picks: Vec<_> = ladder.iter().map(|r| r.pick(&index, collective)).collect();
                let linear = match collective {
                    Collective::Allreduce | Collective::Allgather | Collective::ReduceScatter => {
                        Some("ring")
                    }
                    Collective::Alltoall => Some("pairwise"),
                    _ => None,
                };
                assert_eq!(
                    picks,
                    [
                        Some(committed),
                        Some(fallback_pick(collective, bytes)),
                        linear
                    ],
                    "{} at {bytes} B",
                    collective.name()
                );

                let first_building = |nodes: usize| {
                    ladder
                        .iter()
                        .position(|r| r.build(&index, collective, nodes).is_some())
                };
                assert_eq!(first_building(16), Some(0), "{}", collective.name());
                let at_15 = match collective {
                    Collective::Alltoall => Some(1),
                    _ => linear.map(|_| 2),
                };
                assert_eq!(
                    first_building(15),
                    at_15,
                    "{} at 15 survivors",
                    collective.name()
                );
            }
        }
    }
}
