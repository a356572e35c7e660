//! The serving side of online adaptation (policy and public types live in
//! [`crate::adapt`]): per-entry observed-cost histograms under the stripe
//! locks, single-flight challenger re-evaluation on divergence, and the
//! override rung — a winning challenger pushed on top of its entry's ladder
//! (see [`super::ladder`]) and served ahead of the committed cache line
//! until the committed pick wins a re-check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use bine_net::feedback::{LogHistogram, ObservedTiming};
use bine_sched::{Collective, CompiledSchedule};

use super::breaker::Breaker;
use super::cache::{Key, ShardState};
use super::flight::lock_any;
use super::ladder::Rung;
use super::ServiceSelector;
use crate::adapt::{AdaptPolicy, AdaptiveOverlay, OverlayEntry, Reevaluator};
use crate::selector::SelectorIndex;

/// The adaptive configuration installed by
/// [`ServiceSelector::with_adaptation`]; absent on a stock service, whose
/// behaviour is then bit-identical to the pre-adaptive serving layer.
pub(super) struct AdaptConfig {
    pub(super) policy: AdaptPolicy,
    pub(super) reevaluator: Reevaluator,
}

/// Per-entry adaptive state, kept in the entry's shard exactly like the
/// compile breakers and keyed by the entry's committed rung: observed-cost
/// histogram, the active override (if any), the single-flight re-evaluation
/// marker and the re-evaluation circuit breaker. All mutations happen
/// under the stripe lock the hot path already holds; re-evaluations
/// themselves run outside it.
pub(super) struct AdaptEntry {
    key: Key,
    /// Observed per-pick costs since the last promotion/revert/vindication.
    hist: LogHistogram,
    override_state: Option<OverrideState>,
    /// Single-flight marker: while one observer re-evaluates this entry,
    /// concurrent observers skip — they never block on the re-evaluation.
    reeval_in_flight: bool,
    /// Re-evaluation circuit breaker, driven by the same
    /// [`super::DegradePolicy`] thresholds as the compile path: repeated
    /// failed (panicking or unscorable) re-evaluations trip it open and the
    /// entry stops adapting until the cooldown lets one half-open probe
    /// through. The entry keeps *serving* throughout.
    breaker: Breaker,
}

/// A challenger currently shadowing the committed pick of one cache entry.
/// The pre-compiled schedule makes the overridden warm path an `Arc` clone
/// — no allocation, no rebuild.
struct OverrideState {
    /// What [`ServiceSelector::overlay`] reports for this override.
    entry: OverlayEntry,
    compiled: Arc<CompiledSchedule>,
    /// Observations since the last committed-pick re-check.
    since_recheck: u64,
}

impl ShardState {
    /// The override shadowing `key`'s committed rung, if one is installed.
    pub(super) fn overridden(&self, key: &Key) -> Option<Arc<CompiledSchedule>> {
        let entry = self.adapt.iter().find(|e| e.key == *key)?;
        Some(Arc::clone(&entry.override_state.as_ref()?.compiled))
    }

    /// The adaptive state of `key`, created on first observation.
    fn adapt_entry_mut(&mut self, key: Key) -> &mut AdaptEntry {
        match self.adapt.iter().position(|e| e.key == key) {
            Some(i) => &mut self.adapt[i],
            None => {
                self.adapt.push(AdaptEntry {
                    key,
                    hist: LogHistogram::new(),
                    override_state: None,
                    reeval_in_flight: false,
                    breaker: Breaker::CLOSED,
                });
                self.adapt.last_mut().expect("just pushed")
            }
        }
    }
}

impl ServiceSelector {
    /// Feeds one observed per-pick cost of system `sys` (its
    /// [`ServiceSelector::system_index`]) into the adaptive feedback loop:
    /// the execution wall time of a served schedule, or the simulated cost
    /// when the caller runs picks through the DES. A no-op unless
    /// [`ServiceSelector::with_adaptation`] enabled adaptation (and on
    /// unresolvable queries). The `execute` family calls this itself;
    /// callers that resolve schedules via [`ServiceSelector::compiled`]
    /// and run them elsewhere report their timings here.
    ///
    /// The warm path is allocation-free: the observation lands in a
    /// fixed-bucket histogram under the stripe lock the request path
    /// already uses. When the entry's observed mean diverges past
    /// [`AdaptPolicy::divergence`], this call runs the re-evaluation
    /// before returning (single-flight: concurrent observers skip rather
    /// than block, and repeated failures trip a per-entry breaker).
    pub fn observe_at(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        timing: ObservedTiming,
    ) {
        let Some(cfg) = &self.adapt else { return };
        let Some(index) = self.systems.get(sys) else {
            return;
        };
        let Some(slot_idx) = index.slot_index(collective, nodes, bytes) else {
            return;
        };
        let modelled = index.slot(slot_idx).time_us;
        let key = Key::new(sys, collective, nodes, Rung::Committed(slot_idx));
        let shard = self.shard(&key);
        let reevaluate = {
            let mut state = lock_any(shard);
            let e = state.adapt_entry_mut(key);
            e.hist.record(timing.time_us);
            let reevaluate = if e.reeval_in_flight {
                // Single-flight: someone is already re-evaluating this
                // entry; never block the observer behind it.
                false
            } else if let Some(ov) = &mut e.override_state {
                // An overridden entry periodically re-checks the committed
                // pick against its override.
                ov.since_recheck += 1;
                let due = ov.since_recheck >= cfg.policy.recheck_interval;
                if due {
                    ov.since_recheck = 0;
                }
                due
            } else {
                // A fresh divergence re-evaluates if the entry's breaker
                // admits it (once the cooldown of an open breaker is over,
                // this observation becomes the half-open probe).
                e.hist.count() >= cfg.policy.min_samples
                    && modelled.is_finite()
                    && modelled > 0.0
                    && e.hist.mean_us() >= cfg.policy.divergence * modelled
                    && e.breaker.admit(self.policy.breaker_cooldown)
            };
            e.reeval_in_flight |= reevaluate;
            state.stats.reevals += u64::from(reevaluate);
            reevaluate
        };
        if reevaluate {
            // Outside the stripe lock: the entry (and its whole shard)
            // keeps serving while challengers are scored.
            self.run_reevaluation(cfg, key, index, slot_idx, shard);
        }
    }

    /// Runs one single-flight re-evaluation of a diverged (or periodically
    /// re-checked) entry and settles the outcome under the stripe lock:
    /// install a winning challenger as an override, refresh or revert an
    /// existing override, or count a failure against the entry's breaker.
    /// The challenger search runs under `catch_unwind`, so a panicking
    /// scorer degrades into a breaker strike instead of poisoning serving.
    fn run_reevaluation(
        &self,
        cfg: &AdaptConfig,
        key: Key,
        index: &SelectorIndex,
        slot_idx: u32,
        shard: &Mutex<ShardState>,
    ) {
        let slot = index.slot(slot_idx);
        let committed: &str = &slot.pick;
        // Score challengers at the committed grid point's vector size and
        // pre-compile a non-incumbent winner, all outside any lock. The
        // provider set lets a challenger enumeration include synthesized
        // names, not just catalog ones.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (winner, score) =
                cfg.reevaluator
                    .best(committed, key.collective, key.nodes, slot.vector_bytes)?;
            if winner == committed {
                Some((winner, score, None))
            } else {
                let compiled = index
                    .providers()
                    .compile(key.collective, &winner, key.nodes, 0)?;
                Some((winner, score, Some(Arc::new(compiled))))
            }
        }));
        let mut state = lock_any(shard);
        let e = state.adapt_entry_mut(key);
        e.reeval_in_flight = false;
        let (mut installed, mut reverted) = (false, false);
        match outcome {
            Ok(Some((winner, score, compiled))) => {
                e.breaker.reset();
                if winner == committed {
                    // The committed pick won: revert any override and
                    // start a fresh observation window.
                    reverted = e.override_state.take().is_some();
                } else if let Some(ov) = e
                    .override_state
                    .as_mut()
                    .filter(|ov| ov.entry.pick == winner)
                {
                    // Recheck confirmed the active override.
                    ov.entry.challenger_us = score;
                } else {
                    e.override_state = Some(OverrideState {
                        entry: OverlayEntry {
                            system: index.system().to_string(),
                            collective: key.collective,
                            nodes: key.nodes,
                            committed: committed.to_string(),
                            pick: winner,
                            epoch: self.adapt_epoch.fetch_add(1, Ordering::Relaxed) + 1,
                            samples: e.hist.count(),
                            observed_mean_us: e.hist.mean_us(),
                            modelled_us: slot.time_us,
                            challenger_us: score,
                        },
                        compiled: compiled.expect("non-incumbent winner is pre-compiled"),
                        since_recheck: 0,
                    });
                    installed = true;
                }
                e.hist.reset();
            }
            // Nothing scorable, winner unbuildable, or the scorer
            // panicked: a failed re-evaluation. The entry keeps serving
            // its current pick; repeated failures trip the breaker.
            Ok(None) | Err(_) => e.breaker.strike(self.policy.breaker_threshold),
        }
        state.stats.overrides += u64::from(installed);
        state.stats.reverts += u64::from(reverted);
    }

    /// A point-in-time dump of every active adaptive override, ordered by
    /// installation epoch. Empty on a service without adaptation, or one
    /// whose observations all match the committed model.
    pub fn overlay(&self) -> AdaptiveOverlay {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let state = lock_any(shard);
            let active = state.adapt.iter().filter_map(|e| e.override_state.as_ref());
            entries.extend(active.map(|ov| ov.entry.clone()));
        }
        entries.sort_by_key(|e| e.epoch);
        AdaptiveOverlay { entries }
    }
}
