//! Online adaptive tuning for the serving layer.
//!
//! The committed decision tables are *model-derived*: the tuner scores the
//! catalog under the synchronous barrier model (refined by the DES on a
//! top-K shortlist) and commits the winner per grid point. A deployed
//! service observes something the offline model cannot — the cost actually
//! paid per pick, with whatever congestion, faults or drift the live system
//! exhibits. This module holds the public surface of the feedback loop
//! [`crate::service::ServiceSelector`] runs over those observations:
//!
//! * [`AdaptPolicy`] — when the loop is allowed to act: how many samples a
//!   grid entry needs before its observed mean is trusted, how far observed
//!   cost must diverge from the committed modelled score to trigger a
//!   re-evaluation, and how often an installed override is re-checked
//!   against the committed pick (the deterministic epsilon-greedy knob);
//! * [`Reevaluator`] — how challengers are found and scored when an entry
//!   diverges: a candidate enumeration (by default the flat catalog,
//!   [`Reevaluator::catalog`]) plus a scoring function, both
//!   pluggable so a bench or test can score through a seeded faulted DES;
//! * [`AdaptiveOverlay`] / [`OverlayEntry`] — the observability dump: every
//!   override currently shadowing a committed pick, with the epoch it was
//!   installed at and the observed-vs-modelled costs that justified it.
//!
//! The committed tables themselves are **never mutated**: overrides live in
//! an epoch-versioned overlay on top of the immutable
//! [`crate::SelectorIndex`], so the CI drift gate keeps validating exactly
//! what was committed, and dropping the overlay (or disabling adaptation)
//! restores the committed behaviour bit for bit.

use std::sync::Arc;

use bine_sched::{algorithms, Collective};

use crate::tuner::affordable;

/// Knobs of the adaptive feedback loop. See the
/// [module docs](crate::adapt) for where each one bites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptPolicy {
    /// Observations a grid entry must accumulate before its mean is
    /// compared against the committed modelled score at all.
    pub min_samples: u64,
    /// Divergence ratio that triggers a re-evaluation: observed mean ≥
    /// `divergence ×` the committed modelled score. Must be > 1 to be
    /// meaningful (a healthy entry sits near 1.0 only when the model is
    /// calibrated in absolute terms; what matters is the *relative* jump).
    pub divergence: f64,
    /// On an overridden entry, every `recheck_interval`-th observation
    /// re-scores the committed pick against the override — the
    /// deterministic stand-in for an epsilon-greedy explore step. A
    /// committed pick that wins its re-check reverts the override.
    pub recheck_interval: u64,
}

impl Default for AdaptPolicy {
    fn default() -> AdaptPolicy {
        AdaptPolicy {
            min_samples: 32,
            divergence: 1.5,
            recheck_interval: 16,
        }
    }
}

/// Enumerates challenger picks for one diverged grid entry.
pub type CandidatesFn = dyn Fn(Collective, usize, u64) -> Vec<String> + Send + Sync;

/// Scores one pick (by full name, `"bine-large+seg8"` style) at a grid
/// point; `None` when the pick cannot be scored (not buildable at this
/// rank count, simulation out of budget, …).
pub type ScoreFn = dyn Fn(&str, Collective, usize, u64) -> Option<f64> + Send + Sync;

/// The challenger search run when an entry's observed cost diverges from
/// its committed modelled score: an enumeration of candidate picks plus a
/// scorer. Both halves are plugged in at construction so the serving layer
/// never hard-codes *why* the model was wrong — a test scores through a
/// faulted DES, a deployment could score through live probes.
#[derive(Clone)]
pub struct Reevaluator {
    candidates: Arc<CandidatesFn>,
    score: Arc<ScoreFn>,
}

impl Reevaluator {
    /// Builds a re-evaluator from a candidate enumeration and a scorer.
    pub fn new(candidates: Arc<CandidatesFn>, score: Arc<ScoreFn>) -> Reevaluator {
        Reevaluator { candidates, score }
    }

    /// A re-evaluator over the flat algorithm catalog of each collective
    /// ([`bine_sched::algorithms`], linear algorithms capped as the tuner
    /// caps them, [`crate::affordable`]), scored by `score`. A subset of
    /// what the offline tuner sweeps: neither its `synth:` candidates nor
    /// its `+segS` pipelined variants are enumerated here.
    pub fn catalog(score: Arc<ScoreFn>) -> Reevaluator {
        Reevaluator::new(
            Arc::new(move |collective, nodes, _bytes| {
                algorithms(collective)
                    .into_iter()
                    .filter(|a| affordable(a.is_linear, nodes))
                    .map(|a| a.name().to_string())
                    .collect()
            }),
            score,
        )
    }

    /// The challenger list for a grid point, never empty of the committed
    /// pick: the incumbent always defends its slot, so "no challenger beats
    /// it" and "the enumeration forgot it" cannot be confused.
    pub(crate) fn candidates_with(
        &self,
        committed: &str,
        collective: Collective,
        nodes: usize,
        vector_bytes: u64,
    ) -> Vec<String> {
        let mut cands = (self.candidates)(collective, nodes, vector_bytes);
        if !cands.iter().any(|c| c == committed) {
            cands.push(committed.to_string());
        }
        cands
    }

    /// Scores one pick; see [`ScoreFn`].
    pub(crate) fn score(
        &self,
        pick: &str,
        collective: Collective,
        nodes: usize,
        vector_bytes: u64,
    ) -> Option<f64> {
        (self.score)(pick, collective, nodes, vector_bytes)
    }

    /// The winning `(pick, score)` over the challenger list: the first
    /// strict minimum in enumeration order. Deterministic — ties keep the
    /// earlier candidate, so a challenger must score *strictly* better
    /// than everything before it to win. `None` when nothing scored.
    pub(crate) fn best(
        &self,
        committed: &str,
        collective: Collective,
        nodes: usize,
        vector_bytes: u64,
    ) -> Option<(String, f64)> {
        let mut best: Option<(String, f64)> = None;
        for cand in self.candidates_with(committed, collective, nodes, vector_bytes) {
            if let Some(score) = self.score(&cand, collective, nodes, vector_bytes) {
                let better = match &best {
                    Some((_, incumbent)) => score < *incumbent,
                    None => true,
                };
                if better {
                    best = Some((cand, score));
                }
            }
        }
        best
    }
}

impl std::fmt::Debug for Reevaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reevaluator").finish_non_exhaustive()
    }
}

/// One active override in the adaptive overlay: a challenger shadowing a
/// committed pick for a grid entry.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayEntry {
    /// Display name of the system the entry belongs to.
    pub system: String,
    /// Collective of the grid entry.
    pub collective: Collective,
    /// Rank count of the cache entry (the actual requested count, which
    /// may be off the tuned grid).
    pub nodes: usize,
    /// The committed pick the override shadows.
    pub committed: String,
    /// The challenger currently served instead.
    pub pick: String,
    /// Monotonic installation epoch (service-wide): a later override —
    /// anywhere in the service — has a larger epoch.
    pub epoch: u64,
    /// Observations accumulated when the override was promoted.
    pub samples: u64,
    /// Observed mean cost (µs) that triggered the promotion.
    pub observed_mean_us: f64,
    /// The committed pick's modelled score (µs) it diverged from.
    pub modelled_us: f64,
    /// The challenger's re-evaluated score (µs).
    pub challenger_us: f64,
}

/// A point-in-time dump of every active override; see
/// [`crate::service::ServiceSelector::overlay`]. Empty on a service whose
/// observations all match the committed model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptiveOverlay {
    /// Active overrides, ordered by installation epoch.
    pub entries: Vec<OverlayEntry>,
}

impl AdaptiveOverlay {
    /// Number of active overrides.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no override is active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_reevaluator_enumerates_the_tuners_candidate_set() {
        let r = Reevaluator::catalog(Arc::new(|_, _, _, _| Some(1.0)));
        let cands = r.candidates_with("bine-large", Collective::Allreduce, 16, 1 << 20);
        assert!(cands.iter().any(|c| c == "bine-large"));
        assert!(cands.iter().any(|c| c == "recursive-doubling"));
        // Linear algorithms are capped: above MAX_LINEAR_NODES they
        // disappear, but the committed pick is always defended.
        let cands = r.candidates_with("linear", Collective::Alltoall, 2048, 1 << 20);
        assert!(!cands.iter().any(|c| c == "pairwise"), "pairwise capped");
        assert!(cands.iter().any(|c| c == "linear"), "incumbent defended");
    }

    #[test]
    fn best_is_the_first_strict_minimum_in_enumeration_order() {
        let r = Reevaluator::new(
            Arc::new(|_, _, _| vec!["a".to_string(), "b".to_string(), "c".to_string()]),
            Arc::new(|pick, _, _, _| match pick {
                "a" => Some(2.0),
                "b" => Some(1.0),
                "c" => Some(1.0), // ties keep the earlier candidate
                _ => Some(1.5),   // the committed incumbent, appended last
            }),
        );
        let (pick, score) = r
            .best("committed", Collective::Allreduce, 16, 1024)
            .unwrap();
        assert_eq!((pick.as_str(), score), ("b", 1.0));
    }

    #[test]
    fn unscorable_candidates_are_skipped_not_fatal() {
        let r = Reevaluator::new(
            Arc::new(|_, _, _| vec!["broken".to_string()]),
            Arc::new(|pick, _, _, _| (pick != "broken").then_some(3.0)),
        );
        let (pick, _) = r
            .best("committed", Collective::Allreduce, 16, 1024)
            .unwrap();
        assert_eq!(pick, "committed");
        // Nothing scorable at all: no winner, the caller records a failed
        // re-evaluation instead of promoting garbage.
        let r = Reevaluator::new(Arc::new(|_, _, _| Vec::new()), Arc::new(|_, _, _, _| None));
        assert!(r
            .best("committed", Collective::Allreduce, 16, 1024)
            .is_none());
    }
}
