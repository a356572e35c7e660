//! The offline tuner: sweeps the full algorithm catalog over a system's
//! `(collective, nodes, vector size, segment count)` grid and records the
//! winner of every grid point into a [`DecisionTable`]. Every score comes
//! from the [`Scorer`]; what lives here is the policy — which candidates,
//! which model, in what order, and what may be skipped.
//!
//! ## Two-stage scoring
//!
//! 1. **Synchronous stage** — every catalog algorithm is scored flat
//!    (unsegmented) with the synchronous barrier model
//!    ([`bine_net::cost::CostModel`]). This stage is cheap and runs at every
//!    grid point, including the largest node counts.
//! 2. **Discrete-event refinement** — at grid points within the node budget
//!    ([`DES_MAX_NODES`]), the top [`DES_TOP_K`] algorithms of stage 1
//!    (plus, always, the stage-1 winner and both binomial-baseline
//!    flavours) are re-scored with the discrete-event simulator across the
//!    pipeline segment counts [`SEGMENT_COUNTS`]. The DES is what sees
//!    pipelining, so this is the stage that moves the paper's ring →
//!    bine-large crossover (Sec. 5.2.2); its winner, segment count
//!    included, becomes the table entry.
//!
//! ## Pruning
//!
//! Both stages sort their candidates by the cheap closed-form lower bound
//! of [`bine_net::cost::LowerBounds`] (computed from the catalog metadata
//! `AlgorithmId::{min_steps, min_rank_bytes}` — no schedule is built) and
//! skip every candidate whose bound already exceeds the incumbent best
//! score. Because the bounds are *true* lower bounds (validated in
//! `bine-sched`), pruning never changes any argmin — property-tested in
//! `bine-bench/tests/tuned_selection.rs` by re-tuning random grid points
//! with pruning disabled — it only avoids building and scoring schedules
//! that provably lose. This is what keeps full decision-table regeneration (the CI drift
//! gate does one on every push) inside a CI-friendly budget: the linear
//! algorithms' `p − 1` step bound prunes them at every latency-dominated
//! grid point before their O(p²)-message schedules are ever constructed.

use std::collections::HashMap;

use bine_net::cost::{CostModel, LowerBounds};
use bine_sched::{
    algorithms, binomial_default, irregular_algorithms, tuned_name, AlgorithmId, Collective,
    ProviderSet, SizeDist, IRREGULAR_COLLECTIVES,
};

use crate::score::{Scorer, TunePoint};
use crate::table::{DecisionTable, Entry, ScoreModel};

/// Pipeline segment counts tried (in addition to the implicit 1) during the
/// DES refinement. Like the five constants below, part of what the
/// committed `tuning/` tables mean: the drift gate regenerates with exactly
/// these, so they are constants, not options.
pub const SEGMENT_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// How many stage-1 algorithms advance to the DES refinement.
pub const DES_TOP_K: usize = 4;

/// Largest node count at which the DES refinement runs; beyond it the
/// stage-1 (synchronous) winner is recorded directly, and no synthesized
/// candidate is asked for — synthesized schedules are only trusted where
/// the DES can judge them. The cap sits at 512 nodes — the regime the
/// paper's Sec. 5.2 claims actually live in — which the incremental
/// fair-share + arena fast path of `bine_net::sim` makes affordable; the
/// remaining grid (1024/2048-node points) stays synchronous-only to keep
/// full-table regeneration inside the CI drift gate's wall-time budget.
pub const DES_MAX_NODES: usize = 512;

/// Alltoall-specific DES ceiling, tighter than [`DES_MAX_NODES`]. An
/// alltoall simulation carries Θ(p²) data blocks — and with the linear
/// `pairwise` candidate, Θ(p) steps of Θ(p) concurrent flows — so the
/// general cap that is affordable for the Θ(p·log p) collectives would blow
/// the drift gate's wall-time budget here.
pub const DES_ALLTOALL_MAX_NODES: usize = 128;

/// Largest node count at which the Θ(p)-step algorithms
/// ([`bine_sched::is_linear`]: ring, pairwise) are candidates at all — in
/// the tuner, the paper harness and the sweeps alike: they are both
/// impractically large to build beyond it and — as the paper notes — not
/// competitive there.
const MAX_LINEAR_NODES: usize = 1024;

/// Whether an algorithm is a candidate at `nodes` ranks: a linear one
/// ([`bine_sched::is_linear`]) only up to `MAX_LINEAR_NODES` (1024). The one
/// reading of that cap, for the tuner, the re-evaluator and the harness.
pub fn affordable(is_linear: bool, nodes: usize) -> bool {
    !is_linear || nodes <= MAX_LINEAR_NODES
}

/// Smallest vector size at which pipelined (`seg > 1`) DES candidates are
/// tried. Below it segmentation only adds per-chunk alpha —
/// latency-dominated points never pick it — so the sweep does not pay for
/// simulating it.
pub const MIN_SEGMENT_BYTES: u64 = 1 << 20;

/// A tuning target: one system's grid.
pub struct Target {
    /// Display name, recorded in the decision table.
    pub system: String,
    /// Cost-model parameters shared by both scoring stages.
    pub model: CostModel,
    /// The provider set candidates are enumerated and built through — the
    /// one the serving layer rebuilds this system's picks with
    /// ([`crate::selector::system_providers`]), so a tuned `synth:` pick
    /// resolves to the identical schedule at serve time.
    pub providers: ProviderSet,
    /// The collectives to tune.
    pub collectives: Vec<Collective>,
    /// One point per node count, ascending.
    pub points: Vec<TunePoint>,
    /// Vector sizes in bytes, ascending.
    pub vector_sizes: Vec<u64>,
}

/// The tuner's one knob. The default is what generates the committed
/// `tuning/` tables.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// Whether the lower-bound pruning is enabled. Disabled only by tests
    /// that verify pruning does not change any argmin.
    pub prune: bool,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self { prune: true }
    }
}

/// A stage-1 candidate: an algorithm with its cheap lower bound and its
/// enumeration position (the tie-breaker, so pruned sweeps pick the same
/// winner as an unpruned enumeration-order scan).
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The algorithm.
    pub alg: AlgorithmId,
    /// Position in the enumeration: catalog order, with synthesized
    /// candidates after the whole catalog (tie-break key).
    pub idx: usize,
    /// Cheap lower bound on this candidate's score (microseconds).
    pub lower_bound: f64,
}

/// Builds the lower-bound-sorted candidate list for one grid point from an
/// enumeration `algs` — [`bine_sched::algorithms`], or a provider set's
/// (catalog, then synthesized): the [`affordable`] ones, sorted by
/// [`LowerBounds::sync_time_us`] ascending with enumeration order as the
/// tie-break. The closed-form lower bounds are universal per-collective
/// semantics bounds, so they apply to synthesized schedules unchanged.
pub fn candidates(
    algs: impl IntoIterator<Item = AlgorithmId>,
    nodes: usize,
    vector_bytes: u64,
    lbs: &LowerBounds,
) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = algs
        .into_iter()
        .enumerate()
        .filter(|(_, a)| affordable(a.is_linear, nodes))
        .map(|(idx, alg)| {
            let lower_bound = lbs.sync_time_us(
                alg.min_steps(nodes),
                alg.min_rank_bytes(vector_bytes, nodes),
            );
            Candidate {
                alg,
                idx,
                lower_bound,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        a.lower_bound
            .total_cmp(&b.lower_bound)
            .then(a.idx.cmp(&b.idx))
    });
    out
}

/// Outcome of a pruned single-point sweep.
#[derive(Debug, Clone)]
pub struct CellBest {
    /// The overall winner and its score.
    pub best: (AlgorithmId, f64),
    /// The best non-Bine algorithm and its score (what the benchmark
    /// heatmaps report Bine's advantage against). `None` when every
    /// non-Bine candidate was pruned — which can only happen when the
    /// winner is also non-Bine-advantaged, see [`pruned_best`].
    pub best_non_bine: Option<(AlgorithmId, f64)>,
}

/// Scores `candidates` (already lower-bound-sorted, see [`candidates`])
/// with `score`, skipping every candidate whose lower bound proves it can
/// neither be the overall winner nor the best non-Bine algorithm. With
/// `prune` disabled every candidate is scored.
///
/// The returned winner (and, when the winner is Bine, the best non-Bine
/// runner-up) is *exactly* the one an exhaustive catalog-order scan picks:
/// a candidate is only skipped when its bound strictly exceeds the
/// incumbent, so tying candidates are always scored, and ties resolve by
/// catalog position.
pub fn pruned_best(
    cands: &[Candidate],
    prune: bool,
    mut score: impl FnMut(&AlgorithmId) -> f64,
) -> CellBest {
    // Track winners by index into `cands` (ids are owned, not `Copy`).
    let mut best: Option<(usize, f64)> = None;
    let mut best_other: Option<(usize, f64)> = None;
    for (i, c) in cands.iter().enumerate() {
        let may_win = best.is_none_or(|(_, t)| c.lower_bound <= t);
        let may_lead_others = !c.alg.is_bine && best_other.is_none_or(|(_, t)| c.lower_bound <= t);
        if prune && !may_win && !may_lead_others {
            continue;
        }
        let t = score(&c.alg);
        if best.is_none_or(|(bi, bt)| (t, c.idx) < (bt, cands[bi].idx)) {
            best = Some((i, t));
        }
        if !c.alg.is_bine && best_other.is_none_or(|(bi, bt)| (t, c.idx) < (bt, cands[bi].idx)) {
            best_other = Some((i, t));
        }
    }
    let (bi, t) = best.expect("at least one candidate per grid point");
    CellBest {
        best: (cands[bi].alg.clone(), t),
        best_non_bine: best_other.map(|(i, t)| (cands[i].alg.clone(), t)),
    }
}

/// The offline tuner: a [`Scorer`] plus the two-stage policy above. It
/// holds no schedule, summary or simulator state of its own — only the
/// per-column candidate enumeration, because the ForestColl tree-count
/// search behind a synthesized candidate is worth running once per grid
/// column, not once per vector size.
pub struct Tuner {
    system: String,
    collectives: Vec<Collective>,
    vector_sizes: Vec<u64>,
    scorer: Scorer,
    config: TunerConfig,
    columns: HashMap<(Collective, usize), Vec<AlgorithmId>>,
}

impl Tuner {
    /// Creates a tuner for one target with the given configuration.
    pub fn new(target: Target, config: TunerConfig) -> Self {
        Self {
            system: target.system,
            collectives: target.collectives,
            vector_sizes: target.vector_sizes,
            scorer: Scorer::new(target.model, target.providers, target.points),
            config,
            columns: HashMap::new(),
        }
    }

    /// The lower-bound-sorted candidates of one grid point: the catalog
    /// plus, inside the DES horizon, the column's synthesized candidates.
    fn point_candidates(
        &mut self,
        collective: Collective,
        nodes: usize,
        vector_bytes: u64,
        lbs: &LowerBounds,
    ) -> Vec<Candidate> {
        let providers = self.scorer.providers();
        let column = self.columns.entry((collective, nodes)).or_insert_with(|| {
            // The horizon is checked *before* asking: the provider set
            // would derive a 2048-rank view and search it just to have the
            // answer thrown away.
            if nodes <= DES_MAX_NODES {
                providers.algorithms(collective, nodes)
            } else {
                algorithms(collective)
            }
        });
        candidates(column.iter().cloned(), nodes, vector_bytes, lbs)
    }

    /// Scores one candidate (full tuned name, `+segS` suffix honoured)
    /// under the requested time model at one grid point.
    ///
    /// # Panics
    /// Panics if the name is unknown for `collective` or does not build at
    /// `nodes` ranks.
    pub fn score(
        &mut self,
        collective: Collective,
        name: &str,
        nodes: usize,
        vector_bytes: u64,
        model: ScoreModel,
    ) -> f64 {
        self.scorer
            .score(collective, None, name, nodes, vector_bytes, model)
            .unwrap_or_else(|| panic!("{name} does not build for {collective:?} at {nodes} nodes"))
    }

    /// Stage-1 pruned sweep of one grid point: the synchronous-model winner
    /// and best non-Bine runner-up over the full catalog.
    pub fn sync_cell(
        &mut self,
        collective: Collective,
        nodes: usize,
        vector_bytes: u64,
    ) -> CellBest {
        let lbs = self.scorer.lower_bounds(nodes);
        let cands = self.point_candidates(collective, nodes, vector_bytes, &lbs);
        let prune = self.config.prune;
        pruned_best(&cands, prune, |alg| {
            self.score(
                collective,
                alg.name(),
                nodes,
                vector_bytes,
                ScoreModel::Sync,
            )
        })
    }

    /// Tunes one grid point into its decision-table entry.
    pub fn tune_point(&mut self, collective: Collective, nodes: usize, vector_bytes: u64) -> Entry {
        let lbs = self.scorer.lower_bounds(nodes);
        let cands = self.point_candidates(collective, nodes, vector_bytes, &lbs);
        let prune = self.config.prune;

        // Stage 1: synchronous sweep over the whole catalog (records every
        // scored candidate for the top-K selection below). At DES-eligible
        // points the prune threshold is the K-th best score seen, not the
        // best: a candidate that cannot win stage 1 may still belong to the
        // stage-2 top-K, and pruning must never change what stage 2 sees —
        // that is what keeps pruned and exhaustive runs byte-identical.
        let des_eligible = nodes
            <= match collective {
                Collective::Alltoall => DES_ALLTOALL_MAX_NODES,
                _ => DES_MAX_NODES,
            };
        let mut scored: Vec<(usize, f64)> = Vec::new(); // (cands index, score)
        let mut top_scores: Vec<f64> = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in cands.iter().enumerate() {
            let threshold = if des_eligible {
                if top_scores.len() < DES_TOP_K {
                    f64::INFINITY
                } else {
                    top_scores[DES_TOP_K - 1]
                }
            } else {
                best.map_or(f64::INFINITY, |(_, t)| t)
            };
            if prune && c.lower_bound > threshold {
                // Candidates are lower-bound-sorted and the threshold only
                // improves, so nothing after this point can matter either.
                break;
            }
            let t = self.score(
                collective,
                c.alg.name(),
                nodes,
                vector_bytes,
                ScoreModel::Sync,
            );
            scored.push((i, t));
            let pos = top_scores.partition_point(|&s| s <= t);
            top_scores.insert(pos, t);
            top_scores.truncate(DES_TOP_K);
            if best.is_none_or(|(bi, bt)| (t, c.idx) < (bt, cands[bi].idx)) {
                best = Some((i, t));
            }
        }
        let (best_i, sync_time) = best.expect("at least one candidate per grid point");
        let sync_winner = &cands[best_i].alg;

        if !des_eligible {
            return Entry {
                collective,
                dist: None,
                nodes,
                vector_bytes,
                pick: sync_winner.name().to_string(),
                model: ScoreModel::Sync,
                time_us: sync_time,
            };
        }

        // Stage 2: DES refinement. Candidate algorithms: the stage-1
        // winner, both binomial-baseline flavours (so the selector's pick
        // is never worse than the baseline by construction), the stage-1
        // top K, and — like the baselines — every synthesized candidate:
        // synthesis exists precisely for effects the synchronous model
        // cannot see, so the DES always gets to judge it. The forced set
        // does not depend on which candidates stage-1 pruning scored, so
        // pruned and exhaustive runs still refine the same list.
        let mut names: Vec<String> = vec![sync_winner.name().to_string()];
        let push_unique = |names: &mut Vec<String>, name: &str| {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        };
        for flavour in [
            binomial_default(collective, true),
            binomial_default(collective, false),
        ] {
            push_unique(&mut names, flavour);
        }
        scored.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then(cands[a.0].idx.cmp(&cands[b.0].idx))
        });
        for &(i, _) in scored.iter().take(DES_TOP_K) {
            push_unique(&mut names, cands[i].alg.name());
        }
        for c in &cands {
            if c.alg.is_synthesized() {
                push_unique(&mut names, c.alg.name());
            }
        }

        let by_name: HashMap<&str, &AlgorithmId> =
            cands.iter().map(|c| (c.alg.name(), &c.alg)).collect();
        let mut des_cands: Vec<(f64, usize, usize)> = Vec::new(); // (lb, name idx, seg)
        for (order, name) in names.iter().enumerate() {
            let alg = by_name[name.as_str()];
            let lb = lbs.des_time_us(alg.min_rank_bytes(vector_bytes, nodes));
            des_cands.push((lb, order, 1));
            if vector_bytes < MIN_SEGMENT_BYTES {
                continue;
            }
            // Segment counts beyond the largest per-message block list
            // collapse onto the same schedule (single-block messages are
            // unsplittable), so only distinct effective counts are
            // simulated.
            let cap = self
                .scorer
                .max_message_blocks(collective, None, name, nodes)
                .unwrap_or_else(|| panic!("{name} does not build at {nodes} nodes"));
            let mut effective: Vec<usize> = SEGMENT_COUNTS
                .iter()
                .map(|&s| s.min(cap))
                .filter(|&s| s > 1)
                .collect();
            effective.sort_unstable();
            effective.dedup();
            for seg in effective {
                des_cands.push((lb, order, seg));
            }
        }
        des_cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut best_des: Option<(usize, usize, f64)> = None; // (name idx, seg, score)
        for &(lb, order, seg) in &des_cands {
            if prune && best_des.is_some_and(|(_, _, t)| lb > t) {
                break;
            }
            let full = tuned_name(&names[order], seg);
            let t = self.score(collective, &full, nodes, vector_bytes, ScoreModel::Des);
            if best_des.is_none_or(|(bo, _, bt)| (t, order) < (bt, bo)) {
                best_des = Some((order, seg, t));
            }
        }
        let (order, seg, t) = best_des.expect("DES stage always has candidates");
        Entry {
            collective,
            dist: None,
            nodes,
            vector_bytes,
            pick: tuned_name(&names[order], seg),
            model: ScoreModel::Des,
            time_us: t,
        }
    }

    /// Tunes one irregular (v-variant) grid point: the minimum of
    /// [`irregular_scores`] becomes the entry, ties resolving by candidate
    /// order exactly as the regular sweep resolves them by catalog order.
    pub fn tune_irregular_point(
        &mut self,
        collective: Collective,
        dist: SizeDist,
        nodes: usize,
        vector_bytes: u64,
    ) -> Entry {
        let scores = irregular_scores(&mut self.scorer, collective, dist, nodes, vector_bytes);
        // `min_by` keeps the first of equal minima.
        let best = scores.into_iter().min_by(|a, b| a.1.total_cmp(&b.1));
        let (pick, time_us) = best.expect("every v-variant collective has candidates");
        Entry {
            collective,
            dist: Some(dist),
            nodes,
            vector_bytes,
            pick: pick.name().to_string(),
            model: ScoreModel::Sync,
            time_us,
        }
    }

    fn node_counts(&self) -> Vec<usize> {
        self.scorer.points().iter().map(|p| p.nodes).collect()
    }

    /// Sweeps the irregular grids of every tunable v-variant collective in
    /// the target: `(collective, dist, nodes, bytes)` with `dist` ranging
    /// over [`SizeDist::ALL`]. Candidate summaries live only for the sizes
    /// loop of one `(collective, dist, nodes)` cell, bounding peak memory.
    pub fn tune_irregular(&mut self) -> Vec<Entry> {
        let node_counts = self.node_counts();
        let sizes = self.vector_sizes.clone();
        let mut entries = Vec::new();
        for collective in self.collectives.clone() {
            if !IRREGULAR_COLLECTIVES.contains(&collective) {
                continue;
            }
            for &nodes in &node_counts {
                for dist in SizeDist::ALL {
                    for &n in &sizes {
                        entries.push(self.tune_irregular_point(collective, dist, nodes, n));
                    }
                    self.scorer.clear();
                }
            }
        }
        entries
    }

    /// Tunes the full grid into a decision table: the regular
    /// `(collective, nodes, bytes)` grid of every target collective plus
    /// the irregular `(collective, dist, nodes, bytes)` grids of the
    /// v-variant collectives among them. The scorer's caches are dropped
    /// between collectives to bound peak memory on the largest systems,
    /// exactly as the benchmark runner does.
    pub fn tune(&mut self) -> DecisionTable {
        let node_counts = self.node_counts();
        let sizes = self.vector_sizes.clone();
        let mut entries = Vec::new();
        for collective in self.collectives.clone() {
            for &nodes in &node_counts {
                for &n in &sizes {
                    entries.push(self.tune_point(collective, nodes, n));
                }
            }
            self.scorer.clear();
        }
        entries.extend(self.tune_irregular());
        let mut table = DecisionTable {
            system: self.system.clone(),
            entries,
        };
        table.sort();
        table
    }
}

/// The candidates of one irregular (v-variant) grid point with their
/// scores, in catalog order — what [`Tuner::tune_irregular_point`] takes the
/// first minimum of and `bine-bench sweep irregular` prints. Every v-variant
/// of `collective` ([`irregular_algorithms`]) that builds at `nodes` ranks is
/// scored flat with the synchronous model under `dist`'s synthetic counts
/// (root 0, heavy rank 0 — the placement the harness evaluates). The
/// linear-step ring is excluded above `MAX_LINEAR_NODES`, mirroring the
/// regular sweep.
///
/// Deliberately **unpruned** and synchronous-only: the catalog's cheap
/// lower bounds assume equal per-rank counts, which skewed distributions
/// violate (a one-heavy gatherv moves `n` bytes over one edge per tree
/// level, nothing like `n/p` per rank), so a bound-driven skip could
/// silently change an argmin. The candidate sets are tiny (2–3 algorithms),
/// which keeps the exhaustive sweep cheap.
pub fn irregular_scores(
    scorer: &mut Scorer,
    collective: Collective,
    dist: SizeDist,
    nodes: usize,
    vector_bytes: u64,
) -> Vec<(AlgorithmId, f64)> {
    let mut scores = Vec::new();
    for alg in irregular_algorithms(collective)
        .into_iter()
        .filter(|alg| affordable(alg.is_linear, nodes))
    {
        let (dist, model) = (Some(dist), ScoreModel::Sync);
        if let Some(t) = scorer.score(collective, dist, alg.name(), nodes, vector_bytes, model) {
            scores.push((alg, t));
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use bine_net::allocation::Allocation;
    use bine_net::topology::IdealFullMesh;

    fn target(node_counts: &[usize]) -> Target {
        Target {
            system: "Irrbox".into(),
            model: CostModel::default(),
            providers: ProviderSet::catalog_only(),
            collectives: vec![
                Collective::Gather,
                Collective::Allgather,
                Collective::Broadcast,
            ],
            points: node_counts
                .iter()
                .map(|&n| TunePoint {
                    nodes: n,
                    topology: Box::new(IdealFullMesh::new(n)),
                    allocation: Allocation::block(n),
                })
                .collect(),
            vector_sizes: vec![32, 1 << 20],
        }
    }

    #[test]
    fn irregular_sweep_covers_the_v_variant_grid_and_skips_the_rest() {
        let mut tuner = Tuner::new(target(&[8, 16]), TunerConfig::default());
        let entries = tuner.tune_irregular();
        // Gather and allgather have v-variants, broadcast does not:
        // 2 collectives x 2 node counts x 3 dists x 2 sizes.
        assert_eq!(entries.len(), 24);
        for e in &entries {
            assert!(e.dist.is_some());
            assert_eq!(e.model, ScoreModel::Sync);
            let algs = irregular_algorithms(e.collective);
            assert!(
                algs.iter().any(|alg| alg.name() == e.pick),
                "{} picked for {:?}",
                e.pick,
                e.collective
            );
        }
    }

    #[test]
    fn full_tune_appends_irregular_grids_and_round_trips() {
        let mut tuner = Tuner::new(target(&[8]), TunerConfig::default());
        let table = tuner.tune();
        // Regular grid: 3 collectives x 1 node count x 2 sizes. Irregular:
        // 2 v-variant collectives x 3 dists x 2 sizes.
        assert_eq!(table.entries.len(), 6 + 12);
        let parsed = DecisionTable::from_json(&table.to_json()).unwrap();
        assert_eq!(parsed.system, table.system);
        assert_eq!(parsed.entries.len(), table.entries.len());
        // A re-tuned single irregular point reproduces its table entry
        // exactly (the sweep is deterministic).
        let committed = table
            .at(Collective::Gather, Some(SizeDist::OneHeavy), 8, 32)
            .unwrap();
        let fresh = tuner.tune_irregular_point(Collective::Gather, SizeDist::OneHeavy, 8, 32);
        assert_eq!(&fresh, committed);
    }
}
