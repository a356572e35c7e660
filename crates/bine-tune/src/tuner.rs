//! The offline tuner: sweeps the full algorithm catalog over a system's
//! `(collective, nodes, vector size, segment count)` grid and records the
//! winner of every grid point into a [`DecisionTable`].
//!
//! ## Two-stage scoring
//!
//! 1. **Synchronous stage** — every catalog algorithm is scored flat
//!    (unsegmented) with the synchronous barrier model
//!    ([`bine_net::cost::CostModel`]). This stage is cheap and runs at every
//!    grid point, including the largest node counts.
//! 2. **Discrete-event refinement** — at grid points within the configured
//!    node budget ([`TunerConfig::des_max_nodes`]), the top
//!    [`TunerConfig::des_top_k`] algorithms of stage 1 (plus, always, the
//!    stage-1 winner and both binomial-baseline flavours) are re-scored with
//!    the discrete-event simulator across the configured pipeline segment
//!    counts. The DES is what sees pipelining, so this is the stage that
//!    moves the paper's ring → bine-large crossover (Sec. 5.2.2); its
//!    winner, segment count included, becomes the table entry.
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
use std::sync::Arc;

use bine_net::allocation::Allocation;
use bine_net::cost::{CostModel, CostSummary, LowerBounds};
use bine_net::sim;
use bine_net::topology::Topology;
use bine_net::view::synth_view;
use bine_sched::{
    algorithms, binomial_default, build, build_irregular, irregular_algorithms, is_synth_name,
    split_segments, synth_algorithms, AlgorithmId, Collective, CompiledSchedule, IrregularAlg,
    Schedule, SizeDist, SynthSpec, TopologyView, IRREGULAR_COLLECTIVES,
};

use crate::table::{DecisionTable, Entry, ScoreModel};

/// One node count of a tuning grid: the topology hosting the job and the
/// rank→node placement, exactly as the benchmark harness would evaluate it.
pub struct TunePoint {
    /// Number of job nodes (= schedule ranks; one rank per node).
    pub nodes: usize,
    /// The topology hosting the job.
    pub topology: Box<dyn Topology>,
    /// The job's rank→node placement. Ranks must occupy distinct nodes
    /// (the lower bounds assume every network message crosses a link).
    pub allocation: Allocation,
}

/// A tuning target: one system's grid.
pub struct Target {
    /// Display name, recorded in the decision table.
    pub system: String,
    /// Cost-model parameters shared by both scoring stages.
    pub model: CostModel,
    /// The collectives to tune.
    pub collectives: Vec<Collective>,
    /// One point per node count, ascending.
    pub points: Vec<TunePoint>,
    /// Vector sizes in bytes, ascending.
    pub vector_sizes: Vec<u64>,
}

impl Target {
    /// The tuning point hosting `nodes` nodes.
    ///
    /// # Panics
    /// Panics if the grid has no point for this node count.
    pub fn point(&self, nodes: usize) -> &TunePoint {
        self.points
            .iter()
            .find(|p| p.nodes == nodes)
            .unwrap_or_else(|| panic!("{}: no tuning point for {nodes} nodes", self.system))
    }
}

/// Tuner knobs. The defaults are what generates the committed `tuning/`
/// tables; the drift gate regenerates with the same defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// Pipeline segment counts tried (in addition to the implicit 1) during
    /// the DES refinement.
    pub segment_counts: Vec<usize>,
    /// How many stage-1 algorithms advance to the DES refinement.
    pub des_top_k: usize,
    /// Largest node count at which the DES refinement runs; beyond it the
    /// stage-1 (synchronous) winner is recorded directly. The cap sits at
    /// 512 nodes — the regime the paper's Sec. 5.2 claims actually live in —
    /// which the incremental fair-share + arena fast path of `bine_net::sim`
    /// makes affordable (the cap was 64 when every rate event recomputed the
    /// global fair share from scratch); the remaining grid (1024/2048-node
    /// points) stays synchronous-only to keep full-table regeneration inside
    /// the CI drift gate's wall-time budget.
    pub des_max_nodes: usize,
    /// Alltoall-specific DES ceiling, tighter than [`Self::des_max_nodes`].
    /// An alltoall simulation carries Θ(p²) data blocks — and with the
    /// linear `pairwise` candidate, Θ(p) steps of Θ(p) concurrent flows —
    /// so the general 512-node cap that is affordable for the Θ(p·log p)
    /// collectives would blow the drift gate's wall-time budget here. Above
    /// this cap alltoall records its stage-1 (synchronous) winner directly.
    pub des_alltoall_max_nodes: usize,
    /// Largest node count at which the Θ(p)-step algorithms (ring,
    /// pairwise) are candidates at all, mirroring the benchmark harness's
    /// exclusion: they are both impractically large to build and — as the
    /// paper notes — not competitive there.
    pub max_linear_nodes: usize,
    /// Smallest vector size at which pipelined (`seg > 1`) DES candidates
    /// are tried. Below it segmentation only adds per-chunk alpha —
    /// latency-dominated points never pick it — so the sweep does not pay
    /// for simulating it.
    pub min_segment_bytes: u64,
    /// Whether the lower-bound pruning is enabled. Disabled only by tests
    /// that verify pruning does not change any argmin.
    pub prune: bool,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            segment_counts: vec![2, 4, 8, 16],
            des_top_k: 4,
            des_max_nodes: 512,
            des_alltoall_max_nodes: 128,
            max_linear_nodes: 1024,
            min_segment_bytes: 1 << 20,
            prune: true,
        }
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

/// Builds the lower-bound-sorted candidate list for one grid point: every
/// catalog algorithm of `collective` (linear ones only up to
/// `max_linear_nodes`), sorted by [`LowerBounds::sync_time_us`] ascending
/// with catalog order as the tie-break.
pub fn candidates(
    collective: Collective,
    nodes: usize,
    vector_bytes: u64,
    lbs: &LowerBounds,
    max_linear_nodes: usize,
) -> Vec<Candidate> {
    candidates_with(collective, nodes, vector_bytes, lbs, max_linear_nodes, &[])
}

/// [`candidates`] plus provider-supplied (synthesized) algorithms, which
/// enumerate after the whole catalog. The closed-form lower bounds are
/// universal per-collective semantics bounds, so they apply to synthesized
/// schedules unchanged.
pub fn candidates_with(
    collective: Collective,
    nodes: usize,
    vector_bytes: u64,
    lbs: &LowerBounds,
    max_linear_nodes: usize,
    extra: &[AlgorithmId],
) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = algorithms(collective)
        .into_iter()
        .chain(extra.iter().cloned())
        .enumerate()
        .filter(|(_, a)| !a.is_linear || nodes <= max_linear_nodes)
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

/// The offline tuner. Caches built and compiled schedules across the grid
/// points of one collective (they are shared by all vector sizes), and owns
/// a [`bine_net::sim::SimArena`] so the DES refinement stage reuses routes,
/// dependency analysis and event-loop scratch across the whole sweep instead
/// of re-allocating them per simulation.
pub struct Tuner {
    target: Target,
    config: TunerConfig,
    schedules: HashMap<(Collective, String, usize), Schedule>,
    /// Per-schedule [`CostSummary`], so the synchronous stage re-scores a
    /// cached schedule at each vector size in O(messages) instead of
    /// walking its block lists again — bit-identical to scoring the
    /// schedule directly, and the difference between minutes and seconds
    /// for the Θ(p²·log p)-block alltoall schedules at 1024+ nodes.
    summaries: HashMap<(Collective, String, usize), CostSummary>,
    compiled: HashMap<(Collective, String, usize, usize), CompiledSchedule>,
    arena: sim::SimArena,
    /// Per-node-count topology view the synthesizers consume, derived once
    /// from the grid point's `(topology, allocation)` pair — the same
    /// derivation the serving layer uses, so tuned synth picks rebuild
    /// identically at serve time.
    views: HashMap<usize, Option<Arc<TopologyView>>>,
    /// Per-(collective, nodes) synthesized candidate ids. The ForestColl
    /// tree-count search is not free, so it runs once per grid column, not
    /// once per vector size.
    synth_ids: HashMap<(Collective, usize), Vec<AlgorithmId>>,
}

impl Tuner {
    /// Creates a tuner for one target with the given configuration.
    pub fn new(target: Target, config: TunerConfig) -> Self {
        Self {
            target,
            config,
            schedules: HashMap::new(),
            summaries: HashMap::new(),
            compiled: HashMap::new(),
            arena: sim::SimArena::new(),
            views: HashMap::new(),
            synth_ids: HashMap::new(),
        }
    }

    /// The target being tuned.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The configuration in use.
    pub fn config(&self) -> &TunerConfig {
        &self.config
    }

    fn point(&self, nodes: usize) -> &TunePoint {
        self.target.point(nodes)
    }

    /// The lower-bound ingredients at one node count.
    pub fn lower_bounds(&self, nodes: usize) -> LowerBounds {
        LowerBounds::new(&self.target.model, self.point(nodes).topology.as_ref())
    }

    /// The largest per-message block-list length in an algorithm's flat
    /// schedule: the number of pipeline chunks beyond which further
    /// segmentation is a no-op.
    fn max_message_blocks(&mut self, collective: Collective, name: &str, nodes: usize) -> usize {
        self.ensure_schedule(collective, name, nodes);
        self.schedules[&(collective, name.to_string(), nodes)]
            .steps
            .iter()
            .flat_map(|s| s.messages.iter())
            .map(|m| m.blocks.len())
            .max()
            .unwrap_or(1)
    }

    /// The (cached) topology view for one grid column, consumed by the
    /// synthesizers. Only derived for node counts inside the DES horizon:
    /// synthesized schedules are only trusted where the DES can judge them
    /// (and the O(p²) pairwise-route derivation stays affordable).
    pub fn view_for(&mut self, nodes: usize) -> Option<Arc<TopologyView>> {
        if nodes > self.config.des_max_nodes {
            return None;
        }
        if let Some(v) = self.views.get(&nodes) {
            return v.clone();
        }
        let point = self.target.point(nodes);
        let view = synth_view(point.topology.as_ref(), &point.allocation)
            .ok()
            .map(Arc::new);
        self.views.insert(nodes, view.clone());
        view
    }

    /// The synthesized candidates for one grid column (cached; the
    /// ForestColl tree-count search binary-searches bottleneck capacities,
    /// which is worth doing once per column, not once per vector size).
    fn synth_candidates(&mut self, collective: Collective, nodes: usize) -> Vec<AlgorithmId> {
        if !matches!(
            collective,
            Collective::Broadcast | Collective::Reduce | Collective::Allreduce
        ) {
            return Vec::new();
        }
        if let Some(ids) = self.synth_ids.get(&(collective, nodes)) {
            return ids.clone();
        }
        let ids = match self.view_for(nodes) {
            Some(view) => synth_algorithms(collective, &view),
            None => Vec::new(),
        };
        self.synth_ids.insert((collective, nodes), ids.clone());
        ids
    }

    /// The full candidate list for one grid point: the catalog plus the
    /// synthesized candidates for this column, lower-bound-sorted.
    fn point_candidates(
        &mut self,
        collective: Collective,
        nodes: usize,
        vector_bytes: u64,
        lbs: &LowerBounds,
    ) -> Vec<Candidate> {
        let extra = self.synth_candidates(collective, nodes);
        candidates_with(
            collective,
            nodes,
            vector_bytes,
            lbs,
            self.config.max_linear_nodes,
            &extra,
        )
    }

    fn ensure_schedule(&mut self, collective: Collective, name: &str, nodes: usize) {
        let key = (collective, name.to_string(), nodes);
        if self.schedules.contains_key(&key) {
            return;
        }
        let sched = if is_synth_name(split_segments(name).0) {
            let (base, chunks) = split_segments(name);
            let spec = SynthSpec::parse(base)
                .unwrap_or_else(|| panic!("malformed synthesized name {name}"));
            let view = self
                .view_for(nodes)
                .unwrap_or_else(|| panic!("no topology view for {name} at {nodes} nodes"));
            let sched = spec.synthesize(collective, &view, 0).unwrap_or_else(|| {
                panic!("{name} cannot be synthesized for {collective:?} at {nodes} nodes")
            });
            if chunks > 1 {
                sched.segmented(chunks)
            } else {
                sched
            }
        } else {
            build(collective, name, nodes, 0)
                .unwrap_or_else(|| panic!("unknown algorithm {name} for {collective:?}"))
        };
        self.schedules.insert(key, sched);
    }

    /// Scores one candidate (full tuned name, `+segS` suffix honoured)
    /// under the requested time model at one grid point.
    pub fn score(
        &mut self,
        collective: Collective,
        name: &str,
        nodes: usize,
        vector_bytes: u64,
        model: ScoreModel,
    ) -> f64 {
        match model {
            ScoreModel::Sync => {
                self.ensure_schedule(collective, name, nodes);
                let key = (collective, name.to_string(), nodes);
                let summary = self
                    .summaries
                    .entry(key.clone())
                    .or_insert_with(|| CostSummary::of(&self.schedules[&key]));
                let point = self.target.point(nodes);
                self.target
                    .model
                    .estimate_summary(
                        summary,
                        vector_bytes,
                        point.topology.as_ref(),
                        &point.allocation,
                    )
                    .total_us
            }
            ScoreModel::Des => {
                let (base, chunks) = split_segments(name);
                let key = (collective, base.to_string(), nodes, chunks);
                if !self.compiled.contains_key(&key) {
                    self.ensure_schedule(collective, base, nodes);
                    let compiled = self.schedules[&(collective, base.to_string(), nodes)]
                        .compile_segmented(chunks);
                    self.compiled.insert(key.clone(), compiled);
                }
                let compiled = &self.compiled[&key];
                // `Target::point` borrows only `self.target`, so the arena
                // can be borrowed mutably alongside the cached schedule.
                let point = self.target.point(nodes);
                sim::SimRequest::new(
                    &self.target.model,
                    compiled,
                    vector_bytes,
                    point.topology.as_ref(),
                    &point.allocation,
                )
                .arena(&mut self.arena)
                .time_only()
                .run()
                .makespan_us()
            }
        }
    }

    /// Stage-1 pruned sweep of one grid point: the synchronous-model winner
    /// and best non-Bine runner-up over the full catalog.
    pub fn sync_cell(
        &mut self,
        collective: Collective,
        nodes: usize,
        vector_bytes: u64,
    ) -> CellBest {
        let lbs = self.lower_bounds(nodes);
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

    /// The largest node count whose grid points get DES refinement for
    /// `collective` — [`TunerConfig::des_max_nodes`], tightened to
    /// [`TunerConfig::des_alltoall_max_nodes`] for the quadratic alltoall.
    pub fn des_node_cap(&self, collective: Collective) -> usize {
        match collective {
            Collective::Alltoall => self
                .config
                .des_max_nodes
                .min(self.config.des_alltoall_max_nodes),
            _ => self.config.des_max_nodes,
        }
    }

    /// Tunes one grid point into its decision-table entry.
    pub fn tune_point(&mut self, collective: Collective, nodes: usize, vector_bytes: u64) -> Entry {
        let lbs = self.lower_bounds(nodes);
        let cands = self.point_candidates(collective, nodes, vector_bytes, &lbs);
        let prune = self.config.prune;

        // Stage 1: synchronous sweep over the whole catalog (records every
        // scored candidate for the top-K selection below). At DES-eligible
        // points the prune threshold is the K-th best score seen, not the
        // best: a candidate that cannot win stage 1 may still belong to the
        // stage-2 top-K, and pruning must never change what stage 2 sees —
        // that is what keeps pruned and exhaustive runs byte-identical.
        let des_eligible = nodes <= self.des_node_cap(collective);
        let mut scored: Vec<(usize, f64)> = Vec::new(); // (cands index, score)
        let mut top_scores: Vec<f64> = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in cands.iter().enumerate() {
            let threshold = if des_eligible {
                if top_scores.len() < self.config.des_top_k {
                    f64::INFINITY
                } else {
                    top_scores[self.config.des_top_k - 1]
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
            top_scores.truncate(self.config.des_top_k);
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
        for &(i, _) in scored.iter().take(self.config.des_top_k) {
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
            if vector_bytes < self.config.min_segment_bytes {
                continue;
            }
            // Segment counts beyond the largest per-message block list
            // collapse onto the same schedule (single-block messages are
            // unsplittable), so only distinct effective counts are
            // simulated.
            let cap = self.max_message_blocks(collective, name, nodes);
            let mut effective: Vec<usize> = self
                .config
                .segment_counts
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

    /// Tunes one irregular (v-variant) grid point: every applicable
    /// [`IrregularAlg`] is built with `dist`'s synthetic counts (root 0,
    /// heavy rank 0 — the placement the harness evaluates) and scored flat
    /// with the synchronous model; the argmin becomes the entry.
    ///
    /// Deliberately **unpruned** and synchronous-only: the catalog's cheap
    /// lower bounds assume equal per-rank counts, which skewed
    /// distributions violate (a one-heavy gatherv moves `n` bytes over one
    /// edge per tree level, nothing like `n/p` per rank), so a bound-driven
    /// skip could silently change an argmin. The candidate sets are tiny
    /// (2–3 algorithms), which keeps the exhaustive sweep cheap.
    pub fn tune_irregular_point(
        &mut self,
        collective: Collective,
        dist: SizeDist,
        nodes: usize,
        vector_bytes: u64,
    ) -> Entry {
        let built = self.irregular_candidates(collective, dist, nodes);
        self.score_irregular(collective, dist, nodes, vector_bytes, &built)
    }

    /// Scores pre-built irregular candidates at one vector size and returns
    /// the argmin entry (ties resolve by candidate order, exactly as the
    /// regular sweep resolves them by catalog order).
    fn score_irregular(
        &self,
        collective: Collective,
        dist: SizeDist,
        nodes: usize,
        vector_bytes: u64,
        built: &[(IrregularAlg, CostSummary)],
    ) -> Entry {
        let point = self.target.point(nodes);
        let mut best: Option<(&'static str, f64)> = None;
        for (alg, summary) in built {
            let t = self
                .target
                .model
                .estimate_summary(
                    summary,
                    vector_bytes,
                    point.topology.as_ref(),
                    &point.allocation,
                )
                .total_us;
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((alg.name(), t));
            }
        }
        let (pick, time_us) = best.expect("every v-variant collective has candidates");
        Entry {
            collective,
            dist: Some(dist),
            nodes,
            vector_bytes,
            pick: pick.to_string(),
            model: ScoreModel::Sync,
            time_us,
        }
    }

    /// Builds the irregular candidate schedules of one
    /// `(collective, dist, nodes)` cell and summarises each for repeated
    /// per-size scoring (the schedule itself is dropped immediately — the
    /// synchronous model reads nothing a [`CostSummary`] does not carry).
    /// The linear-step ring is excluded above
    /// [`TunerConfig::max_linear_nodes`], mirroring the regular sweep.
    fn irregular_candidates(
        &mut self,
        collective: Collective,
        dist: SizeDist,
        nodes: usize,
    ) -> Vec<(IrregularAlg, CostSummary)> {
        let counts = dist.counts(nodes, 0);
        irregular_algorithms(collective)
            .into_iter()
            .filter(|&alg| alg != IrregularAlg::Ring || nodes <= self.config.max_linear_nodes)
            .map(|alg| {
                let sched = build_irregular(collective, alg.name(), nodes, 0, &counts)
                    .expect("catalog algorithm builds for its own collective");
                (alg, CostSummary::of(&sched))
            })
            .collect()
    }

    /// Sweeps the irregular grids of every tunable v-variant collective in
    /// the target: `(collective, dist, nodes, bytes)` with `dist` ranging
    /// over [`SizeDist::ALL`]. Candidate schedules live only for the sizes
    /// loop of one `(collective, dist, nodes)` cell, bounding peak memory.
    pub fn tune_irregular(&mut self) -> Vec<Entry> {
        let collectives: Vec<Collective> = self
            .target
            .collectives
            .iter()
            .copied()
            .filter(|c| IRREGULAR_COLLECTIVES.contains(c))
            .collect();
        let node_counts: Vec<usize> = self.target.points.iter().map(|p| p.nodes).collect();
        let sizes = self.target.vector_sizes.clone();
        let mut entries = Vec::new();
        for &collective in &collectives {
            for &nodes in &node_counts {
                for dist in SizeDist::ALL {
                    let built = self.irregular_candidates(collective, dist, nodes);
                    for &n in &sizes {
                        entries.push(self.score_irregular(collective, dist, nodes, n, &built));
                    }
                }
            }
        }
        entries
    }

    /// Tunes the full grid into a decision table: the regular
    /// `(collective, nodes, bytes)` grid of every target collective plus
    /// the irregular `(collective, dist, nodes, bytes)` grids of the
    /// v-variant collectives among them. Schedule caches are dropped
    /// between collectives to bound peak memory on the largest systems,
    /// exactly as the benchmark runner does.
    pub fn tune(&mut self) -> DecisionTable {
        let collectives = self.target.collectives.clone();
        let node_counts: Vec<usize> = self.target.points.iter().map(|p| p.nodes).collect();
        let sizes = self.target.vector_sizes.clone();
        let mut entries = Vec::new();
        for &collective in &collectives {
            for &nodes in &node_counts {
                for &n in &sizes {
                    entries.push(self.tune_point(collective, nodes, n));
                }
            }
            self.schedules.clear();
            self.summaries.clear();
            self.compiled.clear();
            self.arena.clear();
        }
        entries.extend(self.tune_irregular());
        let mut table = DecisionTable {
            system: self.target.system.clone(),
            entries,
        };
        table.sort();
        table
    }
}

/// The catalog name of a pick: `name` for one segment, `name+segS`
/// otherwise.
pub fn tuned_name(base: &str, segments: usize) -> String {
    if segments > 1 {
        format!("{base}+seg{segments}")
    } else {
        base.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bine_net::topology::IdealFullMesh;

    fn target(node_counts: &[usize]) -> Target {
        Target {
            system: "Irrbox".into(),
            model: CostModel::default(),
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
            let alg = IrregularAlg::from_name(&e.pick)
                .unwrap_or_else(|| panic!("{} is not an irregular algorithm", e.pick));
            assert!(
                irregular_algorithms(e.collective).contains(&alg),
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
