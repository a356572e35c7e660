//! From a schedule to a modelled time: the one owner of *what does the
//! algorithm named A cost for collective C at p nodes and n bytes on this
//! system* — the primitive under the offline tuner, the paper harness and
//! the sweeps of `bine-bench`.
//!
//! A [`Scorer`] is a cost model, the system's [`ProviderSet`] (name →
//! schedule), the grid's [`TunePoint`]s (node count → topology + placement)
//! and one set of caches keyed `(collective, size distribution, name,
//! nodes)`:
//!
//! * a [`CostSummary`] per name — all the synchronous model reads. The
//!   schedule it summarises is **dropped as soon as it is summarised**, so a
//!   synchronous sweep never retains a p²-block schedule;
//! * a base [`Schedule`] per name, kept only for what needs one: lowering
//!   for the discrete-event simulator and global-traffic accounting;
//! * a [`CompiledSchedule`] per `name+segS`, with one [`SimArena`] behind
//!   every simulation.
//!
//! Every answer is bit-identical to the uncached computation:
//! [`CostModel::time_us`] on a freshly built schedule, a fresh-arena
//! [`SimRequest`] on its `compile_segmented(S)` (`tests/score.rs`).

use std::collections::HashMap;

use bine_net::allocation::Allocation;
use bine_net::cost::{CostModel, CostSummary, LowerBounds};
use bine_net::sim::{SimArena, SimRequest};
use bine_net::topology::Topology;
use bine_net::traffic;
use bine_sched::{
    build_irregular, split_segments, Collective, CompiledSchedule, ProviderSet, Schedule, SizeDist,
};

use crate::table::ScoreModel;

/// One node count of a grid: the topology hosting the job and the
/// rank→node placement, exactly as the benchmark harness evaluates it.
pub struct TunePoint {
    /// Number of job nodes (= schedule ranks; one rank per node).
    pub nodes: usize,
    /// The topology hosting the job.
    pub topology: Box<dyn Topology>,
    /// The job's rank→node placement. Ranks must occupy distinct nodes
    /// (the lower bounds assume every network message crosses a link).
    pub allocation: Allocation,
}

/// Cache key: `(collective, size distribution, name, nodes)`. Summaries and
/// compiled forms are keyed by the full `name+segS`, retained schedules by
/// the base name (every segmentation lowers from the same base).
type Key = (Collective, Option<SizeDist>, String, usize);

/// See the [module docs](self).
pub struct Scorer {
    model: CostModel,
    providers: ProviderSet,
    points: Vec<TunePoint>,
    summaries: HashMap<Key, CostSummary>,
    schedules: HashMap<Key, Schedule>,
    compiled: HashMap<Key, CompiledSchedule>,
    arena: SimArena,
}

fn point_of(points: &[TunePoint], nodes: usize) -> &TunePoint {
    points
        .iter()
        .find(|p| p.nodes == nodes)
        .unwrap_or_else(|| panic!("no grid point for {nodes} nodes"))
}

impl Scorer {
    /// A scorer over `points` (any order; more can be added with
    /// [`Scorer::add_point`]), building names through `providers`.
    pub fn new(model: CostModel, providers: ProviderSet, points: Vec<TunePoint>) -> Self {
        Self {
            model,
            providers,
            points,
            summaries: HashMap::new(),
            schedules: HashMap::new(),
            compiled: HashMap::new(),
            arena: SimArena::new(),
        }
    }

    /// The cost model both score models share.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The provider set names are built through.
    pub fn providers(&self) -> &ProviderSet {
        &self.providers
    }

    /// The grid points, in insertion order.
    pub fn points(&self) -> &[TunePoint] {
        &self.points
    }

    /// Whether the grid has a point for `nodes`.
    pub fn has_point(&self, nodes: usize) -> bool {
        self.points.iter().any(|p| p.nodes == nodes)
    }

    /// Adds a grid point (callers that discover node counts lazily).
    pub fn add_point(&mut self, point: TunePoint) {
        self.points.push(point);
    }

    /// The lower-bound ingredients at one node count.
    ///
    /// # Panics
    /// Here and in every method below: if the grid has no point for `nodes`.
    pub fn lower_bounds(&self, nodes: usize) -> LowerBounds {
        LowerBounds::new(&self.model, point_of(&self.points, nodes).topology.as_ref())
    }

    /// Builds the schedule of base name `base` at `nodes` ranks (root 0):
    /// through the provider set, or — under a size distribution — the
    /// v-variant builder with `dist`'s counts (heavy rank 0, the placement
    /// the harness evaluates).
    fn build(
        &self,
        collective: Collective,
        dist: Option<SizeDist>,
        base: &str,
        nodes: usize,
    ) -> Option<Schedule> {
        match dist {
            None => Some(self.providers.build_base(collective, base, nodes, 0)?.0),
            Some(dist) if nodes > 0 => {
                build_irregular(collective, base, nodes, 0, &dist.counts(nodes, 0))
            }
            Some(_) => None,
        }
    }

    /// Retains the base schedule of `name` (its `+segS` suffix ignored),
    /// building it on first use, and returns its key in `self.schedules`.
    fn retain(
        &mut self,
        collective: Collective,
        dist: Option<SizeDist>,
        name: &str,
        nodes: usize,
    ) -> Option<Key> {
        let base = split_segments(name).0;
        let key = (collective, dist, base.to_string(), nodes);
        if !self.schedules.contains_key(&key) {
            let sched = self.build(collective, dist, base, nodes)?;
            self.schedules.insert(key.clone(), sched);
        }
        Some(key)
    }

    /// Summarises the schedule `name` names — from the retained base when
    /// one exists, otherwise from a fresh build that is dropped on return.
    fn summarise(
        &self,
        collective: Collective,
        dist: Option<SizeDist>,
        name: &str,
        nodes: usize,
    ) -> Option<CostSummary> {
        let (base, chunks) = split_segments(name);
        let built;
        let sched = match self
            .schedules
            .get(&(collective, dist, base.to_string(), nodes))
        {
            Some(retained) => retained,
            None => {
                built = self.build(collective, dist, base, nodes)?;
                &built
            }
        };
        Some(if chunks > 1 {
            CostSummary::of(&sched.segmented(chunks))
        } else {
            CostSummary::of(sched)
        })
    }

    /// Scores one candidate (full name, `+segS` suffix honoured) at one
    /// grid point: [`ScoreModel::Sync`] is the synchronous barrier model on
    /// the segmented schedule, [`ScoreModel::Des`] the discrete-event
    /// makespan of its one-pass lowering. `dist` selects the v-variant
    /// builders. `None` when the name is unknown for `collective` or does
    /// not build at `nodes` ranks.
    pub fn score(
        &mut self,
        collective: Collective,
        dist: Option<SizeDist>,
        name: &str,
        nodes: usize,
        vector_bytes: u64,
        model: ScoreModel,
    ) -> Option<f64> {
        let key = (collective, dist, name.to_string(), nodes);
        match model {
            ScoreModel::Sync => {
                if !self.summaries.contains_key(&key) {
                    let summary = self.summarise(collective, dist, name, nodes)?;
                    self.summaries.insert(key.clone(), summary);
                }
                let point = point_of(&self.points, nodes);
                let (topo, alloc) = (point.topology.as_ref(), &point.allocation);
                let summary = &self.summaries[&key];
                let estimate = self
                    .model
                    .estimate_summary(summary, vector_bytes, topo, alloc);
                Some(estimate.total_us)
            }
            ScoreModel::Des => {
                if !self.compiled.contains_key(&key) {
                    let base = self.retain(collective, dist, name, nodes)?;
                    let compiled = self.schedules[&base].compile_segmented(split_segments(name).1);
                    self.compiled.insert(key.clone(), compiled);
                }
                let point = point_of(&self.points, nodes);
                let (topo, alloc) = (point.topology.as_ref(), &point.allocation);
                let compiled = &self.compiled[&key];
                let run = SimRequest::new(&self.model, compiled, vector_bytes, topo, alloc)
                    .arena(&mut self.arena)
                    .time_only()
                    .run();
                Some(run.makespan_us())
            }
        }
    }

    /// The largest per-message block-list length of `name`'s flat schedule:
    /// the number of pipeline chunks beyond which further segmentation is a
    /// no-op. Retains the schedule — this is asked on the way to lowering it.
    pub fn max_message_blocks(
        &mut self,
        collective: Collective,
        dist: Option<SizeDist>,
        name: &str,
        nodes: usize,
    ) -> Option<usize> {
        let base = self.retain(collective, dist, name, nodes)?;
        let lengths = self.schedules[&base]
            .messages()
            .map(|(_, m)| m.blocks.len());
        Some(lengths.max().unwrap_or(1))
    }

    /// Bytes the schedule `name` names sends across group boundaries at
    /// this grid point (the paper's locality metric). Retains the schedule.
    /// Segmentation moves the same bytes over the same links, so a `+segS`
    /// name is measured on its base schedule.
    pub fn global_bytes(
        &mut self,
        collective: Collective,
        dist: Option<SizeDist>,
        name: &str,
        nodes: usize,
        vector_bytes: u64,
    ) -> Option<u64> {
        let base = self.retain(collective, dist, name, nodes)?;
        let base = &self.schedules[&base];
        let point = point_of(&self.points, nodes);
        let (topo, alloc) = (point.topology.as_ref(), &point.allocation);
        Some(traffic::global_bytes(base, vector_bytes, topo, alloc))
    }

    /// `(summaries, retained schedules, compiled schedules)` currently
    /// cached — the memory rule made observable: a synchronous-only sweep
    /// reads `(n, 0, 0)`.
    pub fn cached(&self) -> (usize, usize, usize) {
        (
            self.summaries.len(),
            self.schedules.len(),
            self.compiled.len(),
        )
    }

    /// Forgets every cached summary, schedule, compiled form and the
    /// simulator's per-schedule state (between collectives of a large
    /// sweep, to bound peak memory). Points and providers stay.
    pub fn clear(&mut self) {
        self.summaries.clear();
        self.schedules.clear();
        self.compiled.clear();
        self.arena.clear();
    }
}
