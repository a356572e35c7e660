//! `model-sweep`: the researcher / tuner path, single-threaded. For each of
//! the five tuned systems at 64 nodes, each of the eight collectives and both
//! the Bine default and the binomial baseline: `build → compile → traffic →
//! cost model → DES at 1 MiB (route cache cold) → DES at 64 MiB (cache warm)`.
//!
//! Also home of [`paper_metrics`], the two exact end-to-end metrics every
//! workload reports over its own cells.

use bine_net::view::{system_allocation, system_topology, TUNING_PLACEMENT_SEED};
use bine_net::{traffic, Allocation, CostModel, SimArena, SimRequest, Topology};
use bine_sched::{bine_default, binomial_default, build, Collective, CompiledSchedule};

use super::{Cell, Kind, Shape, Workload};
use crate::stats::geomean;
use crate::trace::{span_if, Tracer};

const NODES: usize = 64;
const SMALL: u64 = 1 << 20;
const LARGE: u64 = 64 << 20;
const SYSTEMS: [&str; 5] = ["fugaku", "heterofat", "leonardo", "lumi", "marenostrum5"];

/// A job's view of one system: the topology model and the pinned placement
/// the committed decision tables were tuned under.
struct Placed {
    topo: Box<dyn Topology + Send + Sync>,
    alloc: Allocation,
}

fn place(slug: &str, nodes: usize) -> Result<Placed, String> {
    let topo = system_topology(slug, nodes).ok_or_else(|| format!("unknown system {slug}"))?;
    let alloc = system_allocation(slug, topo.as_ref(), nodes, TUNING_PLACEMENT_SEED);
    Ok(Placed { topo, alloc })
}

fn simulate(
    cost: &CostModel,
    compiled: &CompiledSchedule,
    bytes: u64,
    at: &Placed,
    arena: &mut SimArena,
) -> Result<f64, String> {
    SimRequest::new(cost, compiled, bytes, at.topo.as_ref(), &at.alloc)
        .arena(arena)
        .time_only()
        .run()
        .try_makespan()
        .ok_or_else(|| format!("{} stalled in the simulator", compiled.algorithm))
}

/// Everything one op computes; compared bit for bit between rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    sends: usize,
    steps: usize,
    global_bytes: u64,
    cost_us: f64,
    small_us: f64,
    large_us: f64,
}

struct Op {
    system: usize,
    collective: Collective,
    algorithm: &'static str,
}

pub struct Model {
    ops: Vec<Op>,
    placed: Vec<Placed>,
    cost: CostModel,
    arena: SimArena,
    first: Vec<Option<Outcome>>,
    last: Vec<Option<Outcome>>,
}

impl Model {
    pub fn new() -> Model {
        let mut ops = Vec::new();
        for system in 0..SYSTEMS.len() {
            for collective in Collective::ALL {
                for algorithm in [
                    bine_default(collective, false),
                    binomial_default(collective, false),
                ] {
                    ops.push(Op {
                        system,
                        collective,
                        algorithm,
                    });
                }
            }
        }
        let n = ops.len();
        Model {
            ops,
            placed: Vec::new(),
            cost: CostModel::default(),
            arena: SimArena::new(),
            first: vec![None; n],
            last: vec![None; n],
        }
    }

    /// One op: a schedule through both network models, under spans when a
    /// tracer is given.
    fn sweep_cell(&mut self, i: usize, mut t: Option<&mut Tracer>) -> Result<(), String> {
        let op = &self.ops[i];
        let at = &self.placed[op.system];
        let (cost, arena) = (&self.cost, &mut self.arena);
        let request = t.as_deref_mut().map(|t| t.begin("request"));
        let schedule = span_if(&mut t, "sched.build", || {
            build(op.collective, op.algorithm, NODES, 0)
        })
        .ok_or_else(|| format!("{} is not in the catalog", op.algorithm))?;
        let compiled = span_if(&mut t, "sched.compile", || schedule.compile());
        let global_bytes = span_if(&mut t, "net.traffic", || {
            traffic::measure(&schedule, SMALL, at.topo.as_ref(), &at.alloc).global_bytes
        });
        let cost_us = span_if(&mut t, "net.cost", || {
            cost.time_us(&schedule, SMALL, at.topo.as_ref(), &at.alloc)
        });
        // One arena for the whole sweep, as a tuner holds it; cleared per
        // schedule so the first simulation always misses its route cache.
        arena.clear();
        let small_us = span_if(&mut t, "net.sim_first", || {
            simulate(cost, &compiled, SMALL, at, arena)
        })?;
        let large_us = span_if(&mut t, "net.sim_repeat", || {
            simulate(cost, &compiled, LARGE, at, arena)
        })?;
        let (sends, steps) = (compiled.num_sends(), compiled.num_steps());
        span_if(&mut t, "sched.drop", || drop((schedule, compiled)));
        if let (Some(t), Some(request)) = (t, request) {
            t.end(request);
        }
        self.record(
            i,
            Outcome {
                sends,
                steps,
                global_bytes,
                cost_us,
                small_us,
                large_us,
            },
        )
    }

    fn record(&mut self, i: usize, outcome: Outcome) -> Result<(), String> {
        self.last[i] = Some(outcome);
        if *self.first[i].get_or_insert(outcome) != outcome {
            let op = &self.ops[i];
            return Err(format!(
                "{}/{}/{}: modelled results changed between rounds",
                SYSTEMS[op.system],
                op.collective.name(),
                op.algorithm
            ));
        }
        Ok(())
    }
}

impl Workload for Model {
    fn kind(&self) -> Kind {
        Kind::Model
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn cells(&self) -> Vec<Cell> {
        SYSTEMS
            .iter()
            .flat_map(|&slug| Collective::ALL.map(|c| (slug, c, NODES)))
            .collect()
    }

    fn setup(&mut self) -> Result<(), String> {
        self.placed = SYSTEMS
            .iter()
            .map(|slug| place(slug, NODES))
            .collect::<Result<_, _>>()?;
        self.arena = SimArena::new();
        Ok(())
    }

    fn op(&mut self, i: usize, _keep: bool) -> Result<(), String> {
        self.sweep_cell(i, None)
    }

    /// The same calls as the plain op, each under its span.
    fn op_traced(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        self.sweep_cell(i, Some(t))
    }

    fn check(&mut self, i: usize, warm: bool) -> Result<(), String> {
        let op = &self.ops[i];
        self.last[i].ok_or("op produced no outcome")?;
        // Optimized DES ≡ reference DES, bit for bit, once per run on the
        // LUMI allreduce cell (the reference is too slow for every cell).
        if warm && SYSTEMS[op.system] == "lumi" && op.collective == Collective::Allreduce {
            let at = &self.placed[op.system];
            let compiled = build(op.collective, op.algorithm, NODES, 0)
                .ok_or("not in the catalog")?
                .compile();
            let request =
                || SimRequest::new(&self.cost, &compiled, SMALL, at.topo.as_ref(), &at.alloc);
            let fast = request().time_only().run().try_makespan();
            let reference = request().reference().time_only().run().try_makespan();
            if fast.map(f64::to_bits) != reference.map(f64::to_bits) || fast.is_none() {
                return Err(format!(
                    "{}: optimized DES {fast:?} != reference DES {reference:?}",
                    op.algorithm
                ));
            }
        }
        Ok(())
    }

    fn shape(&self) -> Shape {
        let mut total = Shape::default();
        for outcome in self.last.iter().flatten() {
            // Each schedule is simulated twice.
            total.sends += 2 * outcome.sends as u64;
            total.steps += 2 * outcome.steps as u64;
            total.makespan_us_sum += outcome.small_us + outcome.large_us;
            total.global_bytes_sum += outcome.global_bytes;
        }
        total
    }
}

/// The paper's two headline numbers over `cells`, Bine default against
/// binomial baseline at 1 MiB under the pinned tuning placement:
///
/// * mean over cells of `1 − global_bytes(bine) ÷ global_bytes(binomial)`,
///   in percent (a cell whose baseline crosses no group boundary counts 0);
/// * geometric mean over cells of DES makespan `binomial ÷ bine`.
///
/// Both are simulated, so they repeat exactly.
pub fn paper_metrics(cells: &[Cell]) -> Result<(f64, f64), String> {
    let cost = CostModel::default();
    let mut arena = SimArena::new();
    let mut reductions = Vec::new();
    let mut speedups = Vec::new();
    for &(slug, collective, nodes) in cells {
        let at = place(slug, nodes)?;
        let mut measure = |algorithm: &str| -> Result<(u64, f64), String> {
            let schedule = build(collective, algorithm, nodes, 0)
                .ok_or_else(|| format!("{algorithm} is not in the catalog"))?;
            let global =
                traffic::measure(&schedule, SMALL, at.topo.as_ref(), &at.alloc).global_bytes;
            arena.clear();
            let makespan = simulate(&cost, &schedule.compile(), SMALL, &at, &mut arena)?;
            Ok((global, makespan))
        };
        let (bine_bytes, bine_us) = measure(bine_default(collective, false))?;
        let (base_bytes, base_us) = measure(binomial_default(collective, false))?;
        reductions.push(if base_bytes == 0 {
            0.0
        } else {
            1.0 - bine_bytes as f64 / base_bytes as f64
        });
        speedups.push(base_us / bine_us);
    }
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    Ok((mean * 100.0, geomean(&speedups)))
}
