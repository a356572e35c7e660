//! The five workloads behind one trait. A *round* runs every op of the
//! workload once; the harness (`run.rs`) owns the clocks, the shuffling, the
//! panic isolation and the statistics, a workload only knows how to set the
//! library up, perform one op (plain or stage by stage under spans) and check
//! what came out.

mod cold;
mod model;
mod serve;

use bine_sched::{Collective, Schedule};
use bine_tune::{tuned_name, ServiceSelector};

use crate::trace::Tracer;

pub use model::paper_metrics;

/// The system the serving workloads run against.
pub const SYSTEM: &str = "lumi";

/// One regular `(collective, nodes, bytes)` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub collective: Collective,
    pub nodes: usize,
    pub bytes: u64,
}

/// A `(system slug, collective, nodes)` cell of the locality metrics.
pub type Cell = (&'static str, Collective, usize);

/// Serving-layer counters at the end of a run (zero where a workload has no
/// selector).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub compilations: u64,
    pub fallbacks: u64,
}

impl Counters {
    fn of(selector: Option<&ServiceSelector>) -> Counters {
        selector.map_or_else(Counters::default, |s| Counters {
            hits: s.hits(),
            misses: s.misses(),
            compilations: s.compilations(),
            fallbacks: s.fallbacks(),
        })
    }
}

/// Exact per-round work counts, from the compiled schedules the ops ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shape {
    pub sends: u64,
    pub steps: u64,
    /// Computed bytes of `Reduce`-kind receives (array sizes, not measured
    /// memory traffic).
    pub reduce_bytes: u64,
    /// Sum over the model ops of both simulated makespans (µs).
    pub makespan_us_sum: f64,
    /// Sum over the model ops of the bytes crossing group boundaries.
    pub global_bytes_sum: u64,
}

/// What an op of a workload is, for the metrics that only exist on one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm `execute_on`: every lookup must hit, a fallback is a hard error.
    Serving,
    /// Every lookup is a cache miss; nothing executes.
    Cold,
    /// No selector at all: schedules go straight to the network models.
    Model,
}

pub trait Workload {
    fn kind(&self) -> Kind;

    /// Ops per round.
    fn ops(&self) -> usize;

    /// The cells `global_traffic_reduction_pct` and
    /// `modelled_speedup_geomean` are averaged over: the regular
    /// `(system, collective, nodes)` combinations this workload exercises.
    fn cells(&self) -> Vec<Cell>;

    /// What a user pays before the first request, warm round excluded (the
    /// harness runs that): table load, selector / topology construction.
    /// Called several times per run; each call starts from nothing.
    fn setup(&mut self) -> Result<(), String>;

    /// Untimed: hands op `i` its input for the coming round.
    fn stage(&mut self, _i: usize) {}

    /// Timed work at the start of every round that belongs to no single op.
    fn round_start(&mut self, _tracer: Option<&mut Tracer>) -> Result<(), String> {
        Ok(())
    }

    /// Performs op `i` through the library's request path. With `keep` the
    /// result is retained for [`Workload::check`]; otherwise it is dropped
    /// here, inside the round clock, as a caller consuming it would.
    fn op(&mut self, i: usize, keep: bool) -> Result<(), String>;

    /// Replays op `i` stage by stage through the public functions the
    /// request path is made of, one span per stage under a `request` span.
    fn op_traced(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), String>;

    /// Checks the result op `i` retained. `warm` marks the first round of
    /// the run, which gets the expensive checks (reference interpreter,
    /// reference simulator).
    fn check(&mut self, i: usize, warm: bool) -> Result<(), String>;

    fn counters(&self) -> Counters {
        Counters::default()
    }

    fn shape(&self) -> Shape;
}

/// Builds the named workload and generates its inputs (harness time, not
/// set-up time).
pub fn build(name: &str) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve-latency" => Box::new(serve::Serve::latency()?),
        "exec-reduce" => Box::new(serve::Serve::reduce()?),
        "exec-move" => Box::new(serve::Serve::moving()?),
        "serve-cold" => Box::new(cold::Cold::new()),
        "model-sweep" => Box::new(model::Model::new()),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

/// The schedule the committed pick for `r` resolves to, built the way the
/// serving layer builds it on a miss: through the system's provider set.
fn tuned_schedule(
    selector: &ServiceSelector,
    system: usize,
    r: Request,
) -> Result<Schedule, String> {
    let pick = selector
        .choose_at(system, r.collective, r.nodes, r.bytes)
        .ok_or_else(|| format!("no pick for {r:?}"))?;
    let name = tuned_name(pick.algorithm, pick.segments);
    selector
        .index(system)
        .ok_or("system index out of range")?
        .providers()
        .build(r.collective, &name, r.nodes, 0)
        .ok_or_else(|| format!("pick {name} of {r:?} is not buildable"))
}

/// The cross product `collectives × nodes × bytes`, collective-major.
pub fn grid(collectives: &[Collective], nodes: &[usize], bytes: &[u64]) -> Vec<Request> {
    let mut out = Vec::new();
    for &collective in collectives {
        for &nodes in nodes {
            for &bytes in bytes {
                out.push(Request {
                    collective,
                    nodes,
                    bytes,
                });
            }
        }
    }
    out
}

/// Distinct `(SYSTEM, collective, nodes)` cells of a request list, in first
/// occurrence order.
fn cells_of(requests: impl Iterator<Item = Request>) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    for r in requests {
        let cell = (SYSTEM, r.collective, r.nodes);
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    cells
}
