//! The one entry point, [`SimRequest`], and what a run returns.

use bine_sched::{CompiledSchedule, CompletionReport, ScheduleValidator};

use super::{optimized, reference, SimArena};
use crate::allocation::Allocation;
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::topology::Topology;

/// Outcome of simulating one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated makespan in microseconds: the time the last write (receive,
    /// reduction or local move) completes.
    pub makespan_us: f64,
    /// Per-rank completion time of the rank's last simulated event.
    pub rank_finish_us: Vec<f64>,
    /// Number of network messages simulated (local moves excluded).
    pub network_messages: u64,
    /// Bytes of the network messages whose endpoints are in different
    /// groups, once per message — Fig. 1's count, as
    /// [`TrafficReport::global_bytes`](crate::traffic::TrafficReport::global_bytes).
    /// This and the link totals count a message when its flow completes.
    pub global_bytes: u64,
    /// Bytes · links offered to local-class links, as
    /// [`TrafficReport::local_link_bytes`](crate::traffic::TrafficReport::local_link_bytes).
    pub local_link_bytes: u64,
    /// Bytes · links offered to global-class links, as
    /// [`TrafficReport::global_link_bytes`](crate::traffic::TrafficReport::global_link_bytes).
    pub global_link_bytes: u64,
    /// Largest number of flows ever in flight at once — `> 1` per link is
    /// what the synchronous model's per-step congestion term approximates.
    pub peak_active_flows: usize,
}

/// Observer of every fair-share recomputation: invoked with the simulation
/// clock and the `(send, rate)` pair of every in-flight flow each time rates
/// are (re)assigned. Used by the property tests to pin the incremental fast
/// path to the reference at *every* rate event, not just at completion.
pub type RateProbe<'a> = &'a mut dyn FnMut(f64, &[(u32, f64)]);

/// What both implementations simulate: a request's five mandatory inputs
/// and its fault plan (the zero plan when none was injected).
#[derive(Clone, Copy)]
pub(super) struct Inputs<'a> {
    pub(super) model: &'a CostModel,
    pub(super) schedule: &'a CompiledSchedule,
    pub(super) n: u64,
    pub(super) topo: &'a dyn Topology,
    pub(super) alloc: &'a Allocation,
    pub(super) plan: &'a FaultPlan,
}

impl Inputs<'_> {
    /// Whether a message from rank `src` to rank `dst` crosses a group
    /// boundary (the test [`crate::traffic`] counts global bytes by).
    pub(super) fn crosses_groups(&self, src: u32, dst: u32) -> bool {
        let node = |rank: u32| self.alloc.node_of(rank as usize);
        self.topo.crosses_groups(node(src), node(dst))
    }
}

/// The one entry point to the simulator: a builder over every axis a run
/// can vary.
///
/// A request always names the five mandatory inputs — cost model, compiled
/// schedule, vector size, topology, allocation — and opts into the rest:
///
/// * [`SimRequest::faults`] — inject a [`FaultPlan`] (degraded links,
///   latency spikes, stragglers);
/// * [`SimRequest::probe`] — observe every fair-share recomputation through
///   a [`RateProbe`];
/// * [`SimRequest::arena`] — reuse a caller-owned [`SimArena`] so repeated
///   runs allocate nothing after warmup;
/// * [`SimRequest::time_only`] — skip building the [`SimReport`] (the fully
///   allocation-free hot path for sweeps);
/// * [`SimRequest::reference`] — run the executable-specification reference
///   implementation instead of the optimized fast path.
///
/// ```
/// use bine_net::allocation::Allocation;
/// use bine_net::sim::{SimArena, SimRequest};
/// use bine_net::cost::CostModel;
/// use bine_net::topology::IdealFullMesh;
/// use bine_sched::collectives::{allreduce, AllreduceAlg};
///
/// let topo = IdealFullMesh::new(8);
/// let alloc = Allocation::block(8);
/// let model = CostModel::default();
/// let compiled = allreduce(8, AllreduceAlg::RecursiveDoubling).compile();
///
/// // Full report, fresh scratch.
/// let report = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
///     .run()
///     .into_report();
///
/// // Makespan only, arena-backed: the hot shape for sweeps.
/// let mut arena = SimArena::new();
/// let t = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
///     .arena(&mut arena)
///     .time_only()
///     .run()
///     .makespan_us();
/// assert_eq!(t.to_bits(), report.makespan_us.to_bits());
/// ```
pub struct SimRequest<'a> {
    model: &'a CostModel,
    schedule: &'a CompiledSchedule,
    n: u64,
    topo: &'a dyn Topology,
    alloc: &'a Allocation,
    faults: Option<&'a FaultPlan>,
    probe: Option<RateProbe<'a>>,
    arena: Option<&'a mut SimArena>,
    time_only: bool,
    reference: bool,
}

/// Diagnosis of a simulation that reached quiescence with writes still
/// outstanding: a crash plan ([`crate::fault::RankCrash`] /
/// [`crate::fault::LinkDown`]) killed sends the rest of the schedule
/// depended on. Instead of hanging (or asserting, as a genuinely cyclic
/// schedule would), the simulator stops at the last event and hands the
/// refused sends to the schedule validator for a survivability verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Simulated time of the last event before quiescence.
    pub time_us: f64,
    /// Writes that completed before the stall.
    pub completed_writes: usize,
    /// Total writes in the schedule.
    pub total_writes: usize,
    /// Global send indices refused because an endpoint had crashed or a
    /// route link was severed when they became eligible, ascending.
    pub dropped_sends: Vec<u32>,
    /// The crashed ranks of the fault plan, ascending.
    pub dead_ranks: Vec<usize>,
    /// The validator's survivability verdict over the dropped sends: which
    /// ranks still satisfied their postcondition, which stalled, and the
    /// minimal stall cut of undeliverable receives.
    pub diagnosis: CompletionReport,
}

/// Outcome of a [`SimRequest`]: the completed simulation, or a typed stall
/// diagnosis when a crash plan prevented completion.
#[derive(Debug)]
pub enum SimOutcome {
    /// Every write of the schedule completed.
    Completed {
        /// Simulated makespan in microseconds.
        makespan_us: f64,
        /// The full report; `None` exactly for `.time_only()` requests.
        report: Option<SimReport>,
    },
    /// The simulation went quiescent with writes outstanding — only
    /// possible under a crash plan.
    Stalled(Box<StallReport>),
}

impl SimOutcome {
    /// The simulated makespan in microseconds.
    ///
    /// # Panics
    /// Panics when the simulation stalled under a crash plan; the message
    /// carries the stall diagnosis. Callers that inject crash faults should
    /// branch on [`SimOutcome::try_makespan`] or [`SimOutcome::stall`]
    /// instead.
    pub fn makespan_us(&self) -> f64 {
        match self {
            SimOutcome::Completed { makespan_us, .. } => *makespan_us,
            SimOutcome::Stalled(stall) => panic!(
                "simulation stalled at {:.3} us: {} of {} writes completed, \
                 {} sends dropped, {} ranks dead, {} receives undeliverable",
                stall.time_us,
                stall.completed_writes,
                stall.total_writes,
                stall.dropped_sends.len(),
                stall.dead_ranks.len(),
                stall.diagnosis.undeliverable.len(),
            ),
        }
    }

    /// The makespan, or `None` when the simulation stalled.
    pub fn try_makespan(&self) -> Option<f64> {
        match self {
            SimOutcome::Completed { makespan_us, .. } => Some(*makespan_us),
            SimOutcome::Stalled(_) => None,
        }
    }

    /// Whether the simulation stalled under a crash plan.
    pub fn is_stalled(&self) -> bool {
        matches!(self, SimOutcome::Stalled(_))
    }

    /// The stall diagnosis, when the simulation stalled.
    pub fn stall(&self) -> Option<&StallReport> {
        match self {
            SimOutcome::Completed { .. } => None,
            SimOutcome::Stalled(stall) => Some(stall),
        }
    }

    /// Unwraps the full report.
    ///
    /// # Panics
    /// Panics when the request was built with [`SimRequest::time_only`] — a
    /// time-only run never constructs a report — or when the simulation
    /// stalled (see [`SimOutcome::makespan_us`]).
    pub fn into_report(self) -> SimReport {
        match self {
            SimOutcome::Completed { report, .. } => {
                report.expect("a time_only() SimRequest produces no SimReport")
            }
            SimOutcome::Stalled(stall) => panic!(
                "simulation stalled at {:.3} us with {} of {} writes completed: no report",
                stall.time_us, stall.completed_writes, stall.total_writes,
            ),
        }
    }
}

/// Builds the [`StallReport`] for a run that went quiescent at `time_us`
/// with `completed_writes` done: sorts the refused sends and asks the
/// schedule validator which surviving ranks the stall actually reaches (the
/// wedge cascade over the remaining sends).
pub(super) fn stall_report(
    inputs: &Inputs<'_>,
    time_us: f64,
    completed_writes: usize,
    mut dropped_sends: Vec<u32>,
) -> Box<StallReport> {
    dropped_sends.sort_unstable();
    let schedule = inputs.schedule;
    let crashed = inputs.plan.crashed_ranks();
    let dead_ranks: Vec<usize> = crashed.filter(|&r| r < schedule.num_ranks).collect();
    let diagnosis =
        ScheduleValidator::new(schedule).completion_with_dropped(&dropped_sends, &dead_ranks);
    Box::new(StallReport {
        time_us,
        completed_writes,
        total_writes: schedule.num_sends(),
        dropped_sends,
        dead_ranks,
        diagnosis,
    })
}

impl<'a> SimRequest<'a> {
    /// A request over the five mandatory inputs: optimized path, no faults,
    /// no probe, fresh scratch, full report.
    pub fn new(
        model: &'a CostModel,
        schedule: &'a CompiledSchedule,
        n: u64,
        topo: &'a dyn Topology,
        alloc: &'a Allocation,
    ) -> SimRequest<'a> {
        SimRequest {
            model,
            schedule,
            n,
            topo,
            alloc,
            faults: None,
            probe: None,
            arena: None,
            time_only: false,
            reference: false,
        }
    }

    /// Injects a [`FaultPlan`]. A zero plan is bit-identical to no plan.
    pub fn faults(mut self, plan: &'a FaultPlan) -> SimRequest<'a> {
        self.faults = Some(plan);
        self
    }

    /// Installs a [`RateProbe`] invoked after every fair-share
    /// recomputation.
    pub fn probe(mut self, probe: RateProbe<'a>) -> SimRequest<'a> {
        self.probe = Some(probe);
        self
    }

    /// Runs over caller-owned scratch: repeated requests against one arena
    /// reuse its buffers and cached static resolution. Ignored by
    /// [`SimRequest::reference`] runs, which allocate per call by design.
    pub fn arena(mut self, arena: &'a mut SimArena) -> SimRequest<'a> {
        self.arena = Some(arena);
        self
    }

    /// Skips the [`SimReport`]: the outcome carries only the makespan.
    /// Combined with [`SimRequest::arena`] this is the fully
    /// allocation-free hot path (pinned by `tests/arena_alloc.rs`).
    pub fn time_only(mut self) -> SimRequest<'a> {
        self.time_only = true;
        self
    }

    /// Runs the reference implementation (the executable specification the
    /// optimized path is pinned bit-identical against) instead of the fast
    /// path.
    pub fn reference(mut self) -> SimRequest<'a> {
        self.reference = true;
        self
    }

    /// Runs the request. See the module docs for the simulation semantics.
    ///
    /// A crash plan that prevents completion yields
    /// [`SimOutcome::Stalled`] instead of hanging.
    ///
    /// # Panics
    /// Panics if the allocation has fewer ranks than the schedule. The event
    /// loop also asserts that it did not go quiescent with writes
    /// outstanding and no send dropped; that cannot fire, because every edge
    /// of a [`bine_sched::DepGraph`] points to a higher send index — for any
    /// [`CompiledSchedule`], not just the catalog's.
    pub fn run(self) -> SimOutcome {
        let zero_plan = FaultPlan::none();
        let inputs = Inputs {
            model: self.model,
            schedule: self.schedule,
            n: self.n,
            topo: self.topo,
            alloc: self.alloc,
            plan: self.faults.unwrap_or(&zero_plan),
        };
        let p = inputs.schedule.num_ranks;
        assert!(
            inputs.alloc.num_ranks() >= p,
            "allocation has {} ranks, schedule needs {p}",
            inputs.alloc.num_ranks()
        );
        let full = !self.time_only;
        if self.reference {
            return match reference::run(&inputs, self.probe) {
                Ok(report) => SimOutcome::Completed {
                    makespan_us: report.makespan_us,
                    report: full.then_some(report),
                },
                Err(stall) => SimOutcome::Stalled(stall),
            };
        }
        let mut fresh;
        let arena = match self.arena {
            Some(arena) => arena,
            None => {
                fresh = SimArena::new();
                &mut fresh
            }
        };
        match optimized::run(arena, &inputs, self.probe) {
            Ok(makespan_us) => SimOutcome::Completed {
                makespan_us,
                report: full.then(|| arena.report(makespan_us)),
            },
            Err(stall) => SimOutcome::Stalled(stall),
        }
    }
}
