//! Discrete-event, flow-level simulation of compiled schedules.
//!
//! The synchronous [`CostModel`] charges every step
//! as a global barrier: each step lasts as long as its slowest message, and
//! the schedule time is the sum of its steps. That cannot express *skew*
//! (one slow rank delaying only its dependents), *overlap* (a rank
//! forwarding data while later data is still arriving) or *pipelining*
//! (segmented schedules, see `bine_sched::segment`) — exactly the effects
//! that move algorithm crossover points at mid message sizes.
//!
//! This module simulates a [`CompiledSchedule`] event by event instead:
//!
//! * **per-rank dependency tracking** — every send is statically annotated
//!   with the set of earlier-step writes (receives, reductions, local moves)
//!   into the blocks it carries at its sender; it becomes eligible the
//!   moment those writes land, *not* at a global barrier. Writes to the same
//!   block are chained — a reduce target accumulates one contribution per
//!   step, and a later write only counts as landed once every earlier one
//!   has — so waiting for the latest write transitively waits for them all.
//!   Within one rank sends still issue in schedule order through a single
//!   send port (single-ported model, matching `Schedule::validate`).
//! * **per-link fair-share bandwidth** — concurrently active flows divide
//!   link capacity max–min fairly (progressive filling), recomputed at every
//!   flow arrival/completion, so congestion emerges from overlap instead of
//!   being charged per synchronous step.
//! * **the same cost parameters** as the synchronous model: `alpha_us` +
//!   per-extra-segment overhead + per-link latency per message, payload
//!   serialisation against link bandwidth, local copies against the copy
//!   bandwidth, and reductions against the reduce bandwidth (serialised per
//!   receiving rank).
//!
//! In the **one-segment, congestion-free limit** (every flow alone on its
//! links, e.g. on [`crate::topology::IdealFullMesh`]) the simulator
//! reproduces the synchronous model exactly — this is property-tested in
//! `tests/proptests.rs` — while segmented schedules on real topologies
//! overlap chunk *c + 1*'s transfer with chunk *c*'s forwarding and come out
//! faster than the barrier model predicts.
//!
//! ## One entry point: [`SimRequest`]
//!
//! Every way to run the simulator goes through the [`SimRequest`] builder:
//! `SimRequest::new(model, schedule, n, topo, alloc)` plus any of
//! `.faults(&plan)`, `.probe(&mut probe)`, `.arena(&mut arena)`,
//! `.time_only()` and `.reference()`.
//!
//! ## Two implementations, one semantics
//!
//! [`SimRequest::reference`] selects the executable specification: it
//! recomputes the whole max–min fair share from scratch (fresh `BTreeMap`s
//! per rate event) at every flow arrival and completion, and allocates all
//! of its scratch per call. It is kept deliberately simple — and slow.
//!
//! The default is the optimized fast path used by every sweep (tuning,
//! benchmarks, figures):
//!
//! * **incremental fair share** — a flow arrival or completion only dirties
//!   the links it traverses; the affected *component* (flows transitively
//!   sharing links with a dirtied link) is recomputed by the same
//!   progressive-filling loop restricted to that component, over flat
//!   `Vec`-indexed link→flow adjacency maintained across events. Flows in
//!   untouched components keep their previous rates. Progressive filling is
//!   separable across link-disjoint components — fixing a flow never changes
//!   the headroom or open-flow count of a link it does not traverse, and
//!   water-filling levels are non-decreasing, so the restricted loop performs
//!   the *identical* float operations in the identical order the global
//!   recomputation would. The fast path is pinned **bit-identical** to the
//!   reference (makespans, per-rank finish times and every intermediate
//!   rate) by property tests across all collectives × algorithms ×
//!   topologies.
//! * **arena-backed state** — all per-simulation scratch lives in a
//!   caller-owned [`SimArena`], so repeated simulations (a tuning sweep runs
//!   thousands) allocate nothing after warmup. Pinned by a
//!   counting-global-allocator test (`tests/arena_alloc.rs`).
//! * **cached static resolution** — per-flow route link lists, summed
//!   latencies and the static dependency analysis depend only on
//!   (schedule, topology, allocation, cost model), not on the vector size,
//!   and are cached in the arena keyed by [`CompiledSchedule::identity`].
//!   A sweep over vector sizes re-resolves only the per-send byte counts.
//!
//! ## Fault injection
//!
//! Both implementations accept an optional [`FaultPlan`] (see
//! [`crate::fault`]): per-link bandwidth factors scale the capacities fed to
//! the fair share, per-link latency spikes add to the summed message
//! latency, and per-rank compute slowdowns divide the copy and reduce
//! bandwidths. The plan is applied through bit-exact IEEE 754 identities, so
//! a zero-fault plan simulates **bit-identically** to no plan, and the
//! optimized path stays pinned to the reference under faults — asymmetric
//! link capacities are exactly what stresses the incremental fair-share
//! rebuild.
//!
//! ## Crash faults and stall diagnosis
//!
//! A plan may also carry **crash faults**: `RankCrash { rank, at_time_us }`
//! and `LinkDown { link, at_time_us }`. Each send gets a static *kill time*
//! — the earliest crash of its endpoints or severing of a route link
//! (`INFINITY` when healthy). A send whose eligibility moment falls at or
//! after its kill time is *dropped*: it never occupies the port and never
//! produces an event (fail-stop at send granularity; flows already in
//! flight complete). Dependents of a dropped write can never start, so the
//! event loop eventually goes quiescent with writes outstanding; instead of
//! asserting, the run returns [`SimOutcome::Stalled`] carrying a
//! [`StallReport`] whose diagnosis comes from
//! `bine_sched::validate::ScheduleValidator` — which surviving ranks still
//! met their postcondition and which pending receives form the stall cut.
//! The kill-time comparison adds no floating-point arithmetic, so a plan
//! with no crashes remains bit-identical to the healthy run, and the
//! optimized path stays pinned to the reference under any crash plan.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use bine_sched::{CompiledSchedule, CompletionReport, ScheduleValidator, TransferKind};

use crate::allocation::Allocation;
use crate::cost::{CostModel, GIB_PER_US};
use crate::event::EventQueue;
use crate::fault::FaultPlan;
use crate::topology::{LinkInfo, Topology};

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
    /// Largest number of flows ever in flight at once — `> 1` per link is
    /// what the synchronous model's per-step congestion term approximates.
    pub peak_active_flows: usize,
}

/// Observer of every fair-share recomputation: invoked with the simulation
/// clock and the `(send, rate)` pair of every in-flight flow each time rates
/// are (re)assigned. Used by the property tests to pin the incremental fast
/// path to the reference at *every* rate event, not just at completion.
pub type RateProbe<'a> = &'a mut dyn FnMut(f64, &[(u32, f64)]);

/// Static per-send data resolved once before the event loop (reference
/// implementation only; the fast path uses [`CachedStatic`]).
struct SendInfo {
    bytes: f64,
    /// alpha + segment overhead + summed link latencies.
    latency_us: f64,
    links: Vec<usize>,
    reduce: bool,
    src: usize,
    dst: usize,
    /// Intra-rank buffer move (charged to the copy bandwidth).
    local: bool,
}

/// A network transfer currently in flight.
#[derive(Clone, Copy)]
struct Flow {
    send: u32,
    remaining_bytes: f64,
    /// Current max–min fair rate in bytes/us (0 until first assignment).
    rate: f64,
}

enum Ev {
    /// Payload fully arrived at the destination (latency included).
    Delivered(u32),
    /// The destination finished writing (and, for reduces, combining) the
    /// payload; dependent sends may now become eligible.
    WriteDone(u32),
}

// ---------------------------------------------------------------------------
// Reference implementation
// ---------------------------------------------------------------------------

/// The reference simulator: recomputes the global max–min fair share from
/// scratch at every rate event and allocates all scratch per call. Slow —
/// kept as the executable specification the optimized fast path is pinned
/// bit-identical against.
///
/// # Panics
/// Panics if the allocation has fewer ranks than the schedule, or if the
/// simulation deadlocks (which would indicate a schedule whose dependency
/// graph is cyclic — impossible for schedules built by `bine-sched`).
fn simulate_reference_impl(
    model: &CostModel,
    schedule: &CompiledSchedule,
    n: u64,
    topo: &dyn Topology,
    alloc: &Allocation,
    plan: Option<&FaultPlan>,
    mut probe: Option<RateProbe<'_>>,
) -> Result<SimReport, Box<StallReport>> {
    let p = schedule.num_ranks;
    assert!(
        alloc.num_ranks() >= p,
        "allocation has {} ranks, schedule needs {p}",
        alloc.num_ranks()
    );
    let zero_plan = FaultPlan::none();
    let plan = plan.unwrap_or(&zero_plan);
    let num_sends = schedule.num_sends();
    // Straggler slowdowns divide the compute rates; dividing by the identity
    // 1.0 reproduces the healthy rate bit for bit.
    let copy_rates: Vec<f64> = (0..p)
        .map(|r| model.copy_bandwidth_gib_s * GIB_PER_US / plan.compute_slowdown(r))
        .collect();
    let reduce_rates: Vec<f64> = (0..p)
        .map(|r| model.reduce_bandwidth_gib_s * GIB_PER_US / plan.compute_slowdown(r))
        .collect();

    // ---- Static resolution: bytes, routes, latencies, kill times. ----------
    let mut infos: Vec<SendInfo> = Vec::with_capacity(num_sends);
    let mut kill_time: Vec<f64> = Vec::with_capacity(num_sends);
    let mut network_messages = 0u64;
    for step in 0..schedule.num_steps() {
        for i in schedule.step_send_range(step) {
            let s = schedule.send(i);
            let bytes: u64 = schedule
                .block_index_slice(s)
                .iter()
                .map(|&b| schedule.block_bytes(schedule.blocks().resolve(b), n))
                .sum();
            let local = s.is_local();
            let mut latency_us = if local {
                0.0
            } else {
                network_messages += 1;
                model.alpha_us + model.segment_overhead_us * (s.segments.saturating_sub(1)) as f64
            };
            // The earliest moment a fault kills this send: either endpoint
            // crashing or any route link going down (INFINITY when healthy —
            // min over identities, no arithmetic, bit-exact).
            let mut kill = plan
                .crash_time_us(s.src as usize)
                .min(plan.crash_time_us(s.dst as usize));
            let links = if local {
                Vec::new()
            } else {
                let route =
                    topo.route(alloc.node_of(s.src as usize), alloc.node_of(s.dst as usize));
                for &l in &route {
                    // A zero spike adds 0.0 — bit-exact for the
                    // non-negative latencies topologies produce.
                    latency_us += topo.link(l).latency_us + plan.extra_latency_us(l);
                    kill = kill.min(plan.link_down_time_us(l));
                }
                route
            };
            kill_time.push(kill);
            infos.push(SendInfo {
                bytes: bytes as f64,
                latency_us,
                links,
                reduce: s.kind == TransferKind::Reduce,
                src: s.src as usize,
                dst: s.dst as usize,
                local,
            });
        }
    }

    // ---- Static dependency analysis (see the module docs). -----------------
    // For every send: which earlier-step writes into its blocks (at its
    // sender) must land first. Same-step receives are excluded — a step's
    // sends read the pre-step state, exactly as the executors do.
    //
    // Writes to the same block at the same rank are additionally *chained*
    // (each write completes only after the previous write to that block):
    // reduce targets accumulate one contribution per step, and a send must
    // wait for all of them, not just the most recent. Chaining makes the
    // latest write transitively cover every earlier one, so read
    // dependencies can still track a single writer per block.
    let mut read_deps_remaining = vec![0u32; num_sends];
    let mut read_dependents: Vec<Vec<u32>> = vec![Vec::new(); num_sends];
    let mut write_preds_remaining = vec![0u32; num_sends];
    let mut write_dependents: Vec<Vec<u32>> = vec![Vec::new(); num_sends];
    let mut latest_write: Vec<HashMap<u32, u32>> = vec![HashMap::new(); p];
    for step in 0..schedule.num_steps() {
        let range = schedule.step_send_range(step);
        for i in range.clone() {
            let s = schedule.send(i);
            let writers = &latest_write[s.src as usize];
            let mut seen: Vec<u32> = Vec::new();
            for &b in schedule.block_index_slice(s) {
                if let Some(&w) = writers.get(&b) {
                    if !seen.contains(&w) {
                        seen.push(w);
                    }
                }
            }
            read_deps_remaining[i] = seen.len() as u32;
            for w in seen {
                read_dependents[w as usize].push(i as u32);
            }
        }
        for i in range {
            let s = schedule.send(i);
            let dst = s.dst as usize;
            let mut preds: Vec<u32> = Vec::new();
            for &b in schedule.block_index_slice(s) {
                if let Some(&w) = latest_write[dst].get(&b) {
                    if !preds.contains(&w) {
                        preds.push(w);
                    }
                }
            }
            write_preds_remaining[i] = preds.len() as u32;
            for w in preds {
                write_dependents[w as usize].push(i as u32);
            }
            for &b in schedule.block_index_slice(s) {
                latest_write[dst].insert(b, i as u32);
            }
        }
    }

    // Per-rank FIFO send queues, in (step, schedule-order) order.
    let mut rank_sends: Vec<Vec<u32>> = vec![Vec::new(); p];
    for step in 0..schedule.num_steps() {
        for i in schedule.step_send_range(step) {
            rank_sends[schedule.send(i).src as usize].push(i as u32);
        }
    }

    // ---- Event loop. -------------------------------------------------------
    let mut t = 0.0f64;
    let mut next_idx = vec![0usize; p];
    let mut port_free = vec![0.0f64; p];
    let mut compute_free = vec![0.0f64; p];
    let mut rank_finish = vec![0.0f64; p];
    let mut completed = 0usize;
    // Payload combined at the destination, but write not yet final because a
    // chained predecessor write is still outstanding.
    let mut payload_ready = vec![false; num_sends];
    let mut active: Vec<Flow> = Vec::new();
    let mut heap: EventQueue<Ev> = EventQueue::new();
    let mut peak_active_flows = 0usize;
    // Worklist for cascading write completions (avoids recursion).
    let mut finish_stack: Vec<u32> = Vec::new();
    // Sends refused because their kill time had passed when they became
    // eligible. They count toward loop termination — their writes never
    // happen — and a non-empty list at quiescence is a stall.
    let mut dropped: Vec<u32> = Vec::new();

    // A healthy link's factor is the identity 1.0 — bit-exact.
    let link_cap =
        |l: usize| -> f64 { topo.link(l).bandwidth_gib_s * GIB_PER_US * plan.bandwidth_factor(l) };

    // Starts every eligible send at time `t`; returns whether a flow was
    // added (rates must then be recomputed). Sends whose kill time has
    // passed are dropped instead of started: no port occupancy, no event.
    let start_eligible = |t: f64,
                          next_idx: &mut [usize],
                          port_free: &mut [f64],
                          read_deps_remaining: &[u32],
                          active: &mut Vec<Flow>,
                          heap: &mut EventQueue<Ev>,
                          dropped: &mut Vec<u32>|
     -> bool {
        let mut flows_changed = false;
        for r in 0..p {
            while next_idx[r] < rank_sends[r].len() {
                let send = rank_sends[r][next_idx[r]];
                if read_deps_remaining[send as usize] != 0 || port_free[r] > t {
                    break;
                }
                let info = &infos[send as usize];
                next_idx[r] += 1;
                if t >= kill_time[send as usize] {
                    dropped.push(send);
                    continue;
                }
                if info.local {
                    let done = t + info.bytes / copy_rates[r];
                    port_free[r] = done;
                    heap.push(done, Ev::WriteDone(send));
                } else if info.links.is_empty() {
                    // Distinct ranks on the same node: only the software
                    // overhead applies, matching the synchronous model.
                    port_free[r] = t + info.latency_us;
                    heap.push(t + info.latency_us, Ev::Delivered(send));
                } else {
                    // The port stays busy until the payload is serialised
                    // (flow completion sets it).
                    port_free[r] = f64::INFINITY;
                    active.push(Flow {
                        send,
                        remaining_bytes: info.bytes,
                        rate: 0.0,
                    });
                    flows_changed = true;
                }
            }
        }
        flows_changed
    };

    // Max–min fair-share (progressive filling): repeatedly find the link
    // with the smallest fair share among its unassigned flows, fix those
    // flows at that rate, subtract, repeat. Deterministic: links iterate in
    // id order.
    let assign_rates = |active: &mut Vec<Flow>| {
        if active.is_empty() {
            return;
        }
        let mut link_flows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (fi, f) in active.iter().enumerate() {
            for &l in &infos[f.send as usize].links {
                link_flows.entry(l).or_default().push(fi);
            }
        }
        let mut assigned: BTreeMap<usize, f64> = BTreeMap::new();
        let mut fixed = vec![false; active.len()];
        let mut unfixed = active.len();
        while unfixed > 0 {
            let mut bottleneck: Option<(f64, usize)> = None;
            for (&l, flows) in &link_flows {
                let open = flows.iter().filter(|&&fi| !fixed[fi]).count();
                if open == 0 {
                    continue;
                }
                let headroom = (link_cap(l) - assigned.get(&l).copied().unwrap_or(0.0)).max(0.0);
                let fair = headroom / open as f64;
                if bottleneck.is_none_or(|(best, _)| fair < best) {
                    bottleneck = Some((fair, l));
                }
            }
            let (fair, l) = bottleneck.expect("every flow traverses at least one link");
            // Numerical floor: keeps the loop terminating even when FP
            // cancellation leaves a link marginally oversubscribed.
            let fair = fair.max(link_cap(l) * 1e-12);
            for fi in link_flows[&l].clone() {
                if fixed[fi] {
                    continue;
                }
                fixed[fi] = true;
                unfixed -= 1;
                active[fi].rate = fair;
                for &l2 in &infos[active[fi].send as usize].links {
                    *assigned.entry(l2).or_insert(0.0) += fair;
                }
            }
        }
    };

    if start_eligible(
        t,
        &mut next_idx,
        &mut port_free,
        &read_deps_remaining,
        &mut active,
        &mut heap,
        &mut dropped,
    ) {
        assign_rates(&mut active);
        if let Some(probe) = probe.as_mut() {
            let snapshot: Vec<(u32, f64)> = active.iter().map(|f| (f.send, f.rate)).collect();
            probe(t, &snapshot);
        }
    }
    peak_active_flows = peak_active_flows.max(active.len());

    while completed + dropped.len() < num_sends {
        // Next event: earliest flow completion or queued timer.
        let t_flow = active
            .iter()
            .map(|f| t + f.remaining_bytes / f.rate)
            .fold(f64::INFINITY, f64::min);
        let t_next = t_flow.min(heap.peek_time().unwrap_or(f64::INFINITY));
        if !t_next.is_finite() {
            // Quiescence with writes outstanding: every remaining send
            // waits (transitively) on a dropped write. Diagnosed below.
            break;
        }
        let tol = 1e-9 * (1.0 + t_next.abs());
        let dt = t_next - t;

        // Flows whose predicted completion falls on t_next finish; the rest
        // advance by dt at their current rate.
        let mut still_active = Vec::with_capacity(active.len());
        let mut flows_changed = false;
        for mut f in active.drain(..) {
            let completion = t + f.remaining_bytes / f.rate;
            if completion <= t_next + tol {
                let info = &infos[f.send as usize];
                port_free[info.src] = t_next;
                rank_finish[info.src] = rank_finish[info.src].max(t_next);
                heap.push(t_next + info.latency_us, Ev::Delivered(f.send));
                flows_changed = true;
            } else {
                f.remaining_bytes -= f.rate * dt;
                still_active.push(f);
            }
        }
        active = still_active;
        t = t_next;

        // Drain every timer event at (or numerically on) t. The clock
        // follows the drained event times: an event popped from just inside
        // the merge tolerance may be the wake-up for a port whose
        // `port_free` stamp is its (marginally later) scheduled time, and
        // `start_eligible` below must see that port as free or the rank
        // could sleep forever.
        while let Some(et) = heap.peek_time() {
            if et > t + tol {
                break;
            }
            let (et, ev) = heap.pop().expect("peeked");
            t = t.max(et);
            match ev {
                Ev::Delivered(send) => {
                    let info = &infos[send as usize];
                    rank_finish[info.dst] = rank_finish[info.dst].max(t);
                    if info.reduce {
                        let start = compute_free[info.dst].max(t);
                        let done = start + info.bytes / reduce_rates[info.dst];
                        compute_free[info.dst] = done;
                        heap.push(done, Ev::WriteDone(send));
                    } else {
                        heap.push(t, Ev::WriteDone(send));
                    }
                }
                Ev::WriteDone(send) => {
                    // The payload is combined; the write becomes final once
                    // every chained predecessor write to its blocks is, and
                    // finalising it may cascade through deferred successors.
                    payload_ready[send as usize] = true;
                    if write_preds_remaining[send as usize] == 0 {
                        finish_stack.push(send);
                    }
                    while let Some(w) = finish_stack.pop() {
                        let info = &infos[w as usize];
                        rank_finish[info.dst] = rank_finish[info.dst].max(t);
                        completed += 1;
                        for &d in &read_dependents[w as usize] {
                            read_deps_remaining[d as usize] -= 1;
                        }
                        for &d in &write_dependents[w as usize] {
                            write_preds_remaining[d as usize] -= 1;
                            if write_preds_remaining[d as usize] == 0 && payload_ready[d as usize] {
                                finish_stack.push(d);
                            }
                        }
                    }
                }
            }
        }

        if start_eligible(
            t,
            &mut next_idx,
            &mut port_free,
            &read_deps_remaining,
            &mut active,
            &mut heap,
            &mut dropped,
        ) {
            flows_changed = true;
        }
        if flows_changed {
            assign_rates(&mut active);
            if let Some(probe) = probe.as_mut() {
                let snapshot: Vec<(u32, f64)> = active.iter().map(|f| (f.send, f.rate)).collect();
                probe(t, &snapshot);
            }
        }
        peak_active_flows = peak_active_flows.max(active.len());
    }

    if !dropped.is_empty() {
        return Err(stall_report(
            schedule, plan, t, completed, num_sends, dropped,
        ));
    }
    assert!(
        completed == num_sends,
        "simulation deadlock: {completed} of {num_sends} writes completed"
    );
    let makespan_us = rank_finish.iter().copied().fold(0.0, f64::max);
    Ok(SimReport {
        makespan_us,
        rank_finish_us: rank_finish,
        network_messages,
        peak_active_flows,
    })
}

// ---------------------------------------------------------------------------
// Optimized implementation: arena + cached statics + incremental fair share
// ---------------------------------------------------------------------------

/// Everything about one simulation that does not depend on the vector size:
/// per-send routes, latencies and flags, the static dependency analysis, the
/// per-rank FIFO send order and the per-link capacity table. Cached in the
/// [`SimArena`] keyed by [`CompiledSchedule::identity`] and revalidated
/// against the topology shape, allocation and cost model on every use.
struct CachedStatic {
    // Context validation (see [`CachedStatic::matches`]).
    model: CostModel,
    topo_nodes: usize,
    topo_groups: usize,
    link_table: Vec<LinkInfo>,
    alloc: Allocation,
    fault: FaultPlan,

    num_sends: usize,
    network_messages: u64,

    // Per-send statics, indexed by global send id.
    latency_us: Vec<f64>,
    links_off: Vec<u32>,
    links_flat: Vec<u32>,
    reduce: Vec<bool>,
    local: Vec<bool>,
    src: Vec<u32>,
    dst: Vec<u32>,

    // Static dependency analysis (CSR form of the reference's `Vec<Vec<_>>`).
    read_deps_init: Vec<u32>,
    read_dep_off: Vec<u32>,
    read_dep_flat: Vec<u32>,
    write_preds_init: Vec<u32>,
    write_dep_off: Vec<u32>,
    write_dep_flat: Vec<u32>,

    // Per-rank FIFO send queues, CSR.
    rank_off: Vec<u32>,
    rank_flat: Vec<u32>,

    /// Per-link capacity in bytes/us — the same product the reference's
    /// `link_cap` closure computes (fault factor included), precomputed once
    /// (bit-identical).
    link_cap: Vec<f64>,

    /// Per-rank copy and reduce rates in bytes/us: the model's bandwidths
    /// divided by the fault plan's compute slowdowns (identity 1.0 when
    /// healthy — bit-exact).
    copy_rates: Vec<f64>,
    reduce_rates: Vec<f64>,

    /// Per-send kill time: the earliest crash of an endpoint or severing of
    /// a route link (`INFINITY` when healthy). The same min-fold the
    /// reference computes inline — no arithmetic, bit-exact.
    kill_time: Vec<f64>,

    /// The vector size the `bytes` column currently resolves, if any.
    bytes_n: Option<u64>,
    bytes: Vec<f64>,
}

impl CachedStatic {
    #[inline]
    fn links(&self, send: u32) -> &[u32] {
        &self.links_flat
            [self.links_off[send as usize] as usize..self.links_off[send as usize + 1] as usize]
    }

    #[inline]
    fn read_dependents(&self, send: u32) -> &[u32] {
        &self.read_dep_flat[self.read_dep_off[send as usize] as usize
            ..self.read_dep_off[send as usize + 1] as usize]
    }

    #[inline]
    fn write_dependents(&self, send: u32) -> &[u32] {
        &self.write_dep_flat[self.write_dep_off[send as usize] as usize
            ..self.write_dep_off[send as usize + 1] as usize]
    }

    #[inline]
    fn rank_sends(&self, rank: usize) -> &[u32] {
        &self.rank_flat[self.rank_off[rank] as usize..self.rank_off[rank + 1] as usize]
    }

    /// Whether this entry was built for the same context. Allocation-free:
    /// the topology is revalidated by shape (node/group/link counts and the
    /// full per-link table) instead of its heap-allocated `name()`.
    fn matches(
        &self,
        model: &CostModel,
        topo: &dyn Topology,
        alloc: &Allocation,
        plan: &FaultPlan,
    ) -> bool {
        self.model == *model
            && self.fault == *plan
            && self.topo_nodes == topo.num_nodes()
            && self.topo_groups == topo.num_groups()
            && self.link_table.len() == topo.num_links()
            && self.alloc == *alloc
            && self
                .link_table
                .iter()
                .enumerate()
                .all(|(l, info)| *info == topo.link(l))
    }

    /// Resolves the per-send byte counts for vector size `n` (a no-op when
    /// the cached column already matches).
    fn ensure_bytes(&mut self, schedule: &CompiledSchedule, n: u64) {
        if self.bytes_n == Some(n) {
            return;
        }
        self.bytes.clear();
        for step in 0..schedule.num_steps() {
            for i in schedule.step_send_range(step) {
                let s = schedule.send(i);
                let bytes: u64 = schedule
                    .block_index_slice(s)
                    .iter()
                    .map(|&b| schedule.block_bytes(schedule.blocks().resolve(b), n))
                    .sum();
                self.bytes.push(bytes as f64);
            }
        }
        self.bytes_n = Some(n);
    }
}

/// Builds the [`CachedStatic`] for one (schedule, topology, allocation,
/// model) context — the only allocating step of the optimized path, paid
/// once per compiled schedule and amortised over every subsequent vector
/// size and repetition.
fn build_static(
    model: &CostModel,
    schedule: &CompiledSchedule,
    topo: &dyn Topology,
    alloc: &Allocation,
    plan: &FaultPlan,
) -> CachedStatic {
    let p = schedule.num_ranks;
    let num_sends = schedule.num_sends();

    let mut latency_us = Vec::with_capacity(num_sends);
    let mut links_off: Vec<u32> = Vec::with_capacity(num_sends + 1);
    let mut links_flat: Vec<u32> = Vec::new();
    let mut reduce = Vec::with_capacity(num_sends);
    let mut local = Vec::with_capacity(num_sends);
    let mut src = Vec::with_capacity(num_sends);
    let mut dst = Vec::with_capacity(num_sends);
    let mut kill_time = Vec::with_capacity(num_sends);
    let mut network_messages = 0u64;
    links_off.push(0);
    for step in 0..schedule.num_steps() {
        for i in schedule.step_send_range(step) {
            let s = schedule.send(i);
            let is_local = s.is_local();
            let mut lat = if is_local {
                0.0
            } else {
                network_messages += 1;
                model.alpha_us + model.segment_overhead_us * (s.segments.saturating_sub(1)) as f64
            };
            let mut kill = plan
                .crash_time_us(s.src as usize)
                .min(plan.crash_time_us(s.dst as usize));
            if !is_local {
                let route =
                    topo.route(alloc.node_of(s.src as usize), alloc.node_of(s.dst as usize));
                for &l in &route {
                    lat += topo.link(l).latency_us + plan.extra_latency_us(l);
                    kill = kill.min(plan.link_down_time_us(l));
                }
                links_flat.extend(route.iter().map(|&l| l as u32));
            }
            links_off.push(links_flat.len() as u32);
            kill_time.push(kill);
            latency_us.push(lat);
            reduce.push(s.kind == TransferKind::Reduce);
            local.push(is_local);
            src.push(s.src);
            dst.push(s.dst);
        }
    }

    // Static dependency analysis: the reference's algorithm verbatim,
    // flattened into CSR afterwards (see the reference for the semantics).
    let mut read_deps_init = vec![0u32; num_sends];
    let mut read_dependents: Vec<Vec<u32>> = vec![Vec::new(); num_sends];
    let mut write_preds_init = vec![0u32; num_sends];
    let mut write_dependents: Vec<Vec<u32>> = vec![Vec::new(); num_sends];
    let mut latest_write: Vec<HashMap<u32, u32>> = vec![HashMap::new(); p];
    for step in 0..schedule.num_steps() {
        let range = schedule.step_send_range(step);
        for i in range.clone() {
            let s = schedule.send(i);
            let writers = &latest_write[s.src as usize];
            let mut seen: Vec<u32> = Vec::new();
            for &b in schedule.block_index_slice(s) {
                if let Some(&w) = writers.get(&b) {
                    if !seen.contains(&w) {
                        seen.push(w);
                    }
                }
            }
            read_deps_init[i] = seen.len() as u32;
            for w in seen {
                read_dependents[w as usize].push(i as u32);
            }
        }
        for i in range {
            let s = schedule.send(i);
            let d = s.dst as usize;
            let mut preds: Vec<u32> = Vec::new();
            for &b in schedule.block_index_slice(s) {
                if let Some(&w) = latest_write[d].get(&b) {
                    if !preds.contains(&w) {
                        preds.push(w);
                    }
                }
            }
            write_preds_init[i] = preds.len() as u32;
            for w in preds {
                write_dependents[w as usize].push(i as u32);
            }
            for &b in schedule.block_index_slice(s) {
                latest_write[d].insert(b, i as u32);
            }
        }
    }
    fn flatten(lists: Vec<Vec<u32>>) -> (Vec<u32>, Vec<u32>) {
        let mut off = Vec::with_capacity(lists.len() + 1);
        let mut flat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        off.push(0u32);
        for list in lists {
            flat.extend_from_slice(&list);
            off.push(flat.len() as u32);
        }
        (off, flat)
    }
    let (read_dep_off, read_dep_flat) = flatten(read_dependents);
    let (write_dep_off, write_dep_flat) = flatten(write_dependents);

    // Per-rank FIFO send queues, in (step, schedule-order) order.
    let mut rank_sends: Vec<Vec<u32>> = vec![Vec::new(); p];
    for step in 0..schedule.num_steps() {
        for i in schedule.step_send_range(step) {
            rank_sends[schedule.send(i).src as usize].push(i as u32);
        }
    }
    let (rank_off, rank_flat) = flatten(rank_sends);

    let link_table: Vec<LinkInfo> = (0..topo.num_links()).map(|l| topo.link(l)).collect();
    let link_cap: Vec<f64> = link_table
        .iter()
        .enumerate()
        .map(|(l, info)| info.bandwidth_gib_s * GIB_PER_US * plan.bandwidth_factor(l))
        .collect();
    let copy_rates: Vec<f64> = (0..p)
        .map(|r| model.copy_bandwidth_gib_s * GIB_PER_US / plan.compute_slowdown(r))
        .collect();
    let reduce_rates: Vec<f64> = (0..p)
        .map(|r| model.reduce_bandwidth_gib_s * GIB_PER_US / plan.compute_slowdown(r))
        .collect();

    CachedStatic {
        model: model.clone(),
        topo_nodes: topo.num_nodes(),
        topo_groups: topo.num_groups(),
        link_table,
        alloc: alloc.clone(),
        fault: plan.clone(),
        num_sends,
        network_messages,
        latency_us,
        links_off,
        links_flat,
        reduce,
        local,
        src,
        dst,
        read_deps_init,
        read_dep_off,
        read_dep_flat,
        write_preds_init,
        write_dep_off,
        write_dep_flat,
        rank_off,
        rank_flat,
        link_cap,
        copy_rates,
        reduce_rates,
        kill_time,
        bytes_n: None,
        bytes: Vec::new(),
    }
}

/// One bottleneck candidate in the refill heap: a link with its cached fair
/// share. Ordered ascending by `(fair, link)` — the same winner the
/// reference's ascending-link-id strict-`<` scan selects — through a
/// reversed `Ord` so `BinaryHeap` pops the minimum. `epoch` lazily
/// invalidates entries superseded by a newer fair value for the same link.
struct RefillEntry {
    fair: f64,
    link: u32,
    epoch: u32,
}

impl PartialEq for RefillEntry {
    fn eq(&self, other: &Self) -> bool {
        self.fair.total_cmp(&other.fair) == Ordering::Equal && self.link == other.link
    }
}
impl Eq for RefillEntry {}
impl Ord for RefillEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fair
            .total_cmp(&other.fair)
            .then(self.link.cmp(&other.link))
            .reverse()
    }
}
impl PartialOrd for RefillEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The mutable per-run state, reused across simulations.
#[derive(Default)]
struct Scratch {
    // Dynamic copies of the static init vectors.
    read_deps: Vec<u32>,
    write_preds: Vec<u32>,
    payload_ready: Vec<bool>,
    // Per-rank state.
    next_idx: Vec<u32>,
    port_free: Vec<f64>,
    compute_free: Vec<f64>,
    rank_finish: Vec<f64>,
    // Event machinery.
    active: Vec<Flow>,
    heap: EventQueue<Ev>,
    finish_stack: Vec<u32>,
    pending: Vec<(f64, Ev)>,
    finished_sends: Vec<u32>,
    /// Sends refused because their kill time had passed at eligibility
    /// (always empty under a crash-free plan — no allocation).
    dropped: Vec<u32>,
    // Incremental fair-share state.
    /// Per link: the sends of the flows currently traversing it, in
    /// ascending active-index order (append on start, ordered removal on
    /// finish; the stable compaction preserves relative order).
    link_flows: Vec<Vec<u32>>,
    /// Active index of each in-flight send (stale once the flow finishes).
    flow_of_send: Vec<u32>,
    link_dirty: Vec<bool>,
    flow_dirty: Vec<bool>,
    flow_fixed: Vec<bool>,
    assigned: Vec<f64>,
    comp_links: Vec<u32>,
    comp_flows: Vec<u32>,
    // Refill bookkeeping: per-link open-flow counts and fair-share epochs,
    // the lazy bottleneck heap, and the links touched by one round's fixes.
    link_open: Vec<u32>,
    link_epoch: Vec<u32>,
    refill_heap: BinaryHeap<RefillEntry>,
    refill_mark: Vec<bool>,
    refill_touched: Vec<u32>,
    /// Per-active-flow completion times computed by the next-event scan and
    /// reused (same bits) by the compaction pass.
    completion: Vec<f64>,
    /// Ranks whose eligibility may have changed this event (port released
    /// or a read dependency completed), processed in ascending rank order.
    cand_ranks: Vec<u32>,
    cand_marked: Vec<bool>,
    probe_buf: Vec<(u32, f64)>,
    /// `peak_active_flows` of the last run.
    peak: usize,
    /// `network_messages` of the last run.
    network_messages: u64,
}

/// Reusable state for the optimized simulator: all per-simulation scratch
/// plus a cache of per-schedule static resolution (routes, latencies,
/// dependency analysis) keyed by [`CompiledSchedule::identity`].
///
/// Owning one arena across a sweep makes repeated simulations allocate
/// nothing after warmup (pinned by `tests/arena_alloc.rs`); results are
/// bit-identical to fresh-arena and reference runs regardless of what was
/// simulated before.
#[derive(Default)]
pub struct SimArena {
    cache: HashMap<u64, CachedStatic>,
    scratch: Scratch,
}

impl SimArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every cached per-schedule static resolution (call between
    /// sweeps over disjoint schedule sets to bound memory). Scratch capacity
    /// is kept.
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Number of schedules with cached static resolution.
    pub fn cached_schedules(&self) -> usize {
        self.cache.len()
    }
}

// ---------------------------------------------------------------------------
// The consolidated entry point
// ---------------------------------------------------------------------------

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

/// Builds the [`StallReport`] for a quiescent-but-incomplete run: sorts the
/// refused sends and asks the schedule validator which surviving ranks the
/// stall actually reaches (the wedge cascade over the remaining sends).
fn stall_report(
    schedule: &CompiledSchedule,
    plan: &FaultPlan,
    time_us: f64,
    completed_writes: usize,
    total_writes: usize,
    mut dropped_sends: Vec<u32>,
) -> Box<StallReport> {
    dropped_sends.sort_unstable();
    let p = schedule.num_ranks;
    let dead_ranks: Vec<usize> = plan.crashed_ranks().filter(|&r| r < p).collect();
    let diagnosis =
        ScheduleValidator::new(schedule).completion_with_dropped(&dropped_sends, &dead_ranks);
    Box::new(StallReport {
        time_us,
        completed_writes,
        total_writes,
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
    /// Panics if the allocation has fewer ranks than the schedule, or if
    /// the simulation deadlocks without any send having been dropped (a
    /// cyclic dependency graph — impossible for schedules built by
    /// `bine-sched`).
    pub fn run(self) -> SimOutcome {
        let SimRequest {
            model,
            schedule,
            n,
            topo,
            alloc,
            faults,
            probe,
            arena,
            time_only,
            reference,
        } = self;
        if reference {
            return match simulate_reference_impl(model, schedule, n, topo, alloc, faults, probe) {
                Ok(report) => SimOutcome::Completed {
                    makespan_us: report.makespan_us,
                    report: (!time_only).then_some(report),
                },
                Err(stall) => SimOutcome::Stalled(stall),
            };
        }
        let mut fresh;
        let arena = match arena {
            Some(arena) => arena,
            None => {
                fresh = SimArena::new();
                &mut fresh
            }
        };
        match run_optimized(arena, model, schedule, n, topo, alloc, faults, probe) {
            Ok(makespan_us) => SimOutcome::Completed {
                makespan_us,
                report: (!time_only).then(|| report_from(&arena.scratch, makespan_us)),
            },
            Err(stall) => SimOutcome::Stalled(stall),
        }
    }
}

fn report_from(sc: &Scratch, makespan_us: f64) -> SimReport {
    SimReport {
        makespan_us,
        rank_finish_us: sc.rank_finish.clone(),
        network_messages: sc.network_messages,
        peak_active_flows: sc.peak,
    }
}

/// Starts every eligible send of the `candidates` ranks at time `t`: local
/// moves and same-node sends become timer events in `pending` (drained into
/// the heap by the caller, preserving FIFO order), network sends become
/// flows. Returns whether a flow was added (rates must then be recomputed).
///
/// `candidates` must be in ascending rank order — the reference scans ranks
/// `0..p`, and the order flows are pushed in is the fair-share tie-break
/// order. Eligibility only ever *arises* from a port release or a read
/// dependency completing, and both coincide with an event, so the caller
/// can visit just the ranks an event touched instead of rescanning all `p`.
#[allow(clippy::too_many_arguments)]
fn start_eligible(
    st: &CachedStatic,
    t: f64,
    candidates: &[u32],
    next_idx: &mut [u32],
    port_free: &mut [f64],
    read_deps: &[u32],
    active: &mut Vec<Flow>,
    pending: &mut Vec<(f64, Ev)>,
    dropped: &mut Vec<u32>,
) -> bool {
    let mut flows_changed = false;
    for &r in candidates {
        let r = r as usize;
        let queue = st.rank_sends(r);
        while (next_idx[r] as usize) < queue.len() {
            let send = queue[next_idx[r] as usize];
            if read_deps[send as usize] != 0 || port_free[r] > t {
                break;
            }
            next_idx[r] += 1;
            if t >= st.kill_time[send as usize] {
                // Fail-stop: the send never starts — no port occupancy, no
                // event — mirroring the reference drop.
                dropped.push(send);
                continue;
            }
            if st.local[send as usize] {
                let done = t + st.bytes[send as usize] / st.copy_rates[r];
                port_free[r] = done;
                pending.push((done, Ev::WriteDone(send)));
            } else if st.links(send).is_empty() {
                // Distinct ranks on the same node: only the software
                // overhead applies, matching the synchronous model.
                let done = t + st.latency_us[send as usize];
                port_free[r] = done;
                pending.push((done, Ev::Delivered(send)));
            } else {
                // The port stays busy until the payload is serialised
                // (flow completion sets it).
                port_free[r] = f64::INFINITY;
                active.push(Flow {
                    send,
                    remaining_bytes: st.bytes[send as usize],
                    rate: 0.0,
                });
                flows_changed = true;
            }
        }
    }
    flows_changed
}

/// Refill scratch borrowed by [`recompute_rates`] (one bundle so the call
/// sites stay readable).
struct RefillScratch<'a> {
    link_open: &'a mut [u32],
    link_epoch: &'a mut [u32],
    refill_heap: &'a mut BinaryHeap<RefillEntry>,
    refill_mark: &'a mut [bool],
    refill_touched: &'a mut Vec<u32>,
}

/// Incremental max–min fair share. `finished_sends` are the flows removed
/// this event, `new_start` is the active index of the first flow added this
/// event. Only the links they touch — and, transitively, the flows sharing
/// those links (the affected components) — are recomputed, by the exact
/// progressive-filling float operations of the reference restricted to those
/// components; every other flow keeps its previous (identical) rate.
///
/// Within the affected component the progressive filling itself is
/// near-linear instead of rounds × links: every link's fair share is
/// computed by the reference's exact expression, but only when its inputs
/// (`assigned`, open-flow count) change, and the per-round bottleneck is
/// popped from a lazily-invalidated min-heap ordered by `(fair, link id)` —
/// the identical winner the reference's ascending-id strict-`<` scan picks,
/// since stale entries are skipped and ties break on the lower link id.
#[allow(clippy::too_many_arguments)]
fn recompute_rates(
    st: &CachedStatic,
    active: &mut [Flow],
    finished_sends: &[u32],
    new_start: usize,
    link_flows: &mut [Vec<u32>],
    flow_of_send: &mut [u32],
    link_dirty: &mut [bool],
    flow_dirty: &mut [bool],
    flow_fixed: &mut [bool],
    assigned: &mut [f64],
    comp_links: &mut Vec<u32>,
    comp_flows: &mut Vec<u32>,
    refill: RefillScratch<'_>,
) {
    comp_links.clear();
    comp_flows.clear();

    // Remove finished flows from the adjacency; their links are dirty.
    for &s in finished_sends {
        for &l in st.links(s) {
            let list = &mut link_flows[l as usize];
            let pos = list
                .iter()
                .position(|&x| x == s)
                .expect("finished flow must be on its links");
            list.remove(pos);
            if !link_dirty[l as usize] {
                link_dirty[l as usize] = true;
                comp_links.push(l);
            }
        }
    }
    // Insert new flows (ascending active index keeps per-link lists in the
    // reference's construction order); they and their links are dirty.
    for (fi, flow) in active.iter().enumerate().skip(new_start) {
        let s = flow.send;
        flow_of_send[s as usize] = fi as u32;
        flow_dirty[fi] = true;
        comp_flows.push(fi as u32);
        for &l in st.links(s) {
            link_flows[l as usize].push(s);
            if !link_dirty[l as usize] {
                link_dirty[l as usize] = true;
                comp_links.push(l);
            }
        }
    }

    // Breadth-first closure: a dirty link dirties every flow on it; a dirty
    // flow dirties every link it traverses.
    let mut cursor = 0;
    while cursor < comp_links.len() {
        let l = comp_links[cursor];
        cursor += 1;
        for &s in &link_flows[l as usize] {
            let fi = flow_of_send[s as usize] as usize;
            if flow_dirty[fi] {
                continue;
            }
            flow_dirty[fi] = true;
            comp_flows.push(fi as u32);
            for &l2 in st.links(s) {
                if !link_dirty[l2 as usize] {
                    link_dirty[l2 as usize] = true;
                    comp_links.push(l2);
                }
            }
        }
    }

    if !comp_flows.is_empty() {
        // Progressive filling restricted to the affected components. Every
        // flow on a dirty link is dirty (the closure above), so a dirty
        // link's open-flow count starts at its full list length.
        let RefillScratch {
            link_open,
            link_epoch,
            refill_heap,
            refill_mark,
            refill_touched,
        } = refill;
        refill_heap.clear();
        for &l in comp_links.iter() {
            let li = l as usize;
            assigned[li] = 0.0;
            link_epoch[li] = 0;
            let open = link_flows[li].len();
            link_open[li] = open as u32;
            if open > 0 {
                // The reference's fair-share expression, verbatim.
                let fair = (st.link_cap[li] - assigned[li]).max(0.0) / open as f64;
                refill_heap.push(RefillEntry {
                    fair,
                    link: l,
                    epoch: 0,
                });
            }
        }
        for &fi in comp_flows.iter() {
            flow_fixed[fi as usize] = false;
        }
        let mut unfixed = comp_flows.len();
        while unfixed > 0 {
            // Pop the bottleneck: the smallest (fair, link id) whose cached
            // fair share is current and which still has open flows.
            let (fair, l) = loop {
                let e = refill_heap
                    .pop()
                    .expect("every flow traverses at least one link");
                let li = e.link as usize;
                if link_epoch[li] == e.epoch && link_open[li] > 0 {
                    break (e.fair, e.link);
                }
            };
            // Numerical floor: keeps the loop terminating even when FP
            // cancellation leaves a link marginally oversubscribed.
            let fair = fair.max(st.link_cap[l as usize] * 1e-12);
            refill_touched.clear();
            for &s in &link_flows[l as usize] {
                let fi = flow_of_send[s as usize] as usize;
                if flow_fixed[fi] {
                    continue;
                }
                flow_fixed[fi] = true;
                unfixed -= 1;
                active[fi].rate = fair;
                for &l2 in st.links(s) {
                    let li = l2 as usize;
                    assigned[li] += fair;
                    link_open[li] -= 1;
                    if !refill_mark[li] {
                        refill_mark[li] = true;
                        refill_touched.push(l2);
                    }
                }
            }
            // Refresh the fair share of every link the round's fixes
            // touched — once, after all of them, exactly as the reference's
            // next-round scan would observe the state.
            for &l2 in refill_touched.iter() {
                let li = l2 as usize;
                refill_mark[li] = false;
                link_epoch[li] += 1;
                if link_open[li] > 0 {
                    let fair = (st.link_cap[li] - assigned[li]).max(0.0) / link_open[li] as f64;
                    refill_heap.push(RefillEntry {
                        fair,
                        link: l2,
                        epoch: link_epoch[li],
                    });
                }
            }
        }
    }

    // Reset the dirty marks for the next event.
    for &l in comp_links.iter() {
        link_dirty[l as usize] = false;
    }
    for &fi in comp_flows.iter() {
        flow_dirty[fi as usize] = false;
    }
}

#[allow(clippy::too_many_arguments)]
fn run_optimized(
    arena: &mut SimArena,
    model: &CostModel,
    schedule: &CompiledSchedule,
    n: u64,
    topo: &dyn Topology,
    alloc: &Allocation,
    plan: Option<&FaultPlan>,
    mut probe: Option<RateProbe<'_>>,
) -> Result<f64, Box<StallReport>> {
    let p = schedule.num_ranks;
    assert!(
        alloc.num_ranks() >= p,
        "allocation has {} ranks, schedule needs {p}",
        alloc.num_ranks()
    );
    let zero_plan = FaultPlan::none();
    let plan = plan.unwrap_or(&zero_plan);

    // ---- Cache lookup / rebuild of the static resolution. ------------------
    let key = schedule.identity();
    let rebuild = match arena.cache.get(&key) {
        Some(entry) => !entry.matches(model, topo, alloc, plan),
        None => true,
    };
    if rebuild {
        arena
            .cache
            .insert(key, build_static(model, schedule, topo, alloc, plan));
    }
    let entry = arena.cache.get_mut(&key).expect("just ensured");
    entry.ensure_bytes(schedule, n);
    let st: &CachedStatic = entry;

    let num_sends = st.num_sends;
    let num_links = st.link_cap.len();

    // ---- Per-run state reset (capacity retained across runs). --------------
    let Scratch {
        read_deps,
        write_preds,
        payload_ready,
        next_idx,
        port_free,
        compute_free,
        rank_finish,
        active,
        heap,
        finish_stack,
        pending,
        finished_sends,
        dropped,
        link_flows,
        flow_of_send,
        link_dirty,
        flow_dirty,
        flow_fixed,
        assigned,
        comp_links,
        comp_flows,
        link_open,
        link_epoch,
        refill_heap,
        refill_mark,
        refill_touched,
        completion,
        cand_ranks,
        cand_marked,
        probe_buf,
        peak,
        network_messages,
    } = &mut arena.scratch;
    read_deps.clear();
    read_deps.extend_from_slice(&st.read_deps_init);
    write_preds.clear();
    write_preds.extend_from_slice(&st.write_preds_init);
    payload_ready.clear();
    payload_ready.resize(num_sends, false);
    next_idx.clear();
    next_idx.resize(p, 0);
    port_free.clear();
    port_free.resize(p, 0.0);
    compute_free.clear();
    compute_free.resize(p, 0.0);
    rank_finish.clear();
    rank_finish.resize(p, 0.0);
    active.clear();
    heap.clear();
    finish_stack.clear();
    pending.clear();
    finished_sends.clear();
    dropped.clear();
    if link_flows.len() < num_links {
        link_flows.resize_with(num_links, Vec::new);
    }
    for list in link_flows.iter_mut() {
        list.clear();
    }
    flow_of_send.clear();
    flow_of_send.resize(num_sends, 0);
    link_dirty.clear();
    link_dirty.resize(num_links, false);
    flow_dirty.clear();
    flow_dirty.resize(p, false);
    flow_fixed.clear();
    flow_fixed.resize(p, false);
    assigned.clear();
    assigned.resize(num_links, 0.0);
    comp_links.clear();
    comp_flows.clear();
    link_open.clear();
    link_open.resize(num_links, 0);
    link_epoch.clear();
    link_epoch.resize(num_links, 0);
    refill_heap.clear();
    refill_mark.clear();
    refill_mark.resize(num_links, false);
    refill_touched.clear();
    completion.clear();
    cand_ranks.clear();
    cand_marked.clear();
    cand_marked.resize(p, false);
    *peak = 0;
    *network_messages = st.network_messages;

    let mut t = 0.0f64;
    let mut completed = 0usize;

    // ---- Initial ready-send seeding (bulk heap insert). --------------------
    cand_ranks.extend(0..p as u32);
    let mut flows_changed = start_eligible(
        st, t, cand_ranks, next_idx, port_free, read_deps, active, pending, dropped,
    );
    cand_ranks.clear();
    heap.push_many(pending.drain(..));
    if flows_changed {
        recompute_rates(
            st,
            active,
            finished_sends,
            0,
            link_flows,
            flow_of_send,
            link_dirty,
            flow_dirty,
            flow_fixed,
            assigned,
            comp_links,
            comp_flows,
            RefillScratch {
                link_open,
                link_epoch,
                refill_heap,
                refill_mark,
                refill_touched,
            },
        );
        if let Some(probe) = probe.as_mut() {
            probe_buf.clear();
            probe_buf.extend(active.iter().map(|f| (f.send, f.rate)));
            probe(t, probe_buf);
        }
    }
    *peak = (*peak).max(active.len());

    // ---- Event loop (identical float semantics to the reference). ----------
    while completed + dropped.len() < num_sends {
        // Next event: earliest flow completion or queued timer. The
        // per-flow completion times are stashed so the compaction pass below
        // reuses the same bits instead of paying the division again.
        completion.clear();
        let mut t_flow = f64::INFINITY;
        for f in active.iter() {
            let c = t + f.remaining_bytes / f.rate;
            completion.push(c);
            t_flow = t_flow.min(c);
        }
        let t_next = t_flow.min(heap.peek_time().unwrap_or(f64::INFINITY));
        if !t_next.is_finite() {
            // Quiescence with writes outstanding: every remaining send
            // waits (transitively) on a dropped write. Diagnosed below.
            break;
        }
        let tol = 1e-9 * (1.0 + t_next.abs());
        let dt = t_next - t;

        // Flows whose predicted completion falls on t_next finish; the rest
        // advance by dt at their current rate. The in-place compaction is
        // stable, so the surviving flows' relative order — and with it the
        // fair-share tie-break order — matches the reference's rebuild.
        finished_sends.clear();
        flows_changed = false;
        let mut w = 0usize;
        for r in 0..active.len() {
            let mut f = active[r];
            if completion[r] <= t_next + tol {
                let src = st.src[f.send as usize] as usize;
                port_free[src] = t_next;
                rank_finish[src] = rank_finish[src].max(t_next);
                heap.push(
                    t_next + st.latency_us[f.send as usize],
                    Ev::Delivered(f.send),
                );
                finished_sends.push(f.send);
                flows_changed = true;
                if !cand_marked[src] {
                    cand_marked[src] = true;
                    cand_ranks.push(src as u32);
                }
            } else {
                f.remaining_bytes -= f.rate * dt;
                active[w] = f;
                flow_of_send[f.send as usize] = w as u32;
                w += 1;
            }
        }
        active.truncate(w);
        t = t_next;

        // Drain every timer event at (or numerically on) t; see the
        // reference implementation for why the clock follows the drained
        // event times.
        while let Some(et) = heap.peek_time() {
            if et > t + tol {
                break;
            }
            let (et, ev) = heap.pop().expect("peeked");
            t = t.max(et);
            match ev {
                Ev::Delivered(send) => {
                    // The sender's port was released no later than this
                    // event's timestamp (same-node sends stamp it at
                    // delivery time), so the rank is an eligibility
                    // candidate.
                    let src = st.src[send as usize] as usize;
                    if !cand_marked[src] {
                        cand_marked[src] = true;
                        cand_ranks.push(src as u32);
                    }
                    let d = st.dst[send as usize] as usize;
                    rank_finish[d] = rank_finish[d].max(t);
                    if st.reduce[send as usize] {
                        let start = compute_free[d].max(t);
                        let done = start + st.bytes[send as usize] / st.reduce_rates[d];
                        compute_free[d] = done;
                        heap.push(done, Ev::WriteDone(send));
                    } else {
                        heap.push(t, Ev::WriteDone(send));
                    }
                }
                Ev::WriteDone(send) => {
                    // Local moves release their sender's port at this
                    // event's timestamp.
                    let src = st.src[send as usize] as usize;
                    if !cand_marked[src] {
                        cand_marked[src] = true;
                        cand_ranks.push(src as u32);
                    }
                    // The payload is combined; the write becomes final once
                    // every chained predecessor write to its blocks is, and
                    // finalising it may cascade through deferred successors.
                    payload_ready[send as usize] = true;
                    if write_preds[send as usize] == 0 {
                        finish_stack.push(send);
                    }
                    while let Some(wr) = finish_stack.pop() {
                        let d = st.dst[wr as usize] as usize;
                        rank_finish[d] = rank_finish[d].max(t);
                        completed += 1;
                        for &dep in st.read_dependents(wr) {
                            read_deps[dep as usize] -= 1;
                            if read_deps[dep as usize] == 0 {
                                // The dependent may now be its rank's
                                // startable queue head.
                                let dep_src = st.src[dep as usize] as usize;
                                if !cand_marked[dep_src] {
                                    cand_marked[dep_src] = true;
                                    cand_ranks.push(dep_src as u32);
                                }
                            }
                        }
                        for &dep in st.write_dependents(wr) {
                            write_preds[dep as usize] -= 1;
                            if write_preds[dep as usize] == 0 && payload_ready[dep as usize] {
                                finish_stack.push(dep);
                            }
                        }
                    }
                }
            }
        }

        let new_start = active.len();
        // Candidate ranks must start in ascending rank order — the order
        // the reference's full 0..p scan pushes flows in.
        cand_ranks.sort_unstable();
        if start_eligible(
            st, t, cand_ranks, next_idx, port_free, read_deps, active, pending, dropped,
        ) {
            flows_changed = true;
        }
        for &r in cand_ranks.iter() {
            cand_marked[r as usize] = false;
        }
        cand_ranks.clear();
        for (et, ev) in pending.drain(..) {
            heap.push(et, ev);
        }
        if flows_changed {
            recompute_rates(
                st,
                active,
                finished_sends,
                new_start,
                link_flows,
                flow_of_send,
                link_dirty,
                flow_dirty,
                flow_fixed,
                assigned,
                comp_links,
                comp_flows,
                RefillScratch {
                    link_open,
                    link_epoch,
                    refill_heap,
                    refill_mark,
                    refill_touched,
                },
            );
            if let Some(probe) = probe.as_mut() {
                probe_buf.clear();
                probe_buf.extend(active.iter().map(|f| (f.send, f.rate)));
                probe(t, probe_buf);
            }
        }
        *peak = (*peak).max(active.len());
    }

    if !dropped.is_empty() {
        return Err(stall_report(
            schedule,
            plan,
            t,
            completed,
            num_sends,
            std::mem::take(dropped),
        ));
    }
    assert!(
        completed == num_sends,
        "simulation deadlock: {completed} of {num_sends} writes completed"
    );
    Ok(rank_finish.iter().copied().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FatTree, IdealFullMesh, Torus};
    use bine_sched::collectives::{allreduce, broadcast, AllreduceAlg, BroadcastAlg};
    use bine_sched::Schedule;

    /// Makespan of `sched` split into `chunks` pipeline chunks (1 =
    /// unsegmented), on a fresh arena.
    fn des_time_us(
        model: &CostModel,
        sched: &Schedule,
        chunks: usize,
        n: u64,
        topo: &dyn Topology,
        alloc: &Allocation,
    ) -> f64 {
        let compiled = sched.compile_segmented(chunks);
        SimRequest::new(model, &compiled, n, topo, alloc)
            .run()
            .makespan_us()
    }

    #[test]
    fn congestion_free_single_segment_matches_the_synchronous_model() {
        let p = 16;
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        for (sched, n) in [
            (allreduce(p, AllreduceAlg::RecursiveDoubling), 1u64 << 20),
            (allreduce(p, AllreduceAlg::BineLarge), 1 << 20),
            (
                broadcast(p, 0, BroadcastAlg::BinomialDistanceDoubling),
                4096,
            ),
        ] {
            let sync = model.time_us(&sched, n, &topo, &alloc);
            let des = des_time_us(&model, &sched, 1, n, &topo, &alloc);
            assert!(
                (des - sync).abs() <= 1e-9 * sync,
                "{}: DES {des} vs sync {sync}",
                sched.algorithm
            );
        }
    }

    #[test]
    fn pipelining_beats_the_barrier_model_under_multi_hop_forwarding() {
        // A segmented bine-large allreduce on an oversubscribed fat tree:
        // chunks let a rank forward chunk c while chunk c + 1 still arrives,
        // so the simulated pipelined time must beat the unsegmented one for
        // bandwidth-dominated vectors.
        let p = 32;
        let topo = FatTree::new(32, 4, 1);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let sched = allreduce(p, AllreduceAlg::BineLarge);
        let n = 64 << 20;
        let flat = des_time_us(&model, &sched, 1, n, &topo, &alloc);
        let piped = des_time_us(&model, &sched, 8, n, &topo, &alloc);
        assert!(
            piped < flat,
            "8-chunk pipeline {piped} should beat unsegmented {flat}"
        );
    }

    #[test]
    fn des_is_never_pessimistic_versus_the_barrier_on_an_ideal_network() {
        // Removing barriers can only help when no congestion exists.
        let p = 32;
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        for alg in AllreduceAlg::ALL {
            let sched = allreduce(p, alg);
            let sync = model.time_us(&sched, 1 << 16, &topo, &alloc);
            let des = des_time_us(&model, &sched, 1, 1 << 16, &topo, &alloc);
            assert!(
                des <= sync * (1.0 + 1e-9),
                "{}: DES {des} > sync {sync}",
                sched.algorithm
            );
        }
    }

    #[test]
    fn report_counts_messages_and_flows() {
        let p = 8;
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let sched = allreduce(p, AllreduceAlg::RecursiveDoubling);
        let report = SimRequest::new(&model, &sched.compile(), 1024, &topo, &alloc)
            .run()
            .into_report();
        // 3 steps of 8 simultaneous exchanges.
        assert_eq!(report.network_messages, 24);
        assert_eq!(report.peak_active_flows, 8);
        assert_eq!(report.rank_finish_us.len(), p);
        assert!(report.makespan_us > 0.0);
    }

    #[test]
    fn optimized_report_is_bit_identical_to_the_reference() {
        let p = 16;
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        let sched = allreduce(p, AllreduceAlg::BineLarge).segmented(4);
        let compiled = sched.compile();
        for topo in [
            Box::new(FatTree::new(p, 4, 1)) as Box<dyn Topology>,
            Box::new(Torus::new(vec![4, 4])),
            Box::new(IdealFullMesh::new(p)),
        ] {
            let reference = SimRequest::new(&model, &compiled, 1 << 20, topo.as_ref(), &alloc)
                .reference()
                .run()
                .into_report();
            let fast = SimRequest::new(&model, &compiled, 1 << 20, topo.as_ref(), &alloc)
                .run()
                .into_report();
            assert_eq!(reference.makespan_us.to_bits(), fast.makespan_us.to_bits());
            assert_eq!(reference.network_messages, fast.network_messages);
            assert_eq!(reference.peak_active_flows, fast.peak_active_flows);
            for (a, b) in reference.rank_finish_us.iter().zip(&fast.rank_finish_us) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn faults_slow_the_congestion_free_simulation_deterministically() {
        // On an ideal full mesh no flows ever share a link, so fault effects
        // are monotone: halving every link's bandwidth doubles each flow's
        // serialisation, and a straggling rank only delays its own chain.
        let p = 16;
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let compiled = allreduce(p, AllreduceAlg::RecursiveDoubling).compile();
        let n = 1u64 << 20;
        let healthy = SimRequest::new(&model, &compiled, n, &topo, &alloc)
            .run()
            .into_report();

        let mut degraded_plan = crate::fault::FaultPlan::none();
        for l in 0..topo.num_links() {
            degraded_plan = degraded_plan.degrade_link(l, 0.5);
        }
        let faulted = |plan: &FaultPlan| {
            SimRequest::new(&model, &compiled, n, &topo, &alloc)
                .faults(plan)
                .run()
                .into_report()
        };
        let degraded = faulted(&degraded_plan);
        assert!(
            degraded.makespan_us > healthy.makespan_us,
            "halved links: {} should exceed healthy {}",
            degraded.makespan_us,
            healthy.makespan_us
        );
        let again = faulted(&degraded_plan);
        assert_eq!(degraded.makespan_us.to_bits(), again.makespan_us.to_bits());

        let straggler_plan = crate::fault::FaultPlan::none().straggler(3, 4.0);
        let straggled = faulted(&straggler_plan);
        assert!(
            straggled.makespan_us > healthy.makespan_us,
            "straggler: {} should exceed healthy {}",
            straggled.makespan_us,
            healthy.makespan_us
        );
    }

    #[test]
    fn switching_fault_plans_revalidates_the_cached_statics() {
        // One arena alternating between plans (including back to zero-fault)
        // must match fresh-arena runs bit for bit — the plan participates in
        // cache validation exactly like the topology does.
        let p = 16;
        let topo = FatTree::new(p, 4, 1);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let compiled = allreduce(p, AllreduceAlg::BineLarge).compile();
        let n = 1u64 << 20;
        let plan_a = crate::fault::FaultPlan::none()
            .degrade_link(0, 0.5)
            .spike_link(1, 5.0);
        let plan_b = crate::fault::FaultPlan::none().straggler(0, 2.0);
        let zero = crate::fault::FaultPlan::none();
        let mut arena = SimArena::new();
        for plan in [&plan_a, &plan_b, &zero, &plan_a, &zero] {
            let fresh = SimRequest::new(&model, &compiled, n, &topo, &alloc)
                .faults(plan)
                .run()
                .into_report();
            let reused = SimRequest::new(&model, &compiled, n, &topo, &alloc)
                .arena(&mut arena)
                .faults(plan)
                .run()
                .into_report();
            assert_eq!(fresh.makespan_us.to_bits(), reused.makespan_us.to_bits());
            assert_eq!(fresh, reused);
        }
        // And the plain entry point equals the zero plan on the same arena.
        let bare = SimRequest::new(&model, &compiled, n, &topo, &alloc)
            .arena(&mut arena)
            .run()
            .into_report();
        let zeroed = SimRequest::new(&model, &compiled, n, &topo, &alloc)
            .faults(&zero)
            .run()
            .into_report();
        assert_eq!(bare.makespan_us.to_bits(), zeroed.makespan_us.to_bits());
    }

    #[test]
    fn arena_reuse_across_schedules_and_topologies_stays_bit_identical() {
        // One arena simulating interleaved (schedule, topology) contexts —
        // including the same compiled schedule on two different topologies,
        // which must invalidate and rebuild the cached routes — matches
        // fresh-arena runs bit for bit.
        let p = 16;
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        let a = allreduce(p, AllreduceAlg::BineLarge).compile();
        let b = broadcast(p, 3, BroadcastAlg::BineTree).compile();
        let fat = FatTree::new(p, 4, 1);
        let mesh = IdealFullMesh::new(p);
        let mut arena = SimArena::new();
        let runs: Vec<(&CompiledSchedule, &dyn Topology, u64)> = vec![
            (&a, &fat, 1 << 20),
            (&b, &fat, 4096),
            (&a, &mesh, 1 << 20),
            (&a, &fat, 1 << 16),
            (&a, &fat, 1 << 20),
        ];
        for (sched, topo, n) in runs {
            let fresh = SimRequest::new(&model, sched, n, topo, &alloc)
                .run()
                .into_report();
            let reused = SimRequest::new(&model, sched, n, topo, &alloc)
                .arena(&mut arena)
                .run()
                .into_report();
            assert_eq!(fresh.makespan_us.to_bits(), reused.makespan_us.to_bits());
            assert_eq!(fresh, reused);
        }
        assert!(arena.cached_schedules() >= 2);
        arena.clear();
        assert_eq!(arena.cached_schedules(), 0);
    }

    #[test]
    fn a_crashed_rank_stalls_the_tree_with_a_typed_diagnosis() {
        // Killing rank 1 at t = 0 beheads its whole subtree of the binomial
        // broadcast: the sim must go quiescent and return Stalled with the
        // validator's exact stall cut instead of hanging.
        let p = 16;
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let compiled = broadcast(p, 0, BroadcastAlg::BinomialDistanceDoubling).compile();
        let plan = crate::fault::FaultPlan::none().crash_rank(1, 0.0);
        let outcome = SimRequest::new(&model, &compiled, 1 << 16, &topo, &alloc)
            .faults(&plan)
            .run();
        assert!(outcome.is_stalled());
        assert_eq!(outcome.try_makespan(), None);
        let stall = outcome.stall().expect("stalled");
        assert_eq!(stall.dead_ranks, vec![1]);
        assert!(stall.completed_writes < stall.total_writes);
        assert!(!stall.dropped_sends.is_empty());
        // The diagnosis partitions the survivors exactly: ranks outside the
        // dead subtree finish, the subtree stalls, and together with the
        // dead rank they cover 0..p.
        assert!(!stall.diagnosis.stalled.is_empty());
        assert_eq!(
            stall.diagnosis.completed.len() + stall.diagnosis.stalled.len() + 1,
            p
        );
        assert!(stall
            .diagnosis
            .undeliverable
            .iter()
            .any(|r| r.reason == bine_sched::StallReason::Crashed));
    }

    #[test]
    fn stalled_runs_are_bit_identical_between_optimized_and_reference() {
        // The whole stall report — quiescence time, drop set, diagnosis —
        // must match between the two implementations, on a congested
        // topology and for both a rank crash and a severed link.
        let p = 16;
        let topo = FatTree::new(p, 4, 1);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let compiled = allreduce(p, AllreduceAlg::BineLarge).segmented(4).compile();
        let plans = [
            crate::fault::FaultPlan::none().crash_rank(3, 40.0),
            crate::fault::FaultPlan::none().down_link(0, 25.0),
            crate::fault::FaultPlan::none()
                .crash_rank(0, 10.0)
                .degrade_link(1, 0.5),
        ];
        for plan in &plans {
            let fast = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
                .faults(plan)
                .run();
            let reference = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
                .faults(plan)
                .reference()
                .run();
            let fast = fast.stall().expect("crash plan must stall");
            let reference = reference.stall().expect("crash plan must stall");
            assert_eq!(fast.time_us.to_bits(), reference.time_us.to_bits());
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn a_crash_after_completion_reproduces_the_healthy_run_exactly() {
        // A crash scheduled later than every send's eligibility moment never
        // drops anything; the run must complete with the healthy bits (the
        // kill-time comparison adds no floating-point arithmetic).
        let p = 16;
        let topo = FatTree::new(p, 4, 1);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let compiled = allreduce(p, AllreduceAlg::BineLarge).compile();
        let healthy = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
            .run()
            .into_report();
        let plan = crate::fault::FaultPlan::none().crash_rank(5, 1e12);
        let late = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
            .faults(&plan)
            .run();
        assert!(!late.is_stalled());
        let late = late.into_report();
        assert_eq!(healthy.makespan_us.to_bits(), late.makespan_us.to_bits());
        assert_eq!(healthy, late);
    }

    #[test]
    fn arenas_revalidate_across_crash_plans_and_back_to_healthy() {
        // One arena alternating crash plan → zero plan → crash plan must
        // match fresh-arena runs exactly, including identical stall reports.
        let p = 16;
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let compiled = allreduce(p, AllreduceAlg::RecursiveDoubling).compile();
        let crash = crate::fault::FaultPlan::none().crash_rank(3, 0.0);
        let zero = crate::fault::FaultPlan::none();
        let mut arena = SimArena::new();
        for plan in [&crash, &zero, &crash, &zero] {
            let fresh = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
                .faults(plan)
                .run();
            let reused = SimRequest::new(&model, &compiled, 1 << 20, &topo, &alloc)
                .faults(plan)
                .arena(&mut arena)
                .run();
            match (fresh, reused) {
                (
                    SimOutcome::Completed {
                        makespan_us: a,
                        report: ra,
                    },
                    SimOutcome::Completed {
                        makespan_us: b,
                        report: rb,
                    },
                ) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                    assert_eq!(ra, rb);
                }
                (SimOutcome::Stalled(a), SimOutcome::Stalled(b)) => assert_eq!(a, b),
                (a, b) => panic!("outcome shapes diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn vector_size_sweeps_reuse_the_cached_routes() {
        let p = 16;
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        let topo = FatTree::new(p, 4, 1);
        let compiled = allreduce(p, AllreduceAlg::BineLarge).compile();
        let mut arena = SimArena::new();
        for n in [1u64 << 10, 1 << 20, 1 << 24, 1 << 20] {
            let fresh = SimRequest::new(&model, &compiled, n, &topo, &alloc)
                .run()
                .into_report();
            let reused = SimRequest::new(&model, &compiled, n, &topo, &alloc)
                .arena(&mut arena)
                .time_only()
                .run()
                .makespan_us();
            assert_eq!(fresh.makespan_us.to_bits(), reused.to_bits());
        }
        assert_eq!(arena.cached_schedules(), 1);
    }
}
