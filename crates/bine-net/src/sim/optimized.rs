//! The optimized implementation: arena-backed state, cached statics and the
//! incremental fair share, pinned bit-identical to [`super::reference`].

use std::collections::HashMap;

use crate::event::EventQueue;

use super::fairshare::FairShare;
use super::request::{stall_report, Inputs, RateProbe, SimReport, StallReport};
use super::statics::{build_static, CachedStatic, StaticScratch};
use super::{refill, Ev, Flow};

/// The mutable per-run state, reused across simulations.
#[derive(Default)]
struct Scratch {
    // Dynamic copies of the dependency graph's in-degrees.
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
    fair: FairShare,
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
/// dependency graph) keyed by [`CompiledSchedule::identity`].
///
/// Owning one arena across a sweep makes repeated simulations allocate
/// nothing after warmup (pinned by `tests/arena_alloc.rs`); results are
/// bit-identical to fresh-arena and reference runs regardless of what was
/// simulated before.
///
/// [`CompiledSchedule::identity`]: bine_sched::CompiledSchedule::identity
#[derive(Default)]
pub struct SimArena {
    cache: HashMap<u64, CachedStatic>,
    statics: StaticScratch,
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

    /// The [`SimReport`] of the run this arena simulated last.
    pub(super) fn report(&self, makespan_us: f64) -> SimReport {
        SimReport {
            makespan_us,
            rank_finish_us: self.scratch.rank_finish.clone(),
            network_messages: self.scratch.network_messages,
            peak_active_flows: self.scratch.peak,
        }
    }
}

impl Scratch {
    /// Per-run state reset (capacity retained across runs).
    fn reset(&mut self, st: &CachedStatic) {
        let p = st.deps.num_ranks();
        let num_sends = st.deps.num_sends();
        self.read_deps.clear();
        self.read_deps.extend_from_slice(st.deps.read_indegrees());
        self.write_preds.clear();
        self.write_preds
            .extend_from_slice(st.deps.write_indegrees());
        refill(&mut self.payload_ready, num_sends, false);
        refill(&mut self.next_idx, p, 0);
        refill(&mut self.port_free, p, 0.0);
        refill(&mut self.compute_free, p, 0.0);
        refill(&mut self.rank_finish, p, 0.0);
        self.active.clear();
        self.heap.clear();
        self.finish_stack.clear();
        self.pending.clear();
        self.finished_sends.clear();
        self.dropped.clear();
        // One send port per rank: at most `p` flows in flight.
        self.fair.reset(st.link_cap.len(), num_sends, p);
        self.completion.clear();
        self.cand_ranks.clear();
        refill(&mut self.cand_marked, p, false);
        self.peak = 0;
        self.network_messages = st.network_messages;
    }

    /// Marks `rank` as an eligibility candidate of the current event.
    #[inline]
    fn candidate(&mut self, rank: usize) {
        if !self.cand_marked[rank] {
            self.cand_marked[rank] = true;
            self.cand_ranks.push(rank as u32);
        }
    }

    /// Starts every eligible send of the candidate ranks at time `t`: local
    /// moves and same-node sends become timer events in `pending` (drained
    /// into the heap by the caller, preserving FIFO order), network sends
    /// become flows. Returns whether a flow was added (rates must then be
    /// recomputed).
    ///
    /// The candidates must be in ascending rank order — the reference scans
    /// ranks `0..p`, and the order flows are pushed in is the fair-share
    /// tie-break order. Eligibility only ever *arises* from a port release
    /// or a read dependency completing, and both coincide with an event, so
    /// the caller can visit just the ranks an event touched instead of
    /// rescanning all `p`.
    fn start_eligible(&mut self, st: &CachedStatic, t: f64) -> bool {
        let mut flows_changed = false;
        for &r in &self.cand_ranks {
            let r = r as usize;
            let queue = st.deps.rank_sends(r);
            while (self.next_idx[r] as usize) < queue.len() {
                let send = queue[self.next_idx[r] as usize];
                if self.read_deps[send as usize] != 0 || self.port_free[r] > t {
                    break;
                }
                self.next_idx[r] += 1;
                if t >= st.kill_time[send as usize] {
                    // Fail-stop: the send never starts — no port occupancy,
                    // no event — mirroring the reference drop.
                    self.dropped.push(send);
                    continue;
                }
                if st.local[send as usize] {
                    let done = t + st.bytes[send as usize] / st.copy_rates[r];
                    self.port_free[r] = done;
                    self.pending.push((done, Ev::WriteDone(send)));
                } else if st.links(send).is_empty() {
                    // Distinct ranks on the same node: only the software
                    // overhead applies, matching the synchronous model.
                    let done = t + st.latency_us[send as usize];
                    self.port_free[r] = done;
                    self.pending.push((done, Ev::Delivered(send)));
                } else {
                    // The port stays busy until the payload is serialised
                    // (flow completion sets it).
                    self.port_free[r] = f64::INFINITY;
                    self.active.push(Flow {
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

    /// Reassigns the rates after the flows from active index `new_start` on
    /// arrived and `finished_sends` left, and reports them to the probe.
    fn rates_changed(
        &mut self,
        st: &CachedStatic,
        t: f64,
        new_start: usize,
        probe: &mut Option<RateProbe<'_>>,
    ) {
        self.fair
            .recompute(st, &mut self.active, &self.finished_sends, new_start);
        if let Some(probe) = probe.as_mut() {
            self.probe_buf.clear();
            self.probe_buf
                .extend(self.active.iter().map(|f| (f.send, f.rate)));
            probe(t, &self.probe_buf);
        }
    }
}

/// Runs `inputs` on `arena`; the makespan, or the stall diagnosis.
pub(super) fn run(
    arena: &mut SimArena,
    inputs: &Inputs<'_>,
    mut probe: Option<RateProbe<'_>>,
) -> Result<f64, Box<StallReport>> {
    // ---- Cache lookup / rebuild of the static resolution. ------------------
    let key = inputs.schedule.identity();
    let rebuild = match arena.cache.get(&key) {
        Some(entry) => !entry.matches(inputs),
        None => true,
    };
    if rebuild {
        arena
            .cache
            .insert(key, build_static(inputs, &mut arena.statics));
    }
    let entry = arena.cache.get_mut(&key).expect("just ensured");
    entry.ensure_bytes(inputs.schedule, inputs.n);
    let st: &CachedStatic = entry;
    let sc = &mut arena.scratch;
    sc.reset(st);

    let p = st.deps.num_ranks();
    let num_sends = st.deps.num_sends();
    let mut t = 0.0f64;
    let mut completed = 0usize;

    // ---- Initial ready-send seeding (bulk heap insert). --------------------
    sc.cand_ranks.extend(0..p as u32);
    let mut flows_changed = sc.start_eligible(st, t);
    sc.cand_ranks.clear();
    sc.heap.push_many(sc.pending.drain(..));
    if flows_changed {
        sc.rates_changed(st, t, 0, &mut probe);
    }
    sc.peak = sc.peak.max(sc.active.len());

    // ---- Event loop (identical float semantics to the reference). ----------
    while completed + sc.dropped.len() < num_sends {
        // Next event: earliest flow completion or queued timer. The
        // per-flow completion times are stashed so the compaction pass below
        // reuses the same bits instead of paying the division again.
        sc.completion.clear();
        let mut t_flow = f64::INFINITY;
        for f in sc.active.iter() {
            let c = t + f.remaining_bytes / f.rate;
            sc.completion.push(c);
            t_flow = t_flow.min(c);
        }
        let t_next = t_flow.min(sc.heap.peek_time().unwrap_or(f64::INFINITY));
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
        sc.finished_sends.clear();
        flows_changed = false;
        let mut w = 0usize;
        for r in 0..sc.active.len() {
            let mut f = sc.active[r];
            if sc.completion[r] <= t_next + tol {
                let src = st.src[f.send as usize] as usize;
                sc.port_free[src] = t_next;
                sc.rank_finish[src] = sc.rank_finish[src].max(t_next);
                sc.heap.push(
                    t_next + st.latency_us[f.send as usize],
                    Ev::Delivered(f.send),
                );
                sc.finished_sends.push(f.send);
                flows_changed = true;
                sc.candidate(src);
            } else {
                f.remaining_bytes -= f.rate * dt;
                sc.active[w] = f;
                sc.fair.moved(f.send, w);
                w += 1;
            }
        }
        sc.active.truncate(w);
        t = t_next;

        // Drain every timer event at (or numerically on) t; see the
        // reference implementation for why the clock follows the drained
        // event times.
        while let Some(et) = sc.heap.peek_time() {
            if et > t + tol {
                break;
            }
            let (et, ev) = sc.heap.pop().expect("peeked");
            t = t.max(et);
            match ev {
                Ev::Delivered(send) => {
                    // The sender's port was released no later than this
                    // event's timestamp (same-node sends stamp it at
                    // delivery time), so the rank is an eligibility
                    // candidate.
                    sc.candidate(st.src[send as usize] as usize);
                    let d = st.dst[send as usize] as usize;
                    sc.rank_finish[d] = sc.rank_finish[d].max(t);
                    if st.reduce[send as usize] {
                        let start = sc.compute_free[d].max(t);
                        let done = start + st.bytes[send as usize] / st.reduce_rates[d];
                        sc.compute_free[d] = done;
                        sc.heap.push(done, Ev::WriteDone(send));
                    } else {
                        sc.heap.push(t, Ev::WriteDone(send));
                    }
                }
                Ev::WriteDone(send) => {
                    // Local moves release their sender's port at this
                    // event's timestamp.
                    sc.candidate(st.src[send as usize] as usize);
                    // The payload is combined; the write becomes final once
                    // every chained predecessor write to its blocks is, and
                    // finalising it may cascade through deferred successors.
                    sc.payload_ready[send as usize] = true;
                    if sc.write_preds[send as usize] == 0 {
                        sc.finish_stack.push(send);
                    }
                    while let Some(wr) = sc.finish_stack.pop() {
                        let d = st.dst[wr as usize] as usize;
                        sc.rank_finish[d] = sc.rank_finish[d].max(t);
                        completed += 1;
                        for &dep in st.deps.read_dependents(wr) {
                            sc.read_deps[dep as usize] -= 1;
                            if sc.read_deps[dep as usize] == 0 {
                                // The dependent may now be its rank's
                                // startable queue head.
                                sc.candidate(st.src[dep as usize] as usize);
                            }
                        }
                        for &dep in st.deps.write_dependents(wr) {
                            sc.write_preds[dep as usize] -= 1;
                            if sc.write_preds[dep as usize] == 0 && sc.payload_ready[dep as usize] {
                                sc.finish_stack.push(dep);
                            }
                        }
                    }
                }
            }
        }

        let new_start = sc.active.len();
        // Candidate ranks must start in ascending rank order — the order
        // the reference's full 0..p scan pushes flows in.
        sc.cand_ranks.sort_unstable();
        if sc.start_eligible(st, t) {
            flows_changed = true;
        }
        for &r in sc.cand_ranks.iter() {
            sc.cand_marked[r as usize] = false;
        }
        sc.cand_ranks.clear();
        for (et, ev) in sc.pending.drain(..) {
            sc.heap.push(et, ev);
        }
        if flows_changed {
            sc.rates_changed(st, t, new_start, &mut probe);
        }
        sc.peak = sc.peak.max(sc.active.len());
    }

    if !sc.dropped.is_empty() {
        let dropped = std::mem::take(&mut sc.dropped);
        return Err(stall_report(inputs, t, completed, dropped));
    }
    assert!(
        completed == num_sends,
        "simulation deadlock: {completed} of {num_sends} writes completed"
    );
    Ok(sc.rank_finish.iter().copied().fold(0.0, f64::max))
}
