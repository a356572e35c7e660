//! The reference implementation: the executable specification the optimized
//! path is pinned bit-identical against.
//!
//! It runs on the same static resolution ([`build_static`], rebuilt on every
//! call) and owns what makes it the specification: the event loop below,
//! with every rank rescanned after every event, and a global max–min fair
//! share recomputed from scratch over fresh `BTreeMap`s at every rate event.
//! No arena, no incremental state — deliberately simple, and slow.

use std::collections::BTreeMap;

use crate::event::EventQueue;

use super::request::{stall_report, Inputs, RateProbe, SimReport, StallReport};
use super::statics::{build_static, StaticScratch};
use super::{Ev, Flow, Tiers};
use crate::topology::LinkId;

/// Simulates `inputs` from scratch; the full report, or the stall diagnosis.
pub(super) fn run(
    inputs: &Inputs<'_>,
    mut probe: Option<RateProbe<'_>>,
) -> Result<SimReport, Box<StallReport>> {
    let mut st = build_static(inputs, &mut StaticScratch::default());
    st.ensure_bytes(inputs.schedule, inputs.n);
    let st = &st;
    let p = st.deps.num_ranks();
    let num_sends = st.deps.num_sends();

    // ---- Event loop. -------------------------------------------------------
    let mut t = 0.0f64;
    let mut read_deps_remaining = st.deps.read_indegrees().to_vec();
    let mut write_preds_remaining = st.deps.write_indegrees().to_vec();
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
    let mut tiers = Tiers::default();
    // Worklist for cascading write completions (avoids recursion).
    let mut finish_stack: Vec<u32> = Vec::new();
    // Sends refused because their kill time had passed when they became
    // eligible. They count toward loop termination — their writes never
    // happen — and a non-empty list at quiescence is a stall.
    let mut dropped: Vec<u32> = Vec::new();

    // Max–min fair-share (progressive filling): repeatedly find the link
    // with the smallest fair share among its unassigned flows, fix those
    // flows at that rate, subtract, repeat. Deterministic: links iterate in
    // machine id order. Every map is keyed by machine link id, never by the
    // job-local id the optimized path breaks ties on, so agreement between
    // the two also checks the local numbering.
    let capacity: BTreeMap<u32, f64> = (0..st.link_cap.len())
        .map(|l| (st.machine_link(l as u32), st.link_cap[l]))
        .collect();
    let assign_rates = |active: &mut Vec<Flow>| {
        if active.is_empty() {
            return;
        }
        let mut link_flows: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (fi, f) in active.iter().enumerate() {
            for &l in st.links(f.send) {
                link_flows.entry(st.machine_link(l)).or_default().push(fi);
            }
        }
        let mut assigned: BTreeMap<u32, f64> = BTreeMap::new();
        let mut fixed = vec![false; active.len()];
        let mut unfixed = active.len();
        while unfixed > 0 {
            let mut bottleneck: Option<(f64, u32)> = None;
            for (&l, flows) in &link_flows {
                let open = flows.iter().filter(|&&fi| !fixed[fi]).count();
                if open == 0 {
                    continue;
                }
                let taken = assigned.get(&l).copied().unwrap_or(0.0);
                let headroom = (capacity[&l] - taken).max(0.0);
                let fair = headroom / open as f64;
                if bottleneck.is_none_or(|(best, _)| fair < best) {
                    bottleneck = Some((fair, l));
                }
            }
            let (fair, l) = bottleneck.expect("every flow traverses at least one link");
            // Numerical floor: keeps the loop terminating even when FP
            // cancellation leaves a link marginally oversubscribed.
            let fair = fair.max(capacity[&l] * 1e-12);
            for fi in link_flows[&l].clone() {
                if fixed[fi] {
                    continue;
                }
                fixed[fi] = true;
                unfixed -= 1;
                active[fi].rate = fair;
                for &l2 in st.links(active[fi].send) {
                    *assigned.entry(st.machine_link(l2)).or_insert(0.0) += fair;
                }
            }
        }
    };

    // Whether a flow arrived or left since the rates were last assigned.
    let mut flows_changed = false;
    loop {
        // Start every eligible send at time `t`, rescanning every rank.
        // Sends whose kill time has passed are dropped instead of started:
        // no port occupancy, no event.
        for r in 0..p {
            let queue = st.deps.rank_sends(r);
            while next_idx[r] < queue.len() {
                let send = queue[next_idx[r]];
                if read_deps_remaining[send as usize] != 0 || port_free[r] > t {
                    break;
                }
                let bytes = st.bytes[send as usize];
                next_idx[r] += 1;
                if t >= st.kill_time[send as usize] {
                    dropped.push(send);
                    continue;
                }
                if st.local[send as usize] {
                    let done = t + bytes / st.copy_rates[r];
                    port_free[r] = done;
                    heap.push(done, Ev::WriteDone(send));
                } else if st.links(send).is_empty() {
                    // Distinct ranks on the same node: only the software
                    // overhead applies, matching the synchronous model.
                    port_free[r] = t + st.latency_us[send as usize];
                    heap.push(t + st.latency_us[send as usize], Ev::Delivered(send));
                } else {
                    // The port stays busy until the payload is serialised
                    // (flow completion sets it).
                    port_free[r] = f64::INFINITY;
                    active.push(Flow {
                        send,
                        remaining_bytes: bytes,
                        rate: 0.0,
                    });
                    flows_changed = true;
                }
            }
        }
        if flows_changed {
            assign_rates(&mut active);
            if let Some(probe) = probe.as_mut() {
                let snapshot: Vec<(u32, f64)> = active.iter().map(|f| (f.send, f.rate)).collect();
                probe(t, &snapshot);
            }
        }
        peak_active_flows = peak_active_flows.max(active.len());
        if completed + dropped.len() >= num_sends {
            break;
        }

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
        flows_changed = false;
        for mut f in active.drain(..) {
            let completion = t + f.remaining_bytes / f.rate;
            if completion <= t_next + tol {
                // Counted when the flow completes, with the link classes
                // the topology reports for the machine links it crossed.
                let send = f.send as usize;
                let global = inputs.crosses_groups(st.src[send], st.dst[send]);
                let classes = st
                    .links(f.send)
                    .iter()
                    .map(|&l| inputs.topo.link(st.machine_link(l) as LinkId).class);
                tiers.add(st.bytes[send], global, classes);
                let src = st.src[send] as usize;
                port_free[src] = t_next;
                rank_finish[src] = rank_finish[src].max(t_next);
                heap.push(
                    t_next + st.latency_us[f.send as usize],
                    Ev::Delivered(f.send),
                );
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
        // the start scan at the top of the loop must see that port as free
        // or the rank could sleep forever.
        while let Some(et) = heap.peek_time() {
            if et > t + tol {
                break;
            }
            let (et, ev) = heap.pop().expect("peeked");
            t = t.max(et);
            match ev {
                Ev::Delivered(send) => {
                    let dst = st.dst[send as usize] as usize;
                    rank_finish[dst] = rank_finish[dst].max(t);
                    if st.reduce[send as usize] {
                        let start = compute_free[dst].max(t);
                        let done = start + st.bytes[send as usize] / st.reduce_rates[dst];
                        compute_free[dst] = done;
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
                        let dst = st.dst[w as usize] as usize;
                        rank_finish[dst] = rank_finish[dst].max(t);
                        completed += 1;
                        for &d in st.deps.read_dependents(w) {
                            read_deps_remaining[d as usize] -= 1;
                        }
                        for &d in st.deps.write_dependents(w) {
                            write_preds_remaining[d as usize] -= 1;
                            if write_preds_remaining[d as usize] == 0 && payload_ready[d as usize] {
                                finish_stack.push(d);
                            }
                        }
                    }
                }
            }
        }
    }

    if !dropped.is_empty() {
        return Err(stall_report(inputs, t, completed, dropped));
    }
    assert!(
        completed == num_sends,
        "simulation deadlock: {completed} of {num_sends} writes completed"
    );
    let makespan_us = rank_finish.iter().copied().fold(0.0, f64::max);
    Ok(SimReport {
        makespan_us,
        rank_finish_us: rank_finish,
        network_messages: st.network_messages,
        global_bytes: tiers.global_bytes,
        local_link_bytes: tiers.local_link_bytes,
        global_link_bytes: tiers.global_link_bytes,
        peak_active_flows,
    })
}
