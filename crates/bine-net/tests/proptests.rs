//! Property tests for the cost model and the discrete-event simulator.
//!
//! The two time models are pinned against each other and against the
//! alpha–beta closed form in the regime where all three must coincide: the
//! **one-segment, congestion-free limit** (an [`IdealFullMesh`], where no
//! two messages ever share a link). Outside that limit the DES may only be
//! *faster* than the synchronous barrier model on an ideal network — it
//! removes barriers, never adds work.

use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::fault::{FaultPlan, FaultSpec};
use bine_net::sim::{SimArena, SimRequest};
use bine_net::topology::{Dragonfly, FatTree, IdealFullMesh, Topology, Torus};
use bine_net::traffic;

#[path = "../../../tests/support/walk.rs"]
mod walk;

use bine_sched::catalog::Source;
use bine_sched::{build, Collective, ProviderSet};
use proptest::prelude::*;
use walk::Walk;

/// A balanced torus shape with `p = 2^s` nodes (the third topology class the
/// optimized simulator is pinned on, beside the fat tree and the ideal mesh).
fn torus_dims(p: usize) -> Vec<usize> {
    let mut dims = vec![1usize; 3];
    let mut rest = p;
    let mut d = 0;
    while rest > 1 {
        dims[d % 3] *= 2;
        rest /= 2;
        d += 1;
    }
    dims
}

/// An index into the walk (see [`WALK`]).
fn any_draw() -> impl Strategy<Value = usize> {
    0usize..1 << 30
}

/// The walk of the catalog over p ∈ {4, 8, 16, 32}, kept to the bare regular
/// names at the roots where their rows build. A property draws a request
/// that its own filter keeps, with its schedule, and adds its own
/// segmentation on top.
static WALK: Walk = Walk::new(&[4, 8, 16, 32], |r| {
    matches!(r.source, Source::Regular(_)) && r.segments == 1 && r.must_build() == Some(true)
});

fn any_vector_bytes() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![
        32u64,
        1000,
        4096,
        65536,
        1 << 20,
        (8 << 20) + 17,
        64 << 20,
    ])
}

/// Algorithms whose ranks legitimately run ahead of the global barrier even
/// on an ideal network, so the DES is *faster* than the synchronous model
/// rather than equal to it (verified exhaustively over every root at
/// p ∈ {4..32}: the DES is never slower, see
/// [`des_never_exceeds_sync_on_an_ideal_network`]):
///
/// * `pairwise` alltoall sends pre-held data every step — no send depends on
///   any receive, so the whole schedule pipelines through the send ports;
/// * the `dual-root` allreduce runs its two interleaved trees concurrently —
///   a rank's reduce-side and broadcast-side sends of one step do not wait
///   for each other (the draw over the whole walk found it: 282 vs 564 us at
///   p = 16, 1 MiB);
/// * the rooted gather/scatter trees and the composed two-phase schedules
///   (`scatter-allgather`, `rs-gather` and their Bine variants) leave some
///   ranks idle for intermediate steps or mix per-message segment counts
///   within a step, so the per-step maximum the synchronous model charges is
///   not always on the dependency-driven critical path.
///
/// For everything else every rank's step-*t* sends are bound by its own
/// step-*t − 1* traffic, which is exactly the synchronous model's per-step
/// accounting — so DES time equals synchronous time to rounding error.
fn overlaps_even_without_congestion(collective: Collective, name: &str) -> bool {
    match collective {
        Collective::Alltoall => name == "pairwise",
        Collective::Allreduce => name == "dual-root",
        Collective::Broadcast => matches!(name, "scatter-allgather" | "bine-scatter-allgather"),
        Collective::Reduce => matches!(name, "rs-gather" | "bine-rs-gather"),
        Collective::Gather | Collective::Scatter => matches!(name, "bine" | "binomial-dh"),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Acceptance property: in the one-segment, congestion-free limit the
    // DES reproduces the synchronous model within 1e-9 relative error.
    #[test]
    fn des_equals_sync_in_the_congestion_free_single_segment_limit(
        draw in any_draw(),
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |r| !overlaps_even_without_congestion(r.collective, &r.name));
        let p = request.p;
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let sync = model.time_us(&sched, n, &topo, &alloc);
        let des = SimRequest::new(&model, &sched.compile(), n, &topo, &alloc)
            .time_only()
            .run()
            .makespan_us();
        prop_assert!(
            (des - sync).abs() <= 1e-9 * sync.max(1e-12),
            "{:?}/{} p={p} n={n}: DES {des} vs sync {sync}", request.collective, request.name
        );
    }

    // The compact byte-count summary path reproduces the full estimate
    // bit for bit: same u64 byte totals into the same f64 operations in
    // the same order, on congested topologies and segmented schedules
    // alike. The sweeps (heatmaps, tuning) rely on this equivalence.
    #[test]
    fn estimate_summary_is_bit_identical_to_estimate(
        draw in any_draw(),
        chunks in 1usize..=4,
        n in any_vector_bytes(),
    ) {
        use bine_net::cost::CostSummary;
        let (request, sched) = WALK.built(draw, |_| true);
        let p = request.p;
        let sched = sched.segmented(chunks);
        let model = CostModel::default();
        for topo in [
            Box::new(FatTree::new(p, 4, 1)) as Box<dyn Topology>,
            Box::new(Dragonfly::lumi()),
        ] {
            let alloc = Allocation::block(p);
            let full = model.estimate(&sched, n, topo.as_ref(), &alloc);
            let summary = CostSummary::of(&sched);
            let fast = model.estimate_summary(&summary, n, topo.as_ref(), &alloc);
            prop_assert_eq!(full.total_us.to_bits(), fast.total_us.to_bits());
            prop_assert_eq!(full.latency_us.to_bits(), fast.latency_us.to_bits());
            prop_assert_eq!(full.bandwidth_us.to_bits(), fast.bandwidth_us.to_bits());
            prop_assert_eq!(full.compute_us.to_bits(), fast.compute_us.to_bits());
        }
    }

    // On an ideal network the DES can only remove barrier waiting, never
    // add time — for any algorithm and any segmentation.
    #[test]
    fn des_never_exceeds_sync_on_an_ideal_network(
        draw in any_draw(),
        chunks in 1usize..=6,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |_| true);
        let p = request.p;
        let sched = sched.segmented(chunks);
        let topo = IdealFullMesh::new(p);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let sync = model.time_us(&sched, n, &topo, &alloc);
        let des = SimRequest::new(&model, &sched.compile(), n, &topo, &alloc)
            .time_only()
            .run()
            .makespan_us();
        prop_assert!(
            des <= sync * (1.0 + 1e-9),
            "{:?}/{} p={p} n={n} chunks={chunks}: DES {des} > sync {sync}", request.collective, request.name
        );
    }

    // Tentpole pin: the optimized simulator (incremental fair share, arena
    // state, cached routes) is bit-identical to the from-scratch reference —
    // same makespan bits, same per-rank finish bits, same message and
    // peak-flow counts — for every collective, any catalog algorithm, any
    // segmentation, on all three pinned topology classes (ideal full mesh,
    // torus, oversubscribed fat tree). Not tolerance-based: the incremental
    // recomputation must perform the same float ops per link.
    #[test]
    fn optimized_des_is_bit_identical_to_the_reference(
        draw in any_draw(),
        chunks in 1usize..=4,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |_| true);
        let p = request.p;
        let compiled = sched.segmented(chunks).compile();
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        let mut arena = SimArena::new();
        for topo in [
            Box::new(IdealFullMesh::new(p)) as Box<dyn Topology>,
            Box::new(Torus::new(torus_dims(p))),
            Box::new(FatTree::new(p, 4, 1)),
        ] {
            let reference = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .reference()
                .run()
                .into_report();
            let fast = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .run()
                .into_report();
            prop_assert_eq!(
                reference.makespan_us.to_bits(), fast.makespan_us.to_bits(),
                "{:?}/{} p={p} n={n} chunks={chunks} on {}: reference {} vs fast {}",
                request.collective, request.name, topo.name(), reference.makespan_us, fast.makespan_us
            );
            prop_assert_eq!(reference.network_messages, fast.network_messages);
            prop_assert_eq!(
                [reference.global_bytes, reference.local_link_bytes, reference.global_link_bytes],
                [fast.global_bytes, fast.local_link_bytes, fast.global_link_bytes]
            );
            // The satellite invariance check: overlap accounting is not
            // allowed to drift either.
            prop_assert_eq!(reference.peak_active_flows, fast.peak_active_flows);
            for (r, (a, b)) in reference.rank_finish_us.iter().zip(&fast.rank_finish_us).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?}/{} rank {r} finish: reference {} vs fast {}",
                    request.collective, request.name, a, b
                );
            }
        }
    }

    // Fault-injection pin 1 (satellite): a zero-fault plan — both the empty
    // plan and a plan whose entries are all explicit identities — leaves the
    // DES makespan, the per-rank finish times and `peak_active_flows`
    // bit-identical to the plan-free path, for every collective, any catalog
    // algorithm, any segmentation, on all three pinned topology classes.
    #[test]
    fn zero_fault_plan_is_bit_identical_to_no_plan(
        draw in any_draw(),
        chunks in 1usize..=4,
        n in any_vector_bytes(),
        identity_entries in prop::sample::select(vec![false, true]),
    ) {
        let (request, sched) = WALK.built(draw, |_| true);
        let p = request.p;
        let compiled = sched.segmented(chunks).compile();
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        let plan = if identity_entries {
            // Identity values spelled out explicitly: factor 1.0, spike
            // 0.0, slowdown 1.0 must all be bit-exact no-ops.
            let valid = "identity values are valid";
            let plan = FaultPlan::none().degrade_link(0, 1.0).expect(valid);
            let plan = plan.spike_link(1, 0.0).expect(valid);
            plan.straggler(p - 1, 1.0).expect(valid)
        } else {
            FaultPlan::none()
        };
        prop_assert!(plan.is_zero());
        let mut arena = SimArena::new();
        for topo in [
            Box::new(IdealFullMesh::new(p)) as Box<dyn Topology>,
            Box::new(Torus::new(torus_dims(p))),
            Box::new(FatTree::new(p, 4, 1)),
        ] {
            let bare = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .run()
                .into_report();
            let faulted = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .faults(&plan)
                .run()
                .into_report();
            prop_assert_eq!(
                bare.makespan_us.to_bits(), faulted.makespan_us.to_bits(),
                "{:?}/{} p={p} n={n} chunks={chunks} on {}: bare {} vs zero-fault {}",
                request.collective, request.name, topo.name(), bare.makespan_us, faulted.makespan_us
            );
            prop_assert_eq!(bare.network_messages, faulted.network_messages);
            prop_assert_eq!(bare.peak_active_flows, faulted.peak_active_flows);
            for (r, (a, b)) in bare.rank_finish_us.iter().zip(&faulted.rank_finish_us).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?}/{} rank {r} finish: bare {} vs zero-fault {}",
                    request.collective, request.name, a, b
                );
            }
            // The reference agrees under the same zero plan.
            let reference = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .reference()
                .faults(&plan)
                .run()
                .into_report();
            prop_assert_eq!(reference.makespan_us.to_bits(), faulted.makespan_us.to_bits());
        }
    }

    // Fault-injection pin 2 (tentpole): under a seeded fault plan —
    // asymmetric link capacities, latency spikes, stragglers — the optimized
    // path stays bit-identical to the reference. Asymmetric link speeds are
    // exactly what stresses the incremental fair-share rebuild: water-filling
    // levels now differ per link even on symmetric topologies.
    #[test]
    fn optimized_des_stays_pinned_to_the_reference_under_faults(
        draw in any_draw(),
        chunks in 1usize..=4,
        fault_seed in 0u64..1000,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |_| true);
        let p = request.p;
        let compiled = sched.segmented(chunks).compile();
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        // A harsh spec so faults are actually drawn at small link counts.
        let spec = FaultSpec {
            seed: fault_seed,
            degraded_link_fraction: 0.5,
            min_bandwidth_factor: 0.2,
            spiked_link_fraction: 0.25,
            max_latency_spike_us: 15.0,
            straggler_fraction: 0.25,
            max_compute_slowdown: 5.0,
        };
        let mut arena = SimArena::new();
        for topo in [
            Box::new(IdealFullMesh::new(p)) as Box<dyn Topology>,
            Box::new(Torus::new(torus_dims(p))),
            Box::new(FatTree::new(p, 4, 1)),
        ] {
            let plan = spec.plan(topo.num_links(), p).expect("a valid spec");
            let reference = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .reference()
                .faults(&plan)
                .run()
                .into_report();
            let fast = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .faults(&plan)
                .run()
                .into_report();
            prop_assert_eq!(
                reference.makespan_us.to_bits(), fast.makespan_us.to_bits(),
                "{:?}/{} p={p} n={n} chunks={chunks} seed={fault_seed} on {}: \
                 reference {} vs fast {}",
                request.collective, request.name, topo.name(), reference.makespan_us, fast.makespan_us
            );
            prop_assert_eq!(reference.network_messages, fast.network_messages);
            prop_assert_eq!(
                [reference.global_bytes, reference.local_link_bytes, reference.global_link_bytes],
                [fast.global_bytes, fast.local_link_bytes, fast.global_link_bytes]
            );
            prop_assert_eq!(reference.peak_active_flows, fast.peak_active_flows);
            for (r, (a, b)) in reference.rank_finish_us.iter().zip(&fast.rank_finish_us).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?}/{} rank {r} finish under faults: reference {} vs fast {}",
                    request.collective, request.name, a, b
                );
            }
        }
    }

    // Fault-injection pin 3: the incremental fair share equals the reference
    // at every rate event under faults too — the per-event analogue of the
    // report-level pin above, on the congested topology classes.
    #[test]
    fn incremental_rates_stay_pinned_under_faults(
        draw in any_draw(),
        fault_seed in 0u64..1000,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |r| r.p <= 16);
        let p = request.p;
        let compiled = sched.compile();
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        let spec = FaultSpec {
            seed: fault_seed,
            degraded_link_fraction: 0.5,
            min_bandwidth_factor: 0.2,
            spiked_link_fraction: 0.25,
            max_latency_spike_us: 15.0,
            straggler_fraction: 0.25,
            max_compute_slowdown: 5.0,
        };
        for topo in [
            Box::new(FatTree::new(p, 4, 1)) as Box<dyn Topology>,
            Box::new(Torus::new(torus_dims(p))),
        ] {
            let plan = spec.plan(topo.num_links(), p).expect("a valid spec");
            type Trace = Vec<(u64, Vec<(u32, u64)>)>;
            fn entry(t: f64, rates: &[(u32, f64)]) -> (u64, Vec<(u32, u64)>) {
                (
                    t.to_bits(),
                    rates.iter().map(|&(send, r)| (send, r.to_bits())).collect(),
                )
            }
            let mut ref_trace: Trace = Vec::new();
            let mut ref_probe = |t: f64, rates: &[(u32, f64)]| ref_trace.push(entry(t, rates));
            SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .reference()
                .faults(&plan)
                .probe(&mut ref_probe)
                .run();
            let mut fast_trace: Trace = Vec::new();
            let mut fast_probe = |t: f64, rates: &[(u32, f64)]| fast_trace.push(entry(t, rates));
            let mut arena = SimArena::new();
            SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .faults(&plan)
                .probe(&mut fast_probe)
                .run();
            prop_assert_eq!(ref_trace.len(), fast_trace.len());
            for (i, (a, b)) in ref_trace.iter().zip(&fast_trace).enumerate() {
                prop_assert_eq!(a.0, b.0, "faulted event {i}: time diverged");
                prop_assert_eq!(
                    &a.1, &b.1,
                    "{:?}/{} p={p} n={n} faulted event {i} at t={}: rates diverged",
                    request.collective, request.name, f64::from_bits(a.0)
                );
            }
        }
    }

    // The incremental fair share equals the reference fair share at *every*
    // rate event, not just in the final completion times: both simulators
    // are probed after each recomputation and must report the same event
    // times and the same (send, rate) bits for every in-flight flow.
    #[test]
    fn incremental_rates_equal_reference_rates_at_every_event(
        draw in any_draw(),
        chunks in 1usize..=4,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |_| true);
        let p = request.p;
        let compiled = sched.segmented(chunks).compile();
        let model = CostModel::default();
        let alloc = Allocation::block(p);
        // Congested topologies: flows share links, so components are
        // non-trivial and the incremental path actually exercises partial
        // recomputation.
        for topo in [
            Box::new(FatTree::new(p, 4, 1)) as Box<dyn Topology>,
            Box::new(Torus::new(torus_dims(p))),
        ] {
            type Trace = Vec<(u64, Vec<(u32, u64)>)>;
            fn entry(t: f64, rates: &[(u32, f64)]) -> (u64, Vec<(u32, u64)>) {
                (
                    t.to_bits(),
                    rates.iter().map(|&(send, r)| (send, r.to_bits())).collect(),
                )
            }
            let mut ref_trace: Trace = Vec::new();
            let mut ref_probe = |t: f64, rates: &[(u32, f64)]| ref_trace.push(entry(t, rates));
            SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .reference()
                .probe(&mut ref_probe)
                .run();
            let mut fast_trace: Trace = Vec::new();
            let mut fast_probe = |t: f64, rates: &[(u32, f64)]| fast_trace.push(entry(t, rates));
            let mut arena = SimArena::new();
            SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .probe(&mut fast_probe)
                .run();
            prop_assert_eq!(
                ref_trace.len(), fast_trace.len(),
                "{:?}/{} p={p}: {} reference rate events vs {} incremental",
                request.collective, request.name, ref_trace.len(), fast_trace.len()
            );
            for (i, (a, b)) in ref_trace.iter().zip(&fast_trace).enumerate() {
                prop_assert_eq!(a.0, b.0, "event {i}: time diverged");
                prop_assert_eq!(
                    &a.1, &b.1,
                    "{:?}/{} p={p} n={n} event {i} at t={}: rates diverged",
                    request.collective, request.name, f64::from_bits(a.0)
                );
            }
        }
    }

    // The simulator is deterministic: identical inputs give bit-identical
    // makespans (ties in the event queue resolve FIFO, fair-share rates
    // iterate links in id order).
    #[test]
    fn des_is_deterministic(
        draw in any_draw(),
        chunks in 1usize..=4,
        n in any_vector_bytes(),
    ) {
        let (request, sched) = WALK.built(draw, |r| r.p == 16);
        let p = request.p;
        let topo = FatTree::new(p, 4, 1);
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let compiled = sched.segmented(chunks).compile();
        let a = SimRequest::new(&model, &compiled, n, &topo, &alloc)
            .time_only()
            .run()
            .makespan_us();
        let b = SimRequest::new(&model, &compiled, n, &topo, &alloc)
            .time_only()
            .run()
            .makespan_us();
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", request.name);
    }

    // Synchronous-model time is monotone in the vector size on every
    // topology class (more bytes can never be modelled as faster).
    #[test]
    fn sync_time_is_monotone_in_vector_size(
        draw in any_draw(),
        topo_seed in 0usize..3,
        n1 in any_vector_bytes(),
        n2 in any_vector_bytes(),
    ) {
        let (lo, hi) = (n1.min(n2), n1.max(n2));
        let (request, sched) = WALK.built(draw, |r| r.p == 16);
        let p = request.p;
        let topo: Box<dyn Topology> = match topo_seed {
            0 => Box::new(Dragonfly::lumi()),
            1 => Box::new(FatTree::marenostrum5(320)),
            _ => Box::new(IdealFullMesh::new(p)),
        };
        let alloc = Allocation::block(p);
        let model = CostModel::default();
        let t_lo = model.time_us(&sched, lo, topo.as_ref(), &alloc);
        let t_hi = model.time_us(&sched, hi, topo.as_ref(), &alloc);
        prop_assert!(
            t_lo <= t_hi * (1.0 + 1e-12),
            "{}: time({lo}) = {t_lo} > time({hi}) = {t_hi}", request.name
        );
    }

    // Traffic accounting is invariant under segmentation: the pipelining
    // transform partitions blocks over more messages but moves exactly the
    // same bytes over exactly the same links.
    #[test]
    fn traffic_is_invariant_under_segmentation(
        draw in any_draw(),
        chunks in 2usize..=8,
        n in any_vector_bytes(),
        topo_seed in 0usize..2,
    ) {
        let (request, sched) = WALK.built(draw, |r| r.p == 32);
        let p = request.p;
        let seg = sched.segmented(chunks);
        let topo: Box<dyn Topology> = match topo_seed {
            0 => Box::new(Dragonfly::leonardo()),
            _ => Box::new(FatTree::new(p, 4, 1)),
        };
        let alloc = Allocation::block(p);
        let base = traffic::measure(&sched, n, topo.as_ref(), &alloc);
        let piped = traffic::measure(&seg, n, topo.as_ref(), &alloc);
        prop_assert_eq!(base.total_bytes, piped.total_bytes, "{}", request.name);
        prop_assert_eq!(base.global_bytes, piped.global_bytes, "{}", request.name);
        prop_assert_eq!(base.local_link_bytes, piped.local_link_bytes, "{}", request.name);
        prop_assert_eq!(base.global_link_bytes, piped.global_link_bytes, "{}", request.name);
        prop_assert_eq!(base.max_link_bytes, piped.max_link_bytes, "{}", request.name);
        prop_assert!(piped.messages >= base.messages, "{}", request.name);
        prop_assert!(piped.global_messages >= base.global_messages, "{}", request.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Synthesized schedules are tuned *by* the DES (the tuner's refinement
    // stage ranks them against the catalog), so the optimized simulator
    // must stay bit-identical to the reference on their tier-crossing,
    // irregular-fan-out shapes too — on the very fabric they are derived
    // for: the serving-layer view of the heterogeneous island fat tree.
    #[test]
    fn optimized_des_is_bit_identical_on_synthesized_schedules(
        nodes in prop::sample::select(vec![16usize, 24, 32]),
        collective_seed in 0usize..3,
        chunks in 1usize..=4,
        n in any_vector_bytes(),
    ) {
        let collective = [Collective::Broadcast, Collective::Reduce, Collective::Allreduce]
            [collective_seed];
        let view = bine_net::view::system_view("heterofat", nodes).expect("heterofat view");
        let topo = bine_net::view::system_topology("heterofat", nodes).expect("heterofat");
        let alloc = bine_net::view::system_allocation(
            "heterofat", topo.as_ref(), nodes, bine_net::view::TUNING_PLACEMENT_SEED,
        );
        let model = CostModel::default();
        let mut arena = SimArena::new();
        let providers = ProviderSet::with_view(view);
        let candidates = providers.algorithms(collective, nodes);
        for id in candidates.iter().filter(|id| id.is_synthesized()) {
            let compiled = providers
                .build(collective, id.name(), nodes, 0)
                .unwrap_or_else(|| panic!("{}", id.name()))
                .segmented(chunks)
                .compile();
            let reference = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .reference()
                .run()
                .into_report();
            let fast = SimRequest::new(&model, &compiled, n, topo.as_ref(), &alloc)
                .arena(&mut arena)
                .run()
                .into_report();
            prop_assert_eq!(
                reference.makespan_us.to_bits(), fast.makespan_us.to_bits(),
                "{:?}/{} p={nodes} n={n} chunks={chunks}: reference {} vs fast {}",
                collective, id.name(), reference.makespan_us, fast.makespan_us
            );
            prop_assert_eq!(reference.network_messages, fast.network_messages);
            prop_assert_eq!(
                [reference.global_bytes, reference.local_link_bytes, reference.global_link_bytes],
                [fast.global_bytes, fast.local_link_bytes, fast.global_link_bytes]
            );
            prop_assert_eq!(reference.peak_active_flows, fast.peak_active_flows);
            for (r, (a, b)) in reference.rank_finish_us.iter().zip(&fast.rank_finish_us).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?}/{} rank {r} finish: reference {} vs fast {}",
                    collective, id.name(), a, b
                );
            }
        }
    }
}

/// The synchronous model — and therefore, by the parity property above, the
/// DES — reduces to the textbook alpha–beta closed form when congestion is
/// absent.
#[test]
fn sync_matches_the_alpha_beta_closed_form_without_congestion() {
    const GIB_PER_US: f64 = 1024.0 * 1024.0 * 1024.0 / 1e6;
    let model = CostModel::default();
    for p in [4usize, 8, 16, 32, 64] {
        let steps = p.trailing_zeros() as f64;
        let topo = IdealFullMesh::new(p);
        let link = topo.link_info();
        let alloc = Allocation::block(p);
        for n in [64u64, 4096, 1 << 20, 32 << 20] {
            // Recursive-doubling allreduce: log2(p) exchanges of the full
            // vector, each reduced at the receiver.
            let sched = build(Collective::Allreduce, "recursive-doubling", p, 0).unwrap();
            let expected = steps
                * (model.alpha_us
                    + link.latency_us
                    + n as f64 / (link.bandwidth_gib_s * GIB_PER_US)
                    + n as f64 / (model.reduce_bandwidth_gib_s * GIB_PER_US));
            let got = model.time_us(&sched, n, &topo, &alloc);
            assert!(
                (got - expected).abs() <= 1e-9 * expected,
                "allreduce/rd p={p} n={n}: {got} vs closed form {expected}"
            );
            let des = SimRequest::new(&model, &sched.compile(), n, &topo, &alloc)
                .time_only()
                .run()
                .makespan_us();
            assert!(
                (des - expected).abs() <= 1e-9 * expected,
                "DES allreduce/rd p={p} n={n}: {des} vs closed form {expected}"
            );

            // Binomial broadcast: log2(p) forwarding rounds of the full
            // vector, no reduction term.
            let sched = build(Collective::Broadcast, "binomial-dd", p, 0).unwrap();
            let expected = steps
                * (model.alpha_us
                    + link.latency_us
                    + n as f64 / (link.bandwidth_gib_s * GIB_PER_US));
            let got = model.time_us(&sched, n, &topo, &alloc);
            assert!(
                (got - expected).abs() <= 1e-9 * expected,
                "bcast/binomial-dd p={p} n={n}: {got} vs closed form {expected}"
            );
        }
    }
}
