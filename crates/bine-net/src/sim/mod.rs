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
//! * **per-rank dependency tracking** — what a send waits for is the
//!   schedule's [`DepGraph`](bine_sched::DepGraph), derived once per
//!   schedule and executed by both implementations: a send becomes eligible
//!   the moment the earlier-step writes (receives, reductions, local moves)
//!   into the blocks it carries have landed at its sender, *not* at a global
//!   barrier. Writes to the same block are chained — a reduce target
//!   accumulates one contribution per step, and a later write only counts as
//!   landed once every earlier one has — so waiting for the latest write
//!   transitively waits for them all. Within one rank sends still issue in
//!   schedule order through a single send port (single-ported model,
//!   matching `Schedule::validate`).
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
//! Both run on one static resolution (`statics.rs`: routes, summed
//! latencies, kill times, link capacities, compute rates and the dependency
//! graph). [`SimRequest::reference`] selects the executable specification
//! (`reference.rs`): it resolves the statics anew on every call, rescans
//! every rank after every event and recomputes the whole max–min fair share
//! from scratch (fresh `BTreeMap`s per rate event) at every flow arrival and
//! completion. It is kept deliberately simple — and slow.
//!
//! The default is the optimized fast path used by every sweep (tuning,
//! benchmarks, figures; `optimized.rs`, with the fair share in
//! `fairshare.rs`):
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
//!   latencies and the dependency graph depend only on (schedule, topology,
//!   allocation, cost model, fault plan), not on the vector size, and are
//!   cached in the arena keyed by [`CompiledSchedule::identity`]. A sweep
//!   over vector sizes re-resolves only the per-send byte counts. The
//!   resolution is sized by the job: the links its routes touch get
//!   job-local ids in ascending machine-id order, every per-link table is
//!   indexed by them, and a cached entry is revalidated by the topology's
//!   shape (node, group and link counts) plus the touched links only.
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
//!
//! [`CostModel`]: crate::cost::CostModel
//! [`CompiledSchedule`]: bine_sched::CompiledSchedule
//! [`CompiledSchedule::identity`]: bine_sched::CompiledSchedule::identity
//! [`FaultPlan`]: crate::fault::FaultPlan

mod fairshare;
mod optimized;
mod reference;
mod request;
mod statics;

pub use optimized::SimArena;
pub use request::{RateProbe, SimOutcome, SimReport, SimRequest, StallReport};

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

/// Empties `v` and fills it with `n` copies of `value`, keeping its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::cost::CostModel;
    use crate::fault::FaultPlan;
    use crate::topology::{FatTree, IdealFullMesh, Topology, Torus};
    use bine_sched::collectives::{allreduce, broadcast, AllreduceAlg, BroadcastAlg};
    use bine_sched::{CompiledSchedule, Schedule};

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
