//! Pins the [`bine_net::SimArena`] allocation-freedom guarantee: once a
//! (schedule, topology, allocation, vector size) context has been simulated
//! once, repeating the simulation through a time-only, arena-backed
//! [`bine_net::sim::SimRequest`] must touch the heap **zero** times — the
//! whole point of the arena is that tuning sweeps running thousands of
//! simulations stop being allocator-bound. Measured
//! with a counting wrapper around the system allocator, the same pattern as
//! `bine-tune/tests/alloc_free.rs` (tests are their own crates, so the
//! library's `#![forbid(unsafe_code)]` still holds for `bine-net` itself).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting;
use counting::{allocations, bytes_in};

use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::sim::{SimArena, SimRequest};
use bine_net::topology::{Dragonfly, DragonflyFlavour, FatTree, Topology};
use bine_sched::collectives::{allreduce, AllreduceAlg};
use bine_sched::CompiledSchedule;

/// The warm-path spelling under test: a time-only, arena-backed request.
fn sim_time(
    arena: &mut SimArena,
    model: &CostModel,
    compiled: &CompiledSchedule,
    n: u64,
    topo: &FatTree,
    alloc: &Allocation,
) -> f64 {
    SimRequest::new(model, compiled, n, topo, alloc)
        .arena(arena)
        .time_only()
        .run()
        .makespan_us()
}

#[test]
fn repeated_simulations_are_allocation_free_after_warmup() {
    let p = 32;
    let model = CostModel::default();
    let topo = FatTree::new(p, 4, 1);
    let alloc = Allocation::block(p);
    // A segmented schedule on a congested topology: flows share links, so
    // the incremental fair share exercises non-trivial components.
    let compiled = allreduce(p, AllreduceAlg::BineLarge).segmented(4).compile();

    let mut arena = SimArena::new();
    // Warmup: builds the cached static resolution and grows every scratch
    // buffer to its peak size for this context.
    let warm = sim_time(&mut arena, &model, &compiled, 1 << 20, &topo, &alloc);
    assert!(warm > 0.0);

    let before = allocations();
    let mut identical = 0usize;
    for _ in 0..10 {
        let t = sim_time(&mut arena, &model, &compiled, 1 << 20, &topo, &alloc);
        identical += usize::from(t.to_bits() == warm.to_bits());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the warm time-only request allocated {} times over 10 simulations",
        after - before
    );
    assert_eq!(identical, 10, "results drifted after warmup");
}

#[test]
fn vector_size_changes_allocate_at_most_transiently() {
    // Sweeping the vector size re-resolves only the per-send byte column;
    // after one pass over the sizes, repeating the sweep in the same order
    // must be allocation-free too (the bytes buffer capacity is retained).
    let p = 16;
    let model = CostModel::default();
    let topo = FatTree::new(p, 4, 1);
    let alloc = Allocation::block(p);
    let compiled = allreduce(p, AllreduceAlg::BineLarge).compile();
    let sizes = [1u64 << 10, 1 << 16, 1 << 20, 8 << 20];

    let mut arena = SimArena::new();
    for &n in &sizes {
        sim_time(&mut arena, &model, &compiled, n, &topo, &alloc);
    }
    let before = allocations();
    for &n in &sizes {
        sim_time(&mut arena, &model, &compiled, n, &topo, &alloc);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "size sweep allocated {} times after warmup",
        after - before
    );
}

#[test]
fn a_jobs_static_resolution_does_not_grow_with_the_machine() {
    // One 64-rank job spread over the first 24 groups, on LUMI and on the
    // same Dragonfly with four times the groups (48 768 links). The job's
    // routes touch the same links in the same order on both, so its first
    // simulation must request the same bytes and give the same makespan:
    // nothing the simulator builds per job is sized by the machine.
    let p = 64;
    let model = CostModel::default();
    let alloc = Allocation::from_nodes((0..p).map(|r| (r % 24) * 124 + r / 24).collect());
    let warm = allreduce(p, AllreduceAlg::RecursiveDoubling).compile();
    let job = allreduce(p, AllreduceAlg::BineLarge).segmented(2).compile();
    let run = |arena: &mut SimArena, compiled, topo: &dyn Topology| {
        SimRequest::new(&model, compiled, 1 << 20, topo, &alloc)
            .arena(arena)
            .time_only()
            .run()
            .makespan_us()
    };
    let first_run = |groups| {
        let topo = Dragonfly::new(DragonflyFlavour::Dragonfly, groups, 124, 4);
        let mut arena = SimArena::new();
        // Machine-sized arena scratch grows here, once per arena.
        run(&mut arena, &warm, &topo);
        (topo.num_links(), bytes_in(|| run(&mut arena, &job, &topo)))
    };
    let (lumi_links, (lumi_bytes, lumi_us)) = first_run(24);
    let (big_links, (big_bytes, big_us)) = first_run(96);
    assert_eq!((lumi_links, big_links), (5_280, 48_768));
    assert_eq!(
        lumi_bytes, big_bytes,
        "the first simulation requested {lumi_bytes} B on LUMI, {big_bytes} B on 4x LUMI"
    );
    assert_eq!(lumi_us.to_bits(), big_us.to_bits());
}

#[test]
fn a_fresh_handles_static_resolution_allocates_a_fixed_handful() {
    // A freshly compiled handle misses the arena's cache, so its first
    // request resolves the statics: the kept per-send and per-link columns,
    // the dependency graph's eight arrays and one walk's scratch. 28
    // measured; a graph derived over two walks' scratch and two copied
    // cursor arrays read 35.
    let p = 64;
    let model = CostModel::default();
    let topo = FatTree::new(p, 4, 1);
    let alloc = Allocation::block(p);
    let sched = allreduce(p, AllreduceAlg::BineLarge);
    let mut arena = SimArena::new();
    let warm = sim_time(&mut arena, &model, &sched.compile(), 1 << 20, &topo, &alloc);
    let fresh = sched.compile();
    let (allocated, first) =
        counting::allocations_in(|| sim_time(&mut arena, &model, &fresh, 1 << 20, &topo, &alloc));
    assert!(
        allocated <= 28,
        "the first request of a fresh handle allocated {allocated} times"
    );
    assert_eq!(first.to_bits(), warm.to_bits());
}
