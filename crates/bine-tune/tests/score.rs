//! The [`Scorer`] answers exactly what the uncached computation answers:
//! the synchronous model on a freshly built schedule, the discrete-event
//! simulator on a fresh arena — for catalog, pipelined, synthesized and
//! irregular names alike, whether the answer comes from a cache or not.

use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::sim::SimRequest;
use bine_net::topology::IdealFullMesh;
use bine_net::view::{synth_view, system_allocation, system_topology, TUNING_PLACEMENT_SEED};
use bine_sched::{build_irregular, split_segments, Collective, ProviderSet, Schedule, SizeDist};
use bine_tune::selector::system_providers;
use bine_tune::{ScoreModel, Scorer, TunePoint};

const NODES: usize = 16;
const BYTES: [u64; 2] = [32, 1 << 20];

/// A 16-node grid point and the provider set that goes with it.
fn fixture(system: &str) -> (ProviderSet, TunePoint) {
    let (providers, topology, allocation) = if system == "mesh" {
        let (topo, alloc) = (IdealFullMesh::new(NODES), Allocation::block(NODES));
        let view = synth_view(&topo, &alloc).expect("a full mesh has a view");
        let topology: Box<dyn bine_net::topology::Topology> = Box::new(topo);
        (ProviderSet::with_view(view), topology, alloc)
    } else {
        let topo = system_topology(system, NODES).expect("a modelled system");
        let alloc = system_allocation(system, topo.as_ref(), NODES, TUNING_PLACEMENT_SEED);
        let topology: Box<dyn bine_net::topology::Topology> = topo;
        (system_providers(system), topology, alloc)
    };
    let point = TunePoint {
        nodes: NODES,
        topology,
        allocation,
    };
    (providers, point)
}

/// One name of each kind: catalog, pipelined, synthesized (whatever the
/// fabric offers for broadcast), irregular.
fn queries(providers: &ProviderSet) -> Vec<(Collective, Option<SizeDist>, String)> {
    let synth = providers
        .algorithms(Collective::Broadcast, NODES)
        .into_iter()
        .find(|id| id.is_synthesized())
        .expect("both fabrics offer a synthesized broadcast");
    vec![
        (Collective::Allreduce, None, "bine-large".into()),
        (Collective::Allreduce, None, "bine-large+seg4".into()),
        (Collective::Broadcast, None, synth.name().to_string()),
        (
            Collective::Broadcast,
            None,
            format!("{}+seg4", synth.name()),
        ),
        (Collective::Gather, Some(SizeDist::Linear), "traff".into()),
        (
            Collective::Allgather,
            Some(SizeDist::OneHeavy),
            "bine+seg4".into(),
        ),
    ]
}

/// The base schedule and chunk count of a query, built from scratch.
fn fresh(
    providers: &ProviderSet,
    collective: Collective,
    dist: Option<SizeDist>,
    name: &str,
) -> (Schedule, usize) {
    let (base, chunks) = split_segments(name);
    let sched = match dist {
        None => providers.build(collective, base, NODES, 0),
        Some(dist) => build_irregular(collective, base, NODES, 0, &dist.counts(NODES, 0)),
    };
    (sched.expect("the fixture's names build"), chunks)
}

fn assert_scores_are_the_uncached_computation(system: &str, des_first: bool) {
    let (providers, point) = fixture(system);
    let model = CostModel::default();
    let queries = queries(&providers);
    let mut scorer = Scorer::new(model.clone(), providers.clone(), vec![point]);
    let order = if des_first {
        [ScoreModel::Des, ScoreModel::Sync]
    } else {
        [ScoreModel::Sync, ScoreModel::Des]
    };
    for (collective, dist, name) in &queries {
        let (base, chunks) = fresh(&providers, *collective, *dist, name);
        let point = &scorer.points()[0];
        let (topo, alloc) = (point.topology.as_ref(), &point.allocation);
        let expected: Vec<(ScoreModel, u64, f64)> = order
            .iter()
            .flat_map(|&m| BYTES.map(|n| (m, n)))
            .map(|(m, n)| {
                let t = match m {
                    ScoreModel::Sync if chunks > 1 => {
                        model.time_us(&base.segmented(chunks), n, topo, alloc)
                    }
                    ScoreModel::Sync => model.time_us(&base, n, topo, alloc),
                    ScoreModel::Des => {
                        let compiled = base.compile_segmented(chunks);
                        SimRequest::new(&model, &compiled, n, topo, alloc)
                            .time_only()
                            .run()
                            .makespan_us()
                    }
                };
                (m, n, t)
            })
            .collect();
        // Asked twice: the first pass misses every cache, the second hits.
        for pass in ["miss", "hit"] {
            for &(m, n, t) in &expected {
                let got = scorer
                    .score(*collective, *dist, name, NODES, n, m)
                    .unwrap_or_else(|| panic!("{system}: {name} did not score"));
                assert_eq!(
                    got.to_bits(),
                    t.to_bits(),
                    "{system} {collective:?} {dist:?} {name} {m:?} n={n} ({pass}): {got} vs {t}"
                );
            }
        }
    }
}

#[test]
fn scores_equal_the_uncached_computation_on_a_full_mesh() {
    assert_scores_are_the_uncached_computation("mesh", false);
    assert_scores_are_the_uncached_computation("mesh", true);
}

#[test]
fn scores_equal_the_uncached_computation_on_heterofat() {
    assert_scores_are_the_uncached_computation("heterofat", false);
    assert_scores_are_the_uncached_computation("heterofat", true);
}

#[test]
fn what_does_not_build_scores_none() {
    let (providers, point) = fixture("mesh");
    let twelve = TunePoint {
        nodes: 12,
        topology: Box::new(IdealFullMesh::new(12)),
        allocation: Allocation::block(12),
    };
    let mut scorer = Scorer::new(CostModel::default(), providers, vec![point, twelve]);
    for model in [ScoreModel::Sync, ScoreModel::Des] {
        let mut score = |collective, dist, name, nodes| {
            scorer.score(collective, dist, name, nodes, 1 << 20, model)
        };
        // Unknown names, regular and irregular.
        assert_eq!(score(Collective::Allreduce, None, "nonsense", NODES), None);
        assert_eq!(score(Collective::Allreduce, None, "ring+seg1", NODES), None);
        let linear = Some(SizeDist::Linear);
        assert_eq!(score(Collective::Gather, linear, "ring", NODES), None);
        // A power-of-two-only name at 12 ranks — where the chains build.
        assert_eq!(score(Collective::Allreduce, None, "bine-large", 12), None);
        assert_eq!(score(Collective::Gather, linear, "bine", 12), None);
        assert!(score(Collective::Allreduce, None, "ring", 12).is_some());
        assert!(score(Collective::Gather, linear, "traff", 12).is_some());
        // No view at 12 ranks: the synthesizers do not answer there.
        let synth = "synth:forestcoll:k=1";
        assert_eq!(score(Collective::Broadcast, None, synth, 12), None);
    }
    assert_eq!(
        scorer.max_message_blocks(Collective::Allreduce, None, "nonsense", NODES),
        None
    );
    assert_eq!(
        scorer.global_bytes(Collective::Allreduce, None, "bine-large", 12, 1 << 20),
        None
    );
}

#[test]
fn a_synchronous_sweep_retains_no_schedule_and_clear_forgets_everything() {
    let (providers, point) = fixture("heterofat");
    let mut scorer = Scorer::new(CostModel::default(), providers.clone(), vec![point]);
    let queries = queries(&providers);
    for (collective, dist, name) in &queries {
        for n in BYTES {
            scorer
                .score(*collective, *dist, name, NODES, n, ScoreModel::Sync)
                .expect("the fixture's names build");
        }
    }
    // One summary per name, and the schedules they summarise are gone.
    assert_eq!(scorer.cached(), (queries.len(), 0, 0));

    // The DES, traffic accounting and the segment cap are what keep one:
    // the base schedule per name, one compiled form per segmentation.
    let (collective, _, name) = &queries[1];
    scorer.score(*collective, None, name, NODES, 1 << 20, ScoreModel::Des);
    assert_eq!(scorer.cached(), (queries.len(), 1, 1));
    let base = split_segments(name).0;
    scorer.score(*collective, None, base, NODES, 1 << 20, ScoreModel::Des);
    assert_eq!(scorer.cached(), (queries.len(), 1, 2));
    let (sched, _) = fresh(&providers, *collective, None, name);
    let longest = sched.messages().map(|(_, m)| m.blocks.len()).max();
    assert_eq!(
        scorer.max_message_blocks(*collective, None, name, NODES),
        longest
    );
    let point = &scorer.points()[0];
    let traffic = bine_net::traffic::global_bytes(
        &sched,
        1 << 20,
        point.topology.as_ref(),
        &point.allocation,
    );
    assert_eq!(
        scorer.global_bytes(*collective, None, base, NODES, 1 << 20),
        Some(traffic)
    );
    assert_eq!(scorer.cached(), (queries.len(), 1, 2));

    scorer.clear();
    assert_eq!(scorer.cached(), (0, 0, 0));
    assert!(scorer.has_point(NODES), "clear keeps the grid");
    // And a cleared scorer answers as a new one does.
    let again = scorer.score(*collective, None, name, NODES, 1 << 20, ScoreModel::Des);
    let mut new = Scorer::new(CostModel::default(), providers.clone(), {
        let (_, point) = fixture("heterofat");
        vec![point]
    });
    let first = new.score(*collective, None, name, NODES, 1 << 20, ScoreModel::Des);
    assert_eq!(again.map(f64::to_bits), first.map(f64::to_bits));
}
