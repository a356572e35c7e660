//! The DES's tier totals — `SimReport`'s `global_bytes`, `local_link_bytes`
//! and `global_link_bytes` — are the traffic walk's: on every schedule the
//! catalog's walk builds at p ∈ {8, 16}, bare at root 0, on Fig. 1's fat
//! tree, the ideal full mesh and the five systems, a fault-free run counts
//! exactly what `traffic::measure` does, and the reference and optimized
//! paths agree on them under a seeded fault plan.

use bine_net::allocation::Allocation;
use bine_net::cost::CostModel;
use bine_net::fault::FaultSpec;
use bine_net::sim::{SimArena, SimReport, SimRequest};
use bine_net::topology::{FatTree, IdealFullMesh, Topology};
use bine_net::traffic;
use bine_net::view::{system_allocation, system_topology, TUNING_PLACEMENT_SEED};
use bine_sched::walk;

const SYSTEMS: [&str; 5] = ["lumi", "leonardo", "marenostrum5", "fugaku", "heterofat"];

/// Fig. 1's fat tree (two ranks a node at p = 16), the ideal mesh and the
/// five systems, each with its allocation of `p` ranks.
fn fabrics(p: usize) -> Vec<(Box<dyn Topology>, Allocation)> {
    let mut fabrics: Vec<(Box<dyn Topology>, Allocation)> = vec![
        (
            Box::new(FatTree::figure1()),
            Allocation::block_with_ppn(p, p / 8),
        ),
        (Box::new(IdealFullMesh::new(p)), Allocation::block(p)),
    ];
    for slug in SYSTEMS {
        let topo = system_topology(slug, p).expect("known system");
        let alloc = system_allocation(slug, topo.as_ref(), p, TUNING_PLACEMENT_SEED);
        fabrics.push((topo, alloc));
    }
    fabrics
}

fn tiers(report: &SimReport) -> [u64; 3] {
    [
        report.global_bytes,
        report.local_link_bytes,
        report.global_link_bytes,
    ]
}

#[test]
fn des_tier_totals_are_the_traffic_walks() {
    let model = CostModel::default();
    let n = (1 << 20) + 17;
    let mut arena = SimArena::new();
    let mut checked = 0;
    for p in [8usize, 16] {
        let fabrics = fabrics(p);
        let requests = walk(&[p]).into_iter();
        for request in requests.filter(|r| r.root == 0 && r.segments == 1 && r.p == p) {
            let Some(sched) = request.build() else {
                continue;
            };
            let compiled = sched.compile();
            for (i, (topo, alloc)) in fabrics.iter().enumerate() {
                let topo = topo.as_ref();
                let traffic = traffic::measure(&sched, n, topo, alloc);
                let des = SimRequest::new(&model, &compiled, n, topo, alloc)
                    .arena(&mut arena)
                    .run()
                    .into_report();
                let label = format!("{} on {}", request.label(), topo.name());
                let walked = [
                    traffic.global_bytes,
                    traffic.local_link_bytes,
                    traffic.global_link_bytes,
                ];
                assert_eq!(tiers(&des), walked, "{label}");
                // The reference is slow: it runs under one fabric's faults
                // per request, in turn.
                if i != checked % fabrics.len() {
                    continue;
                }
                let spec = FaultSpec::moderate(checked as u64);
                let plan = spec.plan(topo.num_links(), p).expect("a valid spec");
                let run = |reference: bool| {
                    let request = SimRequest::new(&model, &compiled, n, topo, alloc).faults(&plan);
                    let request = if reference {
                        request.reference()
                    } else {
                        request
                    };
                    request.run().into_report()
                };
                assert_eq!(
                    tiers(&run(true)),
                    tiers(&run(false)),
                    "{label} under faults"
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 100, "{checked} schedules checked");
}
