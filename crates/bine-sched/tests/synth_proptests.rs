//! Property tests for the schedule synthesizers.
//!
//! The catalog's generators are closed-form and hand-verified; the
//! synthesizers (`synth:forestcoll:*`, `synth:multilevel:*`) derive their
//! schedules from whatever [`TopologyView`] the serving layer hands them,
//! so their correctness obligation is over *random* views: any group
//! structure (power-of-two and non-power-of-two rank counts), any
//! bandwidth hierarchy, any root. Everything a synthesizer emits must
//! pass the same [`bine_sched::ScheduleValidator`] the committed catalog
//! is swept through, and synthesis must be a pure function of
//! `(spec, view, root)` — the tuner commits `synth:` names to the tuning
//! tables, and serving rebuilds from the name alone, so a
//! non-deterministic synthesizer would serve a schedule the tuner never
//! measured.

use bine_sched::{synth_algorithms, Collective, SynthSpec, TopologyView};
use proptest::prelude::*;

/// The collectives the synthesizers support (tree-shaped dataflow).
fn any_synth_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(vec![
        Collective::Broadcast,
        Collective::Reduce,
        Collective::Allreduce,
    ])
}

/// Island sizes of a random clustered view: 1–4 islands of 1–6 ranks each
/// (total 2–24, power-of-two and not — the extra leading rank guarantees
/// at least two ranks overall).
fn any_group_sizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..7, 1..5).prop_map(|mut groups| {
        groups[0] += 1;
        groups
    })
}

/// Assembles the view: local/global bandwidths drawn independently —
/// sometimes flat, sometimes a steep hierarchy, sometimes inverted (a
/// "hierarchy" whose islands are the slow part).
fn view_from(groups: &[usize], local_seed: usize, global_seed: usize) -> TopologyView {
    let local = [12.5f64, 100.0, 400.0][local_seed % 3];
    let global = [2.5f64, 25.0, 100.0][global_seed % 3];
    TopologyView::clustered(groups, (local, 0.3), (global, 25.0)).expect("non-empty groups build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Soundness: every candidate the provider enumerates for a view
    // synthesizes at every root and passes the validator — no dropped
    // data, no deadlock, no miscounted bytes, on any fabric shape.
    #[test]
    fn synthesized_schedules_validate_on_random_views(
        groups in any_group_sizes(),
        local_seed in 0usize..3,
        global_seed in 0usize..3,
        collective in any_synth_collective(),
        root_seed in 0usize..1000,
    ) {
        let view = view_from(&groups, local_seed, global_seed);
        let p = view.num_ranks();
        let root = root_seed % p;
        for id in synth_algorithms(collective, &view) {
            let spec = SynthSpec::parse(id.name()).expect("provider emits canonical names");
            // ForestColl's rate-optimal tree count is root-dependent: a k
            // enumerated for root 0 may admit no k edge-disjoint spanning
            // trees from another root. The provider returns None there and
            // serving falls back; only the tuned root must always build.
            let Some(sched) = spec.synthesize(collective, &view, root) else {
                prop_assert!(
                    root != 0,
                    "{}/{:?} p={}: unbuildable at the tuned root", id.name(), collective, p
                );
                continue;
            };
            prop_assert_eq!(sched.num_ranks, p);
            if let Err(e) = sched.validate() {
                return Err(TestCaseError::fail(format!(
                    "{}/{:?} p={p} root={root}: {e}",
                    id.name(), collective
                )));
            }
        }
    }

    // Purity: the committed tuning tables store only the `synth:` name;
    // serving must rebuild the exact schedule the tuner measured.
    #[test]
    fn synthesis_is_a_pure_function_of_spec_view_and_root(
        groups in any_group_sizes(),
        local_seed in 0usize..3,
        global_seed in 0usize..3,
        collective in any_synth_collective(),
        root_seed in 0usize..1000,
    ) {
        let view = view_from(&groups, local_seed, global_seed);
        let root = root_seed % view.num_ranks();
        for id in synth_algorithms(collective, &view) {
            let spec = SynthSpec::parse(id.name()).unwrap();
            let a = spec.synthesize(collective, &view, root);
            let b = spec.synthesize(collective, &view, root);
            prop_assert_eq!(a, b, "{} is not deterministic", id.name());
        }
    }
}
