//! One dispatch from an algorithm *name* to a schedule.
//!
//! A [`ProviderSet`] is the static catalog plus, optionally, the
//! topology-aware synthesizers over a cached view source. It strips the
//! shared `+seg{S}` pipelining suffix, sends `synth:` names to the
//! synthesizers and every other name to the catalog, and re-applies the
//! segmentation — so the tuner, the selector and the serving layer build
//! *any* named schedule, catalog or synthesized, through one path. Like
//! [`crate::catalog::build`] it is total: an unknown name, an unsupported
//! rank count or a missing view is `None`, never a panic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::catalog::{self, split_segments, AlgorithmId};
use crate::compile::CompiledSchedule;
use crate::schedule::{Collective, Schedule};
use crate::synth::{self, SynthSpec, TopologyView};

/// A function producing the topology view for a given rank count, or
/// `None` when no view exists at that size (e.g. more ranks than the
/// modelled system has nodes).
pub type ViewSource = dyn Fn(usize) -> Option<TopologyView> + Send + Sync;

/// The synthesizers' view source with its per-rank-count cache.
struct Views {
    source: Arc<ViewSource>,
    cache: Mutex<HashMap<usize, Option<Arc<TopologyView>>>>,
}

/// The catalog plus an optional cached view source for the `synth:`
/// namespace, behind the catalog's `build` contract. Cheap to clone and
/// share (clones share the view cache).
#[derive(Clone, Default)]
pub struct ProviderSet {
    views: Option<Arc<Views>>,
}

impl std::fmt::Debug for ProviderSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProviderSet")
            .field("synth", &self.views.is_some())
            .finish()
    }
}

impl ProviderSet {
    /// Just the static catalog — the behaviour of the whole stack before
    /// synthesis existed, and the fallback when no topology is known.
    pub fn catalog_only() -> Self {
        Self::default()
    }

    /// Catalog plus synthesizers fed by `source`, which is asked at most
    /// once per rank count.
    pub fn with_synth(source: Arc<ViewSource>) -> Self {
        Self {
            views: Some(Arc::new(Views {
                source,
                cache: Mutex::new(HashMap::new()),
            })),
        }
    }

    /// Catalog plus synthesizers over one fixed view, answering only at
    /// that view's exact rank count (test fixtures, single-job deployments).
    pub fn with_view(view: TopologyView) -> Self {
        let p = view.num_ranks();
        Self::with_synth(Arc::new(move |nodes| (nodes == p).then(|| view.clone())))
    }

    /// The (cached) view for `nodes` ranks. A view whose rank count
    /// disagrees with `nodes` is discarded — a schedule built for a
    /// different communicator size must never be handed out.
    fn view_for(&self, nodes: usize) -> Option<Arc<TopologyView>> {
        let views = self.views.as_ref()?;
        let mut cache = views.cache.lock().expect("view cache poisoned");
        cache
            .entry(nodes)
            .or_insert_with(|| {
                (views.source)(nodes)
                    .filter(|v| v.num_ranks() == nodes)
                    .map(Arc::new)
            })
            .clone()
    }

    /// Whether this set has a builder for `name`'s namespace — purely a
    /// namespace test; a claimed name may still fail to build.
    pub fn claims(&self, name: &str) -> bool {
        self.views.is_some() || !synth::is_synth_name(name)
    }

    /// Builds the *base* schedule of a (possibly `+seg{S}`-suffixed) name
    /// and returns it with the chunk count the name asks for (1 for a bare
    /// name) — what [`ProviderSet::build`] segments and
    /// [`ProviderSet::compile`] lowers.
    pub fn build_base(
        &self,
        collective: Collective,
        name: &str,
        nodes: usize,
        root: usize,
    ) -> Option<(Schedule, usize)> {
        let (base, chunks) = split_segments(name);
        let sched = if synth::is_synth_name(base) {
            let view = self.view_for(nodes).filter(|_| root < nodes)?;
            SynthSpec::parse(base)?.synthesize(collective, &view, root)?
        } else {
            catalog::build(collective, base, nodes, root)?
        };
        Some((sched, chunks))
    }

    /// Builds a named schedule: `+seg{S}` handling plus provider dispatch.
    /// Mirrors [`crate::catalog::build`]'s contract (including `+seg1`
    /// rejection via the canonical `split_segments`).
    pub fn build(
        &self,
        collective: Collective,
        name: &str,
        nodes: usize,
        root: usize,
    ) -> Option<Schedule> {
        let (sched, chunks) = self.build_base(collective, name, nodes, root)?;
        Some(if chunks > 1 {
            sched.segmented(chunks)
        } else {
            sched
        })
    }

    /// Builds and lowers a named schedule in one pass: the compiled form of
    /// what [`ProviderSet::build`] returns, without the segmented
    /// [`Schedule`] in between ([`Schedule::compile_segmented`]).
    pub fn compile(
        &self,
        collective: Collective,
        name: &str,
        nodes: usize,
        root: usize,
    ) -> Option<CompiledSchedule> {
        let (sched, chunks) = self.build_base(collective, name, nodes, root)?;
        Some(sched.compile_segmented(chunks))
    }

    /// Every candidate for `collective` at `nodes` ranks: the catalog's
    /// (rank-count-independent), then whatever the synthesizers offer on
    /// the view for `nodes`. No view is derived for a collective no
    /// synthesizer emits.
    pub fn algorithms(&self, collective: Collective, nodes: usize) -> Vec<AlgorithmId> {
        let mut ids = catalog::algorithms(collective);
        if synth::is_synthesizable(collective) {
            if let Some(view) = self.view_for(nodes) {
                ids.extend(synth::synth_algorithms(collective, &view));
            }
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_only_matches_catalog_build() {
        let set = ProviderSet::catalog_only();
        for (collective, name) in [
            (Collective::Allreduce, "bine-large"),
            (Collective::Allreduce, "bine-large+seg4"),
            (Collective::Broadcast, "binomial-dd"),
            (Collective::Allreduce, "nonsense"),
            (Collective::Allreduce, "bine-large+seg1"),
            (Collective::Broadcast, "synth:forestcoll:k=2"),
        ] {
            let via_set = set.build(collective, name, 16, 0);
            let via_catalog = catalog::build(collective, name, 16, 0);
            assert_eq!(via_set, via_catalog, "{collective:?} {name}");
        }
    }

    #[test]
    fn synth_names_dispatch_to_the_synthesizer() {
        let view = TopologyView::clustered(&[8, 8], (100.0, 0.3), (5.0, 25.0)).unwrap();
        let set = ProviderSet::with_view(view);
        let sched = set
            .build(Collective::Broadcast, "synth:multilevel:tiers=2", 16, 0)
            .expect("synth build");
        assert_eq!(sched.algorithm, "synth:multilevel:tiers=2");
        // Segmented variant round-trips the composed name.
        let seg = set
            .build(Collective::Broadcast, "synth:forestcoll:k=2+seg4", 16, 0)
            .expect("segmented synth build");
        assert_eq!(seg.algorithm, "synth:forestcoll:k=2+seg4");
        // No view at that size -> no schedule.
        assert!(set
            .build(Collective::Broadcast, "synth:multilevel:tiers=2", 8, 0)
            .is_none());
        // Catalog names still work through the same set.
        assert!(set
            .build(Collective::Broadcast, "binomial-dd", 16, 0)
            .is_some());
        assert!(set.claims("synth:multilevel:tiers=2+seg8"));
        assert!(!ProviderSet::catalog_only().claims("synth:multilevel:tiers=2"));
    }

    #[test]
    fn provider_algorithms_merge() {
        let view = TopologyView::clustered(&[8, 8], (100.0, 0.3), (5.0, 25.0)).unwrap();
        let set = ProviderSet::with_view(view);
        let algs = set.algorithms(Collective::Broadcast, 16);
        assert!(algs.iter().any(|a| !a.is_synthesized()));
        assert!(algs.iter().any(|a| a.is_synthesized()));
        // At a size without a view only the catalog answers.
        assert!(set
            .algorithms(Collective::Broadcast, 8)
            .iter()
            .all(|a| !a.is_synthesized()));
    }
}
