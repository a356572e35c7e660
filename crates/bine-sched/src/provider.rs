//! The open algorithm-provider abstraction.
//!
//! A [`ScheduleProvider`] maps algorithm *names* to schedules. The static
//! catalog is one provider ([`CatalogProvider`]); topology-aware
//! synthesizers are another ([`SynthProvider`]). A [`ProviderSet`] routes
//! a name to the first provider that claims it and applies the shared
//! `+seg{S}` pipelining convention on top, so the tuner, the selector and
//! the serving layer can build *any* named schedule — catalog or
//! synthesized — through one path.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::catalog::{self, split_segments, AlgorithmId};
use crate::compile::CompiledSchedule;
use crate::schedule::{Collective, Schedule};
use crate::synth::{self, SynthSpec, TopologyView};

/// A source of schedules for a namespace of algorithm names.
///
/// `base` names never carry a `+seg{S}` suffix — [`ProviderSet`] strips it
/// before dispatching and re-applies the segmentation transform after.
pub trait ScheduleProvider: Send + Sync {
    /// Short provider name for diagnostics.
    fn provider_name(&self) -> &'static str;

    /// Whether this provider owns `base` — purely a namespace test; a
    /// claimed name may still fail to build (unknown algorithm, or a
    /// synthesizer without a view for that rank count).
    fn claims(&self, base: &str) -> bool;

    /// The candidates this provider offers for `collective` at `nodes`
    /// ranks. Catalog candidates are rank-count-independent; synthesized
    /// ones depend on the topology view for `nodes`.
    fn algorithms(&self, collective: Collective, nodes: usize) -> Vec<AlgorithmId>;

    /// Builds the schedule for a claimed base name, or `None` if it cannot
    /// be built for this (collective, nodes) pair.
    fn build(
        &self,
        collective: Collective,
        base: &str,
        nodes: usize,
        root: usize,
    ) -> Option<Schedule>;
}

/// The static hand-built catalog as a provider. Claims every name outside
/// the `synth:` namespace.
#[derive(Debug, Default, Clone, Copy)]
pub struct CatalogProvider;

impl ScheduleProvider for CatalogProvider {
    fn provider_name(&self) -> &'static str {
        "catalog"
    }

    fn claims(&self, base: &str) -> bool {
        !synth::is_synth_name(base)
    }

    fn algorithms(&self, collective: Collective, _nodes: usize) -> Vec<AlgorithmId> {
        catalog::algorithms(collective)
    }

    fn build(
        &self,
        collective: Collective,
        base: &str,
        nodes: usize,
        root: usize,
    ) -> Option<Schedule> {
        catalog::build(collective, base, nodes, root)
    }
}

/// A function producing the topology view for a given rank count, or
/// `None` when no view exists at that size (e.g. more ranks than the
/// modelled system has nodes).
pub type ViewSource = dyn Fn(usize) -> Option<TopologyView> + Send + Sync;

/// The topology-aware synthesizers as a provider. Claims the `synth:`
/// namespace; derives (and caches) one [`TopologyView`] per rank count
/// from its view source.
pub struct SynthProvider {
    source: Arc<ViewSource>,
    views: Mutex<HashMap<usize, Option<Arc<TopologyView>>>>,
}

impl SynthProvider {
    /// A provider deriving views on demand from `source`.
    pub fn new(source: Arc<ViewSource>) -> Self {
        Self {
            source,
            views: Mutex::new(HashMap::new()),
        }
    }

    /// A provider with one fixed view, answering only for that view's
    /// exact rank count (test fixtures, single-job deployments).
    pub fn fixed(view: TopologyView) -> Self {
        let view = Arc::new(view);
        let p = view.num_ranks();
        Self::new(Arc::new(move |nodes| (nodes == p).then(|| (*view).clone())))
    }

    /// The (cached) view for `nodes` ranks. Views whose rank count
    /// disagrees with `nodes` are discarded — a provider must never hand a
    /// schedule built for a different communicator size.
    pub fn view_for(&self, nodes: usize) -> Option<Arc<TopologyView>> {
        self.views
            .lock()
            .expect("view cache poisoned")
            .entry(nodes)
            .or_insert_with(|| {
                (self.source)(nodes)
                    .filter(|v| v.num_ranks() == nodes)
                    .map(Arc::new)
            })
            .clone()
    }
}

impl ScheduleProvider for SynthProvider {
    fn provider_name(&self) -> &'static str {
        "synth"
    }

    fn claims(&self, base: &str) -> bool {
        synth::is_synth_name(base)
    }

    fn algorithms(&self, collective: Collective, nodes: usize) -> Vec<AlgorithmId> {
        match self.view_for(nodes) {
            Some(view) => synth::synth_algorithms(collective, &view),
            None => Vec::new(),
        }
    }

    fn build(
        &self,
        collective: Collective,
        base: &str,
        nodes: usize,
        root: usize,
    ) -> Option<Schedule> {
        let spec = SynthSpec::parse(base)?;
        let view = self.view_for(nodes)?;
        spec.synthesize(collective, &view, root)
    }
}

/// An ordered set of providers behind the catalog's `build` contract:
/// split the `+seg{S}` suffix, dispatch the base name to the first
/// claiming provider, re-apply segmentation. Cheap to clone and share.
#[derive(Clone)]
pub struct ProviderSet {
    providers: Vec<Arc<dyn ScheduleProvider>>,
}

impl std::fmt::Debug for ProviderSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.providers.iter().map(|p| p.provider_name()).collect();
        f.debug_struct("ProviderSet")
            .field("providers", &names)
            .finish()
    }
}

impl Default for ProviderSet {
    fn default() -> Self {
        Self::catalog_only()
    }
}

impl ProviderSet {
    /// Just the static catalog — the behaviour of the whole stack before
    /// synthesis existed, and the fallback when no topology is known.
    pub fn catalog_only() -> Self {
        Self {
            providers: vec![Arc::new(CatalogProvider)],
        }
    }

    /// Catalog plus synthesizers fed by `source`.
    pub fn with_synth(source: Arc<ViewSource>) -> Self {
        Self {
            providers: vec![
                Arc::new(CatalogProvider),
                Arc::new(SynthProvider::new(source)),
            ],
        }
    }

    /// Catalog plus synthesizers over one fixed view.
    pub fn with_view(view: TopologyView) -> Self {
        Self {
            providers: vec![
                Arc::new(CatalogProvider),
                Arc::new(SynthProvider::fixed(view)),
            ],
        }
    }

    /// Appends a provider (consulted after the existing ones).
    pub fn push(&mut self, provider: Arc<dyn ScheduleProvider>) {
        self.providers.push(provider);
    }

    /// Whether any provider claims `name`'s base.
    pub fn claims(&self, name: &str) -> bool {
        let (base, _) = split_segments(name);
        self.providers.iter().any(|p| p.claims(base))
    }

    /// Builds the *base* schedule of a (possibly `+seg{S}`-suffixed) name
    /// through the first claiming provider and returns it with the chunk
    /// count the name asks for (1 for a bare name) — what
    /// [`ProviderSet::build`] segments and [`ProviderSet::compile`] lowers.
    pub fn build_base(
        &self,
        collective: Collective,
        name: &str,
        nodes: usize,
        root: usize,
    ) -> Option<(Schedule, usize)> {
        let (base, chunks) = split_segments(name);
        let provider = self.providers.iter().find(|p| p.claims(base))?;
        Some((provider.build(collective, base, nodes, root)?, chunks))
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

    /// Every candidate all providers offer for `collective` at `nodes`.
    pub fn algorithms(&self, collective: Collective, nodes: usize) -> Vec<AlgorithmId> {
        self.providers
            .iter()
            .flat_map(|p| p.algorithms(collective, nodes))
            .collect()
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
