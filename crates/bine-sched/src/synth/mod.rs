//! Topology-aware schedule synthesis.
//!
//! Where the catalog ([`crate::catalog`]) holds hand-built algorithms that
//! exist for every rank count, the synthesizers in this module *derive* a
//! schedule from a concrete topology — so the result only exists for the
//! [`TopologyView`] it was derived from, and is named by the parameterized
//! `synth:` grammar rather than a static enum name:
//!
//! ```text
//! synth:forestcoll:k=2        k edge-disjoint pipelined spanning trees
//! synth:multilevel:tiers=2    hierarchy-aware leader/local trees
//! synth:multilevel:tiers=2+seg8   … pipelined via the segment machinery
//! ```
//!
//! Parameters use the canonical `key=value` decimal spelling (no signs, no
//! leading zeros) so every name round-trips through
//! [`SynthSpec::parse`]/[`SynthSpec::name`] and through
//! [`crate::catalog::split_segments`]. Synthesized schedules satisfy the
//! same invariants as catalog ones — single-ported steps, validator-clean
//! ([`crate::validate::ScheduleValidator`]), executable bit-identically by
//! every executor — which is what lets them flow through the tuner,
//! decision tables and serving layer unchanged.

mod forestcoll;
mod multilevel;
mod view;

pub use forestcoll::MAX_TREES;
pub use view::{TopoEdge, TopologyView};

use crate::catalog::AlgorithmId;
use crate::schedule::{Collective, Schedule};

/// Name prefix reserved for synthesized algorithm identities.
pub const SYNTH_PREFIX: &str = "synth:";

/// Whether `name` is in the synthesized-identity namespace (it may still
/// fail to parse as a [`SynthSpec`]).
pub fn is_synth_name(name: &str) -> bool {
    name.starts_with(SYNTH_PREFIX)
}

/// A parsed synthesized-algorithm identity: the synthesizer family plus
/// its parameters. `parse` and `name` round-trip exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthSpec {
    /// ForestColl-style `k` edge-disjoint pipelined spanning trees.
    ForestColl {
        /// Number of edge-disjoint trees streaming in parallel.
        k: usize,
    },
    /// Karonis-style multilevel hierarchy-aware trees.
    Multilevel {
        /// Hierarchy levels used: 1 = flat, 2 = leader/local.
        tiers: usize,
    },
}

/// Parses one canonical `key=value` decimal parameter.
fn parse_param(params: &str, key: &str) -> Option<usize> {
    let val = params.strip_prefix(key)?.strip_prefix('=')?;
    let canonical = !val.is_empty()
        && val.bytes().all(|b| b.is_ascii_digit())
        && (val.len() == 1 || !val.starts_with('0'));
    if !canonical {
        return None;
    }
    val.parse().ok()
}

impl SynthSpec {
    /// Parses a base name (no `+seg` suffix — strip it first with
    /// [`crate::catalog::split_segments`]). Returns `None` for anything
    /// that does not round-trip through [`SynthSpec::name`], including
    /// out-of-range parameters.
    pub fn parse(name: &str) -> Option<Self> {
        let rest = name.strip_prefix(SYNTH_PREFIX)?;
        let (family, params) = rest.split_once(':')?;
        match family {
            "forestcoll" => {
                let k = parse_param(params, "k")?;
                (1..=MAX_TREES)
                    .contains(&k)
                    .then_some(SynthSpec::ForestColl { k })
            }
            "multilevel" => {
                let tiers = parse_param(params, "tiers")?;
                (1..=2)
                    .contains(&tiers)
                    .then_some(SynthSpec::Multilevel { tiers })
            }
            _ => None,
        }
    }

    /// The canonical name this spec goes by everywhere (tables, caches,
    /// schedule `algorithm` fields).
    pub fn name(&self) -> String {
        match self {
            SynthSpec::ForestColl { k } => format!("{SYNTH_PREFIX}forestcoll:k={k}"),
            SynthSpec::Multilevel { tiers } => format!("{SYNTH_PREFIX}multilevel:tiers={tiers}"),
        }
    }

    /// Which collectives this synthesizer can emit.
    pub fn supports(&self, collective: Collective) -> bool {
        match self {
            SynthSpec::ForestColl { .. } => matches!(collective, Collective::Broadcast),
            SynthSpec::Multilevel { .. } => matches!(
                collective,
                Collective::Broadcast | Collective::Reduce | Collective::Allreduce
            ),
        }
    }

    /// Synthesizes the schedule for `collective` on `view`. Returns `None`
    /// when the spec does not support the collective or the view cannot
    /// host it (e.g. fewer edge-disjoint trees than `k` asks for).
    pub fn synthesize(
        &self,
        collective: Collective,
        view: &TopologyView,
        root: usize,
    ) -> Option<Schedule> {
        if !self.supports(collective) {
            return None;
        }
        match *self {
            SynthSpec::ForestColl { k } => forestcoll::build(view, root, k),
            SynthSpec::Multilevel { tiers } => multilevel::build(collective, view, root, tiers),
        }
    }
}

/// Whether any synthesizer emits `collective` — asked before a topology
/// view is derived for it.
pub fn is_synthesizable(collective: Collective) -> bool {
    [
        SynthSpec::ForestColl { k: 1 },
        SynthSpec::Multilevel { tiers: 1 },
    ]
    .iter()
    .any(|spec| spec.supports(collective))
}

/// Enumerates the synthesized candidates worth tuning for `collective` on
/// `view`: the ForestColl forest with the rate-optimal tree count (found
/// by the binary search over bottleneck capacities, rooted at 0 like every
/// tuned schedule), and the two-tier multilevel trees when the view
/// actually has a hierarchy to exploit.
pub fn synth_algorithms(collective: Collective, view: &TopologyView) -> Vec<AlgorithmId> {
    let mut specs: Vec<SynthSpec> = Vec::new();
    if collective == Collective::Broadcast {
        if let Some(k) = forestcoll::best_k(view, 0) {
            specs.push(SynthSpec::ForestColl { k });
        }
    }
    let groups = view.num_groups();
    if groups > 1 && groups < view.num_ranks() {
        let spec = SynthSpec::Multilevel { tiers: 2 };
        if spec.supports(collective) {
            specs.push(spec);
        }
    }
    specs
        .into_iter()
        .map(|s| AlgorithmId::new(collective, s.name()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_round_trip() {
        for spec in [
            SynthSpec::ForestColl { k: 1 },
            SynthSpec::ForestColl { k: 4 },
            SynthSpec::Multilevel { tiers: 1 },
            SynthSpec::Multilevel { tiers: 2 },
        ] {
            assert_eq!(SynthSpec::parse(&spec.name()), Some(spec));
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for name in [
            "synth:forestcoll",         // no params
            "synth:forestcoll:k=0",     // out of range
            "synth:forestcoll:k=5",     // above MAX_TREES
            "synth:forestcoll:k=02",    // leading zero
            "synth:forestcoll:k=+2",    // sign
            "synth:forestcoll:k=",      // empty
            "synth:forestcoll:j=2",     // wrong key
            "synth:multilevel:tiers=3", // deeper than the view model
            "synth:unknown:k=2",        // unknown family
            "forestcoll:k=2",           // missing prefix
            "synth:",                   // empty family
        ] {
            assert_eq!(SynthSpec::parse(name), None, "{name}");
        }
    }

    #[test]
    fn candidates_key_off_the_hierarchy() {
        let flat = TopologyView::full_mesh(8, 10.0, 1.0);
        let clustered = TopologyView::clustered(&[4, 4], (100.0, 0.3), (5.0, 25.0)).unwrap();
        let flat_bcast = synth_algorithms(Collective::Broadcast, &flat);
        assert_eq!(flat_bcast.len(), 1, "forest only on a flat mesh");
        assert!(flat_bcast[0].name().starts_with("synth:forestcoll"));
        let clustered_bcast = synth_algorithms(Collective::Broadcast, &clustered);
        assert_eq!(clustered_bcast.len(), 2);
        let ar = synth_algorithms(Collective::Allreduce, &clustered);
        assert_eq!(ar.len(), 1);
        assert_eq!(ar[0].name(), "synth:multilevel:tiers=2");
        assert!(ar[0].is_synthesized());
        assert!(!ar[0].is_linear);
        assert!(synth_algorithms(Collective::Alltoall, &clustered).is_empty());
    }

    #[test]
    fn synthesized_ids_carry_valid_metadata_bounds() {
        // The tuner prunes on min_steps/min_rank_bytes without building;
        // check the closed forms hold for the synthesized schedules too.
        let view = TopologyView::clustered(&[4, 4, 4, 4], (100.0, 0.3), (5.0, 25.0)).unwrap();
        let p = view.num_ranks();
        for collective in [Collective::Broadcast, Collective::Allreduce] {
            for id in synth_algorithms(collective, &view) {
                let spec = SynthSpec::parse(id.name()).unwrap();
                let sched = spec.synthesize(collective, &view, 0).unwrap();
                let network_steps = sched
                    .steps
                    .iter()
                    .filter(|s| s.messages().any(|m| !m.is_local()))
                    .count() as u64;
                assert!(id.min_steps(p) <= network_steps, "{}", id.name());
                for n in [1000u64, 65536, (1 << 20) + 13] {
                    assert!(
                        id.min_rank_bytes(n, p) <= sched.max_bytes_sent_by_rank(n),
                        "{} n={n}",
                        id.name()
                    );
                }
            }
        }
    }
}
