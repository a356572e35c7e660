//! The algorithm catalog: one [`Row`] per algorithm — its collective, its
//! name, its v-variant alias, its role in the paper's comparisons and the
//! rank counts it builds at — from which every string-keyed question about
//! an algorithm is answered ([`algorithms`], [`has_algorithm`], [`build`],
//! [`build_irregular`], [`is_linear`], …), and the one [`walk`] over what
//! the rows build that the sweeps and the test suites iterate.

use std::sync::Arc;

use crate::collectives::irregular::{traff_gather, traff_scatter};
use crate::collectives::{
    allgather, allreduce, alltoall, broadcast, gather, reduce, reduce_scatter, scatter,
    AllgatherAlg, AllreduceAlg, AlltoallAlg, BroadcastAlg, GatherAlg, ReduceAlg, ReduceScatterAlg,
    ScatterAlg,
};
use crate::noncontig::NonContigStrategy;
use crate::schedule::{Collective, Counts, Schedule};
use crate::synth;

/// A named algorithm for a given collective.
///
/// The name is an *open* identity: catalog algorithms use their enum names
/// (`"bine-large"`), topology-synthesized schedules use the parameterized
/// `synth:` grammar (`"synth:forestcoll:k=2"`), and either may carry a
/// `+seg{S}` pipelining suffix. Identities are owned (`Arc<str>`), so ids
/// minted at runtime by the synthesizers of a [`crate::provider::ProviderSet`]
/// are first-class citizens of the tuner, the decision tables and the
/// serving layer alongside the static catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AlgorithmId {
    /// The collective the algorithm implements.
    pub collective: Collective,
    /// The algorithm name (catalog enum name or `synth:` grammar).
    name: Arc<str>,
    /// Whether this is one of the paper's Bine algorithms.
    pub is_bine: bool,
    /// Whether this algorithm plays the role of the *binomial-tree /
    /// butterfly baseline* in the paper's head-to-head tables (Tables 3–5).
    pub is_binomial_baseline: bool,
    /// Whether the algorithm takes Θ(p) communication steps (ring,
    /// pairwise) rather than Θ(log p) — the distinction the autotuner's
    /// latency lower bound prunes on.
    pub is_linear: bool,
}

impl AlgorithmId {
    /// Mints an id for `name`. The `is_bine` / `is_binomial_baseline` flags
    /// default to `false` (the catalog sets them from its rows' [`Family`]);
    /// `is_linear` is [`is_linear`] of the name.
    pub fn new(collective: Collective, name: impl Into<Arc<str>>) -> Self {
        let name = name.into();
        let is_linear = is_linear(&name);
        Self {
            collective,
            name,
            is_bine: false,
            is_binomial_baseline: false,
            is_linear,
        }
    }

    /// The algorithm name (including any `+seg{S}` suffix).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this id names a topology-synthesized schedule (`synth:` …).
    pub fn is_synthesized(&self) -> bool {
        synth::is_synth_name(&self.name)
    }
    /// Conservative lower bound on the number of nonempty *network* steps of
    /// the schedule this algorithm builds for `p` ranks: `p − 1` for the
    /// linear algorithms (which are chains by construction), otherwise the
    /// information-dissemination bound `ceil(log2 p)` every logarithmic
    /// collective schedule in this crate meets. Validated against the built
    /// schedules by `catalog::tests::metadata_bounds_are_true_lower_bounds`.
    pub fn min_steps(&self, p: usize) -> u64 {
        if p < 2 {
            return 0;
        }
        if self.is_linear {
            (p - 1) as u64
        } else {
            (usize::BITS - (p - 1).leading_zeros()) as u64
        }
    }

    /// Conservative lower bound on the bytes the busiest rank *sends* over
    /// the network, valid for **every** algorithm of the collective (it only
    /// uses what the collective's semantics force out of some rank):
    ///
    /// * scatter/alltoall/allgather/reduce-scatter: `p − 1` blocks must
    ///   leave the root / every rank / the average rank;
    /// * allreduce: every rank's full incompressible vector must leave it;
    /// * broadcast/reduce: the scatter-allgather compositions only move
    ///   `(p − 1)/p · n` through their busiest rank;
    /// * gather: a leaf-only rank sends just its own block.
    ///
    /// Block arithmetic rounds *down* where the real schedules round up, so
    /// the bound stays conservative for non-divisible sizes.
    pub fn min_rank_bytes(&self, n: u64, p: usize) -> u64 {
        if p < 2 {
            return 0;
        }
        let p64 = p as u64;
        let block = n / p64;
        match self.collective {
            Collective::Broadcast | Collective::Reduce => block * (p64 - 1),
            Collective::Gather => block,
            Collective::Scatter | Collective::Allgather | Collective::ReduceScatter => {
                block * (p64 - 1)
            }
            Collective::Allreduce => block * p64,
            Collective::Alltoall => block * (p64 - 1),
        }
    }
}

/// The name of `base` cut into `segments` pipeline chunks: `base` itself
/// for one (or none), `base+seg{segments}` otherwise. [`split_segments`]
/// is its inverse.
pub fn tuned_name(base: &str, segments: usize) -> String {
    if segments > 1 {
        format!("{base}+seg{segments}")
    } else {
        base.to_string()
    }
}

/// Splits a (possibly tuned) algorithm name into its base name and pipeline
/// chunk count: `"bine-large+seg8"` → `("bine-large", 8)`,
/// `"synth:forestcoll:k=2+seg8"` → `("synth:forestcoll:k=2", 8)`, a bare
/// name → `(name, 1)`. This is the inverse of the `alg+segS` naming
/// convention the catalog, the benchmark harness and the `bine-tune`
/// decision tables share, so it only accepts the *canonical* spelling that
/// `{base}+seg{chunks}` formatting produces: a non-empty base and a plain
/// decimal count ≥ 2 with no sign and no leading zeros. Anything else
/// (`+seg0`, `+seg1`, `+segX`, `+seg08`, `+seg+2`) is returned unsplit so
/// that `build` rejects it rather than silently normalizing it into a name
/// that would not round-trip.
pub fn split_segments(name: &str) -> (&str, usize) {
    if let Some((base, chunks)) = name.rsplit_once("+seg") {
        let canonical = !base.is_empty()
            && !chunks.is_empty()
            && chunks.bytes().all(|b| b.is_ascii_digit())
            && !chunks.starts_with('0');
        if canonical {
            if let Some(chunks) = chunks.parse().ok().filter(|&c| c >= 2) {
                return (base, chunks);
            }
        }
    }
    (name, 1)
}

/// The rank counts a builder's construction exists at — the one column
/// ROADMAP 2(a) (Appendix C: every rank count) flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankRule {
    /// Every rank count: the chains, Bruck and the count-aware `traff` tree.
    Any,
    /// Powers of two: every tree and butterfly.
    Pow2,
    /// Powers of two from 2: `dual-root` needs its two roots.
    Pow2From2,
}

impl RankRule {
    /// The three rules, in the order reports print them.
    pub const ALL: [RankRule; 3] = [RankRule::Any, RankRule::Pow2, RankRule::Pow2From2];

    /// How reports spell the rule.
    pub fn name(&self) -> &'static str {
        match self {
            RankRule::Any => "any p",
            RankRule::Pow2 => "2^k",
            RankRule::Pow2From2 => "2^k >= 2",
        }
    }

    /// Whether the construction exists at `p` ranks.
    pub fn admits(&self, p: usize) -> bool {
        let least = match self {
            RankRule::Any => return true,
            RankRule::Pow2 => 1,
            RankRule::Pow2From2 => 2,
        };
        p >= least && p.is_power_of_two()
    }
}

/// What an algorithm is in the paper's comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// One of the paper's Bine algorithms.
    Bine,
    /// The binomial-tree / butterfly baseline of Tables 3–5 — one per
    /// collective.
    Binomial,
    /// A Θ(p)-step chain (ring, pairwise); everything else is logarithmic.
    Linear,
    /// Any other baseline.
    Other,
}

/// The typed constructor behind a row, with the variant it is called with.
#[derive(Debug, Clone, Copy)]
enum Builder {
    Broadcast(BroadcastAlg),
    Reduce(ReduceAlg),
    Gather(GatherAlg),
    Scatter(ScatterAlg),
    Allgather(AllgatherAlg),
    ReduceScatter(ReduceScatterAlg),
    Allreduce(AllreduceAlg),
    Alltoall(AlltoallAlg),
    /// The count-aware Träff tree: no typed variant, no regular form.
    TraffGather,
    TraffScatter,
}

/// One algorithm of the catalog: everything [`algorithms`],
/// [`has_algorithm`], [`build`], [`build_irregular`], [`is_linear`],
/// [`linear_default`], [`irregular_algorithms`] and [`walk`] know about it.
#[derive(Debug)]
pub struct Row {
    builder: Builder,
    /// Whether [`algorithms`] lists it (the rest are reached by name only).
    pub listed: bool,
    /// Its role in the paper's comparisons.
    pub family: Family,
    /// The rank counts it builds at.
    pub rule: RankRule,
    /// The name [`build_irregular`] knows it by, if it has a v-variant: the
    /// regular builder with [`Counts`] attached, for every row but `traff`.
    pub v_name: Option<&'static str>,
}

const fn row(
    builder: Builder,
    listed: bool,
    family: Family,
    rule: RankRule,
    v_name: Option<&'static str>,
) -> Row {
    Row {
        builder,
        listed,
        family,
        rule,
        v_name,
    }
}

/// The catalog. Within a collective the listed rows come in the order
/// [`algorithms`] enumerates them and the v-variants in the order
/// [`irregular_algorithms`] does — the tuner breaks ties on both.
#[rustfmt::skip]
static ROWS: [Row; 39] = {
    use Builder::*;
    use Family::{Bine, Binomial, Linear, Other};
    use RankRule::{Any, Pow2, Pow2From2};
    use NonContigStrategy::{BlockByBlock, Permute, Send, TwoTransmissions};
    [
        //  constructor and variant                             listed family    ranks      v-variant
        row(Broadcast(BroadcastAlg::BineTree),                  true,  Bine,     Pow2,      None),
        row(Broadcast(BroadcastAlg::BineScatterAllgather),      true,  Bine,     Pow2,      None),
        row(Broadcast(BroadcastAlg::BinomialDistanceDoubling),  true,  Binomial, Pow2,      None),
        row(Broadcast(BroadcastAlg::BinomialDistanceHalving),   true,  Other,    Pow2,      None),
        row(Broadcast(BroadcastAlg::ScatterAllgather),          true,  Other,    Pow2,      None),
        row(Reduce(ReduceAlg::BineTree),                        true,  Bine,     Pow2,      None),
        row(Reduce(ReduceAlg::BineReduceScatterGather),         true,  Bine,     Pow2,      None),
        row(Reduce(ReduceAlg::BinomialDistanceDoubling),        true,  Binomial, Pow2,      None),
        row(Reduce(ReduceAlg::BinomialDistanceHalving),         true,  Other,    Pow2,      None),
        row(Reduce(ReduceAlg::ReduceScatterGather),             true,  Other,    Pow2,      None),
        row(TraffGather,                                        false, Other,    Any,       Some("traff")),
        row(Gather(GatherAlg::Bine),                            true,  Bine,     Pow2,      Some("bine")),
        row(Gather(GatherAlg::BinomialDistanceDoubling),        true,  Binomial, Pow2,      Some("binomial-dd")),
        row(Gather(GatherAlg::BinomialDistanceHalving),         true,  Other,    Pow2,      None),
        row(TraffScatter,                                       false, Other,    Any,       Some("traff")),
        row(Scatter(ScatterAlg::Bine),                          true,  Bine,     Pow2,      Some("bine")),
        row(Scatter(ScatterAlg::BinomialDistanceDoubling),      true,  Binomial, Pow2,      Some("binomial-dd")),
        row(Scatter(ScatterAlg::BinomialDistanceHalving),       true,  Other,    Pow2,      None),
        row(Allgather(AllgatherAlg::Bine),                      true,  Bine,     Pow2,      Some("bine")),
        row(Allgather(AllgatherAlg::RecursiveDoubling),         true,  Binomial, Pow2,      None),
        row(Allgather(AllgatherAlg::Ring),                      true,  Linear,   Any,       Some("ring")),
        row(Allgather(AllgatherAlg::Swing),                     true,  Other,    Pow2,      None),
        row(ReduceScatter(ReduceScatterAlg::Bine(Permute)),     true,  Bine,     Pow2,      Some("bine")),
        row(ReduceScatter(ReduceScatterAlg::RecursiveHalving),  true,  Binomial, Pow2,      None),
        row(ReduceScatter(ReduceScatterAlg::Ring),              true,  Linear,   Any,       Some("ring")),
        row(ReduceScatter(ReduceScatterAlg::Swing),             true,  Other,    Pow2,      None),
        row(ReduceScatter(ReduceScatterAlg::Bine(BlockByBlock)), false, Bine,    Pow2,      None),
        row(ReduceScatter(ReduceScatterAlg::Bine(Send)),        false, Bine,     Pow2,      None),
        row(ReduceScatter(ReduceScatterAlg::Bine(TwoTransmissions)), false, Bine, Pow2,     None),
        row(Allreduce(AllreduceAlg::BineSmall),                 true,  Bine,     Pow2,      None),
        row(Allreduce(AllreduceAlg::BineLarge),                 true,  Bine,     Pow2,      None),
        row(Allreduce(AllreduceAlg::RecursiveDoubling),         true,  Binomial, Pow2,      None),
        row(Allreduce(AllreduceAlg::Rabenseifner),              true,  Other,    Pow2,      None),
        row(Allreduce(AllreduceAlg::Ring),                      true,  Linear,   Any,       None),
        row(Allreduce(AllreduceAlg::Swing),                     true,  Other,    Pow2,      None),
        row(Allreduce(AllreduceAlg::DualRootPipelined),         true,  Other,    Pow2From2, None),
        row(Alltoall(AlltoallAlg::Bine),                        true,  Bine,     Pow2,      None),
        row(Alltoall(AlltoallAlg::Bruck),                       true,  Binomial, Any,       None),
        row(Alltoall(AlltoallAlg::Pairwise),                    true,  Linear,   Any,       None),
    ]
};

impl Row {
    /// What the typed constructor and variant say: the collective, and the
    /// variant's name.
    fn identity(&self) -> (Collective, Option<&'static str>) {
        match self.builder {
            Builder::Broadcast(alg) => (Collective::Broadcast, Some(alg.name())),
            Builder::Reduce(alg) => (Collective::Reduce, Some(alg.name())),
            Builder::Gather(alg) => (Collective::Gather, Some(alg.name())),
            Builder::Scatter(alg) => (Collective::Scatter, Some(alg.name())),
            Builder::Allgather(alg) => (Collective::Allgather, Some(alg.name())),
            Builder::ReduceScatter(alg) => (Collective::ReduceScatter, Some(alg.name())),
            Builder::Allreduce(alg) => (Collective::Allreduce, Some(alg.name())),
            Builder::Alltoall(alg) => (Collective::Alltoall, Some(alg.name())),
            Builder::TraffGather => (Collective::Gather, None),
            Builder::TraffScatter => (Collective::Scatter, None),
        }
    }

    /// The collective the row's algorithm implements.
    pub fn collective(&self) -> Collective {
        self.identity().0
    }

    /// The name [`build`] knows the row by — the typed variant's — and
    /// `None` for `traff`, which exists only as a v-variant.
    pub fn name(&self) -> Option<&'static str> {
        self.identity().1
    }

    /// Whether the row builds at `p` ranks rooted at `root`: the root must
    /// name a rank and the rank count satisfy the row's rule. Where this is
    /// `false`, [`build`] and [`build_irregular`] answer `None` instead of
    /// reaching a constructor's assertion.
    pub fn builds_at(&self, p: usize, root: usize) -> bool {
        root < p && self.rule.admits(p)
    }

    /// The row's schedule under `name` — its own or its v-variant alias —
    /// with `counts` attached when given.
    fn build(
        &self,
        name: &str,
        p: usize,
        root: usize,
        counts: Option<&Counts>,
    ) -> Option<Schedule> {
        if !self.builds_at(p, root) {
            return None;
        }
        let mut sched = match self.builder {
            Builder::Broadcast(alg) => broadcast(p, root, alg),
            Builder::Reduce(alg) => reduce(p, root, alg),
            Builder::Gather(alg) => gather(p, root, alg),
            Builder::Scatter(alg) => scatter(p, root, alg),
            Builder::Allgather(alg) => allgather(p, alg),
            Builder::ReduceScatter(alg) => reduce_scatter(p, alg),
            Builder::Allreduce(alg) => allreduce(p, alg),
            Builder::Alltoall(alg) => alltoall(p, alg),
            Builder::TraffGather => traff_gather(p, root, counts?, name),
            Builder::TraffScatter => traff_scatter(p, root, counts?, name),
        };
        if sched.algorithm != name {
            sched.algorithm.replace_range(.., name);
        }
        Some(match counts {
            Some(counts) => sched.with_counts(counts.clone()),
            None => sched,
        })
    }

    fn id(&self, name: &'static str) -> AlgorithmId {
        AlgorithmId {
            collective: self.collective(),
            name: name.into(),
            is_bine: self.family == Family::Bine,
            is_binomial_baseline: self.family == Family::Binomial,
            is_linear: self.family == Family::Linear,
        }
    }
}

/// The rows of `collective`, in catalog order.
pub fn rows(collective: Collective) -> impl Iterator<Item = &'static Row> {
    ROWS.iter()
        .filter(move |row| row.collective() == collective)
}

fn segmented(sched: Schedule, chunks: usize) -> Schedule {
    if chunks > 1 {
        sched.segmented(chunks)
    } else {
        sched
    }
}

/// Whether `name` (base name or `+seg{S}`-suffixed) takes Θ(p) communication
/// steps: only the catalog's [`Family::Linear`] chains do — every tree,
/// butterfly and synthesized schedule is logarithmic. A name means the same
/// in every collective that has it, so none is asked for. The definition
/// behind every "too many ranks for a linear algorithm" cut-off of the tuner
/// and the benchmark harness.
pub fn is_linear(name: &str) -> bool {
    let base = split_segments(name).0;
    let chain = |row: &Row| row.family == Family::Linear && row.name() == Some(base);
    ROWS.iter().any(chain)
}

/// Whether `name` (base name or `+seg{S}`-suffixed) is a name the *catalog*
/// can build for `collective`, without building it. Synthesized `synth:`
/// names are not catalog names; check them with
/// [`crate::synth::SynthSpec::parse`]. Decision-table loading uses this to
/// reject stale picks at parse time instead of deep in the serve path.
pub fn has_algorithm(collective: Collective, name: &str) -> bool {
    let base = split_segments(name).0;
    rows(collective).any(|row| row.name() == Some(base))
}

/// Lists every algorithm available for `collective`.
pub fn algorithms(collective: Collective) -> Vec<AlgorithmId> {
    let listed = rows(collective).filter(|row| row.listed);
    listed.filter_map(|row| Some(row.id(row.name()?))).collect()
}

/// The v-variant algorithms competing for `collective`, in catalog order,
/// under the names [`build_irregular`] takes. Empty for collectives without
/// an irregular variant (the v-variants cover
/// [`crate::IRREGULAR_COLLECTIVES`]).
pub fn irregular_algorithms(collective: Collective) -> Vec<AlgorithmId> {
    rows(collective)
        .filter_map(|row| Some(row.id(row.v_name?)))
        .collect()
}

/// Builds the schedule for a named algorithm.
///
/// `root` is used only by the rooted collectives. Total: returns `None` —
/// never panics — if the name is unknown for that collective (the unlisted
/// reduce-scatter strategy variants, `bine-send` …, are known) or its row
/// does not build at `p` ranks rooted at `root` ([`Row::builds_at`]).
///
/// A `+seg{S}` suffix with `S >= 2` (e.g. `"bine-large+seg4"`) builds the
/// base algorithm and then applies the pipelining transform of
/// [`crate::segment`] with `S` chunks, so segmented variants are reachable
/// through the same string-keyed path the benchmark harness uses for
/// everything else. `+seg1` is rejected: the unsegmented schedule goes by
/// its bare name (so algorithm names always round-trip through `build`).
pub fn build(collective: Collective, name: &str, p: usize, root: usize) -> Option<Schedule> {
    let (base, chunks) = split_segments(name);
    let row = rows(collective).find(|row| row.name() == Some(base))?;
    Some(segmented(row.build(base, p, root, None)?, chunks))
}

/// Builds the irregular (v-variant) schedule for `collective` with algorithm
/// `name` (optionally `+segS`-suffixed for pipelining): the row's regular
/// routing — or, for `traff`, a tree shaped by the counts — sized by
/// `counts`. Total, like [`build`]: `None` — never a panic — for a name that
/// is not a v-variant of `collective`, for `counts` that do not cover
/// exactly `p` ranks, and where the row does not build at `p` ranks rooted
/// at `root`.
pub fn build_irregular(
    collective: Collective,
    name: &str,
    p: usize,
    root: usize,
    counts: &Counts,
) -> Option<Schedule> {
    let (base, chunks) = split_segments(name);
    let row = rows(collective).find(|row| row.v_name == Some(base))?;
    if counts.num_ranks() != p {
        return None;
    }
    Some(segmented(row.build(base, p, root, Some(counts))?, chunks))
}

/// The algorithm the paper treats as "the Bine algorithm" for a collective
/// and a given vector size (`small` switches between the small- and
/// large-vector variants where applicable).
pub fn bine_default(collective: Collective, small_vector: bool) -> &'static str {
    match (collective, small_vector) {
        (Collective::Broadcast, true) => "bine-tree",
        (Collective::Broadcast, false) => "bine-scatter-allgather",
        (Collective::Reduce, true) => "bine-tree",
        (Collective::Reduce, false) => "bine-rs-gather",
        (Collective::Gather, _) | (Collective::Scatter, _) => "bine",
        (Collective::Allgather, _) => "bine",
        (Collective::ReduceScatter, _) => "bine-permute",
        (Collective::Allreduce, true) => "bine-small",
        (Collective::Allreduce, false) => "bine-large",
        (Collective::Alltoall, _) => "bine",
    }
}

/// The binomial-tree / butterfly baseline the paper compares against in
/// Tables 3–5 for a collective and vector-size regime.
pub fn binomial_default(collective: Collective, small_vector: bool) -> &'static str {
    match (collective, small_vector) {
        (Collective::Broadcast, true) => "binomial-dd",
        (Collective::Broadcast, false) => "scatter-allgather",
        (Collective::Reduce, true) => "binomial-dd",
        (Collective::Reduce, false) => "rs-gather",
        (Collective::Gather, _) | (Collective::Scatter, _) => "binomial-dd",
        (Collective::Allgather, _) => "recursive-doubling",
        (Collective::ReduceScatter, _) => "recursive-halving",
        (Collective::Allreduce, true) => "recursive-doubling",
        (Collective::Allreduce, false) => "rabenseifner",
        (Collective::Alltoall, _) => "bruck",
    }
}

/// The collective's Θ(p)-step algorithm ([`Family::Linear`]: ring /
/// pairwise) — the one that builds at every rank count, which is what the
/// serving ladder's last rung needs after a shrink. `None` for the rooted
/// collectives, which have no such algorithm.
pub fn linear_default(collective: Collective) -> Option<&'static str> {
    let chain = |row: &&Row| row.listed && row.family == Family::Linear;
    rows(collective).find(chain)?.name()
}

mod walk;
pub use walk::{walk, Request, Source};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_algorithm_builds() {
        for collective in Collective::ALL {
            let algs = algorithms(collective);
            assert!(!algs.is_empty());
            for alg in algs {
                let sched = build(collective, alg.name(), 32, 3)
                    .unwrap_or_else(|| panic!("{}", alg.name()));
                assert_eq!(sched.collective, collective);
                assert!(sched.validate().is_ok(), "{}", alg.name());
                assert!(has_algorithm(collective, alg.name()), "{}", alg.name());
            }
        }
    }

    #[test]
    fn exactly_one_binomial_baseline_per_collective() {
        for collective in Collective::ALL {
            let n = algorithms(collective)
                .iter()
                .filter(|a| a.is_binomial_baseline)
                .count();
            assert_eq!(n, 1, "{collective:?}");
        }
    }

    #[test]
    fn defaults_resolve_to_real_algorithms() {
        for collective in Collective::ALL {
            for small in [true, false] {
                assert!(build(collective, bine_default(collective, small), 16, 0).is_some());
                assert!(build(collective, binomial_default(collective, small), 16, 0).is_some());
            }
        }
    }

    #[test]
    fn segmented_variants_are_reachable_by_name() {
        let seg = build(Collective::Allreduce, "bine-large+seg4", 16, 0).expect("segmented build");
        let base = build(Collective::Allreduce, "bine-large", 16, 0).unwrap();
        assert_eq!(seg.algorithm, "bine-large+seg4");
        assert!(seg.num_steps() > base.num_steps());
        assert!(build(Collective::Allreduce, "bine-large+seg0", 16, 0).is_none());
        // The unsegmented schedule goes by its bare name; "+seg1" would
        // build a schedule whose algorithm name does not round-trip.
        assert!(build(Collective::Allreduce, "bine-large+seg1", 16, 0).is_none());
        assert!(build(Collective::Allreduce, "nonsense+seg4", 16, 0).is_none());
    }

    #[test]
    fn split_segments_round_trips_catalog_names() {
        assert_eq!(split_segments("bine-large"), ("bine-large", 1));
        assert_eq!(split_segments("bine-large+seg8"), ("bine-large", 8));
        assert_eq!(split_segments("ring+seg2"), ("ring", 2));
        // Malformed suffixes come back unsplit so `build` rejects them.
        assert_eq!(split_segments("bine-large+seg1"), ("bine-large+seg1", 1));
        assert_eq!(split_segments("bine-large+seg0"), ("bine-large+seg0", 1));
        assert_eq!(split_segments("bine-large+segX"), ("bine-large+segX", 1));
    }

    #[test]
    fn split_segments_round_trips_parameterized_names() {
        // The synth grammar embeds `:` and `=`; the suffix split must not
        // care.
        assert_eq!(
            split_segments("synth:forestcoll:k=2+seg8"),
            ("synth:forestcoll:k=2", 8)
        );
        assert_eq!(
            split_segments("synth:multilevel:tiers=2"),
            ("synth:multilevel:tiers=2", 1)
        );
        // Round-trip: split then re-format must reproduce the input
        // byte-for-byte for every split that succeeds.
        for name in [
            "bine-large+seg8",
            "synth:forestcoll:k=2+seg16",
            "synth:multilevel:tiers=2+seg4",
        ] {
            let (base, chunks) = split_segments(name);
            assert!(chunks > 1, "{name}");
            assert_eq!(tuned_name(base, chunks), name);
        }
        // And the other way round: format then split.
        for base in ["bine-large", "synth:forestcoll:k=2"] {
            for segments in [1, 2, 8, 16] {
                assert_eq!(
                    split_segments(&tuned_name(base, segments)),
                    (base, segments)
                );
            }
        }
    }

    #[test]
    fn split_segments_rejects_non_canonical_suffixes() {
        // Each of these would parse as a number but does not round-trip
        // through `{base}+seg{chunks}` formatting, so it must come back
        // unsplit (and `build` must reject it).
        for name in [
            "bine-large+seg08", // leading zero
            "bine-large+seg+2", // sign accepted by usize::parse
            "bine-large+seg 2", // whitespace
            "synth:forestcoll:k=2+seg02",
            "+seg4", // empty base
        ] {
            assert_eq!(split_segments(name), (name, 1), "{name}");
            assert!(
                build(Collective::Allreduce, name, 16, 0).is_none(),
                "{name}"
            );
        }
        // But a canonical suffix after a weird-looking base still splits.
        assert_eq!(split_segments("a+seg2+seg4"), ("a+seg2", 4));
    }

    #[test]
    fn has_algorithm_matches_build() {
        for collective in Collective::ALL {
            for name in [
                "bine-large",
                "ring",
                "nonsense",
                "bine-large+seg4",
                "bine-large+seg0",
                "synth:forestcoll:k=2",
                "binomial-dd",
                "bine-block-by-block",
            ] {
                assert_eq!(
                    has_algorithm(collective, name),
                    build(collective, name, 16, 0).is_some(),
                    "{collective:?} {name}"
                );
            }
        }
    }

    #[test]
    fn metadata_bounds_are_true_lower_bounds() {
        // The autotuner prunes candidates on these closed forms without
        // building their schedules, so an over-estimate would silently
        // change decision tables. Validate them against the real schedules
        // at power-of-two rank counts — the only counts the tuning grids
        // sweep, and all several generators (broadcast, reduce) accept —
        // with awkward (non-divisible) vector sizes.
        for collective in Collective::ALL {
            for p in [2usize, 4, 8, 16, 32, 64] {
                for alg in algorithms(collective) {
                    let sched = build(collective, alg.name(), p, 0)
                        .unwrap_or_else(|| panic!("{}", alg.name()));
                    let network_steps = sched
                        .steps
                        .iter()
                        .filter(|s| s.messages().any(|m| !m.is_local()))
                        .count() as u64;
                    assert!(
                        alg.min_steps(p) <= network_steps,
                        "{} p={p}: min_steps {} > actual {network_steps}",
                        alg.name(),
                        alg.min_steps(p)
                    );
                    for n in [32u64, 1000, 65536, (1 << 20) + 13] {
                        assert!(
                            alg.min_rank_bytes(n, p) <= sched.max_bytes_sent_by_rank(n),
                            "{} p={p} n={n}: min_rank_bytes {} > actual {}",
                            alg.name(),
                            alg.min_rank_bytes(n, p),
                            sched.max_bytes_sent_by_rank(n)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn only_ring_and_pairwise_are_linear() {
        for collective in Collective::ALL {
            for alg in algorithms(collective) {
                assert_eq!(
                    alg.is_linear,
                    alg.name() == "ring" || alg.name() == "pairwise",
                    "{}",
                    alg.name()
                );
                // What `is_linear` reads without a collective agrees.
                assert_eq!(is_linear(alg.name()), alg.is_linear, "{}", alg.name());
            }
        }
    }

    #[test]
    fn the_typed_enums_list_what_the_rows_list() {
        for collective in Collective::ALL {
            let typed = match collective {
                Collective::Broadcast => BroadcastAlg::ALL.map(|a| a.name()).to_vec(),
                Collective::Reduce => ReduceAlg::ALL.map(|a| a.name()).to_vec(),
                Collective::Gather => GatherAlg::ALL.map(|a| a.name()).to_vec(),
                Collective::Scatter => ScatterAlg::ALL.map(|a| a.name()).to_vec(),
                Collective::Allgather => AllgatherAlg::ALL.map(|a| a.name()).to_vec(),
                Collective::ReduceScatter => ReduceScatterAlg::ALL.map(|a| a.name()).to_vec(),
                Collective::Allreduce => AllreduceAlg::ALL.map(|a| a.name()).to_vec(),
                Collective::Alltoall => AlltoallAlg::ALL.map(|a| a.name()).to_vec(),
            };
            let listed = algorithms(collective);
            let listed: Vec<&str> = listed.iter().map(|a| a.name()).collect();
            assert_eq!(listed, typed, "{collective:?}");
        }
    }

    #[test]
    fn a_collective_resolves_each_name_to_one_row() {
        for collective in Collective::ALL {
            for names in [Row::name as fn(&Row) -> _, |row| row.v_name] {
                let mut names: Vec<&str> = rows(collective).filter_map(names).collect();
                let listed = names.len();
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), listed, "{collective:?}: {names:?}");
            }
            let has_variants = !irregular_algorithms(collective).is_empty();
            let named = crate::IRREGULAR_COLLECTIVES.contains(&collective);
            assert_eq!(has_variants, named, "{collective:?}");
        }
    }

    #[test]
    fn strategy_variants_are_reachable_by_name() {
        for name in ["bine-block-by-block", "bine-send", "bine-two-transmissions"] {
            assert!(
                build(Collective::ReduceScatter, name, 16, 0).is_some(),
                "{name}"
            );
        }
    }
}
