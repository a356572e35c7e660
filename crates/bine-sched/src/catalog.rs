//! A string-keyed catalog of every (collective, algorithm) pair, used by the
//! benchmark harness and the examples to enumerate and build schedules
//! without hard-coding enum variants.

use crate::collectives::{
    allgather, allreduce, alltoall, broadcast, gather, reduce, reduce_scatter, scatter,
    AllgatherAlg, AllreduceAlg, AlltoallAlg, BroadcastAlg, GatherAlg, ReduceAlg, ReduceScatterAlg,
    ScatterAlg,
};
use std::sync::Arc;

use crate::noncontig::NonContigStrategy;
use crate::schedule::{Collective, Schedule};
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
    /// default to `false` (the catalog sets them for its own entries);
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

/// Whether `name` (base name or `+seg{S}`-suffixed) takes Θ(p) communication
/// steps: only the catalog's `ring` / `pairwise` chains do — every tree,
/// butterfly and synthesized schedule is logarithmic. The one definition
/// behind [`AlgorithmId::is_linear`], [`linear_default`] and every
/// "too many ranks for a linear algorithm" cut-off of the tuner and the
/// benchmark harness.
pub fn is_linear(name: &str) -> bool {
    matches!(split_segments(name).0, "ring" | "pairwise")
}

/// Whether the builder behind base name `base` supports `p` ranks rooted at
/// `root`: the root must name a rank (so `p >= 1`); the chains, Bruck and
/// the count-aware `traff` tree build at every rank count, every other tree
/// and butterfly at powers of two only (`dual-root` needs its two roots).
/// [`build`] and [`crate::build_irregular`] answer `None` where this is
/// `false` instead of reaching a builder's assertion.
pub(crate) fn builds_at(base: &str, p: usize, root: usize) -> bool {
    root < p
        && match base {
            "ring" | "pairwise" | "bruck" | "traff" => true,
            "dual-root" => p >= 2 && p.is_power_of_two(),
            _ => p.is_power_of_two(),
        }
}

/// The catalog's one table, read by [`has_algorithm`], [`algorithms`] and
/// [`build`]: per collective, its algorithm enum — `ALL` is what gets
/// listed — the variants only a name reaches, the binomial-tree / butterfly
/// baseline of Tables 3–5, and the builder. `$body` is expanded once per
/// row, with `$listed` and `$unlisted` bound to lists of the row's enum,
/// `$baseline` to one of its variants and `$build` to a
/// `Fn(p, root, variant) -> Schedule`.
macro_rules! per_collective {
    ($collective:expr, |$listed:ident, $unlisted:ident, $baseline:ident, $build:ident| $body:expr) => {
        per_collective!(@rows $collective, ($listed, $unlisted, $baseline, $build), $body,
            Broadcast: BroadcastAlg::BinomialDistanceDoubling, [],
                |p, root, alg| broadcast(p, root, alg);
            Reduce: ReduceAlg::BinomialDistanceDoubling, [],
                |p, root, alg| reduce(p, root, alg);
            Gather: GatherAlg::BinomialDistanceDoubling, [],
                |p, root, alg| gather(p, root, alg);
            Scatter: ScatterAlg::BinomialDistanceDoubling, [],
                |p, root, alg| scatter(p, root, alg);
            Allgather: AllgatherAlg::RecursiveDoubling, [],
                |p, _root, alg| allgather(p, alg);
            ReduceScatter: ReduceScatterAlg::RecursiveHalving,
                NonContigStrategy::ALL.map(ReduceScatterAlg::Bine),
                |p, _root, alg| reduce_scatter(p, alg);
            Allreduce: AllreduceAlg::RecursiveDoubling, [],
                |p, _root, alg| allreduce(p, alg);
            Alltoall: AlltoallAlg::Bruck, [],
                |p, _root, alg| alltoall(p, alg);
        )
    };
    // The match itself: one arm per row, each binding the four names for
    // its own enum and then evaluating `$body`.
    (@rows $collective:expr, ($listed:ident, $unlisted:ident, $baseline:ident, $build:ident),
     $body:expr, $($variant:ident: $alg:ident :: $base:ident, $extra:expr,
     |$p:ident, $root:ident, $a:ident| $builder:expr;)*) => {
        match $collective {
            $(Collective::$variant => {
                let ($listed, $baseline) = ($alg::ALL, $alg::$base);
                let $unlisted: &[$alg] = &$extra;
                let $build = |$p: usize, $root: usize, $a: $alg| $builder;
                $body
            })*
        }
    };
}

/// Whether `name` (base name or `+seg{S}`-suffixed) is a name the *catalog*
/// can build for `collective`, without building it. Synthesized `synth:`
/// names are not catalog names; check them with
/// [`crate::synth::SynthSpec::parse`]. Decision-table loading uses this to
/// reject stale picks at parse time instead of deep in the serve path.
pub fn has_algorithm(collective: Collective, name: &str) -> bool {
    let (base, _) = split_segments(name);
    per_collective!(collective, |listed, unlisted, _baseline, _build| {
        listed.iter().chain(unlisted).any(|a| a.name() == base)
    })
}

/// Lists every algorithm available for `collective`.
pub fn algorithms(collective: Collective) -> Vec<AlgorithmId> {
    per_collective!(collective, |listed, _unlisted, baseline, _build| {
        let ids = listed.iter().map(|a| AlgorithmId {
            is_bine: a.is_bine(),
            is_binomial_baseline: *a == baseline,
            ..AlgorithmId::new(collective, a.name())
        });
        ids.collect()
    })
}

/// Builds the schedule for a named algorithm.
///
/// `root` is used only by the rooted collectives. Total: returns `None` —
/// never panics — if the name is unknown for that collective (the unlisted
/// reduce-scatter strategy variants, `bine-send` …, are known) or its
/// builder does not support `p` ranks rooted at `root`: the root must name a
/// rank; `ring`, `pairwise` and `bruck` build at every rank count, every
/// other tree and butterfly at powers of two only (`dual-root` from two).
///
/// A `+seg{S}` suffix with `S >= 2` (e.g. `"bine-large+seg4"`) builds the
/// base algorithm and then applies the pipelining transform of
/// [`crate::segment`] with `S` chunks, so segmented variants are reachable
/// through the same string-keyed path the benchmark harness uses for
/// everything else. `+seg1` is rejected: the unsegmented schedule goes by
/// its bare name (so algorithm names always round-trip through `build`).
pub fn build(collective: Collective, name: &str, p: usize, root: usize) -> Option<Schedule> {
    let (base, chunks) = split_segments(name);
    if chunks > 1 {
        return build(collective, base, p, root).map(|s| s.segmented(chunks));
    }
    per_collective!(collective, |listed, unlisted, _baseline, build| {
        let alg = listed.iter().chain(unlisted).find(|a| a.name() == name)?;
        builds_at(name, p, root).then(|| build(p, root, *alg))
    })
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

/// The collective's Θ(p)-step algorithm ([`is_linear`]: ring / pairwise) —
/// the one that builds at every rank count, which is what the serving
/// ladder's last rung needs after a shrink. `None` for the rooted
/// collectives, which have no such algorithm.
pub fn linear_default(collective: Collective) -> Option<&'static str> {
    per_collective!(collective, |listed, _unlisted, _baseline, _build| {
        listed.iter().map(|a| a.name()).find(|name| is_linear(name))
    })
}

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
            assert_eq!(format!("{base}+seg{chunks}"), name);
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
                        .filter(|s| s.messages.iter().any(|m| !m.is_local()))
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
            }
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
