//! Irregular (v-variant) collectives — gather, scatter, allgather and
//! reduce-scatter where rank `i` owns a share of the vector proportional to
//! a per-rank count `cᵢ` instead of the uniform `n / p` split (MPI's
//! `MPI_Gatherv` family) — built through [`crate::build_irregular`].
//!
//! Routing is count-independent: an irregular schedule moves exactly the
//! same [`BlockId::Segment`] blocks as its regular counterpart and only the
//! *sizing* changes, via [`Counts`] attached to the [`Schedule`]. That is
//! what makes the equal-counts case reproduce the regular byte accounting
//! bit-exactly (pinned by the regression tests in `bine-net`), and why a
//! v-variant is a column of its regular algorithm's catalog row
//! ([`crate::catalog::Row::v_name`]), not a builder of its own.
//!
//! The one count-*aware* algorithm is the `traff` tree for the rooted
//! gather and scatter, after Träff, "On Optimal Trees for Irregular Gather
//! and Scatter Collectives": ranks with heavier counts are placed closer to
//! the root, so the bulk of the data crosses few tree edges. The tree is a
//! binomial skeleton over the count-sorted rank order — along every
//! root-to-leaf path the counts are non-increasing — scheduled by a greedy
//! round scheduler that respects the single-ported step model.

use crate::schedule::{BlockId, Collective, Counts, Schedule, Step, TransferKind};

/// The size-distribution descriptors the irregular tuning grid is keyed by.
///
/// An irregular grid point cannot be keyed by a single `bytes` value the
/// way the regular grid is — the *shape* of the per-rank counts changes
/// which algorithm wins. These three shapes span the space the tuner
/// sweeps: the regular special case, a linear skew, and the degenerate
/// one-rank-holds-everything case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeDist {
    /// Every rank contributes the same count (the regular special case).
    Uniform,
    /// Rank `i` contributes `i + 1` units: a linear skew.
    Linear,
    /// One rank (the root for rooted collectives, rank 0 otherwise) holds
    /// everything; all other counts are zero.
    OneHeavy,
}

impl SizeDist {
    /// All distribution descriptors, in a stable order.
    pub const ALL: [SizeDist; 3] = [SizeDist::Uniform, SizeDist::Linear, SizeDist::OneHeavy];

    /// Short name as used in decision tables.
    pub fn name(&self) -> &'static str {
        match self {
            SizeDist::Uniform => "uniform",
            SizeDist::Linear => "linear",
            SizeDist::OneHeavy => "one-heavy",
        }
    }

    /// Parses the table name back into a descriptor.
    pub fn from_name(name: &str) -> Option<SizeDist> {
        SizeDist::ALL.into_iter().find(|d| d.name() == name)
    }

    /// Materialises the per-rank counts for `p` ranks, with the heavy rank
    /// of [`SizeDist::OneHeavy`] at `heavy` (the root for rooted
    /// collectives).
    pub fn counts(&self, p: usize, heavy: usize) -> Counts {
        assert!(heavy < p, "heavy rank {heavy} out of range for p = {p}");
        match self {
            SizeDist::Uniform => Counts::new(vec![1; p]),
            SizeDist::Linear => Counts::new((1..=p as u64).collect()),
            SizeDist::OneHeavy => {
                let mut c = vec![0u64; p];
                c[heavy] = 1;
                Counts::new(c)
            }
        }
    }
}

/// A count-aware gather/scatter tree after Träff: a binomial skeleton whose
/// positions are filled in count order, so heavier ranks sit closer to the
/// root and counts are non-increasing along every root-to-leaf path.
///
/// Unlike the pow2 [`bine_core::tree::Tree`] patterns this tree exists
/// for every rank count, which is what lets the `traff` v-variants cover
/// non-power-of-two configurations.
#[derive(Debug)]
struct TraffTree {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Segments of the subtree rooted at each rank, ascending.
    subtree: Vec<Vec<u32>>,
}

impl TraffTree {
    /// Builds the tree for `p` ranks rooted at `root` from per-rank counts.
    fn new(p: usize, root: usize, counts: &Counts) -> Self {
        assert!(root < p, "root {root} out of range for p = {p}");
        assert_eq!(counts.num_ranks(), p, "counts must cover every rank");
        // Binomial skeleton positions 1..p, shallowest first: position l
        // has depth popcount(l) and parent l with its highest bit cleared.
        let mut positions: Vec<usize> = (1..p).collect();
        positions.sort_by_key(|&l| (l.count_ones(), l));
        // Non-root ranks, heaviest first (ties by rank for determinism).
        let mut ranks: Vec<usize> = (0..p).filter(|&r| r != root).collect();
        ranks.sort_by_key(|&r| (std::cmp::Reverse(counts.count(r)), r));

        let mut rank_at = vec![usize::MAX; p]; // position -> physical rank
        rank_at[0] = root;
        for (&l, &r) in positions.iter().zip(&ranks) {
            rank_at[l] = r;
        }
        let mut parent = vec![None; p];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); p];
        for l in 1..p {
            let pl = l & !(1usize << (usize::BITS - 1 - l.leading_zeros()));
            parent[rank_at[l]] = Some(rank_at[pl]);
            children[rank_at[pl]].push(rank_at[l]);
        }
        for c in &mut children {
            c.sort_unstable();
        }
        // Subtree segment sets, computed leaves-up over the positions.
        let mut subtree: Vec<Vec<u32>> = (0..p).map(|r| vec![r as u32]).collect();
        for &l in positions.iter().rev() {
            let r = rank_at[l];
            let p_of = parent[r].expect("non-root position has a parent");
            let sub = subtree[r].clone();
            subtree[p_of].extend(sub);
        }
        for s in &mut subtree {
            s.sort_unstable();
        }
        Self {
            parent,
            children,
            subtree,
        }
    }

    /// Parent of `r`, `None` for the root.
    fn parent(&self, r: usize) -> Option<usize> {
        self.parent[r]
    }

    /// Children of `r`, ascending.
    fn children(&self, r: usize) -> &[usize] {
        &self.children[r]
    }

    /// Segments of the subtree rooted at `r` (including `r`), ascending.
    fn subtree_segments(&self, r: usize) -> &[u32] {
        &self.subtree[r]
    }
}

/// Gather up a [`TraffTree`] under the single-ported step model: a rank
/// sends its subtree's segments to its parent once every child has arrived,
/// and a parent accepts at most one child per step (heaviest-pending first,
/// ties by rank, for a deterministic schedule).
///
/// The `traff` gather of the catalog: the caller (`catalog::Row::build`) has
/// checked that `root < p` and that `counts` cover `p` ranks, and attaches
/// the counts.
pub(crate) fn traff_gather(p: usize, root: usize, counts: &Counts, algorithm: &str) -> Schedule {
    let tree = TraffTree::new(p, root, counts);
    let mut sched = Schedule::new(p, Collective::Gather, algorithm, root);
    let mut pending_children: Vec<usize> = (0..p).map(|r| tree.children(r).len()).collect();
    let mut sent = vec![false; p];
    sent[root] = true; // the root never sends
                       // Weight of each rank's subtree, for the heaviest-first tie-break.
    let weight: Vec<u64> = (0..p)
        .map(|r| {
            tree.subtree_segments(r)
                .iter()
                .map(|&s| counts.count(s as usize))
                .sum()
        })
        .collect();
    while sent.iter().any(|&s| !s) {
        let mut ready: Vec<usize> = (0..p)
            .filter(|&r| !sent[r] && pending_children[r] == 0)
            .collect();
        ready.sort_by_key(|&r| (std::cmp::Reverse(weight[r]), r));
        let mut recv_busy = vec![false; p];
        let mut completed = Vec::new();
        for r in ready {
            let parent = tree.parent(r).expect("non-root rank has a parent");
            if recv_busy[parent] {
                continue; // the parent's receive port is taken this step
            }
            recv_busy[parent] = true;
            completed.push(r);
        }
        assert!(
            !completed.is_empty(),
            "traff gather scheduler stalled at p = {p}, root = {root}"
        );
        let blocks = completed.iter().map(|&r| tree.subtree_segments(r).len());
        let mut st = Step::with_capacity(completed.len(), blocks.sum());
        for &r in &completed {
            let parent = tree.parent(r).expect("non-root rank has a parent");
            let blocks = tree
                .subtree_segments(r)
                .iter()
                .map(|&s| BlockId::Segment(s));
            st.push(r, parent, blocks, TransferKind::Copy);
        }
        // Completions take effect only after the step: a parent may forward
        // its subtree no earlier than the step after its last child arrived.
        for r in completed {
            sent[r] = true;
            let parent = tree.parent(r).expect("non-root rank has a parent");
            pending_children[parent] -= 1;
        }
        sched.push_step(st);
    }
    sched
}

/// The `traff` scatter: the gather reversed in time with every message
/// turned around (the standard gather/scatter duality) — the root starts with
/// every segment and rank `i` ends up with its own.
pub(crate) fn traff_scatter(p: usize, root: usize, counts: &Counts, algorithm: &str) -> Schedule {
    let mut sched = traff_gather(p, root, counts, algorithm);
    sched.collective = Collective::Scatter;
    sched.steps.reverse();
    for step in &mut sched.steps {
        step.reverse_messages();
    }
    sched
}

/// The collectives that have v-variants, in [`Collective::ALL`] order.
pub const IRREGULAR_COLLECTIVES: [Collective; 4] = [
    Collective::Gather,
    Collective::Scatter,
    Collective::Allgather,
    Collective::ReduceScatter,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_irregular;
    use crate::collectives::{gather, GatherAlg};
    use std::collections::HashSet;

    fn some_counts(p: usize) -> Vec<Counts> {
        let mut mixed: Vec<u64> = (0..p as u64).map(|i| i % 3).collect();
        mixed[0] += 1; // keep the total non-zero even when every i % 3 == 0
        vec![
            Counts::new(vec![1; p]),
            Counts::new((1..=p as u64).collect()),
            SizeDist::OneHeavy.counts(p, 0),
            Counts::new(mixed),
        ]
    }

    #[test]
    fn traff_tree_places_heavy_ranks_near_the_root() {
        let p = 16;
        let counts = Counts::new((1..=p as u64).collect());
        let tree = TraffTree::new(p, 0, &counts);
        // Along every root-to-leaf path the counts are non-increasing.
        for r in 0..p {
            if let Some(parent) = tree.parent(r) {
                if parent != 0 {
                    assert!(
                        counts.count(parent) >= counts.count(r),
                        "parent {parent} lighter than child {r}"
                    );
                }
            }
        }
        // Every rank appears in the root's subtree exactly once.
        let segs: HashSet<u32> = tree.subtree_segments(0).iter().copied().collect();
        assert_eq!(segs.len(), p);
    }

    #[test]
    fn traff_gatherv_delivers_every_segment_to_the_root_at_any_rank_count() {
        for p in [2usize, 3, 5, 8, 12, 17, 32] {
            for counts in some_counts(p) {
                let root = p / 3;
                let sched = build_irregular(Collective::Gather, "traff", p, root, &counts).unwrap();
                assert!(sched.validate().is_ok(), "p={p}");
                let mut held: Vec<HashSet<u32>> =
                    (0..p).map(|r| HashSet::from([r as u32])).collect();
                for step in &sched.steps {
                    let snap = held.clone();
                    for m in step.messages() {
                        for b in m.blocks {
                            if let BlockId::Segment(i) = b {
                                assert!(snap[m.src].contains(i), "p={p}: sender misses block");
                                held[m.dst].insert(*i);
                            }
                        }
                    }
                }
                assert_eq!(held[root].len(), p, "p={p}");
            }
        }
    }

    #[test]
    fn traff_scatterv_delivers_each_rank_its_segment() {
        for p in [2usize, 6, 16, 23] {
            let counts = SizeDist::Linear.counts(p, 0);
            let sched = build_irregular(Collective::Scatter, "traff", p, p - 1, &counts).unwrap();
            assert!(sched.validate().is_ok(), "p={p}");
            let mut held: Vec<HashSet<u32>> = (0..p).map(|_| HashSet::new()).collect();
            held[p - 1] = (0..p as u32).collect();
            for step in &sched.steps {
                let snap = held.clone();
                for m in step.messages() {
                    for b in m.blocks {
                        if let BlockId::Segment(i) = b {
                            assert!(snap[m.src].contains(i), "p={p}: sender misses block");
                            held[m.dst].insert(*i);
                        }
                    }
                }
            }
            for (r, set) in held.iter().enumerate() {
                assert!(
                    set.contains(&(r as u32)),
                    "p={p}: rank {r} missing its block"
                );
            }
        }
    }

    #[test]
    fn one_heavy_traff_gatherv_moves_almost_nothing() {
        // When the root already holds everything, every transfer is a
        // zero-count segment: total network bytes collapse to the max(1)
        // floors only... and with the heavy rank at the root, to zero-size
        // blocks entirely.
        let p = 16;
        let root = 4;
        let counts = SizeDist::OneHeavy.counts(p, root);
        let sched = build_irregular(Collective::Gather, "traff", p, root, &counts).unwrap();
        assert_eq!(sched.total_network_bytes(1 << 20), 0);
    }

    #[test]
    fn equal_counts_reuse_the_regular_routing_with_identical_bytes() {
        let p = 16;
        let n = 1 << 20;
        let regular = gather(p, 0, GatherAlg::BinomialDistanceDoubling);
        let counts = Counts::new(vec![7; p]);
        let v = build_irregular(Collective::Gather, "binomial-dd", p, 0, &counts).unwrap();
        assert_eq!(v.total_network_bytes(n), regular.total_network_bytes(n));
        assert_eq!(
            v.max_bytes_sent_by_rank(n),
            regular.max_bytes_sent_by_rank(n)
        );
    }

    #[test]
    fn build_irregular_honours_segment_suffixes_and_rejects_unknown_names() {
        let p = 8;
        let counts = Counts::new(vec![1; p]);
        let seg = build_irregular(Collective::Allgather, "ring+seg4", p, 0, &counts).unwrap();
        assert!(seg.algorithm.ends_with("+seg4"));
        assert!(seg.counts.is_some());
        assert!(build_irregular(Collective::Allgather, "traff", p, 0, &counts).is_none());
        assert!(build_irregular(Collective::Broadcast, "traff", p, 0, &counts).is_none());
        assert!(build_irregular(Collective::Gather, "nope", p, 0, &counts).is_none());
    }

    #[test]
    fn size_dist_round_trips_and_materialises() {
        for d in SizeDist::ALL {
            assert_eq!(SizeDist::from_name(d.name()), Some(d));
        }
        assert_eq!(SizeDist::Uniform.counts(4, 0).per_rank(), &[1, 1, 1, 1]);
        assert_eq!(SizeDist::Linear.counts(4, 0).per_rank(), &[1, 2, 3, 4]);
        assert_eq!(SizeDist::OneHeavy.counts(4, 2).per_rank(), &[0, 0, 1, 0]);
    }
}
