//! Tree communication patterns: distance-halving / distance-doubling Bine
//! trees (Sec. 2 and Sec. 3.2) and the standard binomial trees they are
//! compared against (MPICH-style distance-halving, Open MPI-style
//! distance-doubling).
//!
//! A tree pattern over `p = 2^s` ranks describes a broadcast-like dataflow:
//! the root holds the data at step 0 and at every step each rank that already
//! holds the data forwards it to exactly one rank that does not, so that after
//! `s` steps every rank has been reached. The same pattern, read in reverse,
//! describes gather/reduce dataflows.
//!
//! All trees support an arbitrary root via logical rotation of the rank
//! space (Sec. 2.2).

use crate::negabinary::{highest_set_bit, nb2rank, num_steps, ones, rank2nb, trailing_equal_bits};

/// Which tree-construction rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeKind {
    /// Distance-halving Bine tree (Sec. 2).
    BineDistanceHalving,
    /// Distance-doubling Bine tree (Sec. 3.2, Appendix A).
    BineDistanceDoubling,
    /// Distance-halving binomial tree (MPICH-style broadcast tree).
    BinomialDistanceHalving,
    /// Distance-doubling binomial tree (Open MPI-style in-order binomial tree).
    BinomialDistanceDoubling,
}

impl TreeKind {
    /// All supported tree kinds, in a stable order.
    pub const ALL: [TreeKind; 4] = [
        TreeKind::BineDistanceHalving,
        TreeKind::BineDistanceDoubling,
        TreeKind::BinomialDistanceHalving,
        TreeKind::BinomialDistanceDoubling,
    ];

    /// Short human-readable name used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            TreeKind::BineDistanceHalving => "bine-dh",
            TreeKind::BineDistanceDoubling => "bine-dd",
            TreeKind::BinomialDistanceHalving => "binomial-dh",
            TreeKind::BinomialDistanceDoubling => "binomial-dd",
        }
    }
}

/// Builds a boxed tree of the requested kind.
pub fn build_tree(kind: TreeKind, p: usize, root: usize) -> Box<dyn CommTree> {
    match kind {
        TreeKind::BineDistanceHalving => Box::new(BineTreeDh::new(p, root)),
        TreeKind::BineDistanceDoubling => Box::new(BineTreeDd::new(p, root)),
        TreeKind::BinomialDistanceHalving => Box::new(BinomialTreeDh::new(p, root)),
        TreeKind::BinomialDistanceDoubling => Box::new(BinomialTreeDd::new(p, root)),
    }
}

/// A rooted communication tree over `p = 2^s` ranks with `s` synchronous
/// steps.
pub trait CommTree {
    /// Number of ranks `p` (always a power of two at this layer; non-power-of
    /// -two rank counts are folded in by the schedule layer).
    fn num_ranks(&self) -> usize;
    /// Number of steps `s = log2 p`.
    fn num_steps(&self) -> u32;
    /// The root rank of the tree.
    fn root(&self) -> usize;
    /// Step at which rank `r` receives the data from its parent
    /// (`None` for the root).
    fn recv_step(&self, r: usize) -> Option<u32>;
    /// The peer rank `r` communicates with at `step`, if it participates in
    /// that step. At `recv_step(r)` the peer is the parent; at every later
    /// step it is the child joining the tree at that step. The root has a
    /// child at every step.
    fn partner(&self, r: usize, step: u32) -> Option<usize>;

    /// First step at which rank `r` *sends* data (0 for the root).
    fn first_send_step(&self, r: usize) -> u32 {
        match self.recv_step(r) {
            None => 0,
            Some(i) => i + 1,
        }
    }

    /// Parent of `r`, or `None` if `r` is the root.
    fn parent(&self, r: usize) -> Option<usize> {
        self.recv_step(r).map(|i| {
            self.partner(r, i)
                .expect("partner must exist at the receive step")
        })
    }

    /// Children of `r` as `(step, child)` pairs, ordered by step.
    fn children(&self, r: usize) -> Vec<(u32, usize)> {
        (self.first_send_step(r)..self.num_steps())
            .filter_map(|step| self.partner(r, step).map(|c| (step, c)))
            .collect()
    }

    /// Writes all ranks in the subtree rooted at `r`, `r` included, into
    /// `ranks` in ascending order; the buffer is cleared first. Builders hold
    /// one buffer across the ranks of a tree, so listing a subtree does not
    /// allocate once the buffer has grown to the largest one.
    fn subtree(&self, r: usize, ranks: &mut Vec<usize>) {
        ranks.clear();
        ranks.push(r);
        // The list is its own frontier: every rank behind `visited` still
        // has its children to add.
        let mut visited = 0;
        while let Some(&x) = ranks.get(visited) {
            visited += 1;
            let steps = self.first_send_step(x)..self.num_steps();
            ranks.extend(steps.filter_map(|step| self.partner(x, step)));
        }
        ranks.sort_unstable();
    }
}

/// Maps a physical rank to its logical identifier in a tree rooted at `root`
/// (Sec. 2.2: subtract the root modulo `p`).
#[inline]
fn to_logical(r: usize, root: usize, p: usize) -> usize {
    (r + p - root) % p
}

/// Maps a logical rank back to the physical rank space.
#[inline]
fn to_physical(l: usize, root: usize, p: usize) -> usize {
    (l + root) % p
}

// ---------------------------------------------------------------------------
// Distance-halving Bine tree (Sec. 2)
// ---------------------------------------------------------------------------

/// Distance-halving Bine tree (Sec. 2.3).
///
/// Rank `r` (logical, i.e. relative to the root) receives the data at step
/// `i = s − u`, where `u` is the number of consecutive equal least-significant
/// digits of `rank2nb(r)`. At step `i` a rank communicates with the rank whose
/// negabinary representation differs in the `s − i` least-significant digits
/// (Eq. 1).
#[derive(Debug, Clone)]
pub struct BineTreeDh {
    p: usize,
    s: u32,
    root: usize,
}

impl BineTreeDh {
    /// Creates a distance-halving Bine tree over `p = 2^s` ranks rooted at
    /// `root`.
    pub fn new(p: usize, root: usize) -> Self {
        let s = num_steps(p);
        assert!(root < p, "root {root} out of range for p = {p}");
        Self { p, s, root }
    }
}

impl CommTree for BineTreeDh {
    fn num_ranks(&self) -> usize {
        self.p
    }
    fn num_steps(&self) -> u32 {
        self.s
    }
    fn root(&self) -> usize {
        self.root
    }

    fn recv_step(&self, r: usize) -> Option<u32> {
        let l = to_logical(r, self.root, self.p);
        if l == 0 {
            return None;
        }
        let u = trailing_equal_bits(rank2nb(l, self.p), self.s);
        Some(self.s - u)
    }

    fn partner(&self, r: usize, step: u32) -> Option<usize> {
        if step >= self.s {
            return None;
        }
        let l = to_logical(r, self.root, self.p);
        let first = self.recv_step(r).unwrap_or_default();
        if step < first {
            return None;
        }
        let q = nb2rank(rank2nb(l, self.p) ^ ones(self.s - step), self.p);
        Some(to_physical(q, self.root, self.p))
    }
}

// ---------------------------------------------------------------------------
// Distance-doubling Bine tree (Sec. 3.2, Appendix A)
// ---------------------------------------------------------------------------

/// Distance-doubling Bine tree (Sec. 3.2).
///
/// Each rank `r` is assigned `ν(r) = h(r) ⊕ (h(r) >> 1)` where
/// `h(r) = rank2nb(p − r)` for even `r` (with `h(0) = 0`) and
/// `h(r) = rank2nb(r)` for odd `r`. A rank receives the data at the step given
/// by the highest set bit of `ν(r)` and, at every later step `j`, sends it to
/// the rank whose `ν` differs in bit `j`.
#[derive(Debug, Clone)]
pub struct BineTreeDd {
    p: usize,
    s: u32,
    root: usize,
    /// `ν(l)` for every logical rank `l`.
    nu: Vec<u64>,
    /// Inverse of `nu`: `inv_nu[ν] = l`.
    inv_nu: Vec<usize>,
}

/// Computes the `ν` labelling of Sec. 3.2.1 for all logical ranks of a
/// `p`-rank collective. The labelling is a bijection from ranks onto
/// `[0, p)`.
pub fn nu_labels(p: usize) -> Vec<u64> {
    let s = num_steps(p);
    let mask = ones(s);
    (0..p)
        .map(|r| {
            let h = if r == 0 {
                0
            } else if r % 2 == 1 {
                rank2nb(r, p)
            } else {
                rank2nb(p - r, p)
            } & mask;
            (h ^ (h >> 1)) & mask
        })
        .collect()
}

impl BineTreeDd {
    /// Creates a distance-doubling Bine tree over `p = 2^s` ranks rooted at
    /// `root`.
    pub fn new(p: usize, root: usize) -> Self {
        let s = num_steps(p);
        assert!(root < p, "root {root} out of range for p = {p}");
        let nu = nu_labels(p);
        let mut inv_nu = vec![usize::MAX; p];
        for (r, &v) in nu.iter().enumerate() {
            assert!(
                inv_nu[v as usize] == usize::MAX,
                "ν labelling is not a bijection for p = {p} (collision at ν = {v})"
            );
            inv_nu[v as usize] = r;
        }
        Self {
            p,
            s,
            root,
            nu,
            inv_nu,
        }
    }

    /// The `ν` label of physical rank `r`.
    pub fn nu(&self, r: usize) -> u64 {
        self.nu[to_logical(r, self.root, self.p)]
    }
}

impl CommTree for BineTreeDd {
    fn num_ranks(&self) -> usize {
        self.p
    }
    fn num_steps(&self) -> u32 {
        self.s
    }
    fn root(&self) -> usize {
        self.root
    }

    fn recv_step(&self, r: usize) -> Option<u32> {
        let l = to_logical(r, self.root, self.p);
        let v = self.nu[l];
        if v == 0 {
            None
        } else {
            Some(highest_set_bit(v))
        }
    }

    fn partner(&self, r: usize, step: u32) -> Option<usize> {
        if step >= self.s {
            return None;
        }
        let l = to_logical(r, self.root, self.p);
        let first = self.recv_step(r).unwrap_or_default();
        if step < first {
            return None;
        }
        let q = self.inv_nu[(self.nu[l] ^ (1 << step)) as usize];
        Some(to_physical(q, self.root, self.p))
    }
}

// ---------------------------------------------------------------------------
// Standard binomial trees (baselines)
// ---------------------------------------------------------------------------

/// MPICH-style distance-halving binomial tree.
///
/// The root first sends to the rank at distance `p/2`, then `p/4`, …, 1; a
/// non-root logical rank `l` receives from `l − 2^k` where `k` is the position
/// of the lowest set bit of `l`.
#[derive(Debug, Clone)]
pub struct BinomialTreeDh {
    p: usize,
    s: u32,
    root: usize,
}

impl BinomialTreeDh {
    /// Creates an MPICH-style distance-halving binomial tree.
    pub fn new(p: usize, root: usize) -> Self {
        let s = num_steps(p);
        assert!(root < p, "root {root} out of range for p = {p}");
        Self { p, s, root }
    }
}

impl CommTree for BinomialTreeDh {
    fn num_ranks(&self) -> usize {
        self.p
    }
    fn num_steps(&self) -> u32 {
        self.s
    }
    fn root(&self) -> usize {
        self.root
    }

    fn recv_step(&self, r: usize) -> Option<u32> {
        let l = to_logical(r, self.root, self.p);
        if l == 0 {
            None
        } else {
            let k = l.trailing_zeros();
            Some(self.s - 1 - k)
        }
    }

    fn partner(&self, r: usize, step: u32) -> Option<usize> {
        if step >= self.s {
            return None;
        }
        let l = to_logical(r, self.root, self.p);
        match self.recv_step(r) {
            Some(i) if step < i => None,
            Some(i) if step == i => {
                let k = l.trailing_zeros();
                Some(to_physical(l - (1 << k), self.root, self.p))
            }
            _ => {
                // Child joining at `step`: at distance 2^(s − 1 − step) above.
                let q = l + (1usize << (self.s - 1 - step));
                Some(to_physical(q, self.root, self.p))
            }
        }
    }
}

/// Open MPI-style distance-doubling (in-order) binomial tree.
///
/// The root first sends to the rank at distance 1, then 2, 4, …; a non-root
/// logical rank `l` receives from `l − 2^k` where `k` is the position of the
/// highest set bit of `l`.
#[derive(Debug, Clone)]
pub struct BinomialTreeDd {
    p: usize,
    s: u32,
    root: usize,
}

impl BinomialTreeDd {
    /// Creates an Open MPI-style distance-doubling binomial tree.
    pub fn new(p: usize, root: usize) -> Self {
        let s = num_steps(p);
        assert!(root < p, "root {root} out of range for p = {p}");
        Self { p, s, root }
    }
}

impl CommTree for BinomialTreeDd {
    fn num_ranks(&self) -> usize {
        self.p
    }
    fn num_steps(&self) -> u32 {
        self.s
    }
    fn root(&self) -> usize {
        self.root
    }

    fn recv_step(&self, r: usize) -> Option<u32> {
        let l = to_logical(r, self.root, self.p);
        if l == 0 {
            None
        } else {
            Some(highest_set_bit(l as u64))
        }
    }

    fn partner(&self, r: usize, step: u32) -> Option<usize> {
        if step >= self.s {
            return None;
        }
        let l = to_logical(r, self.root, self.p);
        match self.recv_step(r) {
            Some(i) if step < i => None,
            Some(i) if step == i => Some(to_physical(l - (1 << i), self.root, self.p)),
            _ => Some(to_physical(l + (1 << step), self.root, self.p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_tree_invariants(tree: &dyn CommTree) {
        let p = tree.num_ranks();
        let s = tree.num_steps();
        let root = tree.root();

        // The root never receives, everyone else receives exactly once.
        assert!(tree.recv_step(root).is_none());
        for r in 0..p {
            if r != root {
                let i = tree
                    .recv_step(r)
                    .expect("non-root must have a receive step");
                assert!(i < s);
                let parent = tree.parent(r).unwrap();
                // The parent lists r as the child joining at step i.
                assert_eq!(tree.partner(parent, i), Some(r), "rank {r} step {i}");
                // The parent is already active before step i.
                if let Some(pi) = tree.recv_step(parent) {
                    assert!(pi < i, "parent {parent} of {r} joins at {pi} >= {i}");
                }
            }
        }

        // Every rank is reached exactly once when simulating the broadcast.
        let mut reached: HashSet<usize> = HashSet::from([root]);
        for step in 0..s {
            let mut new = Vec::new();
            for &r in reached.iter() {
                if step >= tree.first_send_step(r) {
                    if let Some(c) = tree.partner(r, step) {
                        new.push(c);
                    }
                }
            }
            for c in new {
                assert!(reached.insert(c), "rank {c} reached twice at step {step}");
            }
        }
        assert_eq!(reached.len(), p, "broadcast did not reach all ranks");

        // The subtree rooted at the root is the whole rank set.
        let mut sub = Vec::new();
        tree.subtree(root, &mut sub);
        assert_eq!(sub, (0..p).collect::<Vec<_>>());

        // Subtree sizes are consistent: sum over the root's children + 1 = p.
        let mut sum = 0;
        for (_, c) in tree.children(root) {
            tree.subtree(c, &mut sub);
            sum += sub.len();
        }
        assert_eq!(sum + 1, p);
    }

    #[test]
    fn all_tree_kinds_satisfy_invariants() {
        for &kind in &TreeKind::ALL {
            for s in 1..=9u32 {
                let p = 1usize << s;
                for root in [0, 1, p / 2, p - 1] {
                    let tree = build_tree(kind, p, root);
                    check_tree_invariants(tree.as_ref());
                }
            }
        }
    }

    #[test]
    fn bine_dh_matches_figure_4() {
        // 16-node distance-halving Bine tree rooted at 0 (Fig. 4).
        let tree = BineTreeDh::new(16, 0);
        // Rank 8 receives at step 1 (A).
        assert_eq!(tree.recv_step(8), Some(1));
        // At step 2 rank 8 sends to rank 7 (B).
        assert_eq!(tree.partner(8, 2), Some(7));
        // Rank 4 is reached via 0 -> 3 -> 4.
        assert_eq!(tree.partner(0, 1), Some(3));
        assert_eq!(tree.partner(3, 2), Some(4));
        assert_eq!(tree.parent(4), Some(3));
        assert_eq!(tree.parent(3), Some(0));
        // The root's first partner is at modular distance |1-2+4-8| = 5 -> rank 11.
        assert_eq!(tree.partner(0, 0), Some(11));
    }

    #[test]
    fn bine_dh_subtree_shares_leading_bits() {
        // Sec. 2.3.3: all descendants of rank 8 (reached at step 1) share its
        // i + 1 = 2 most significant negabinary digits.
        let p = 16;
        let tree = BineTreeDh::new(p, 0);
        let prefix = rank2nb(8, p) >> 2;
        let mut sub = Vec::new();
        tree.subtree(8, &mut sub);
        assert!(sub.len() > 1);
        for r in sub {
            assert_eq!(rank2nb(r, p) >> 2, prefix, "rank {r}");
        }
    }

    #[test]
    fn bine_dd_root_zero_children() {
        // Fig. 6 (right): the distance-doubling tree rooted at 0 sends first
        // to rank 1 (distance 1), then distance -1... partners are the ranks
        // whose ν equals 2^j.
        let tree = BineTreeDd::new(8, 0);
        assert_eq!(tree.nu(0), 0);
        for step in 0..3 {
            let c = tree.partner(0, step).unwrap();
            assert_eq!(tree.nu(c), 1 << step);
            assert_eq!(tree.recv_step(c), Some(step));
        }
        // Sec. 3.2.2: rank 2 receives at step 1 and then sends to rank 5
        // (ν(2) = 011, ν(5) = 111).
        assert_eq!(tree.recv_step(2), Some(1));
        assert_eq!(tree.partner(2, 2), Some(5));
    }

    #[test]
    fn nu_labelling_matches_figure_6() {
        // Fig. 6 (right) lists ν(r) for ranks 0..8 as
        // 000 001 011 100 110 111 101 010.
        let nu = nu_labels(8);
        assert_eq!(
            nu,
            vec![0b000, 0b001, 0b011, 0b100, 0b110, 0b111, 0b101, 0b010]
        );
    }

    #[test]
    fn binomial_trees_match_figure_1() {
        // Distance-doubling (Open MPI): 0 -> 1, then 0 -> 2, 1 -> 3, ...
        let dd = BinomialTreeDd::new(8, 0);
        assert_eq!(dd.partner(0, 0), Some(1));
        assert_eq!(dd.partner(0, 1), Some(2));
        assert_eq!(dd.partner(1, 1), Some(3));
        assert_eq!(dd.partner(0, 2), Some(4));
        // Distance-halving (MPICH): 0 -> 4, then 0 -> 2, 4 -> 6, ...
        let dh = BinomialTreeDh::new(8, 0);
        assert_eq!(dh.partner(0, 0), Some(4));
        assert_eq!(dh.partner(0, 1), Some(2));
        assert_eq!(dh.partner(4, 1), Some(6));
        assert_eq!(dh.partner(0, 2), Some(1));
        assert_eq!(dh.partner(4, 2), Some(5));
    }

    #[test]
    fn rotation_preserves_structure() {
        for &kind in &TreeKind::ALL {
            let p = 32;
            let base = build_tree(kind, p, 0);
            for root in 1..p {
                let rotated = build_tree(kind, p, root);
                for r in 0..p {
                    let l = (r + p - root) % p;
                    assert_eq!(
                        rotated.recv_step(r),
                        base.recv_step(l),
                        "kind {kind:?} root {root} rank {r}"
                    );
                    for step in 0..base.num_steps() {
                        let a = rotated.partner(r, step);
                        let b = base.partner(l, step).map(|q| (q + root) % p);
                        assert_eq!(a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn bine_dh_children_are_contiguous_blocks() {
        // Sec. 4.1/4.3: distance-halving Bine subtrees are circularly
        // contiguous rank ranges, unlike distance-doubling Bine subtrees.
        let p = 64;
        let tree = BineTreeDh::new(p, 0);
        let mut sub = Vec::new();
        for r in 0..p {
            tree.subtree(r, &mut sub);
            // Check circular contiguity: the ranks, viewed on the circle,
            // form one contiguous arc.
            let set: HashSet<usize> = sub.iter().copied().collect();
            let mut boundaries = 0;
            for &x in &sub {
                if !set.contains(&((x + 1) % p)) {
                    boundaries += 1;
                }
            }
            assert!(
                boundaries <= 1,
                "subtree of {r} is not a contiguous arc: {sub:?}"
            );
        }
    }
}
