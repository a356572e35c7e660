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

/// A rooted communication tree over `p = 2^s` ranks with `s` synchronous
/// steps. The kinds differ only in when a rank joins ([`Tree::recv_step`])
/// and whom it talks to ([`Tree::partner`]), both stated on *logical* ranks
/// `l = (r − root) mod p` (Sec. 2.2); every other question is answered from
/// those two.
#[derive(Debug, Clone)]
pub struct Tree {
    kind: TreeKind,
    p: usize,
    s: u32,
    root: usize,
    /// `ν(l)` for every logical rank `l`; empty unless the kind is
    /// [`TreeKind::BineDistanceDoubling`].
    nu: Vec<u64>,
    /// Inverse of `nu`: `inv_nu[ν] = l`; empty like `nu`.
    inv_nu: Vec<usize>,
}

/// Builds a tree of `kind` over `p = 2^s` ranks rooted at `root`.
///
/// # Panics
/// Panics unless `p` is a power of two and `root < p`.
pub fn build_tree(kind: TreeKind, p: usize, root: usize) -> Tree {
    let s = num_steps(p);
    assert!(root < p, "root {root} out of range for p = {p}");
    let (mut nu, mut inv_nu) = (Vec::new(), Vec::new());
    if kind == TreeKind::BineDistanceDoubling {
        nu = nu_labels(p);
        inv_nu = vec![usize::MAX; p];
        for (r, &v) in nu.iter().enumerate() {
            assert!(
                inv_nu[v as usize] == usize::MAX,
                "ν labelling is not a bijection for p = {p} (collision at ν = {v})"
            );
            inv_nu[v as usize] = r;
        }
    }
    Tree {
        kind,
        p,
        s,
        root,
        nu,
        inv_nu,
    }
}

/// Computes the `ν` labelling of Sec. 3.2.1 for all logical ranks of a
/// `p`-rank collective: `ν(r) = h(r) ⊕ (h(r) >> 1)` where
/// `h(r) = rank2nb(p − r)` for even `r` (with `h(0) = 0`) and
/// `h(r) = rank2nb(r)` for odd `r`. The labelling is a bijection from ranks
/// onto `[0, p)`.
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

impl Tree {
    /// Number of ranks `p`, always a power of two. Nothing folds another
    /// rank count onto a tree: the typed schedule builders panic on one, and
    /// `bine_sched::build` returns `None` for a `Pow2` row at one.
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// Number of steps `s = log2 p`.
    pub fn num_steps(&self) -> u32 {
        self.s
    }

    /// The root rank of the tree.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Step at which rank `r` receives the data from its parent
    /// (`None` for the root).
    pub fn recv_step(&self, r: usize) -> Option<u32> {
        let l = self.logical(r);
        if l == 0 {
            return None;
        }
        Some(match self.kind {
            // Sec. 2.3.2: `s − u`, `u` the number of consecutive equal
            // least-significant digits of `rank2nb(l)`.
            TreeKind::BineDistanceHalving => {
                self.s - trailing_equal_bits(rank2nb(l, self.p), self.s)
            }
            // Sec. 3.2.2: the highest set bit of `ν(l)`.
            TreeKind::BineDistanceDoubling => highest_set_bit(self.nu[l]),
            // MPICH: the root reaches distance p/2 first, so the lowest set
            // bit of `l` says how late `l` joins.
            TreeKind::BinomialDistanceHalving => self.s - 1 - l.trailing_zeros(),
            // Open MPI: the root reaches distance 1 first; the highest set
            // bit of `l`.
            TreeKind::BinomialDistanceDoubling => highest_set_bit(l as u64),
        })
    }

    /// The peer rank `r` communicates with at `step`, if it participates in
    /// that step. At `recv_step(r)` the peer is the parent; at every later
    /// step it is the child joining the tree at that step. The root has a
    /// child at every step.
    pub fn partner(&self, r: usize, step: u32) -> Option<usize> {
        self.peer(r, step, self.recv_step(r).unwrap_or_default())
    }

    /// The child joining the tree at `step` that `r` forwards the data to:
    /// `None` unless `r` holds the data by then (it is the root, or received
    /// at an earlier step).
    pub fn child(&self, r: usize, step: u32) -> Option<usize> {
        self.peer(r, step, self.first_send_step(r))
    }

    /// `r`'s peer at `step`, if `from ≤ step < s`. Each rule flips one digit
    /// of the logical rank's label: the same flip names the parent at the
    /// receive step and the child at every later step.
    fn peer(&self, r: usize, step: u32, from: u32) -> Option<usize> {
        if step < from || step >= self.s {
            return None;
        }
        let (p, s, l) = (self.p, self.s, self.logical(r));
        let q = match self.kind {
            // Eq. 1: the negabinary representations differ in the `s − step`
            // least-significant digits.
            TreeKind::BineDistanceHalving => nb2rank(rank2nb(l, p) ^ ones(s - step), p),
            // Sec. 3.2.2: the `ν` labels differ in bit `step`.
            TreeKind::BineDistanceDoubling => self.inv_nu[(self.nu[l] ^ (1 << step)) as usize],
            // MPICH: distance `2^(s − 1 − step)`, below the lowest set bit of
            // a child's `l` and at it for its parent.
            TreeKind::BinomialDistanceHalving => l ^ (1 << (s - 1 - step)),
            // Open MPI: distance `2^step`, above the highest set bit of a
            // child's `l` and at it for its parent.
            TreeKind::BinomialDistanceDoubling => l ^ (1 << step),
        };
        Some((q + self.root) % p)
    }

    /// Maps a physical rank to its logical identifier (Sec. 2.2: subtract
    /// the root modulo `p`).
    #[inline]
    fn logical(&self, r: usize) -> usize {
        (r + self.p - self.root) % self.p
    }

    /// First step at which rank `r` *sends* data (0 for the root).
    pub fn first_send_step(&self, r: usize) -> u32 {
        self.recv_step(r).map_or(0, |i| i + 1)
    }

    /// Parent of `r`, or `None` if `r` is the root.
    pub fn parent(&self, r: usize) -> Option<usize> {
        self.recv_step(r).and_then(|i| self.partner(r, i))
    }

    /// Children of `r` as `(step, child)` pairs, ordered by step.
    pub fn children(&self, r: usize) -> Vec<(u32, usize)> {
        (self.first_send_step(r)..self.s)
            .filter_map(|step| self.child(r, step).map(|c| (step, c)))
            .collect()
    }

    /// Writes all ranks in the subtree rooted at `r`, `r` included, into
    /// `ranks` in ascending order; the buffer is cleared first. Builders hold
    /// one buffer across the ranks of a tree, so listing a subtree does not
    /// allocate once the buffer has grown to the largest one.
    pub fn subtree(&self, r: usize, ranks: &mut Vec<usize>) {
        ranks.clear();
        ranks.push(r);
        // The list is its own frontier: every rank behind `visited` still
        // has its children to add.
        let mut visited = 0;
        while let Some(&x) = ranks.get(visited) {
            visited += 1;
            let steps = self.first_send_step(x)..self.s;
            ranks.extend(steps.filter_map(|step| self.child(x, step)));
        }
        ranks.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_tree_invariants(tree: &Tree) {
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
                    check_tree_invariants(&tree);
                }
            }
        }
    }

    #[test]
    fn bine_dh_matches_figure_4() {
        // 16-node distance-halving Bine tree rooted at 0 (Fig. 4).
        let tree = build_tree(TreeKind::BineDistanceHalving, 16, 0);
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
        let tree = build_tree(TreeKind::BineDistanceHalving, p, 0);
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
        let tree = build_tree(TreeKind::BineDistanceDoubling, 8, 0);
        let nu = nu_labels(8);
        assert_eq!(nu[0], 0);
        for step in 0..3 {
            let c = tree.partner(0, step).unwrap();
            assert_eq!(nu[c], 1 << step);
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
        let dd = build_tree(TreeKind::BinomialDistanceDoubling, 8, 0);
        assert_eq!(dd.partner(0, 0), Some(1));
        assert_eq!(dd.partner(0, 1), Some(2));
        assert_eq!(dd.partner(1, 1), Some(3));
        assert_eq!(dd.partner(0, 2), Some(4));
        // Distance-halving (MPICH): 0 -> 4, then 0 -> 2, 4 -> 6, ...
        let dh = build_tree(TreeKind::BinomialDistanceHalving, 8, 0);
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
        let tree = build_tree(TreeKind::BineDistanceHalving, p, 0);
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
