//! Generic schedule builders parameterised by a tree or butterfly pattern.
//!
//! Every collective of the paper is obtained by instantiating one of these
//! builders with either a Bine pattern or a baseline pattern (binomial tree,
//! recursive doubling/halving, ring, Bruck, …). Keeping the builders generic
//! guarantees that Bine and baseline schedules share exactly the same data
//! semantics and differ only in *who talks to whom* — which is precisely the
//! paper's claim.
//!
//! ## What a builder may allocate
//!
//! Per step, the step's message headers and block arena, each sized exactly
//! before the step is filled ([`Step::with_capacity`]): a builder counts a
//! step's messages and blocks before it lists them (`tree_step_sizes` for
//! the trees, a closed form for the butterflies and rings, a partition pass
//! for the alltoalls). Per build, a handful of scratch tables, each
//! allocated once: the trees' per-step sizes and subtree buffer, the
//! butterfly's responsibilities, the butterfly allgather's `p × p`
//! holdings, and the store-and-forward alltoalls' two flat `p × p` tables,
//! per-rank sends and sort buffer. Nothing is allocated per rank or cloned
//! per step. `tests/build_alloc.rs` pins `2·steps + 64` allocations, and the
//! bytes at the result's exact size plus scratch, for every catalog
//! algorithm; `tests/catalog_golden.rs` pins the schedules.

use bine_core::block::nu_bit_reversal_permutation;
use bine_core::butterfly::Butterfly;
use bine_core::tree::{build_tree, Tree, TreeKind};

use crate::noncontig::NonContigStrategy;
use crate::schedule::{contiguity_with, BlockId, Collective, Schedule, Step, TransferKind};

/// Broadcast of the whole vector down a tree: at every tree step each active
/// rank forwards the full vector to the child joining at that step.
pub fn tree_broadcast(tree: &Tree, algorithm: &str) -> Schedule {
    let p = tree.num_ranks();
    let mut sched = Schedule::new(p, Collective::Broadcast, algorithm, tree.root());
    for (step, (joining, _)) in (0..).zip(tree_step_sizes(tree)) {
        // Every rank reached so far forwards to the rank joining now.
        let mut st = Step::with_capacity(joining, joining);
        for r in 0..p {
            if let Some(c) = tree.child(r, step) {
                st.push(r, c, [BlockId::Full], TransferKind::Copy);
            }
        }
        sched.push_step(st);
    }
    sched
}

/// Reduction of the whole vector up a tree: the mirror image of
/// [`tree_broadcast`], with children sending their partial reductions to
/// their parents in reverse step order.
pub fn tree_reduce(tree: &Tree, algorithm: &str) -> Schedule {
    let p = tree.num_ranks();
    let s = tree.num_steps();
    let mut sched = Schedule::new(p, Collective::Reduce, algorithm, tree.root());
    let sizes = tree_step_sizes(tree);
    for tree_step in (0..s).rev() {
        let (joining, _) = sizes[tree_step as usize];
        let mut st = Step::with_capacity(joining, joining);
        for r in 0..p {
            if tree.recv_step(r) == Some(tree_step) {
                let parent = tree.parent(r).expect("non-root rank has a parent");
                st.push(r, parent, [BlockId::Full], TransferKind::Reduce);
            }
        }
        sched.push_step(st);
    }
    sched
}

/// Gather up a tree: each rank, when its turn comes (reverse tree order),
/// sends the blocks of its whole subtree to its parent.
pub fn tree_gather(tree: &Tree, algorithm: &str) -> Schedule {
    let p = tree.num_ranks();
    let s = tree.num_steps();
    let mut sched = Schedule::new(p, Collective::Gather, algorithm, tree.root());
    let sizes = tree_step_sizes(tree);
    let mut subtree = Vec::new();
    for tree_step in (0..s).rev() {
        let (joining, blocks) = sizes[tree_step as usize];
        let mut st = Step::with_capacity(joining, blocks);
        for r in 0..p {
            if tree.recv_step(r) == Some(tree_step) {
                let parent = tree.parent(r).expect("non-root rank has a parent");
                tree.subtree(r, &mut subtree);
                st.push(r, parent, subtree_blocks(&subtree), TransferKind::Copy);
            }
        }
        sched.push_step(st);
    }
    sched
}

/// Scatter down a tree: each rank, when forwarding, sends the child the
/// blocks of the child's subtree (Sec. 4.2).
pub fn tree_scatter(tree: &Tree, algorithm: &str) -> Schedule {
    let p = tree.num_ranks();
    let mut sched = Schedule::new(p, Collective::Scatter, algorithm, tree.root());
    let mut subtree = Vec::new();
    for (step, (joining, blocks)) in (0..).zip(tree_step_sizes(tree)) {
        let mut st = Step::with_capacity(joining, blocks);
        for r in 0..p {
            if let Some(c) = tree.child(r, step) {
                tree.subtree(c, &mut subtree);
                st.push(r, c, subtree_blocks(&subtree), TransferKind::Copy);
            }
        }
        sched.push_step(st);
    }
    sched
}

/// The exact sizes of a tree schedule's steps: per tree step, how many
/// ranks join the tree at it, and how many ranks their subtrees hold
/// between them — the messages of the step, and its blocks when each
/// message carries the joining rank's subtree.
fn tree_step_sizes(tree: &Tree) -> Vec<(usize, usize)> {
    let p = tree.num_ranks();
    let mut sizes = vec![(0, 0); tree.num_steps() as usize];
    let mut subtree = vec![1; p];
    // Latest joiners first: a subtree is complete before it is added to
    // its parent's, which joined at an earlier step.
    for step in (0..tree.num_steps()).rev() {
        for r in 0..p {
            if tree.recv_step(r) == Some(step) {
                let parent = tree.parent(r).expect("non-root rank has a parent");
                subtree[parent] += subtree[r];
                let (joining, blocks) = &mut sizes[step as usize];
                *joining += 1;
                *blocks += subtree[r];
            }
        }
    }
    sizes
}

/// The segments of a subtree's ranks.
fn subtree_blocks(ranks: &[usize]) -> impl Iterator<Item = BlockId> + '_ {
    ranks.iter().map(|&r| BlockId::Segment(r as u32))
}

/// The local pass of the `permute` strategy: every rank reorders its whole
/// buffer, one contiguous move of all `p` segments.
fn local_permute_step(p: usize) -> Step {
    let mut st = Step::with_capacity(p, p * p);
    for r in 0..p {
        let blocks = (0..p as u32).map(BlockId::Segment);
        st.push_with_segments(r, r, blocks, TransferKind::Copy, 1);
    }
    st
}

/// Allgather over a butterfly: at every step each rank sends everything it
/// currently holds to its partner, so holdings double until every rank has
/// the whole vector.
pub fn butterfly_allgather(bf: &Butterfly, algorithm: &str) -> Schedule {
    let p = bf.num_ranks();
    let mut sched = Schedule::new(p, Collective::Allgather, algorithm, 0);
    // Row `r` of one p × p table lists what rank `r` holds, ascending, in its
    // first `held` entries; an exchange doubles every row in place.
    let mut have = vec![0u32; p * p];
    for r in 0..p {
        have[r * p] = r as u32;
    }
    let mut held = 1;
    for step in 0..bf.num_steps() {
        let mut st = Step::with_capacity(p, p * held);
        for r in 0..p {
            let blocks = have[r * p..][..held].iter().map(|&b| BlockId::Segment(b));
            st.push(r, bf.partner(r, step), blocks, TransferKind::Copy);
        }
        // The messages are listed; now each pair swaps copies. What partners
        // hold is disjoint — holdings double until they are the whole vector.
        for r in 0..p {
            let q = bf.partner(r, step);
            if r < q {
                let (low, high) = have.split_at_mut(q * p);
                let (mine, theirs) = (&mut low[r * p..][..2 * held], &mut high[..2 * held]);
                merge_backward(mine, &theirs[..held]);
                theirs.copy_from_slice(mine);
            }
        }
        held *= 2;
        sched.push_step(st);
    }
    sched
}

/// Merges the ascending `theirs` into `mine`, whose first `mine.len() −
/// theirs.len()` entries hold an ascending list disjoint from it. Filled from
/// the back, an entry is overwritten only after it has been read.
fn merge_backward(mine: &mut [u32], theirs: &[u32]) {
    let (mut i, mut j) = (mine.len() - theirs.len(), theirs.len());
    while j > 0 {
        let at = i + j - 1;
        if i > 0 && mine[i - 1] > theirs[j - 1] {
            i -= 1;
            mine[at] = mine[i];
        } else {
            j -= 1;
            mine[at] = theirs[j];
        }
    }
}

/// Reduce-scatter over a butterfly with vector halving: at step `i` each rank
/// sends its partner the blocks the partner is responsible for from step `i`
/// on, and keeps its own responsibility set (Sec. 4.3).
///
/// The `strategy` controls how non-contiguous block sets are handled
/// (Sec. 4.3.1); it affects the segment counts and any extra local-permute or
/// reorder steps, but never the logical block routing.
pub fn butterfly_reduce_scatter(
    bf: &Butterfly,
    strategy: NonContigStrategy,
    algorithm: &str,
) -> Schedule {
    let p = bf.num_ranks();
    let mut sched = Schedule::new(p, Collective::ReduceScatter, algorithm, 0);
    if bf.num_steps() == 0 {
        return sched;
    }

    // Optional up-front local permutation pass (Permute strategy).
    if strategy == NonContigStrategy::Permute {
        sched.push_step(local_permute_step(p));
    }
    push_halving_exchanges(&mut sched, bf, strategy);

    // The Send strategy pays one extra exchange at the end to move every
    // block back to its true owner (unless a following collective undoes the
    // permutation implicitly — composition helpers drop this step).
    if strategy == NonContigStrategy::Send {
        let perm = nu_bit_reversal_permutation(p);
        let moved = perm.iter().enumerate().filter(|&(r, &q)| q != r);
        let count = moved.clone().count();
        let mut st = Step::with_capacity(count, count);
        for (r, &q) in moved {
            let own = [BlockId::Segment(r as u32)];
            st.push_with_segments(r, q, own, TransferKind::Copy, 1);
        }
        if !st.is_empty() {
            sched.push_step(st);
        }
    }
    sched
}

/// The exchange steps of a vector-halving reduce-scatter: at step `i` every
/// rank sends its partner the partner's responsibility set, listed ascending
/// straight from the butterfly's table.
fn push_halving_exchanges(sched: &mut Schedule, bf: &Butterfly, strategy: NonContigStrategy) {
    let p = bf.num_ranks();
    let resp = bf.responsibilities();
    for step in 0..bf.num_steps() {
        // Partners pair the ranks up: the step carries every set once.
        let blocks = (0..p).map(|q| resp.of(step, q).len()).sum();
        let mut st = Step::with_capacity(p, blocks);
        for r in 0..p {
            let q = bf.partner(r, step);
            let set = resp.of(step, q);
            let blocks = set.iter().map(|&b| BlockId::Segment(b));
            let kind = TransferKind::Reduce;
            match strategy {
                NonContigStrategy::BlockByBlock => {
                    st.push_with_segments(r, q, blocks, kind, set.len() as u32)
                }
                NonContigStrategy::Permute | NonContigStrategy::Send => {
                    // Buffer is (virtually) permuted: one contiguous range.
                    st.push_with_segments(r, q, blocks, kind, 1)
                }
                NonContigStrategy::TwoTransmissions => {
                    // Natural layout: at most two contiguous pieces for
                    // distance-halving patterns, measured from the indices.
                    st.push(r, q, blocks, kind)
                }
            }
        }
        sched.push_step(st);
    }
}

/// Reduce-scatter for use inside a composed collective (allreduce, reduce,
/// …): identical to the `Permute` strategy but without the local permute
/// pass, because the following phase implicitly restores the block order
/// (Sec. 4.3.1, "Send").
pub fn butterfly_reduce_scatter_composed(bf: &Butterfly, algorithm: &str) -> Schedule {
    let mut sched = Schedule::new(bf.num_ranks(), Collective::ReduceScatter, algorithm, 0);
    push_halving_exchanges(&mut sched, bf, NonContigStrategy::Permute);
    sched
}

/// Forces every network message of a schedule to be treated as a single
/// contiguous transmission (used when a permutation — explicit or implicit —
/// guarantees contiguity).
pub fn force_contiguous(mut sched: Schedule) -> Schedule {
    for step in &mut sched.steps {
        step.set_network_segments(|_| 1);
    }
    sched
}

/// Marks every network message of a schedule as maximally non-contiguous
/// (one memory segment per block), modelling algorithms such as Swing that
/// exchange the right blocks in a scattered layout (Sec. 4.4).
pub fn mark_noncontiguous(mut sched: Schedule) -> Schedule {
    for step in &mut sched.steps {
        step.set_network_segments(|m| m.blocks.len() as u32);
    }
    sched
}

/// Allgather whose transmissions are kept contiguous by a block permutation:
/// the network messages are single contiguous ranges and, when `standalone`
/// is true, a final local pass restores the natural block order
/// (the allgather counterpart of the `permute` strategy, Sec. 4.3.1).
pub fn butterfly_allgather_permute(bf: &Butterfly, standalone: bool, algorithm: &str) -> Schedule {
    let p = bf.num_ranks();
    let mut sched = force_contiguous(butterfly_allgather(bf, algorithm));
    if standalone && p > 1 {
        sched.push_step(local_permute_step(p));
    }
    sched
}

/// Small-vector allreduce over a butterfly (recursive doubling style): the
/// whole vector is exchanged and reduced at every step.
pub fn butterfly_allreduce_small(bf: &Butterfly, algorithm: &str) -> Schedule {
    let p = bf.num_ranks();
    let mut sched = Schedule::new(p, Collective::Allreduce, algorithm, 0);
    for step in 0..bf.num_steps() {
        let mut st = Step::with_capacity(p, p);
        for r in 0..p {
            let q = bf.partner(r, step);
            st.push(r, q, [BlockId::Full], TransferKind::Reduce);
        }
        sched.push_step(st);
    }
    sched
}

/// Alltoall over a butterfly: at every step each rank forwards to its partner
/// all held blocks whose *destination* lies in the partner's responsibility
/// set, exactly like a reduce-scatter on destinations (Sec. 4.4).
pub fn butterfly_alltoall(bf: &Butterfly, algorithm: &str) -> Schedule {
    let resp = bf.responsibilities();
    forwarding_alltoall(bf.num_ranks(), bf.num_steps(), algorithm, |step, r| {
        let q = bf.partner(r, step);
        let dest_set = resp.of(step, q);
        (q, move |dest| dest_set.binary_search(&dest).is_ok())
    })
}

/// Bruck's logarithmic alltoall: at step `k` every rank forwards to the rank
/// `2^k` positions ahead all blocks whose remaining destination offset has
/// bit `k` set.
pub fn bruck_alltoall(p: usize, algorithm: &str) -> Schedule {
    let steps = usize::BITS - (p - 1).leading_zeros();
    forwarding_alltoall(p, steps, algorithm, |k, r| {
        let q = (r + (1 << k)) % p;
        (q, move |dest| ((dest as usize + p - r) % p) >> k & 1 == 1)
    })
}

/// The store-and-forward alltoall both logarithmic algorithms are: at every
/// step, rank `r` forwards to one peer the blocks it holds whose destination
/// a predicate selects, in the order it holds them, and keeps the rest;
/// `hop(step, r)` is that peer and that predicate. A step's messages are all
/// cut from the holdings the step started with, and a rank then holds what
/// it kept followed by what arrived. (What arrives would not move on within
/// the step anyway: its destination fails the receiver's predicate —
/// partners answer for disjoint destinations, a Bruck hop clears the bit.)
fn forwarding_alltoall<S: Fn(u32) -> bool>(
    p: usize,
    steps: u32,
    algorithm: &str,
    hop: impl Fn(u32, usize) -> (usize, S),
) -> Schedule {
    let mut sched = Schedule::new(p, Collective::Alltoall, algorithm, 0);
    // Blocks move and are never copied, so all holdings fit one p² table:
    // rank r holds `held[at[r]..at[r + 1]]`. `kept` is what the ranks keep
    // this step, rank after rank.
    let mut held = Vec::with_capacity(p * p);
    held.extend(
        (0..p as u32)
            .flat_map(|origin| (0..p as u32).map(move |dest| BlockId::Pairwise { origin, dest })),
    );
    let mut kept = Vec::with_capacity(p * p);
    let mut at: Vec<usize> = (0..=p).map(|r| r * p).collect();
    // Per rank this step: its peer, how many blocks it sends and keeps.
    let mut sends = Vec::with_capacity(p);
    let mut sorted = Vec::with_capacity(p);
    for step in 0..steps {
        // Partition every holding in place, stably: what moves to the front
        // of it, what stays to `kept`. A step's sizes are then known before
        // it is listed.
        sends.clear();
        kept.clear();
        for r in 0..p {
            let (q, selects) = hop(step, r);
            let list = &mut held[at[r]..at[r + 1]];
            let mut moving = 0;
            for i in 0..list.len() {
                let b = list[i];
                if matches!(b, BlockId::Pairwise { dest, .. } if selects(dest)) {
                    list[moving] = b;
                    moving += 1;
                } else {
                    kept.push(b);
                }
            }
            sends.push((q, moving, list.len() - moving));
        }
        let messages = sends.iter().filter(|&&(_, moving, _)| moving > 0).count();
        let blocks = sends.iter().map(|&(_, moving, _)| moving).sum();
        let mut st = Step::with_capacity(messages, blocks);
        for (r, &(q, moving, _)) in sends.iter().enumerate() {
            if moving > 0 {
                let blocks = &held[at[r]..at[r] + moving];
                let segments = contiguity_with(blocks, &mut sorted);
                st.push_with_segments(r, q, blocks.iter().copied(), TransferKind::Copy, segments);
            }
        }
        // Lay the holdings out anew, kept then arrived: `at[r]` runs from
        // the start of rank r's range to its end, then shifts back.
        at.fill(0);
        for (r, &(q, moving, stays)) in sends.iter().enumerate() {
            at[r + 1] += stays;
            at[q + 1] += moving;
        }
        for r in 0..p {
            at[r + 1] += at[r];
        }
        let mut kept_from = 0;
        for (r, &(_, _, stays)) in sends.iter().enumerate() {
            held[at[r]..at[r] + stays].copy_from_slice(&kept[kept_from..kept_from + stays]);
            kept_from += stays;
            at[r] += stays;
        }
        for m in st.messages() {
            held[at[m.dst]..at[m.dst] + m.blocks.len()].copy_from_slice(m.blocks);
            at[m.dst] += m.blocks.len();
        }
        at.copy_within(..p, 1);
        at[0] = 0;
        sched.push_step(st);
    }
    sched
}

/// Linear (pairwise shifted) alltoall: `p − 1` steps, at step `k` every rank
/// sends one block directly to the rank `k` positions ahead.
pub fn pairwise_alltoall(p: usize, algorithm: &str) -> Schedule {
    let mut sched = Schedule::new(p, Collective::Alltoall, algorithm, 0);
    for k in 1..p {
        let mut st = Step::with_capacity(p, p);
        for r in 0..p {
            let q = (r + k) % p;
            let block = BlockId::Pairwise {
                origin: r as u32,
                dest: q as u32,
            };
            st.push(r, q, [block], TransferKind::Copy);
        }
        sched.push_step(st);
    }
    sched
}

/// Ring reduce-scatter: `p − 1` steps around the ring; at step `t` rank `r`
/// forwards the partially-reduced segment `(r − t − 1) mod p` to its right
/// neighbour. Rank `r` ends up owning segment `r`.
pub fn ring_reduce_scatter(p: usize, algorithm: &str) -> Schedule {
    let mut sched = Schedule::new(p, Collective::ReduceScatter, algorithm, 0);
    for t in 0..p.saturating_sub(1) {
        let mut st = Step::with_capacity(p, p);
        for r in 0..p {
            let seg = BlockId::Segment((((r + 2 * p) - t - 1) % p) as u32);
            st.push(r, (r + 1) % p, [seg], TransferKind::Reduce);
        }
        sched.push_step(st);
    }
    sched
}

/// Ring allgather: `p − 1` steps around the ring; at step `t` rank `r`
/// forwards segment `(r − t) mod p` to its right neighbour.
pub fn ring_allgather(p: usize, algorithm: &str) -> Schedule {
    let mut sched = Schedule::new(p, Collective::Allgather, algorithm, 0);
    for t in 0..p.saturating_sub(1) {
        let mut st = Step::with_capacity(p, p);
        for r in 0..p {
            let seg = BlockId::Segment((((r + p) - t) % p) as u32);
            st.push(r, (r + 1) % p, [seg], TransferKind::Copy);
        }
        sched.push_step(st);
    }
    sched
}

/// Träff's dual-root reduction-to-all ("A Doubly-pipelined, Dual-root
/// Reduction-to-all Algorithm and Implementation"): the vector is split in
/// two halves, each reduced up and broadcast down its own tree — tree 0
/// rooted at rank 0 owns segments `[0, p/2)`, tree 1 rooted at rank `p/2`
/// owns `[p/2, p)`. The two trees are step-interleaved (tree 0 on even
/// steps, tree 1 on odd) so every rank stays single-ported per step while
/// each half-vector travels concurrently with the other. The *doubly
/// pipelined* behaviour of the paper is recovered by applying the standard
/// `+segS` segmentation transform on top — each half is itself a multi-block
/// message the pipeline can split.
pub fn dual_root_allreduce(p: usize, algorithm: &str) -> Schedule {
    assert!(
        p >= 2 && p.is_power_of_two(),
        "dual-root allreduce needs a power-of-two rank count >= 2, got {p}"
    );
    let trees = [0, p / 2].map(|root| build_tree(TreeKind::BinomialDistanceDoubling, p, root));
    let half = p as u32 / 2;
    let halves = [0..half, half..p as u32].map(|range| range.map(BlockId::Segment));
    // Both trees are binomial over the same ranks: their steps match in size.
    let sizes = tree_step_sizes(&trees[0]);
    let s = trees[0].num_steps();
    let mut sched = Schedule::new(p, Collective::Allreduce, algorithm, 0);
    // Phase 1: reduce each half up its tree, in reverse tree-step order.
    for tree_step in (0..s).rev() {
        let (joining, _) = sizes[tree_step as usize];
        for (tree, half) in trees.iter().zip(&halves) {
            let mut st = Step::with_capacity(joining, joining * half.len());
            for r in 0..p {
                if tree.recv_step(r) == Some(tree_step) {
                    let parent = tree.parent(r).expect("non-root rank has a parent");
                    st.push(r, parent, half.clone(), TransferKind::Reduce);
                }
            }
            sched.push_step(st);
        }
    }
    // Phase 2: broadcast each reduced half back down its tree.
    for (step, &(joining, _)) in (0..).zip(&sizes) {
        for (tree, half) in trees.iter().zip(&halves) {
            let mut st = Step::with_capacity(joining, joining * half.len());
            for r in 0..p {
                if let Some(c) = tree.child(r, step) {
                    st.push(r, c, half.clone(), TransferKind::Copy);
                }
            }
            sched.push_step(st);
        }
    }
    sched
}

/// Composes two schedules into a new one for `collective`, concatenating the
/// steps (e.g. reduce-scatter + allgather = allreduce).
pub fn compose(
    collective: Collective,
    algorithm: &str,
    root: usize,
    first: Schedule,
    second: Schedule,
) -> Schedule {
    assert_eq!(first.num_ranks, second.num_ranks);
    let mut sched = Schedule::new(first.num_ranks, collective, algorithm, root);
    sched.extend_with(first);
    sched.extend_with(second);
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use bine_core::butterfly::ButterflyKind;
    use std::collections::HashSet;

    #[test]
    fn tree_broadcast_has_p_minus_1_messages() {
        for &kind in &TreeKind::ALL {
            let tree = build_tree(kind, 64, 5);
            let sched = tree_broadcast(&tree, kind.name());
            assert_eq!(sched.messages().count(), 63);
            assert!(sched.validate().is_ok());
            // Every rank except the root receives exactly once.
            let mut recv = vec![0usize; 64];
            for (_, m) in sched.messages() {
                recv[m.dst] += 1;
            }
            assert_eq!(recv[5], 0);
            assert!(recv.iter().enumerate().all(|(r, &c)| r == 5 || c == 1));
        }
    }

    #[test]
    fn tree_gather_and_scatter_move_whole_subtrees() {
        let tree = build_tree(TreeKind::BineDistanceHalving, 32, 0);
        let gather = tree_gather(&tree, "bine");
        let scatter = tree_scatter(&tree, "bine");
        assert!(gather.validate().is_ok());
        assert!(scatter.validate().is_ok());
        // Total blocks moved: each rank's block crosses one edge per tree
        // level on its path to/from the root.
        let gather_blocks: usize = gather.messages().map(|(_, m)| m.blocks.len()).sum();
        let scatter_blocks: usize = scatter.messages().map(|(_, m)| m.blocks.len()).sum();
        assert_eq!(gather_blocks, scatter_blocks);
        // The root never sends in a gather and never receives in a scatter.
        assert!(gather.messages().all(|(_, m)| m.src != 0 || m.is_local()));
        assert!(scatter.messages().all(|(_, m)| m.dst != 0 || m.is_local()));
    }

    #[test]
    fn butterfly_allgather_reaches_everyone() {
        for &kind in &ButterflyKind::ALL {
            let bf = Butterfly::new(kind, 32);
            let sched = butterfly_allgather(&bf, kind.name());
            assert!(sched.validate().is_ok());
            // Simulate holdings to confirm the schedule is self-consistent.
            let mut have: Vec<HashSet<u32>> = (0..32).map(|r| HashSet::from([r as u32])).collect();
            for step in &sched.steps {
                let snap = have.clone();
                for m in step.messages() {
                    for b in m.blocks {
                        if let BlockId::Segment(i) = b {
                            assert!(
                                snap[m.src].contains(i),
                                "rank {} sent a block it does not hold",
                                m.src
                            );
                            have[m.dst].insert(*i);
                        }
                    }
                }
            }
            assert!(have.iter().all(|s| s.len() == 32));
        }
    }

    #[test]
    fn butterfly_reduce_scatter_sends_the_right_volume() {
        // Every rank sends n(p−1)/p bytes in total (Sec. 4.3).
        let p = 64;
        let n = 64 * 1024u64;
        for strategy in [NonContigStrategy::Permute, NonContigStrategy::BlockByBlock] {
            let bf = Butterfly::new(ButterflyKind::BineDistanceDoubling, p);
            let sched = butterfly_reduce_scatter(&bf, strategy, "bine");
            let mut sent = vec![0u64; p];
            for (_, m) in sched.messages() {
                if !m.is_local() {
                    sent[m.src] += sched.message_bytes(m, n);
                }
            }
            for &b in &sent {
                assert_eq!(b, n * (p as u64 - 1) / p as u64);
            }
        }
    }

    #[test]
    fn send_strategy_adds_final_exchange() {
        let bf = Butterfly::new(ButterflyKind::BineDistanceDoubling, 16);
        let permute = butterfly_reduce_scatter(&bf, NonContigStrategy::Permute, "bine");
        let send = butterfly_reduce_scatter(&bf, NonContigStrategy::Send, "bine");
        // Permute: one extra local step at the front. Send: one extra network
        // step at the back.
        assert_eq!(permute.num_steps(), send.num_steps());
        assert!(permute.steps[0].messages().all(|m| m.is_local()));
        assert!(send.steps.last().unwrap().messages().all(|m| !m.is_local()));
    }

    #[test]
    fn alltoall_algorithms_route_every_block_to_its_destination() {
        let p = 16;
        let schedules = vec![
            butterfly_alltoall(
                &Butterfly::new(ButterflyKind::BineDistanceHalving, p),
                "bine",
            ),
            bruck_alltoall(p, "bruck"),
            pairwise_alltoall(p, "pairwise"),
        ];
        for sched in schedules {
            assert!(sched.validate().is_ok(), "{}", sched.algorithm);
            // Simulate block movement.
            let mut held: Vec<HashSet<(u32, u32)>> = (0..p)
                .map(|r| (0..p as u32).map(|d| (r as u32, d)).collect())
                .collect();
            for step in &sched.steps {
                let snap = held.clone();
                for m in step.messages() {
                    for b in m.blocks {
                        if let BlockId::Pairwise { origin, dest } = b {
                            assert!(
                                snap[m.src].contains(&(*origin, *dest)),
                                "{}: rank {} forwarded a block it does not hold",
                                sched.algorithm,
                                m.src
                            );
                            held[m.src].remove(&(*origin, *dest));
                            held[m.dst].insert((*origin, *dest));
                        }
                    }
                }
            }
            for (r, set) in held.iter().enumerate() {
                assert_eq!(set.len(), p, "{}: rank {r}", sched.algorithm);
                assert!(
                    set.iter().all(|&(_, d)| d as usize == r),
                    "{}: rank {r} holds foreign blocks",
                    sched.algorithm
                );
            }
        }
    }

    #[test]
    fn ring_schedules_have_linear_step_counts() {
        let p = 12;
        assert_eq!(ring_reduce_scatter(p, "ring").num_steps(), p - 1);
        assert_eq!(ring_allgather(p, "ring").num_steps(), p - 1);
        assert!(ring_reduce_scatter(p, "ring").validate().is_ok());
        assert!(ring_allgather(p, "ring").validate().is_ok());
    }
}
