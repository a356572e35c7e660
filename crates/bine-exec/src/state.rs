//! Per-rank data state and deterministic workloads.
//!
//! The executors in this crate interpret a [`bine_sched::Schedule`] over real
//! floating-point data: every rank owns a [`BlockStore`] mapping block
//! identifiers to value vectors, messages move (or reduce) those vectors, and
//! the final states are checked against analytically computed expectations.
//! This is the substitute for running the collectives on a real MPI cluster:
//! the data semantics of every algorithm are exercised end to end.

use std::sync::Arc;

use bine_sched::{BlockId, BlockMap, Collective, Contract, Counts, Granularity, Schedule};

/// A shared, immutable-until-owned block payload.
///
/// Payloads are reference counted so that transfers and per-step snapshots
/// are refcount bumps rather than deep copies; reductions write a new
/// buffer only when the payload is actually shared (copy-on-write).
pub type Block = Arc<Vec<f64>>;

/// `existing[i] += value[i]`, copy-on-write. The caller has checked that the
/// lengths agree.
///
/// A payload nobody else holds is summed in place. A shared one is not
/// cloned and then summed ([`Arc::make_mut`]): the sums are built straight
/// into the new buffer — the same two allocations, the same operand order
/// and so the same bits, one pass over memory fewer.
pub(crate) fn reduce_into(existing: &mut Block, value: &[f64]) {
    if let Some(owned) = Arc::get_mut(existing) {
        for (a, b) in owned.iter_mut().zip(value) {
            *a += b;
        }
    } else {
        *existing = Arc::new(existing.iter().zip(value).map(|(a, b)| a + b).collect());
    }
}

/// The data a single rank holds: a map from block identifiers to shared
/// value vectors.
///
/// Cloning a `BlockStore` clones the map but *shares* every payload, so a
/// clone is O(blocks), not O(elements). All mutation goes through
/// [`BlockStore::insert`] (replace) or [`BlockStore::reduce`]
/// (copy-on-write), which keeps shared payloads safe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockStore {
    blocks: BlockMap<Block>,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more blocks, so that inserting them does
    /// not regrow the store step by step.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.blocks.reserve(additional);
    }

    /// Returns the value of a block, if held.
    pub fn get(&self, id: &BlockId) -> Option<&Vec<f64>> {
        self.blocks.get(id).map(|b| b.as_ref())
    }

    /// Returns the shared payload of a block, if held (a clone of the result
    /// is a refcount bump, not a copy).
    pub fn get_shared(&self, id: &BlockId) -> Option<&Block> {
        self.blocks.get(id)
    }

    /// Stores (or overwrites) a block.
    pub fn insert(&mut self, id: BlockId, value: impl Into<Block>) {
        self.blocks.insert(id, value.into());
    }

    /// Reduces `value` elementwise into the stored block, inserting it if the
    /// block is not present yet. Copy-on-write: a payload shared with other
    /// ranks (or a snapshot) is copied once, an exclusively owned payload is
    /// mutated in place.
    pub fn reduce(&mut self, id: BlockId, value: &[f64]) {
        match self.blocks.get_mut(&id) {
            Some(existing) => {
                assert_eq!(
                    existing.len(),
                    value.len(),
                    "block length mismatch for {id:?}"
                );
                reduce_into(existing, value);
            }
            None => {
                self.blocks.insert(id, Arc::new(value.to_vec()));
            }
        }
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over the held blocks.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &Vec<f64>)> {
        self.blocks.iter().map(|(id, b)| (id, b.as_ref()))
    }

    /// Consumes the store, yielding every `(id, shared payload)` pair
    /// without copying or refcount churn.
    pub fn into_blocks(self) -> impl Iterator<Item = (BlockId, Block)> {
        self.blocks.into_iter()
    }

    /// Empties the store, yielding every `(id, shared payload)` pair; the
    /// store keeps its allocation for what is inserted next.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (BlockId, Block)> + '_ {
        self.blocks.drain()
    }

    /// A clone that deep-copies every payload (no sharing with `self`).
    ///
    /// Only the preserved reference interpreter uses this — it reproduces
    /// the seed executor's O(ranks × elements) per-step snapshot cost, which
    /// the benchmarks compare the zero-copy executors against.
    pub fn deep_clone(&self) -> Self {
        Self {
            blocks: self
                .blocks
                .iter()
                .map(|(id, b)| (*id, Arc::new(b.as_ref().clone())))
                .collect(),
        }
    }
}

/// A deterministic workload for one collective invocation: defines every
/// rank's input data and the expected outputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of ranks.
    pub num_ranks: usize,
    /// Elements per block (`Segment`/`Pairwise` blocks have this many
    /// elements; `Full` blocks have `num_ranks` times as many).
    pub elems_per_block: usize,
    /// The collective being executed.
    pub collective: Collective,
    /// The root rank for rooted collectives.
    pub root: usize,
    /// Per-rank counts for irregular (v-variant) schedules: segment `i`
    /// holds `counts[i] * elems_per_block` elements, so zero-count segments
    /// are genuinely empty vectors. `None` for regular workloads, where
    /// every segment holds `elems_per_block` elements.
    pub counts: Option<Counts>,
}

impl Workload {
    /// Creates a workload description.
    pub fn new(
        num_ranks: usize,
        elems_per_block: usize,
        collective: Collective,
        root: usize,
    ) -> Self {
        assert!(elems_per_block >= 1);
        Self {
            num_ranks,
            elems_per_block,
            collective,
            root,
            counts: None,
        }
    }

    /// Creates the workload matching a schedule, inheriting the schedule's
    /// irregular counts when present.
    pub fn for_schedule(schedule: &Schedule, elems_per_block: usize) -> Self {
        let mut w = Self::new(
            schedule.num_ranks,
            elems_per_block,
            schedule.collective,
            schedule.root,
        );
        w.counts = schedule.counts.clone();
        w
    }

    /// Attaches irregular per-rank counts.
    ///
    /// # Panics
    /// Panics if the counts do not cover exactly `num_ranks` ranks.
    pub fn with_counts(mut self, counts: Counts) -> Self {
        assert_eq!(counts.num_ranks(), self.num_ranks);
        self.counts = Some(counts);
        self
    }

    /// The endpoints of this invocation: who starts with which blocks and
    /// who must end with which.
    pub(crate) fn contract(&self) -> Contract<'_> {
        Contract {
            collective: self.collective,
            num_ranks: self.num_ranks,
            root: self.root,
            counts: self.counts.as_ref(),
        }
    }

    /// The element range segment `i` occupies in the logical vector (empty
    /// for a zero-count segment of an irregular workload).
    fn seg_range(&self, i: usize) -> std::ops::Range<usize> {
        let (start, elems) = match &self.counts {
            Some(c) => (c.per_rank()[..i].iter().sum(), c.count(i)),
            None => (i as u64, 1),
        };
        let start = start as usize * self.elems_per_block;
        start..start + elems as usize * self.elems_per_block
    }

    /// The deterministic contribution of `rank` for element `j` of the
    /// logical vector (used by reduction collectives and broadcast).
    pub fn contribution(&self, rank: usize, j: usize) -> f64 {
        (rank as f64 + 1.0) * 0.5 + (j as f64) * 0.125 + ((rank * 31 + j * 7) % 13) as f64
    }

    /// Length of the logical vector: `p` blocks of `elems_per_block`, or the
    /// counts-weighted total for irregular workloads.
    pub fn vector_len(&self) -> usize {
        match &self.counts {
            Some(c) => c.total() as usize * self.elems_per_block,
            None => self.num_ranks * self.elems_per_block,
        }
    }

    /// The full input vector of `rank`.
    pub fn full_vector(&self, rank: usize) -> Vec<f64> {
        (0..self.vector_len())
            .map(|j| self.contribution(rank, j))
            .collect()
    }

    /// Segment `i` of the input vector of `rank`.
    fn segment(&self, rank: usize, i: usize) -> Vec<f64> {
        self.seg_range(i)
            .map(|j| self.contribution(rank, j))
            .collect()
    }

    /// The elementwise sum of all ranks' contributions for element `j`.
    fn reduced(&self, j: usize) -> f64 {
        (0..self.num_ranks).map(|r| self.contribution(r, j)).sum()
    }

    /// What `rank` contributes as `block`: its part of the logical vector,
    /// or the alltoall block travelling from it (the block's origin).
    fn value(&self, rank: usize, block: BlockId) -> Vec<f64> {
        match block {
            BlockId::Full => self.full_vector(rank),
            BlockId::Segment(i) => self.segment(rank, i as usize),
            BlockId::Pairwise { origin, dest } => (0..self.elems_per_block)
                .map(|j| origin as f64 * 1000.0 + dest as f64 + j as f64 * 0.25)
                .collect(),
        }
    }

    /// What a finished `block` holds: its source's contribution, or the sum
    /// of everybody's when the collective reduces.
    pub(crate) fn expected(&self, block: BlockId) -> Vec<f64> {
        if let Some(source) = self.contract().source(block) {
            return self.value(source, block);
        }
        let elements = match block {
            BlockId::Segment(i) => self.seg_range(i as usize),
            _ => 0..self.vector_len(),
        };
        elements.map(|j| self.reduced(j)).collect()
    }

    /// Builds the initial per-rank block stores required by `schedule`: what
    /// the collective's [`Contract`] says each rank starts with, at the
    /// block granularities the schedule actually moves (a tree broadcast
    /// uses `Full` blocks, a scatter+allgather broadcast `Segment` blocks).
    pub fn initial_state(&self, schedule: &Schedule) -> Vec<BlockStore> {
        initial_stores(&self.contract(), schedule.into(), |rank, block| {
            self.value(rank, block)
        })
    }
}

/// One store per rank holding what `contract` says the rank starts with at
/// `granularity`, each block filled by `value(rank, block)`.
pub(crate) fn initial_stores(
    contract: &Contract<'_>,
    granularity: Granularity,
    value: impl Fn(usize, BlockId) -> Vec<f64>,
) -> Vec<BlockStore> {
    (0..contract.num_ranks)
        .map(|rank| {
            let mut store = BlockStore::new();
            for block in contract.initial(rank, granularity) {
                store.insert(block, value(rank, block));
            }
            store
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bine_sched::collectives::{allreduce, broadcast, AllreduceAlg, BroadcastAlg};

    #[test]
    fn block_store_reduce_adds_elementwise() {
        let mut s = BlockStore::new();
        s.insert(BlockId::Full, vec![1.0, 2.0]);
        s.reduce(BlockId::Full, &[0.5, 0.5]);
        assert_eq!(s.get(&BlockId::Full).unwrap(), &vec![1.5, 2.5]);
        s.reduce(BlockId::Segment(0), &[1.0]);
        assert_eq!(s.get(&BlockId::Segment(0)).unwrap(), &vec![1.0]);
        assert_eq!(s.len(), 2);
        // Copy-on-write: a payload shared with another holder is replaced,
        // not mutated under it.
        let shared: Block = Arc::new(vec![1.0, 2.0]);
        s.insert(BlockId::Full, Arc::clone(&shared));
        s.reduce(BlockId::Full, &[0.5, 0.5]);
        assert_eq!(s.get(&BlockId::Full).unwrap(), &vec![1.5, 2.5]);
        assert_eq!(*shared, vec![1.0, 2.0]);
    }

    #[test]
    fn initial_state_matches_block_granularity_of_the_schedule() {
        let p = 8;
        let tree = broadcast(p, 0, BroadcastAlg::BineTree);
        let w = Workload::for_schedule(&tree, 4);
        let init = w.initial_state(&tree);
        assert!(init[0].get(&BlockId::Full).is_some());
        assert!(init[1].is_empty());

        let sag = broadcast(p, 0, BroadcastAlg::BineScatterAllgather);
        let init = Workload::for_schedule(&sag, 4).initial_state(&sag);
        assert!(init[0].get(&BlockId::Segment(3)).is_some());

        let small = allreduce(p, AllreduceAlg::BineSmall);
        let init = Workload::for_schedule(&small, 4).initial_state(&small);
        assert_eq!(init[5].len(), 1);
        let large = allreduce(p, AllreduceAlg::BineLarge);
        let init = Workload::for_schedule(&large, 4).initial_state(&large);
        assert_eq!(init[5].len(), p);
    }

    #[test]
    fn workload_values_are_deterministic() {
        let w = Workload::new(4, 2, Collective::Allreduce, 0);
        assert_eq!(w.contribution(1, 3), w.contribution(1, 3));
        assert_eq!(
            w.reduced(0),
            (0..4).map(|r| w.contribution(r, 0)).sum::<f64>()
        );
        assert_eq!(w.full_vector(2).len(), 8);
        assert_eq!(w.segment(2, 3), w.full_vector(2)[6..8].to_vec());
    }
}
