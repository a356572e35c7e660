//! Deterministic workloads: every rank's input data for one collective
//! invocation, and what each rank must end with.

use bine_sched::{BlockId, Collective, Contract, Counts, Granularity, Schedule};

use crate::state::BlockStore;

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
    pub(crate) fn segment(&self, rank: usize, i: usize) -> Vec<f64> {
        self.seg_range(i)
            .map(|j| self.contribution(rank, j))
            .collect()
    }

    /// The elementwise sum of all ranks' contributions for element `j`.
    pub(crate) fn reduced(&self, j: usize) -> f64 {
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
