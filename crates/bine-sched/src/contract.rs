//! The collective contract: who starts with which blocks, and who must end
//! with which.
//!
//! What makes a [`Schedule`] *be* a broadcast or an allgather is one fact
//! about its endpoints, and [`Contract`] is the only place that states it —
//! no other module under `crates/*/src` matches on [`Collective`] to decide
//! any of the following:
//!
//! | collective | starts with | a finished block is | must end with |
//! |---|---|---|---|
//! | broadcast | root: the vector | the root's data | every rank: the vector |
//! | reduce | every rank: the vector | the sum over all ranks | root: the vector |
//! | allreduce | every rank: the vector | the sum over all ranks | every rank: the vector |
//! | reduce-scatter | every rank: every segment | the sum over all ranks | rank `r`: segment `r` |
//! | gather | rank `r`: segment `r` | its owner's data | root: every segment |
//! | allgather | rank `r`: segment `r` | its owner's data | every rank: every segment |
//! | scatter | root: every segment | the root's data | rank `r`: segment `r` |
//! | alltoall | rank `r`: pairwise `(r, ·)` | its origin's data | rank `r`: pairwise `(·, r)` |
//!
//! "The vector" is one [`BlockId::Full`] block, `p` [`BlockId::Segment`]s, or
//! both — whichever forms the schedule moves ([`Granularity`]) at the start,
//! either form at the end. For an irregular (v-variant) collective a
//! zero-count segment exists at the start (empty) but nobody is required to
//! end with it.
//!
//! A run ends at the "must end with" column: of the blocks a rank sends or
//! receives, it keeps those [`Contract::keeps`] names and drops the rest, so
//! its finals are the result, not its working set. Blocks a rank never
//! moves stay as they were.
//!
//! The symbolic validator ([`crate::validate`]) seeds possession and checks
//! completion from this; `bine-exec` builds inputs (`Workload::initial_state`,
//! `Cluster`) and expected outputs (`verify`) from it, and every executor and
//! the memory plan ([`crate::plan`]) end a run at it; `bine-tune`'s recovery
//! asks it whose input cannot be re-contributed.

use crate::compile::CompiledSchedule;
use crate::schedule::{BlockId, Collective, Counts, Schedule, Step};

/// The forms in which a schedule moves the vector of a broadcast, reduce or
/// allreduce — and so the forms their holders must start with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Granularity {
    /// One [`BlockId::Full`] block.
    pub full: bool,
    /// `p` [`BlockId::Segment`] blocks.
    pub segments: bool,
}

impl Granularity {
    /// The forms among `blocks`, every block a schedule moves. A schedule
    /// that moves neither (a single rank) works on the full vector.
    pub fn of(blocks: impl IntoIterator<Item = BlockId>) -> Self {
        let (mut full, mut segments) = (false, false);
        for block in blocks {
            full |= block == BlockId::Full;
            segments |= matches!(block, BlockId::Segment(_));
        }
        Self {
            full: full || !segments,
            segments,
        }
    }
}

impl From<&Schedule> for Granularity {
    fn from(schedule: &Schedule) -> Self {
        Self::of(schedule.steps.iter().flat_map(Step::blocks).copied())
    }
}

impl From<&CompiledSchedule> for Granularity {
    fn from(compiled: &CompiledSchedule) -> Self {
        Self::of(compiled.blocks().iter().map(|(_, block)| block))
    }
}

/// The endpoints of one collective invocation. See the module docs for the
/// table this implements.
#[derive(Debug, Clone, Copy)]
pub struct Contract<'a> {
    /// The collective.
    pub collective: Collective,
    /// Number of ranks.
    pub num_ranks: usize,
    /// The root of a rooted collective.
    pub root: usize,
    /// Per-rank counts of an irregular (v-variant) collective.
    pub counts: Option<&'a Counts>,
}

impl<'a> From<&'a Schedule> for Contract<'a> {
    fn from(s: &'a Schedule) -> Self {
        Self {
            collective: s.collective,
            num_ranks: s.num_ranks,
            root: s.root,
            counts: s.counts.as_ref(),
        }
    }
}

impl<'a> From<&'a CompiledSchedule> for Contract<'a> {
    fn from(c: &'a CompiledSchedule) -> Self {
        Self {
            collective: c.collective,
            num_ranks: c.num_ranks,
            root: c.root,
            counts: c.counts(),
        }
    }
}

impl Contract<'_> {
    fn segments(&self) -> impl Iterator<Item = BlockId> {
        (0..self.num_ranks as u32).map(BlockId::Segment)
    }

    /// The blocks `rank` holds before the first step, each its own
    /// contribution: those [`Contract::starts_with`] names, `Full` first,
    /// then the segments and pairwise blocks in order.
    pub fn initial(&self, rank: usize, granularity: Granularity) -> Vec<BlockId> {
        let r = rank as u32;
        let pairwise = (0..self.num_ranks as u32).map(|dest| BlockId::Pairwise { origin: r, dest });
        let blocks = std::iter::once(BlockId::Full)
            .chain(self.segments())
            .chain(pairwise);
        let initial = blocks.filter(|&block| self.starts_with(rank, block, granularity));
        initial.collect()
    }

    /// Whether `rank` holds `block` before the first step, when the
    /// schedule moves the vector in the forms of `granularity`.
    #[inline]
    pub fn starts_with(&self, rank: usize, block: BlockId, granularity: Granularity) -> bool {
        let in_range = |i: u32| (i as usize) < self.num_ranks;
        let segment = matches!(block, BlockId::Segment(i) if in_range(i));
        let vector = match block {
            BlockId::Full => granularity.full,
            _ => granularity.segments && segment,
        };
        let root = rank == self.root;
        match self.collective {
            Collective::Broadcast => root && vector,
            Collective::Scatter => root && segment,
            Collective::Reduce | Collective::Allreduce => vector,
            Collective::ReduceScatter => segment,
            Collective::Gather | Collective::Allgather => block == BlockId::Segment(rank as u32),
            Collective::Alltoall => matches!(
                block,
                BlockId::Pairwise { origin, dest } if origin == rank as u32 && in_range(dest)
            ),
        }
    }

    /// The rank whose data a finished `block` is — the owner of a gathered
    /// segment, the origin of a pairwise block, the root of a broadcast or
    /// scatter — or `None` when it is the sum of every rank's contribution
    /// (reduce, allreduce, reduce-scatter).
    pub fn source(&self, block: BlockId) -> Option<usize> {
        match (self.collective, block) {
            (Collective::Gather | Collective::Allgather, BlockId::Segment(owner)) => {
                Some(owner as usize)
            }
            (Collective::Alltoall, BlockId::Pairwise { origin, .. }) => Some(origin as usize),
            _ => self.sole_source(),
        }
    }

    /// What `rank` must end with: it is done when it holds every block of
    /// *one* of the returned alternatives, finished. Zero-count segments of
    /// an irregular collective are exempt, so an alternative can be empty —
    /// nothing is required (also of every non-root of a reduce or gather).
    /// The blocks [`Contract::keeps`] names: `Full` alone, if kept, then the
    /// segments and pairwise blocks in order.
    pub fn required(&self, rank: usize) -> Vec<Vec<BlockId>> {
        let r = rank as u32;
        let pairwise =
            (0..self.num_ranks as u32).map(|origin| BlockId::Pairwise { origin, dest: r });
        let parts = self.segments().chain(pairwise);
        let parts = parts.filter(|&block| self.keeps(rank, block)).collect();
        match self.keeps(rank, BlockId::Full) {
            true => vec![vec![BlockId::Full], parts],
            false => vec![parts],
        }
    }

    /// Whether `rank` keeps `block` when the collective ends: whether some
    /// alternative of [`Contract::required`] names it. A run ends with the
    /// blocks a rank keeps, of those it sent or received, and drops the
    /// rest — its partial sums, the data it only forwarded — as MPI's
    /// receive buffer holds the result and nothing of the working set.
    #[inline]
    pub fn keeps(&self, rank: usize, block: BlockId) -> bool {
        let carries_data = |i: u32| match self.counts {
            Some(counts) => counts.count(i as usize) > 0,
            None => true,
        };
        let segment = |i: u32| (i as usize) < self.num_ranks && carries_data(i);
        let vector = match block {
            BlockId::Full => true,
            BlockId::Segment(i) => segment(i),
            BlockId::Pairwise { .. } => false,
        };
        let r = rank as u32;
        match self.collective {
            Collective::Broadcast | Collective::Allreduce => vector,
            Collective::Reduce => rank == self.root && vector,
            Collective::Gather if rank != self.root => false,
            Collective::Gather | Collective::Allgather => {
                matches!(block, BlockId::Segment(i) if segment(i))
            }
            Collective::ReduceScatter | Collective::Scatter => {
                block == BlockId::Segment(r) && carries_data(r)
            }
            Collective::Alltoall => matches!(
                block,
                BlockId::Pairwise { origin, dest } if dest == r && (origin as usize) < self.num_ranks
            ),
        }
    }

    /// The rank whose input exists nowhere else, so that losing it loses the
    /// collective: the root of a broadcast or scatter. Every other
    /// collective's survivors can re-contribute among themselves.
    pub fn sole_source(&self) -> Option<usize> {
        matches!(self.collective, Collective::Broadcast | Collective::Scatter).then_some(self.root)
    }
}
