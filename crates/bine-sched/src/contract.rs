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
//! The symbolic validator ([`crate::validate`]) seeds possession and checks
//! completion from this; `bine-exec` builds inputs (`Workload::initial_state`,
//! `Cluster`) and expected outputs (`verify`) from it; `bine-tune`'s recovery
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
    /// contribution: the vector forms of `granularity` first `Full`, then
    /// the segments in order.
    pub fn initial(&self, rank: usize, granularity: Granularity) -> Vec<BlockId> {
        let full = granularity.full.then_some(BlockId::Full);
        let vector = || {
            full.into_iter()
                .chain(self.segments().filter(|_| granularity.segments))
        };
        let r = rank as u32;
        match self.collective {
            Collective::Broadcast if rank == self.root => vector().collect(),
            Collective::Scatter if rank == self.root => self.segments().collect(),
            Collective::Broadcast | Collective::Scatter => Vec::new(),
            Collective::Reduce | Collective::Allreduce => vector().collect(),
            Collective::ReduceScatter => self.segments().collect(),
            Collective::Gather | Collective::Allgather => vec![BlockId::Segment(r)],
            Collective::Alltoall => (0..self.num_ranks as u32)
                .map(|dest| BlockId::Pairwise { origin: r, dest })
                .collect(),
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
    pub fn required(&self, rank: usize) -> Vec<Vec<BlockId>> {
        let carries_data = |block: &BlockId| match (block, self.counts) {
            (&BlockId::Segment(i), Some(counts)) => counts.count(i as usize) > 0,
            _ => true,
        };
        let segments = || self.segments().filter(carries_data).collect();
        let vector = || vec![vec![BlockId::Full], segments()];
        let r = rank as u32;
        match self.collective {
            Collective::Broadcast | Collective::Allreduce => vector(),
            Collective::Reduce if rank == self.root => vector(),
            Collective::Gather if rank == self.root => vec![segments()],
            Collective::Reduce | Collective::Gather => vec![Vec::new()],
            Collective::Allgather => vec![segments()],
            Collective::ReduceScatter | Collective::Scatter => {
                vec![Some(BlockId::Segment(r))
                    .into_iter()
                    .filter(carries_data)
                    .collect()]
            }
            Collective::Alltoall => vec![(0..self.num_ranks as u32)
                .map(|origin| BlockId::Pairwise { origin, dest: r })
                .collect()],
        }
    }

    /// The rank whose input exists nowhere else, so that losing it loses the
    /// collective: the root of a broadcast or scatter. Every other
    /// collective's survivors can re-contribute among themselves.
    pub fn sole_source(&self) -> Option<usize> {
        matches!(self.collective, Collective::Broadcast | Collective::Scatter).then_some(self.root)
    }
}
