//! Schedule segmentation: the pipelining transform.
//!
//! MPI libraries pipeline large collectives by splitting each transfer into
//! fixed-size segments so that a rank can forward segment *c* while segment
//! *c + 1* is still arriving (Barchet-Estefanel & Mounié's tuned
//! intra-cluster collectives; Karonis et al.'s multilevel collectives). The
//! synchronous cost model cannot see that overlap — only the discrete-event
//! simulator in `bine-net` can — but the *schedule transform* lives here,
//! next to the generators it rewrites.
//!
//! The transform splits every message's block list into at most `S`
//! contiguous chunks and expands each synchronous step into up to `S`
//! sub-steps: chunk `c` of every message of the original step travels in
//! sub-step `c`. That rule is written once, as `ChunkPlan::substeps`, and
//! consumed twice: [`Schedule::segmented`] collects the chunks into an owned
//! [`Schedule`] — the reference the validator and the tests look at — and
//! [`Schedule::compile_segmented`] interns them straight into the compiled
//! form, which is how serving and tuning lower a `+seg{S}` pick without ever
//! holding `S` copies of the schedule's `Vec`s. Because every block is
//! carried by exactly one chunk, each block still experiences exactly the
//! same sequence of transfers and reductions in the same order, so a
//! segmented schedule executes **bit-identically** to the original on every
//! `bine-exec` executor (this is property-tested there), and its `bine-net`
//! traffic accounting is invariant apart from the message count:
//!
//! * total / global / per-link bytes are unchanged (blocks are partitioned,
//!   never duplicated),
//! * the number of network messages grows, which is exactly the latency
//!   price of pipelining that shifts algorithm crossover points.
//!
//! Messages carrying a single block (for example the `Full`-vector messages
//! of tree broadcasts and recursive-doubling allreduce) cannot be split at
//! block granularity and pass through unchanged — those algorithms genuinely
//! do not pipeline in this model, which is what makes the segmented-vs-flat
//! comparison in `bine-bench` interesting.

use std::cell::{Cell, RefCell};

use crate::catalog::tuned_name;
use crate::schedule::{contiguity_with, BlockId, MessageRef, Schedule, Step};

/// What one message contributes to one sub-step: the message, the sub-slice
/// of its block list that travels, and the contiguous regions that spans.
pub(crate) type Chunk<'a> = (MessageRef<'a>, &'a [BlockId], u32);

/// Into how many parts a message is cut: as many as it has blocks to split
/// over, at most `chunks`, and never none.
pub(crate) fn parts(m: MessageRef<'_>, chunks: usize) -> usize {
    chunks.min(m.blocks.len()).max(1)
}

/// How many sub-steps `step` expands into: as many as its most-cut message
/// has parts. One chunk leaves every step as it is, even an empty one.
pub(crate) fn num_substeps(step: &Step, chunks: usize) -> usize {
    let parts = step.messages().map(|m| parts(m, chunks));
    parts.max().unwrap_or(0).max(usize::from(chunks == 1))
}

/// The chunking rule, stated once: `schedule` cut into `chunks` pipeline
/// segments. [`ChunkPlan::substeps`] yields the sub-steps in order;
/// [`Schedule::segmented`] collects them into an owned [`Schedule`] and
/// [`Schedule::compile_segmented`] interns them straight into the compiled
/// form.
///
/// A message of `n` blocks is cut into `min(chunks, n)` balanced contiguous
/// parts ([`parts`]) and part `c` travels in sub-step `c` of its step, so a
/// message that cannot be split (a single block) travels whole in sub-step
/// 0. Sub-steps no message reaches are dropped ([`num_substeps`]).
pub(crate) struct ChunkPlan<'a> {
    schedule: &'a Schedule,
    chunks: usize,
    /// Per message, in schedule order: whether its `segments` is the
    /// contiguity of its block indices, so that a chunk's is recomputed.
    /// The non-contiguity strategies annotate messages with a count that
    /// deliberately differs (a virtually permuted buffer is one region
    /// whatever indices it carries); their chunks share it proportionally.
    /// Written as its step is reached, while the step's blocks are in
    /// cache: a pass over the whole schedule first reads every block list
    /// twice from memory. Empty at one chunk, where no message is cut.
    recomputed: Vec<Cell<bool>>,
    /// The sort buffer every out-of-order block list is counted in.
    sorted: RefCell<Vec<u32>>,
}

impl<'a> ChunkPlan<'a> {
    /// Plans `schedule` at `chunks` segments: one flag per message, and
    /// nothing at all at one chunk.
    ///
    /// # Panics
    /// Panics if `chunks == 0`.
    pub(crate) fn new(schedule: &'a Schedule, chunks: usize) -> Self {
        assert!(chunks >= 1, "a schedule needs at least one segment");
        let cut = if chunks > 1 {
            schedule.steps.iter().map(Step::len).sum()
        } else {
            0
        };
        Self {
            schedule,
            chunks,
            recomputed: vec![Cell::new(false); cut],
            sorted: RefCell::new(Vec::new()),
        }
    }

    /// The sub-steps, in order, each as the chunks it carries in message
    /// order.
    pub(crate) fn substeps(
        &self,
    ) -> impl Iterator<Item = impl Iterator<Item = Chunk<'a>> + Clone + '_> + '_ {
        let chunks = self.chunks;
        // Each step with the schedule-order index of its first message.
        let firsts = self.schedule.steps.iter().scan(0, |next, step| {
            let first = *next;
            *next += step.len();
            Some((first, step))
        });
        firsts.flat_map(move |(first, step)| {
            if chunks > 1 {
                // What a step writes depends on the step alone, so two walks
                // of one plan may interleave.
                let sorted = &mut self.sorted.borrow_mut();
                for (i, m) in step.messages().enumerate() {
                    self.recomputed[first + i].set(
                        parts(m, chunks) > 1 && m.segments == contiguity_with(m.blocks, sorted),
                    );
                }
            }
            (0..num_substeps(step, chunks)).map(move |c| {
                step.messages().enumerate().filter_map(move |(i, m)| {
                    let (n, parts) = (m.blocks.len(), parts(m, chunks));
                    if c >= parts {
                        return None;
                    }
                    // Balanced: the first `n % parts` parts carry one block more.
                    let bound = |i: usize| i * (n / parts) + i.min(n % parts);
                    let blocks = &m.blocks[bound(c)..bound(c + 1)];
                    let segments = if parts == 1 {
                        m.segments
                    } else if self.recomputed[first + i].get() {
                        contiguity_with(blocks, &mut self.sorted.borrow_mut())
                    } else {
                        let share = (m.segments as u64 * blocks.len() as u64).div_ceil(n as u64);
                        share.max(1) as u32
                    };
                    Some((m, blocks, segments))
                })
            })
        })
    }
}

impl Schedule {
    /// Returns this schedule split into `chunks` pipeline segments (see the
    /// module docs).
    ///
    /// `chunks == 1` returns the schedule unchanged (same algorithm name);
    /// for `chunks > 1` the algorithm name gains a `+seg{chunks}` suffix so
    /// that segmented variants remain distinguishable in catalogs and
    /// reports.
    ///
    /// This owned transform is the reference: the validator, the tests and
    /// anything that wants to look at a segmented [`Schedule`] use it.
    /// Serving and tuning never materialise it —
    /// [`Schedule::compile_segmented`] lowers the same chunks directly, and
    /// is pinned equal to `segmented(chunks).compile()`.
    ///
    /// # Panics
    /// Panics if `chunks == 0`.
    pub fn segmented(&self, chunks: usize) -> Schedule {
        let name = tuned_name(&self.algorithm, chunks);
        let mut out = Schedule::new(self.num_ranks, self.collective, name, self.root);
        out.counts = self.counts.clone();
        let steps = self.steps.iter().map(|s| num_substeps(s, chunks));
        out.steps.reserve_exact(steps.sum());
        for sub in ChunkPlan::new(self, chunks).substeps() {
            let (messages, blocks) = sub.clone().fold((0, 0), |(m, b), c| (m + 1, b + c.1.len()));
            let mut step = Step::with_capacity(messages, blocks);
            for (m, blocks, segments) in sub {
                step.push_with_segments(m.src, m.dst, blocks.iter().copied(), m.kind, segments);
            }
            out.push_step(step);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{
        allreduce, alltoall, broadcast, AllreduceAlg, AlltoallAlg, BroadcastAlg,
    };

    #[test]
    fn chunk_bounds_are_balanced_and_cover() {
        // One message of `blocks` blocks cut `chunks` ways: the part sizes.
        let sizes = |blocks: u32, chunks: usize| -> Vec<usize> {
            use crate::{Collective, TransferKind};
            let mut sched = Schedule::new(8, Collective::Allgather, "test", 0);
            let mut step = Step::new();
            step.push(0, 1, (0..blocks).map(BlockId::Segment), TransferKind::Copy);
            sched.push_step(step);
            let seg = sched.segmented(chunks);
            seg.messages().map(|(_, m)| m.blocks.len()).collect()
        };
        assert_eq!(sizes(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(sizes(7, 4), vec![2, 2, 2, 1]);
        assert_eq!(sizes(2, 4), vec![1, 1]);
        assert_eq!(sizes(1, 4), vec![1]);
    }

    #[test]
    fn single_chunk_is_identity() {
        let sched = allreduce(16, AllreduceAlg::BineLarge);
        let seg = sched.segmented(1);
        assert_eq!(seg.num_steps(), sched.num_steps());
        assert_eq!(seg.algorithm, sched.algorithm);
    }

    #[test]
    fn segmentation_preserves_bytes_and_grows_messages() {
        let sched = allreduce(32, AllreduceAlg::BineLarge);
        let n = 1 << 20;
        for chunks in [2usize, 4, 8] {
            let seg = sched.segmented(chunks);
            assert!(seg.validate().is_ok(), "chunks={chunks}");
            assert_eq!(seg.total_network_bytes(n), sched.total_network_bytes(n));
            assert!(seg.messages().count() > sched.messages().count());
            assert!(seg.num_steps() > sched.num_steps());
            assert_eq!(seg.algorithm, format!("bine-large+seg{chunks}"));
        }
    }

    #[test]
    fn explicit_segment_annotations_are_preserved_proportionally() {
        use crate::catalog::build;
        use crate::schedule::Collective;
        // "bine-send" virtually permutes the buffer: every message is
        // annotated as one contiguous region, and so must its chunks be.
        let send = build(Collective::ReduceScatter, "bine-send", 16, 0).unwrap();
        let seg = send.segmented(4);
        for (_, m) in seg.messages() {
            assert_eq!(m.segments, 1, "chunk of a permuted-buffer message");
        }
        // "bine-block-by-block" sends every block as its own region: a chunk
        // carrying k blocks is k regions.
        let bbb = build(Collective::ReduceScatter, "bine-block-by-block", 16, 0).unwrap();
        let seg = bbb.segmented(4);
        for (_, m) in seg.messages() {
            assert_eq!(
                m.segments,
                m.blocks.len() as u32,
                "block-by-block chunks stay one region per block"
            );
        }
    }

    #[test]
    fn full_vector_messages_are_unsplittable() {
        let sched = broadcast(16, 0, BroadcastAlg::BinomialDistanceDoubling);
        let seg = sched.segmented(8);
        assert_eq!(seg.num_steps(), sched.num_steps());
        assert_eq!(seg.messages().count(), sched.messages().count());
    }

    #[test]
    fn per_destination_block_order_is_preserved() {
        // Every (dst, block) pair must see its incoming transfers in the
        // same relative order as in the unsegmented schedule; with one
        // network receive per rank per step this reduces to each block being
        // carried exactly once per original step.
        let sched = alltoall(8, AlltoallAlg::Bine);
        let seg = sched.segmented(3);
        let per_pair = |s: &crate::Schedule| {
            let mut map: std::collections::BTreeMap<(usize, usize), Vec<crate::BlockId>> =
                Default::default();
            for (_, m) in s.messages() {
                map.entry((m.src, m.dst)).or_default().extend(m.blocks);
            }
            map
        };
        assert_eq!(
            per_pair(&sched),
            per_pair(&seg),
            "per-(src, dst) block order must be preserved"
        );
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_chunks_is_rejected() {
        let sched = allreduce(8, AllreduceAlg::BineLarge);
        let _ = sched.segmented(0);
    }
}
