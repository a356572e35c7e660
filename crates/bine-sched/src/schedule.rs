//! The communication-schedule model.
//!
//! A [`Schedule`] is the step-by-step description of a collective operation:
//! which rank sends which data blocks to which rank at every synchronous
//! step, and whether the receiver copies or reduces the payload. Schedules
//! are produced by the generators in [`crate::collectives`], executed over
//! real data by `bine-exec`, and mapped onto network models by `bine-net`.
//!
//! Keeping the schedule explicit — rather than hiding it inside an MPI
//! library — is what lets this reproduction count global-link traffic and
//! model runtime for every algorithm on every topology with a single code
//! path.

use std::sync::Arc;

use crate::compile::index_u32;

/// A rank identifier.
pub type Rank = usize;

/// The collective operation a schedule implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// MPI_Bcast: the root's vector ends up on every rank.
    Broadcast,
    /// MPI_Reduce: the elementwise reduction of all vectors ends up on the root.
    Reduce,
    /// MPI_Gather: block `r` of every rank `r` ends up on the root.
    Gather,
    /// MPI_Scatter: the root's block `r` ends up on rank `r`.
    Scatter,
    /// MPI_Allgather: block `r` of every rank ends up on every rank.
    Allgather,
    /// MPI_Reduce_scatter: rank `r` ends up with the reduction of block `r`.
    ReduceScatter,
    /// MPI_Allreduce: every rank ends up with the reduction of all vectors.
    Allreduce,
    /// MPI_Alltoall: rank `r` ends up with block `(i, r)` from every rank `i`.
    Alltoall,
}

impl Collective {
    /// All eight collectives implemented in this crate.
    pub const ALL: [Collective; 8] = [
        Collective::Broadcast,
        Collective::Reduce,
        Collective::Gather,
        Collective::Scatter,
        Collective::Allgather,
        Collective::ReduceScatter,
        Collective::Allreduce,
        Collective::Alltoall,
    ];

    /// Lower-case name as used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            Collective::Broadcast => "bcast",
            Collective::Reduce => "reduce",
            Collective::Gather => "gather",
            Collective::Scatter => "scatter",
            Collective::Allgather => "allgather",
            Collective::ReduceScatter => "reduce-scatter",
            Collective::Allreduce => "allreduce",
            Collective::Alltoall => "alltoall",
        }
    }

    /// Parses the lower-case harness name back into a collective (the
    /// inverse of [`Collective::name`], used when loading decision tables).
    pub fn from_name(name: &str) -> Option<Collective> {
        Collective::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Whether the collective has a root rank.
    pub fn is_rooted(&self) -> bool {
        matches!(
            self,
            Collective::Broadcast | Collective::Reduce | Collective::Gather | Collective::Scatter
        )
    }
}

/// Identifies a unit of data carried by a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockId {
    /// The whole vector (`n` bytes). Used by broadcast, reduce and the
    /// small-vector (recursive-doubling) allreduce.
    Full,
    /// The `i`-th of `p` equal segments of the vector (`n / p` bytes).
    Segment(u32),
    /// The alltoall block travelling from rank `origin` to rank `dest`
    /// (`n / p` bytes, where `n` is the per-rank send buffer).
    Pairwise {
        /// Rank whose send buffer the block comes from.
        origin: u32,
        /// Rank whose receive buffer the block must end up in.
        dest: u32,
    },
}

impl BlockId {
    /// Size of this block in bytes for a collective over `p` ranks operating
    /// on vectors of `n` bytes.
    ///
    /// Segments round **up** (`ceil(n / p)`): for non-divisible vector sizes
    /// the last segment is short, but every transfer of the other `p − 1`
    /// segments really carries `ceil(n / p)` bytes, so rounding down would
    /// systematically undercount modelled traffic.
    pub fn bytes(&self, n: u64, p: usize) -> u64 {
        match self {
            BlockId::Full => n,
            BlockId::Segment(_) | BlockId::Pairwise { .. } => n.div_ceil(p as u64).max(1),
        }
    }
}

/// The hasher of every map keyed by [`BlockId`] ([`BlockMap`]): one
/// rotate-xor-multiply round per word the key writes — at most three, the
/// discriminant and up to two `u32` fields.
///
/// Block ids are the dense numbering of our own schedules, never input an
/// adversary chooses, so the random-keyed SipHash of the standard `HashMap`
/// buys nothing here and costs more than the rest of a lookup. Unkeyed also
/// means deterministic: a block map iterates in the same order in every
/// process.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl BlockHasher {
    /// An odd multiplier with no short bit pattern (the one `rustc-hash`
    /// settled on).
    const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl std::hash::Hasher for BlockHasher {
    /// The state as it is. The standard table takes its bucket from the low
    /// bits, and the low bits of an odd multiple are a bijection of the low
    /// bits of the last word mixed in: ids that count up — a rank's segments,
    /// the pairwise blocks of one origin — fill a table without colliding,
    /// which no rotation or fold of the product does as well (measured on
    /// the families the tests below pin).
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    /// What a derived `Hash` writes an enum discriminant through.
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }

    /// `BlockId` never gets here; any other key is taken a word at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
}

/// A map keyed by [`BlockId`], hashed by [`BlockHasher`].
pub type BlockMap<V> =
    std::collections::HashMap<BlockId, V, std::hash::BuildHasherDefault<BlockHasher>>;

/// Per-rank element counts of an irregular (v-variant) collective.
///
/// Regular collectives split the `n`-byte vector into `p` equal segments;
/// the v-variants (`gatherv`, `scatterv`, `allgatherv`, `reduce_scatterv`)
/// instead let rank `i` own a share proportional to `counts[i]`. The counts
/// are dimensionless weights: segment `i` of an `n`-byte operation carries
/// `ceil(n · cᵢ / Σc)` bytes (zero when `cᵢ = 0`), which degenerates
/// *bit-exactly* to the regular `ceil(n / p)` sizing when all counts are
/// equal — the equivalence the irregular regression tests pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    per_rank: Arc<Vec<u64>>,
    total: u64,
}

impl Counts {
    /// Creates a count vector.
    ///
    /// # Panics
    /// Panics on an empty vector or when every count is zero (an operation
    /// moving no data has no meaningful schedule).
    pub fn new(per_rank: Vec<u64>) -> Self {
        assert!(!per_rank.is_empty(), "counts must cover at least one rank");
        let total: u64 = per_rank.iter().sum();
        assert!(total > 0, "at least one rank must contribute data");
        Self {
            per_rank: Arc::new(per_rank),
            total,
        }
    }

    /// Number of ranks covered.
    pub fn num_ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// The count of rank `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.per_rank[i]
    }

    /// The per-rank counts.
    pub fn per_rank(&self) -> &[u64] {
        &self.per_rank
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes of segment `i` when the whole operation moves `n` bytes:
    /// `0` for a zero-count rank, otherwise `max(1, ceil(n · cᵢ / Σc))`.
    pub fn segment_bytes(&self, i: u32, n: u64) -> u64 {
        Counts::share_bytes(self.per_rank[i as usize], self.total, n)
    }

    /// The [`Counts::segment_bytes`] formula on raw values, for callers that
    /// cache `(count, total)` pairs away from the `Counts` itself (the cost
    /// summaries of `bine-net`). The product is taken in `u128` so huge
    /// vectors times huge counts cannot overflow.
    pub fn share_bytes(count: u64, total: u64, n: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        let share = ((n as u128) * (count as u128)).div_ceil(total as u128) as u64;
        share.max(1)
    }
}

/// What the receiver does with an incoming payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Store the received blocks (broadcast/gather/scatter/allgather/alltoall).
    Copy,
    /// Combine the received blocks elementwise with the local partial result
    /// (reduce/reduce-scatter/allreduce).
    Reduce,
}

/// A point-to-point transfer within one step of a schedule, as the step
/// hands it out: its header, and its blocks as a slice of the step's arena.
///
/// A message with `src == dst` models a local buffer reorganisation (e.g.
/// the block permutation of the `permute` strategy); it moves no bytes over
/// the network but is charged a memory-copy cost by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRef<'a> {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Copy or reduce semantics at the receiver.
    pub kind: TransferKind,
    /// Number of contiguous memory regions the sender must touch to build
    /// this message (1 = a single contiguous send). Used by the cost model
    /// to charge the overhead the paper discusses in Sec. 4.3.1.
    pub segments: u32,
    /// Blocks carried by the message.
    pub blocks: &'a [BlockId],
}

impl MessageRef<'_> {
    /// Whether this message is a local (intra-rank) buffer move.
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

/// Number of contiguous memory regions spanned by a set of blocks, assuming
/// blocks are laid out in index order in the buffer.
pub fn contiguity_of(blocks: &[BlockId]) -> u32 {
    contiguity_with(blocks, &mut Vec::new())
}

/// [`contiguity_of`] with the buffer its sort needs supplied by the caller: a
/// builder that lists blocks out of index order (the alltoalls) holds one
/// across its messages instead of allocating per message. What the buffer
/// held before is irrelevant; it is untouched when the indices ascend.
pub(crate) fn contiguity_with(blocks: &[BlockId], sorted: &mut Vec<u32>) -> u32 {
    let indices = || {
        blocks.iter().filter_map(|b| match b {
            BlockId::Segment(i) => Some(*i),
            BlockId::Pairwise { dest, .. } => Some(*dest),
            BlockId::Full => None,
        })
    };
    // Strictly ascending indices — how the builders list a rank's blocks,
    // and how every chunk of such a list is ordered — are their own sorted,
    // deduplicated form: count the runs where they lie.
    let mut runs = 0;
    let mut last = None;
    for i in indices() {
        match last {
            // Out of order or repeated: the definition, which sorts. Equal
            // neighbours of the sorted list are one index, a step of one
            // continues a region, anything wider starts the next.
            Some(prev) if i <= prev => {
                sorted.clear();
                sorted.reserve(blocks.len());
                sorted.extend(indices());
                sorted.sort_unstable();
                return 1 + sorted.windows(2).filter(|w| w[1] - w[0] > 1).count() as u32;
            }
            Some(prev) if i - prev == 1 => {}
            _ => runs += 1,
        }
        last = Some(i);
    }
    runs.max(1)
}

/// What a [`Step`] stores of one message: 24 bytes, its blocks a range of
/// the step's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    src: u32,
    dst: u32,
    segments: u32,
    start: u32,
    end: u32,
    kind: TransferKind,
}

impl Header {
    fn view<'a>(&self, arena: &'a [BlockId]) -> MessageRef<'a> {
        MessageRef {
            src: self.src as Rank,
            dst: self.dst as Rank,
            kind: self.kind,
            segments: self.segments,
            blocks: &arena[self.start as usize..self.end as usize],
        }
    }
}

/// One synchronous step of a schedule: all messages in a step are considered
/// to be in flight at the same time.
///
/// A step holds two vectors whatever its message count: the messages'
/// headers, and one arena of their blocks, each message a range of it in
/// message order. A builder that sizes both up front ([`Step::with_capacity`])
/// allocates twice per step and never grows either.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    headers: Vec<Header>,
    blocks: Vec<BlockId>,
}

impl Step {
    /// Creates an empty step.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty step with room for `messages` messages carrying
    /// `blocks` blocks between them: filled with no more, it never grows.
    pub fn with_capacity(messages: usize, blocks: usize) -> Self {
        Self {
            headers: Vec::with_capacity(messages),
            blocks: Vec::with_capacity(blocks),
        }
    }

    /// Appends a message, counting its contiguous regions from the block
    /// indices (segments are assumed to be laid out in index order).
    pub fn push(
        &mut self,
        src: Rank,
        dst: Rank,
        blocks: impl IntoIterator<Item = BlockId>,
        kind: TransferKind,
    ) {
        let start = self.blocks.len();
        self.blocks.extend(blocks);
        let segments = contiguity_of(&self.blocks[start..]);
        self.append(src, dst, start, kind, segments);
    }

    /// Appends a message with an explicitly provided segment count (used by
    /// the non-contiguous-data strategies that reorganise the buffer).
    pub fn push_with_segments(
        &mut self,
        src: Rank,
        dst: Rank,
        blocks: impl IntoIterator<Item = BlockId>,
        kind: TransferKind,
        segments: u32,
    ) {
        let start = self.blocks.len();
        self.blocks.extend(blocks);
        self.append(src, dst, start, kind, segments);
    }

    /// The header of a message whose blocks were appended from `start` on.
    fn append(&mut self, src: Rank, dst: Rank, start: usize, kind: TransferKind, segments: u32) {
        self.headers.push(Header {
            src: index_u32(src, "ranks"),
            dst: index_u32(dst, "ranks"),
            segments,
            start: start as u32,
            end: index_u32(self.blocks.len(), "blocks in a step"),
            kind,
        });
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the step contains no messages.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// The messages, in the order they were pushed.
    pub fn messages(
        &self,
    ) -> impl ExactSizeIterator<Item = MessageRef<'_>> + DoubleEndedIterator + Clone + '_ {
        self.headers.iter().map(|h| h.view(&self.blocks))
    }

    /// Every block the step moves: the messages' block lists, concatenated
    /// in message order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Removes message `i`, keeping the others in order.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn remove(&mut self, i: usize) {
        let removed = self.headers.remove(i);
        self.blocks
            .drain(removed.start as usize..removed.end as usize);
        let width = removed.end - removed.start;
        for later in &mut self.headers[i..] {
            later.start -= width;
            later.end -= width;
        }
    }

    /// Re-annotates the segment count of every network message (local
    /// moves keep theirs) with `segments(message)`.
    pub(crate) fn set_network_segments(&mut self, segments: impl Fn(MessageRef<'_>) -> u32) {
        for h in self.headers.iter_mut().filter(|h| h.src != h.dst) {
            h.segments = segments(h.view(&self.blocks));
        }
    }

    /// Turns every message around: its receiver sends it to its sender.
    pub(crate) fn reverse_messages(&mut self) {
        for h in &mut self.headers {
            std::mem::swap(&mut h.src, &mut h.dst);
        }
    }
}

/// A complete communication schedule for one collective invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of participating ranks.
    pub num_ranks: usize,
    /// The collective this schedule implements.
    pub collective: Collective,
    /// Human-readable algorithm name (e.g. `"bine-dh-tree"`).
    pub algorithm: String,
    /// Root rank for rooted collectives, 0 otherwise.
    pub root: Rank,
    /// The synchronous steps, in execution order.
    pub steps: Vec<Step>,
    /// Per-rank element counts for irregular (v-variant) schedules; `None`
    /// for the regular collectives. When set, [`BlockId::Segment`] blocks
    /// are sized by [`Counts::segment_bytes`] instead of the uniform
    /// `ceil(n / p)` split — resolve bytes through
    /// [`Schedule::block_bytes`] / [`Schedule::message_bytes`].
    pub counts: Option<Counts>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new(
        num_ranks: usize,
        collective: Collective,
        algorithm: impl Into<String>,
        root: Rank,
    ) -> Self {
        Self {
            num_ranks,
            collective,
            algorithm: algorithm.into(),
            root,
            steps: Vec::new(),
            counts: None,
        }
    }

    /// Attaches per-rank counts, turning this into an irregular schedule.
    ///
    /// # Panics
    /// Panics if the count vector does not cover exactly `num_ranks` ranks.
    pub fn with_counts(mut self, counts: Counts) -> Self {
        assert_eq!(
            counts.num_ranks(),
            self.num_ranks,
            "counts must cover every rank of the schedule"
        );
        self.counts = Some(counts);
        self
    }

    /// Size of block `b` in bytes for vector size `n`, honouring the
    /// irregular per-rank counts when present.
    pub fn block_bytes(&self, b: BlockId, n: u64) -> u64 {
        match (&self.counts, b) {
            (Some(c), BlockId::Segment(i)) => c.segment_bytes(i, n),
            _ => b.bytes(n, self.num_ranks),
        }
    }

    /// Total payload bytes of message `m` for vector size `n`, honouring
    /// the irregular per-rank counts when present: the one way to size a
    /// message.
    pub fn message_bytes(&self, m: MessageRef<'_>, n: u64) -> u64 {
        match &self.counts {
            None => m.blocks.iter().map(|b| b.bytes(n, self.num_ranks)).sum(),
            Some(_) => m.blocks.iter().map(|&b| self.block_bytes(b, n)).sum(),
        }
    }

    /// Appends a step.
    pub fn push_step(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Number of steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Iterates over every message of every step, annotated with its step
    /// index.
    pub fn messages(&self) -> impl Iterator<Item = (usize, MessageRef<'_>)> {
        self.steps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.messages().map(move |m| (i, m)))
    }

    /// Total bytes moved over the network (local messages excluded) for
    /// vector size `n`.
    pub fn total_network_bytes(&self, n: u64) -> u64 {
        self.messages()
            .filter(|(_, m)| !m.is_local())
            .map(|(_, m)| self.message_bytes(m, n))
            .sum()
    }

    /// Largest number of bytes any single rank sends over the whole schedule
    /// (a proxy for the per-rank bandwidth term of the alpha–beta model).
    pub fn max_bytes_sent_by_rank(&self, n: u64) -> u64 {
        let mut per_rank = vec![0u64; self.num_ranks];
        for (_, m) in self.messages() {
            if !m.is_local() {
                per_rank[m.src] += self.message_bytes(m, n);
            }
        }
        per_rank.into_iter().max().unwrap_or(0)
    }

    /// Largest number of bytes any single rank receives over the whole
    /// schedule (the bottleneck for reduction-heavy collectives, where every
    /// received byte must also be combined locally).
    pub fn max_bytes_received_by_rank(&self, n: u64) -> u64 {
        let mut per_rank = vec![0u64; self.num_ranks];
        for (_, m) in self.messages() {
            if !m.is_local() {
                per_rank[m.dst] += self.message_bytes(m, n);
            }
        }
        per_rank.into_iter().max().unwrap_or(0)
    }

    /// Appends all steps of another schedule (used to compose e.g.
    /// reduce-scatter + allgather into an allreduce).
    pub fn extend_with(&mut self, other: Schedule) {
        self.steps.extend(other.steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{ScheduleValidator, ValidationError};

    /// The structural check alone: these tests validate fragments, which
    /// deliver nothing.
    fn check_well_formed(sched: &Schedule) -> Result<(), ValidationError> {
        ScheduleValidator::new(&sched.compile()).check_well_formed()
    }

    #[test]
    fn block_sizes() {
        assert_eq!(BlockId::Full.bytes(1024, 8), 1024);
        assert_eq!(BlockId::Segment(3).bytes(1024, 8), 128);
        assert_eq!(BlockId::Pairwise { origin: 0, dest: 1 }.bytes(1024, 8), 128);
        // Tiny vectors never round down to zero bytes.
        assert_eq!(BlockId::Segment(0).bytes(4, 8), 1);
        // Non-divisible sizes round up, not down: 1000 / 3 → 334-byte blocks.
        assert_eq!(BlockId::Segment(1).bytes(1000, 3), 334);
        assert_eq!(BlockId::Pairwise { origin: 0, dest: 2 }.bytes(1000, 3), 334);
    }

    /// Hashes `ids` with [`BlockHasher`]; returns how many distinct 64-bit
    /// values and how many distinct low-16-bit buckets they reach.
    fn spread(ids: impl Iterator<Item = BlockId>) -> (usize, usize) {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let build = std::hash::BuildHasherDefault::<BlockHasher>::default();
        let hashes: HashSet<u64> = ids.map(|id| build.hash_one(id)).collect();
        let buckets: HashSet<u64> = hashes.iter().map(|h| h & 0xffff).collect();
        (hashes.len(), buckets.len())
    }

    #[test]
    fn block_hasher_spreads_the_dense_ids_of_large_schedules() {
        // The two families a block map holds many of, at the sizes the
        // executors meet: no two ids collide in 64 bits, and the 2¹⁶ buckets
        // of a table that size fill at least as well as a random function
        // would (63 %).
        let n = 1 << 16;
        let (distinct, buckets) = spread((0..n).map(BlockId::Segment));
        assert_eq!(distinct, n as usize);
        assert!(buckets * 10 >= n as usize * 6, "{buckets} segment buckets");
        let pairs = (0..256).flat_map(|origin| (0..256).map(move |dest| (origin, dest)));
        let (distinct, buckets) =
            spread(pairs.map(|(o, d)| BlockId::Pairwise { origin: o, dest: d }));
        assert_eq!(distinct, n as usize);
        assert!(buckets * 10 >= n as usize * 6, "{buckets} pairwise buckets");
        // The families do not collide with each other or with `Full`.
        let mixed = [BlockId::Full, BlockId::Segment(0), BlockId::Segment(1)];
        let pair = BlockId::Pairwise { origin: 0, dest: 0 };
        assert_eq!(spread(mixed.into_iter().chain([pair])).0, 4);
    }

    #[test]
    fn contiguity() {
        let seg = |i| BlockId::Segment(i);
        assert_eq!(contiguity_of(&[seg(0), seg(1), seg(2)]), 1);
        assert_eq!(contiguity_of(&[seg(0), seg(2), seg(4)]), 3);
        assert_eq!(contiguity_of(&[seg(6), seg(7), seg(0)]), 2); // no wrap in memory
        assert_eq!(contiguity_of(&[BlockId::Full]), 1);
    }

    #[test]
    fn a_header_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Header>() <= 24);
    }

    #[test]
    fn a_step_hands_out_its_messages_as_ranges_of_one_arena() {
        let seg = |i| BlockId::Segment(i);
        let mut step = Step::with_capacity(3, 4);
        step.push(0, 1, [seg(0), seg(2)], TransferKind::Copy);
        step.push_with_segments(1, 2, [seg(1)], TransferKind::Reduce, 5);
        step.push(2, 2, [seg(3)], TransferKind::Copy);
        assert_eq!(step.len(), 3);
        assert_eq!(step.blocks(), &[seg(0), seg(2), seg(1), seg(3)]);
        let listed: Vec<_> = step.messages().collect();
        let first = listed[0];
        assert_eq!((first.src, first.dst, first.segments), (0, 1, 2));
        assert_eq!(first.blocks, &[seg(0), seg(2)]);
        assert_eq!(listed[1].segments, 5);
        assert!(listed[2].is_local());
        step.remove(0);
        let rest: Vec<_> = step
            .messages()
            .map(|m| (m.src, m.blocks.to_vec()))
            .collect();
        assert_eq!(rest, vec![(1, vec![seg(1)]), (2, vec![seg(3)])]);
        assert_eq!(step.blocks(), &[seg(1), seg(3)]);
    }

    #[test]
    fn equal_counts_size_segments_exactly_like_the_regular_split() {
        // The irregular sizing must degenerate bit-exactly to ceil(n/p)
        // when every rank contributes the same count, for any common count.
        for p in [3usize, 4, 8, 17] {
            for k in [1u64, 2, 7, 1000] {
                let c = Counts::new(vec![k; p]);
                for n in [1u64, 4, 1000, 1 << 20, (8 << 20) + 17] {
                    for i in 0..p as u32 {
                        assert_eq!(
                            c.segment_bytes(i, n),
                            BlockId::Segment(i).bytes(n, p),
                            "p={p} k={k} n={n} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_count_segments_carry_no_bytes_and_heavy_ones_carry_the_rest() {
        // One rank holds everything: its segment is the whole vector, the
        // zero-count ranks carry nothing.
        let c = Counts::new(vec![0, 5, 0, 0]);
        assert_eq!(c.segment_bytes(0, 1 << 20), 0);
        assert_eq!(c.segment_bytes(1, 1 << 20), 1 << 20);
        assert_eq!(c.segment_bytes(2, 1 << 20), 0);
        // Tiny vectors never round a non-zero share down to zero bytes.
        let skew = Counts::new(vec![1, 1_000_000]);
        assert_eq!(skew.segment_bytes(0, 4), 1);
    }

    #[test]
    fn irregular_message_bytes_follow_the_counts() {
        let mut sched = Schedule::new(4, Collective::Allgather, "test", 0);
        let mut step = Step::new();
        step.push(
            0,
            1,
            [BlockId::Segment(0), BlockId::Segment(2)],
            TransferKind::Copy,
        );
        sched.push_step(step);
        let sched = sched.with_counts(Counts::new(vec![3, 1, 0, 4]));
        // n = 800, total = 8: segment 0 = ceil(800·3/8) = 300, segment 2 = 0.
        assert_eq!(sched.total_network_bytes(800), 300);
        assert_eq!(sched.max_bytes_sent_by_rank(800), 300);
        assert_eq!(check_well_formed(&sched), Ok(()));
    }

    #[test]
    fn validation_catches_count_rank_mismatch() {
        let mut sched = Schedule::new(4, Collective::Allgather, "test", 0);
        sched.counts = Some(Counts::new(vec![1, 2]));
        let mismatch = ValidationError::CountsMismatch {
            counts: 2,
            ranks: 4,
        };
        assert_eq!(sched.validate(), Err(mismatch));
    }

    #[test]
    fn validation_catches_double_send() {
        let mut sched = Schedule::new(4, Collective::Broadcast, "test", 0);
        let mut step = Step::new();
        step.push(0, 1, [BlockId::Full], TransferKind::Copy);
        step.push(0, 2, [BlockId::Full], TransferKind::Copy);
        sched.push_step(step);
        let twice = ValidationError::MultipleSends { step: 0, rank: 0 };
        assert_eq!(sched.validate(), Err(twice));
    }

    #[test]
    fn byte_accounting() {
        let mut sched = Schedule::new(4, Collective::Allgather, "test", 0);
        let mut step = Step::new();
        step.push(0, 1, [BlockId::Segment(0)], TransferKind::Copy);
        let pair = [BlockId::Segment(2), BlockId::Segment(3)];
        step.push(2, 3, pair, TransferKind::Copy);
        step.push(1, 1, [BlockId::Segment(1)], TransferKind::Copy); // local
        sched.push_step(step);
        assert_eq!(sched.total_network_bytes(400), 100 + 200);
        assert_eq!(sched.max_bytes_sent_by_rank(400), 200);
        assert_eq!(check_well_formed(&sched), Ok(()));
    }
}
