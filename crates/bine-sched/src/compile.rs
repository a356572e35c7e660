//! Lowering a [`Schedule`] into the dense form the executors run.
//!
//! A [`Schedule`] is optimised for inspection: every step holds a list of
//! messages whose blocks are symbolic [`BlockId`]s. Interpreting
//! that form over data is allocation- and hash-bound — every executor step
//! rescans the message list per rank and hashes `BlockId`s in its inner loop.
//!
//! [`CompiledSchedule`] is the execution form, resolved **once** per
//! schedule:
//!
//! * every `BlockId` is interned to a dense `u32` by a [`BlockInterner`]
//!   (tables addressed by the id itself, so neither lowering nor the
//!   executors hash),
//! * every message becomes a [`CompiledSend`] whose block list is a range in
//!   one flat index array,
//! * per step, the sends are grouped by source rank (CSR layout —
//!   [`CompiledSchedule::sends_from`]) and the *receive side* is a CSR list
//!   of send references per destination rank, in schedule order
//!   ([`CompiledSchedule::recvs_to`]), which is exactly the order the
//!   reference interpreter applies payloads in.
//!
//! The semantics are unchanged: compiling and executing a schedule is
//! bit-identical to interpreting it (cross-checked in `bine-exec`).
//!
//! Lowering takes the *base* schedule and a pipeline chunk count: one loop
//! walks the chunks [`crate::segment`] cuts and interns them as they come,
//! so a `+seg{S}` pick is lowered from what the builder emitted, never from
//! an owned segmented [`Schedule`]. [`Schedule::compile`] is that loop at one
//! chunk, [`Schedule::compile_segmented`] at `S`; the result equals
//! `segmented(S).compile()` field for field (pinned over the whole catalog
//! in `tests/validate_proptests.rs`).
//!
//! Executors do not index their per-rank state by the global interned index
//! — a rank touches a small share of a schedule's blocks (about
//! `p·(1 + ½·log2 p)` of the `p²` pairwise blocks of a Bine alltoall) — but
//! by the per-rank compact slots of the [`SlotLayout`], a view derived from
//! the compiled form on first execution
//! ([`CompiledSchedule::slot_layout`]), never by `compile` itself. The
//! layout is also the *key table* executor state is held under — it names
//! the block behind every slot of every rank — so it sits behind an [`Arc`]
//! that the states, and the finals a caller keeps, share with the handle.
//!
//! A run visits the payload entries in one of two orders, and
//! [`CompiledSchedule::walk`] is the one definition of both: the groups of
//! entries a run gathers before it applies any, in apply order. The
//! executor, the [`MemoryPlan`] and the staging bound
//! ([`CompiledSchedule::max_staged`]) all read it. What the block order
//! regroups, and each order's staging bound and plan, are derived by the
//! first execution that needs them, and by nothing else.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::catalog::tuned_name;
use crate::contract::Contract;
use crate::plan::{MemoryPlan, WalkOrder, NEVER};
use crate::schedule::{BlockId, Collective, Counts, Rank, Schedule, TransferKind};
use crate::segment::{num_substeps, parts, ChunkPlan};

/// Source of process-unique [`CompiledSchedule`] identities.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(0);

/// Narrows a length or offset to the `u32` the compiled form stores.
///
/// # Panics
/// Panics, naming `what`, if `n` does not fit — the compiled form cannot
/// address it, and an `as` cast would silently alias another entry.
pub(crate) fn index_u32(n: usize, what: &str) -> u32 {
    // Out of line, so that the check costs its callers' hot loops (block
    // interning above all) a compare and nothing else.
    #[cold]
    #[inline(never)]
    fn overflow(what: &str) -> ! {
        panic!("more than u32::MAX {what}")
    }
    u32::try_from(n).unwrap_or_else(|_| overflow(what))
}

/// Appends one step's CSR row over `ranks` ranks to `offsets` and returns it
/// as the cursors of a stable counting placement of the step's entries,
/// whose ranks in schedule order are `keys` and whose positions count from
/// `base`.
///
/// The row is shifted by one: entry `k + 1` starts out where rank `k`'s run
/// begins, so it is the cursor [`place`] advances for that rank, and once
/// every entry is placed the row reads as CSR — entry `k` where rank `k`'s
/// run begins, entry `ranks` where the last one ends.
fn csr_row(
    offsets: &mut Vec<u32>,
    ranks: usize,
    base: u32,
    keys: impl Iterator<Item = u32>,
) -> &mut [u32] {
    let start = offsets.len();
    offsets.push(base);
    offsets.resize(start + ranks + 1, 0);
    let row = &mut offsets[start..];
    // Rank `k` is counted at `k + 2`, so the prefix sums leave at `k + 1`
    // the count of the ranks below it; the last rank's count is not needed.
    for key in keys {
        if let Some(count) = row.get_mut(key as usize + 2) {
            *count += 1;
        }
    }
    for k in 1..row.len() {
        row[k] += row[k - 1];
    }
    row
}

/// The position of rank `key`'s next entry in the placement whose cursors
/// `row` holds ([`csr_row`]).
///
/// # Panics
/// Panics if `key` is not one of the row's ranks.
fn place(row: &mut [u32], key: u32) -> u32 {
    let cursor = &mut row[key as usize + 1];
    *cursor += 1;
    *cursor - 1
}

/// A cell of a [`BlockInterner`] table whose block was never interned.
const ABSENT: u32 = u32::MAX;

/// Dense interning of the [`BlockId`]s referenced by one schedule.
///
/// Index 0..len map 1:1 onto the distinct blocks, in first-appearance order.
///
/// A block id is its own address over the schedule's `p` ranks, so the way
/// back from an id to its index is an array read, not a hash lookup: `Full`
/// has one cell, `Segment(i)` cell `i` of a `p`-cell table and `Pairwise {
/// origin, dest }` cell `origin·p + dest` of a `p²`-cell one. A table is
/// allocated when the first id of its kind is interned — a segment-only
/// schedule never pays for the `p²` cells. Ids outside `0..p`, which only a
/// malformed schedule carries (the validator reports them), are searched in
/// a short list instead: no table is ever sized by an id's value.
#[derive(Debug, Clone)]
pub struct BlockInterner {
    /// The rank count `p` the tables are addressed over.
    ranks: usize,
    /// Interned index → block.
    ids: Vec<BlockId>,
    /// The index of `Full`, or [`ABSENT`].
    full: u32,
    /// `Segment(i)` → index at cell `i`; empty until the first segment.
    segments: Vec<u32>,
    /// `Pairwise { origin, dest }` → index at cell `origin·p + dest`; empty
    /// until the first pairwise block.
    pairwise: Vec<u32>,
    /// The indices of the interned ids outside `0..p`.
    strays: Vec<u32>,
}

/// `table`, allocated at `cells` cells on its first use. A schedule that
/// names one block of a kind names most of them, so `ids` makes room for
/// `cells` more blocks then, once, instead of growing by doubling.
fn allocated<'a>(table: &'a mut Vec<u32>, cells: usize, ids: &mut Vec<BlockId>) -> &'a mut [u32] {
    if table.is_empty() {
        *table = vec![ABSENT; cells];
        ids.reserve(cells);
    }
    table
}

impl BlockInterner {
    /// Creates an empty interner for the blocks of a schedule over `ranks`
    /// ranks.
    ///
    /// # Panics
    /// Panics if `ranks²`, the pairwise table's cell count, overflows a
    /// `usize`: a cell address would wrap onto another block's.
    pub fn new(ranks: usize) -> Self {
        assert!(
            ranks.checked_mul(ranks).is_some(),
            "{ranks}² pairwise cells overflow a usize"
        );
        Self {
            ranks,
            ids: Vec::new(),
            full: ABSENT,
            segments: Vec::new(),
            pairwise: Vec::new(),
            strays: Vec::new(),
        }
    }

    /// Returns the dense index of `id`, interning it on first sight.
    pub fn intern(&mut self, id: BlockId) -> u32 {
        let p = self.ranks;
        let in_range = |i: u32| (i as usize) < p;
        let cell = match id {
            BlockId::Full => &mut self.full,
            BlockId::Segment(i) if in_range(i) => {
                &mut allocated(&mut self.segments, p, &mut self.ids)[i as usize]
            }
            BlockId::Pairwise { origin, dest } if in_range(origin) && in_range(dest) => {
                let at = origin as usize * p + dest as usize;
                &mut allocated(&mut self.pairwise, p * p, &mut self.ids)[at]
            }
            _ => match self.index_of(&id) {
                Some(index) => return index,
                None => {
                    self.strays.push(ABSENT);
                    self.strays.last_mut().expect("just pushed")
                }
            },
        };
        if *cell == ABSENT {
            // The count must fit, so the new index stays below `ABSENT`.
            *cell = index_u32(self.ids.len() + 1, "distinct blocks") - 1;
            self.ids.push(id);
        }
        *cell
    }

    /// Returns the dense index of `id` if it was interned.
    pub fn index_of(&self, id: &BlockId) -> Option<u32> {
        let p = self.ranks;
        let in_range = |i: u32| (i as usize) < p;
        let index = match *id {
            BlockId::Full => self.full,
            BlockId::Segment(i) if in_range(i) => *self.segments.get(i as usize)?,
            BlockId::Pairwise { origin, dest } if in_range(origin) && in_range(dest) => {
                *self.pairwise.get(origin as usize * p + dest as usize)?
            }
            _ => {
                let mut strays = self.strays.iter().copied();
                return strays.find(|&i| self.ids[i as usize] == *id);
            }
        };
        (index != ABSENT).then_some(index)
    }

    /// Returns the block behind a dense index.
    pub fn resolve(&self, index: u32) -> BlockId {
        self.ids[index as usize]
    }

    /// Number of distinct interned blocks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over `(dense index, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, BlockId)> + '_ {
        self.ids.iter().enumerate().map(|(i, &b)| (i as u32, b))
    }
}

/// One message of one step, in execution form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledSend {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Copy or reduce semantics at the receiver.
    pub kind: TransferKind,
    /// Number of contiguous memory regions of the originating message
    /// (carried through for cost/simulation models; executors ignore it).
    pub segments: u32,
    /// Start of this send's block list in [`CompiledSchedule::block_index_slice`].
    pub blocks_start: u32,
    /// End (exclusive) of this send's block list.
    pub blocks_end: u32,
    /// Position of the originating message within its step — the order the
    /// reference interpreter applies payloads in, preserved per receiver.
    pub order: u32,
}

impl CompiledSend {
    /// Number of blocks this send carries.
    pub fn num_blocks(&self) -> usize {
        (self.blocks_end - self.blocks_start) as usize
    }

    /// Whether this send is a local (intra-rank) buffer move.
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

/// Per-rank compact block slots: the view of a [`CompiledSchedule`] that
/// executor state is sized, indexed and *keyed* by.
///
/// A rank's state holds one slot per block the rank ever sends or receives
/// — its *local* slots, numbered in ascending interned-index order — not one
/// per block the whole schedule interned, and a run keeps every rank's in
/// one table, rank after rank ([`SlotLayout::rank_slots`]). The layout says
/// which block each slot of each rank holds, and finds the slot of a
/// [`BlockId`], so a table of payloads laid out by it is a complete block
/// store for every rank: the key table of the dense executor state and of
/// the finals it returns.
///
/// A block's slot is found in constant time ([`SlotLayout::local_slot`]):
/// each row that holds some but not all interned blocks is cut into
/// buckets of a power-of-two width, at most one per slot, and a bucket keeps
/// where its first slot lies.
///
/// The table is self-contained — it carries its own copy of the handle's
/// interning, made once when the layout is derived — and sits behind an
/// [`Arc`] ([`CompiledSchedule::slot_layout`]): whoever holds state keyed by
/// it keeps the table alive and nothing else of the handle (not the sends,
/// not their block lists, not the per-payload slots a walk hands out).
#[derive(Debug, Clone)]
pub struct SlotLayout {
    /// The handle's interning: `BlockId` ↔ interned index.
    blocks: BlockInterner,
    /// Per rank: range into `rank_blocks` (CSR). Length `num_ranks + 1`.
    rank_offsets: Vec<u32>,
    /// Per rank: the sorted interned indices of the blocks it touches; the
    /// position within the rank's range is the local slot.
    rank_blocks: Vec<u32>,
    /// Per rank: range into `buckets` (CSR), empty for a row that holds
    /// every interned block or none. Length `num_ranks + 1`.
    bucket_offsets: Vec<u32>,
    /// Per rank: log2 of the width of its buckets, in interned indices.
    shifts: Vec<u8>,
    /// Per rank, per bucket `b`: the local slot of the row's first block
    /// at or above `b << shift`, and, closing the last bucket, the row's
    /// length ([`bucket_row`]).
    buckets: Vec<u32>,
    /// See [`SlotLayout::dies`]: bit `at % 64` of word `at / 64`, no words
    /// past the last set bit.
    dying: Vec<u64>,
}

/// What the first execution derives: the shared [`SlotLayout`] and, parallel
/// to the compiled block-index array, each payload's slot at its source and
/// at its destination rank as a position in a run's slot table
/// ([`SlotLayout::rank_slots`]) — the handle's own, so that gather and apply
/// index the table directly — and what is read off a run's groups: when
/// each slot dies and how many payloads a group stages at most.
#[derive(Debug, Clone)]
pub(crate) struct Slots {
    layout: Arc<SlotLayout>,
    src: Vec<u32>,
    dst: Vec<u32>,
    /// Per position of a run's slot table, the step after which no walk
    /// reads or writes the slot — the last that moves a payload of its block
    /// out of or into its rank — or [`NEVER`] if the contract keeps the
    /// block ([`Contract::keeps`]). The memory plan lets go of a slot's
    /// value there; empty for a schedule that does not reduce, whose plan
    /// makes no sum to let go of.
    pub(crate) deaths: Vec<u32>,
    /// Per [`WalkOrder`], see [`CompiledSchedule::max_staged`] and
    /// [`CompiledSchedule::memory_plan`]: here, not in the handle, so that a
    /// handle never executed is no larger for them.
    staged: [OnceLock<usize>; 2],
    plans: [OnceLock<Box<MemoryPlan>>; 2],
}

/// What [`Slots`] reads off the groups of a walk: the most payloads one
/// group stages and, unless `deaths` is empty, the last step that moves
/// each slot of `src` and `dst` ([`CompiledSchedule::payload_slots`]).
#[derive(Default)]
struct Groups<'a> {
    max_staged: usize,
    deaths: Vec<u32>,
    src: &'a [u32],
    dst: &'a [u32],
}

impl Visit for Groups<'_> {
    fn group(&mut self, step: u32, runs: impl Iterator<Item = Payloads> + Clone) {
        let mut staged = 0;
        for run in runs.filter(|run| run.moves) {
            staged += run.entries.len();
            if !self.deaths.is_empty() {
                let (src, dst) = (&self.src[run.entries.clone()], &self.dst[run.entries]);
                for &at in src.iter().chain(dst) {
                    let death = &mut self.deaths[at as usize];
                    *death = (*death).max(step);
                }
            }
        }
        self.max_staged = self.max_staged.max(staged);
    }
}

impl Slots {
    fn derive(compiled: &CompiledSchedule) -> Self {
        let p = compiled.num_ranks;
        let steps = compiled.num_steps();
        let payloads = &compiled.block_indices;
        let mut rank_offsets = Vec::with_capacity(p + 1);
        let mut rank_blocks: Vec<u32> = Vec::new();
        let mut src_slots = vec![0; payloads.len()];
        let mut dst_slots = vec![0; payloads.len()];

        // Interned index → slot of the rank being laid out, and a bit per
        // interned index for the blocks it touches: the tables sized by
        // every interned block, shared by all ranks and dropped when the
        // derivation ends.
        let mut local = vec![0; compiled.num_blocks()];
        let mut touched = vec![0u64; compiled.num_blocks().div_ceil(64)];
        let (mut bucket_offsets, mut shifts) = (Vec::with_capacity(p + 1), Vec::with_capacity(p));
        // Room for the most buckets the rows can have: a slot's and a
        // rank's each, and a payload entry makes at most two slots.
        let mut buckets = Vec::with_capacity(2 * payloads.len() + p);
        rank_offsets.push(0);
        bucket_offsets.push(0);
        for rank in 0..p {
            let sent = |step| compiled.sends_from(step, rank).iter();
            let received = |step| {
                let sends = compiled.recvs_to(step, rank).iter();
                sends.map(|&i| compiled.send(i as usize))
            };
            let base = rank_blocks.len();
            for send in (0..steps).flat_map(|s| sent(s).chain(received(s))) {
                for &block in compiled.block_index_slice(send) {
                    touched[block as usize / 64] |= 1 << (block % 64);
                }
            }
            // The row in ascending order, the bits cleared for the next
            // rank: local slot `slot` of the rank is position `base + slot`
            // of a run's slot table.
            for (word, bits) in touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(bits);
                while bits != 0 {
                    let block = word * 64 + bits.trailing_zeros() as usize;
                    local[block] = rank_blocks.len() as u32;
                    rank_blocks.push(block as u32);
                    bits &= bits - 1;
                }
            }
            let localise = |slots: &mut [u32], send: &CompiledSend| {
                let entries = send.blocks_start as usize..send.blocks_end as usize;
                for (slot, &block) in slots[entries.clone()].iter_mut().zip(&payloads[entries]) {
                    *slot = local[block as usize];
                }
            };
            for step in 0..steps {
                sent(step).for_each(|send| localise(&mut src_slots, send));
                received(step).for_each(|send| localise(&mut dst_slots, send));
            }
            shifts.push(bucket_row(&mut buckets, &rank_blocks[base..], local.len()));
            // At most one slot per payload entry, and those fit (`compile`).
            rank_offsets.push(rank_blocks.len() as u32);
            bucket_offsets.push(index_u32(buckets.len(), "buckets"));
        }
        buckets.shrink_to_fit();
        // The slots that die: those of the blocks a rank moves that the
        // contract does not keep.
        let contract = Contract::from(compiled);
        let mut dying = vec![0u64; rank_blocks.len().div_ceil(64)];
        for rank in 0..p {
            let row = rank_offsets[rank] as usize..rank_offsets[rank + 1] as usize;
            for (at, &block) in row.clone().zip(&rank_blocks[row]) {
                let kept = contract.keeps(rank, compiled.blocks.resolve(block));
                dying[at / 64] |= u64::from(!kept) << (at % 64);
            }
        }
        let live = dying.iter().rposition(|&word| word != 0);
        dying.truncate(live.map_or(0, |last| last + 1));
        let layout = Arc::new(SlotLayout {
            blocks: compiled.blocks.clone(),
            rank_offsets,
            rank_blocks,
            bucket_offsets,
            shifts,
            buckets,
            dying,
        });
        // When, for a memory plan, so only if the schedule reduces: after
        // the last step that moves a payload out of or into the slot (a kept
        // slot's `NEVER` is above every step).
        let planned = layout.num_slots() * usize::from(compiled.reduces);
        let mut groups = Groups {
            max_staged: 0,
            deaths: (0..planned)
                .map(|at| if layout.dies(at) { 0 } else { NEVER })
                .collect(),
            src: &src_slots,
            dst: &dst_slots,
        };
        compiled.walk(WalkOrder::Steps, &mut groups);
        Self {
            layout,
            deaths: groups.deaths,
            staged: [OnceLock::from(groups.max_staged), OnceLock::new()],
            src: src_slots,
            dst: dst_slots,
            plans: Default::default(),
        }
    }
}

impl SlotLayout {
    /// The interning the slots are numbered under: that of the handle the
    /// layout was derived from.
    pub fn blocks(&self) -> &BlockInterner {
        &self.blocks
    }

    /// The interned indices of the blocks `rank` ever sends or receives,
    /// ascending; local slot `i` of the rank holds block `rank_blocks(rank)[i]`.
    pub fn rank_blocks(&self, rank: usize) -> &[u32] {
        &self.rank_blocks[self.rank_slots(rank)]
    }

    /// Where `rank`'s local slots lie in a run's slot table: one table of
    /// [`SlotLayout::num_slots`] entries, every rank's slots in rank order,
    /// local slot `i` of `rank` at position `rank_slots(rank).start + i`.
    pub fn rank_slots(&self, rank: usize) -> Range<usize> {
        self.rank_offsets[rank] as usize..self.rank_offsets[rank + 1] as usize
    }

    /// The slots of all ranks together: the length of a run's slot table.
    pub fn num_slots(&self) -> usize {
        self.rank_blocks.len()
    }

    /// The block local slot `slot` of `rank` holds.
    pub fn block_at(&self, rank: usize, slot: usize) -> &BlockId {
        &self.blocks.ids[self.rank_blocks(rank)[slot] as usize]
    }

    /// Whether the slot at position `at` of a run's slot table dies: its
    /// block is one its rank moves and the contract does not keep
    /// ([`Contract::keeps`]). A walk lets go of its value after the last
    /// step that moves the block at the rank, and the finals do not hold it.
    #[inline]
    pub fn dies(&self, at: usize) -> bool {
        let word = self.dying.get(at / 64);
        word.is_some_and(|word| word >> (at % 64) & 1 == 1)
    }

    /// The positions of a run's slot table whose slots die
    /// ([`SlotLayout::dies`]), ascending.
    pub fn dying(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.dying.iter().enumerate();
        words.flat_map(|(word, &bits)| {
            let set = (0..64).filter(move |bit| bits >> bit & 1 == 1);
            set.map(move |bit| word * 64 + bit)
        })
    }

    /// The local slot of interned block `block` at `rank`, if the rank ever
    /// sends or receives it: in constant time, unless its bucket holds more
    /// than one run of consecutive indices (see [`SlotLayout`]).
    #[inline]
    pub fn local_slot(&self, rank: usize, block: u32) -> Option<usize> {
        let touched = self.rank_blocks(rank);
        // Slots ascend with the interned index without repeats, so a block
        // found at its own index (always, for a row that holds every
        // interned block, as every row of an allreduce does: it has no
        // bucket) needs no lookup.
        if touched.get(block as usize) == Some(&block) {
            return Some(block as usize);
        }
        let row = self.bucket_offsets[rank] as usize..self.bucket_offsets[rank + 1] as usize;
        let at = (block >> self.shifts[rank]) as usize;
        let ends = self.buckets[row].get(at..at + 2)?;
        let start = ends[0] as usize;
        let bucket = &touched[start..ends[1] as usize];
        // The block lies at most its distance from the bucket's first block
        // into the bucket — exactly there if the bucket is one run.
        let offset = block.checked_sub(*bucket.first()?)? as usize;
        let head = &bucket[..bucket.len().min(offset + 1)];
        let found = match head[head.len() - 1].cmp(&block) {
            std::cmp::Ordering::Equal => Some(head.len() - 1),
            std::cmp::Ordering::Less => None,
            std::cmp::Ordering::Greater => head.binary_search(&block).ok(),
        };
        found.map(|slot| start + slot)
    }
}

/// Appends the buckets of `row`, one rank's sorted interned indices of
/// `blocks` interned blocks, to `buckets` and returns their width's log2:
/// the narrowest power of two with at most one bucket per slot, each bucket
/// the local slot of the row's first block at or above its start, then the
/// row's length. A row that holds every block or none gets no bucket.
fn bucket_row(buckets: &mut Vec<u32>, row: &[u32], blocks: usize) -> u8 {
    if row.is_empty() || row.len() == blocks {
        return 0;
    }
    let shift = blocks.div_ceil(row.len()).next_power_of_two().ilog2();
    let start = buckets.len();
    buckets.resize(start + ((blocks - 1) >> shift) + 2, 0);
    // Bucket `b`'s blocks counted at `b + 1`, so that the prefix sums leave
    // at `b` the count of the blocks below it.
    let index = &mut buckets[start..];
    for &block in row {
        index[(block >> shift) as usize + 1] += 1;
    }
    for b in 1..index.len() {
        index[b] += index[b - 1];
    }
    shift as u8
}

/// One send's payloads in a group of a walk ([`CompiledSchedule::walk`]),
/// in apply order.
#[derive(Debug, Clone)]
pub struct Payloads {
    /// Global index of the send ([`CompiledSchedule::send`]).
    pub send: u32,
    /// The payload entries: positions in the compiled block-index array
    /// ([`CompiledSchedule::payload_block`]), in the slot positions of
    /// [`CompiledSchedule::payload_slots`] and in a memory plan's targets.
    pub entries: Range<usize>,
    /// Whether the send sums into its receiver's blocks
    /// ([`TransferKind::Reduce`]).
    pub reduces: bool,
    /// Whether the payloads move. An identity move does not: a copy its rank
    /// makes onto itself as its only receive of the step (the `permute`
    /// strategy's local pass; segmented picks included, as every message's
    /// chunk `c` travels in sub-step `c`). Nothing else writes the rank in
    /// the step and its payloads are read before it, so applying them would
    /// put each back into the slot it came from: a walk only checks that
    /// they are held.
    pub moves: bool,
}

/// What a walk hands its groups to ([`CompiledSchedule::walk`]).
pub trait Visit {
    /// One group of the walk, received in `step`: the payloads a run
    /// gathers before it applies any of them, one [`Payloads`] per send in
    /// apply order. `runs` may be cloned to go over the group again.
    fn group(&mut self, step: u32, runs: impl Iterator<Item = Payloads> + Clone);
}

/// One payload entry in the block order: which send moves the block, in
/// which step, as which payload entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BlockEntry {
    step: u32,
    send: u32,
    entry: u32,
}

/// The payload entries sorted by block, each block's in receive order —
/// `(step, destination rank, schedule order)`, the order a walk applies
/// them in: a stable counting sort of the receive lists by block. A payload
/// of block `b` reads slot `b` of its sender and writes slot `b` of its
/// receiver and nothing else, so a block's entries are a schedule of their
/// own.
#[derive(Debug, Clone)]
struct BlockMajor(Vec<BlockEntry>);

/// The execution form of a [`Schedule`]. Build with [`Schedule::compile`]
/// or, for a pipelined schedule, [`Schedule::compile_segmented`].
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    /// Number of participating ranks.
    pub num_ranks: usize,
    /// The collective the schedule implements.
    pub collective: Collective,
    /// Root rank for rooted collectives, 0 otherwise.
    pub root: Rank,
    /// Human-readable algorithm name, carried over from the schedule.
    pub algorithm: String,
    /// Process-unique identity (see [`CompiledSchedule::identity`]).
    identity: u64,
    blocks: BlockInterner,
    /// All sends, grouped by step, within a step sorted by source rank
    /// (stable, so `order` stays ascending per source).
    sends: Vec<CompiledSend>,
    /// Concatenated per-send dense block lists.
    block_indices: Vec<u32>,
    /// Per step: range into `sends`. Length `num_steps + 1`.
    step_offsets: Vec<u32>,
    /// Per step, per source rank: range into `sends` (CSR over the step's
    /// src-sorted sends). Length `num_steps * (num_ranks + 1)`.
    send_offsets: Vec<u32>,
    /// Send indices sorted by (step, destination rank, schedule order).
    recv_lists: Vec<u32>,
    /// Per step, per destination rank: range into `recv_lists`.
    /// Length `num_steps * (num_ranks + 1)`.
    recv_offsets: Vec<u32>,
    /// Irregular per-rank counts, carried over from the schedule (`None`
    /// for regular collectives). Byte-resolving consumers (cost model, DES)
    /// must go through [`CompiledSchedule::block_bytes`].
    counts: Option<Counts>,
    /// Whether any send is a [`TransferKind::Reduce`].
    reduces: bool,
    /// Derived on first execution, see [`CompiledSchedule::slot_layout`].
    /// Boxed, like `block_major`: a handle that is never executed carries two
    /// pointers, not the empty vectors of the two views.
    slots: OnceLock<Box<Slots>>,
    /// Derived on the first walk block by block, see
    /// [`CompiledSchedule::walk`].
    block_major: OnceLock<Box<BlockMajor>>,
}

impl CompiledSchedule {
    /// Lowers `schedule`, cut into `chunks` pipeline segments, into execution
    /// form. The one lowering loop: every chunk a `segment::ChunkPlan`
    /// yields is interned as it is cut — no segmented [`Schedule`] in
    /// between.
    ///
    /// # Panics
    /// Panics if `chunks == 0`, or if a message names a rank outside the
    /// schedule's.
    pub(crate) fn compile(schedule: &Schedule, chunks: usize) -> Self {
        let p = schedule.num_ranks;
        // Sends name ranks as `u32`s.
        index_u32(p, "ranks");
        // Exact sizes, from the messages' lengths alone: what lowering
        // allocates does not depend on how finely the schedule is cut.
        let num_steps = schedule.steps.iter().map(|s| num_substeps(s, chunks));
        let num_steps: usize = num_steps.sum();
        let num_sends = schedule.messages().map(|(_, m)| parts(m, chunks)).sum();
        let payloads = schedule.messages().map(|(_, m)| m.blocks.len()).sum();
        let mut blocks = BlockInterner::new(p);
        let mut sends: Vec<CompiledSend> = Vec::with_capacity(num_sends);
        let mut block_indices: Vec<u32> = Vec::with_capacity(payloads);
        let mut step_offsets: Vec<u32> = Vec::with_capacity(num_steps + 1);
        let mut send_offsets: Vec<u32> = Vec::with_capacity(num_steps * (p + 1));
        let mut recv_lists: Vec<u32> = Vec::with_capacity(num_sends);
        let mut recv_offsets: Vec<u32> = Vec::with_capacity(num_steps * (p + 1));

        step_offsets.push(0);
        let mut blocks_end = 0;
        let mut reduces = false;
        for sub in ChunkPlan::new(schedule, chunks).substeps() {
            let step_base = sends.len();
            for (order, (m, chunk, segments)) in sub.enumerate() {
                reduces |= m.kind == TransferKind::Reduce;
                let blocks_start = blocks_end;
                block_indices.extend(chunk.iter().map(|b| blocks.intern(*b)));
                blocks_end = index_u32(block_indices.len(), "block payloads");
                sends.push(CompiledSend {
                    src: m.src as u32,
                    dst: m.dst as u32,
                    kind: m.kind,
                    segments,
                    blocks_start,
                    blocks_end,
                    order: order as u32,
                });
            }
            // Every send index, schedule order and CSR offset of this step is
            // at most this.
            let step_end = index_u32(sends.len(), "sends");
            let step = step_base..sends.len();
            let base = step_base as u32;

            // Group the step's sends by source, in schedule order within a
            // source: a counting placement whose positions the sends' `src`
            // fields hold until the step is permuted into them.
            let srcs = sends[step.clone()].iter().map(|s| s.src);
            let by_src = csr_row(&mut send_offsets, p, base, srcs);
            for send in &mut sends[step.clone()] {
                send.src = place(by_src, send.src);
            }
            // Receive side: per destination, in schedule order, where each
            // send will stand.
            let dsts = sends[step.clone()].iter().map(|s| s.dst);
            let by_dst = csr_row(&mut recv_offsets, p, base, dsts);
            recv_lists.resize(sends.len(), 0);
            for send in &sends[step.clone()] {
                recv_lists[place(by_dst, send.dst) as usize] = send.src;
            }
            // Each swap moves one send to its position for good, so a step
            // already listed by source moves nothing.
            for i in step {
                while sends[i].src as usize != i {
                    let to = sends[i].src as usize;
                    sends.swap(i, to);
                }
            }
            let by_src = &send_offsets[send_offsets.len() - (p + 1)..];
            for (rank, run) in by_src.windows(2).enumerate() {
                for send in &mut sends[run[0] as usize..run[1] as usize] {
                    send.src = rank as u32;
                }
            }

            step_offsets.push(step_end);
        }

        Self {
            num_ranks: p,
            collective: schedule.collective,
            root: schedule.root,
            algorithm: tuned_name(&schedule.algorithm, chunks),
            identity: NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed),
            blocks,
            sends,
            block_indices,
            step_offsets,
            send_offsets,
            recv_lists,
            recv_offsets,
            counts: schedule.counts.clone(),
            reduces,
            slots: OnceLock::new(),
            block_major: OnceLock::new(),
        }
    }

    /// A process-unique identity assigned when the schedule is lowered
    /// ([`Schedule::compile`]). Clones share the identity of their original
    /// — their contents are indistinguishable — so consumers that derive
    /// data from a compiled schedule (e.g. the route/dependency cache of
    /// `bine_net::sim`) can use it as a cache key without hashing the
    /// schedule itself.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    pub(crate) fn slots(&self) -> &Slots {
        self.slots.get_or_init(|| Box::new(Slots::derive(self)))
    }

    /// The per-rank compact slots executor state is indexed and keyed by.
    ///
    /// Derived from the compiled form on the first call and kept for the
    /// life of the handle (clones made afterwards share it). `compile`
    /// never derives it: a handle that is built, modelled or simulated but
    /// not executed does not pay for it. Shared: state keyed by the layout
    /// holds a reference of its own, and outlives the handle with it.
    pub fn slot_layout(&self) -> &Arc<SlotLayout> {
        &self.slots().layout
    }

    /// The most payloads one group of a walk in `order` stages: all those
    /// of its sends but an identity move's ([`Payloads::moves`]). Read off
    /// the groups once per order and kept, so that a run sizes its staging
    /// once.
    pub fn max_staged(&self, order: WalkOrder) -> usize {
        let staged = &self.slots().staged[order as usize];
        *staged.get_or_init(|| {
            let mut groups = Groups::default();
            self.walk(order, &mut groups);
            groups.max_staged
        })
    }

    /// Per payload entry ([`Payloads::entries`]), its slot at the sending
    /// rank and at the receiving rank, as positions in a run's slot table
    /// ([`SlotLayout::rank_slots`]).
    pub fn payload_slots(&self) -> (&[u32], &[u32]) {
        let slots = self.slots();
        (&slots.src, &slots.dst)
    }

    /// Hands `visit` every group of a run's walk in `order`, in walk order:
    /// the payloads the run gathers before it applies any of them, as one
    /// [`Payloads`] per send, in apply order — every payload entry once.
    ///
    /// Step by step, a group is a step's receives
    /// ([`CompiledSchedule::step_recvs`]). Block by block, it is one
    /// block's entries of one step, blocks ascending and each block's steps
    /// ascending, one [`Payloads`] per entry: those entries in the step
    /// order's groups filtered to the block. The first walk block by block
    /// derives that order for the life of the handle.
    pub fn walk(&self, order: WalkOrder, visit: &mut impl Visit) {
        let payloads = |step: u32, send: u32, entries: Range<usize>| {
            let of = &self.sends[send as usize];
            Payloads {
                send,
                entries,
                reduces: of.kind == TransferKind::Reduce,
                moves: !self.is_identity_move(step as usize, of),
            }
        };
        match order {
            WalkOrder::Steps => {
                for step in 0..self.num_steps() {
                    let runs = self.step_recvs(step).iter().map(|&send| {
                        let of = &self.sends[send as usize];
                        let entries = of.blocks_start as usize..of.blocks_end as usize;
                        payloads(step as u32, send, entries)
                    });
                    visit.group(step as u32, runs);
                }
            }
            WalkOrder::Blocks => {
                // A group ends where the block or the step changes.
                let key = |e: &BlockEntry| (self.block_indices[e.entry as usize], e.step);
                for group in self.block_major().chunk_by(|a, b| key(a) == key(b)) {
                    let step = group[0].step;
                    let runs = group.iter().map(|e| {
                        let at = e.entry as usize;
                        payloads(step, e.send, at..at + 1)
                    });
                    visit.group(step, runs);
                }
            }
        }
    }

    /// Whether `send`, received in `step`, is an identity move (see
    /// [`Payloads::moves`]).
    #[inline]
    fn is_identity_move(&self, step: usize, send: &CompiledSend) -> bool {
        send.kind == TransferKind::Copy
            && send.src == send.dst
            && self.recvs_to(step, send.dst as usize).len() == 1
    }

    /// The [`BlockMajor`] order: derived on the first call and kept for the
    /// life of the handle, apart from the slot layout, so that a handle only
    /// ever walked step by step does not pay for it.
    fn block_major(&self) -> &[BlockEntry] {
        let major = self.block_major.get_or_init(|| {
            // Per block, where its next entry goes. Payload counts fit a
            // `u32` (`compile`), so do their prefix sums.
            let mut next = vec![0u32; self.num_blocks() + 1];
            for &block in &self.block_indices {
                next[block as usize + 1] += 1;
            }
            for block in 0..self.num_blocks() {
                next[block + 1] += next[block];
            }
            let mut entries = vec![BlockEntry::default(); self.block_indices.len()];
            for step in 0..self.num_steps() as u32 {
                for &send in self.step_recvs(step as usize) {
                    let of = &self.sends[send as usize];
                    for entry in of.blocks_start..of.blocks_end {
                        let at = &mut next[self.block_indices[entry as usize] as usize];
                        entries[*at as usize] = BlockEntry { step, send, entry };
                        *at += 1;
                    }
                }
            }
            Box::new(BlockMajor(entries))
        });
        &major.0
    }

    /// Where a run in `order` from the contract's entry keeps every sum (see
    /// [`crate::plan`]). Derived on the first call for each order and kept,
    /// like [`CompiledSchedule::max_staged`].
    pub fn memory_plan(&self, order: WalkOrder) -> &MemoryPlan {
        let plan = &self.slots().plans[order as usize];
        plan.get_or_init(|| Box::new(MemoryPlan::of_contract(self, order)))
    }

    /// Whether any send reduces into its receiver's block
    /// ([`TransferKind::Reduce`]); a schedule without one only moves payloads.
    pub fn reduces(&self) -> bool {
        self.reduces
    }

    /// Number of synchronous steps.
    pub fn num_steps(&self) -> usize {
        self.step_offsets.len() - 1
    }

    /// The dense block interning.
    pub fn blocks(&self) -> &BlockInterner {
        &self.blocks
    }

    /// Irregular per-rank counts, if the originating schedule had any.
    pub fn counts(&self) -> Option<&Counts> {
        self.counts.as_ref()
    }

    /// Size of block `b` in bytes for vector size `n`, honouring the
    /// irregular per-rank counts when present (the compiled-side twin of
    /// [`Schedule::block_bytes`]).
    pub fn block_bytes(&self, b: BlockId, n: u64) -> u64 {
        match (&self.counts, b) {
            (Some(c), BlockId::Segment(i)) => c.segment_bytes(i, n),
            _ => b.bytes(n, self.num_ranks),
        }
    }

    /// Bytes the send with global index `index` carries at vector size `n`:
    /// the sizes of its blocks, summed.
    pub fn send_bytes(&self, index: usize, n: u64) -> u64 {
        let blocks = self.block_index_slice(&self.sends[index]).iter();
        blocks
            .map(|&b| self.block_bytes(self.blocks.resolve(b), n))
            .sum()
    }

    /// Number of payload entries: the blocks of all sends together.
    pub fn num_payloads(&self) -> usize {
        self.block_indices.len()
    }

    /// Number of distinct blocks referenced anywhere in the schedule.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of sends over all steps.
    pub fn num_sends(&self) -> usize {
        self.sends.len()
    }

    /// All sends of one step, sorted by source rank.
    pub fn step_sends(&self, step: usize) -> &[CompiledSend] {
        let lo = self.step_offsets[step] as usize;
        let hi = self.step_offsets[step + 1] as usize;
        &self.sends[lo..hi]
    }

    /// The range of global send indices belonging to `step`.
    pub fn step_send_range(&self, step: usize) -> Range<usize> {
        self.step_offsets[step] as usize..self.step_offsets[step + 1] as usize
    }

    /// The send with global index `index`.
    pub fn send(&self, index: usize) -> &CompiledSend {
        &self.sends[index]
    }

    /// The sends issued by `rank` in `step` (pre-resolved; no scan).
    pub fn sends_from(&self, step: usize, rank: usize) -> &[CompiledSend] {
        let row = step * (self.num_ranks + 1) + rank;
        let lo = self.send_offsets[row] as usize;
        let hi = self.send_offsets[row + 1] as usize;
        &self.sends[lo..hi]
    }

    /// The global send indices of [`CompiledSchedule::sends_from`], in the
    /// order the rank's single send port issues them.
    pub(crate) fn send_range_from(&self, step: usize, rank: usize) -> Range<usize> {
        let row = step * (self.num_ranks + 1) + rank;
        self.send_offsets[row] as usize..self.send_offsets[row + 1] as usize
    }

    /// Global send indices targeting `rank` in `step`, in schedule order —
    /// the exact order the reference interpreter applies payloads in.
    /// Inline: a walk asks it per send, and block by block per payload
    /// ([`Payloads::moves`]).
    #[inline]
    pub fn recvs_to(&self, step: usize, rank: usize) -> &[u32] {
        let row = step * (self.num_ranks + 1) + rank;
        let lo = self.recv_offsets[row] as usize;
        let hi = self.recv_offsets[row + 1] as usize;
        &self.recv_lists[lo..hi]
    }

    /// Global send indices of every receive of `step`, grouped by ascending
    /// destination rank and in schedule order within a rank: the
    /// concatenation of [`CompiledSchedule::recvs_to`] over all ranks,
    /// without a visit to the ranks that receive nothing.
    pub fn step_recvs(&self, step: usize) -> &[u32] {
        let row = step * (self.num_ranks + 1);
        let lo = self.recv_offsets[row] as usize;
        let hi = self.recv_offsets[row + self.num_ranks] as usize;
        &self.recv_lists[lo..hi]
    }

    /// The dense block indices carried by `send`.
    pub fn block_index_slice(&self, send: &CompiledSend) -> &[u32] {
        &self.block_indices[send.blocks_start as usize..send.blocks_end as usize]
    }

    /// The block payload entry `entry` ([`Payloads::entries`]) carries.
    pub fn payload_block(&self, entry: usize) -> BlockId {
        self.blocks.resolve(self.block_indices[entry])
    }
}

impl Schedule {
    /// Lowers this schedule into execution form (see [`CompiledSchedule`]).
    pub fn compile(&self) -> CompiledSchedule {
        CompiledSchedule::compile(self, 1)
    }

    /// Lowers this schedule, split into `chunks` pipeline segments, into
    /// execution form: what `self.segmented(chunks).compile()` returns, field
    /// for field, without building the segmented [`Schedule`] (see
    /// [`crate::segment`] for the transform).
    ///
    /// # Panics
    /// Panics if `chunks == 0`.
    pub fn compile_segmented(&self, chunks: usize) -> CompiledSchedule {
        CompiledSchedule::compile(self, chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Source;
    use crate::collectives::{
        allreduce, alltoall, broadcast, AllreduceAlg, AlltoallAlg, BroadcastAlg,
    };
    use crate::schedule::{MessageRef, Step};

    fn schedules_under_test() -> Vec<Schedule> {
        vec![
            broadcast(16, 3, BroadcastAlg::BineTree),
            broadcast(16, 0, BroadcastAlg::BineScatterAllgather),
            allreduce(32, AllreduceAlg::BineLarge),
            allreduce(32, AllreduceAlg::Ring),
            alltoall(8, AlltoallAlg::Bine),
        ]
    }

    #[test]
    fn interner_is_a_bijection_in_first_appearance_order() {
        let mut interner = BlockInterner::new(8);
        assert_eq!(interner.intern(BlockId::Full), 0);
        assert_eq!(interner.intern(BlockId::Segment(4)), 1);
        assert_eq!(interner.intern(BlockId::Full), 0);
        assert_eq!(interner.index_of(&BlockId::Segment(4)), Some(1));
        assert_eq!(interner.index_of(&BlockId::Segment(5)), None);
        assert_eq!(interner.resolve(1), BlockId::Segment(4));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    #[should_panic(expected = "pairwise cells overflow a usize")]
    fn an_interner_whose_cell_addresses_would_wrap_is_refused() {
        BlockInterner::new(usize::MAX);
    }

    #[test]
    fn ids_outside_the_rank_range_are_interned_apart_and_reported_typed() {
        // `Pairwise { 0, 4 }` has the cell `0·4 + 4` of `Pairwise { 1, 0 }`:
        // only the range check keeps the two apart.
        let p = 4;
        let strays = [
            BlockId::Segment(u32::MAX),
            BlockId::Pairwise { origin: 4, dest: 0 },
            BlockId::Pairwise { origin: 0, dest: 4 },
        ];
        let in_range = BlockId::Pairwise { origin: 1, dest: 0 };
        let mut sched = Schedule::new(p, Collective::Alltoall, "strays", 0);
        for blocks in [vec![strays[0], in_range], strays.to_vec(), vec![in_range]] {
            let mut step = Step::new();
            step.push_with_segments(0, 1, blocks, TransferKind::Copy, 1);
            sched.push_step(step);
        }
        let compiled = sched.compile();
        let blocks = compiled.blocks();
        let first_seen = [strays[0], in_range, strays[1], strays[2]];
        assert_eq!(blocks.len(), first_seen.len());
        for (want, id) in first_seen.iter().enumerate() {
            assert_eq!(blocks.index_of(id), Some(want as u32), "{id:?}");
            assert_eq!(blocks.resolve(want as u32), *id);
        }
        assert_eq!(blocks.index_of(&BlockId::Segment(u32::MAX - 1)), None);
        let first_stray = crate::ValidationError::BlockOutOfRange { block: strays[0] };
        assert_eq!(sched.validate(), Err(first_stray));
    }

    #[test]
    fn index_of_knows_only_the_ids_a_schedule_references() {
        let segments = allreduce(8, AllreduceAlg::BineLarge).compile();
        let pairwise = alltoall(8, AlltoallAlg::Bine).compile();
        let never = [
            (&segments, BlockId::Segment(77)),
            (&segments, BlockId::Full),
            (&segments, BlockId::Pairwise { origin: 0, dest: 1 }),
            (&pairwise, BlockId::Segment(0)),
            (&pairwise, BlockId::Full),
        ];
        for (compiled, id) in never {
            assert_eq!(compiled.blocks().index_of(&id), None, "{id:?}");
        }
        assert!(segments.blocks().index_of(&BlockId::Segment(7)).is_some());
    }

    #[test]
    fn interning_is_dense_in_first_appearance_order_over_the_walk() {
        // Rank counts 1, 2 and 3 included: the table sizes' boundary.
        let mut checked = 0;
        let walk = crate::walk(&[1, 2, 3, 5, 16, 64]).into_iter();
        for request in walk.filter(|r| !r.repeats_root_zero()) {
            let Some(sched) = request.build() else {
                continue;
            };
            let compiled = sched.compile();
            let blocks = compiled.blocks();
            let mut next = 0;
            for id in sched.messages().flat_map(|(_, m)| m.blocks) {
                let index = blocks.index_of(id).expect("interned");
                assert_eq!(blocks.resolve(index), *id, "{}", request.label());
                // An index is either one already met or the next one.
                assert!(index <= next, "{} {id:?}", request.label());
                next += u32::from(index == next);
            }
            assert_eq!(next as usize, blocks.len(), "{}", request.label());
            checked += 1;
        }
        assert!(checked > 2000, "only {checked} schedules checked");
    }

    #[test]
    fn compiled_sends_cover_every_message_block_exactly_once() {
        for sched in schedules_under_test() {
            let compiled = sched.compile();
            assert_eq!(compiled.num_steps(), sched.num_steps());
            for (step_idx, step) in sched.steps.iter().enumerate() {
                let total_blocks: usize = step.messages().map(|m| m.blocks.len()).sum();
                let compiled_blocks: usize = compiled
                    .step_sends(step_idx)
                    .iter()
                    .map(|s| s.num_blocks())
                    .sum();
                assert_eq!(
                    compiled_blocks, total_blocks,
                    "{} step {step_idx}",
                    sched.algorithm
                );
            }
        }
    }

    #[test]
    fn per_rank_send_lists_match_a_message_scan() {
        for sched in schedules_under_test() {
            let compiled = sched.compile();
            for (step_idx, step) in sched.steps.iter().enumerate() {
                for rank in 0..sched.num_ranks {
                    let scanned: Vec<MessageRef> =
                        step.messages().filter(|m| m.src == rank).collect();
                    let resolved = compiled.sends_from(step_idx, rank);
                    assert_eq!(resolved.len(), scanned.len());
                    for (send, msg) in resolved.iter().zip(&scanned) {
                        assert_eq!(send.dst as usize, msg.dst);
                        assert_eq!(send.kind, msg.kind);
                        let blocks: Vec<BlockId> = compiled
                            .block_index_slice(send)
                            .iter()
                            .map(|&i| compiled.blocks().resolve(i))
                            .collect();
                        assert_eq!(blocks, msg.blocks);
                    }
                }
            }
        }
    }

    #[test]
    fn recv_lists_preserve_schedule_order_per_destination() {
        for sched in schedules_under_test() {
            let compiled = sched.compile();
            let p = sched.num_ranks;
            for (step_idx, step) in sched.steps.iter().enumerate() {
                // The whole step is the concatenation of the per-rank lists.
                let one_by_one: Vec<u32> = (0..p)
                    .flat_map(|rank| compiled.recvs_to(step_idx, rank))
                    .copied()
                    .collect();
                assert_eq!(compiled.step_recvs(step_idx), one_by_one);
                for rank in 0..sched.num_ranks {
                    let scanned: Vec<MessageRef> =
                        step.messages().filter(|m| m.dst == rank).collect();
                    let resolved = compiled.recvs_to(step_idx, rank);
                    assert_eq!(resolved.len(), scanned.len());
                    let mut last_order = None;
                    for (&send_idx, msg) in resolved.iter().zip(&scanned) {
                        let send = compiled.send(send_idx as usize);
                        assert_eq!(send.src as usize, msg.src);
                        assert!(last_order < Some(send.order), "schedule order violated");
                        last_order = Some(send.order);
                    }
                }
            }
        }
    }

    #[test]
    fn index_u32_accepts_the_boundary_and_rejects_what_an_as_cast_would_wrap() {
        assert_eq!(index_u32(0, "things"), 0);
        assert_eq!(index_u32(u32::MAX as usize, "things"), u32::MAX);
        let overflow = std::panic::catch_unwind(|| index_u32(u32::MAX as usize + 1, "things"));
        let message = *overflow
            .expect_err("u32::MAX + 1 must not wrap to 0")
            .downcast::<String>()
            .expect("string panic");
        assert_eq!(message, "more than u32::MAX things");
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX ranks")]
    fn compile_refuses_more_ranks_than_its_sends_can_name() {
        let ranks = u32::MAX as usize + 1;
        Schedule::new(ranks, Collective::Allgather, "too wide", 0).compile();
    }

    /// Checks every [`SlotLayout`] invariant of `sched`'s compiled form
    /// against the symbolic schedule; returns the per-rank slot counts.
    fn check_slot_layout(sched: &Schedule) -> Vec<usize> {
        let compiled = sched.compile();
        let layout = compiled.slot_layout();
        let what = format!(
            "{:?}/{} p={}",
            sched.collective, sched.algorithm, sched.num_ranks
        );
        // A rank's slots are exactly the distinct blocks it sends or
        // receives, in ascending interned order; `moved[rank]` counts those
        // blocks with repetition.
        let mut moved = vec![0usize; sched.num_ranks];
        let mut touched = vec![std::collections::BTreeSet::new(); sched.num_ranks];
        for (_, m) in sched.messages() {
            for b in m.blocks {
                let block = compiled.blocks().index_of(b).expect("interned");
                for rank in [m.src, m.dst] {
                    moved[rank] += 1;
                    touched[rank].insert(block);
                }
            }
        }
        for (rank, want) in touched.iter().enumerate() {
            let want: Vec<u32> = want.iter().copied().collect();
            assert_eq!(layout.rank_blocks(rank), want, "{what} rank {rank}");
            for (slot, &block) in want.iter().enumerate() {
                let id = compiled.blocks().resolve(block);
                assert_eq!(*layout.block_at(rank, slot), id, "{what} rank {rank}");
                assert_eq!(layout.blocks().index_of(&id), Some(block), "{what}");
            }
            // Every block, touched or not, and two past the interned range.
            for block in 0..compiled.num_blocks() as u32 + 2 {
                let slot = want.binary_search(&block).ok();
                let found = layout.local_slot(rank, block);
                assert_eq!(found, slot, "{what} rank {rank} block {block}");
            }
            // The O(touched) pin: never more slots than blocks moved.
            assert!(want.len() <= moved[rank], "{what} rank {rank}");
        }
        // The ranks' slots tile the slot table in rank order.
        let rows = (0..sched.num_ranks).map(|rank| layout.rank_slots(rank));
        let ends: Vec<_> = rows.flat_map(|row| [row.start, row.end]).collect();
        assert!(ends.windows(2).all(|w| w[0] <= w[1]), "{what}");
        assert_eq!(ends.first(), Some(&0), "{what}");
        assert_eq!(ends.last(), Some(&layout.num_slots()), "{what}");
        // Every payload's slots lie in its ranks' rows and resolve back to
        // its interned index.
        let in_row = |rank: u32, at: u32| {
            let row = layout.rank_slots(rank as usize);
            assert!(row.contains(&(at as usize)), "{what} rank {rank}");
            layout.rank_blocks(rank as usize)[at as usize - row.start]
        };
        let slots = compiled.slots();
        for step in 0..compiled.num_steps() {
            for send in compiled.step_sends(step) {
                for e in send.blocks_start as usize..send.blocks_end as usize {
                    let block = compiled.block_indices[e];
                    assert_eq!(in_row(send.src, slots.src[e]), block, "{what}");
                    assert_eq!(in_row(send.dst, slots.dst[e]), block, "{what}");
                }
            }
        }
        (0..sched.num_ranks)
            .map(|rank| layout.rank_blocks(rank).len())
            .collect()
    }

    #[test]
    fn slot_layout_holds_for_every_catalog_algorithm() {
        // The layout is claimed for whatever builds: every regular and
        // synthesized name of the walk, bare, at the first root.
        let irregular = |r: &crate::Request| matches!(r.source, Source::Irregular(..));
        let bare = |r: &crate::Request| r.root == 0 && r.segments == 1 && !irregular(r);
        let mut checked = 0;
        for request in crate::walk(&[1, 2, 3, 15, 16, 64]).into_iter().filter(bare) {
            if let Some(sched) = request.build() {
                check_slot_layout(&sched);
                checked += 1;
            }
        }
        assert!(checked > 150, "only {checked} layouts checked");
    }

    #[test]
    fn slot_layout_holds_for_the_irregular_builders() {
        // Every v-variant under every distribution, bare and segmented, at
        // the first root and an interior one.
        let mut checked = 0;
        for request in crate::walk(&[16, 64]) {
            let irregular = matches!(request.source, Source::Irregular(..));
            if !irregular || ![0, request.p / 3].contains(&request.root) {
                continue;
            }
            let sched = request
                .build()
                .unwrap_or_else(|| panic!("{}", request.label()));
            check_slot_layout(&sched);
            checked += 1;
        }
        assert_eq!(checked, 10 * 3 * 2 * 2 * 3);
    }

    #[test]
    fn bine_alltoall_ranks_get_far_fewer_slots_than_interned_blocks() {
        // p/2 blocks out and p/2 in per step for log2 p steps: a rank
        // touches O(p log p) of the p² pairwise blocks.
        let p = 64;
        let sched = alltoall(p, AlltoallAlg::Bine);
        assert!(sched.compile().num_blocks() > p * p / 2);
        for (rank, slots) in check_slot_layout(&sched).into_iter().enumerate() {
            assert!(slots < p * p / 4, "rank {rank} has {slots} slots");
        }
    }

    #[test]
    fn the_bucket_index_answers_as_a_search_of_the_row() {
        // Clustered rows (about 290 runs in a Bine alltoall's 1 279 slots at
        // p = 256), spread ones (a pairwise alltoall's 2p − 1 of p²), and a
        // row that is one long run plus isolated blocks, two of them in one
        // bucket with a gap between.
        let p = 64;
        let pairwise = |i: u32| BlockId::Pairwise {
            origin: i / p as u32,
            dest: i % p as u32,
        };
        let mut hand_built = Schedule::new(p, Collective::Alltoall, "run-and-isolated", 0);
        let mut step = Step::new();
        // Interned in order: block `i` is interned index `i`.
        step.push_with_segments(1, 2, (0..4096).map(pairwise), TransferKind::Copy, 1);
        let isolated = [5, 7, 1100, 1102, 1500, 3000, 4095];
        let blocks = (101..1099).chain(isolated).map(pairwise);
        step.push_with_segments(0, 3, blocks, TransferKind::Copy, 1);
        hand_built.push_step(step);
        // Bucketed: every alltoall row, which holds some but not all blocks;
        // of the hand-built rows, ranks 0 and 3 — ranks 1 and 2 hold every
        // block and the rest none, as every row of an allreduce holds all.
        let cases = [
            (alltoall(256, AlltoallAlg::Bine), 256),
            (alltoall(64, AlltoallAlg::Pairwise), 64),
            (hand_built, 2),
            (allreduce(16, AllreduceAlg::BineLarge), 0),
        ];
        for (sched, bucketed) in &cases {
            check_slot_layout(sched);
            let layout = Arc::clone(sched.compile().slot_layout());
            let rows = |rank: usize| layout.bucket_offsets[rank]..layout.bucket_offsets[rank + 1];
            let indexed = (0..sched.num_ranks).filter(|&rank| !rows(rank).is_empty());
            assert_eq!(indexed.count(), *bucketed, "{}", sched.algorithm);
        }
    }

    #[test]
    fn compile_does_not_derive_the_slot_layout() {
        let compiled = allreduce(8, AllreduceAlg::BineLarge).compile();
        assert!(compiled.slots.get().is_none());
        let derived = Arc::clone(compiled.slot_layout());
        assert!(
            Arc::ptr_eq(&derived, compiled.slot_layout()),
            "derived once"
        );
        // A clone of the handle shares the table: state keyed under one is
        // keyed under the other.
        assert!(Arc::ptr_eq(&derived, compiled.clone().slot_layout()));
        // Who holds the table holds it alone once the handles are gone.
        drop(compiled);
        assert_eq!(Arc::strong_count(&derived), 1);
    }

    #[test]
    fn neither_compile_nor_the_slot_layout_derives_the_block_major_order() {
        let compiled = allreduce(8, AllreduceAlg::BineLarge).compile();
        compiled.slot_layout();
        compiled.max_staged(WalkOrder::Steps);
        assert!(compiled.block_major.get().is_none());
        let derived: *const [BlockEntry] = compiled.block_major();
        assert!(
            std::ptr::eq(derived, compiled.block_major()),
            "derived once"
        );
        assert!(compiled.clone().block_major.get().is_some());
    }

    /// One payload entry of a walk's group: `(entry, send, reduces,
    /// moves)`.
    type Visited = (usize, u32, bool, bool);

    /// Every group of a walk, in walk order, with its step.
    #[derive(Default)]
    struct Collect(Vec<(u32, Vec<Visited>)>);

    impl Visit for Collect {
        fn group(&mut self, step: u32, runs: impl Iterator<Item = Payloads> + Clone) {
            let again: Vec<_> = runs.clone().map(|run| (run.send, run.entries)).collect();
            let mut group = Vec::new();
            for (run, same) in runs.zip(&again) {
                assert_eq!((run.send, &run.entries), (same.0, &same.1));
                for e in run.entries {
                    group.push((e, run.send, run.reduces, run.moves));
                }
            }
            self.0.push((step, group));
        }
    }

    #[test]
    fn both_orders_walk_every_payload_once_in_the_same_groups() {
        use WalkOrder::{Blocks, Steps};
        let mut walked = 0;
        for request in crate::walk(&[1, 2, 3, 16]) {
            let Some(sched) = request.build() else {
                continue;
            };
            let what = request.label();
            let compiled = sched.compile();
            let [by_step, by_block] = [Steps, Blocks].map(|order| {
                let mut groups = Collect::default();
                compiled.walk(order, &mut groups);
                groups.0
            });
            for (order, groups) in [(Steps, &by_step), (Blocks, &by_block)] {
                // Every payload entry once, each under its own send.
                let mut seen = vec![0; compiled.num_payloads()];
                for (step, group) in groups {
                    for &(e, send, reduces, moves) in group {
                        seen[e] += 1;
                        let of = compiled.send(send as usize);
                        let sends = compiled.step_send_range(*step as usize);
                        assert!(sends.contains(&(send as usize)), "{what}");
                        assert!((of.blocks_start..of.blocks_end).contains(&(e as u32)));
                        assert_eq!(reduces, of.kind == TransferKind::Reduce, "{what}");
                        // Only an identity move does not move: a copy onto
                        // itself as its rank's only receive of the step.
                        let only = compiled.recvs_to(*step as usize, of.dst as usize).len() == 1;
                        let identity = of.kind == TransferKind::Copy && of.is_local() && only;
                        assert_eq!(moves, !identity, "{what} {order:?} entry {e}");
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "{what} {order:?}");
                // The staging bound is the group that stages the most.
                let staged = groups.iter().map(|(_, g)| g.iter().filter(|v| v.3).count());
                let max = staged.max().unwrap_or(0);
                assert_eq!(compiled.max_staged(order), max, "{what} {order:?}");
            }
            // Block `b`'s groups are the step order's groups (receive order:
            // step, destination rank, schedule order) filtered to `b`.
            let block_of = |e: usize| compiled.block_indices[e];
            let filtered = (0..compiled.num_blocks() as u32).flat_map(|b| {
                by_step.iter().filter_map(move |(step, group)| {
                    let of_b = group.iter().filter(move |v| block_of(v.0) == b);
                    let of_b: Vec<_> = of_b.copied().collect();
                    (!of_b.is_empty()).then_some((*step, of_b))
                })
            });
            assert_eq!(filtered.collect::<Vec<_>>(), by_block, "{what}");
            walked += 1;
        }
        assert!(walked > 900, "only {walked} schedules walked");
    }

    #[test]
    fn only_schedules_with_a_reduce_send_say_they_reduce() {
        assert!(allreduce(8, AllreduceAlg::BineLarge).compile().reduces());
        assert!(allreduce(8, AllreduceAlg::Ring)
            .compile_segmented(3)
            .reduces());
        assert!(!broadcast(8, 0, BroadcastAlg::BineTree).compile().reduces());
        assert!(!alltoall(8, AlltoallAlg::Bine).compile().reduces());
    }

    #[test]
    fn identities_are_unique_per_compile_and_shared_by_clones() {
        let sched = allreduce(8, AllreduceAlg::RecursiveDoubling);
        let a = sched.compile();
        let b = sched.compile();
        assert_ne!(a.identity(), b.identity());
        assert_eq!(a.identity(), a.clone().identity());
    }

    #[test]
    fn interning_is_dense_over_referenced_blocks() {
        let sched = allreduce(64, AllreduceAlg::BineLarge);
        let compiled = sched.compile();
        // A segment-based allreduce references exactly the p segments.
        assert_eq!(compiled.num_blocks(), 64);
        let mut seen = vec![false; compiled.num_blocks()];
        for (idx, _) in compiled.blocks().iter() {
            seen[idx as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
