//! Per-rank data state and deterministic workloads.
//!
//! The executors in this crate interpret a [`bine_sched::Schedule`] over real
//! floating-point data: every rank owns a [`BlockStore`] mapping block
//! identifiers to value vectors, messages move (or reduce) those vectors, and
//! the final states are checked against analytically computed expectations.
//! This is the substitute for running the collectives on a real MPI cluster:
//! the data semantics of every algorithm are exercised end to end.
//!
//! One store type serves both ends of an execution. What a caller builds is
//! a map; what the dense executors run on, and return, is the same store
//! reading its rank's row of the run's one slot table, under the compiled
//! schedule's key table (see [`BlockStore`]) — so leaving dense form
//! re-hashes nothing, and the only re-keying of a request is
//! [`crate::compiled::to_dense`]'s, of input that is not under the handle's
//! table yet.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

use bine_sched::{
    BlockId, BlockMap, Collective, CompiledSchedule, Contract, Counts, Granularity, Schedule,
    SlotLayout,
};

/// A caller's payload: a shared, immutable-until-owned vector.
///
/// What a caller inserts and what [`BlockStore::into_blocks`] hands back.
/// Stores, their clones and the executors share it rather than deep-copy
/// it, and nothing writes it while anyone else holds it (copy-on-write). The
/// sums a run computes belong to the run's payload table instead.
pub type Block = Arc<Vec<f64>>;

/// The handle of a slot that holds nothing.
pub(crate) const NOT_HELD: u32 = u32::MAX;

/// Longest sum, in elements, a run packs into its payload table's chunks
/// (2 KiB of `f64`s); a longer one gets a buffer of its own.
///
/// A packed sum costs no allocation of its own. The crossover, measured
/// before freed room was reused and while a long sum was an
/// `Arc<Vec<f64>>`, as every sum packed ÷ none, `ExecutorPool::run` + drop
/// of the finals over inputs the caller still holds, one confined vCPU
/// (4 MiB L2), best of three alternating lower quartiles of 25 runs;
/// reduce-scatter `bine-permute` / allreduce `bine-large`:
///
/// | sum | p = 16 | p = 64 | p = 256 |
/// |---|---|---|---|
/// | 1 | 0.65 / 0.67 | 0.51 / 0.61 | 0.42 / 0.46 |
/// | 16 | 0.66 / 0.70 | 0.66 / 0.70 | 0.51 / 0.53 |
/// | 64 | 0.73 / 0.71 | 1.04 / 0.61 | 0.70 / 0.70 |
/// | 128 | 0.76 / 0.90 | 1.24 / 1.28 | 0.78 / 0.76 |
/// | 256 | 0.85 / 0.83 | 0.71 / 0.78 | 0.79 / 0.71 |
/// | 512 | 1.04 / 1.04 | 1.05 / 1.11 | not run |
///
/// Allreduce `bine-small`, whose every step supersedes each rank's one
/// `Full` sum, lost more then: 1.77–4.54 at sums of 512–2048 elements. So
/// packing stops at 256.
const PACK_MAX_ELEMS: usize = 256;

/// Elements per chunk of packed sums (32 KiB of `f64`s).
///
/// A run allocates a chunk at its first short sum and another whenever the
/// last one is full and no freed place of the sum's length is kept: 16
/// chunks for the 65 536 one-element sums of a reduce-scatter at p = 256.
/// The same runs as for [`PACK_MAX_ELEMS`] (before reuse), at sums of
/// 1–256 elements, with 1024- and 16 384-element chunks ÷ this size:
/// 0.56–0.80 at p = 16 (the allocator hands a 32 KiB chunk back to the
/// system after every run there, about 12 µs a run), 0.74–1.34 and
/// 0.87–1.14 at p = 64, 0.85–1.25 and 0.87–1.62 at p = 256 (1.25 and 1.62
/// at one element). The 256-rank requests are most of `serve-latency`'s
/// round: one 3 s run each gave 3.81 / 3.63 / 4.17 `round_pu` and 6654 /
/// 6138 / 6005 allocations per round, before freed places were reused and
/// before a run's slots were one table.
const CHUNK_ELEMS: usize = 4096;

const _: () = assert!(PACK_MAX_ELEMS <= CHUNK_ELEMS);

/// Where a packed sum lives: element `at % CHUNK_ELEMS` of chunk
/// `at / CHUNK_ELEMS` and the `len` after it.
#[derive(Clone, Copy, Default)]
struct Place {
    at: u32,
    len: u32,
}

impl Place {
    /// The chunk and the range of it.
    fn locate(self) -> (usize, Range<usize>) {
        let (at, len) = (self.at as usize, self.len as usize);
        let start = at % CHUNK_ELEMS;
        (at / CHUNK_ELEMS, start..start + len)
    }
}

/// A sum longer than `PACK_MAX_ELEMS` and its holders — or, once it is
/// freed, the next freed long sum: its buffer is room for the next sum.
#[derive(Clone, Default)]
struct Long {
    sum: Box<[f64]>,
    holders: u32,
}

/// The slots and payloads of one run, which its per-rank stores share
/// behind one `Arc`: every rank's slots in one table, rank after rank, each
/// a handle of a payload, so a transfer copies an integer and dropping the
/// finals drops each payload once, however many ranks hold it.
///
/// A handle names a caller's [`Block`], freed when its last holder lets
/// go, or a sum of the run's, packed into one of the table's chunks or a
/// [`Long`] one. A walk writes the table through a [`WalkTable`].
#[derive(Clone)]
pub(crate) struct PayloadTable {
    /// The key table the run's stores are held under.
    layout: Arc<SlotLayout>,
    /// The run's slot table: rank `r`'s local slot `i` at
    /// `layout.rank_slots(r).start + i`, holding a handle or `NOT_HELD`.
    /// Sized once, to the layout's slots; what the walks index.
    slots: Box<[u32]>,
    /// `blocks[h]` is the payload of handle `h` if it is a `Block`; `None`
    /// if it is packed or freed.
    blocks: Vec<Option<Block>>,
    /// `holders[h]`: how many slots and staged entries of the run hold
    /// handle `h` — or, once it is freed, the next freed handle: the free
    /// list is threaded through the table.
    holders: Vec<u32>,
    /// The first freed handle, `NOT_HELD` if there is none.
    free: u32,
    /// The first freed long sum, `NOT_HELD` if there is none.
    free_long: u32,
    /// `packed[h]`: where the packed sum of handle `h` lives, if that is
    /// what it holds. Empty until the run's first short sum, so a run that
    /// packs nothing allocates nothing for it.
    packed: Vec<Place>,
    /// The chunks short sums are appended to, `CHUNK_ELEMS` each; the last
    /// one is being filled.
    chunks: Vec<Vec<f64>>,
    /// The long sums: sum `i` is handle `!(i + 1)`, counting down from
    /// `NOT_HELD` where the others count up from 0 (`add` and `push_long`
    /// check that the two never meet).
    long: Vec<Long>,
}

impl PayloadTable {
    /// A table under `layout` of `slots` empty slots — a run's has the
    /// layout's, a placeholder none — and room for `capacity` payloads.
    fn new(layout: &Arc<SlotLayout>, slots: usize, capacity: usize) -> Self {
        Self {
            layout: Arc::clone(layout),
            slots: vec![NOT_HELD; slots].into(),
            blocks: Vec::with_capacity(capacity),
            holders: Vec::with_capacity(capacity),
            free: NOT_HELD,
            free_long: NOT_HELD,
            packed: Vec::new(),
            chunks: Vec::new(),
            long: Vec::new(),
        }
    }

    /// Rank `rank`'s slots.
    fn row(&self, rank: usize) -> &[u32] {
        &self.slots[self.layout.rank_slots(rank)]
    }

    /// The blocks rank `rank`'s slots hold, by id.
    fn held_in(&self, rank: usize) -> impl Iterator<Item = (&BlockId, u32)> {
        let row = self.row(rank).iter().enumerate();
        let held = row.filter(|&(_, &h)| h != NOT_HELD);
        held.map(move |(slot, &h)| (self.layout.block_at(rank, slot), h))
    }

    /// The payload of a held handle.
    fn get(&self, handle: u32) -> &[f64] {
        let Some(payload) = self.blocks.get(handle as usize) else {
            return long_sum(&self.long, handle);
        };
        match payload {
            Some(block) => block,
            None => {
                let (chunk, range) = self.packed[handle as usize].locate();
                &self.chunks[chunk][range]
            }
        }
    }

    /// The payload of a held handle as a caller's [`Block`]: the one the
    /// table holds, shared, or a copy of a sum.
    fn shared(&self, handle: u32) -> Block {
        let block = self.blocks.get(handle as usize).and_then(Option::clone);
        block.unwrap_or_else(|| Arc::new(self.get(handle).to_vec()))
    }

    /// How many slots and staged entries hold `handle`.
    fn holders_of(&mut self, handle: u32) -> &mut u32 {
        match self.holders.get_mut(handle as usize) {
            Some(holders) => holders,
            None => long_holders(&mut self.long, handle),
        }
    }

    /// A handle for `payload` — `None` for a sum about to be packed — with
    /// one holder: a freed one if there is one, a new one otherwise.
    fn add(&mut self, payload: Option<Block>) -> u32 {
        if self.free == NOT_HELD {
            let handle = self.blocks.len();
            let handles = handle + self.long.len();
            assert!(handles < NOT_HELD as usize, "more payloads than handles");
            self.blocks.push(payload);
            self.holders.push(1);
            return handle as u32;
        }
        let handle = self.free;
        let h = handle as usize;
        self.free = self.holders[h];
        (self.blocks[h], self.holders[h]) = (payload, 1);
        handle
    }

    /// One holder fewer of `handle`; the last one frees the payload and
    /// returns it — `Some(None)` for a packed sum, whose place `packed`
    /// still names. A long sum's buffer stays with it, on the free list.
    fn release(&mut self, handle: u32) -> Option<Option<Block>> {
        let holders = self.holders_of(handle);
        *holders -= 1;
        if *holders != 0 {
            return None;
        }
        let h = handle as usize;
        if h >= self.blocks.len() {
            let at = !handle as usize - 1;
            self.long[at].holders = std::mem::replace(&mut self.free_long, at as u32);
            return None;
        }
        self.holders[h] = std::mem::replace(&mut self.free, handle);
        Some(self.blocks[h].take())
    }

    /// `held += value` where `held`'s payload is, if nothing outside the run
    /// holds it; `false`, and nothing written, if a caller does.
    fn add_in_place(&mut self, held: u32, value: u32) -> bool {
        let (h, v) = (held as usize, value as usize);
        let Ok(pair) = self.blocks.get_disjoint_mut([h, v]) else {
            return self.add_long_in_place(held, value);
        };
        let (chunks, packed) = (&mut self.chunks, &self.packed);
        match pair {
            [Some(existing), value] => {
                let Some(owned) = Arc::get_mut(existing) else {
                    return false;
                };
                match value {
                    Some(block) => add_assign(owned, block),
                    None => {
                        let (chunk, range) = packed[v].locate();
                        add_assign(owned, &chunks[chunk][range]);
                    }
                }
            }
            [None, Some(block)] => {
                let (chunk, range) = packed[h].locate();
                add_assign(&mut chunks[chunk][range], block);
            }
            [None, None] => {
                let (existing, value) = disjoint(chunks, packed[h], packed[v]);
                add_assign(existing, value);
            }
        }
        true
    }

    /// [`Self::add_in_place`] when one of the two is a long sum, so both
    /// are long: the one summed into is out of the table meanwhile.
    #[inline(never)]
    fn add_long_in_place(&mut self, held: u32, value: u32) -> bool {
        let Some(block) = self.blocks.get_mut(held as usize) else {
            let at = !held as usize - 1;
            let mut existing = std::mem::take(&mut self.long[at].sum);
            add_assign(&mut existing, self.get(value));
            self.long[at].sum = existing;
            return true;
        };
        let mut existing = block.take().expect("a held payload");
        let summed = Arc::get_mut(&mut existing).map(|s| add_assign(s, self.get(value)));
        self.blocks[held as usize] = Some(existing);
        summed.is_some()
    }

    /// A place of `len` elements at the end of the last chunk, or of a new
    /// chunk if the last one is full.
    fn append(&mut self, len: usize) -> Place {
        let full = |chunk: &Vec<f64>| chunk.len() + len > CHUNK_ELEMS;
        if self.chunks.last().is_none_or(full) {
            self.chunks.push(Vec::with_capacity(CHUNK_ELEMS));
        }
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last];
        let start = chunk.len();
        chunk.resize(start + len, 0.0);
        let at = u32::try_from(last * CHUNK_ELEMS + start);
        Place {
            at: at.expect("more packed elements than places"),
            len: len as u32,
        }
    }

    /// The packed room at `place`, mutably, and the payload of `handle`,
    /// which lies elsewhere.
    fn place_and_payload(&mut self, place: Place, handle: u32) -> (&mut [f64], &[f64]) {
        let payload = match self.blocks.get(handle as usize) {
            Some(Some(block)) => block.as_slice(),
            Some(None) => return disjoint(&mut self.chunks, place, self.packed[handle as usize]),
            None => &self.long[!handle as usize - 1].sum,
        };
        let (chunk, range) = place.locate();
        (&mut self.chunks[chunk][range], payload)
    }

    /// A handle for the long sum `existing + value`, with one holder: written
    /// into the first freed long sum if its buffer fits or was let go of.
    fn add_long(&mut self, existing: u32, value: u32) -> u32 {
        let len = self.get(existing).len();
        let first = self.long.get(self.free_long as usize);
        let room = first.filter(|room| room.sum.is_empty() || room.sum.len() == len);
        let at = match room.map(|room| room.holders) {
            Some(next) => std::mem::replace(&mut self.free_long, next) as usize,
            None => self.push_long(Long::default()),
        };
        // Out of the table while it is written.
        let mut out = std::mem::take(&mut self.long[at].sum);
        let operands = sums(self.get(existing), self.get(value));
        match out.len() == len {
            true => out.iter_mut().zip(operands).for_each(|(out, s)| *out = s),
            false => out = operands.collect(),
        }
        self.long[at].sum = out;
        self.long[at].holders = 1;
        !(at as u32 + 1)
    }

    /// Appends `long` to the long sums, and returns where.
    fn push_long(&mut self, long: Long) -> usize {
        self.long.push(long);
        let handles = self.blocks.len() + self.long.len();
        assert!(handles <= NOT_HELD as usize, "more payloads than handles");
        self.long.len() - 1
    }
}

/// A run's [`PayloadTable`] while a walk writes it, with the places of the
/// packed sums the walk freed: the next short sum of the same length is
/// written into one before anything is allocated, as a long one is into a
/// freed long sum's buffer ([`PayloadTable::add_long`]), which a caller's
/// long [`Block`] nobody else holds becomes when it is freed. It owns the
/// table for the walk (see [`with_table`]): behind a reference held in a
/// struct, the kernel's per-payload counts were reloaded at every use, and
/// a non-reducing all-to-all at p = 256 ran 30 % slower.
///
/// Only a run of a reducing schedule keeps room, so a run that never
/// reduces never touches it. A reduction's copies free as much as its sums
/// do (the allgather half of an allreduce replaces the partial sums of the
/// reduce-scatter half), so every release of the run feeds it. The spare
/// places live beside the table, not in it, so the table every run
/// allocates is no larger for them. They go when the walk returns or
/// unwinds, and the freed long sums' buffers are let go of then, so finals
/// keep no dead room and a spare never aliases a payload anyone holds.
pub(crate) struct WalkTable {
    table: PayloadTable,
    /// Whether freed room is kept: whether the schedule reduces.
    keeps_room: bool,
    /// The places of freed packed sums.
    spare_places: Vec<Place>,
}

impl WalkTable {
    fn new(table: PayloadTable, keeps_room: bool) -> Self {
        Self {
            table,
            keeps_room,
            spare_places: Vec::new(),
        }
    }

    /// The payload of a held handle.
    pub(crate) fn get(&self, handle: u32) -> &[f64] {
        self.table.get(handle)
    }

    /// One more holder of `handle`: a staged entry.
    pub(crate) fn hold(&mut self, handle: u32) {
        *self.table.holders_of(handle) += 1;
    }

    /// One holder fewer of `handle`; the last one frees the payload, and
    /// the walk keeps its room if the run reduces and a sum could take it.
    fn release(&mut self, handle: u32) {
        let table = &mut self.table;
        match table.release(handle).filter(|_| self.keeps_room) {
            Some(Some(block)) if block.len() > PACK_MAX_ELEMS => {
                if let Ok(owned) = Arc::try_unwrap(block) {
                    let holders = table.free_long;
                    let at = table.push_long(Long {
                        sum: owned.into(),
                        holders,
                    });
                    table.free_long = at as u32;
                }
            }
            Some(None) => self.spare_places.push(table.packed[handle as usize]),
            _ => {}
        }
    }

    /// Puts the `staged` handle into `slot`, letting go of what it held.
    pub(crate) fn replace(&mut self, slot: &mut u32, staged: u32) {
        let old = std::mem::replace(slot, staged);
        if old != NOT_HELD {
            self.release(old);
        }
    }

    /// Sums payload `staged` into the payload `slot` holds, then lets go of
    /// `staged`. Copy-on-write: in place if the slot is the payload's one
    /// holder and no caller holds it too, else into a sum of the slot's own.
    /// The caller has checked that the lengths agree.
    pub(crate) fn reduce(&mut self, slot: &mut u32, staged: u32) {
        let held = *slot;
        let shared = *self.table.holders_of(held) > 1;
        if shared || !self.table.add_in_place(held, staged) {
            *slot = self.put_sum(held, staged, shared);
        }
        self.release(staged);
    }

    /// Writes `existing + value` once, into room of its own, as the payload
    /// of a handle it returns, and lets go of `existing`, which other slots
    /// hold too if it is `shared`. A short sum goes into the place the walk
    /// kept last if it is of the sum's length, else at the last chunk's end.
    fn put_sum(&mut self, existing: u32, value: u32, shared: bool) -> u32 {
        let table = &mut self.table;
        let len = table.get(existing).len();
        if len > PACK_MAX_ELEMS {
            let handle = table.add_long(existing, value);
            self.release(existing);
            return handle;
        }
        let spare = self.spare_places.pop_if(|room| room.len as usize == len);
        let place = spare.unwrap_or_else(|| table.append(len));
        // `existing` then `+ value`: the operand order (and bits) of `sums`.
        let (out, operand) = table.place_and_payload(place, existing);
        out.copy_from_slice(operand);
        let (out, operand) = table.place_and_payload(place, value);
        add_assign(out, operand);
        // A `Block` copied on write leaves the sum its handle.
        let h = match shared {
            true => {
                *table.holders_of(existing) -= 1;
                table.add(None)
            }
            false => existing,
        };
        if table.packed.len() <= h as usize {
            table.packed.resize(table.blocks.len(), Place::default());
        }
        (table.blocks[h as usize], table.packed[h as usize]) = (None, place);
        h
    }
}

/// The sum of long handle `handle`. This and [`long_holders`] are out of
/// line: inline, they made the walks of other payloads 3–5 % slower
/// (reduce-scatter at p = 64 and 256 B, allgather at 1 MiB).
#[cold]
#[inline(never)]
fn long_sum(long: &[Long], handle: u32) -> &[f64] {
    &long[!handle as usize - 1].sum
}

/// How many slots and staged entries hold long handle `handle`.
#[cold]
#[inline(never)]
fn long_holders(long: &mut [Long], handle: u32) -> &mut u32 {
    &mut long[!handle as usize - 1].holders
}

/// The ranges `dst`, mutably, and `src` of `chunks`: two packed sums.
fn disjoint(chunks: &mut [Vec<f64>], dst: Place, src: Place) -> (&mut [f64], &[f64]) {
    let ((dc, dst), (sc, src)) = (dst.locate(), src.locate());
    if dc != sc {
        let [d, s] = chunks.get_disjoint_mut([dc, sc]).expect("two chunks");
        return (&mut d[dst], &s[src]);
    }
    // One chunk: split it where the later of the two starts.
    let chunk = &mut chunks[dc];
    if dst.start < src.start {
        let (lo, hi) = chunk.split_at_mut(src.start);
        (&mut lo[dst], &hi[..src.len()])
    } else {
        let (lo, hi) = chunk.split_at_mut(dst.start);
        (&mut hi[..dst.len()], &lo[src])
    }
}

/// `existing[i] += value[i]`: every in-place sum of the crate.
fn add_assign(existing: &mut [f64], value: &[f64]) {
    for (a, b) in existing.iter_mut().zip(value) {
        *a += b;
    }
}

/// `existing[i] + value[i]`: every sum the crate writes somewhere new — in
/// the same operand order as [`add_assign`], so either way gives the same
/// bits.
fn sums<'a>(existing: &'a [f64], value: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
    existing.iter().zip(value).map(|(a, b)| a + b)
}

/// `existing[i] += value[i]`, copy-on-write, for a payload a store's map
/// holds. The caller has checked that the lengths agree.
///
/// A payload nobody else holds is summed in place. A shared one is not
/// cloned and then summed ([`Arc::make_mut`]): the sums are built straight
/// into the new buffer — the same two allocations, the same operand order
/// and so the same bits, one pass over memory fewer.
fn reduce_into(existing: &mut Block, value: &[f64]) {
    if let Some(owned) = Arc::get_mut(existing) {
        add_assign(owned, value);
    } else {
        *existing = Arc::new(sums(existing, value).collect());
    }
}

/// The data a single rank holds: value vectors by block identifier, read as
/// `&[f64]`.
///
/// Cloning a `BlockStore` *shares* every payload, so a clone is O(blocks),
/// not O(elements). All mutation goes through [`BlockStore::insert`]
/// (replace) or [`BlockStore::reduce`] (copy-on-write), which keeps shared
/// payloads safe.
///
/// # Two forms, one behaviour
///
/// A store a caller builds holds its blocks in a map (*map form*). A store
/// an executor has run is *table-backed*: it is rank `r` of the run, and
/// reads row `r` of the run's slot table — under the [`SlotLayout`] of the
/// compiled handle, which names the block behind every local slot of every
/// rank — plus a map for the blocks the row has no slot for (what the rank
/// holds and the schedule never moves, what a caller inserts later). Every
/// method answers the same in both forms, and two stores are equal when
/// they hold the same blocks with the same values, whichever form either is
/// in. What differs is the cost: by-id access to a table-backed block goes
/// through the key table (`BlockId` → interned index → slot),
/// [`BlockStore::len`] and [`BlockStore::is_empty`] count the occupied
/// slots of the row, and handing finals back to the handle that produced
/// them ([`crate::compiled::to_dense`]) is free.
///
/// The ranks of a run share its slot and payload table (an `Arc`, with the
/// key table in it), so finals keep the whole run's payloads alive for as
/// long as any of them is held, plus the interned ids and the slot table —
/// nothing else of the handle, which may be dropped or evicted from a cache
/// before them. A caller's payload stays the caller's [`Block`]; the sums
/// the run computed are the table's. [`BlockStore::insert`] and
/// [`BlockStore::reduce`] never write the shared table: writing a block
/// the row has a slot for first puts that one store in map form, a sum
/// copied out into a `Block` of its own. [`BlockStore::deep_clone`] and
/// [`BlockStore::into_blocks`] detach from the table.
#[derive(Clone, Default)]
pub struct BlockStore {
    /// The blocks no slot of the row is for — all of them in map form.
    blocks: BlockMap<Block>,
    /// The run's table and this store's row of it: the rank. `None` in map
    /// form, and while a walk runs.
    keyed: Option<(Arc<PayloadTable>, usize)>,
}

/// The position in a run's slot table of block `id` at `rank`, if the rank
/// has a slot for it.
fn slot_under(table: &SlotLayout, rank: usize, id: &BlockId) -> Option<usize> {
    let interned = table.blocks().index_of(id)?;
    let slot = table.local_slot(rank, interned)?;
    Some(table.rank_slots(rank).start + slot)
}

/// Puts `stores` — rank `r`'s at index `r` — under `layout`, sharing one
/// slot and payload table nothing else holds. The finals of an earlier run
/// of the same handle are taken as they are, or with their table copied if
/// a caller still holds part of it; anything else is re-keyed block by
/// block into a table sized by what the stores hold.
pub(crate) fn rekey(stores: &mut [BlockStore], layout: &Arc<SlotLayout>) {
    if let Some(table) = run_table(stores, layout) {
        if Arc::strong_count(table) > stores.len() {
            let copy = Arc::new(PayloadTable::clone(table));
            for store in stores.iter_mut() {
                store.keyed.as_mut().expect("keyed").0 = Arc::clone(&copy);
            }
        }
        return;
    }
    let holdings = stores.iter().map(BlockStore::len).sum();
    let mut table = PayloadTable::new(layout, layout.num_slots(), holdings);
    for (rank, store) in stores.iter_mut().enumerate() {
        store.rekey(layout, rank, &mut table);
    }
    let table = Arc::new(table);
    for (rank, store) in stores.iter_mut().enumerate() {
        store.keyed = Some((Arc::clone(&table), rank));
    }
}

/// The table `stores` share, if they are one run's under `layout`: each
/// store its own rank's.
fn run_table<'a>(
    stores: &'a [BlockStore],
    layout: &Arc<SlotLayout>,
) -> Option<&'a Arc<PayloadTable>> {
    let (table, _) = stores.first()?.keyed.as_ref()?;
    let at_rank = |(rank, store): (usize, &BlockStore)| {
        let keyed = store.keyed.as_ref();
        keyed.is_some_and(|(held, row)| Arc::ptr_eq(held, table) && *row == rank)
    };
    let of_run = Arc::ptr_eq(&table.layout, layout) && stores.iter().enumerate().all(at_rank);
    of_run.then_some(table)
}

/// Runs `walk` over the table of `states` — rank `r`'s at index `r`, put
/// under `compiled`'s key table first if they are not one run's yet — moved
/// out of its `Arc` for the walk to own, and puts it back when the walk
/// returns or unwinds. The walk gets the slot table apart from the rest,
/// so that a slot it writes is a `&mut u32` of its own: indexed through the
/// `WalkTable`, beside the holder counts it writes, the slots made traced
/// `exec.run_dense_us` 2–10 % slower on `exec-move` and `serve-latency`.
pub(crate) fn with_table<R>(
    states: &mut [BlockStore],
    compiled: &CompiledSchedule,
    walk: impl FnOnce(&mut WalkTable, &mut [u32]) -> R,
) -> R {
    let layout = compiled.slot_layout();
    rekey(states, layout);
    let Some((mut held, _)) = states.first_mut().and_then(|s| s.keyed.take()) else {
        // No ranks, no payloads.
        return walk(
            &mut WalkTable::new(PayloadTable::new(layout, 0, 0), false),
            &mut [],
        );
    };
    for state in &mut states[1..] {
        state.keyed = None;
    }
    // The walk owns the table while it runs; the `Arc` holds an empty one.
    let table = Arc::get_mut(&mut held).expect("re-keying leaves the table to the run");
    let mut table = std::mem::replace(table, PayloadTable::new(layout, 0, 0));
    let slots = std::mem::take(&mut table.slots);
    let walking = WalkTable::new(table, compiled.reduces());
    let mut detached = Detached {
        held,
        walking,
        slots,
        states,
    };
    let Detached { walking, slots, .. } = &mut detached;
    walk(walking, slots)
}

/// A run's states while a walk owns their table: dropping it — on return or
/// unwind — lets go of the freed long sums' buffers, puts the table, slots
/// included, back into its `Arc`, and gives every state the table.
struct Detached<'a> {
    held: Arc<PayloadTable>,
    walking: WalkTable,
    slots: Box<[u32]>,
    states: &'a mut [BlockStore],
}

impl Drop for Detached<'_> {
    fn drop(&mut self) {
        let held = Arc::get_mut(&mut self.held).expect("nothing holds the table during a walk");
        let table = &mut self.walking.table;
        let mut at = table.free_long;
        while let Some(room) = table.long.get_mut(at as usize) {
            room.sum = Box::default();
            at = room.holders;
        }
        self.walking.table.slots = std::mem::take(&mut self.slots);
        std::mem::swap(held, &mut self.walking.table);
        for (rank, state) in self.states.iter_mut().enumerate() {
            state.keyed = Some((Arc::clone(&self.held), rank));
        }
    }
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the store reads `table`'s row for `rank` — this very table,
    /// not an equal one.
    pub(crate) fn is_keyed_by(&self, table: &Arc<SlotLayout>, rank: usize) -> bool {
        matches!(&self.keyed, Some((held, row)) if Arc::ptr_eq(&held.layout, table) && *row == rank)
    }

    /// Puts the store under `layout`'s row for `rank`, with `table` the
    /// run's table: every block the row has a slot for moves into `table`
    /// and its handle into the slot; the rest stays in the map, in place. A
    /// table-backed store goes through map form first.
    fn rekey(&mut self, layout: &SlotLayout, rank: usize, table: &mut PayloadTable) {
        // Another run's finals, another handle's or another rank's.
        self.detach();
        // `extract_if` yields each block right after the test that picked
        // it, so the slot that test found is the yielded block's.
        let slot = Cell::new(0);
        let in_row = |id: &BlockId, _: &mut Block| {
            let found = slot_under(layout, rank, id);
            found.map(|s| slot.set(s)).is_some()
        };
        for (_, payload) in self.blocks.extract_if(in_row) {
            table.slots[slot.get()] = table.add(Some(payload));
        }
    }

    /// Puts the store in map form: every block its row holds moves into the
    /// map — a caller's payload shared, a sum of the run copied out. The
    /// shared table stays as it is.
    fn detach(&mut self) {
        if let Some((table, rank)) = self.keyed.take() {
            for (id, handle) in table.held_in(rank) {
                self.blocks.insert(*id, table.shared(handle));
            }
        }
    }

    /// The blocks the store's row holds, by id.
    fn slot_blocks(&self) -> impl Iterator<Item = (&BlockId, &[f64])> {
        let keyed = self.keyed.as_ref();
        keyed.into_iter().flat_map(|(table, rank)| {
            let held = table.held_in(*rank);
            held.map(|(id, handle)| (id, table.get(handle)))
        })
    }

    /// The table and the handle its slot for block `id` holds (`NOT_HELD`
    /// if none), if the store is table-backed and its row has a slot for
    /// `id`; a block the row has no slot for lives in the map.
    fn slot_of(&self, id: &BlockId) -> Option<(&PayloadTable, u32)> {
        let (table, rank) = self.keyed.as_ref()?;
        let at = slot_under(&table.layout, *rank, id)?;
        Some((table, table.slots[at]))
    }

    /// Returns the value of a block, if held.
    pub fn get(&self, id: &BlockId) -> Option<&[f64]> {
        match self.slot_of(id) {
            Some((table, handle)) => (handle != NOT_HELD).then(|| table.get(handle)),
            None => self.blocks.get(id).map(|block| block.as_slice()),
        }
    }

    /// The payload of a block as a [`Block`] of its own, if held: a
    /// caller's payload shared (a refcount bump), a sum of the run's payload
    /// table copied out.
    pub(crate) fn get_shared(&self, id: &BlockId) -> Option<Block> {
        match self.slot_of(id) {
            Some((table, handle)) => (handle != NOT_HELD).then(|| table.shared(handle)),
            None => self.blocks.get(id).cloned(),
        }
    }

    /// Stores (or overwrites) a block.
    pub fn insert(&mut self, id: BlockId, value: impl Into<Block>) {
        // A block the row has a slot for: out of the shared table first.
        if self.slot_of(&id).is_some() {
            self.detach();
        }
        self.blocks.insert(id, value.into());
    }

    /// Reduces `value` elementwise into the stored block, inserting it if the
    /// block is not present yet. Copy-on-write: a payload shared with other
    /// ranks (or a snapshot) is copied once, an exclusively owned payload is
    /// mutated in place.
    pub fn reduce(&mut self, id: BlockId, value: &[f64]) {
        if self.slot_of(&id).is_some() {
            self.detach();
        }
        match self.blocks.get_mut(&id) {
            Some(existing) => {
                assert_eq!(
                    existing.len(),
                    value.len(),
                    "block length mismatch for {id:?}"
                );
                reduce_into(existing, value);
            }
            None => self.insert(id, value.to_vec()),
        }
    }

    /// Number of blocks held. A table-backed store counts the occupied
    /// slots of its row: O(slots), not O(1).
    pub fn len(&self) -> usize {
        self.slot_blocks().count() + self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.slot_blocks().next().is_none()
    }

    /// Iterates over the held blocks.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &[f64])> {
        let in_map = self.blocks.iter().map(|(id, b)| (id, b.as_slice()));
        self.slot_blocks().chain(in_map)
    }

    /// Consumes the store, yielding every block as an `(id, Block)` pair
    /// that no longer needs the payload table: a caller's payload shared,
    /// not copied, and a sum the run computed copied out of the table.
    pub fn into_blocks(self) -> impl Iterator<Item = (BlockId, Block)> {
        let Self { blocks, keyed } = self;
        let row = keyed
            .as_ref()
            .map_or(0..0, |(table, rank)| table.layout.rank_slots(*rank));
        let in_slots = row.clone().filter_map(move |at| {
            let (table, rank) = keyed.as_ref()?;
            let handle = table.slots[at];
            let id = *table.layout.block_at(*rank, at - row.start);
            (handle != NOT_HELD).then(|| (id, table.shared(handle)))
        });
        in_slots.chain(blocks)
    }

    /// A clone that deep-copies every payload (no sharing with `self`), in
    /// map form.
    ///
    /// Only the preserved reference interpreter uses this — it reproduces
    /// the seed executor's O(ranks × elements) per-step snapshot cost, which
    /// the benchmarks compare the zero-copy executors against.
    pub fn deep_clone(&self) -> Self {
        let copied = self.iter().map(|(id, b)| (*id, Arc::new(b.to_vec())));
        Self {
            blocks: copied.collect(),
            ..Self::default()
        }
    }
}

/// Contents, not form: the same blocks with equal values, whether either
/// side holds them in a map or under a key table.
impl PartialEq for BlockStore {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(id, value)| other.get(id) == Some(value))
    }
}

/// The held blocks as a map, whichever form they are held in.
impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
    use bine_sched::collectives::{
        allreduce, broadcast, gather, AllreduceAlg, BroadcastAlg, GatherAlg,
    };

    const SEG: fn(u32) -> BlockId = BlockId::Segment;

    /// The key table of a gather tree over 8 ranks rooted at 0: the root's
    /// row has a slot for every segment it receives (its own it never
    /// moves), a leaf's row for its own alone.
    fn gather_table() -> (Arc<SlotLayout>, usize) {
        let compiled = gather(8, 0, GatherAlg::Bine).compile();
        let table = Arc::clone(compiled.slot_layout());
        let leaf = (1..8)
            .find(|&rank| table.rank_blocks(rank).len() == 1)
            .expect("a gather tree has leaves");
        assert_eq!(table.rank_blocks(0).len(), 7);
        (table, leaf)
    }

    /// `store` put under `table`'s row for `rank`, as rank `rank` of a run
    /// whose other ranks hold nothing.
    fn keyed_at(table: &Arc<SlotLayout>, rank: usize, store: BlockStore) -> BlockStore {
        let mut stores = vec![BlockStore::new(); rank + 1];
        stores[rank] = store;
        rekey(&mut stores, table);
        stores.swap_remove(rank)
    }

    /// The table a table-backed store reads.
    fn payload_table(store: &BlockStore) -> &Arc<PayloadTable> {
        &store.keyed.as_ref().expect("table-backed").0
    }

    /// The row of the slot table a table-backed store reads.
    fn row(store: &BlockStore) -> &[u32] {
        let (table, rank) = store.keyed.as_ref().expect("table-backed");
        table.row(*rank)
    }

    /// How many freed long sums `table` keeps, with their buffers.
    fn free_long(table: &PayloadTable) -> usize {
        let mut at = table.free_long;
        let mut kept = 0;
        while let Some(room) = table.long.get(at as usize) {
            kept += usize::from(!room.sum.is_empty());
            at = room.holders;
        }
        kept
    }

    /// Elements packed into `table`'s chunks so far.
    fn filled(table: &PayloadTable) -> usize {
        table.chunks.iter().map(Vec::len).sum()
    }

    #[test]
    fn a_short_sum_is_packed_and_a_long_one_has_a_buffer_of_its_own() {
        let (layout, _) = gather_table();
        for (elems, packed) in [
            (1, true),
            (PACK_MAX_ELEMS, true),
            (PACK_MAX_ELEMS + 1, false),
        ] {
            let mut table = WalkTable::new(PayloadTable::new(&layout, 0, 2), true);
            let caller: Block = Arc::new(vec![1.0; elems]);
            let mut slot = table.table.add(Some(Block::clone(&caller)));
            let staged = table.table.add(Some(Arc::new(vec![0.5; elems])));
            // The caller holds the payload: the sum gets a place of its own.
            table.reduce(&mut slot, staged);
            assert_eq!(table.get(slot), vec![1.5; elems]);
            assert_eq!(*caller, vec![1.0; elems], "copy-on-write");
            assert_eq!(Arc::strong_count(&caller), 1, "the table let go");
            let long = table.table.blocks.get(slot as usize).is_none();
            assert_eq!(long, !packed, "{elems}");
            // A long one's buffer, and the staged `Block` nobody else held
            // became room for the next.
            assert_eq!(table.table.long.len(), 2 * usize::from(long));
            assert_eq!(filled(&table.table), if packed { elems } else { 0 });
            // The run's own sum is summed where it is, packed or not.
            let staged = table.table.add(Some(Arc::new(vec![0.25; elems])));
            table.reduce(&mut slot, staged);
            assert_eq!(table.get(slot), vec![1.75; elems]);
            assert_eq!(filled(&table.table), if packed { elems } else { 0 });
            // A sum another slot holds too is copied on write.
            let shared = slot;
            table.hold(shared);
            let staged = table.table.add(Some(Arc::new(vec![0.25; elems])));
            table.reduce(&mut slot, staged);
            assert_ne!(slot, shared);
            assert_eq!(table.get(shared), vec![1.75; elems]);
            assert_eq!(table.get(slot), vec![2.0; elems]);
            assert_eq!(table.table.shared(slot).as_slice(), table.get(slot));
        }
    }

    #[test]
    fn packed_sums_add_into_each_other_wherever_they_lie() {
        // Two packed sums of one chunk, in either order, and of two chunks.
        let (layout, _) = gather_table();
        let mut table = WalkTable::new(PayloadTable::new(&layout, 0, 0), true);
        let caller: Block = Arc::new(vec![1.0; PACK_MAX_ELEMS]);
        let mut sums = Vec::new();
        let per_chunk = CHUNK_ELEMS / PACK_MAX_ELEMS;
        for i in 0..per_chunk + 1 {
            let mut slot = table.table.add(Some(Block::clone(&caller)));
            let staged = table
                .table
                .add(Some(Arc::new(vec![i as f64; PACK_MAX_ELEMS])));
            table.reduce(&mut slot, staged);
            sums.push(slot);
        }
        assert_eq!(table.table.chunks.len(), 2);
        let (first, second, other_chunk) = (sums[0], sums[1], sums[per_chunk]);
        let value = |t: &WalkTable, h: u32| t.get(h)[0];
        for (into, from) in [(first, second), (second, first), (first, other_chunk)] {
            let (was, adds) = (value(&table, into), value(&table, from));
            let mut slot = into;
            table.hold(from);
            table.reduce(&mut slot, from);
            assert_eq!(slot, into, "summed in place");
            assert_eq!(table.get(into), vec![was + adds; PACK_MAX_ELEMS]);
            assert_eq!(value(&table, from), adds);
        }
        assert_eq!(table.table.chunks.len(), 2, "nothing was appended");
    }

    #[test]
    fn a_reducing_walk_writes_a_sum_into_the_room_a_freed_sum_left() {
        let (layout, _) = gather_table();
        for (elems, keeps_room) in [
            (1, true),
            (1, false),
            (PACK_MAX_ELEMS + 1, true),
            (PACK_MAX_ELEMS + 1, false),
        ] {
            let what = format!("{elems} elements, keeps room: {keeps_room}");
            let mut table = WalkTable::new(PayloadTable::new(&layout, 0, 4), keeps_room);
            let caller: Block = Arc::new(vec![1.0; elems]);
            // `caller + x` as a sum of the walk's, in a slot of its own; the
            // caller holds `x` too.
            let mut operands = Vec::new();
            let mut sum_of = |table: &mut WalkTable, x: f64| {
                let mut slot = table.table.add(Some(Block::clone(&caller)));
                operands.push(Arc::new(vec![x; elems]));
                let staged = table
                    .table
                    .add(Some(Arc::clone(&operands[operands.len() - 1])));
                table.reduce(&mut slot, staged);
                slot
            };
            let kept = |t: &WalkTable| t.spare_places.len() + free_long(&t.table);
            // A copy replaces the sum: its room is freed, and kept — a long
            // one's buffer stays with the freed sum either way.
            let keeps_room = keeps_room || elems > PACK_MAX_ELEMS;
            let mut slot = sum_of(&mut table, 0.5);
            let room = table.get(slot).as_ptr();
            let copy = table.table.add(Some(Block::clone(&caller)));
            table.replace(&mut slot, copy);
            assert_eq!(kept(&table), usize::from(keeps_room), "{what}");
            let packed_before = filled(&table.table);
            let next = sum_of(&mut table, 0.25);
            assert_eq!(table.get(next), vec![1.25; elems], "{what}");
            assert_eq!(kept(&table), 0, "{what}");
            if keeps_room {
                assert_eq!(table.get(next).as_ptr(), room, "{what}");
                assert_eq!(filled(&table.table), packed_before, "{what}");
            }
            // What a caller takes of a sum is a copy: its room is kept.
            let mut slot = next;
            let outside = table.table.shared(slot);
            let copy = table.table.add(Some(Block::clone(&caller)));
            table.replace(&mut slot, copy);
            assert_eq!(kept(&table), usize::from(keeps_room), "{what}");
            let last = sum_of(&mut table, 2.0);
            assert_eq!(table.get(last), vec![3.0; elems], "{what}");
            assert_eq!(*outside, vec![1.25; elems], "{what}");
        }
    }

    #[test]
    fn a_long_block_nobody_else_holds_becomes_room_for_a_sum() {
        let (layout, _) = gather_table();
        let elems = PACK_MAX_ELEMS + 1;
        let mut table = WalkTable::new(PayloadTable::new(&layout, 0, 4), true);
        let (caller, owned) = (Arc::new(vec![1.0; elems]), vec![2.0; elems]);
        let buffer = owned.as_ptr();
        // A caller's `Block` someone else holds too is not kept when freed.
        let mut slot = table.table.add(Some(Block::clone(&caller)));
        let own = table.table.add(Some(Arc::new(owned)));
        table.replace(&mut slot, own);
        assert_eq!(free_long(&table.table), 0);
        // One nobody else holds is, and the next sum of its length is
        // written into it.
        let copy = table.table.add(Some(Block::clone(&caller)));
        table.replace(&mut slot, copy);
        assert_eq!(free_long(&table.table), 1);
        let staged = table.table.add(Some(Block::clone(&caller)));
        table.reduce(&mut slot, staged);
        assert_eq!(table.get(slot), vec![2.0; elems]);
        assert_eq!(table.get(slot).as_ptr(), buffer);
    }

    /// The long sums of `finals`' table that hold something, and those it
    /// keeps in all.
    fn long_sums(finals: &[BlockStore]) -> (usize, usize) {
        let long = &payload_table(&finals[0]).long;
        (
            long.iter().filter(|l| !l.sum.is_empty()).count(),
            long.len(),
        )
    }

    #[test]
    fn a_walk_lets_go_of_the_long_room_it_kept_and_the_next_walk_takes_its_place() {
        // Allreduce `bine-small` over 512-element `Full` blocks nobody else
        // holds: each step frees sums, and the last leaves room unused.
        let sched = allreduce(8, AllreduceAlg::BineSmall);
        let compiled = sched.compile();
        let w = Workload::for_schedule(&sched, 64);
        let mut finals = crate::compiled::run(&compiled, w.initial_state(&sched));
        let expected = w.expected(BlockId::Full);
        let (held, listed) = long_sums(&finals);
        let ranks: usize = finals.iter().map(BlockStore::len).sum();
        assert!(
            held <= ranks && held < listed,
            "{held} held, {listed} listed"
        );
        // Running the finals again frees them: the list does not grow.
        for _ in 0..4 {
            finals = crate::compiled::run(&compiled, finals);
            assert!(long_sums(&finals).1 <= listed);
        }
        let sum = finals[3].get(&BlockId::Full).unwrap();
        let scale = 8_f64.powi(4);
        for (got, want) in sum.iter().zip(&expected) {
            assert!((got - want * scale).abs() <= 1e-9 * want * scale);
        }
    }

    /// Segments 1, 2 and 5 (as `[i, i]`) and `Full` under the root's row of
    /// the gather table — three occupied slots of seven, one block in the
    /// map — and the same four blocks in map form.
    fn table_backed_and_map_form() -> (BlockStore, BlockStore) {
        let mut map_form = BlockStore::new();
        for i in [1, 2, 5] {
            map_form.insert(SEG(i), vec![i as f64; 2]);
        }
        map_form.insert(BlockId::Full, vec![9.0]);
        let keyed = keyed_at(&gather_table().0, 0, map_form.clone());
        (keyed, map_form)
    }

    #[test]
    fn a_table_backed_store_answers_like_the_map_it_was_built_from() {
        let (keyed, map_form) = table_backed_and_map_form();
        assert_eq!(row(&keyed).len(), 7, "one slot per block of the row");
        assert_eq!(
            payload_table(&keyed).slots.len(),
            gather_table().0.num_slots()
        );
        assert_eq!(keyed.blocks.len(), 1, "the table has no slot for Full");
        // Hits, a miss inside the table, a miss outside it.
        assert_eq!(keyed.get(&SEG(5)), Some(&[5.0; 2][..]));
        assert_eq!(keyed.get(&BlockId::Full), Some(&[9.0][..]));
        assert_eq!(keyed.get(&SEG(3)), None);
        assert_eq!(keyed.get(&SEG(77)), None);
        // Re-keying moves payloads, it does not copy them.
        let shared = |s: &BlockStore, id| Arc::as_ptr(&s.get_shared(&id).unwrap());
        assert_eq!(shared(&keyed, SEG(1)), shared(&map_form, SEG(1)));
        // Empty slots are not blocks.
        assert_eq!(keyed.len(), 4);
        assert!(!keyed.is_empty());
        let mut held: Vec<_> = keyed.iter().map(|(id, v)| (*id, v.to_vec())).collect();
        let mut wanted: Vec<_> = map_form.iter().map(|(id, v)| (*id, v.to_vec())).collect();
        held.sort_by_key(|(id, _)| *id);
        wanted.sort_by_key(|(id, _)| *id);
        assert_eq!(held, wanted);
        // Equal by contents, in either order, and not by slot count.
        assert_eq!(keyed, map_form);
        assert_eq!(map_form, keyed);
        assert_eq!(format!("{keyed:?}").len(), format!("{map_form:?}").len());
        let mut fewer = map_form.clone();
        fewer.insert(SEG(5), vec![5.0, 6.0]);
        assert_ne!(keyed, fewer);
        assert_ne!(fewer, keyed);
        fewer.insert(SEG(5), vec![5.0; 2]);
        fewer.insert(SEG(6), vec![0.0]);
        assert_ne!(keyed, fewer);
        assert_ne!(fewer, keyed);
    }

    #[test]
    fn an_emptied_table_backed_store_is_empty() {
        let (table, leaf) = gather_table();
        let store = keyed_at(&table, 0, BlockStore::new());
        assert_eq!(row(&store).len(), 7);
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        assert_eq!(store, BlockStore::new());
        assert_eq!(store.iter().count(), 0);
        assert_eq!(store.into_blocks().count(), 0);
        let at_leaf = keyed_at(&table, leaf, BlockStore::new());
        assert_eq!(row(&at_leaf).len(), 1);
        assert!(at_leaf.is_empty());
    }

    #[test]
    fn mutation_of_a_table_backed_store_lands_where_the_table_says() {
        let (mut keyed, mut map_form) = table_backed_and_map_form();
        let table = Arc::clone(payload_table(&keyed));
        let slots = table.slots.clone();
        // Blocks the row has no slot for: into the map, and the store still
        // reads the table.
        for store in [&mut keyed, &mut map_form] {
            store.insert(SEG(77), vec![7.0]);
            store.reduce(SEG(78), &[8.0]);
            store.reduce(SEG(78), &[8.0]);
            store.reduce(BlockId::Full, &[1.0]);
        }
        assert!(Arc::ptr_eq(payload_table(&keyed), &table));
        assert_eq!(keyed, map_form);
        // Overwrite, fill an empty slot, reduce into a held block and an
        // empty slot: the store leaves the table for map form first.
        let before: Block = keyed.get_shared(&SEG(5)).unwrap();
        for store in [&mut keyed, &mut map_form] {
            store.insert(SEG(1), vec![10.0, 11.0]);
            store.insert(SEG(3), vec![3.0]);
            store.reduce(SEG(2), &[0.5, 0.5]);
            store.reduce(SEG(4), &[4.0]);
            store.reduce(SEG(5), &[1.0, 1.0]);
        }
        assert!(keyed.keyed.is_none(), "in map form");
        assert_eq!(keyed.get(&SEG(1)), Some(&[10.0, 11.0][..]));
        assert_eq!(keyed.get(&SEG(2)), Some(&[2.5, 2.5][..]));
        assert_eq!(keyed.get(&SEG(4)), Some(&[4.0][..]));
        assert_eq!(keyed.get(&SEG(5)), Some(&[6.0; 2][..]));
        assert_eq!(keyed.get(&SEG(78)), Some(&[16.0][..]));
        assert_eq!(keyed.get(&BlockId::Full), Some(&[10.0][..]));
        assert_eq!(keyed.len(), 8);
        assert_eq!(keyed, map_form);
        assert_eq!(map_form, keyed);
        // Copy-on-write, and what a caller writes never lands in the shared
        // table.
        assert_eq!(*before, vec![5.0; 2]);
        assert_eq!(table.slots, slots, "the slots are unwritten");
        let mut kept: Vec<_> = table
            .blocks
            .iter()
            .flatten()
            .map(|b| b.as_slice())
            .collect();
        kept.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(
            kept,
            [[1.0; 2], [2.0; 2], [5.0; 2]],
            "the payloads are unwritten"
        );
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn reducing_a_table_backed_block_checks_its_length() {
        table_backed_and_map_form().0.reduce(SEG(1), &[1.0]);
    }

    #[test]
    fn clones_of_a_table_backed_store_share_payloads_and_deep_clones_do_not() {
        let (keyed, map_form) = table_backed_and_map_form();
        let clone = keyed.clone();
        let deep = keyed.deep_clone();
        assert_eq!(clone, keyed);
        assert_eq!(deep, keyed);
        assert!(
            Arc::ptr_eq(payload_table(&clone), payload_table(&keyed)),
            "a clone shares the table"
        );
        assert!(deep.keyed.is_none(), "a deep clone is in map form");
        for id in [SEG(1), SEG(2), SEG(5), BlockId::Full] {
            let payload = |s: &BlockStore| Arc::as_ptr(&s.get_shared(&id).unwrap());
            assert_eq!(payload(&clone), payload(&keyed), "{id:?}");
            assert_ne!(payload(&deep), payload(&keyed), "{id:?}");
        }
        let mut blocks: Vec<_> = keyed.into_blocks().map(|(id, _)| id).collect();
        let mut wanted: Vec<_> = map_form.into_blocks().map(|(id, _)| id).collect();
        blocks.sort();
        wanted.sort();
        assert_eq!(blocks, wanted);
    }

    #[test]
    fn rekeying_moves_every_block_to_the_new_row_or_the_map() {
        let (table, leaf) = gather_table();
        let (keyed, map_form) = table_backed_and_map_form();
        let held_under = Arc::clone(&payload_table(&keyed).layout);
        // The same table and rank: nothing moves.
        let table_at = Arc::as_ptr(payload_table(&keyed));
        let mut run = vec![keyed];
        rekey(&mut run, &held_under);
        let mut keyed = run.pop().unwrap();
        assert_eq!(Arc::as_ptr(payload_table(&keyed)), table_at);
        // The same table, another rank — and an equal table that is not the
        // same one — re-key: a leaf's row has one slot, its own segment's.
        for (to, rank) in [(&held_under, leaf), (&table, 0), (&table, leaf)] {
            keyed = keyed_at(to, rank, keyed);
            assert!(keyed.is_keyed_by(to, rank));
            assert_eq!(row(&keyed).len(), to.rank_blocks(rank).len());
            assert_eq!(keyed, map_form);
            assert_eq!(keyed.len(), 4);
        }
        let own = *table.block_at(leaf, 0);
        let in_slot = row(&keyed)[0] != NOT_HELD;
        assert_eq!(in_slot, map_form.get(&own).is_some());
        assert_eq!(keyed.blocks.len(), 4 - usize::from(in_slot));
    }

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
