//! Per-rank data state.
//!
//! The executors in this crate interpret a [`bine_sched::Schedule`] over real
//! floating-point data: every rank owns a [`BlockStore`] mapping block
//! identifiers to value vectors, messages move (or reduce) those vectors, and
//! the final states — what the contract keeps of the blocks a rank moved,
//! and every block it never moved — are checked against analytically
//! computed expectations.
//! This is the substitute for running the collectives on a real MPI cluster:
//! the data semantics of every algorithm are exercised end to end.
//!
//! One store type serves both ends of an execution. What a caller builds is
//! a map; what the dense executors run on, and return, is the same store
//! reading its rank's row of the run's one slot table, under the compiled
//! schedule's key table (see [`BlockStore`]) — so leaving dense form
//! re-hashes nothing, and the only re-keying of a request is
//! [`crate::compiled::to_dense`]'s, of input that is not under the handle's
//! table yet. A run reads the caller's payloads and writes its sums into one
//! arena, where the handle's [`MemoryPlan`] puts them: a sum's room is the
//! next sum's once its last slot dies, and the finals' sums are the arena's
//! survivors. The arena, the slot table, the payload list and a walk's
//! staging come from the thread's one `Spare` and go back to it, so a run
//! on a warm thread allocates none of them.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;

use bine_sched::plan::NONE;
use bine_sched::{BlockId, BlockMap, CompiledSchedule, MemoryPlan, SlotLayout, WalkOrder};

/// A caller's payload: a shared, immutable-until-owned vector.
///
/// What a caller inserts and what [`BlockStore::into_blocks`] hands back.
/// Stores, their clones and the executors share it rather than deep-copy
/// it, and a run never writes it: the sums a run computes live in the run's
/// arena.
pub type Block = Arc<Vec<f64>>;

/// The handle of a slot that holds nothing.
pub(crate) const NOT_HELD: u32 = NONE;

/// The slots and payloads of one run, which its per-rank stores share
/// behind one `Arc`: every rank's slots in one table, rank after rank, each
/// a handle of a payload, so a transfer copies an integer.
///
/// Handle `h` names the caller's [`Block`] `inputs[h]`, or, past them, a
/// buffer of the run's arena: buffer `b` of the plan the run took is handle
/// `inputs.len() + b`.
#[derive(Clone)]
pub(crate) struct PayloadTable {
    /// The key table the run's stores are held under.
    layout: Arc<SlotLayout>,
    /// The run's slot table: rank `r`'s local slot `i` at
    /// `layout.rank_slots(r).start + i`, holding a handle or `NOT_HELD`.
    /// Sized once, to the layout's slots; what the walks index. A `Vec`
    /// kept at its capacity, so that the spare it came from can take it
    /// back whole ([`Spare`]).
    slots: Vec<u32>,
    /// The caller's payloads the slots name.
    inputs: Vec<Block>,
    /// The run's sums, one allocation.
    arena: Vec<f64>,
    /// The plan's buffer bounds, in units of `unit` elements. `None` until
    /// a reducing walk has run over the table: as re-keying leaves it, every
    /// held slot holds an input of its own.
    bounds: Option<Arc<[usize]>>,
    /// Narrow, so that `walked` fits beside it: a scale past `u32::MAX`
    /// elements (32 GiB blocks) is planned in elements ([`WalkTable::plan`]).
    unit: u32,
    /// Whether a walk has run over the table: then the slots that die
    /// ([`SlotLayout::dies`]) hold nothing, whatever handle the walk left in
    /// them — the finals are what the contract keeps, at no cost to the run.
    walked: bool,
}

impl PayloadTable {
    /// A table under `layout` of `slots` empty slots and room for
    /// `capacity` payloads, in the buffers this thread's spare holds if
    /// they are large enough ([`spare`]).
    fn new(layout: &Arc<SlotLayout>, slots: usize, capacity: usize) -> Self {
        let mut table = Self::stand_in(layout);
        table.slots = spare(|s| &mut s.slots, slots);
        table.slots.clear();
        table.slots.resize(slots, NOT_HELD);
        table.inputs = spare(|s| &mut s.inputs, capacity);
        table
    }

    /// A table under `layout` of no slots and no payloads, which allocates
    /// nothing: what the states' `Arc` holds while a walk owns their table.
    fn stand_in(layout: &Arc<SlotLayout>) -> Self {
        Self {
            layout: Arc::clone(layout),
            slots: Vec::new(),
            inputs: Vec::new(),
            arena: Vec::new(),
            bounds: None,
            unit: 0,
            walked: false,
        }
    }

    /// The handle the slot at position `at` holds: none in a slot that died
    /// in the walk that ran over the table.
    fn held(&self, at: usize) -> u32 {
        match self.walked && self.layout.dies(at) {
            true => NOT_HELD,
            false => self.slots[at],
        }
    }

    /// The blocks rank `rank`'s slots hold, by id.
    fn held_in(&self, rank: usize) -> impl Iterator<Item = (&BlockId, u32)> {
        let row = self.layout.rank_slots(rank);
        let start = row.start;
        let held = row.map(move |at| (at - start, self.held(at)));
        let held = held.filter(|&(_, h)| h != NOT_HELD);
        held.map(move |(slot, h)| (self.layout.block_at(rank, slot), h))
    }

    /// Empties the slots that died in the walk that ran over the table, so
    /// that the next walk starts from what the finals hold.
    #[cold]
    fn bury(&mut self) {
        for at in self.layout.dying() {
            self.slots[at] = NOT_HELD;
        }
        self.walked = false;
    }

    /// Where the sum of handle `handle` lies in the arena.
    fn range(&self, handle: u32) -> Range<usize> {
        let b = handle as usize - self.inputs.len();
        let bounds = self.bounds.as_deref().expect("a sum of a planned run");
        let unit = self.unit as usize;
        bounds[b] * unit..bounds[b + 1] * unit
    }

    /// The payload of a held handle.
    fn get(&self, handle: u32) -> &[f64] {
        match self.inputs.get(handle as usize) {
            Some(block) => block,
            None => &self.arena[self.range(handle)],
        }
    }

    /// The payload of a held handle as a caller's [`Block`]: the one the
    /// table holds, shared, or a copy of a sum.
    fn shared(&self, handle: u32) -> Block {
        match self.inputs.get(handle as usize) {
            Some(block) => Arc::clone(block),
            None => Arc::new(self.get(handle).to_vec()),
        }
    }

    /// A handle for the caller's `payload`.
    fn add(&mut self, payload: Block) -> u32 {
        assert!(
            self.inputs.len() < NOT_HELD as usize,
            "more payloads than handles"
        );
        self.inputs.push(payload);
        self.inputs.len() as u32 - 1
    }

    /// The arena's range `out`, mutably, and the payloads of `held` and
    /// `value`, which lie elsewhere.
    fn operands(
        &mut self,
        out: Range<usize>,
        held: u32,
        value: u32,
    ) -> (&mut [f64], &[f64], &[f64]) {
        let at = |h: u32| (h as usize >= self.inputs.len()).then(|| self.range(h));
        let (held_at, value_at) = (at(held), at(value));
        let (lo, hi) = (out.start, out.end);
        let (before, rest) = self.arena.split_at_mut(lo);
        let (out, after) = rest.split_at_mut(hi - lo);
        let (before, after, inputs) = (&*before, &*after, &self.inputs);
        let payload = |h: u32, at: Option<Range<usize>>| match at {
            None => inputs[h as usize].as_slice(),
            Some(r) if r.end <= lo => &before[r],
            Some(r) => &after[r.start - hi..r.end - hi],
        };
        (out, payload(held, held_at), payload(value, value_at))
    }
}

impl Drop for PayloadTable {
    /// Leaves its arena, slot table and payload list, the caller's payloads
    /// let go of, to the next run on this thread ([`Spare`]).
    fn drop(&mut self) {
        self.inputs.clear();
        keep(std::mem::take(&mut self.arena), |s| &mut s.arena);
        keep(std::mem::take(&mut self.slots), |s| &mut s.slots);
        keep(std::mem::take(&mut self.inputs), |s| &mut s.inputs);
    }
}

/// The buffers a run hands to the next on its thread: of each, the largest
/// a dropped table or a finished walk let go of, so that what a run
/// allocates does not depend on the runs before it. With glibc's trim
/// threshold fixed, as the benchmark fixes it, a buffer over 128 KiB is
/// mapped in page by page when it is new: a new arena per run made
/// `exec-reduce` 1.4× slower, and a new slot table, payload list and
/// staging per run cost `exec-move` 81 allocations and 2.98 MiB a round.
struct Spare {
    /// A run's arena ([`arena_of`]).
    arena: Vec<f64>,
    /// A run's slot table, emptied when taken.
    slots: Vec<u32>,
    /// A run's list of the caller's payloads, emptied when kept.
    inputs: Vec<Block>,
    /// A walk's staging ([`staging`]).
    staging: Vec<u32>,
}

thread_local! {
    /// The one spare of this thread.
    static SPARE: RefCell<Spare> = const {
        RefCell::new(Spare {
            arena: Vec::new(),
            slots: Vec::new(),
            inputs: Vec::new(),
            staging: Vec::new(),
        })
    };
}

/// The buffer `kept` names in this thread's spare, with capacity for at
/// least `len` items: the spare's own if it has it, a new one otherwise.
fn spare<T>(kept: fn(&mut Spare) -> &mut Vec<T>, len: usize) -> Vec<T> {
    let held = SPARE.try_with(|spare| std::mem::take(kept(&mut spare.borrow_mut())));
    match held {
        Ok(buffer) if buffer.capacity() >= len => buffer,
        _ => Vec::with_capacity(len),
    }
}

/// Hands `buffer` to this thread's spare as the one `kept` names if it is
/// larger than the one there, and drops the other.
fn keep<T>(mut buffer: Vec<T>, kept: fn(&mut Spare) -> &mut Vec<T>) {
    if buffer.capacity() > 0 {
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let kept = kept(&mut spare);
            if kept.capacity() < buffer.capacity() {
                std::mem::swap(kept, &mut buffer);
            }
        });
    }
}

/// An arena of at least `len` elements, from the spare (a buffer's first
/// write covers it whole, so it is neither cleared nor shortened).
fn arena_of(len: usize) -> Vec<f64> {
    let mut arena = spare(|s| &mut s.arena, len);
    if arena.len() < len {
        arena.resize(len, 0.0);
    }
    arena
}

/// A staging buffer for a walk that stages at most `len` payloads, from the
/// spare (the walk empties it per group); [`keep_staging`] hands it back.
pub(crate) fn staging(len: usize) -> Vec<u32> {
    spare(|s| &mut s.staging, len)
}

/// Hands a walk's staging buffer back to the spare.
pub(crate) fn keep_staging(staging: Vec<u32>) {
    keep(staging, |s| &mut s.staging);
}

/// A run's [`PayloadTable`] while a walk writes it, with the buffer the
/// plan gives each reduction. It owns the table (see [`with_table`]): behind
/// a reference, a non-reducing all-to-all at p = 256 ran 30 % slower.
pub(crate) struct WalkTable<'a> {
    table: PayloadTable,
    /// Per payload entry, the buffer of the plan its reduction writes into.
    targets: Cow<'a, [u32]>,
}

impl<'a> WalkTable<'a> {
    fn new(table: PayloadTable) -> Self {
        Self {
            table,
            targets: Cow::Borrowed(&[]),
        }
    }

    /// The payload of a held handle.
    pub(crate) fn get(&self, handle: u32) -> &[f64] {
        self.table.get(handle)
    }

    /// Lays the run's sums out for a walk of `compiled` in `order`, from
    /// what `slots` hold: under the handle's plan if they hold what the
    /// contract gives each rank, at one scale of at most `u32::MAX` elements
    /// per unit, else under a plan derived for them. Nothing for a schedule
    /// that does not reduce.
    pub(crate) fn plan(
        &mut self,
        compiled: &'a CompiledSchedule,
        order: WalkOrder,
        slots: &mut [u32],
    ) {
        if !compiled.reduces() {
            return;
        }
        let plan = compiled.memory_plan(order);
        let table = &mut self.table;
        let len = |h: u32| table.inputs[h as usize].len();
        if let Some(unit) = table
            .bounds
            .is_none()
            .then(|| plan.scale(slots, len))
            .flatten()
            .and_then(|unit| u32::try_from(unit).ok())
        {
            let bounds = plan.bounds();
            table.arena = arena_of(bounds[bounds.len() - 1] * unit as usize);
            (table.bounds, table.unit) = (Some(Arc::clone(bounds)), unit);
            self.targets = Cow::Borrowed(plan.targets());
            return;
        }
        self.targets = Cow::Owned(self.replan(compiled, order, slots));
    }

    /// Derives the plan of what `slots` hold, each held slot a caller's
    /// payload of its own — a sum of an earlier run copied out — measured in
    /// elements. Returns the plan's targets.
    #[cold]
    fn replan(
        &mut self,
        compiled: &CompiledSchedule,
        order: WalkOrder,
        slots: &mut [u32],
    ) -> Vec<u32> {
        let table = &mut self.table;
        let (mut entry, mut units, mut inputs) = (vec![NONE; slots.len()], Vec::new(), Vec::new());
        for (slot, held) in slots
            .iter_mut()
            .zip(&mut entry)
            .filter(|(h, _)| **h != NOT_HELD)
        {
            let h = std::mem::replace(slot, units.len() as u32);
            *held = *slot;
            units.push(table.get(h).len());
            inputs.push(table.shared(h));
        }
        let plan = MemoryPlan::derive(compiled, order, entry, units);
        let bounds = plan.bounds();
        table.arena = arena_of(bounds[bounds.len() - 1]);
        (table.inputs, table.bounds, table.unit) = (inputs, Some(Arc::clone(bounds)), 1);
        plan.targets().to_vec()
    }

    /// Sums payload `staged` into the payload `slot` holds, into the buffer
    /// the plan gives payload entry `entry`: in place if that is the held
    /// sum's own, into a new sum otherwise. The caller has checked that the
    /// lengths agree.
    pub(crate) fn reduce(&mut self, slot: &mut u32, staged: u32, entry: usize) {
        let table = &mut self.table;
        let sum = table.inputs.len() as u32 + self.targets[entry];
        let out = table.range(sum);
        if *slot == sum {
            let (out, value, _) = table.operands(out, staged, staged);
            add_assign(out, value);
        } else {
            // One pass over memory, in the operand order of `add_assign`.
            let (out, held, value) = table.operands(out, *slot, staged);
            for (out, sum) in out.iter_mut().zip(sums(held, value)) {
                *out = sum;
            }
        }
        *slot = sum;
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
/// holds: in place if nobody else holds it, else built straight into a new
/// buffer. The caller has checked that the lengths agree.
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
/// they hold the same blocks with the same values. By-id access to a
/// table-backed block goes through the key table, [`BlockStore::len`]
/// counts the occupied slots of the row, and handing finals back to the
/// handle that produced them ([`crate::compiled::to_dense`]) is free.
///
/// The ranks of a run share its table (an `Arc`), so finals keep the whole
/// run's payloads, the interned ids and the slot table alive while any of
/// them is held — nothing else of the handle. [`BlockStore::insert`] and
/// [`BlockStore::reduce`] never write the shared table: writing a block
/// the row has a slot for first puts that one store in map form, a sum
/// copied out. [`BlockStore::deep_clone`] and [`BlockStore::into_blocks`]
/// detach from the table.
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
/// returns or unwinds. The walk gets the slot table apart from the rest:
/// indexed through the `WalkTable`, the slots made traced
/// `exec.run_dense_us` 2–10 % slower on `exec-move` and `serve-latency`.
pub(crate) fn with_table<'a, R>(
    states: &mut [BlockStore],
    compiled: &'a CompiledSchedule,
    walk: impl FnOnce(&mut WalkTable<'a>, &mut [u32]) -> R,
) -> R {
    let layout = compiled.slot_layout();
    rekey(states, layout);
    let Some((mut held, _)) = states.first_mut().and_then(|s| s.keyed.take()) else {
        // No ranks, no payloads.
        return walk(&mut WalkTable::new(PayloadTable::stand_in(layout)), &mut []);
    };
    for state in &mut states[1..] {
        state.keyed = None;
    }
    // The walk owns the table while it runs; the `Arc` holds an empty one.
    let table = Arc::get_mut(&mut held).expect("re-keying leaves the table to the run");
    let mut table = std::mem::replace(table, PayloadTable::stand_in(layout));
    if table.walked {
        table.bury();
    }
    let slots = std::mem::take(&mut table.slots);
    let mut detached = Detached {
        held,
        walking: WalkTable::new(table),
        slots,
        states,
    };
    let Detached { walking, slots, .. } = &mut detached;
    let ran = walk(walking, slots);
    walking.table.walked = true;
    ran
}

/// A run's states while a walk owns their table: dropping it — on return or
/// unwind — puts the table, slots included, back into its `Arc`, and gives
/// every state the table.
struct Detached<'s, 'a> {
    held: Arc<PayloadTable>,
    walking: WalkTable<'a>,
    slots: Vec<u32>,
    states: &'s mut [BlockStore],
}

impl Drop for Detached<'_, '_> {
    fn drop(&mut self) {
        let held = Arc::get_mut(&mut self.held).expect("nothing holds the table during a walk");
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
            table.slots[slot.get()] = table.add(payload);
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
        Some((table, table.held(at)))
    }

    /// Returns the value of a block, if held.
    pub fn get(&self, id: &BlockId) -> Option<&[f64]> {
        match self.slot_of(id) {
            Some((table, handle)) => (handle != NOT_HELD).then(|| table.get(handle)),
            None => self.blocks.get(id).map(|block| block.as_slice()),
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

    /// Drops a block, if held.
    pub(crate) fn remove(&mut self, id: &BlockId) {
        if self.slot_of(id).is_some() {
            self.detach();
        }
        self.blocks.remove(id);
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
            let handle = table.held(at);
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
    /// the benchmarks compare the compiled executor against.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use bine_sched::collectives::{
        allreduce, broadcast, gather, reduce_scatter, AllreduceAlg, BroadcastAlg, GatherAlg,
        ReduceScatterAlg,
    };
    use bine_sched::Collective;
    use bine_sched::NonContigStrategy;

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
        &table.slots[table.layout.rank_slots(*rank)]
    }

    /// The payload `store` hands out for block `id`: a caller's payload
    /// shared, a sum of the run copied out.
    fn shared(store: &BlockStore, id: BlockId) -> Block {
        let block = store.clone().into_blocks().find(|(held, _)| *held == id);
        block.expect("held").1
    }

    #[test]
    fn every_sum_short_or_long_lies_in_the_runs_one_arena() {
        // Short or long, every sum is a buffer of the run's one arena, laid
        // out by the plan at the scale of the input; the caller's payloads
        // are read, never written.
        let sched = reduce_scatter(8, ReduceScatterAlg::Bine(NonContigStrategy::Permute));
        let compiled = sched.compile();
        for elems in [1, 256, 257, 2048] {
            let w = Workload::for_schedule(&sched, elems);
            let initial = w.initial_state(&sched);
            let finals = crate::compiled::run(&compiled, initial.clone());
            assert_eq!(initial, w.initial_state(&sched), "{elems}: the inputs");
            let table = payload_table(&finals[0]);
            let bounds = table.bounds.as_deref().expect("planned");
            assert_eq!(table.unit as usize, elems);
            assert!(table.arena.len() >= bounds[bounds.len() - 1] * elems);
            let arena = table.arena.as_ptr_range();
            for (rank, store) in finals.iter().enumerate() {
                let sum = store.get(&SEG(rank as u32)).expect("its segment");
                assert!(arena.contains(&sum.as_ptr()), "{elems}: rank {rank}");
                assert_eq!(sum.len(), elems);
            }
        }
    }

    #[test]
    fn arena_sums_add_into_each_other_and_never_into_a_callers_payload() {
        // Three two-element buffers of an arena, after one caller's payload.
        let (layout, _) = gather_table();
        let mut table = PayloadTable::new(&layout, 0, 1);
        let input = table.add(Arc::new(vec![1.0, 2.0]));
        table.arena = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        (table.bounds, table.unit) = (Some(Arc::from([0, 1, 2, 3])), 2);
        let buffer = [input + 1, input + 2, input + 3];
        // Payload entry `e` writes buffer `targets[e]`.
        let targets = Cow::Owned(vec![2, 0, 1, 1]);
        let mut walk = WalkTable { table, targets };
        // In place, an earlier buffer into a later one and back.
        let mut slot = buffer[2];
        walk.reduce(&mut slot, buffer[0], 0);
        assert_eq!((slot, walk.get(slot)), (buffer[2], &[60.0, 80.0][..]));
        let mut slot = buffer[0];
        walk.reduce(&mut slot, buffer[2], 1);
        assert_eq!((slot, walk.get(slot)), (buffer[0], &[70.0, 100.0][..]));
        // Into a buffer of its own: the caller's payload plus a sum, and a
        // sum plus the caller's payload.
        let mut slot = input;
        walk.reduce(&mut slot, buffer[0], 2);
        assert_eq!((slot, walk.get(slot)), (buffer[1], &[71.0, 102.0][..]));
        let mut slot = buffer[2];
        walk.reduce(&mut slot, input, 3);
        assert_eq!((slot, walk.get(slot)), (buffer[1], &[61.0, 82.0][..]));
        assert_eq!(walk.get(input), [1.0, 2.0], "the caller's payload");
        assert_eq!(walk.get(buffer[2]), [60.0, 80.0]);
    }

    #[test]
    fn a_reducing_walk_writes_a_sum_into_the_room_a_freed_sum_left() {
        // Allreduce `bine-small` over 8 ranks: every step makes each rank a
        // new sum and frees its last one, and the plan gives the freed
        // buffers to the next sums: the arena holds a step's sums and the
        // two copies made before the step's first sum is freed, not every
        // step's.
        let sched = allreduce(8, AllreduceAlg::BineSmall);
        let compiled = sched.compile();
        for elems in [1, 64] {
            let w = Workload::for_schedule(&sched, elems);
            let finals = crate::compiled::run(&compiled, w.initial_state(&sched));
            let targets = compiled.memory_plan(WalkOrder::Steps).targets();
            let made = targets.iter().filter(|&&t| t != NONE).count();
            let bounds = payload_table(&finals[0])
                .bounds
                .as_deref()
                .expect("planned");
            assert_eq!(made, 8 * 3);
            assert_eq!(bounds.len() - 1, 8 + 2, "{elems} elements");
            let reference = crate::sequential::run_reference(&sched, w.initial_state(&sched));
            assert_eq!(finals, reference);
        }
    }

    #[test]
    fn finals_fed_back_run_in_an_arena_of_the_same_size_every_time() {
        // Allreduce `bine-small` finals fed back in four times: each run
        // takes the held sums as its inputs, plans afresh for them and lets
        // go of the last arena, so the arena does not grow.
        let sched = allreduce(8, AllreduceAlg::BineSmall);
        let compiled = sched.compile();
        let w = Workload::for_schedule(&sched, 64);
        let mut finals = crate::compiled::run(&compiled, w.initial_state(&sched));
        let expected = w.expected(BlockId::Full);
        let arena = |finals: &[BlockStore]| payload_table(&finals[0]).arena.len();
        finals = crate::compiled::run(&compiled, finals);
        let fed = arena(&finals);
        for _ in 0..3 {
            finals = crate::compiled::run(&compiled, finals);
            assert_eq!(arena(&finals), fed);
            assert_eq!(payload_table(&finals[0]).inputs.len(), 8);
        }
        let (sum, scale) = (finals[3].get(&BlockId::Full).unwrap(), 8_f64.powi(4));
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
        let payload = |s: &BlockStore, id| Arc::as_ptr(&shared(s, id));
        assert_eq!(payload(&keyed, SEG(1)), payload(&map_form, SEG(1)));
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
        let before = shared(&keyed, SEG(5));
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
        let mut kept: Vec<_> = table.inputs.iter().map(|b| b.as_slice()).collect();
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
            let payload = |s: &BlockStore| Arc::as_ptr(&shared(s, id));
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
