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
//! with its blocks under the compiled schedule's key table (see
//! [`BlockStore`]) — so leaving dense form re-hashes nothing, and the only
//! re-keying of a request is [`crate::compiled::to_dense`]'s, of input that
//! is not under the handle's table yet.

use std::sync::Arc;

use bine_sched::{
    BlockId, BlockMap, Collective, Contract, Counts, Granularity, Schedule, SlotLayout,
};

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

/// The data a single rank holds: shared value vectors by block identifier.
///
/// Cloning a `BlockStore` *shares* every payload, so a clone is O(blocks),
/// not O(elements). All mutation goes through [`BlockStore::insert`]
/// (replace) or [`BlockStore::reduce`] (copy-on-write), which keeps shared
/// payloads safe.
///
/// # Two forms, one behaviour
///
/// A store a caller builds holds its blocks in a map (*map form*). A store
/// an executor has run holds them under the key table of the schedule it
/// ran — the [`SlotLayout`] of the compiled handle, which names the block
/// behind every local slot of every rank: a vector of payloads indexed by
/// local slot, the executors' dense state as it is, plus a map for the
/// blocks the table has no slot for at this rank (what the rank holds and
/// the schedule never moves, what a caller inserts later). Every method
/// answers the same in both forms, and two stores are equal when they hold
/// the same blocks with the same values, whichever form either is in.
/// What differs is the cost: by-id access to a table-backed block goes
/// through the table (`BlockId` → interned index → local slot),
/// [`BlockStore::len`] and [`BlockStore::is_empty`] count the occupied
/// slots, and handing finals back to the handle that produced them
/// ([`crate::compiled::to_dense`]) is free.
///
/// A table-backed store shares the table with the handle it came from
/// (an `Arc`): finals keep the key table alive for as long as they are
/// held — the interned ids and the per-rank slot lists — and nothing else
/// of the handle, which may be dropped or evicted from a cache before them.
#[derive(Clone, Default)]
pub struct BlockStore {
    /// The blocks `keyed` has no slot for — all of them in map form.
    blocks: BlockMap<Block>,
    /// `slots[i]` is the payload of block `i` of this rank's row of the key
    /// table (`None` = not held); empty in map form. This is what the
    /// executor kernel indexes.
    pub(crate) slots: Vec<Option<Block>>,
    /// The key table `slots` is held under and whose row of it: the rank.
    /// `None` in map form.
    keyed: Option<(Arc<SlotLayout>, usize)>,
}

/// The local slot `table` gives block `id` at `rank`, if it has one.
fn slot_under(table: &SlotLayout, rank: usize, id: &BlockId) -> Option<usize> {
    let interned = table.blocks().index_of(id)?;
    table.local_slot(rank, interned)
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the store holds its blocks under `table`'s row for `rank` —
    /// this very table, not an equal one.
    pub(crate) fn is_keyed_by(&self, table: &Arc<SlotLayout>, rank: usize) -> bool {
        matches!(&self.keyed, Some((held, row)) if Arc::ptr_eq(held, table) && *row == rank)
    }

    /// Puts the store under `table`'s row for `rank`: every block the row
    /// has a slot for moves into `slots`, the rest stays in the map. A store
    /// that is already there — the finals of an earlier run of the same
    /// handle — is left as it is; anything else is re-keyed block by block.
    pub(crate) fn rekey(&mut self, table: &Arc<SlotLayout>, rank: usize) {
        if self.is_keyed_by(table, rank) {
            return;
        }
        if self.keyed.is_some() {
            // Another handle's finals, or another rank's: through map form.
            self.blocks = std::mem::take(self).into_blocks().collect();
        }
        let mut slots = vec![None; table.rank_blocks(rank).len()];
        let mut unmoved = Vec::new();
        for (id, payload) in self.blocks.drain() {
            match slot_under(table, rank, &id) {
                Some(slot) => slots[slot] = Some(payload),
                None => unmoved.push((id, payload)),
            }
        }
        // The map keeps its allocation for what the rank never moves.
        self.blocks.extend(unmoved);
        self.slots = slots;
        self.keyed = Some((Arc::clone(table), rank));
    }

    /// The slot block `id` lives in, if the store is table-backed and the
    /// table has one for it at this rank; the block lives in the map
    /// otherwise.
    fn slot_of(&self, id: &BlockId) -> Option<usize> {
        let (table, rank) = self.keyed.as_ref()?;
        slot_under(table, *rank, id)
    }

    /// Returns the value of a block, if held.
    pub fn get(&self, id: &BlockId) -> Option<&Vec<f64>> {
        self.get_shared(id).map(|b| b.as_ref())
    }

    /// Returns the shared payload of a block, if held (a clone of the result
    /// is a refcount bump, not a copy).
    pub fn get_shared(&self, id: &BlockId) -> Option<&Block> {
        match self.slot_of(id) {
            Some(slot) => self.slots[slot].as_ref(),
            None => self.blocks.get(id),
        }
    }

    /// Stores (or overwrites) a block.
    pub fn insert(&mut self, id: BlockId, value: impl Into<Block>) {
        match self.slot_of(&id) {
            Some(slot) => self.slots[slot] = Some(value.into()),
            None => {
                self.blocks.insert(id, value.into());
            }
        }
    }

    /// Reduces `value` elementwise into the stored block, inserting it if the
    /// block is not present yet. Copy-on-write: a payload shared with other
    /// ranks (or a snapshot) is copied once, an exclusively owned payload is
    /// mutated in place.
    pub fn reduce(&mut self, id: BlockId, value: &[f64]) {
        let held = match self.slot_of(&id) {
            Some(slot) => self.slots[slot].as_mut(),
            None => self.blocks.get_mut(&id),
        };
        match held {
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

    /// Number of blocks held. A table-backed store counts its occupied
    /// slots: O(slots), not O(1).
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count() + self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.slots.iter().all(Option::is_none)
    }

    /// Iterates over the held blocks.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &Vec<f64>)> {
        let in_slots = self.slots.iter().enumerate().filter_map(|(slot, held)| {
            let (table, rank) = self.keyed.as_ref()?;
            Some((table.block_at(*rank, slot), held.as_ref()?.as_ref()))
        });
        in_slots.chain(self.blocks.iter().map(|(id, b)| (id, b.as_ref())))
    }

    /// Consumes the store, yielding every `(id, shared payload)` pair
    /// without copying or refcount churn.
    pub fn into_blocks(self) -> impl Iterator<Item = (BlockId, Block)> {
        let Self {
            blocks,
            slots,
            keyed,
        } = self;
        let in_slots = slots
            .into_iter()
            .enumerate()
            .filter_map(move |(slot, held)| {
                let (table, rank) = keyed.as_ref()?;
                Some((*table.block_at(*rank, slot), held?))
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
        let copied = self.iter().map(|(id, b)| (*id, Arc::new(b.clone())));
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

    /// Segments 1, 2 and 5 (as `[i, i]`) and `Full` under the root's row of
    /// the gather table — three occupied slots of seven, one block in the
    /// map — and the same four blocks in map form.
    fn table_backed_and_map_form() -> (BlockStore, BlockStore) {
        let mut map_form = BlockStore::new();
        for i in [1, 2, 5] {
            map_form.insert(SEG(i), vec![i as f64; 2]);
        }
        map_form.insert(BlockId::Full, vec![9.0]);
        let mut keyed = map_form.clone();
        keyed.rekey(&gather_table().0, 0);
        (keyed, map_form)
    }

    #[test]
    fn a_table_backed_store_answers_like_the_map_it_was_built_from() {
        let (keyed, map_form) = table_backed_and_map_form();
        assert_eq!(keyed.slots.len(), 7, "one slot per block of the row");
        assert_eq!(keyed.blocks.len(), 1, "the table has no slot for Full");
        // Hits, a miss inside the table, a miss outside it.
        assert_eq!(keyed.get(&SEG(5)), Some(&vec![5.0; 2]));
        assert_eq!(keyed.get(&BlockId::Full), Some(&vec![9.0]));
        assert_eq!(keyed.get(&SEG(3)), None);
        assert_eq!(keyed.get(&SEG(77)), None);
        // Re-keying moves payloads, it does not copy them.
        let shared = |s: &BlockStore, id| Arc::as_ptr(s.get_shared(&id).unwrap());
        assert_eq!(shared(&keyed, SEG(1)), shared(&map_form, SEG(1)));
        // Empty slots are not blocks.
        assert_eq!(keyed.len(), 4);
        assert!(!keyed.is_empty());
        let mut held: Vec<_> = keyed.iter().map(|(id, v)| (*id, v.clone())).collect();
        let mut wanted: Vec<_> = map_form.iter().map(|(id, v)| (*id, v.clone())).collect();
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
        let mut store = BlockStore::new();
        store.rekey(&table, 0);
        assert_eq!(store.slots.len(), 7);
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        assert_eq!(store, BlockStore::new());
        assert_eq!(store.iter().count(), 0);
        assert_eq!(store.into_blocks().count(), 0);
        let mut at_leaf = BlockStore::new();
        at_leaf.rekey(&table, leaf);
        assert_eq!(at_leaf.slots.len(), 1);
        assert!(at_leaf.is_empty());
    }

    #[test]
    fn mutation_of_a_table_backed_store_lands_where_the_table_says() {
        let (mut keyed, mut map_form) = table_backed_and_map_form();
        for store in [&mut keyed, &mut map_form] {
            // Overwrite, fill an empty slot, add a block the table does not
            // know, reduce into a held block, an empty slot and the map.
            store.insert(SEG(1), vec![10.0, 11.0]);
            store.insert(SEG(3), vec![3.0]);
            store.insert(SEG(77), vec![7.0]);
            store.reduce(SEG(2), &[0.5, 0.5]);
            store.reduce(SEG(4), &[4.0]);
            store.reduce(SEG(78), &[8.0]);
            store.reduce(SEG(78), &[8.0]);
            store.reduce(BlockId::Full, &[1.0]);
        }
        assert_eq!(keyed.get(&SEG(1)), Some(&vec![10.0, 11.0]));
        assert_eq!(keyed.get(&SEG(2)), Some(&vec![2.5, 2.5]));
        assert_eq!(keyed.get(&SEG(4)), Some(&vec![4.0]));
        assert_eq!(keyed.get(&SEG(78)), Some(&vec![16.0]));
        assert_eq!(keyed.get(&BlockId::Full), Some(&vec![10.0]));
        assert_eq!(keyed.len(), 8);
        assert_eq!(keyed, map_form);
        assert_eq!(map_form, keyed);
        // Table blocks sit in slots, the others in the map — never both.
        assert_eq!(keyed.slots.iter().flatten().count(), 5);
        assert_eq!(keyed.blocks.len(), 3);
        // Copy-on-write holds under the table too.
        let before: Block = Arc::clone(keyed.get_shared(&SEG(5)).unwrap());
        keyed.reduce(SEG(5), &[1.0, 1.0]);
        assert_eq!(*before, vec![5.0; 2]);
        assert_eq!(keyed.get(&SEG(5)), Some(&vec![6.0; 2]));
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn reducing_a_table_backed_block_checks_its_length() {
        table_backed_and_map_form().0.reduce(SEG(1), &[1.0]);
    }

    #[test]
    fn clones_of_a_table_backed_store_share_payloads_and_deep_clones_do_not() {
        let (keyed, map_form) = table_backed_and_map_form();
        let held_under = Arc::clone(&keyed.keyed.as_ref().unwrap().0);
        let clone = keyed.clone();
        let deep = keyed.deep_clone();
        assert_eq!(clone, keyed);
        assert_eq!(deep, keyed);
        assert!(
            clone.is_keyed_by(&held_under, 0),
            "a clone shares the table"
        );
        assert!(deep.keyed.is_none(), "a deep clone is in map form");
        for id in [SEG(1), SEG(2), SEG(5), BlockId::Full] {
            let payload = |s: &BlockStore| Arc::as_ptr(s.get_shared(&id).unwrap());
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
        let (mut keyed, map_form) = table_backed_and_map_form();
        let held_under = Arc::clone(&keyed.keyed.as_ref().unwrap().0);
        // The same table and rank: nothing moves.
        let slots = keyed.slots.as_ptr();
        keyed.rekey(&held_under, 0);
        assert_eq!(keyed.slots.as_ptr(), slots);
        // The same table, another rank — and an equal table that is not the
        // same one — re-key: a leaf's row has one slot, its own segment's.
        for (to, rank) in [(&held_under, leaf), (&table, 0), (&table, leaf)] {
            keyed.rekey(to, rank);
            assert!(keyed.is_keyed_by(to, rank));
            assert_eq!(keyed.slots.len(), to.rank_blocks(rank).len());
            assert_eq!(keyed, map_form);
            assert_eq!(keyed.len(), 4);
        }
        let own = *table.block_at(leaf, 0);
        let in_slot = keyed.slots[0].is_some();
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
