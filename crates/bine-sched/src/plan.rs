//! Where a run of a compiled schedule keeps every sum it makes.
//!
//! Which slot each payload reads and writes, and in which order, is fixed by
//! the compiled schedule and the walk a run takes over it. So is which value
//! a slot holds at every point, once the values a run starts from are
//! known, and so is when each value's last holder lets go. A
//! [`MemoryPlan`] is that replay, done once: it decides for every reduction
//! whether it sums in place or into a buffer of its own, and gives each
//! buffer to one sum after another by interval colouring over the walk's
//! order. A run then allocates one arena for all its sums and counts no
//! holder.
//!
//! The plan of the contract's entry is derived lazily per handle and walk
//! order ([`CompiledSchedule::memory_plan`]); a run that starts from
//! anything else (finals fed back, a hand-built map) derives its own with
//! the same [`MemoryPlan::derive`].

use std::sync::Arc;

use crate::compile::CompiledSchedule;
use crate::contract::{Contract, Granularity};
use crate::schedule::{BlockId, TransferKind};

/// No value (in a slot), no buffer (for a value or a payload entry).
pub const NONE: u32 = u32::MAX;

/// The two orders a run can walk a compiled schedule's payload entries in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOrder {
    /// Every step's receives gathered, then applied, step after step.
    Steps,
    /// Every block's entries ([`crate::BlockMajor`]) from its first step to
    /// its last, a step's gathered, then applied, block after block.
    Blocks,
}

/// Where every sum of a run lives, for one walk order and one set of entry
/// values. See the module docs.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// Per slot of a run's slot table, the caller's payload it holds at
    /// entry, or [`NONE`].
    entry: Vec<u32>,
    /// Per entry payload, its length in the units of the plan's buffers.
    units: Vec<usize>,
    /// Per payload entry ([`CompiledSchedule::block_index_slice`]), the
    /// buffer a reduction into a held slot writes its sum into — the held
    /// sum's own when nothing else holds it — or [`NONE`].
    targets: Vec<u32>,
    /// Buffer `b` is units `bounds[b]..bounds[b + 1]` of the arena.
    bounds: Arc<[usize]>,
}

impl MemoryPlan {
    /// Replays `compiled`'s walk in `order` from slots holding `entry` (per
    /// slot of a run's slot table, one of the caller's payloads, `units[v]`
    /// long, or [`NONE`]).
    ///
    /// A move aliases its value. A reduction into a held slot sums in place
    /// if the held value is a sum of the run's and nothing else holds it —
    /// no other slot, no staged payload — and into a new sum's buffer
    /// otherwise; a caller's payload is never written. A
    /// value's buffer is free once its last holder lets go, and a new value
    /// takes the last freed buffer of its length, or a new one. Values still
    /// held when the walk ends keep theirs. A send of a value its rank does
    /// not hold plans nothing: the walk itself reports it.
    pub fn derive(
        compiled: &CompiledSchedule,
        order: WalkOrder,
        entry: Vec<u32>,
        units: Vec<usize>,
    ) -> Self {
        let mut held = entry.clone();
        let mut run = Replay::default();
        for &units in &units {
            let class = run.class(units);
            run.values.push([0, class, NONE]);
        }
        for &v in held.iter().filter(|&&v| v != NONE) {
            run.values[v as usize][0] += 1;
        }
        let mut targets = vec![NONE; compiled.num_payloads()];
        let mut staged: Vec<u32> = Vec::with_capacity(compiled.max_staged());
        let slots = compiled.slots();
        for_each_group(compiled, order, |group| {
            staged.clear();
            for &(_, e) in group {
                let v = held[slots.src[e as usize] as usize];
                if v != NONE {
                    run.values[v as usize][0] += 1;
                }
                staged.push(v);
            }
            for (&(reduce, e), &v) in group.iter().zip(&staged) {
                let slot = &mut held[slots.dst[e as usize] as usize];
                let h = *slot;
                if !reduce || h == NONE {
                    // The staged holder becomes the slot's.
                    *slot = v;
                    run.release(h);
                    continue;
                }
                if v == NONE {
                    continue;
                }
                let [holders, class, own] = run.values[h as usize];
                let target = match own != NONE && holders == 1 {
                    true => own,
                    false => {
                        let sum = run.take(class);
                        *slot = run.values.len() as u32;
                        run.values.push([1, class, sum]);
                        run.release(h);
                        sum
                    }
                };
                targets[e as usize] = target;
                run.release(v);
            }
        });
        let ends = run
            .sizes
            .iter()
            .scan(0, |end, len| Some(*end + len).inspect(|e| *end = *e));
        let bounds = [0].into_iter().chain(ends).collect();
        Self {
            entry,
            units,
            targets,
            bounds,
        }
    }

    /// The plan of a run that starts from what `compiled`'s contract gives
    /// each rank at its granularity ([`Contract::initial`]): every held slot
    /// its own caller's payload, measured in the units of
    /// [`block_units`].
    pub(crate) fn of_contract(compiled: &CompiledSchedule, order: WalkOrder) -> Self {
        let layout = compiled.slot_layout();
        let contract = Contract::from(compiled);
        let granularity = Granularity::from(compiled);
        let (mut entry, mut units) = (vec![NONE; layout.num_slots()], Vec::new());
        for rank in 0..compiled.num_ranks {
            for block in contract.initial(rank, granularity) {
                let index = compiled.blocks().index_of(&block);
                let Some(slot) = index.and_then(|b| layout.local_slot(rank, b)) else {
                    continue;
                };
                entry[layout.rank_slots(rank).start + slot] = units.len() as u32;
                units.push(block_units(compiled, block));
            }
        }
        Self::derive(compiled, order, entry, units)
    }

    /// The elements per unit of a run whose slots hold `slots` (handles, or
    /// [`NONE`]), where `len(h)` is the length of the caller's payload
    /// `h`, if that run starts from this plan's entry: the same slots held,
    /// each by a payload of its value's units at one common scale. O(slots).
    pub fn scale(&self, slots: &[u32], len: impl Fn(u32) -> usize) -> Option<usize> {
        // Fixed by the first held value that has units.
        let mut scale = None;
        for (&h, &v) in slots.iter().zip(&self.entry) {
            if (h == NONE) != (v == NONE) {
                return None;
            }
            if h == NONE {
                continue;
            }
            let (len, units) = (len(h), self.units[v as usize]);
            if units == 0 && len == 0 {
                continue;
            }
            if units == 0 || len != units * *scale.get_or_insert(len / units) {
                return None;
            }
        }
        Some(scale.unwrap_or(0))
    }

    /// Per payload entry, the buffer its reduction writes into, or [`NONE`].
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Buffer `b` is units `bounds()[b]..bounds()[b + 1]` of the arena, the
    /// last bound its length.
    pub fn bounds(&self) -> &Arc<[usize]> {
        &self.bounds
    }
}

/// The state of [`MemoryPlan::derive`]'s replay besides the slots.
#[derive(Default)]
struct Replay {
    /// Per value: its holders (slots and staged payloads), its length class
    /// and its buffer, or [`NONE`] for a caller's payload.
    values: Vec<[u32; 3]>,
    /// Per length class, its units and its freed buffers, the last freed on
    /// top.
    classes: Vec<(usize, Vec<u32>)>,
    /// Per buffer, its units.
    sizes: Vec<usize>,
}

impl Replay {
    /// The class of values `units` long.
    fn class(&mut self, units: usize) -> u32 {
        let found = self.classes.iter().position(|&(len, _)| len == units);
        found.unwrap_or_else(|| {
            self.classes.push((units, Vec::new()));
            self.classes.len() - 1
        }) as u32
    }

    /// The buffer a new value of `class` takes: the last one of its length
    /// freed, or a new one.
    fn take(&mut self, class: u32) -> u32 {
        let (units, free) = &mut self.classes[class as usize];
        free.pop().unwrap_or_else(|| {
            self.sizes.push(*units);
            self.sizes.len() as u32 - 1
        })
    }

    /// One holder fewer of value `v` (none for [`NONE`]); the last one frees
    /// its buffer.
    fn release(&mut self, v: u32) {
        let Some([holders, class, buffer]) = self.values.get_mut(v as usize) else {
            return;
        };
        *holders -= 1;
        if *holders == 0 && *buffer != NONE {
            self.classes[*class as usize].1.push(*buffer);
        }
    }
}

/// The length of `block` in units of one segment of a regular vector: `p`
/// (or the counts' total) for `Full`, a segment's count, 1 for a pairwise
/// block.
fn block_units(compiled: &CompiledSchedule, block: BlockId) -> usize {
    let counts = compiled.counts();
    let units = match block {
        BlockId::Full => counts.map_or(compiled.num_ranks as u64, |c| c.total()),
        BlockId::Segment(i) => counts.map_or(1, |c| c.count(i as usize)),
        BlockId::Pairwise { .. } => 1,
    };
    units as usize
}

/// Calls `f` with every group of the walk in `order` — the payload entries
/// it gathers before it applies any of them, in apply order, each with
/// whether its send reduces — leaving out identity moves.
fn for_each_group(
    compiled: &CompiledSchedule,
    order: WalkOrder,
    mut f: impl FnMut(&[(bool, u32)]),
) {
    let mut group = Vec::with_capacity(compiled.max_staged());
    match order {
        WalkOrder::Steps => {
            for step in 0..compiled.num_steps() {
                group.clear();
                for &s in compiled.step_recvs(step) {
                    let send = compiled.send(s as usize);
                    let reduces = send.kind == TransferKind::Reduce;
                    if !compiled.is_identity_move(step, send) {
                        group.extend((send.blocks_start..send.blocks_end).map(|e| (reduces, e)));
                    }
                }
                f(&group);
            }
        }
        WalkOrder::Blocks => {
            let major = compiled.block_major();
            for block in 0..compiled.num_blocks() {
                for in_step in major.entries_of(block).chunk_by(|a, b| a.step == b.step) {
                    group.clear();
                    for e in in_step {
                        let send = compiled.send(e.send as usize);
                        if !compiled.is_identity_move(e.step as usize, send) {
                            let reduces = send.kind == TransferKind::Reduce;
                            group.push((reduces, send.blocks_start + e.entry));
                        }
                    }
                    f(&group);
                }
            }
        }
    }
}
