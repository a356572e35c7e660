//! Where a run of a compiled schedule keeps every sum it makes.
//!
//! Which slot each payload reads and writes, and in which order, is fixed by
//! the compiled schedule and the walk a run takes over it; so is which value
//! a slot holds at every point, once the values a run starts from are
//! known. A slot lets go of its value after the last step that moves its
//! block at its rank, unless the contract keeps it
//! ([`SlotLayout::dies`](crate::SlotLayout::dies)): only the finals outlive
//! a walk. A [`MemoryPlan`] is that replay, done once: it decides for every
//! reduction whether it sums in place or into a buffer of its own, and
//! gives each buffer to one sum after another by interval colouring over
//! the walk's order. A run then allocates one arena for all its sums and
//! counts no holder.
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

/// The death of a slot the contract keeps: it outlives the walk.
pub const NEVER: u32 = u32::MAX;

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
    /// otherwise; a caller's payload is never written. A slot lets go of
    /// its value when the step it dies after ends
    /// ([`SlotLayout::dies`](crate::SlotLayout::dies)), so only the values
    /// the contract keeps outlive the walk. A sum's buffer is free once its
    /// last holder lets go, and a new sum takes the last freed buffer of its
    /// length, or a new one. A send of a value its rank does not hold plans
    /// nothing: the walk itself reports it.
    pub fn derive(
        compiled: &CompiledSchedule,
        order: WalkOrder,
        entry: Vec<u32>,
        units: Vec<usize>,
    ) -> Self {
        let slots = compiled.slots();
        let mut held = entry.clone();
        let mut run = Replay::new(units.len());
        let mut targets = vec![NONE; compiled.num_payloads()];
        let mut staged: Vec<u32> = Vec::with_capacity(compiled.max_staged());
        let mut dying = Vec::new();
        for_each_group(compiled, order, |step, group| {
            staged.clear();
            for &(_, e) in group {
                let at = slots.src[e as usize] as usize;
                let v = held[at];
                run.hold(v);
                staged.push(v);
                if slots.deaths.get(at) == Some(&step) {
                    dying.push(at);
                }
            }
            for (&(reduce, e), &v) in group.iter().zip(&staged) {
                let at = slots.dst[e as usize] as usize;
                if slots.deaths.get(at) == Some(&step) {
                    dying.push(at);
                }
                let h = held[at];
                if !reduce || h == NONE {
                    // The staged holder becomes the slot's.
                    held[at] = v;
                    run.release(h);
                    continue;
                }
                if v == NONE {
                    continue;
                }
                targets[e as usize] = match run.sole_buffer(h) {
                    Some(own) => own,
                    None => {
                        let class = match run.class_of(h) {
                            Some(class) => class,
                            None => run.class(units[h as usize]),
                        };
                        let sum = run.take(class);
                        held[at] = run.first + sum;
                        run.release(h);
                        sum
                    }
                };
                run.release(v);
            }
            for at in dying.drain(..) {
                run.release(std::mem::replace(&mut held[at], NONE));
            }
        });
        let ends = run.buffers.iter().scan(0, |end, &[_, class]| {
            *end += run.classes[class as usize].0;
            Some(*end)
        });
        let bounds = [0].into_iter().chain(ends).collect();
        Self {
            entry,
            units,
            targets,
            bounds,
        }
    }

    /// The plan of a run that starts from what `compiled`'s contract gives
    /// each rank at its granularity ([`Contract::starts_with`]): every held
    /// slot its own caller's payload, measured in the units of
    /// [`block_units`].
    pub(crate) fn of_contract(compiled: &CompiledSchedule, order: WalkOrder) -> Self {
        let layout = compiled.slot_layout();
        let contract = Contract::from(compiled);
        let granularity = Granularity::from(compiled);
        let (mut entry, mut units) = (Vec::with_capacity(layout.num_slots()), Vec::new());
        for rank in 0..compiled.num_ranks {
            for &b in layout.rank_blocks(rank) {
                let block = compiled.blocks().resolve(b);
                if !contract.starts_with(rank, block, granularity) {
                    entry.push(NONE);
                    continue;
                }
                entry.push(units.len() as u32);
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

/// The state of [`MemoryPlan::derive`]'s replay besides the slots. A slot
/// holds [`NONE`], a caller's payload `v < first`, or buffer `b` as
/// `first + b`: a buffer holds one sum at a time, so its holders are that
/// sum's.
struct Replay {
    /// The caller's payloads: the first handle of a buffer.
    first: u32,
    /// Per buffer, its holders (slots and staged payloads) and its length
    /// class.
    buffers: Vec<[u32; 2]>,
    /// Per length class, its units and its freed buffers, the last freed on
    /// top.
    classes: Vec<(usize, Vec<u32>)>,
}

impl Replay {
    fn new(first: usize) -> Replay {
        Replay {
            first: first as u32,
            buffers: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// The class of values `units` long.
    fn class(&mut self, units: usize) -> u32 {
        let found = self.classes.iter().position(|&(len, _)| len == units);
        found.unwrap_or_else(|| {
            self.classes.push((units, Vec::new()));
            self.classes.len() - 1
        }) as u32
    }

    /// The buffer behind handle `h` — none for [`NONE`] or a caller's
    /// payload.
    fn buffer(&mut self, h: u32) -> Option<&mut [u32; 2]> {
        self.buffers.get_mut(h.wrapping_sub(self.first) as usize)
    }

    /// The class of the sum behind handle `h`, if `h` is a buffer's.
    fn class_of(&mut self, h: u32) -> Option<u32> {
        self.buffer(h).map(|&mut [_, class]| class)
    }

    /// The buffer behind `h`, if `h` is a sum nothing but its slot holds.
    fn sole_buffer(&mut self, h: u32) -> Option<u32> {
        let sole = matches!(self.buffer(h), Some([1, _]));
        sole.then(|| h - self.first)
    }

    /// One holder more of handle `h`.
    fn hold(&mut self, h: u32) {
        if let Some([holders, _]) = self.buffer(h) {
            *holders += 1;
        }
    }

    /// One holder fewer of handle `h`; the last one frees its buffer.
    fn release(&mut self, h: u32) {
        let Some([holders, class]) = self.buffer(h) else {
            return;
        };
        *holders -= 1;
        if *holders == 0 {
            let class = *class as usize;
            self.classes[class].1.push(h - self.first);
        }
    }

    /// A buffer for a new sum of `class`, held once: the last one of its
    /// length freed, or a new one.
    fn take(&mut self, class: u32) -> u32 {
        let b = self.classes[class as usize].1.pop().unwrap_or_else(|| {
            self.buffers.push([0, class]);
            self.buffers.len() as u32 - 1
        });
        self.buffers[b as usize][0] = 1;
        b
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

/// Calls `f` with every group of the walk in `order` — its step, and the
/// payload entries it gathers before it applies any of them, in apply
/// order, each with whether its send reduces — leaving out identity moves.
fn for_each_group(
    compiled: &CompiledSchedule,
    order: WalkOrder,
    mut f: impl FnMut(u32, &[(bool, u32)]),
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
                f(step as u32, &group);
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
                    f(in_step[0].step, &group);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, Collective};

    /// The buffers of the contract entry's plan of `name` at `p` ranks.
    fn buffers(collective: Collective, name: &str, p: usize, order: WalkOrder) -> usize {
        let compiled = build(collective, name, p, 0).expect("builds").compile();
        compiled.memory_plan(order).bounds().len() - 1
    }

    #[test]
    fn a_sum_dies_at_its_last_use() {
        use Collective::{Allreduce, ReduceScatter};
        use WalkOrder::{Blocks, Steps};
        // Block by block, as the block walk runs them: a rank's partial sum
        // dies once sent, so one block's buffers serve the next, and the
        // last ones hold the finals (2 021 for `swing+seg16` if a sent
        // partial sum lived to the end of the walk).
        assert_eq!(buffers(ReduceScatter, "swing+seg16", 64, Blocks), 95);
        assert_eq!(buffers(Allreduce, "bine-large+seg8", 64, Blocks), 95);
        assert_eq!(buffers(ReduceScatter, "bine-permute", 256, Blocks), 383);
        // Step by step, `bine-permute` makes all its new sums in the first
        // step, before any dies (the later steps sum in place): p · p / 2.
        assert_eq!(buffers(ReduceScatter, "bine-permute", 256, Steps), 32_768);
    }
}
