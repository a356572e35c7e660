//! Where a run of a compiled schedule keeps every sum it makes.
//!
//! Which slot each payload reads and writes, and in which order, is fixed by
//! the compiled schedule and the walk a run takes over it
//! ([`CompiledSchedule::walk`], the executor's own); so is which value
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

use crate::compile::{CompiledSchedule, Payloads, Visit};
use crate::contract::{Contract, Granularity};
use crate::schedule::BlockId;

/// No value (in a slot), no buffer (for a value or a payload entry).
pub const NONE: u32 = u32::MAX;

/// The death of a slot the contract keeps: it outlives the walk.
pub const NEVER: u32 = u32::MAX;

/// The two orders a run can walk a compiled schedule's payload entries in
/// ([`CompiledSchedule::walk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOrder {
    /// Every step's receives gathered, then applied, step after step.
    Steps,
    /// Every block's entries from its first step to its last, a step's
    /// gathered, then applied, block after block.
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
        let (src, dst) = compiled.payload_slots();
        let mut run = Replay {
            src,
            dst,
            deaths: &compiled.slots().deaths,
            units: &units,
            held: entry.clone(),
            targets: vec![NONE; compiled.num_payloads()],
            staged: Vec::with_capacity(compiled.max_staged(order)),
            dying: Vec::new(),
            first: units.len() as u32,
            buffers: Vec::new(),
            classes: Vec::new(),
        };
        compiled.walk(order, &mut run);
        let ends = run.buffers.iter().scan(0, |end, &[_, class]| {
            *end += run.classes[class as usize].0;
            Some(*end)
        });
        let bounds = [0].into_iter().chain(ends).collect();
        Self {
            entry,
            targets: run.targets,
            units,
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

/// [`MemoryPlan::derive`]'s replay of a walk. A slot holds [`NONE`], a
/// caller's payload `v < first`, or buffer `b` as `first + b`: a buffer
/// holds one sum at a time, so its holders are that sum's.
struct Replay<'a> {
    /// See [`CompiledSchedule::payload_slots`].
    src: &'a [u32],
    dst: &'a [u32],
    /// Per slot of a run's slot table, the step after which it lets go of
    /// its value ([`NEVER`] if it never does).
    deaths: &'a [u32],
    /// Per caller's payload, its length in units.
    units: &'a [usize],
    /// Per slot of a run's slot table, the value it holds.
    held: Vec<u32>,
    /// See [`MemoryPlan::targets`].
    targets: Vec<u32>,
    /// The values the current group gathered, in apply order.
    staged: Vec<u32>,
    /// The slots that let go of their values when the current group ends.
    dying: Vec<usize>,
    /// The caller's payloads: the first handle of a buffer.
    first: u32,
    /// Per buffer, its holders (slots and staged payloads) and its length
    /// class.
    buffers: Vec<[u32; 2]>,
    /// Per length class, its units and its freed buffers, the last freed on
    /// top.
    classes: Vec<(usize, Vec<u32>)>,
}

impl Visit for Replay<'_> {
    fn group(&mut self, step: u32, runs: impl Iterator<Item = Payloads> + Clone) {
        let runs = runs.filter(|run| run.moves);
        self.staged.clear();
        for run in runs.clone() {
            for &at in &self.src[run.entries] {
                let v = self.held[at as usize];
                self.hold(v);
                self.staged.push(v);
                if self.deaths.get(at as usize) == Some(&step) {
                    self.dying.push(at as usize);
                }
            }
        }
        let mut taken = 0;
        for run in runs {
            for (e, &at) in run.entries.clone().zip(&self.dst[run.entries]) {
                let (at, v) = (at as usize, self.staged[taken]);
                taken += 1;
                if self.deaths.get(at) == Some(&step) {
                    self.dying.push(at);
                }
                let h = self.held[at];
                if !run.reduces || h == NONE {
                    // The staged holder becomes the slot's.
                    self.held[at] = v;
                    self.release(h);
                    continue;
                }
                if v == NONE {
                    continue;
                }
                self.targets[e] = match self.sole_buffer(h) {
                    Some(own) => own,
                    None => {
                        let class = match self.class_of(h) {
                            Some(class) => class,
                            None => self.class(self.units[h as usize]),
                        };
                        let sum = self.take(class);
                        self.held[at] = self.first + sum;
                        self.release(h);
                        sum
                    }
                };
                self.release(v);
            }
        }
        let mut dying = std::mem::take(&mut self.dying);
        for at in dying.drain(..) {
            let v = std::mem::replace(&mut self.held[at], NONE);
            self.release(v);
        }
        self.dying = dying;
    }
}

impl Replay<'_> {
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
