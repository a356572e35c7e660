//! Incremental max–min fair share: the optimized path's replacement for
//! the reference's from-scratch `assign_rates`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::statics::CachedStatic;
use super::{refill, Flow};

/// One bottleneck candidate in the refill heap: a link's fair share and the
/// link, packed as `fair bits << 32 | link`. A fair share is never negative,
/// so the bits order as the value does, and the key ascends by `(fair,
/// link)` — the same winner the reference's ascending-link-id strict-`<`
/// scan selects; `Reverse` makes `BinaryHeap` pop the minimum.
fn refill_key(fair: f64, link: u32) -> Reverse<u128> {
    debug_assert!(
        fair.is_sign_positive() && !fair.is_nan(),
        "fair share {fair}"
    );
    Reverse(u128::from(fair.to_bits()) << 32 | u128::from(link))
}

/// The incremental fair-share state of one run: the link→flow adjacency
/// maintained across events and the scratch of one recomputation, reused
/// across simulations.
#[derive(Default)]
pub(super) struct FairShare {
    /// Per link: the sends of the flows currently traversing it, in
    /// ascending active-index order (append on start, ordered removal on
    /// finish; the stable compaction preserves relative order).
    link_flows: Vec<Vec<u32>>,
    /// Active index of each in-flight send (stale once the flow finishes).
    flow_of_send: Vec<u32>,
    link_dirty: Vec<bool>,
    flow_dirty: Vec<bool>,
    flow_fixed: Vec<bool>,
    assigned: Vec<f64>,
    comp_links: Vec<u32>,
    comp_flows: Vec<u32>,
    // Refill bookkeeping: per-link open-flow counts and current fair shares
    // (the bits of the last key pushed; an entry whose bits differ is
    // stale), the lazy bottleneck heap, and the links touched by one
    // round's fixes.
    link_open: Vec<u32>,
    link_fair: Vec<u64>,
    refill_heap: BinaryHeap<Reverse<u128>>,
    refill_mark: Vec<bool>,
    refill_touched: Vec<u32>,
}

impl FairShare {
    /// Empties the state for a run over `num_links` links, `num_sends` sends
    /// and at most `max_flows` flows in flight (capacity retained).
    pub(super) fn reset(&mut self, num_links: usize, num_sends: usize, max_flows: usize) {
        if self.link_flows.len() < num_links {
            self.link_flows.resize_with(num_links, Vec::new);
        }
        for list in &mut self.link_flows[..num_links] {
            list.clear();
        }
        refill(&mut self.flow_of_send, num_sends, 0);
        refill(&mut self.link_dirty, num_links, false);
        refill(&mut self.flow_dirty, max_flows, false);
        refill(&mut self.flow_fixed, max_flows, false);
        refill(&mut self.assigned, num_links, 0.0);
        self.comp_links.clear();
        self.comp_flows.clear();
        refill(&mut self.link_open, num_links, 0);
        refill(&mut self.link_fair, num_links, 0);
        self.refill_heap.clear();
        refill(&mut self.refill_mark, num_links, false);
        self.refill_touched.clear();
    }

    /// The flow of `send` moved to `active_index` (the event loop's stable
    /// compaction of the active list).
    #[inline]
    pub(super) fn moved(&mut self, send: u32, active_index: usize) {
        self.flow_of_send[send as usize] = active_index as u32;
    }

    /// Incremental max–min fair share. `finished_sends` are the flows
    /// removed this event, `new_start` is the active index of the first flow
    /// added this event. Only the links they touch — and, transitively, the
    /// flows sharing those links (the affected components) — are recomputed,
    /// by the exact progressive-filling float operations of the reference
    /// restricted to those components; every other flow keeps its previous
    /// (identical) rate.
    ///
    /// Within the affected component the progressive filling itself is
    /// near-linear instead of rounds × links: every link's fair share is
    /// computed by the reference's exact expression, but only when its
    /// inputs (`assigned`, open-flow count) change, and the per-round
    /// bottleneck is popped from a lazily-invalidated min-heap ordered by
    /// `(fair, link id)` — the identical winner the reference's ascending-id
    /// strict-`<` scan picks, since stale entries (whose fair share is no
    /// longer the link's) are skipped and ties break on the lower link id.
    pub(super) fn recompute(
        &mut self,
        st: &CachedStatic,
        active: &mut [Flow],
        finished_sends: &[u32],
        new_start: usize,
    ) {
        self.comp_links.clear();
        self.comp_flows.clear();

        // Remove finished flows from the adjacency; their links are dirty.
        for &s in finished_sends {
            for &l in st.links(s) {
                let list = &mut self.link_flows[l as usize];
                let pos = list
                    .iter()
                    .position(|&x| x == s)
                    .expect("finished flow must be on its links");
                list.remove(pos);
                if !self.link_dirty[l as usize] {
                    self.link_dirty[l as usize] = true;
                    self.comp_links.push(l);
                }
            }
        }
        // Insert new flows (ascending active index keeps per-link lists in
        // the reference's construction order); they and their links are
        // dirty.
        for (fi, flow) in active.iter().enumerate().skip(new_start) {
            let s = flow.send;
            self.flow_of_send[s as usize] = fi as u32;
            self.flow_dirty[fi] = true;
            self.comp_flows.push(fi as u32);
            for &l in st.links(s) {
                self.link_flows[l as usize].push(s);
                if !self.link_dirty[l as usize] {
                    self.link_dirty[l as usize] = true;
                    self.comp_links.push(l);
                }
            }
        }

        // Breadth-first closure: a dirty link dirties every flow on it; a
        // dirty flow dirties every link it traverses.
        let mut cursor = 0;
        while cursor < self.comp_links.len() {
            let l = self.comp_links[cursor];
            cursor += 1;
            for &s in &self.link_flows[l as usize] {
                let fi = self.flow_of_send[s as usize] as usize;
                if self.flow_dirty[fi] {
                    continue;
                }
                self.flow_dirty[fi] = true;
                self.comp_flows.push(fi as u32);
                for &l2 in st.links(s) {
                    if !self.link_dirty[l2 as usize] {
                        self.link_dirty[l2 as usize] = true;
                        self.comp_links.push(l2);
                    }
                }
            }
        }

        if !self.comp_flows.is_empty() {
            self.refill(st, active);
        }

        // Reset the dirty marks for the next event.
        for &l in self.comp_links.iter() {
            self.link_dirty[l as usize] = false;
        }
        for &fi in self.comp_flows.iter() {
            self.flow_dirty[fi as usize] = false;
        }
    }

    /// Progressive filling restricted to the affected components
    /// (`comp_links`, `comp_flows`). Every flow on a dirty link is dirty
    /// (the closure in [`FairShare::recompute`]), so a dirty link's
    /// open-flow count starts at its full list length.
    fn refill(&mut self, st: &CachedStatic, active: &mut [Flow]) {
        // Heapified at once over the reused buffer, not pushed one by one.
        let mut entries = std::mem::take(&mut self.refill_heap).into_vec();
        entries.clear();
        for &l in self.comp_links.iter() {
            let li = l as usize;
            self.assigned[li] = 0.0;
            let open = self.link_flows[li].len();
            self.link_open[li] = open as u32;
            if open > 0 {
                // The reference's fair-share expression, verbatim.
                let fair = (st.link_cap[li] - self.assigned[li]).max(0.0) / open as f64;
                self.link_fair[li] = fair.to_bits();
                entries.push(refill_key(fair, l));
            }
        }
        self.refill_heap = BinaryHeap::from(entries);
        for &fi in self.comp_flows.iter() {
            self.flow_fixed[fi as usize] = false;
        }
        let mut unfixed = self.comp_flows.len();
        while unfixed > 0 {
            // Pop the bottleneck: the smallest (fair, link id) whose cached
            // fair share is current and which still has open flows.
            let (fair, l) = loop {
                let Reverse(key) = self
                    .refill_heap
                    .pop()
                    .expect("every flow traverses at least one link");
                let (bits, l) = ((key >> 32) as u64, key as u32);
                let li = l as usize;
                if self.link_fair[li] == bits && self.link_open[li] > 0 {
                    break (f64::from_bits(bits), l);
                }
            };
            // Numerical floor: keeps the loop terminating even when FP
            // cancellation leaves a link marginally oversubscribed.
            let fair = fair.max(st.link_cap[l as usize] * 1e-12);
            self.refill_touched.clear();
            for &s in &self.link_flows[l as usize] {
                let fi = self.flow_of_send[s as usize] as usize;
                if self.flow_fixed[fi] {
                    continue;
                }
                self.flow_fixed[fi] = true;
                unfixed -= 1;
                active[fi].rate = fair;
                for &l2 in st.links(s) {
                    let li = l2 as usize;
                    self.assigned[li] += fair;
                    self.link_open[li] -= 1;
                    if !self.refill_mark[li] {
                        self.refill_mark[li] = true;
                        self.refill_touched.push(l2);
                    }
                }
            }
            // Refresh the fair share of every link the round's fixes
            // touched — once, after all of them, exactly as the reference's
            // next-round scan would observe the state.
            for &l2 in self.refill_touched.iter() {
                let li = l2 as usize;
                self.refill_mark[li] = false;
                if self.link_open[li] > 0 {
                    let fair =
                        (st.link_cap[li] - self.assigned[li]).max(0.0) / self.link_open[li] as f64;
                    self.link_fair[li] = fair.to_bits();
                    self.refill_heap.push(refill_key(fair, l2));
                }
            }
        }
    }
}
