//! Static schedule validation and survivability analysis.
//!
//! Every consumer of a [`CompiledSchedule`] — the executors in `bine-exec`,
//! the discrete-event simulator in `bine-net` — *assumes* a set of
//! invariants the schedule generators are trusted to uphold: sends only move
//! blocks their sender holds, the dependency structure is acyclic (so
//! nothing can deadlock), every rank ends up holding the collective's
//! postcondition block set, and the step structure respects the
//! single-ported port model. [`ScheduleValidator`] *proves* those invariants
//! for any schedule — regular, segmented (`+segS`) or irregular
//! (v-variants with per-rank [`Counts`](crate::Counts)) — instead of
//! assuming them:
//!
//! * **possession** ([`ScheduleValidator::check_delivery`]) — replays the
//!   schedule symbolically, tracking for every `(rank, block)` the set of
//!   ranks whose contribution the block embodies. A send of a block its
//!   source does not hold is rejected with the same diagnosis the executors
//!   panic with at runtime; a reduce whose payload overlaps the
//!   destination's accumulated contributions (data counted twice) is
//!   rejected as a duplicate contribution; and at the end every rank must
//!   hold what the collective's [`Contract`] requires of it (counts-aware:
//!   zero-count segments of a v-variant are exempt).
//! * **deadlock-freedom** ([`ScheduleValidator::check_acyclic`]) — a
//!   topological elimination of the [`DepGraph`] the DES executes (read
//!   edges, chained writes per block, per-rank FIFO send ports).
//! * **well-formedness** ([`ScheduleValidator::check_well_formed`]) — ranks
//!   and block indices in range, non-empty block lists, at most one network
//!   send and one network receive per rank per step (single-ported model),
//!   counts covering every rank.
//! * **byte conservation** ([`ScheduleValidator::check_traffic`]) — the
//!   schedule's own byte accounting must agree with an independently
//!   measured `bine_net::traffic::TrafficReport` (passed as raw totals so
//!   the crates stay layered).
//!
//! There is **one replay with two readings**. The replay always runs the
//! fault-tolerant loop — a send that is dropped, has a dead endpoint or
//! queues behind a send its rank cannot back never happens, and the rank is
//! wedged from there on — and always notes the first violation it meets (an
//! unbacked send or a doubly-counted contribution). Who starts with what,
//! and who must end with what, both come from the [`Contract`]. Delivery is
//! the reading with no fault: the first violation, else the first rank left
//! short. The **survivability analysis** ([`ScheduleValidator::survivors`])
//! is the reading with crashed ranks: which survivors still end with what
//! they require, which are stalled, and the pending receives that became
//! undeliverable — the stall cut a recovery layer needs to decide what to
//! rebuild. [`ScheduleValidator::completion_with_dropped`] is the
//! generalised form the DES uses to diagnose a stalled simulation: it takes
//! the exact sends the simulator refused to start (rank crashes *and* link
//! cuts) and propagates the cascade.

use crate::compile::CompiledSchedule;
use crate::contract::{Contract, Granularity};
use crate::deps::DepGraph;
use crate::schedule::{BlockId, BlockMap, Schedule, TransferKind};

/// A set of ranks, used to track which ranks' contributions a block
/// embodies. Backed by a flat word vector so unions and comparisons are a
/// few machine ops even at hundreds of ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankSet {
    words: Vec<u64>,
}

impl RankSet {
    fn empty(p: usize) -> Self {
        Self {
            words: vec![0; p.div_ceil(64)],
        }
    }

    fn singleton(p: usize, rank: usize) -> Self {
        let mut s = Self::empty(p);
        s.words[rank / 64] |= 1 << (rank % 64);
        s
    }

    fn full(p: usize) -> Self {
        let mut s = Self::empty(p);
        for r in 0..p {
            s.words[r / 64] |= 1 << (r % 64);
        }
        s
    }

    fn is_full(&self, p: usize) -> bool {
        *self == Self::full(p)
    }

    fn union_in_place(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Lowest rank present in both sets (for diagnostics).
    fn first_common(&self, other: &Self) -> Option<usize> {
        for (w, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let both = a & b;
            if both != 0 {
                return Some(w * 64 + both.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// A violated schedule invariant, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A send's source or destination rank is outside `0..num_ranks`.
    RankOutOfRange {
        /// Step of the offending send.
        step: usize,
        /// The out-of-range rank.
        rank: usize,
    },
    /// An interned block references a segment or pairwise index outside the
    /// rank range.
    BlockOutOfRange {
        /// The offending block.
        block: BlockId,
    },
    /// A send carries no blocks.
    EmptyMessage {
        /// Step of the offending send.
        step: usize,
        /// Sending rank.
        rank: usize,
    },
    /// A rank issues two network sends in one step (single-ported model).
    MultipleSends {
        /// The offending step.
        step: usize,
        /// The rank sending twice.
        rank: usize,
    },
    /// A rank receives two network messages in one step (single-ported
    /// model).
    MultipleReceives {
        /// The offending step.
        step: usize,
        /// The rank receiving twice.
        rank: usize,
    },
    /// A message was annotated with zero contiguous regions.
    ZeroSegments {
        /// Step of the offending send.
        step: usize,
        /// Sending rank.
        rank: usize,
    },
    /// The irregular counts do not cover exactly `num_ranks` ranks.
    CountsMismatch {
        /// Ranks covered by the counts.
        counts: usize,
        /// Ranks of the schedule.
        ranks: usize,
    },
    /// A rank sends a block it does not hold at that step — the executors
    /// would panic, the DES would stall.
    MissingBlock {
        /// Step of the offending send.
        step: usize,
        /// The sending rank.
        rank: usize,
        /// The block it does not hold.
        block: BlockId,
    },
    /// A reduce payload overlaps the destination's accumulated
    /// contributions: some rank's data would be counted twice.
    DuplicateContribution {
        /// Step of the offending reduce.
        step: usize,
        /// The receiving rank.
        rank: usize,
        /// The block being reduced.
        block: BlockId,
        /// A rank whose contribution would be double-counted.
        duplicated: usize,
    },
    /// A rank ends the schedule without the collective's postcondition
    /// block set.
    Incomplete {
        /// The under-delivered rank.
        rank: usize,
        /// A required block that is missing or only partially combined.
        block: BlockId,
    },
    /// The dependency graph the DES would execute contains a cycle: the
    /// schedule can deadlock.
    CyclicDependency {
        /// Sends whose dependencies resolved before the cycle.
        resolved: usize,
        /// Total sends.
        total: usize,
    },
    /// The schedule's byte accounting disagrees with the measured traffic
    /// report.
    ByteMismatch {
        /// Bytes the schedule says it moves over the network.
        schedule_bytes: u64,
        /// Bytes the traffic report measured.
        reported_bytes: u64,
    },
    /// The schedule's network-message count disagrees with the measured
    /// traffic report.
    MessageCountMismatch {
        /// Network messages in the schedule.
        schedule_messages: u64,
        /// Network messages the traffic report measured.
        reported_messages: u64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::RankOutOfRange { step, rank } => {
                write!(f, "step {step}: rank {rank} out of range")
            }
            ValidationError::BlockOutOfRange { block } => {
                write!(f, "block {block:?} indexes outside the rank range")
            }
            ValidationError::EmptyMessage { step, rank } => {
                write!(f, "step {step}: rank {rank} sends an empty message")
            }
            ValidationError::MultipleSends { step, rank } => {
                write!(f, "step {step}: rank {rank} sends twice")
            }
            ValidationError::MultipleReceives { step, rank } => {
                write!(f, "step {step}: rank {rank} receives twice")
            }
            ValidationError::ZeroSegments { step, rank } => {
                write!(f, "step {step}: rank {rank} sends zero contiguous regions")
            }
            ValidationError::CountsMismatch { counts, ranks } => {
                write!(
                    f,
                    "counts cover {counts} ranks but the schedule has {ranks}"
                )
            }
            ValidationError::MissingBlock { step, rank, block } => {
                write!(
                    f,
                    "step {step}: rank {rank} sends block {block:?} it does not hold"
                )
            }
            ValidationError::DuplicateContribution {
                step,
                rank,
                block,
                duplicated,
            } => write!(
                f,
                "step {step}: rank {rank} reduces block {block:?} with rank {duplicated}'s \
                 contribution counted twice"
            ),
            ValidationError::Incomplete { rank, block } => write!(
                f,
                "rank {rank} ends without a complete {block:?} (postcondition violated)"
            ),
            ValidationError::CyclicDependency { resolved, total } => write!(
                f,
                "dependency cycle: only {resolved} of {total} sends can ever issue"
            ),
            ValidationError::ByteMismatch {
                schedule_bytes,
                reported_bytes,
            } => write!(
                f,
                "byte conservation violated: schedule accounts {schedule_bytes} network bytes, \
                 traffic report measured {reported_bytes}"
            ),
            ValidationError::MessageCountMismatch {
                schedule_messages,
                reported_messages,
            } => write!(
                f,
                "message conservation violated: schedule has {schedule_messages} network \
                 messages, traffic report measured {reported_messages}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Why a pending receive can never be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The send itself was killed by a fault (crashed endpoint or severed
    /// link) — a root cause of the stall cut.
    Crashed,
    /// The sender is alive but wedged: it waits (transitively) on data that
    /// can never arrive — a cascade effect.
    Blocked,
}

/// A receive that can never complete once the given ranks are dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRecv {
    /// Step of the undeliverable send.
    pub step: usize,
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Root cause vs cascade (the `Crashed` entries are the minimal stall
    /// cut; every `Blocked` entry is downstream of one of them).
    pub reason: StallReason,
}

/// Outcome of a survivability analysis: which ranks can still satisfy the
/// collective's postcondition once some ranks are dead, and which receives
/// became undeliverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionReport {
    /// The ranks declared dead.
    pub dead: Vec<usize>,
    /// Surviving ranks that still end up satisfying their postcondition.
    pub completed: Vec<usize>,
    /// Surviving ranks whose postcondition can no longer be met.
    pub stalled: Vec<usize>,
    /// Every receive that can never be satisfied, in schedule order. The
    /// [`StallReason::Crashed`] entries form the minimal stall cut.
    pub undeliverable: Vec<PendingRecv>,
}

impl CompletionReport {
    /// Whether every surviving rank still satisfies its postcondition.
    pub fn all_survivors_complete(&self) -> bool {
        self.stalled.is_empty()
    }
}

/// A dense remap of surviving ranks onto `0..survivors`, preserving the
/// relative order of the survivors. This is the communicator-shrink step of
/// ULFM-style recovery: a schedule rebuilt at the shrunk size runs over new
/// ranks `0..s`, and the map translates state between the two rank spaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMap {
    to_new: Vec<Option<usize>>,
    to_old: Vec<usize>,
}

impl RankMap {
    /// Builds the dense map for `p` original ranks with `dead` removed
    /// (duplicates in `dead` are tolerated).
    ///
    /// # Panics
    /// Panics if a dead rank is out of range or no rank survives.
    pub fn dense(p: usize, dead: &[usize]) -> Self {
        let mut alive = vec![true; p];
        for &d in dead {
            assert!(d < p, "dead rank {d} out of range for {p} ranks");
            alive[d] = false;
        }
        let mut to_new = vec![None; p];
        let mut to_old = Vec::new();
        for (old, &ok) in alive.iter().enumerate() {
            if ok {
                to_new[old] = Some(to_old.len());
                to_old.push(old);
            }
        }
        assert!(
            !to_old.is_empty(),
            "all {p} ranks dead: nothing to shrink to"
        );
        Self { to_new, to_old }
    }

    /// Number of ranks before the shrink.
    pub fn num_old(&self) -> usize {
        self.to_new.len()
    }

    /// Number of surviving ranks.
    pub fn num_survivors(&self) -> usize {
        self.to_old.len()
    }

    /// The shrunk-communicator rank of `old`, or `None` if it is dead.
    pub fn new_rank(&self, old: usize) -> Option<usize> {
        self.to_new[old]
    }

    /// The original rank behind shrunk rank `new`.
    pub fn old_rank(&self, new: usize) -> usize {
        self.to_old[new]
    }

    /// Whether `old` is dead under this map.
    pub fn is_dead(&self, old: usize) -> bool {
        self.to_new[old].is_none()
    }

    /// The surviving original ranks, ascending (index = new rank).
    pub fn survivors(&self) -> &[usize] {
        &self.to_old
    }
}

/// Static analyzer over one compiled schedule. See the module docs for the
/// invariants; [`ScheduleValidator::validate`] runs them all.
pub struct ScheduleValidator<'a> {
    c: &'a CompiledSchedule,
}

/// Per-rank symbolic possession: block → contribution set.
type Possession = Vec<BlockMap<RankSet>>;

/// What one symbolic replay found; delivery and survivability read it.
struct Replay {
    /// What every rank holds after the last step.
    held: Possession,
    /// The sends that never happened, in schedule order.
    undeliverable: Vec<PendingRecv>,
    /// The first unbacked send or doubly-counted contribution met. Only the
    /// reading with no fault asks: under faults an unbacked send is the
    /// expected cascade, not a defect of the schedule.
    violation: Option<ValidationError>,
}

impl<'a> ScheduleValidator<'a> {
    /// A validator over `compiled`.
    pub fn new(compiled: &'a CompiledSchedule) -> Self {
        Self { c: compiled }
    }

    /// Runs every static invariant: well-formedness, dependency acyclicity
    /// and full delivery. ([`ScheduleValidator::check_traffic`] needs an
    /// externally measured report and is run separately.)
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.check_well_formed()?;
        self.check_acyclic()?;
        self.check_delivery()
    }

    /// Structural invariants: ranks and block indices in range, non-empty
    /// block lists, one network send and one network receive per rank per
    /// step (single-ported model), counts covering every rank.
    pub fn check_well_formed(&self) -> Result<(), ValidationError> {
        let p = self.c.num_ranks;
        if let Some(counts) = self.c.counts() {
            if counts.num_ranks() != p {
                return Err(ValidationError::CountsMismatch {
                    counts: counts.num_ranks(),
                    ranks: p,
                });
            }
        }
        for (_, block) in self.c.blocks().iter() {
            let in_range = match block {
                BlockId::Full => true,
                BlockId::Segment(i) => (i as usize) < p,
                BlockId::Pairwise { origin, dest } => (origin as usize) < p && (dest as usize) < p,
            };
            if !in_range {
                return Err(ValidationError::BlockOutOfRange { block });
            }
        }
        for step in 0..self.c.num_steps() {
            let mut sending = vec![false; p];
            let mut receiving = vec![false; p];
            for i in self.c.step_send_range(step) {
                let s = self.c.send(i);
                let (src, dst) = (s.src as usize, s.dst as usize);
                if src >= p {
                    return Err(ValidationError::RankOutOfRange { step, rank: src });
                }
                if dst >= p {
                    return Err(ValidationError::RankOutOfRange { step, rank: dst });
                }
                if s.num_blocks() == 0 {
                    return Err(ValidationError::EmptyMessage { step, rank: src });
                }
                if s.segments == 0 {
                    return Err(ValidationError::ZeroSegments { step, rank: src });
                }
                if s.is_local() {
                    continue;
                }
                if sending[src] {
                    return Err(ValidationError::MultipleSends { step, rank: src });
                }
                if receiving[dst] {
                    return Err(ValidationError::MultipleReceives { step, rank: dst });
                }
                sending[src] = true;
                receiving[dst] = true;
            }
        }
        Ok(())
    }

    /// Deadlock-freedom: Kahn's elimination over the [`DepGraph`] the DES
    /// executes — read edges, chained-write edges and the per-rank FIFO
    /// queues. Every edge of a derived graph points to a higher send index
    /// (see [`crate::deps`]), so this holds for whatever `compile` emits.
    pub fn check_acyclic(&self) -> Result<(), ValidationError> {
        let graph = DepGraph::derive(self.c);
        let total = graph.num_sends();
        let degrees = graph.read_indegrees().iter().zip(graph.write_indegrees());
        let mut indeg: Vec<u32> = degrees.map(|(reads, writes)| reads + writes).collect();
        let mut behind = vec![None; total];
        for pair in (0..graph.num_ranks()).flat_map(|r| graph.rank_sends(r).windows(2)) {
            behind[pair[0] as usize] = Some(pair[1]);
            indeg[pair[1] as usize] += 1;
        }
        let roots = (0..total as u32).filter(|&i| indeg[i as usize] == 0);
        let (mut ready, mut resolved): (Vec<u32>, usize) = (roots.collect(), 0);
        while let Some(i) = ready.pop() {
            resolved += 1;
            let (reads, writes) = (graph.read_dependents(i), graph.write_dependents(i));
            for &d in reads.iter().chain(writes).chain(&behind[i as usize]) {
                indeg[d as usize] -= 1;
                if indeg[d as usize] == 0 {
                    ready.push(d);
                }
            }
        }
        let cyclic = ValidationError::CyclicDependency { resolved, total };
        (resolved == total).then_some(()).ok_or(cyclic)
    }

    /// Byte and message conservation against an independently measured
    /// traffic report (`bine_net::traffic::TrafficReport`, passed as its
    /// `total_bytes` and `messages` so the crates stay layered): the
    /// schedule's own accounting at vector size `n` must agree exactly.
    pub fn check_traffic(
        &self,
        n: u64,
        reported_bytes: u64,
        reported_messages: u64,
    ) -> Result<(), ValidationError> {
        let mut bytes = 0u64;
        let mut messages = 0u64;
        for step in 0..self.c.num_steps() {
            for i in self.c.step_send_range(step) {
                let s = self.c.send(i);
                if s.is_local() {
                    continue;
                }
                messages += 1;
                bytes += self.c.send_bytes(i, n);
            }
        }
        if bytes != reported_bytes {
            return Err(ValidationError::ByteMismatch {
                schedule_bytes: bytes,
                reported_bytes,
            });
        }
        if messages != reported_messages {
            return Err(ValidationError::MessageCountMismatch {
                schedule_messages: messages,
                reported_messages,
            });
        }
        Ok(())
    }

    /// Full delivery: the replay with no fault. Every send must be backed by
    /// possession, no reduce may double-count a contribution, and every rank
    /// must end holding what the collective's [`Contract`] requires of it.
    pub fn check_delivery(&self) -> Result<(), ValidationError> {
        let replay = self.replay(&[], &[]);
        if let Some(violation) = replay.violation {
            return Err(violation);
        }
        let unmet = |rank| Some((rank, self.first_unsatisfied(&replay.held, rank)?));
        match (0..self.c.num_ranks).find_map(unmet) {
            Some((rank, block)) => Err(ValidationError::Incomplete { rank, block }),
            None => Ok(()),
        }
    }

    /// Survivability: which ranks can still end with what they require when
    /// `dead` ranks crash before the collective starts. A dead rank's sends
    /// and receives never happen; surviving ranks wedge on the first send
    /// they cannot back with data (single send port — everything behind it
    /// is stuck too), and the cascade is propagated to a fixed point.
    pub fn survivors(&self, dead: &[usize]) -> CompletionReport {
        self.completion_with_dropped(&[], dead)
    }

    /// The generalised survivability engine used by the DES stall diagnosis:
    /// `dropped_sends` are the global send indices a faulted run refused to
    /// start (crashed endpoints *and* severed links), `dead` the crashed
    /// ranks. Propagates the wedge cascade over the remaining sends and
    /// reports per-rank completion.
    pub fn completion_with_dropped(
        &self,
        dropped_sends: &[u32],
        dead: &[usize],
    ) -> CompletionReport {
        let p = self.c.num_ranks;
        let replay = self.replay(dropped_sends, dead);
        let mut dead: Vec<usize> = dead.iter().copied().filter(|&d| d < p).collect();
        dead.sort_unstable();
        dead.dedup();
        let (completed, stalled): (Vec<usize>, Vec<usize>) = (0..p)
            .filter(|rank| dead.binary_search(rank).is_err())
            .partition(|&rank| self.first_unsatisfied(&replay.held, rank).is_none());
        CompletionReport {
            dead,
            completed,
            stalled,
            undeliverable: replay.undeliverable,
        }
    }

    /// The one symbolic replay (two-phase per step, exactly like the
    /// executors: sends read the pre-step state, payloads apply per
    /// destination in schedule order), seeded with what the [`Contract`] says
    /// every rank starts with. `dropped_sends` and the sends of `dead` ranks
    /// never happen; with neither, this is the strict replay up to the first
    /// violation, which is where the no-fault reading stops looking.
    fn replay(&self, dropped_sends: &[u32], dead: &[usize]) -> Replay {
        let c = self.c;
        let p = c.num_ranks;
        let mut dropped = vec![false; c.num_sends()];
        for &i in dropped_sends {
            dropped[i as usize] = true;
        }
        let mut is_dead = vec![false; p];
        for &d in dead.iter().filter(|&&d| d < p) {
            is_dead[d] = true;
        }
        let contract = Contract::from(c);
        let granularity = Granularity::from(c);
        let mut held: Possession = (0..p)
            .map(|rank| {
                let own = |block| match contract.source(block) {
                    Some(_) => (block, RankSet::full(p)),
                    None => (block, RankSet::singleton(p, rank)),
                };
                contract
                    .initial(rank, granularity)
                    .into_iter()
                    .map(own)
                    .collect()
            })
            .collect();
        let mut wedged = vec![false; p];
        let mut undeliverable = Vec::new();
        let mut violation = None;
        let mut staged: Vec<Option<Vec<RankSet>>> = Vec::new();
        for step in 0..c.num_steps() {
            let range = c.step_send_range(step);
            staged.clear();
            staged.resize(range.len(), None);
            // Gather phase over the pre-step state. The step's sends are
            // sorted by (src, order), so iterating the range visits each
            // rank's queue in FIFO order — a wedge stops everything behind
            // it in the rank's queue.
            for i in range.clone() {
                let s = c.send(i);
                let (rank, dst) = (s.src as usize, s.dst as usize);
                let crashed = dropped[i] || is_dead[rank] || is_dead[dst];
                if !crashed && !wedged[rank] {
                    let payload = c.block_index_slice(s).iter().map(|&bi| {
                        let block = c.blocks().resolve(bi);
                        held[rank].get(&block).cloned().ok_or(block)
                    });
                    match payload.collect() {
                        Ok(payload) => {
                            staged[i - range.start] = Some(payload);
                            continue;
                        }
                        // The data this send needs never arrived: the rank
                        // waits forever — wedged from here on.
                        Err(block) => {
                            wedged[rank] = true;
                            let unbacked = ValidationError::MissingBlock { step, rank, block };
                            violation.get_or_insert(unbacked);
                        }
                    }
                }
                let reason = if crashed {
                    StallReason::Crashed
                } else {
                    StallReason::Blocked
                };
                undeliverable.push(PendingRecv {
                    step,
                    src: rank,
                    dst,
                    reason,
                });
            }
            // Apply phase: per destination, in schedule order, only the
            // sends that actually happened.
            for (dst, held_dst) in held.iter_mut().enumerate() {
                for &si in c.recvs_to(step, dst) {
                    let Some(payload) = staged[si as usize - range.start].as_ref() else {
                        continue;
                    };
                    let s = c.send(si as usize);
                    for (&bi, set) in c.block_index_slice(s).iter().zip(payload) {
                        let block = c.blocks().resolve(bi);
                        match held_dst.get_mut(&block) {
                            Some(acc) if s.kind == TransferKind::Reduce => {
                                if let Some(duplicated) = acc.first_common(set) {
                                    violation.get_or_insert(
                                        ValidationError::DuplicateContribution {
                                            step,
                                            rank: dst,
                                            block,
                                            duplicated,
                                        },
                                    );
                                }
                                acc.union_in_place(set);
                            }
                            _ => {
                                held_dst.insert(block, set.clone());
                            }
                        }
                    }
                }
            }
        }
        Replay {
            held,
            undeliverable,
            violation,
        }
    }

    /// A block `rank` must end with but does not hold fully combined — of the
    /// last alternative the [`Contract`] offers — or `None` if one of the
    /// alternatives is satisfied.
    fn first_unsatisfied(&self, held: &Possession, rank: usize) -> Option<BlockId> {
        let p = self.c.num_ranks;
        let incomplete = |block: &BlockId| !held[rank].get(block).is_some_and(|set| set.is_full(p));
        let mut unmet = None;
        for alternative in Contract::from(self.c).required(rank) {
            unmet = Some(alternative.into_iter().find(incomplete)?);
        }
        unmet
    }
}

impl Schedule {
    /// Compiles the schedule and runs [`ScheduleValidator::validate`] on it
    /// (well-formedness, acyclicity, delivery) — the one-call form for
    /// schedule producers and their tests.
    pub fn validate(&self) -> Result<(), ValidationError> {
        ScheduleValidator::new(&self.compile()).validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::build;
    use crate::collectives::{allreduce, AllreduceAlg};
    use crate::schedule::{Collective, Counts, Step};

    #[test]
    fn every_catalog_algorithm_validates() {
        let mut validated = 0;
        for request in crate::walk(&[16]) {
            if let Some(sched) = request.build() {
                assert_eq!(sched.validate(), Ok(()), "{}", request.label());
                validated += 1;
            }
        }
        assert!(validated > 900, "only {validated} schedules validated");
    }

    #[test]
    fn segmented_and_irregular_schedules_validate() {
        let seg = build(Collective::Allreduce, "bine-large+seg4", 16, 0).unwrap();
        assert_eq!(seg.validate(), Ok(()));
        use crate::{build_irregular, SizeDist};
        for dist in SizeDist::ALL {
            let counts = dist.counts(8, 0);
            let sched =
                build_irregular(Collective::Gather, "traff", 8, 0, &counts).expect("gatherv");
            assert_eq!(sched.validate(), Ok(()), "gatherv {}", dist.name());
        }
    }

    #[test]
    fn dropping_a_send_is_rejected_as_incomplete() {
        let mut sched = allreduce(8, AllreduceAlg::RecursiveDoubling);
        let last = sched.steps.len() - 1;
        sched.steps[last].remove(0);
        match sched.validate() {
            Err(ValidationError::Incomplete { .. }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn swapping_steps_is_rejected() {
        // Swapping the first and last step of a recursive-doubling allreduce
        // makes a rank reduce the same contribution twice (or ship a block it
        // does not yet hold, for algorithms with data-dependent sends).
        let mut sched = allreduce(8, AllreduceAlg::BineLarge);
        let last = sched.steps.len() - 1;
        sched.steps.swap(0, last);
        match sched.validate() {
            Err(
                ValidationError::MissingBlock { .. }
                | ValidationError::DuplicateContribution { .. }
                | ValidationError::Incomplete { .. },
            ) => {}
            other => panic!("expected a delivery failure, got {other:?}"),
        }
    }

    #[test]
    fn double_send_is_rejected_as_ill_formed() {
        let mut sched = Schedule::new(4, Collective::Broadcast, "test", 0);
        let mut step = Step::new();
        step.push(0, 1, [BlockId::Full], TransferKind::Copy);
        step.push(0, 2, [BlockId::Full], TransferKind::Copy);
        sched.push_step(step);
        let compiled = sched.compile();
        match ScheduleValidator::new(&compiled).check_well_formed() {
            Err(ValidationError::MultipleSends { step: 0, rank: 0 }) => {}
            other => panic!("expected MultipleSends, got {other:?}"),
        }
    }

    #[test]
    fn traffic_conservation_catches_corrupted_counts() {
        // A count-aware tree moves segment `i` across depth(i) edges, so
        // per-segment hop counts differ and a corrupted count cannot cancel
        // out of the total the way it can in a ring (where every segment
        // travels the same p − 1 hops).
        let p = 8;
        let counts = crate::SizeDist::Linear.counts(p, 0);
        let sched = crate::build_irregular(Collective::Gather, "traff", p, 0, &counts).unwrap();
        let n = 1 << 16;
        let true_bytes = sched.total_network_bytes(n);
        let true_msgs = sched.messages().filter(|(_, m)| !m.is_local()).count() as u64;
        let compiled = sched.compile();
        assert_eq!(
            ScheduleValidator::new(&compiled).check_traffic(n, true_bytes, true_msgs),
            Ok(())
        );
        // Corrupt one count: the schedule's accounting shifts away from the
        // measured report.
        let mut corrupted = counts.per_rank().to_vec();
        corrupted[1] *= 3;
        let bad = sched.clone().with_counts(Counts::new(corrupted));
        let bad_compiled = bad.compile();
        match ScheduleValidator::new(&bad_compiled).check_traffic(n, true_bytes, true_msgs) {
            Err(ValidationError::ByteMismatch { .. }) => {}
            other => panic!("expected ByteMismatch, got {other:?}"),
        }
    }

    #[test]
    fn catalog_schedules_are_acyclic_and_byte_conserving() {
        for collective in Collective::ALL {
            let sched = build(
                collective,
                crate::catalog::bine_default(collective, false),
                16,
                0,
            )
            .expect("bine default");
            let compiled = sched.compile();
            let v = ScheduleValidator::new(&compiled);
            assert_eq!(v.check_acyclic(), Ok(()));
            let n = 1 << 20;
            assert_eq!(
                v.check_traffic(
                    n,
                    sched.total_network_bytes(n),
                    sched.messages().filter(|(_, m)| !m.is_local()).count() as u64
                ),
                Ok(()),
                "{collective:?}"
            );
        }
    }

    #[test]
    fn survivors_reports_the_stall_cut_of_a_tree_broadcast() {
        // Killing an interior rank of a broadcast tree stalls its whole
        // subtree; the root's side keeps completing.
        let sched = build(Collective::Broadcast, "binomial-dd", 16, 0).unwrap();
        let compiled = sched.compile();
        let v = ScheduleValidator::new(&compiled);
        let healthy = v.survivors(&[]);
        assert_eq!(healthy.completed.len(), 16);
        assert!(healthy.undeliverable.is_empty());

        let report = v.survivors(&[1]);
        assert_eq!(report.dead, vec![1]);
        assert!(!report.stalled.is_empty(), "rank 1's subtree must stall");
        assert!(report
            .undeliverable
            .iter()
            .any(|r| r.reason == StallReason::Crashed));
        // Every stalled rank is a survivor that never got the root's data.
        for &r in &report.stalled {
            assert_ne!(r, 1);
        }
        // Completed + stalled partition the survivors.
        assert_eq!(report.completed.len() + report.stalled.len(), 15);
    }

    #[test]
    fn survivors_of_an_allreduce_stall_but_the_diagnosis_is_exact() {
        let sched = allreduce(8, AllreduceAlg::RecursiveDoubling);
        let compiled = sched.compile();
        let v = ScheduleValidator::new(&compiled);
        let report = v.survivors(&[3]);
        // A crashed rank's contribution can never reach anyone: every
        // survivor stalls.
        assert_eq!(report.completed, Vec::<usize>::new());
        assert_eq!(report.stalled.len(), 7);
        assert!(report.all_survivors_complete() == report.stalled.is_empty());
    }

    #[test]
    fn rank_map_is_a_dense_order_preserving_bijection() {
        let map = RankMap::dense(8, &[2, 5]);
        assert_eq!(map.num_old(), 8);
        assert_eq!(map.num_survivors(), 6);
        assert_eq!(map.survivors(), &[0, 1, 3, 4, 6, 7]);
        assert_eq!(map.new_rank(3), Some(2));
        assert_eq!(map.new_rank(2), None);
        assert!(map.is_dead(5));
        for new in 0..map.num_survivors() {
            assert_eq!(map.new_rank(map.old_rank(new)), Some(new));
        }
    }

    #[test]
    #[should_panic(expected = "nothing to shrink to")]
    fn rank_map_rejects_killing_everyone() {
        let _ = RankMap::dense(2, &[0, 1]);
    }
}
