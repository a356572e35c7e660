//! The dependency graph of a compiled schedule.
//!
//! A [`CompiledSchedule`] fixes *what* is sent in which step; [`DepGraph`]
//! states what each send has to wait for once the steps are no longer
//! global barriers. Its nodes are the schedule's sends, by global send
//! index, and it has three kinds of edges:
//!
//! * **read edges** — a send waits for the latest write, from a step earlier
//!   than its own, into each block it carries at its sender. Writes of the
//!   send's own step are not waited for: a step's sends read the pre-step
//!   state, exactly as the executors do.
//! * **chained-write edges** — a write (the receive, reduction or local move
//!   a send ends in) counts as landed only once the previous write into each
//!   of its blocks at its destination has, earlier sends of the same step
//!   included. A reduce target accumulates one contribution per step and a
//!   reader must wait for all of them; chaining makes the latest write
//!   transitively cover every earlier one, so a read edge per block is
//!   enough.
//! * **FIFO edges** — a rank issues its sends through one port in
//!   `(step, order)` order, which is ascending global send index. They are
//!   stored as the per-rank queues rather than as adjacency.
//!
//! **Every edge points to a higher global send index.** Sends are numbered
//! step by step, so a read edge (from an earlier step), a chained-write edge
//! and a FIFO edge (both following schedule order) all do. The graph of any
//! [`CompiledSchedule`] — whatever built the schedule it was compiled from —
//! is therefore acyclic, and an event loop that retires sends as their
//! in-degrees reach zero cannot deadlock on it.
//!
//! [`DepGraph::derive`] is the one derivation. The discrete-event simulator
//! in `bine-net` (both its implementations) executes the graph, and
//! [`ScheduleValidator::check_acyclic`](crate::ScheduleValidator::check_acyclic)
//! eliminates it.

use crate::compile::CompiledSchedule;

/// One kind of edge in CSR form: the sends waiting on each send, and how many
/// sends each send waits on.
#[derive(Debug, Clone)]
struct Edges {
    indegree: Vec<u32>,
    /// Per send: range into `dependents`. Length `num_sends + 1`.
    offsets: Vec<u32>,
    dependents: Vec<u32>,
}

impl Edges {
    fn new(num_sends: usize) -> Self {
        Self {
            indegree: vec![0; num_sends],
            offsets: vec![0; num_sends + 1],
            dependents: Vec::new(),
        }
    }

    /// First walk: one more edge `writer → dependent`.
    fn count(&mut self, writer: u32, dependent: u32) {
        self.offsets[writer as usize + 1] += 1;
        self.indegree[dependent as usize] += 1;
    }

    /// Between the walks: turns the counts into offsets and sizes
    /// `dependents`.
    fn seal(&mut self) {
        // An edge stands for at least one payload entry of its dependent,
        // and those fit (`compile`).
        for w in 1..self.offsets.len() {
            self.offsets[w] += self.offsets[w - 1];
        }
        self.dependents = vec![0; self.offsets[self.indegree.len()] as usize];
    }

    /// Second walk: the next dependent of `writer`, placed through its
    /// offset, which then points one further.
    fn fill(&mut self, writer: u32, dependent: u32) {
        let at = &mut self.offsets[writer as usize];
        self.dependents[*at as usize] = dependent;
        *at += 1;
    }

    /// After the second walk every offset points where the next send's
    /// dependents start: shifts them back one send.
    fn unshift(&mut self) {
        self.offsets.copy_within(..self.indegree.len(), 1);
        self.offsets[0] = 0;
    }

    fn dependents(&self, send: u32) -> &[u32] {
        let lo = self.offsets[send as usize] as usize;
        let hi = self.offsets[send as usize + 1] as usize;
        &self.dependents[lo..hi]
    }
}

/// What every send of a [`CompiledSchedule`] waits for (see the module docs
/// for the three edge kinds and the forward-edge invariant).
#[derive(Debug, Clone)]
pub struct DepGraph {
    reads: Edges,
    writes: Edges,
    /// Per rank: range into `rank_sends`. Length `num_ranks + 1`.
    rank_offsets: Vec<u32>,
    rank_sends: Vec<u32>,
}

impl DepGraph {
    /// Derives the graph of `compiled`: count, prefix-sum, fill, so what it
    /// allocates is the graph's own arrays plus one `Walk`'s scratch for
    /// both passes — nothing per send and nothing per rank.
    pub fn derive(compiled: &CompiledSchedule) -> Self {
        let (p, num_sends) = (compiled.num_ranks, compiled.num_sends());
        let mut rank_offsets = Vec::with_capacity(p + 1);
        let mut rank_sends = Vec::with_capacity(num_sends);
        rank_offsets.push(0);
        for rank in 0..p {
            for step in 0..compiled.num_steps() {
                rank_sends.extend(compiled.send_range_from(step, rank).map(|i| i as u32));
            }
            rank_offsets.push(rank_sends.len() as u32);
        }

        let (mut reads, mut writes) = (Edges::new(num_sends), Edges::new(num_sends));
        let mut walk = Walk::new(compiled);
        walk.for_each_edge(
            compiled,
            |w, i| reads.count(w, i),
            |w, i| writes.count(w, i),
        );
        reads.seal();
        writes.seal();
        walk.for_each_edge(compiled, |w, i| reads.fill(w, i), |w, i| writes.fill(w, i));
        reads.unshift();
        writes.unshift();
        Self {
            reads,
            writes,
            rank_offsets,
            rank_sends,
        }
    }

    /// Number of sends — the graph's nodes.
    pub fn num_sends(&self) -> usize {
        self.reads.indegree.len()
    }

    /// Number of ranks — the graph's FIFO queues.
    pub fn num_ranks(&self) -> usize {
        self.rank_offsets.len() - 1
    }

    /// Per send: how many writes it waits for before it may start.
    pub fn read_indegrees(&self) -> &[u32] {
        &self.reads.indegree
    }

    /// Per send: how many earlier writes its own write is chained behind.
    pub fn write_indegrees(&self) -> &[u32] {
        &self.writes.indegree
    }

    /// The sends that wait for `send`'s write before they may start,
    /// ascending.
    pub fn read_dependents(&self, send: u32) -> &[u32] {
        self.reads.dependents(send)
    }

    /// The sends whose writes are chained directly behind `send`'s,
    /// ascending.
    pub fn write_dependents(&self, send: u32) -> &[u32] {
        self.writes.dependents(send)
    }

    /// The sends `rank` issues, in the order its port issues them: each
    /// waits for the one before it (the FIFO edges).
    pub fn rank_sends(&self, rank: usize) -> &[u32] {
        let lo = self.rank_offsets[rank] as usize;
        let hi = self.rank_offsets[rank + 1] as usize;
        &self.rank_sends[lo..hi]
    }
}

/// The scratch of an edge walk over one schedule, held across both of
/// [`DepGraph::derive`]'s passes.
struct Walk {
    /// Per block: the send that last wrote it at the rank being walked.
    latest_write: Vec<u32>,
    /// The blocks the rank being walked has written, to reset.
    written: Vec<u32>,
    /// The step's receives at the rank being walked, in global send order.
    landing: Vec<u32>,
    /// The distinct latest writers of one send's blocks.
    writers: Vec<u32>,
}

impl Walk {
    const UNWRITTEN: u32 = u32::MAX;

    fn new(compiled: &CompiledSchedule) -> Self {
        Self {
            latest_write: vec![Self::UNWRITTEN; compiled.num_blocks()],
            written: Vec::with_capacity(compiled.num_blocks()),
            landing: Vec::new(),
            writers: Vec::new(),
        }
    }

    /// Calls `read(writer, dependent)` once per read edge and
    /// `write(writer, dependent)` once per chained-write edge of `compiled`.
    /// All edges into one send come together, and the edges out of one
    /// writer come in ascending order of their dependents.
    ///
    /// The walk is rank-major. Both edge kinds of a rank are decided by the
    /// writes into that rank's blocks alone, so one latest-writer table over
    /// the schedule's blocks serves every rank in turn; sized per rank
    /// instead it would be `p` times that for the blocks each rank never
    /// touches.
    fn for_each_edge(
        &mut self,
        compiled: &CompiledSchedule,
        mut read: impl FnMut(u32, u32),
        mut write: impl FnMut(u32, u32),
    ) {
        let Self {
            latest_write,
            written,
            landing,
            writers,
        } = self;
        // The distinct latest writers of the blocks `send` carries.
        let writers_of = |latest_write: &[u32], send: usize, writers: &mut Vec<u32>| {
            writers.clear();
            for &b in compiled.block_index_slice(compiled.send(send)) {
                let w = latest_write[b as usize];
                if w != Self::UNWRITTEN && !writers.contains(&w) {
                    writers.push(w);
                }
            }
        };
        for rank in 0..compiled.num_ranks {
            for step in 0..compiled.num_steps() {
                // The step's sends read the pre-step state...
                for i in compiled.send_range_from(step, rank) {
                    writers_of(latest_write, i, writers);
                    writers.iter().for_each(|&w| read(w, i as u32));
                }
                // ...then its writes land, chained in global send order (the
                // receive lists are in schedule order).
                landing.clear();
                landing.extend_from_slice(compiled.recvs_to(step, rank));
                landing.sort_unstable();
                for &i in landing.iter() {
                    writers_of(latest_write, i as usize, writers);
                    writers.iter().for_each(|&w| write(w, i));
                    for &b in compiled.block_index_slice(compiled.send(i as usize)) {
                        if latest_write[b as usize] == Self::UNWRITTEN {
                            written.push(b);
                        }
                        latest_write[b as usize] = i;
                    }
                }
            }
            for b in written.drain(..) {
                latest_write[b as usize] = Self::UNWRITTEN;
            }
        }
    }
}
