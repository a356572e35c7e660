//! A synchronous alpha–beta–congestion cost model.
//!
//! The paper measures wall-clock time on four production systems; this
//! reproduction substitutes a cost model that charges exactly the effects the
//! paper attributes performance differences to:
//!
//! * **latency (alpha)** per message, higher over global links;
//! * **serialisation (beta)**: the bytes offered to each link divided by the
//!   link bandwidth — so several messages sharing an oversubscribed global
//!   link within a step slow each other down (the Fig. 1 effect);
//! * **non-contiguity overhead**: a per-extra-segment charge modelling
//!   datatype packing / multiple sends (Sec. 4.3.1, Appendix B);
//! * **local work**: memory-copy time for buffer permutations and a
//!   reduction term proportional to the bytes each rank has to combine.
//!
//! Absolute numbers are not meant to match the paper's machines; the *shape*
//! of comparisons (who wins where, where crossovers sit) is.

use bine_sched::{Schedule, TransferKind};

use crate::allocation::Allocation;
use crate::topology::Topology;

/// Bytes per microsecond for one GiB/s (shared with the discrete-event
/// simulator in [`crate::sim`], which must use identical unit conversions to
/// reproduce this model in the congestion-free limit).
pub(crate) const GIB_PER_US: f64 = 1024.0 * 1024.0 * 1024.0 / 1e6;

/// Tunable parameters of the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed per-message software/NIC overhead in microseconds.
    pub alpha_us: f64,
    /// Additional per-message overhead for every memory segment beyond the
    /// first (non-contiguous sends, Sec. 4.3.1).
    pub segment_overhead_us: f64,
    /// Local memory-copy bandwidth (GiB/s), used for local permutation steps.
    pub copy_bandwidth_gib_s: f64,
    /// Local reduction bandwidth (GiB/s): bytes a rank can combine per unit
    /// time when applying a reduction operator to received data.
    pub reduce_bandwidth_gib_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alpha_us: 1.3,
            segment_overhead_us: 0.35,
            copy_bandwidth_gib_s: 28.0,
            reduce_bandwidth_gib_s: 20.0,
        }
    }
}

/// Breakdown of the modelled execution time of one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Total modelled time in microseconds.
    pub total_us: f64,
    /// Portion attributed to per-message latency and segment overheads.
    pub latency_us: f64,
    /// Portion attributed to link serialisation (bandwidth/congestion).
    pub bandwidth_us: f64,
    /// Portion attributed to local copies and reductions.
    pub compute_us: f64,
}

/// What the step loop reads of one message, whichever form it is stored in
/// (a [`bine_sched::MessageRef`] or a [`CostSummary`] row).
struct MessageView {
    src: usize,
    dst: usize,
    bytes: u64,
    segments: u32,
    reduce: bool,
}

impl CostModel {
    /// The one step loop of the model, over each step's messages as
    /// [`MessageView`]s; [`CostModel::estimate`] and
    /// [`CostModel::estimate_summary`] are its two adapters. Steps are
    /// synchronous: a step finishes when its slowest rank/link finishes; the
    /// schedule time is the sum of its steps, an empty one adding nothing.
    fn estimate_steps<S: IntoIterator<Item = MessageView>>(
        &self,
        steps: impl Iterator<Item = S>,
        topo: &dyn Topology,
        alloc: &Allocation,
    ) -> CostBreakdown {
        let mut out = CostBreakdown::default();
        let mut link_bytes = vec![0u64; topo.num_links()];
        let mut link_msgs = vec![0u32; topo.num_links()];
        let mut touched: Vec<usize> = Vec::new();
        let mut route = Vec::new();

        for step in steps {
            let mut max_latency = 0.0f64;
            let mut max_local = 0.0f64;
            let mut max_reduce = 0.0f64;
            for l in touched.drain(..) {
                link_bytes[l] = 0;
                link_msgs[l] = 0;
            }

            for m in step {
                let bytes = m.bytes as f64;
                if m.src == m.dst {
                    max_local = max_local.max(bytes / (self.copy_bandwidth_gib_s * GIB_PER_US));
                    continue;
                }
                let (src, dst) = (alloc.node_of(m.src), alloc.node_of(m.dst));
                let mut path_latency = self.alpha_us
                    + self.segment_overhead_us * (m.segments.saturating_sub(1)) as f64;
                topo.route(src, dst, &mut route);
                for &link in &route {
                    path_latency += topo.link(link).latency_us;
                    if link_msgs[link] == 0 {
                        touched.push(link);
                    }
                    link_bytes[link] += m.bytes;
                    link_msgs[link] += 1;
                }
                max_latency = max_latency.max(path_latency);
                if m.reduce {
                    max_reduce = max_reduce.max(bytes / (self.reduce_bandwidth_gib_s * GIB_PER_US));
                }
            }

            // Serialisation on shared links: a link traversed by several
            // messages in the same step delivers them one after the other,
            // which both divides the effective bandwidth (the byte term
            // below) and queues the message headers (the latency term here).
            // This is the "limited number of concurrent communications" of
            // oversubscribed global links that Sec. 1 describes.
            let mut max_link_time = 0.0f64;
            let mut max_queueing = 0.0f64;
            for &l in &touched {
                let info = topo.link(l);
                let t = link_bytes[l] as f64 / (info.bandwidth_gib_s * GIB_PER_US);
                max_link_time = max_link_time.max(t);
                let q = (link_msgs[l].saturating_sub(1)) as f64 * info.latency_us;
                max_queueing = max_queueing.max(q);
            }
            let max_latency = max_latency + max_queueing;

            let step_bandwidth = max_link_time.max(max_local);
            out.latency_us += max_latency;
            out.bandwidth_us += step_bandwidth;
            out.compute_us += max_reduce;
            out.total_us += max_latency + step_bandwidth + max_reduce;
        }
        out
    }

    /// Estimates the execution time of `schedule` with `n`-byte vectors on
    /// `topo` under `alloc`. Steps are synchronous: a step finishes when its
    /// slowest rank/link finishes; the schedule time is the sum of its steps.
    pub fn estimate(
        &self,
        schedule: &Schedule,
        n: u64,
        topo: &dyn Topology,
        alloc: &Allocation,
    ) -> CostBreakdown {
        assert!(alloc.num_ranks() >= schedule.num_ranks);
        let steps = schedule.steps.iter().map(|step| {
            step.messages().map(|m| MessageView {
                src: m.src,
                dst: m.dst,
                bytes: schedule.message_bytes(m, n),
                segments: m.segments,
                reduce: m.kind == TransferKind::Reduce,
            })
        });
        self.estimate_steps(steps, topo, alloc)
    }

    /// Shorthand returning only the total modelled time in microseconds.
    pub fn time_us(
        &self,
        schedule: &Schedule,
        n: u64,
        topo: &dyn Topology,
        alloc: &Allocation,
    ) -> f64 {
        self.estimate(schedule, n, topo, alloc).total_us
    }
}

/// Compact byte-count summary of a schedule for repeated cost evaluation.
///
/// [`CostModel::estimate`] walks every block id of every message, which for
/// the largest segment-based schedules (p² block ids at thousands of ranks)
/// costs hundreds of milliseconds *per vector size*. All the model actually
/// needs per message is how many full-vector blocks and how many
/// `ceil(n/p)`-sized segment blocks it carries — two counts that are
/// independent of `n`. `CostSummary::of` extracts them once; "
/// [`CostModel::estimate_summary`] then reproduces `estimate` **bit for
/// bit** (the same u64 byte totals feed the same f64 operations in the
/// same order — property-tested in `tests/proptests.rs`) at O(messages)
/// per size instead of O(block ids).
#[derive(Debug, Clone)]
pub struct CostSummary {
    num_ranks: usize,
    /// Sum of the schedule's per-rank counts, for sizing the
    /// `counted_blocks` of irregular schedules. `0` for regular schedules
    /// (which carry no counted blocks).
    counts_total: u64,
    /// Per step, per message: everything `estimate` reads.
    steps: Vec<Vec<SummaryMessage>>,
}

#[derive(Debug, Clone)]
struct SummaryMessage {
    src: u32,
    dst: u32,
    reduce: bool,
    segments: u32,
    /// Number of [`bine_sched::BlockId::Full`] blocks carried.
    full_blocks: u64,
    /// Number of segment-sized (`Segment`/`Pairwise`) blocks carried at the
    /// uniform `ceil(n/p)` size.
    seg_blocks: u64,
    /// For irregular schedules: `Segment` blocks grouped by their per-rank
    /// count value as `(count, multiplicity)` pairs. Empty for regular
    /// schedules, where every segment block lands in `seg_blocks` instead.
    counted_blocks: Vec<(u64, u64)>,
}

impl SummaryMessage {
    fn bytes(&self, n: u64, p: usize, counts_total: u64) -> u64 {
        // Exactly Schedule::message_bytes: Full blocks contribute n each,
        // uniform segment blocks ceil(n/p) (min 1) each, counted segment
        // blocks their count-proportional share. Grouping by count value
        // preserves the u64 sum exactly (integer addition is associative),
        // which is what keeps estimate_summary bit-identical to estimate.
        let mut total = self.full_blocks * n + self.seg_blocks * n.div_ceil(p as u64).max(1);
        for &(count, mult) in &self.counted_blocks {
            total += mult * bine_sched::Counts::share_bytes(count, counts_total, n);
        }
        total
    }
}

impl CostSummary {
    /// Summarises one schedule.
    pub fn of(schedule: &Schedule) -> CostSummary {
        use bine_sched::BlockId;
        let counts = schedule.counts.as_ref();
        let steps = schedule
            .steps
            .iter()
            .map(|step| {
                step.messages()
                    .map(|m| {
                        let mut full_blocks = 0u64;
                        let mut seg_blocks = 0u64;
                        let mut by_count = std::collections::BTreeMap::new();
                        for b in m.blocks {
                            match (counts, b) {
                                (_, BlockId::Full) => full_blocks += 1,
                                (Some(c), BlockId::Segment(i)) => {
                                    *by_count.entry(c.count(*i as usize)).or_insert(0u64) += 1;
                                }
                                _ => seg_blocks += 1,
                            }
                        }
                        SummaryMessage {
                            src: m.src as u32,
                            dst: m.dst as u32,
                            reduce: m.kind == TransferKind::Reduce,
                            segments: m.segments,
                            full_blocks,
                            seg_blocks,
                            counted_blocks: by_count.into_iter().collect(),
                        }
                    })
                    .collect()
            })
            .collect();
        CostSummary {
            num_ranks: schedule.num_ranks,
            counts_total: counts.map_or(0, |c| c.total()),
            steps,
        }
    }

    /// Number of ranks of the summarised schedule.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }
}

impl CostModel {
    /// [`CostModel::estimate`] over a pre-built [`CostSummary`]: identical
    /// result (bit for bit), O(messages) per call.
    pub fn estimate_summary(
        &self,
        summary: &CostSummary,
        n: u64,
        topo: &dyn Topology,
        alloc: &Allocation,
    ) -> CostBreakdown {
        assert!(alloc.num_ranks() >= summary.num_ranks);
        let steps = summary.steps.iter().map(|step| {
            step.iter().map(|m| MessageView {
                src: m.src as usize,
                dst: m.dst as usize,
                bytes: m.bytes(n, summary.num_ranks, summary.counts_total),
                segments: m.segments,
                reduce: m.reduce,
            })
        });
        self.estimate_steps(steps, topo, alloc)
    }
}

/// Cheap candidate lower bounds for autotuning sweeps.
///
/// The tuner in `bine-tune` scores hundreds of (algorithm, segments)
/// candidates per grid point; most of them lose badly, and proving that they
/// lose is much cheaper than scoring them. `LowerBounds` precomputes the two
/// extremal link properties of a topology once and then answers, in O(1),
/// "what is the least this candidate could possibly cost?" from two closed
/// forms the catalog provides without building the schedule
/// (`bine_sched::catalog::AlgorithmId::{min_steps, min_rank_bytes}`):
///
/// * **synchronous model** ([`LowerBounds::sync_time_us`]): every nonempty
///   network step costs at least `alpha + min link latency`, and the total
///   serialisation time is at least the busiest rank's sent bytes over the
///   fastest link — both true for any step-synchronous schedule whose ranks
///   occupy distinct nodes.
/// * **discrete-event model** ([`LowerBounds::des_time_us`]): barriers are
///   gone, so only one message latency is guaranteed, but the single send
///   port still serialises the busiest rank's bytes at no more than the
///   fastest link's rate.
///
/// A candidate whose lower bound already exceeds the incumbent best score
/// can be skipped without ever building or costing its schedule, which is
/// what keeps full decision-table regeneration inside a CI-friendly budget.
/// Both bounds are *validated* (never above the true score) by the catalog
/// metadata tests in `bine-sched` and the tuner proptests.
#[derive(Debug, Clone, Copy)]
pub struct LowerBounds {
    /// Per-message software overhead (from the [`CostModel`]).
    pub alpha_us: f64,
    /// Smallest per-link latency in the topology.
    pub min_link_latency_us: f64,
    /// Highest link bandwidth in the topology, converted to bytes/us.
    pub max_link_bytes_per_us: f64,
}

impl LowerBounds {
    /// Precomputes the bounds' ingredients for one (model, topology) pair.
    pub fn new(model: &CostModel, topo: &dyn Topology) -> Self {
        Self {
            alpha_us: model.alpha_us,
            min_link_latency_us: topo.min_link_latency_us(),
            max_link_bytes_per_us: topo.max_link_bandwidth_gib_s() * GIB_PER_US,
        }
    }

    /// Lower-bounds the synchronous-model time of any schedule with at least
    /// `steps` nonempty network steps whose busiest rank sends at least
    /// `max_rank_bytes` bytes (ranks on distinct nodes).
    pub fn sync_time_us(&self, steps: u64, max_rank_bytes: u64) -> f64 {
        steps as f64 * (self.alpha_us + self.min_link_latency_us)
            + max_rank_bytes as f64 / self.max_link_bytes_per_us
    }

    /// Lower-bounds the discrete-event makespan of the same schedule: one
    /// guaranteed message latency (dependency chains are not assumed) plus
    /// the busiest send port's serialisation time.
    pub fn des_time_us(&self, max_rank_bytes: u64) -> f64 {
        self.alpha_us
            + self.min_link_latency_us
            + max_rank_bytes as f64 / self.max_link_bytes_per_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Dragonfly, FatTree};
    use bine_sched::collectives::{allreduce, broadcast, AllreduceAlg, BroadcastAlg};

    #[test]
    fn distance_halving_broadcast_is_faster_on_oversubscribed_fat_tree() {
        // The Fig. 1 motivation: fewer bytes on the shared uplinks means a
        // lower modelled runtime for the distance-halving variant.
        let topo = FatTree::figure1();
        let alloc = Allocation::block(8);
        let model = CostModel::default();
        let n = 8 << 20;
        let dd = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
        let dh = broadcast(8, 0, BroadcastAlg::BinomialDistanceHalving);
        assert!(
            model.time_us(&dh, n, &topo, &alloc) < model.time_us(&dd, n, &topo, &alloc),
            "distance halving should win on the Fig. 1 example"
        );
    }

    #[test]
    fn latency_dominates_small_vectors_and_bandwidth_dominates_large_ones() {
        let topo = Dragonfly::lumi();
        let alloc = Allocation::block(256);
        let model = CostModel::default();
        let sched = allreduce(256, AllreduceAlg::BineLarge);
        let small = model.estimate(&sched, 256, &topo, &alloc);
        let large = model.estimate(&sched, 256 << 20, &topo, &alloc);
        assert!(small.latency_us > small.bandwidth_us);
        assert!(large.bandwidth_us > large.latency_us);
    }

    #[test]
    fn ring_beats_logarithmic_algorithms_only_for_large_vectors_at_small_scale() {
        // Sec. 5.2.2: the ring allreduce is usually more effective only for
        // large vectors at small node counts.
        let topo = Dragonfly::lumi();
        let model = CostModel::default();
        let p = 16;
        let alloc = Allocation::block(p);
        let ring = allreduce(p, AllreduceAlg::Ring);
        let bine_small = allreduce(p, AllreduceAlg::BineSmall);
        // Small vector: the ring's p-1 latency-bound steps lose badly.
        assert!(
            model.time_us(&bine_small, 256, &topo, &alloc)
                < model.time_us(&ring, 256, &topo, &alloc)
        );
    }

    #[test]
    fn more_steps_cost_more_latency() {
        let topo = Dragonfly::lumi();
        let alloc = Allocation::block(64);
        let model = CostModel::default();
        let rd = allreduce(64, AllreduceAlg::RecursiveDoubling);
        let ring = allreduce(64, AllreduceAlg::Ring);
        let rd_cost = model.estimate(&rd, 64, &topo, &alloc);
        let ring_cost = model.estimate(&ring, 64, &topo, &alloc);
        assert!(ring_cost.latency_us > rd_cost.latency_us);
    }
}
