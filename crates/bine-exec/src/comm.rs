//! A high-level, MPI-like facade over the schedule generators and the pool
//! executor.
//!
//! [`Cluster`] is the entry point a downstream user would adopt: it simulates
//! `p` ranks on [`ExecutorPool::global`] and exposes the eight collectives
//! over plain `Vec<f64>` buffers, with the algorithm selectable per call. The
//! quickstart example and the integration tests are written against this API.
//!
//! No method knows which block forms an algorithm moves: the compiled
//! schedule says ([`bine_sched::Granularity`]), and its [`Contract`] says
//! which rank starts with which blocks and which blocks make up each rank's
//! result.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use bine_sched::collectives::{
    allgather as allgather_sched, allreduce as allreduce_sched, alltoall as alltoall_sched,
    broadcast as broadcast_sched, gather as gather_sched, reduce as reduce_sched,
    reduce_scatter as reduce_scatter_sched, scatter as scatter_sched, AllgatherAlg, AllreduceAlg,
    AlltoallAlg, BroadcastAlg, GatherAlg, ReduceAlg, ReduceScatterAlg, ScatterAlg,
};
use bine_sched::{BlockId, Collective, CompiledSchedule, Contract, Schedule};

use crate::pool::ExecutorPool;
use crate::state::BlockStore;
use crate::workload::initial_stores;

/// A simulated cluster of `p` ranks executing collectives over real data.
///
/// `p` must be a power of two — the same restriction the paper's evaluation
/// uses ("we report results only for power-of-two node counts"). Nothing
/// folds other rank counts onto one: off the powers of two only the rows the
/// catalog marks `any p` build (`bine_sched::catalog::RankRule`), through
/// `bine_sched::build`.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    num_ranks: usize,
}

/// What one collective call left on every rank — the blocks its contract
/// keeps — and the schedule whose contract orders them into the result.
struct Finals {
    compiled: Arc<CompiledSchedule>,
    stores: Vec<BlockStore>,
}

impl Finals {
    /// The blocks that make up `rank`'s result: the first alternative the
    /// contract requires of it that it holds entirely, in the contract's
    /// order (nothing for a rank of which nothing is required).
    fn blocks(&self, rank: usize) -> Vec<&[f64]> {
        let held = |blocks: Vec<BlockId>| {
            let values = blocks.iter().map(|id| self.stores[rank].get(id));
            values.collect::<Option<Vec<_>>>()
        };
        let mut alternatives = Contract::from(&*self.compiled).required(rank).into_iter();
        let found = alternatives.find_map(held);
        found.unwrap_or_else(|| panic!("rank {rank} ended without its result"))
    }

    /// Every rank's result as one vector.
    fn vectors(&self) -> Vec<Vec<f64>> {
        (0..self.stores.len())
            .map(|rank| self.blocks(rank).concat())
            .collect()
    }
}

impl Cluster {
    /// Creates a cluster of `num_ranks` simulated ranks.
    ///
    /// # Panics
    /// Panics if `num_ranks` is not a power of two.
    pub fn new(num_ranks: usize) -> Self {
        assert!(
            num_ranks.is_power_of_two(),
            "Cluster currently requires a power-of-two rank count, got {num_ranks}"
        );
        Self { num_ranks }
    }

    /// Number of simulated ranks.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn check_inputs(&self, inputs: &[Vec<f64>]) {
        assert_eq!(
            inputs.len(),
            self.num_ranks,
            "one input buffer per rank required"
        );
        assert!(
            inputs.iter().all(|v| v.len() == inputs[0].len()),
            "all input buffers must have equal length"
        );
    }

    /// The part of the vector `v` that `block` names: all of it, or one of
    /// `p` equal segments.
    fn part(&self, v: &[f64], block: BlockId) -> Vec<f64> {
        let BlockId::Segment(i) = block else {
            return v.to_vec();
        };
        assert_eq!(
            v.len() % self.num_ranks,
            0,
            "vector length {} must be divisible by the rank count {}",
            v.len(),
            self.num_ranks
        );
        let seg = v.len() / self.num_ranks;
        v[i as usize * seg..(i as usize + 1) * seg].to_vec()
    }

    /// Returns the compiled schedule for one collective call, building and
    /// compiling it only on a cache miss — steady-state calls (e.g. an
    /// allreduce per training iteration) do no per-call schedule-sized work.
    ///
    /// The cache is keyed on `(collective, algorithm name, rank count,
    /// root)`, which is sound *only* because this is private to [`Cluster`]
    /// and every schedule comes from the catalog generators, which are
    /// deterministic functions of exactly that tuple. Do not route
    /// caller-constructed schedules through here.
    fn compiled_for(
        collective: Collective,
        algorithm: &str,
        num_ranks: usize,
        root: usize,
        build: impl FnOnce() -> Schedule,
    ) -> Arc<CompiledSchedule> {
        type Key = (Collective, String, usize, usize);
        static CACHE: OnceLock<Mutex<HashMap<Key, Arc<CompiledSchedule>>>> = OnceLock::new();
        /// Bound on cached schedules; collectives at a handful of rank
        /// counts stay far below this, and a sweep over many sizes must not
        /// grow the process without limit.
        const MAX_CACHED: usize = 256;
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (collective, algorithm.to_string(), num_ranks, root);
        if let Some(hit) = cache
            .lock()
            .expect("compiled-schedule cache poisoned")
            .get(&key)
        {
            return Arc::clone(hit);
        }
        // Build and compile outside the lock.
        let schedule = build();
        debug_assert_eq!(
            (schedule.collective, schedule.num_ranks, schedule.root),
            (collective, num_ranks, root),
            "cache key does not describe the built schedule"
        );
        let compiled = Arc::new(schedule.compile());
        let mut cache = cache.lock().expect("compiled-schedule cache poisoned");
        if cache.len() >= MAX_CACHED {
            cache.clear();
        }
        Arc::clone(cache.entry(key).or_insert(compiled))
    }

    /// One collective call: every rank starts with the blocks the schedule's
    /// contract gives it, at the granularity the schedule moves, each filled
    /// by `input(rank, block)`.
    fn run(
        &self,
        collective: Collective,
        algorithm: &str,
        root: usize,
        build: impl FnOnce() -> Schedule,
        input: impl Fn(usize, BlockId) -> Vec<f64>,
    ) -> Finals {
        let compiled = Self::compiled_for(collective, algorithm, self.num_ranks, root, build);
        let initial = initial_stores(&Contract::from(&*compiled), (&*compiled).into(), input);
        let stores = ExecutorPool::global().run(&compiled, initial);
        Finals { compiled, stores }
    }

    /// Allreduce: returns, for every rank, the elementwise sum of all ranks'
    /// inputs. For segment-based algorithms the vector length must be a
    /// multiple of the rank count.
    pub fn allreduce(&self, inputs: &[Vec<f64>], alg: AllreduceAlg) -> Vec<Vec<f64>> {
        self.check_inputs(inputs);
        let build = || allreduce_sched(self.num_ranks, alg);
        let input = |rank: usize, block| self.part(&inputs[rank], block);
        self.run(Collective::Allreduce, alg.name(), 0, build, input)
            .vectors()
    }

    /// Broadcast: every rank receives a copy of `data` from `root`.
    pub fn broadcast(&self, data: &[f64], root: usize, alg: BroadcastAlg) -> Vec<Vec<f64>> {
        let build = || broadcast_sched(self.num_ranks, root, alg);
        let input = |_, block| self.part(data, block);
        self.run(Collective::Broadcast, alg.name(), root, build, input)
            .vectors()
    }

    /// Reduce: returns the elementwise sum of all inputs, delivered at `root`.
    pub fn reduce(&self, inputs: &[Vec<f64>], root: usize, alg: ReduceAlg) -> Vec<f64> {
        self.check_inputs(inputs);
        let build = || reduce_sched(self.num_ranks, root, alg);
        let input = |rank: usize, block| self.part(&inputs[rank], block);
        let finals = self.run(Collective::Reduce, alg.name(), root, build, input);
        finals.blocks(root).concat()
    }

    /// Allgather: every rank receives the concatenation of all ranks'
    /// contributions (in rank order).
    pub fn allgather(&self, inputs: &[Vec<f64>], alg: AllgatherAlg) -> Vec<Vec<f64>> {
        self.check_inputs(inputs);
        let build = || allgather_sched(self.num_ranks, alg);
        let input = |rank: usize, _| inputs[rank].clone();
        self.run(Collective::Allgather, alg.name(), 0, build, input)
            .vectors()
    }

    /// Reduce-scatter: rank `r` receives segment `r` of the elementwise sum
    /// of all inputs.
    pub fn reduce_scatter(&self, inputs: &[Vec<f64>], alg: ReduceScatterAlg) -> Vec<Vec<f64>> {
        self.check_inputs(inputs);
        let build = || reduce_scatter_sched(self.num_ranks, alg);
        let input = |rank: usize, block| self.part(&inputs[rank], block);
        self.run(Collective::ReduceScatter, alg.name(), 0, build, input)
            .vectors()
    }

    /// Gather: `root` receives the concatenation of all ranks' contributions.
    pub fn gather(&self, inputs: &[Vec<f64>], root: usize, alg: GatherAlg) -> Vec<f64> {
        self.check_inputs(inputs);
        let build = || gather_sched(self.num_ranks, root, alg);
        let input = |rank: usize, _| inputs[rank].clone();
        let finals = self.run(Collective::Gather, alg.name(), root, build, input);
        finals.blocks(root).concat()
    }

    /// Scatter: rank `r` receives segment `r` of the root's vector.
    pub fn scatter(&self, data: &[f64], root: usize, alg: ScatterAlg) -> Vec<Vec<f64>> {
        let build = || scatter_sched(self.num_ranks, root, alg);
        let input = |_, block| self.part(data, block);
        self.run(Collective::Scatter, alg.name(), root, build, input)
            .vectors()
    }

    /// Alltoall: `inputs[r][d]` is the block rank `r` sends to rank `d`;
    /// the result `out[r][o]` is the block rank `r` received from rank `o`.
    pub fn alltoall(&self, inputs: &[Vec<Vec<f64>>], alg: AlltoallAlg) -> Vec<Vec<Vec<f64>>> {
        assert_eq!(inputs.len(), self.num_ranks);
        assert!(inputs.iter().all(|v| v.len() == self.num_ranks));
        let build = || alltoall_sched(self.num_ranks, alg);
        let input = |rank: usize, block| match block {
            BlockId::Pairwise { dest, .. } => inputs[rank][dest as usize].clone(),
            _ => unreachable!("an alltoall starts with pairwise blocks only"),
        };
        let finals = self.run(Collective::Alltoall, alg.name(), 0, build, input);
        (0..self.num_ranks)
            .map(|rank| {
                finals
                    .blocks(rank)
                    .into_iter()
                    .map(<[f64]>::to_vec)
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_allreduce_sums_across_ranks() {
        let cluster = Cluster::new(8);
        let inputs: Vec<Vec<f64>> = (0..8)
            .map(|r| (0..16).map(|j| (r * 16 + j) as f64).collect())
            .collect();
        let expected: Vec<f64> = (0..16)
            .map(|j| (0..8).map(|r| (r * 16 + j) as f64).sum())
            .collect();
        for alg in [
            AllreduceAlg::BineSmall,
            AllreduceAlg::BineLarge,
            AllreduceAlg::Ring,
        ] {
            let out = cluster.allreduce(&inputs, alg);
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v, &expected, "{alg:?} rank {r}");
            }
        }
    }

    #[test]
    fn cluster_broadcast_copies_the_root_buffer() {
        let cluster = Cluster::new(4);
        let data: Vec<f64> = (0..8).map(|x| x as f64 * 1.5).collect();
        for alg in [BroadcastAlg::BineTree, BroadcastAlg::BineScatterAllgather] {
            let out = cluster.broadcast(&data, 2, alg);
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v, &data, "{alg:?} rank {r}");
            }
        }
    }

    #[test]
    fn cluster_alltoall_transposes_blocks() {
        let cluster = Cluster::new(4);
        let inputs: Vec<Vec<Vec<f64>>> = (0..4)
            .map(|r| (0..4).map(|d| vec![(r * 10 + d) as f64]).collect())
            .collect();
        let out = cluster.alltoall(&inputs, AlltoallAlg::Bine);
        for (r, row) in out.iter().enumerate() {
            for (o, block) in row.iter().enumerate() {
                assert_eq!(block, &vec![(o * 10 + r) as f64]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn cluster_rejects_non_power_of_two() {
        Cluster::new(12);
    }
}
