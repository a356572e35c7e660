//! The three warm serving workloads: every op is one collective executed
//! over real data through `ServiceSelector::execute_on` on the process-wide
//! `ExecutorPool` — `choose → compiled handle → pool run → finals`.
//!
//! Irregular (v-variant) ops cannot go through `execute_on` (a `(nodes,
//! bytes)` key carries no per-rank counts), so they take the path a caller
//! takes today: `choose_irregular_at → build_irregular → compile` once in
//! set-up, held by the caller, then `ExecutorPool::run` per request.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use bine_exec::{compiled, sequential, verify, BlockStore, ExecutorPool};
use bine_net::ObservedTiming;
use bine_sched::{build_irregular, Collective, CompiledSchedule, Schedule, SizeDist, TransferKind};
use bine_tune::{tuned_name, ServiceSelector};

use super::{
    cells_of, grid, tuned_schedule, Cell, Counters, Kind, Request, Shape, Workload, SYSTEM,
};
use crate::trace::Tracer;

/// Largest request the warm round also compares bit for bit with the
/// reference interpreter, which is quadratic in the rank count and deep-copies
/// every payload it moves: at 4 MiB x 64 ranks it takes 3-5 s per request, at
/// 16 MiB x 64 ranks it would also own the peak RSS.
const REFERENCE_MAX_RANKS: usize = 64;
const REFERENCE_MAX_BYTES: u64 = 1 << 20;

struct Op {
    request: Request,
    /// `Some` for an irregular op: the size distribution its counts follow.
    dist: Option<SizeDist>,
    /// The schedule the tuned pick resolves to, built by the harness through
    /// the same public functions the library uses: needed to lay out the
    /// input blocks and to drive the reference interpreter.
    schedule: Schedule,
    data: bine_exec::Workload,
    input: Vec<BlockStore>,
    shape: Shape,
}

pub struct Serve {
    ops: Vec<Op>,
    selector: Option<ServiceSelector>,
    system: usize,
    /// Caller-held compiled schedules of the irregular ops (`None` for
    /// regular ops, which the selector caches itself).
    held: Vec<Option<Arc<CompiledSchedule>>>,
    staged: Vec<Option<Vec<BlockStore>>>,
    finals: Vec<Option<Vec<BlockStore>>>,
    /// Digest of each op's finals as verified in the warm round.
    verified: Vec<Option<u64>>,
}

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

impl Serve {
    /// Small vectors: per-request overheads only.
    pub fn latency() -> Result<Serve, String> {
        use Collective::*;
        let mut requests = grid(
            &[Allreduce, Allgather, ReduceScatter, Broadcast],
            &[16, 64, 256],
            &[256, 16 * KIB],
        );
        requests.extend(grid(&[Alltoall], &[16, 64], &[256, 16 * KIB]));
        Serve::new(requests, &[])
    }

    /// Large reducing collectives: working sets of 16–256 MiB against a
    /// 4 MiB L2, every reduction a copy-on-write of a shared input block.
    pub fn reduce() -> Result<Serve, String> {
        use Collective::*;
        Serve::new(
            grid(&[Allreduce, ReduceScatter], &[16, 64], &[MIB, 4 * MIB]),
            &[],
        )
    }

    /// Large non-reducing collectives plus the irregular ones: no arithmetic
    /// at all, payloads move as refcount bumps.
    pub fn moving() -> Result<Serve, String> {
        use Collective::*;
        let mut requests = grid(
            &[Allgather, Broadcast, Gather, Scatter],
            &[16, 64],
            &[MIB, 16 * MIB],
        );
        requests.extend(grid(&[Alltoall], &[16, 64], &[MIB]));
        // With nothing to compute, a round's time is its step and send count:
        // the 256-rank requests are most of it, and without them a round was
        // barely three probes long and its ratio as noisy as the probe.
        requests.extend(grid(
            &[Allgather, Broadcast, Gather, Scatter, Alltoall],
            &[256],
            &[MIB],
        ));
        let mut irregular = Vec::new();
        for nodes in [64, 256] {
            irregular.push((Gather, SizeDist::OneHeavy, nodes, MIB));
            irregular.push((Allgather, SizeDist::Linear, nodes, MIB));
        }
        Serve::new(requests, &irregular)
    }

    fn new(
        requests: Vec<Request>,
        irregular: &[(Collective, SizeDist, usize, u64)],
    ) -> Result<Serve, String> {
        // The harness's own selector, for input generation only; every
        // `setup` builds the measured one from scratch.
        let selector = ServiceSelector::load_default()?;
        let system = selector
            .system_index(SYSTEM)
            .ok_or_else(|| format!("no decision table for {SYSTEM}"))?;
        let mut ops = Vec::new();
        for request in requests {
            ops.push(Op::regular(&selector, system, request)?);
        }
        for &(collective, dist, nodes, bytes) in irregular {
            let request = Request {
                collective,
                nodes,
                bytes,
            };
            ops.push(Op::irregular(&selector, system, request, dist)?);
        }
        let n = ops.len();
        Ok(Serve {
            ops,
            selector: None,
            system,
            held: vec![None; n],
            staged: vec![None; n],
            finals: vec![None; n],
            verified: vec![None; n],
        })
    }

    fn selector(&self) -> Result<&ServiceSelector, String> {
        self.selector
            .as_ref()
            .ok_or_else(|| "op before setup".to_string())
    }
}

/// An order-independent digest of every payload bit of `finals` (block stores
/// iterate in hash order): per block a multiply-xor fold seeded by rank and
/// block id, summed over blocks.
fn digest(finals: &[BlockStore]) -> u64 {
    let mut total = 0u64;
    for (rank, store) in finals.iter().enumerate() {
        for (id, data) in store.iter() {
            let mut seed = DefaultHasher::new();
            (rank, id).hash(&mut seed);
            let mut acc = seed.finish();
            for x in data {
                acc = (acc ^ x.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            total = total.wrapping_add(acc);
        }
    }
    total
}

/// The irregular schedule the tuned pick for `dist` resolves to.
fn irregular_schedule(
    selector: &ServiceSelector,
    system: usize,
    r: Request,
    dist: SizeDist,
) -> Result<Schedule, String> {
    let pick = selector
        .choose_irregular_at(system, r.collective, dist, r.nodes, r.bytes)
        .ok_or_else(|| format!("no irregular pick for {r:?}"))?;
    let name = tuned_name(pick.algorithm, pick.segments);
    build_irregular(r.collective, &name, r.nodes, 0, &dist.counts(r.nodes, 0))
        .ok_or_else(|| format!("irregular pick {name} of {r:?} is not buildable"))
}

impl Op {
    fn regular(selector: &ServiceSelector, system: usize, r: Request) -> Result<Op, String> {
        let schedule = tuned_schedule(selector, system, r)?;
        let elems = (r.bytes / 8 / r.nodes as u64).max(1) as usize;
        Ok(Op::with_schedule(r, None, schedule, elems))
    }

    fn irregular(
        selector: &ServiceSelector,
        system: usize,
        r: Request,
        dist: SizeDist,
    ) -> Result<Op, String> {
        let schedule = irregular_schedule(selector, system, r, dist)?;
        let units = dist.counts(r.nodes, 0).total();
        let elems = (r.bytes / 8 / units).max(1) as usize;
        Ok(Op::with_schedule(r, Some(dist), schedule, elems))
    }

    fn with_schedule(
        request: Request,
        dist: Option<SizeDist>,
        schedule: Schedule,
        elems_per_block: usize,
    ) -> Op {
        let data = bine_exec::Workload::for_schedule(&schedule, elems_per_block);
        let input = data.initial_state(&schedule);
        let vector_bytes = data.vector_len() as u64 * 8;
        let shape = Shape {
            sends: schedule.messages().count() as u64,
            steps: schedule.num_steps() as u64,
            reduce_bytes: schedule
                .messages()
                .filter(|(_, m)| m.kind == TransferKind::Reduce)
                .map(|(_, m)| schedule.message_bytes(m, vector_bytes))
                .sum(),
            ..Shape::default()
        };
        Op {
            request,
            dist,
            schedule,
            data,
            input,
            shape,
        }
    }
}

impl Workload for Serve {
    fn kind(&self) -> Kind {
        Kind::Serving
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn cells(&self) -> Vec<Cell> {
        cells_of(
            self.ops
                .iter()
                .filter(|op| op.dist.is_none())
                .map(|op| op.request),
        )
    }

    fn setup(&mut self) -> Result<(), String> {
        let selector = ServiceSelector::load_default()?;
        self.system = selector
            .system_index(SYSTEM)
            .ok_or_else(|| format!("no decision table for {SYSTEM}"))?;
        for (op, held) in self.ops.iter().zip(&mut self.held) {
            if let Some(dist) = op.dist {
                let schedule = irregular_schedule(&selector, self.system, op.request, dist)?;
                *held = Some(Arc::new(schedule.compile()));
            }
        }
        self.selector = Some(selector);
        Ok(())
    }

    fn stage(&mut self, i: usize) {
        // A shallow clone: payload blocks are shared, so the executor's
        // reductions copy on write and the inputs survive every round.
        self.staged[i] = Some(self.ops[i].input.clone());
    }

    fn op(&mut self, i: usize, keep: bool) -> Result<(), String> {
        let input = self.staged[i].take().ok_or("op was not staged")?;
        let r = self.ops[i].request;
        let pool = ExecutorPool::global();
        let finals = match &self.held[i] {
            Some(compiled) => pool.run(compiled, input),
            None => self
                .selector()?
                .execute_on(pool, SYSTEM, r.collective, r.nodes, r.bytes, input)
                .ok_or_else(|| format!("{r:?} resolved to no executable pick"))?,
        };
        if keep {
            self.finals[i] = Some(finals);
        }
        Ok(())
    }

    fn op_traced(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let input = self.staged[i].take().ok_or("op was not staged")?;
        let r = self.ops[i].request;
        let (system, pool) = (self.system, ExecutorPool::global());
        let request = t.begin("request");
        let compiled = match &self.held[i] {
            Some(compiled) => Arc::clone(compiled),
            None => {
                let selector = self.selector()?;
                t.span("tune.choose", || {
                    selector.choose_at(system, r.collective, r.nodes, r.bytes)
                })
                .ok_or_else(|| format!("no pick for {r:?}"))?;
                t.span("tune.compiled", || {
                    selector.compiled_at(system, r.collective, r.nodes, r.bytes)
                })
                .ok_or_else(|| format!("{r:?} resolved to no executable pick"))?
            }
        };
        let start = Instant::now();
        let dense = t.span("exec.to_dense", || compiled::to_dense(&compiled, input));
        let dense = t.span("exec.run_dense", || pool.run_dense(&compiled, dense));
        let finals = t.span("exec.from_dense", || compiled::from_dense(&compiled, dense));
        if self.held[i].is_none() {
            let selector = self.selector()?;
            let timing = ObservedTiming::execution(start.elapsed().as_secs_f64() * 1e6);
            t.span("tune.observe", || {
                selector.observe_at(system, r.collective, r.nodes, r.bytes, timing)
            });
        }
        // The caller letting go of the result is part of the request too.
        t.span("exec.drop", || drop(finals));
        t.end(request);
        Ok(())
    }

    fn check(&mut self, i: usize, warm: bool) -> Result<(), String> {
        let op = &self.ops[i];
        let finals = self.finals[i].take().ok_or("no finals were kept")?;
        if !warm {
            // `verify` recomputes a p-term sum per element and rank — 4 s for
            // the largest allreduce alone — and the executors are
            // deterministic, so later rounds only have to reproduce, bit for
            // bit, what the warm round proved.
            return if Some(digest(&finals)) == self.verified[i] {
                Ok(())
            } else {
                Err(format!(
                    "{:?}: finals differ from the warm round's",
                    op.request
                ))
            };
        }
        verify(&op.data, &finals).map_err(|e| format!("{:?}: {e}", op.request))?;
        self.verified[i] = Some(digest(&finals));
        if op.request.nodes <= REFERENCE_MAX_RANKS && op.request.bytes <= REFERENCE_MAX_BYTES {
            let reference = sequential::run_reference(&op.schedule, op.input.clone());
            if reference != finals {
                return Err(format!(
                    "{:?}: finals differ from the reference interpreter",
                    op.request
                ));
            }
        }
        Ok(())
    }

    fn counters(&self) -> Counters {
        Counters::of(self.selector.as_ref())
    }

    fn shape(&self) -> Shape {
        let mut total = Shape::default();
        for op in &self.ops {
            total.sends += op.shape.sends;
            total.steps += op.shape.steps;
            total.reduce_bytes += op.shape.reduce_bytes;
        }
        total
    }
}
