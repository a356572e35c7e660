//! `serve-cold`: what a cache miss costs. Every round builds a fresh
//! `ServiceSelector` over the already-parsed tables and asks it for twelve
//! compiled schedules it has never seen — segmented picks (`+segS`) and
//! topology-synthesized picks (`synth:multilevel`) included. Nothing is
//! executed.

use std::sync::Arc;

use bine_exec::{compiled, verify};
use bine_sched::{split_segments, Collective, CompiledSchedule};
use bine_tune::{default_tuning_dir, tuned_name, DecisionTable, ServiceSelector};

use super::{cells_of, tuned_schedule, Cell, Counters, Kind, Request, Shape, Workload, SYSTEM};
use crate::trace::{span_if, Tracer};

const MIB: u64 = 1 << 20;

pub struct Cold {
    requests: Vec<Request>,
    tables: Vec<DecisionTable>,
    selector: Option<ServiceSelector>,
    system: usize,
    kept: Vec<Option<Arc<CompiledSchedule>>>,
    /// `(sends, steps)` of every op's schedule as first compiled; later
    /// rounds must reproduce them exactly.
    expected: Vec<Option<(usize, usize)>>,
}

impl Cold {
    pub fn new() -> Cold {
        use Collective::*;
        let mut requests = Vec::new();
        for collective in [Allreduce, Allgather, ReduceScatter, Broadcast] {
            for (nodes, bytes) in [(256, 256), (256, MIB), (512, MIB)] {
                requests.push(Request {
                    collective,
                    nodes,
                    bytes,
                });
            }
        }
        let n = requests.len();
        Cold {
            requests,
            tables: Vec::new(),
            selector: None,
            system: 0,
            kept: vec![None; n],
            expected: vec![None; n],
        }
    }

    fn selector(&self) -> Result<&ServiceSelector, String> {
        self.selector
            .as_ref()
            .ok_or_else(|| "op before the round's selector was built".to_string())
    }
}

impl Workload for Cold {
    fn kind(&self) -> Kind {
        Kind::Cold
    }

    fn ops(&self) -> usize {
        self.requests.len()
    }

    fn cells(&self) -> Vec<Cell> {
        cells_of(self.requests.iter().copied())
    }

    /// Reads and parses the committed tables, as `load_default` would; the
    /// selector itself is rebuilt from them every round.
    fn setup(&mut self) -> Result<(), String> {
        let dir = default_tuning_dir()?;
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        self.tables.clear();
        for path in &paths {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            self.tables.push(
                DecisionTable::from_json(&text)
                    .map_err(|e| format!("cannot parse {}: {e}", path.display()))?,
            );
        }
        self.selector = None;
        Ok(())
    }

    fn round_start(&mut self, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
        // Assigning drops the previous round's selector and everything it
        // cached — inside the clock, like a service being restarted.
        let tables = &self.tables;
        self.selector = Some(span_if(&mut tracer, "tune.index", || {
            ServiceSelector::from_tables(tables)
        }));
        self.system = self
            .selector()?
            .system_index(SYSTEM)
            .ok_or_else(|| format!("no decision table for {SYSTEM}"))?;
        Ok(())
    }

    fn op(&mut self, i: usize, keep: bool) -> Result<(), String> {
        let r = self.requests[i];
        let compiled = self
            .selector()?
            .compiled_at(self.system, r.collective, r.nodes, r.bytes)
            .ok_or_else(|| format!("{r:?} resolved to no buildable pick"))?;
        let shape = (compiled.num_sends(), compiled.num_steps());
        if *self.expected[i].get_or_insert(shape) != shape {
            return Err(format!("{r:?}: the compiled schedule changed shape"));
        }
        if keep {
            self.kept[i] = Some(compiled);
        }
        Ok(())
    }

    /// The miss path taken apart: what `compiled_at` does on a miss, minus
    /// its cache, single-flight and breaker bookkeeping — that remainder is
    /// `tune.miss_overhead_us`.
    fn op_traced(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let r = self.requests[i];
        let selector = self.selector()?;
        let system = self.system;
        let request = t.begin("request");
        let pick = t
            .span("tune.choose", || {
                selector.choose_at(system, r.collective, r.nodes, r.bytes)
            })
            .ok_or_else(|| format!("no pick for {r:?}"))?;
        let name = tuned_name(pick.algorithm, pick.segments);
        let (base, chunks) = split_segments(&name);
        let providers = selector
            .index(system)
            .ok_or("system index out of range")?
            .providers();
        let mut schedule = t
            .span("sched.build", || {
                providers.build(r.collective, base, r.nodes, 0)
            })
            .ok_or_else(|| format!("pick {base} of {r:?} is not buildable"))?;
        if chunks > 1 {
            schedule = t.span("sched.segment", || schedule.segmented(chunks));
        }
        let compiled = t.span("sched.compile", || Arc::new(schedule.compile()));
        // `compiled_at` drops the schedule it built and keeps the handle in
        // its cache until the next round replaces the selector.
        t.span("sched.drop", || drop(schedule));
        t.end(request);
        drop(compiled);
        Ok(())
    }

    fn check(&mut self, i: usize, warm: bool) -> Result<(), String> {
        let r = self.requests[i];
        let compiled = self.kept[i].take().ok_or("no schedule was kept")?;
        if compiled.num_ranks != r.nodes || compiled.collective != r.collective {
            return Err(format!("{r:?}: got a schedule for something else"));
        }
        if !warm {
            return Ok(());
        }
        // Nothing executes in this workload, so prove once per run that what
        // the miss path compiled is a correct collective: rebuild the pick's
        // schedule for the input layout and run the *served* handle over it.
        let schedule = tuned_schedule(self.selector()?, self.system, r)?;
        let data = bine_exec::Workload::for_schedule(&schedule, 1);
        let finals = compiled::run(&compiled, data.initial_state(&schedule));
        verify(&data, &finals).map_err(|e| format!("{r:?} ({}): {e}", compiled.algorithm))
    }

    fn counters(&self) -> Counters {
        Counters::of(self.selector.as_ref())
    }

    fn shape(&self) -> Shape {
        let mut total = Shape::default();
        for (sends, steps) in self.expected.iter().flatten() {
            total.sends += *sends as u64;
            total.steps += *steps as u64;
        }
        total
    }
}
