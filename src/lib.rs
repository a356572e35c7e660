//! # bine
//!
//! Meta-crate of the Bine Trees reproduction: re-exports the five workspace
//! crates so the examples under `examples/` and the integration tests under
//! `tests/` can be expressed against one dependency. See the individual
//! crates for the real API surface:
//!
//! * [`core`] — negabinary arithmetic, Bine trees/butterflies,
//! * [`sched`] — explicit communication schedules, the pipelining
//!   (segmentation) transform and the schedule compiler,
//! * [`exec`] — zero-copy executors over real data,
//! * [`net`] — topology models, traffic accounting and the two time models
//!   (synchronous barrier + discrete-event simulation),
//! * [`tune`] — the autotuning selection layer: offline decision-table
//!   generation and the runtime `ServiceSelector`,
//! * [`bench`](mod@bench) — the paper's table/figure harness and the CI
//!   perf and decision-table gates.
//!
//! `docs/ARCHITECTURE.md` walks through how the crates fit together.
//!
//! For day-to-day use, `use bine::prelude::*;` pulls in the blessed
//! surface of the whole stack — see [`prelude`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use bine_bench as bench;
pub use bine_core as core;
pub use bine_exec as exec;
pub use bine_net as net;
pub use bine_sched as sched;
pub use bine_tune as tune;

pub mod prelude {
    //! The blessed one-stop surface of the stack: everything the
    //! build-a-schedule → compile → execute / simulate / select flow needs,
    //! re-exported under one `use bine::prelude::*;`.
    //!
    //! * **construct** — [`build`] and the per-collective constructors
    //!   ([`allreduce()`], [`broadcast()`], …) produce a [`Schedule`]; pipelining
    //!   is `Schedule::segmented`, compilation `Schedule::compile`;
    //! * **execute** — [`Cluster`] for the MPI-like facade over plain buffers,
    //!   [`ExecutorPool`] (+ the fallible [`ExecError`] surface) to run a
    //!   [`CompiledSchedule`] over [`BlockStore`]s directly;
    //! * **model** — [`SimRequest`] drives both time models over a
    //!   [`Topology`] ([`FatTree`], [`Dragonfly`], [`Torus`]) and an
    //!   [`Allocation`], optionally with a [`FaultPlan`];
    //! * **select & adapt** — [`ServiceSelector`] answers from committed
    //!   [`DecisionTable`]s; [`ObservedTiming`] feedback plus
    //!   [`AdaptPolicy`] / [`Reevaluator`] drive the online adaptive overlay.
    //!
    //! Anything deeper (negabinary internals, traffic accounting, the tuner
    //! itself) stays behind the individual crates' full paths on purpose:
    //! the prelude is the stable, documented core.

    pub use bine_exec::comm::Cluster;
    pub use bine_exec::{Block, BlockStore, ExecError, ExecutorPool, Workload};
    pub use bine_net::sim::{SimArena, SimOutcome, SimReport, SimRequest};
    pub use bine_net::{
        Allocation, CostModel, Dragonfly, FatTree, FaultPlan, FaultSpec, LogHistogram,
        ObservedTiming, TimingSource, Topology, Torus,
    };
    pub use bine_sched::collectives::{
        allgather, allreduce, alltoall, broadcast, reduce, reduce_scatter, AllgatherAlg,
        AllreduceAlg, AlltoallAlg, BroadcastAlg, ReduceAlg, ReduceScatterAlg,
    };
    pub use bine_sched::{
        algorithms, bine_default, binomial_default, build, Collective, CompiledSchedule, Schedule,
    };
    pub use bine_tune::{
        AdaptPolicy, AdaptiveOverlay, DecisionTable, OverlayEntry, Reevaluator, ServiceSelector,
    };
}
