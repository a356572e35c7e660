//! # bine-sched
//!
//! Communication schedules for the eight collectives of the Bine Trees paper
//! (allgather, allreduce, reduce-scatter, alltoall, broadcast, gather,
//! reduce, scatter), each available both in its Bine variant (Sec. 4) and in
//! the baseline variants the paper compares against (binomial trees,
//! recursive doubling/halving, ring, Bruck, Swing).
//!
//! A [`schedule::Schedule`] is an explicit, step-by-step list of
//! point-to-point messages with block-level data semantics. The same
//! schedule object is
//!
//! * executed over real data by `bine-exec` (correctness),
//! * mapped onto Dragonfly / Dragonfly+ / fat-tree / torus models by
//!   `bine-net` (global-link traffic and modelled runtime).
//!
//! ## Quick example
//!
//! ```
//! use bine_sched::collectives::{allreduce, AllreduceAlg};
//!
//! let p = 64;
//! let bine = allreduce(p, AllreduceAlg::BineLarge);
//! let rd = allreduce(p, AllreduceAlg::RecursiveDoubling);
//! // Both are logarithmic, but the large-vector algorithm moves far fewer
//! // bytes per rank.
//! let n = 1 << 20;
//! assert!(bine.max_bytes_sent_by_rank(n) < rd.max_bytes_sent_by_rank(n));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod collectives;
pub mod compile;
pub mod contract;
pub mod deps;
pub mod noncontig;
pub mod plan;
pub mod provider;
pub mod schedule;
pub mod segment;
pub mod synth;
pub mod validate;

pub use catalog::{
    algorithms, bine_default, binomial_default, build, build_irregular, has_algorithm,
    irregular_algorithms, is_linear, linear_default, split_segments, tuned_name, walk, AlgorithmId,
    Request,
};
pub use collectives::{SizeDist, IRREGULAR_COLLECTIVES};
pub use compile::{BlockInterner, CompiledSchedule, CompiledSend, Payloads, SlotLayout, Visit};
pub use contract::{Contract, Granularity};
pub use deps::DepGraph;
pub use noncontig::NonContigStrategy;
pub use plan::{MemoryPlan, WalkOrder};
pub use provider::{ProviderSet, ViewSource};
pub use schedule::{
    BlockHasher, BlockId, BlockMap, Collective, Counts, MessageRef, Schedule, Step, TransferKind,
};
pub use synth::{
    is_synth_name, is_synthesizable, synth_algorithms, SynthSpec, TopoEdge, TopologyView,
    SYNTH_PREFIX,
};
pub use validate::{
    CompletionReport, PendingRecv, RankMap, ScheduleValidator, StallReason, ValidationError,
};
