//! # bine-exec
//!
//! Executors that run the communication schedules of `bine-sched` over real
//! floating-point data, standing in for the MPI processes of the paper's
//! evaluation. A caller's payloads are shared [`state::Block`]s
//! (`Arc<Vec<f64>>`), which a run never writes; its sums live in one arena
//! of its payload table, where the handle's memory plan puts them.
//! Transfers copy indices, and a store reads every payload as `&[f64]`.
//!
//! * [`sequential`] — the seed interpreter [`sequential::run_reference`],
//!   the semantic definition the compiled walk is cross-checked
//!   bit-identical against in both orders,
//! * [`compiled`] — the fast single-threaded path: one body over the groups
//!   of [`bine_sched::CompiledSchedule::walk`], step by step or, for large
//!   reductions, block by block, over dense per-rank state (one slot per
//!   block a rank touches, no hashing in the inner loop),
//! * [`pool`] — [`pool::ExecutorPool`]: the compiled path on the calling
//!   thread, with panics and dead-rank stalls returned as [`ExecError`],
//! * [`mod@verify`] — golden-result checks of the MPI post-condition of every
//!   collective,
//! * [`comm`] — the [`comm::Cluster`] facade: an MPI-like API over plain
//!   `Vec<f64>` buffers, running on the pool with cached compiled schedules.
//!
//! ## Quick example
//!
//! ```
//! use bine_exec::comm::Cluster;
//! use bine_sched::collectives::AllreduceAlg;
//!
//! let cluster = Cluster::new(8);
//! let inputs: Vec<Vec<f64>> = (0..8).map(|r| vec![r as f64; 16]).collect();
//! let result = cluster.allreduce(&inputs, AllreduceAlg::BineLarge);
//! assert_eq!(result[0], vec![28.0; 16]); // 0 + 1 + ... + 7
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comm;
pub mod compiled;
pub mod pool;
pub mod sequential;
pub mod state;
pub mod verify;
pub mod workload;

pub use comm::Cluster;
pub use compiled::DenseState;
pub use pool::{ExecError, ExecutorPool};
pub use state::{Block, BlockStore};
pub use verify::{run_and_verify, verify, VerifyResult};
pub use workload::Workload;
