//! # bine-tune
//!
//! The autotuning selection layer of the Bine Trees reproduction: the
//! paper's headline result (Figs. 9–11) is that the *best* collective
//! algorithm flips between ring, recursive-doubling and the Bine variants
//! with node count, message size and topology — so a production library
//! must not just *enumerate* those algorithms (`bine-sched`'s catalog) but
//! *choose* between them. This crate automates the choice:
//!
//! * [`score`] — the [`score::Scorer`]: the one path from an algorithm name
//!   to a modelled time (synchronous model or discrete-event simulator) at
//!   a grid point, with the one set of schedule caches the tuner, the
//!   paper harness and the sweeps of `bine-bench` share;
//! * [`tuner`] — the offline [`tuner::Tuner`]: a pruned sweep of the full
//!   catalog over a system's `(collective, nodes, size, segments)` grid,
//!   scored with the synchronous cost model and refined with the
//!   discrete-event simulator, emitting a compact [`table::DecisionTable`];
//! * [`table`] — the decision-table model and the committed `tuning/*.json`
//!   serialisation (one file per paper system);
//! * [`selector`] — the runtime lookup [`selector::SelectorIndex`]:
//!   `choose(collective, nodes, bytes)` answers in two allocation-free
//!   binary searches over one system's pre-indexed table;
//! * [`service`] — the [`service::ServiceSelector`]: those lookups `&self`
//!   end-to-end over shared indexes, a sharded compiled-schedule cache with
//!   single-flight compilation, graceful degradation under compile failures
//!   (bounded waits, capped-backoff retries, a per-entry circuit breaker
//!   serving the binomial baseline), and execution on
//!   [`bine_exec::ExecutorPool`];
//! * [`adapt`] — online adaptive tuning over the serving layer: observed
//!   per-pick timings vs the committed modelled scores, single-flight
//!   challenger re-evaluation on divergence, and an epoch-versioned
//!   override overlay that never mutates the committed tables;
//! * [`gate`] — the CI drift gate that regenerates the tables on every
//!   push and fails on any silent change of policy.
//!
//! ## Quick example
//!
//! ```
//! use bine_sched::Collective;
//! use bine_tune::{DecisionTable, SelectorIndex};
//!
//! // Normally loaded from the committed tuning/*.json; built inline here.
//! let table = DecisionTable::from_json(
//!     "{\n  \"system\": \"Demo\",\n  \"entries\": [\n    \
//!      {\"collective\": \"allreduce\", \"nodes\": 16, \"bytes\": 32, \
//!       \"pick\": \"recursive-doubling\", \"model\": \"sync\", \"time_us\": 12.0},\n    \
//!      {\"collective\": \"allreduce\", \"nodes\": 16, \"bytes\": 1048576, \
//!       \"pick\": \"bine-large+seg8\", \"model\": \"des\", \"time_us\": 90.0}\n  ]\n}\n",
//! )
//! .unwrap();
//! let index = SelectorIndex::from_table(&table);
//!
//! // Small vectors: latency-bound, recursive doubling. Large vectors: the
//! // pipelined Bine algorithm — including off-grid sizes, by floor lookup.
//! let small = index.choose(Collective::Allreduce, 16, 256).unwrap();
//! assert_eq!((small.algorithm, small.segments), ("recursive-doubling", 1));
//! let large = index.choose(Collective::Allreduce, 16, 3 << 20).unwrap();
//! assert_eq!((large.algorithm, large.segments), ("bine-large", 8));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod gate;
pub mod score;
pub mod selector;
pub mod service;
pub mod table;
pub mod tuner;

pub use adapt::{AdaptPolicy, AdaptiveOverlay, CandidatesFn, OverlayEntry, Reevaluator, ScoreFn};
pub use bine_sched::tuned_name;
pub use gate::{drift, DriftOutcome, DriftRow};
pub use score::{Scorer, TunePoint};
pub use selector::{default_tuning_dir, SelectorIndex, Tuned};
pub use service::{
    fallback_pick, CompileAttempt, CompileHook, DegradePolicy, Recovery, Served, ServiceSelector,
    ServiceStats, FALLBACK_SMALL_VECTOR_THRESHOLD,
};
pub use table::{slug, DecisionTable, Entry, ScoreModel};
pub use tuner::{
    affordable, candidates, irregular_scores, pruned_best, Candidate, CellBest, Target, Tuner,
    TunerConfig, DES_ALLTOALL_MAX_NODES, DES_MAX_NODES, DES_TOP_K, MIN_SEGMENT_BYTES,
    SEGMENT_COUNTS,
};
