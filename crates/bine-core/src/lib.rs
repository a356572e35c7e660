//! # bine-core
//!
//! Core algorithms of *"Bine Trees: Enhancing Collective Operations by
//! Optimizing Communication Locality"* (De Sensi et al., SC '25):
//!
//! * [`negabinary`] — base −2 rank arithmetic (`rank2nb` / `nb2rank`),
//! * [`tree`] — distance-halving and distance-doubling Bine trees and the
//!   binomial trees they are compared against,
//! * [`butterfly`] — Bine butterflies and standard recursive
//!   doubling/halving butterflies,
//! * [`distance`] — modular distance and the theoretical 2/3 distance ratio
//!   (Eq. 2),
//! * [`block`] — the bit-reversal block permutation of Sec. 4.3.1,
//! * [`torus`] — the torus-optimized, multi-port construction of Appendix D,
//! * [`nonpow2`] — the power-of-two fold of Appendix C, described but not
//!   yet applied by any builder.
//!
//! These building blocks are purely combinatorial: they know nothing about
//! message sizes, topologies or data. The `bine-sched` crate turns them into
//! communication schedules for the eight collectives, `bine-net` evaluates
//! those schedules on network models, and `bine-exec` runs them over real
//! data to verify correctness.
//!
//! ## Quick example
//!
//! ```
//! use bine_core::tree::{build_tree, Tree, TreeKind};
//! use bine_core::distance::modular_distance;
//!
//! let p = 16;
//! let bine = build_tree(TreeKind::BineDistanceHalving, p, 0);
//! let binomial = build_tree(TreeKind::BinomialDistanceDoubling, p, 0);
//!
//! // Total modular distance covered by the broadcast edges.
//! let total = |t: &Tree| -> usize {
//!     (0..p)
//!         .filter(|&r| r != t.root())
//!         .map(|r| modular_distance(r, t.parent(r).unwrap(), p))
//!         .sum()
//! };
//! assert!(total(&bine) < total(&binomial));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod butterfly;
pub mod distance;
pub mod negabinary;
pub mod nonpow2;
pub mod torus;
pub mod tree;

pub use butterfly::{Butterfly, ButterflyKind};
pub use distance::modular_distance;
pub use nonpow2::Pow2Fold;
pub use torus::{TorusButterfly, TorusShape};
pub use tree::{build_tree, Tree, TreeKind};
