//! # bine-net
//!
//! Network substrate for the Bine Trees reproduction: models of the four
//! topologies used in the paper's evaluation (Dragonfly/LUMI,
//! Dragonfly+/Leonardo, 2:1 oversubscribed fat tree/MareNostrum 5,
//! torus/Fugaku), rank-to-node allocations, per-link traffic accounting and
//! an alpha–beta–congestion cost model.
//!
//! Together with `bine-sched` this crate turns a communication schedule into
//! the two quantities the paper reports: **bytes over global links** and
//! **(modelled) runtime**.
//!
//! ## Quick example
//!
//! ```
//! use bine_net::allocation::Allocation;
//! use bine_net::topology::FatTree;
//! use bine_net::traffic::global_bytes;
//! use bine_sched::collectives::{broadcast, BroadcastAlg};
//!
//! // The Fig. 1 example: 8 nodes, two per leaf switch, 2:1 oversubscribed.
//! let topo = FatTree::figure1();
//! let alloc = Allocation::block(8);
//! let dd = broadcast(8, 0, BroadcastAlg::BinomialDistanceDoubling);
//! let dh = broadcast(8, 0, BroadcastAlg::BinomialDistanceHalving);
//! assert_eq!(global_bytes(&dd, 1000, &topo, &alloc), 6000);
//! assert_eq!(global_bytes(&dh, 1000, &topo, &alloc), 3000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
pub mod cost;
pub mod event;
pub mod fault;
pub mod feedback;
pub mod sim;
pub mod topology;
pub mod trace;
pub mod traffic;
pub mod view;

pub use allocation::Allocation;
pub use cost::{CostBreakdown, CostModel, CostSummary, LowerBounds};
pub use event::EventQueue;
pub use fault::{FaultError, FaultPlan, FaultSpec, LinkDown, LinkFault, RankCrash, Straggler};
pub use feedback::{LogHistogram, ObservedTiming, TimingSource};
pub use sim::{SimArena, SimOutcome, SimReport, SimRequest, StallReport};
pub use topology::{
    Dragonfly, DragonflyFlavour, FatTree, IdealFullMesh, LinkClass, LinkInfo, Topology, Torus,
};
pub use trace::{JobSample, JobTraceGenerator};
pub use traffic::{global_bytes, global_traffic_reduction, measure, TrafficReport};
pub use view::{
    fugaku_dims, synth_view, system_allocation, system_topology, system_view, TUNING_PLACEMENT_SEED,
};
