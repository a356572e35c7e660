//! Schedule generators for the eight collectives of the paper, each with the
//! Bine algorithm of Sec. 4 and the baselines it is compared against in
//! Sec. 5.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod bcast;
pub mod builders;
pub mod gather;
pub mod irregular;
pub mod reduce;
pub mod reduce_scatter;
pub mod scatter;

pub use allgather::{allgather, AllgatherAlg};
pub use allreduce::{allreduce, AllreduceAlg};
pub use alltoall::{alltoall, AlltoallAlg};
pub use bcast::{broadcast, BroadcastAlg};
pub use gather::{gather, GatherAlg};
pub use irregular::{SizeDist, IRREGULAR_COLLECTIVES};
pub use reduce::{reduce, ReduceAlg};
pub use reduce_scatter::{reduce_scatter, ReduceScatterAlg};
pub use scatter::{scatter, ScatterAlg};
