//! Multi-chip cluster scale-out: fleet serving and data-parallel
//! training over a modeled interconnect.
//!
//! One SW26010 chip is the unit every lower layer simulates. This
//! module composes N of them:
//!
//! * `router` — deterministic consistent-hash routing of serving
//!   requests by shape (plan caches stay hot per chip) with
//!   least-loaded spill and down-chip avoidance;
//! * `fleet` — the [`Cluster`] front door: N independent
//!   [`crate::serve::ServeEngine`]s (each its own plan cache, breaker
//!   state, and optionally its own worker pool) joined by ingress links
//!   whose latency and wire time are charged into the shared
//!   deterministic logical clock, plus chip-failure evacuation that
//!   reroutes queued work without losing it;
//! * `allreduce` — fixed-order gradient reduction: numerics are
//!   defined by microbatch index (left-to-right sum), the collective
//!   schedule (ring or tree, chosen by modeled cost) defines only time
//!   and wire bytes, so gradients are bit-identical at any chip count;
//! * `collective` — bucketized, overlap-aware gradient communication:
//!   the flat gradient cut into buckets, each launching its own
//!   [`sw_perfmodel::CollectiveSchedule`] at modeled backward-readiness
//!   against shared per-link occupancy, plus the ragged microbatch
//!   sharding and failure-reshard helpers;
//! * `train` — [`DataParallelTrainer`]: synchronous, *elastic*
//!   data-parallel SGD over the [`crate::network`] stack — bucketized
//!   collectives charged per step, per-chip compute and per-bucket comm
//!   spans, and deterministic mid-step chip-failure recovery that
//!   reshards lost microbatches onto survivors without moving a bit of
//!   the parameters.
//!
//! The interconnect itself is modeled in
//! [`sw_perfmodel::InterconnectSpec`] + [`sw_perfmodel::Topology`]
//! (per-link latency + bandwidth, switch groups with shared uplinks, as
//! in the TaihuLight fat-tree's supernode tier), keeping the cost model
//! next to the chip-level roofline it extends.

mod allreduce;
mod collective;
mod fleet;
mod router;
mod train;

pub use collective::{reduce_bucketized, run_collective, BucketPlan};
pub use fleet::{Cluster, ClusterConfig, ClusterSummary};
pub use router::ShapeRouter;
pub use train::{DataParallelTrainer, StepReport, TrainConfig};
