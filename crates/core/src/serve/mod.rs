//! Batch-serving engine: plan caching, dynamic micro-batching, and
//! sharded multi-CG dispatch.
//!
//! The bench harness measures one configuration at a time; a serving
//! system sees a *stream* of requests over a small set of hot shapes. This
//! module turns the existing plan/executor machinery into that request
//! path:
//!
//! * [`PlanCache`] — memoization of plan resolution and sampled timing,
//!   keyed by shape and mesh, behind a striped concurrent map
//!   (`ShardedMap`) with hit/miss counters;
//! * [`MicroBatcher`] — coalesces queued requests per shape up to a batch
//!   cap or deadline, with a bounded queue that rejects
//!   ([`crate::SwdnnError::Overloaded`]) instead of growing;
//! * [`ShardedDispatcher`] — splits each batch across the simulated core
//!   groups per §III-D's row partitioning (on one shared
//!   [`sw_runtime::ExecutionContext`] via [`sw_sim::run_multi_cg_on`] —
//!   no per-request thread fan-out), amortizing the kernel-launch
//!   overhead over the batch;
//! * [`HealthBoard`] — one deterministic circuit breaker per core group:
//!   consecutive slice failures trip a CG into cooldown, its row-split
//!   share reroutes to the survivors, and half-open probing on the logical
//!   clock restores it;
//! * [`ServeEngine`] — the deterministic closed loop driving all of the
//!   above under a logical clock of simulated microseconds, reporting
//!   per-request latency percentiles, chip Gflops, batch fill, and cache
//!   hit-rate, with optional Chrome-trace spans per batch. With a
//!   [`ChaosConfig`] it serves through injected faults: per-CG fault
//!   sampling, breaker-driven rerouting, the degraded-mesh/host-reference
//!   fallback chain, priority admission control, and per-request dispatch
//!   deadlines.
//!
//! Everything is simulated time: runs are exactly reproducible, so the
//! serving SLOs (p99 latency, hit rate, rejection behavior) are asserted
//! in ordinary unit tests and pinned by `results/serve_bench.csv`.

mod batcher;
mod dispatch;
pub(crate) mod engine;
mod health;
mod plan_cache;
mod sharded_map;

pub use batcher::{BatchPolicy, MicroBatcher, Priority, QueuedRequest};
pub use dispatch::ShardedDispatcher;
pub(crate) use engine::ServeCounters;
pub use engine::{ChaosConfig, Completion, RequestClass, ServeConfig, ServeEngine, ServeSummary};
pub use health::{
    Availability, BreakerPolicy, BreakerState, CgBreaker, CgHealthStats, HealthBoard,
};
pub use plan_cache::PlanCache;
pub(crate) use sharded_map::ShardedMap;
