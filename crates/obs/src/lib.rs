//! Unified observability for the swDNN reproduction.
//!
//! The paper's central artifact is a three-level REG–LDM–MEM performance
//! model (Fig. 2, Eqs. 1–5) that predicts convolution throughput from
//! required vs. measured bandwidth at each level of the memory hierarchy.
//! This crate makes that comparison *continuously measurable* instead of a
//! one-off table:
//!
//! * [`Counter`] — monotonic counters on relaxed atomics, safe to bump from
//!   the pool-parallel CPE closures of the simulator without any ordering
//!   dependence on thread scheduling;
//! * [`TagCounters`] — keyed monotonic counters for low-cardinality
//!   runtime dimensions (tenant id, chip, core-group index, link), bumped
//!   per request on the serving path through handles registered once, so
//!   a bump is one relaxed atomic add;
//! * [`Histogram`] — the exact multiset of `u64` samples (request
//!   latencies, queue waits) answering nearest-rank quantiles by
//!   selection;
//! * [`Recorder`] — span-style event recording, zero-cost when disabled,
//!   and [`ChromeTrace`], a Chrome-trace JSON exporter whose output loads
//!   directly into `chrome://tracing` / Perfetto.
//!
//! The crate depends only on the offline `serde_json` shim, so every other
//! workspace member (simulator, ISA model, executor, bench harness) can
//! link it without cycles.

mod chrome;
mod counter;
mod histogram;
mod tags;

pub use chrome::{ChromeTrace, Recorder};
pub use counter::Counter;
pub use histogram::Histogram;
pub use tags::{chip_tag, link_tag, TagCounters};
