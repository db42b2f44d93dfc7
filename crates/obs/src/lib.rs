//! Unified observability for the swDNN reproduction.
//!
//! The paper's central artifact is a three-level REG–LDM–MEM performance
//! model (Fig. 2, Eqs. 1–5) that predicts convolution throughput from
//! required vs. measured bandwidth at each level of the memory hierarchy.
//! This crate makes that comparison *continuously measurable* instead of a
//! one-off table:
//!
//! * [`counter`] — monotonic counters on relaxed atomics, safe to bump from
//!   the pool-parallel CPE closures of the simulator without any ordering
//!   dependence on thread scheduling;
//! * [`level`] — the three paper levels and the mapping every counter
//!   declares onto them;
//! * [`tags`] — keyed monotonic counters ([`TagCounters`]) for
//!   low-cardinality runtime dimensions (tenant id, chip, core-group
//!   index, link), bumped per request on the serving path through handles
//!   registered once, so a bump is one relaxed atomic add;
//! * [`histogram`] — [`Histogram`], the exact multiset of `u64` samples
//!   (request latencies, queue waits) answering nearest-rank quantiles by
//!   selection;
//! * [`chrome`] — span-style event recording ([`Recorder`], zero-cost when
//!   disabled) and a Chrome-trace JSON exporter whose output loads directly
//!   into `chrome://tracing` / Perfetto;
//! * [`report`] — [`PerfReport`]: per-level measured RBW/MBW next to the
//!   analytic model's prediction for one convolution configuration.
//!
//! The crate depends only on the offline `serde_json` shim, so every other
//! workspace member (simulator, ISA model, executor, bench harness) can
//! link it without cycles.

pub mod chrome;
pub mod counter;
pub mod histogram;
pub mod level;
pub mod report;
pub mod tags;

pub use chrome::{ChromeEvent, ChromeTrace, Recorder};
pub use counter::Counter;
pub use histogram::Histogram;
pub use level::Level;
pub use report::{LevelIo, PerfReport};
pub use tags::{chip_tag, link_tag, TagCounters};
