//! The swDNN three-level (REG–LDM–MEM) performance model — §III-D, Fig. 2.
//!
//! The model answers one question per memory level: *what bandwidth would
//! this level need to sustain peak floating-point throughput (the required
//! bandwidth, `RBW`), and what does the hardware actually deliver (the
//! measured bandwidth, `MBW`)?* Whenever `RBW > MBW`, the level throttles
//! compute; following the paper, attained performance is scaled by the
//! *square* of `MBW/RBW` ("the amount of computation increases with the
//! square of the input data in convolution operations").
//!
//! Modules:
//!
//! * [`ChipSpec`] — the published SW26010 machine constants,
//! * [`mem_comm_lower_bound_bytes`] — the closed-form MEM-level
//!   communication lower bound (compulsory reads vs the Hong–Kung
//!   `2·MACs/√M` term) behind the "attained fraction of comm-optimal"
//!   gauge,
//! * [`dma`] — Table II: measured DMA bandwidth vs block size, as an exact
//!   interpolation table plus a mechanistic two-parameter fit,
//! * [`rbw`] — Equations 1–5: required bandwidths of the LDM blocking plans
//!   and of the register blocking schemes,
//! * [`ConvPerfModel`] — the full Fig. 2 estimate combining RBW/MBW ratios
//!   with the §VI execution efficiency,
//! * [`select`] — the paper's plan-selection policy (batch-size-aware when
//!   the batch is large enough, image-size-aware with `Co` blocking
//!   otherwise) driven by minimizing modeled RBW under the LDM budget,
//! * [`NetworkModel`] — the chip-to-chip network model (per-link latency +
//!   bandwidth, ring/tree allreduce schedules as data, switch-group
//!   topology with shared uplinks, per-link occupancy timelines) behind
//!   `swdnn::cluster`.

mod chip;
mod comm;
pub mod dma;
mod interconnect;
mod model;
pub mod rbw;
pub mod select;

pub use chip::ChipSpec;
pub use comm::{comm_optimal_permille, mem_comm_lower_bound_bytes};
pub use interconnect::{
    AllreduceKind, CollectiveSchedule, InterconnectSpec, LinkOccupancy, NetworkModel, Topology,
};
pub use model::{ConvPerfModel, PerfEstimate};
pub use select::{co_blocks, select_plan, Blocking, PlanChoice, PlanKind};
