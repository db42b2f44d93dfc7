//! Functional + timing simulator for the SW26010 many-core processor.
//!
//! There is no Sunway toolchain or hardware outside the National
//! Supercomputing Center in Wuxi, so this crate substitutes a software
//! model that preserves the constraints the swDNN paper's optimizations
//! react to:
//!
//! * **LDM** ([`ldm`]) — each CPE owns a 64 KB scratchpad with an explicit
//!   allocator; plans that overflow it fail loudly, exactly like a real
//!   LDM-resident kernel would fail to link.
//! * **DMA** ([`DmaEngine`]) — asynchronous block transfers between main memory
//!   and LDM whose cost follows the *published* Table II bandwidth curve
//!   (small or misaligned blocks are slow, ≥256 B aligned blocks approach
//!   the 32–36 GB/s ceiling), shared across the 64 CPEs of a core group.
//! * **Register communication** ([`Mesh`]) — row/column buses carrying
//!   256-bit payloads between CPEs of the 8×8 mesh, with transfer-buffer
//!   mailboxes and put/get cycle costs.
//! * **Execution** — plans run *real* double-precision arithmetic (results
//!   are bit-checked against the reference convolution) and charge compute
//!   cycles from the `sw-isa` dual-pipeline kernel model.
//!
//! The execution model is bulk-synchronous: a program is a sequence of
//! *supersteps*; within a superstep all 64 CPEs run independently (in
//! parallel on the persistent [`sw_runtime`] worker pool) and may send
//! bus messages, which are delivered at
//! the superstep boundary where all CPE clocks synchronize to the maximum.
//! This is a conservative approximation of the hardware's pairwise
//! producer-consumer blocking: the real mesh can overlap slightly more,
//! never less.
//!
//! [`chip`] scales a per-CG simulation across the four core groups with the
//! paper's output-row partitioning.

pub mod chip;
mod dma;
pub mod fault;
pub mod ldm;
mod mesh;
mod stats;

pub use chip::run_multi_cg_on;
pub use dma::{DmaEngine, DmaHandle};
pub use fault::{FaultPlan, RetryPolicy};
pub use ldm::{Ldm, LdmBuf};
pub use mesh::{Bus, CpeCtx, DmaSource, Mesh, SimError};
pub use stats::{CgStats, CpeStats};

/// Mesh side length.
pub const MESH_DIM: usize = 8;
