//! Instruction-level model of the SW26010 Computing Processing Element (CPE).
//!
//! Section VI of the swDNN paper describes each CPE as a 2-wide in-order
//! core with two asymmetric execution pipelines sharing one instruction
//! decoder:
//!
//! * **P0** — floating-point and vector operations (plus scalar integer),
//! * **P1** — memory accesses, register communication and control transfer
//!   (plus scalar integer).
//!
//! Two queue-head instructions dual-issue only when (1) neither conflicts
//! with in-flight instructions, (2) they have no RAW/WAW hazard between
//! themselves, and (3) they map to different pipelines.
//!
//! This crate provides:
//!
//! * [`Inst`] — the subset of the CPE ISA swDNN's inner kernels use,
//! * [`pipeline`] — a cycle-accurate dual-issue simulator implementing the
//!   contract above (loads 4 cycles, `vfmadd` 7 cycles, fully pipelined),
//! * [`schedule`] — dependence analysis and a greedy dual-issue list
//!   scheduler (its tests also check the two-stage software pipeliner of
//!   §VI-B and the ResMII bound),
//! * [`naive_gemm_kernel`] / [`reordered_gemm_kernel`] — generators for the
//!   GEMM inner kernel in its naive (compiler-like) and reordered
//!   (hand-scheduled) forms,
//! * [`efficiency`] — the closed-form execution-efficiency expressions the
//!   paper derives (16/26 naive; `16n / (17n + 4)` pipelined).
//!
//! The headline reproduction: simulating the naive kernel yields 26 cycles
//! per iteration and the reordered kernel 17, exactly as Fig. 6 reports.

mod asm;
pub mod efficiency;
mod inst;
mod kernels;
// The register-pressure check behind `paper_kernels_fit_the_register_file`.
#[cfg(test)]
mod liveness;
pub mod pipeline;
pub mod schedule;

pub use asm::{parse_program, print_program};
pub use inst::{Inst, Op, Reg};
pub use kernels::{naive_gemm_kernel, reordered_gemm_kernel, KernelSpec};
pub use pipeline::DualPipe;
pub use schedule::{list_schedule, validate_order};
