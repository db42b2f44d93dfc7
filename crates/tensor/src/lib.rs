//! Dense tensors and the swDNN data layouts.
//!
//! The swDNN paper (IPDPS'17) stores 4-D convolution operands in layouts
//! chosen so that (a) the innermost dimension is a 4-wide vector lane that
//! maps onto the SW26010's 256-bit SIMD registers, and (b) the leading
//! contiguous block is large and 128-byte aligned so DMA between main memory
//! and the CPE scratchpads (LDM) runs near peak bandwidth (paper §V-C).
//!
//! This crate provides:
//!
//! * [`Shape4`] / [`ConvShape`] — dimension bookkeeping for convolutions,
//! * [`Tensor4`] — an owned dense 4-D tensor over `f32` or `f64` elements,
//! * [`Layout`] — the three layouts used throughout the reproduction
//!   (`Nchw`, `ImageAware`, `BatchAware`) and transforms between them,
//! * [`conv2d_ref`] — the reference convolution of Listing 1 (its additions
//!   in Listing 1's order, walked over NCHW rows), used as the correctness
//!   oracle for every optimized plan.

pub mod conv_general;
mod conv_ref;
pub mod init;
mod layout;
mod shape;
mod tensor;

pub use conv_general::{conv2d_general, general_flops, ConvGeometry};
pub use conv_ref::{conv2d_bwd_data_ref, conv2d_bwd_filter_ref, conv2d_ref};
pub use layout::Layout;
pub use shape::{ConvShape, Shape4};
pub use tensor::Tensor4;

/// Vector width of the SW26010 SIMD unit in double precision
/// (256-bit registers / 64-bit lanes).
pub const VECTOR_WIDTH: usize = 4;
