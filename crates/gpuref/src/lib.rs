//! GPU baseline: im2col + GEMM convolution and a Tesla K40m / cuDNNv5
//! timing model.
//!
//! The paper's Figures 7 and 9 compare swDNN on one SW26010 against
//! cuDNNv5.1 on a Tesla K40m. Neither the GPU nor cuDNN is available here,
//! so this crate substitutes:
//!
//! * [`conv2d_im2col`] — the lowering cuDNN's GEMM path uses, implemented
//!   functionally (and rayon-parallel) as a second correctness oracle;
//! * [`K40m`] — a calibrated throughput model reproducing the published
//!   envelope: ≤ 40 % double-precision efficiency at best, strong
//!   sensitivity to filter size (cuDNN's tuned kernels favour small
//!   filters), mild sensitivity to channel count, and the
//!   configuration-to-configuration instability the paper highlights
//!   ("not like cuDNN, our program is stable under different parameter
//!   configurations"). The model is deterministic: the "instability" is a
//!   hash of the configuration, so runs are reproducible.

mod im2col;
mod k40m;

pub use im2col::conv2d_im2col;
pub use k40m::K40m;
