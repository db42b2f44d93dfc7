//! # swDNN-rs
//!
//! A from-scratch Rust reproduction of *swDNN: A Library for Accelerating
//! Deep Learning Applications on Sunway TaihuLight* (Fang et al.,
//! IPDPS 2017), running against a faithful software model of the SW26010
//! many-core processor (`sw-sim`).
//!
//! The library provides:
//!
//! * **Convolution plans** ([`plans`]) — the paper's optimized mappings of
//!   the convolution kernel onto the 64-CPE mesh of one core group:
//!   - [`plans::ImageAwarePlan`] (Algorithm 1): LDM blocking on batch and
//!     output-column dimensions, `(4, C, R, N, B/4)` data layout;
//!   - [`plans::BatchAwarePlan`] (Algorithm 2): pixel streaming across a
//!     large batch, `(4, B/4, C, R, N)` layout;
//!   - both built on the register-communication GEMM of §V-A (Fig. 3) and
//!     the software-pipelined inner kernel of §VI;
//!   - [`plans::DirectPlan`]: the pathological direct-`gload` mapping kept
//!     for the Fig. 2 ablation;
//!   - `ReferencePlan`: host fallback for shapes the mesh plans do not
//!     support.
//! * **A user-facing convolution API** ([`Conv2d`]) with automatic plan
//!   selection driven by the `sw-perfmodel` three-level model, plus
//!   backward passes for training.
//! * **DNN layers and training** ([`layers`], [`network`]) — convolution,
//!   pooling, ReLU, fully-connected, softmax cross-entropy, and a
//!   sequential network with SGD, sufficient to train a small CNN
//!   end-to-end (the paper's focus is "especially ... the training part").
//! * **An executor** ([`Executor`]) that runs a configuration through the
//!   simulator and reports measured Gflops next to the model's prediction,
//!   which is what the benchmark harness uses to regenerate the paper's
//!   tables and figures.
//! * **Cluster scale-out** ([`cluster`]) — N chips behind a deterministic
//!   consistent-hash router for serving, and ring/tree-allreduce
//!   data-parallel training with gradients bit-identical to single-chip
//!   at any chip count.

pub mod cluster;
mod conv;
mod error;
mod executor;
pub mod kernel_cost;
pub mod layers;
pub mod network;
pub mod optim;
pub mod plans;
pub mod resilient;
pub mod serve;
pub mod tune;
pub mod zoo;

pub use conv::Conv2d;
pub use error::SwdnnError;
pub use executor::Executor;
pub use plans::{lower_schedule, LowerCtx, Schedule};
pub use resilient::{ResilientExecutor, VerifyPolicy};

pub use sw_perfmodel::ChipSpec;
pub use sw_sim::FaultPlan;
pub use sw_tensor::{ConvShape, Layout, Shape4, Tensor4};
