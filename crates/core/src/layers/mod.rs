//! DNN layers with forward and backward passes.
//!
//! swDNN is a *library for deep learning applications* — its kernel is the
//! convolution, but a usable library needs the rest of a small CNN stack:
//! pooling, activations, a classifier head, and a loss. These layers carry
//! `f64` activations in [`Tensor4`] (`(batch, channel, row, col)`), cache
//! what their backward pass needs, and accumulate parameter gradients for
//! an SGD step.
//!
//! The convolution layer can route its three passes through the simulated
//! SW26010 ([`Engine::Simulated`]) or run host-side ([`Engine::Host`]) —
//! numerically both paths agree (the plan tests prove it), so training
//! tests use the host path for speed and the examples demonstrate the
//! simulated one.

mod activation;
mod batchnorm;
mod conv_general_layer;
mod conv_layer;
mod dropout;
mod linear;
mod pool;
mod softmax;

pub use activation::{ReLU, Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use conv_general_layer::ConvGeneralLayer;
pub use conv_layer::{Conv2dLayer, Engine, PassCycles};
pub use dropout::Dropout;
pub use linear::Linear;
pub use pool::{AvgPool2, MaxPool2};
pub use softmax::SoftmaxCrossEntropy;

use crate::error::SwdnnError;
use std::cell::RefCell;
use std::rc::Rc;
use sw_tensor::{Shape4, Tensor4};

/// The check every layer's `backward` makes first: `d_out` has `expected`,
/// the output shape its forward pass cached.
fn check_grad_shape(expected: Shape4, d_out: &Tensor4<f64>) -> Result<(), SwdnnError> {
    if d_out.shape() != expected {
        return Err(SwdnnError::ShapeMismatch {
            expected: format!("{expected:?}"),
            got: format!("{:?}", d_out.shape()),
        });
    }
    Ok(())
}

/// A differentiable layer.
pub trait Layer {
    /// Forward pass; caches whatever backward needs.
    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError>;
    /// Backward pass: gradient w.r.t. the input; accumulates parameter
    /// gradients internally.
    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError>;
    /// Visit every `(parameter, gradient)` slice pair in a stable order.
    /// Parameter-free layers keep the empty default.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        let _ = f;
    }
    /// SGD update: `p -= lr * dp`, then clear gradients. The default walks
    /// [`Layer::visit_params`]; optimizers with state live in
    /// [`crate::optim`].
    fn sgd_step(&mut self, lr: f64) {
        self.visit_params(&mut |w, g| {
            for (wi, gi) in w.iter_mut().zip(g.iter_mut()) {
                *wi -= lr * *gi;
                *gi = 0.0;
            }
        });
    }
    /// Human-readable layer name.
    fn name(&self) -> &'static str;
    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }
    /// A copy that another thread can run: the same parameters and
    /// configuration, with its own caches and gradients. A layer whose
    /// output depends only on its parameters and input returns one; a
    /// layer with order-dependent state (a random stream, running
    /// statistics) or shared ownership keeps the `None` default, so
    /// [`crate::cluster::DataParallelTrainer`] refuses it by name.
    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        None
    }
}

/// A layer shared with its caller, who can still read it (a conv layer's
/// [`PassCycles`], say) once a [`crate::network::Sequential`] owns a clone.
impl<L: Layer> Layer for Rc<RefCell<L>> {
    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        self.borrow_mut().forward(input)
    }
    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        self.borrow_mut().backward(d_out)
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.borrow_mut().visit_params(f)
    }
    fn sgd_step(&mut self, lr: f64) {
        self.borrow_mut().sgd_step(lr)
    }
    fn name(&self) -> &'static str {
        self.borrow().name()
    }
    fn param_count(&self) -> usize {
        self.borrow().param_count()
    }
}
