//! Optimizers: SGD (with momentum) and Adam.
//!
//! Layers expose their parameters through [`crate::layers::Layer::visit_params`];
//! the optimizer walks them in a stable order and keeps per-parameter state
//! (velocity for momentum, first/second moments for Adam) in parallel
//! buffers, lazily sized on the first step.

use crate::layers::Layer;

/// Update rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// `v = mu*v + g; w -= lr*v` (plain SGD when `momentum == 0`).
    Sgd { momentum: f64 },
    /// Kingma & Ba, with bias correction.
    Adam { beta1: f64, beta2: f64, eps: f64 },
}

/// Per-(layer, parameter-slot) optimizer state.
#[derive(Default)]
struct Slot {
    a: Vec<f64>, // velocity / first moment
    b: Vec<f64>, // second moment (Adam only)
}

/// A stateful optimizer over a stack of layers.
pub struct Optimizer {
    pub lr: f64,
    pub method: Method,
    state: Vec<Vec<Slot>>,
    t: u64,
}

impl Optimizer {
    pub fn sgd(lr: f64) -> Self {
        Self {
            lr,
            method: Method::Sgd { momentum: 0.0 },
            state: Vec::new(),
            t: 0,
        }
    }

    pub fn adam(lr: f64) -> Self {
        Self {
            lr,
            method: Method::Adam {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            state: Vec::new(),
            t: 0,
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update to every parameter of every layer and clear the
    /// gradients.
    pub fn step(&mut self, layers: &mut [Box<dyn Layer>]) {
        self.t += 1;
        if self.state.len() < layers.len() {
            self.state.resize_with(layers.len(), Vec::new);
        }
        let (lr, method, t) = (self.lr, self.method, self.t);
        for (layer, slots) in layers.iter_mut().zip(self.state.iter_mut()) {
            let mut slot_idx = 0usize;
            layer.visit_params(&mut |w, g| {
                if slots.len() <= slot_idx {
                    slots.push(Slot::default());
                }
                let slot = &mut slots[slot_idx];
                slot_idx += 1;
                match method {
                    Method::Sgd { momentum } => {
                        if momentum == 0.0 {
                            for (wi, gi) in w.iter_mut().zip(g.iter_mut()) {
                                *wi -= lr * *gi;
                                *gi = 0.0;
                            }
                        } else {
                            if slot.a.len() != w.len() {
                                slot.a = vec![0.0; w.len()];
                            }
                            for ((wi, gi), vi) in
                                w.iter_mut().zip(g.iter_mut()).zip(slot.a.iter_mut())
                            {
                                *vi = momentum * *vi + *gi;
                                *wi -= lr * *vi;
                                *gi = 0.0;
                            }
                        }
                    }
                    Method::Adam { beta1, beta2, eps } => {
                        if slot.a.len() != w.len() {
                            slot.a = vec![0.0; w.len()];
                            slot.b = vec![0.0; w.len()];
                        }
                        let bc1 = 1.0 - beta1.powi(t as i32);
                        let bc2 = 1.0 - beta2.powi(t as i32);
                        for (((wi, gi), mi), vi) in w
                            .iter_mut()
                            .zip(g.iter_mut())
                            .zip(slot.a.iter_mut())
                            .zip(slot.b.iter_mut())
                        {
                            *mi = beta1 * *mi + (1.0 - beta1) * *gi;
                            *vi = beta2 * *vi + (1.0 - beta2) * *gi * *gi;
                            let m_hat = *mi / bc1;
                            let v_hat = *vi / bc2;
                            *wi -= lr * m_hat / (v_hat.sqrt() + eps);
                            *gi = 0.0;
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Linear};
    use sw_tensor::{Shape4, Tensor4};

    fn quadratic_layer() -> (Vec<Box<dyn Layer>>, Tensor4<f64>) {
        // A 1-in/1-out linear layer; loss = output with d_out = 1 means
        // dL/dw = x, dL/db = 1.
        let mut lin = Linear::new(1, 1, 7);
        lin.w = vec![5.0];
        lin.b = vec![0.0];
        let x = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![2.0]);
        (vec![Box::new(lin)], x)
    }

    fn forward_backward(layers: &mut [Box<dyn Layer>], x: &Tensor4<f64>) {
        let y = layers[0].forward(x).unwrap();
        let dy = Tensor4::full(y.shape(), sw_tensor::Layout::Nchw, 1.0);
        let _ = layers[0].backward(&dy).unwrap();
    }

    #[test]
    fn plain_sgd_matches_hand_update() {
        let (mut layers, x) = quadratic_layer();
        let mut opt = Optimizer::sgd(0.1);
        forward_backward(&mut layers, &x);
        opt.step(&mut layers);
        // dL/dw = x = 2 => w = 5 - 0.1*2 = 4.8
        let mut got = Vec::new();
        layers[0].visit_params(&mut |w, _| got.push(w[0]));
        assert!((got[0] - 4.8).abs() < 1e-12);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let (mut layers, x) = quadratic_layer();
        let mut opt = Optimizer::sgd(0.1);
        opt.method = Method::Sgd { momentum: 0.5 };
        forward_backward(&mut layers, &x);
        opt.step(&mut layers); // v = 2,    w = 5 - 0.2  = 4.8
        forward_backward(&mut layers, &x);
        opt.step(&mut layers); // v = 3,    w = 4.8 - 0.3 = 4.5
        let mut got = Vec::new();
        layers[0].visit_params(&mut |w, _| got.push(w[0]));
        assert!((got[0] - 4.5).abs() < 1e-12, "got {}", got[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let (mut layers, x) = quadratic_layer();
        let mut opt = Optimizer::adam(0.01);
        forward_backward(&mut layers, &x);
        opt.step(&mut layers);
        // Bias-corrected Adam's first step is ~lr * sign(g).
        let mut got = Vec::new();
        layers[0].visit_params(&mut |w, _| got.push(w[0]));
        assert!((got[0] - (5.0 - 0.01)).abs() < 1e-6, "got {}", got[0]);
    }

    #[test]
    fn gradients_are_cleared_after_step() {
        let (mut layers, x) = quadratic_layer();
        let mut opt = Optimizer::sgd(0.1);
        forward_backward(&mut layers, &x);
        opt.step(&mut layers);
        let mut grads = Vec::new();
        layers[0].visit_params(&mut |_, g| grads.extend_from_slice(g));
        assert!(grads.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        // minimize (w*x - 4)^2 / 2 over w with x = 2 (optimum w = 2).
        let mut lin = Linear::new(1, 1, 9);
        lin.w = vec![10.0];
        lin.b = vec![0.0];
        let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(lin)];
        let x = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![2.0]);
        let mut opt = Optimizer::adam(0.2);
        let mut residual = f64::INFINITY;
        for _ in 0..300 {
            let y = layers[0].forward(&x).unwrap();
            residual = y.get(0, 0, 0, 0) - 4.0;
            let dy = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![residual]);
            let _ = layers[0].backward(&dy).unwrap();
            opt.step(&mut layers);
        }
        // The layer trains both w and b, so the optimum is the manifold
        // 2w + b = 4: assert the residual, not a particular w.
        assert!(residual.abs() < 0.05, "residual = {residual}");
    }
}
