//! Batch normalization over the channel dimension (Ioffe & Szegedy).
//!
//! Training mode normalizes each channel with the batch statistics over
//! `(B, H, W)`, maintains running statistics with momentum, and learns a
//! per-channel scale `gamma` and shift `beta`. Evaluation mode uses the
//! running statistics.

use super::{check_grad_shape, Layer};
use crate::error::SwdnnError;
use sw_tensor::{Shape4, Tensor4};

/// Per-channel batch normalization for `(B, C, H, W)` activations.
pub struct BatchNorm2d {
    pub channels: usize,
    pub eps: f64,
    /// Running-statistics momentum: `run = (1-m)*run + m*batch`.
    pub momentum: f64,
    /// Training (batch stats) vs evaluation (running stats).
    pub training: bool,
    pub gamma: Vec<f64>,
    pub beta: Vec<f64>,
    pub running_mean: Vec<f64>,
    pub running_var: Vec<f64>,
    d_gamma: Vec<f64>,
    d_beta: Vec<f64>,
    // Backward cache.
    cache_xhat: Option<Tensor4<f64>>,
    cache_inv_std: Vec<f64>,
}

impl BatchNorm2d {
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            training: true,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            d_gamma: vec![0.0; channels],
            d_beta: vec![0.0; channels],
            cache_xhat: None,
            cache_inv_std: Vec::new(),
        }
    }

    fn check(&self, s: Shape4) -> Result<(), SwdnnError> {
        if s.d1 != self.channels {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{} channels", self.channels),
                got: format!("{:?}", s),
            });
        }
        Ok(())
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let s = input.shape();
        self.check(s)?;
        let n = (s.d0 * s.d2 * s.d3) as f64;
        let mut out = Tensor4::zeros(s, input.layout());
        let mut xhat = Tensor4::zeros(s, input.layout());
        self.cache_inv_std = vec![0.0; self.channels];

        for c in 0..self.channels {
            let (mean, var) = if self.training {
                let mut sum = 0.0;
                let mut sq = 0.0;
                for b in 0..s.d0 {
                    for r in 0..s.d2 {
                        for q in 0..s.d3 {
                            let v = input.get(b, c, r, q);
                            sum += v;
                            sq += v * v;
                        }
                    }
                }
                let mean = sum / n;
                let var = (sq / n - mean * mean).max(0.0);
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[c], self.running_var[c])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            self.cache_inv_std[c] = inv_std;
            for b in 0..s.d0 {
                for r in 0..s.d2 {
                    for q in 0..s.d3 {
                        let xh = (input.get(b, c, r, q) - mean) * inv_std;
                        xhat.set(b, c, r, q, xh);
                        out.set(b, c, r, q, self.gamma[c] * xh + self.beta[c]);
                    }
                }
            }
        }
        self.cache_xhat = Some(xhat);
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let xhat = self
            .cache_xhat
            .as_ref()
            .ok_or_else(|| SwdnnError::ShapeMismatch {
                expected: "forward before backward".into(),
                got: "no cache".into(),
            })?;
        let s = xhat.shape();
        check_grad_shape(s, d_out)?;
        let n = (s.d0 * s.d2 * s.d3) as f64;
        let mut dx = Tensor4::zeros(s, d_out.layout());

        for c in 0..self.channels {
            // Sums needed by the training-mode gradient.
            let mut sum_dy = 0.0;
            let mut sum_dy_xhat = 0.0;
            for b in 0..s.d0 {
                for r in 0..s.d2 {
                    for q in 0..s.d3 {
                        let dy = d_out.get(b, c, r, q);
                        sum_dy += dy;
                        sum_dy_xhat += dy * xhat.get(b, c, r, q);
                    }
                }
            }
            self.d_beta[c] += sum_dy;
            self.d_gamma[c] += sum_dy_xhat;

            let g = self.gamma[c] * self.cache_inv_std[c];
            for b in 0..s.d0 {
                for r in 0..s.d2 {
                    for q in 0..s.d3 {
                        let dy = d_out.get(b, c, r, q);
                        let v = if self.training {
                            g * (dy - sum_dy / n - xhat.get(b, c, r, q) * sum_dy_xhat / n)
                        } else {
                            g * dy
                        };
                        dx.set(b, c, r, q, v);
                    }
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.gamma, &mut self.d_gamma);
        f(&mut self.beta, &mut self.d_beta);
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::seeded_tensor;
    use sw_tensor::Layout;

    #[test]
    fn training_output_is_normalized() {
        let s = Shape4::new(4, 2, 3, 3);
        let x = seeded_tensor(s, Layout::Nchw, 1);
        let mut bn = BatchNorm2d::new(2);
        let y = bn.forward(&x).unwrap();
        for c in 0..2 {
            let mut sum = 0.0;
            let mut sq = 0.0;
            let n = (4 * 3 * 3) as f64;
            for b in 0..4 {
                for r in 0..3 {
                    for q in 0..3 {
                        let v = y.get(b, c, r, q);
                        sum += v;
                        sq += v * v;
                    }
                }
            }
            let mean = sum / n;
            let var = sq / n - mean * mean;
            assert!(mean.abs() < 1e-10, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {c} var {var}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let s = Shape4::new(2, 1, 2, 2);
        let x = seeded_tensor(s, Layout::Nchw, 2);
        let mut bn = BatchNorm2d::new(1);
        bn.gamma[0] = 3.0;
        bn.beta[0] = -1.0;
        let y = bn.forward(&x).unwrap();
        let mut bn0 = BatchNorm2d::new(1);
        let y0 = bn0.forward(&x).unwrap();
        for i in 0..y.data().len() {
            assert!((y.data()[i] - (3.0 * y0.data()[i] - 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let s = Shape4::new(8, 1, 2, 2);
        let mut bn = BatchNorm2d::new(1);
        bn.momentum = 1.0; // running stats = last batch stats
        let x = seeded_tensor(s, Layout::Nchw, 3);
        let y_train = bn.forward(&x).unwrap();
        bn.training = false;
        let y_eval = bn.forward(&x).unwrap();
        // With momentum 1, eval stats equal the train batch stats, except
        // eval skips the (biased) var identity only through running slots.
        assert!(y_eval.approx_eq(&y_train, 1e-6));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let s = Shape4::new(3, 2, 2, 2);
        let x = seeded_tensor(s, Layout::Nchw, 4);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma = vec![1.5, 0.5];
        let _ = bn.forward(&x).unwrap();
        let dy = Tensor4::from_fn(s, Layout::Nchw, |b, c, r, q| {
            ((b + 2 * c + 3 * r + 5 * q) % 7) as f64 * 0.1 - 0.3
        });
        let dx = bn.backward(&dy).unwrap();

        let loss = |x: &Tensor4<f64>| -> f64 {
            let mut bn2 = BatchNorm2d::new(2);
            bn2.gamma = vec![1.5, 0.5];
            let y = bn2.forward(x).unwrap();
            y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-6;
        let base = loss(&x);
        for probe in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 1, 0)] {
            let mut bumped = x.clone();
            bumped[probe] += eps;
            let fd = (loss(&bumped) - base) / eps;
            assert!(
                (fd - dx[probe]).abs() < 1e-4,
                "{probe:?}: fd {fd} vs analytic {}",
                dx[probe]
            );
        }
    }

    #[test]
    fn param_gradients_accumulate() {
        let s = Shape4::new(2, 1, 2, 2);
        let x = seeded_tensor(s, Layout::Nchw, 5);
        let mut bn = BatchNorm2d::new(1);
        let _ = bn.forward(&x).unwrap();
        let dy = Tensor4::full(s, Layout::Nchw, 1.0);
        let _ = bn.backward(&dy).unwrap();
        // d_beta = sum(dy) = 8.
        let mut grads = Vec::new();
        bn.visit_params(&mut |_, g| grads.push(g.to_vec()));
        assert!((grads[1][0] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_channel_count_rejected() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor4::zeros(Shape4::new(1, 2, 2, 2), Layout::Nchw);
        assert!(bn.forward(&x).is_err());
    }
}
