//! Fully-connected (classifier) layer.
//!
//! Activations flow as `(batch, features, 1, 1)` tensors; the layer
//! flattens whatever spatial shape arrives.

use super::{check_grad_shape, Layer};
use crate::error::SwdnnError;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sw_tensor::{Shape4, Tensor4};

/// `y = W x + b` with `W: (out, in)` row-major.
#[derive(Clone)]
pub struct Linear {
    pub in_features: usize,
    pub out_features: usize,
    pub w: Vec<f64>,
    pub b: Vec<f64>,
    dw: Vec<f64>,
    db: Vec<f64>,
    cached: Option<Tensor4<f64>>,
    cached_shape: Option<Shape4>,
}

impl Linear {
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let a = (6.0 / (in_features + out_features) as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-a, a);
        Self {
            in_features,
            out_features,
            w: (0..in_features * out_features)
                .map(|_| dist.sample(&mut rng))
                .collect(),
            b: vec![0.0; out_features],
            dw: vec![0.0; in_features * out_features],
            db: vec![0.0; out_features],
            cached: None,
            cached_shape: None,
        }
    }

    fn flatten(&self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let s = input.shape();
        let feat = s.d1 * s.d2 * s.d3;
        if feat != self.in_features {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{} features", self.in_features),
                got: format!("{:?} = {feat}", s),
            });
        }
        let mut flat = Tensor4::zeros(Shape4::new(s.d0, feat, 1, 1), sw_tensor::Layout::Nchw);
        for b in 0..s.d0 {
            let mut f = 0;
            for c in 0..s.d1 {
                for r in 0..s.d2 {
                    for q in 0..s.d3 {
                        flat.set(b, f, 0, 0, input.get(b, c, r, q));
                        f += 1;
                    }
                }
            }
        }
        Ok(flat)
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        Some(Box::new(self.clone()))
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let flat = self.flatten(input)?;
        let batch = flat.shape().d0;
        let mut out = Tensor4::zeros(
            Shape4::new(batch, self.out_features, 1, 1),
            sw_tensor::Layout::Nchw,
        );
        for b in 0..batch {
            for o in 0..self.out_features {
                let mut acc = self.b[o];
                for i in 0..self.in_features {
                    acc += self.w[o * self.in_features + i] * flat.get(b, i, 0, 0);
                }
                out.set(b, o, 0, 0, acc);
            }
        }
        self.cached_shape = Some(input.shape());
        self.cached = Some(flat);
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let flat = self
            .cached
            .as_ref()
            .ok_or_else(|| SwdnnError::ShapeMismatch {
                expected: "forward before backward".into(),
                got: "no cache".into(),
            })?;
        let in_shape = self.cached_shape.unwrap();
        let batch = flat.shape().d0;
        check_grad_shape(Shape4::new(batch, self.out_features, 1, 1), d_out)?;
        let mut d_flat = vec![0.0; batch * self.in_features];
        for b in 0..batch {
            for o in 0..self.out_features {
                let g = d_out.get(b, o, 0, 0);
                self.db[o] += g;
                for i in 0..self.in_features {
                    self.dw[o * self.in_features + i] += g * flat.get(b, i, 0, 0);
                    d_flat[b * self.in_features + i] += g * self.w[o * self.in_features + i];
                }
            }
        }
        // Un-flatten.
        let mut dx = Tensor4::zeros(in_shape, sw_tensor::Layout::Nchw);
        for b in 0..in_shape.d0 {
            let mut f = 0;
            for c in 0..in_shape.d1 {
                for r in 0..in_shape.d2 {
                    for q in 0..in_shape.d3 {
                        dx.set(b, c, r, q, d_flat[b * self.in_features + f]);
                        f += 1;
                    }
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::Layout;

    #[test]
    fn forward_is_affine() {
        let mut lin = Linear::new(2, 1, 1);
        lin.w = vec![2.0, 3.0];
        lin.b = vec![1.0];
        let x = Tensor4::from_vec(Shape4::new(1, 2, 1, 1), vec![10.0, 20.0]);
        let y = lin.forward(&x).unwrap();
        assert_eq!(y.get(0, 0, 0, 0), 2.0 * 10.0 + 3.0 * 20.0 + 1.0);
    }

    #[test]
    fn flattens_spatial_inputs() {
        let mut lin = Linear::new(8, 2, 2);
        let x = Tensor4::full(Shape4::new(3, 2, 2, 2), Layout::Nchw, 1.0);
        let y = lin.forward(&x).unwrap();
        assert_eq!(y.shape(), Shape4::new(3, 2, 1, 1));
    }

    #[test]
    fn gradient_check() {
        let mut lin = Linear::new(3, 2, 3);
        let x = Tensor4::from_vec(Shape4::new(1, 3, 1, 1), vec![0.5, -1.0, 2.0]);
        let _ = lin.forward(&x).unwrap();
        let dy = Tensor4::full(Shape4::new(1, 2, 1, 1), Layout::Nchw, 1.0);
        let dx = lin.backward(&dy).unwrap();
        // dL/dx_i = sum_o w[o][i]
        for i in 0..3 {
            let expect = lin.w[i] + lin.w[3 + i];
            assert!((dx.get(0, i, 0, 0) - expect).abs() < 1e-12);
        }
        // dL/dw[o][i] = x_i
        assert!((lin.dw[0] - 0.5).abs() < 1e-12);
        assert!((lin.dw[2] - 2.0).abs() < 1e-12);
        assert_eq!(lin.db, vec![1.0, 1.0]);
    }

    #[test]
    fn wrong_feature_count_errors() {
        let mut lin = Linear::new(4, 2, 4);
        let x = Tensor4::full(Shape4::new(1, 3, 1, 1), Layout::Nchw, 1.0);
        assert!(lin.forward(&x).is_err());
    }
}
