//! Inverted dropout.
//!
//! Training mode zeroes each activation with probability `p` and scales
//! survivors by `1/(1-p)` so the expected activation is unchanged;
//! evaluation mode is the identity. The mask stream is seeded, so training
//! runs are reproducible.

use super::{check_grad_shape, Layer};
use crate::error::SwdnnError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sw_tensor::{Shape4, Tensor4};

pub struct Dropout {
    pub p: f64,
    pub training: bool,
    rng: StdRng,
    /// Shape of the last forward pass.
    shape: Option<Shape4>,
    /// Its scaled keep-mask; `None` when that pass was the identity.
    mask: Option<Tensor4<f64>>,
}

impl Dropout {
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Self {
            p,
            training: true,
            rng: StdRng::seed_from_u64(seed),
            shape: None,
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        self.shape = Some(input.shape());
        if !self.training || self.p == 0.0 {
            self.mask = None;
            return Ok(input.clone());
        }
        let scale = 1.0 / (1.0 - self.p);
        let mut mask = Tensor4::zeros(input.shape(), input.layout());
        let mut out = input.clone();
        for (m, o) in mask.data_mut().iter_mut().zip(out.data_mut()) {
            if self.rng.gen::<f64>() < self.p {
                *m = 0.0;
                *o = 0.0;
            } else {
                *m = scale;
                *o *= scale;
            }
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let shape = self.shape.ok_or_else(|| SwdnnError::ShapeMismatch {
            expected: "forward before backward".into(),
            got: "no cache".into(),
        })?;
        check_grad_shape(shape, d_out)?;
        let Some(mask) = &self.mask else {
            return Ok(d_out.clone());
        };
        let mut dx = d_out.to_layout(mask.layout());
        for (g, m) in dx.data_mut().iter_mut().zip(mask.data()) {
            *g *= m;
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::Layout;

    #[test]
    fn eval_mode_is_identity() {
        let x = Tensor4::full(Shape4::new(2, 2, 2, 2), Layout::Nchw, 3.0);
        let mut d = Dropout::new(0.5, 1);
        d.training = false;
        let y = d.forward(&x).unwrap();
        assert_eq!(y.max_abs_diff(&x), 0.0);
    }

    #[test]
    fn training_preserves_expectation_roughly() {
        let x = Tensor4::full(Shape4::new(8, 8, 8, 8), Layout::Nchw, 1.0);
        let mut d = Dropout::new(0.3, 2);
        let y = d.forward(&x).unwrap();
        let mean = y.sum_f64() / y.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Survivors are scaled by 1/(1-p).
        let kept: Vec<f64> = y.data().iter().copied().filter(|&v| v != 0.0).collect();
        assert!(kept.iter().all(|&v| (v - 1.0 / 0.7).abs() < 1e-12));
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let x = Tensor4::full(Shape4::new(2, 2, 4, 4), Layout::Nchw, 1.0);
        let mut d = Dropout::new(0.5, 3);
        let y = d.forward(&x).unwrap();
        let dy = Tensor4::full(x.shape(), Layout::Nchw, 1.0);
        let dx = d.backward(&dy).unwrap();
        // Gradient flows exactly where activations survived.
        for i in 0..y.data().len() {
            assert_eq!(y.data()[i] == 0.0, dx.data()[i] == 0.0);
        }
    }

    #[test]
    fn masks_are_seeded_and_reproducible() {
        let x = Tensor4::full(Shape4::new(2, 2, 4, 4), Layout::Nchw, 1.0);
        let mut a = Dropout::new(0.5, 42);
        let mut b = Dropout::new(0.5, 42);
        assert_eq!(
            a.forward(&x).unwrap().max_abs_diff(&b.forward(&x).unwrap()),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn p_must_be_valid() {
        let _ = Dropout::new(1.0, 1);
    }
}
