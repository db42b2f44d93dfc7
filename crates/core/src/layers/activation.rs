//! Activation layers.

use super::{check_grad_shape, Layer};
use crate::error::SwdnnError;
use sw_tensor::Tensor4;

/// Logistic sigmoid, elementwise `1/(1+e^-x)`.
#[derive(Clone, Default)]
pub struct Sigmoid {
    out: Option<Tensor4<f64>>,
}

impl Sigmoid {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        Some(Box::new(self.clone()))
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let mut out = input.clone();
        for v in out.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        self.out = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let out = self.out.as_ref().ok_or_else(|| SwdnnError::ShapeMismatch {
            expected: "forward before backward".into(),
            got: "no cache".into(),
        })?;
        check_grad_shape(out.shape(), d_out)?;
        let mut dx = d_out.to_layout(out.layout());
        for (g, &y) in dx.data_mut().iter_mut().zip(out.data()) {
            *g *= y * (1.0 - y);
        }
        Ok(dx)
    }
}

/// Hyperbolic tangent.
#[derive(Clone, Default)]
pub struct Tanh {
    out: Option<Tensor4<f64>>,
}

impl Tanh {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        Some(Box::new(self.clone()))
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let mut out = input.clone();
        for v in out.data_mut() {
            *v = v.tanh();
        }
        self.out = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let out = self.out.as_ref().ok_or_else(|| SwdnnError::ShapeMismatch {
            expected: "forward before backward".into(),
            got: "no cache".into(),
        })?;
        check_grad_shape(out.shape(), d_out)?;
        let mut dx = d_out.to_layout(out.layout());
        for (g, &y) in dx.data_mut().iter_mut().zip(out.data()) {
            *g *= 1.0 - y * y;
        }
        Ok(dx)
    }
}

/// Rectified linear unit, elementwise `max(0, x)`.
#[derive(Clone, Default)]
pub struct ReLU {
    mask: Option<Tensor4<f64>>,
}

impl ReLU {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        Some(Box::new(self.clone()))
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let mut out = input.clone();
        let mut mask = Tensor4::zeros(input.shape(), input.layout());
        for (o, m) in out.data_mut().iter_mut().zip(mask.data_mut()) {
            if *o > 0.0 {
                *m = 1.0;
            } else {
                *o = 0.0;
            }
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or_else(|| SwdnnError::ShapeMismatch {
                expected: "forward before backward".into(),
                got: "no mask".into(),
            })?;
        check_grad_shape(mask.shape(), d_out)?;
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
    use sw_tensor::{Layout, Shape4};

    #[test]
    fn forward_clamps_negatives() {
        let s = Shape4::new(1, 1, 1, 4);
        let x = Tensor4::from_vec(s, vec![-1.0, 2.0, -3.0, 4.0]);
        let y = ReLU::new().forward(&x).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let s = Shape4::new(1, 1, 1, 4);
        let x = Tensor4::from_vec(s, vec![-1.0, 2.0, -3.0, 4.0]);
        let mut relu = ReLU::new();
        let _ = relu.forward(&x).unwrap();
        let dy = Tensor4::full(s, Layout::Nchw, 1.0);
        let dx = relu.backward(&dy).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let s = Shape4::new(1, 1, 1, 2);
        let dy = Tensor4::full(s, Layout::Nchw, 1.0);
        assert!(ReLU::new().backward(&dy).is_err());
    }

    #[test]
    fn sigmoid_matches_finite_difference() {
        let s = Shape4::new(1, 1, 1, 3);
        let x = Tensor4::from_vec(s, vec![-2.0, 0.0, 1.5]);
        let mut sig = Sigmoid::new();
        let y = sig.forward(&x).unwrap();
        assert!((y.data()[1] - 0.5).abs() < 1e-12);
        let dy = Tensor4::full(s, Layout::Nchw, 1.0);
        let dx = sig.backward(&dy).unwrap();
        let eps = 1e-6;
        for i in 0..3 {
            let mut bumped = x.clone();
            bumped.data_mut()[i] += eps;
            let y2 = Sigmoid::new().forward(&bumped).unwrap();
            let fd = (y2.data()[i] - y.data()[i]) / eps;
            assert!((fd - dx.data()[i]).abs() < 1e-5, "lane {i}");
        }
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let s = Shape4::new(1, 1, 1, 2);
        let x = Tensor4::from_vec(s, vec![3.0, -3.0]);
        let mut t = Tanh::new();
        let y = t.forward(&x).unwrap();
        assert!((y.data()[0] + y.data()[1]).abs() < 1e-12);
        assert!(y.data()[0] < 1.0);
        let dy = Tensor4::full(s, Layout::Nchw, 1.0);
        let dx = t.backward(&dy).unwrap();
        assert!((dx.data()[0] - (1.0 - y.data()[0] * y.data()[0])).abs() < 1e-12);
    }

    #[test]
    fn zero_is_not_active() {
        let s = Shape4::new(1, 1, 1, 1);
        let x = Tensor4::from_vec(s, vec![0.0]);
        let mut relu = ReLU::new();
        let _ = relu.forward(&x).unwrap();
        let dy = Tensor4::full(s, Layout::Nchw, 5.0);
        assert_eq!(relu.backward(&dy).unwrap().data(), &[0.0]);
    }
}
