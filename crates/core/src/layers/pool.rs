//! Subsampling layers (the paper's "extractor" stack pairs convolutions
//! with subsampling layers).

use super::{check_grad_shape, Layer};
use crate::error::SwdnnError;
use sw_tensor::{Shape4, Tensor4};

fn halved(s: Shape4) -> Shape4 {
    Shape4::new(s.d0, s.d1, s.d2 / 2, s.d3 / 2)
}

fn check_even(input: &Tensor4<f64>) -> Result<(), SwdnnError> {
    let s = input.shape();
    if !s.d2.is_multiple_of(2) || !s.d3.is_multiple_of(2) {
        return Err(SwdnnError::ShapeMismatch {
            expected: "even spatial extents for 2x2 pooling".into(),
            got: format!("{:?}", s),
        });
    }
    Ok(())
}

/// 2×2 max pooling with stride 2.
#[derive(Clone, Default)]
pub struct MaxPool2 {
    /// Index (0..4) of the argmax within each window.
    argmax: Option<Vec<u8>>,
    in_shape: Option<Shape4>,
}

impl MaxPool2 {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        Some(Box::new(self.clone()))
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        check_even(input)?;
        let s = input.shape();
        let os = halved(s);
        let mut out = Tensor4::zeros(os, input.layout());
        let mut arg = vec![0u8; os.len()];
        let mut idx = 0;
        for b in 0..s.d0 {
            for c in 0..s.d1 {
                for r in 0..os.d2 {
                    for q in 0..os.d3 {
                        let mut best = f64::NEG_INFINITY;
                        let mut best_k = 0u8;
                        for k in 0..4u8 {
                            let (dr, dc) = ((k / 2) as usize, (k % 2) as usize);
                            let v = input.get(b, c, 2 * r + dr, 2 * q + dc);
                            if v > best {
                                best = v;
                                best_k = k;
                            }
                        }
                        out.set(b, c, r, q, best);
                        arg[idx] = best_k;
                        idx += 1;
                    }
                }
            }
        }
        self.argmax = Some(arg);
        self.in_shape = Some(s);
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let (arg, s) = match (&self.argmax, self.in_shape) {
            (Some(a), Some(s)) => (a, s),
            _ => {
                return Err(SwdnnError::ShapeMismatch {
                    expected: "forward before backward".into(),
                    got: "no cache".into(),
                })
            }
        };
        let os = halved(s);
        check_grad_shape(os, d_out)?;
        let mut dx = Tensor4::zeros(s, d_out.layout());
        let mut idx = 0;
        for b in 0..s.d0 {
            for c in 0..s.d1 {
                for r in 0..os.d2 {
                    for q in 0..os.d3 {
                        let k = arg[idx];
                        idx += 1;
                        let (dr, dc) = ((k / 2) as usize, (k % 2) as usize);
                        let cur = dx.get(b, c, 2 * r + dr, 2 * q + dc);
                        dx.set(b, c, 2 * r + dr, 2 * q + dc, cur + d_out.get(b, c, r, q));
                    }
                }
            }
        }
        Ok(dx)
    }
}

/// 2×2 average pooling with stride 2.
#[derive(Clone, Default)]
pub struct AvgPool2 {
    in_shape: Option<Shape4>,
}

impl AvgPool2 {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for AvgPool2 {
    fn name(&self) -> &'static str {
        "avgpool2"
    }

    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        Some(Box::new(self.clone()))
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        check_even(input)?;
        let s = input.shape();
        let os = halved(s);
        let mut out = Tensor4::zeros(os, input.layout());
        for b in 0..s.d0 {
            for c in 0..s.d1 {
                for r in 0..os.d2 {
                    for q in 0..os.d3 {
                        let sum = input.get(b, c, 2 * r, 2 * q)
                            + input.get(b, c, 2 * r, 2 * q + 1)
                            + input.get(b, c, 2 * r + 1, 2 * q)
                            + input.get(b, c, 2 * r + 1, 2 * q + 1);
                        out.set(b, c, r, q, sum * 0.25);
                    }
                }
            }
        }
        self.in_shape = Some(s);
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let s = self.in_shape.ok_or_else(|| SwdnnError::ShapeMismatch {
            expected: "forward before backward".into(),
            got: "no cache".into(),
        })?;
        let os = halved(s);
        check_grad_shape(os, d_out)?;
        let mut dx = Tensor4::zeros(s, d_out.layout());
        for b in 0..s.d0 {
            for c in 0..s.d1 {
                for r in 0..os.d2 {
                    for q in 0..os.d3 {
                        let g = d_out.get(b, c, r, q) * 0.25;
                        for (dr, dc) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            let cur = dx.get(b, c, 2 * r + dr, 2 * q + dc);
                            dx.set(b, c, 2 * r + dr, 2 * q + dc, cur + g);
                        }
                    }
                }
            }
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::Layout;

    #[test]
    fn maxpool_takes_window_maxima() {
        let s = Shape4::new(1, 1, 2, 2);
        let x = Tensor4::from_vec(s, vec![1.0, 2.0, 3.0, 4.0]);
        let y = MaxPool2::new().forward(&x).unwrap();
        assert_eq!(y.get(0, 0, 0, 0), 4.0);
        assert_eq!(y.shape(), Shape4::new(1, 1, 1, 1));
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let s = Shape4::new(1, 1, 2, 2);
        let x = Tensor4::from_vec(s, vec![1.0, 2.0, 3.0, 4.0]);
        let mut p = MaxPool2::new();
        let _ = p.forward(&x).unwrap();
        let dy = Tensor4::full(Shape4::new(1, 1, 1, 1), Layout::Nchw, 7.0);
        let dx = p.backward(&dy).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn avgpool_averages_and_spreads() {
        let s = Shape4::new(1, 1, 2, 2);
        let x = Tensor4::from_vec(s, vec![1.0, 2.0, 3.0, 6.0]);
        let mut p = AvgPool2::new();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.get(0, 0, 0, 0), 3.0);
        let dy = Tensor4::full(Shape4::new(1, 1, 1, 1), Layout::Nchw, 4.0);
        let dx = p.backward(&dy).unwrap();
        assert!(dx.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn odd_extents_rejected() {
        let s = Shape4::new(1, 1, 3, 2);
        let x = Tensor4::zeros(s, Layout::Nchw);
        assert!(MaxPool2::new().forward(&x).is_err());
        assert!(AvgPool2::new().forward(&x).is_err());
    }
}
