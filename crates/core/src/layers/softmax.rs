//! Softmax + cross-entropy loss head.

use crate::error::SwdnnError;
use sw_tensor::{Shape4, Tensor4};

/// Combined softmax and cross-entropy: numerically stable forward, and the
/// classic `p - one_hot(y)` backward.
#[derive(Default)]
pub struct SoftmaxCrossEntropy {
    probs: Option<Tensor4<f64>>,
}

impl SoftmaxCrossEntropy {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean cross-entropy loss over the batch; logits are `(B, C, 1, 1)`.
    #[allow(clippy::needless_range_loop)] // b indexes both logits and labels
    pub fn forward(&mut self, logits: &Tensor4<f64>, labels: &[usize]) -> Result<f64, SwdnnError> {
        let s = logits.shape();
        check_labels(labels, s)?;
        let classes = s.d1;
        let mut probs = Tensor4::zeros(s, logits.layout());
        let mut loss = 0.0;
        for b in 0..s.d0 {
            let mut mx = f64::NEG_INFINITY;
            for c in 0..classes {
                mx = mx.max(logits.get(b, c, 0, 0));
            }
            let mut z = 0.0;
            for c in 0..classes {
                z += (logits.get(b, c, 0, 0) - mx).exp();
            }
            for c in 0..classes {
                let p = (logits.get(b, c, 0, 0) - mx).exp() / z;
                probs.set(b, c, 0, 0, p);
            }
            loss -= probs.get(b, labels[b], 0, 0).max(1e-300).ln();
        }
        self.probs = Some(probs);
        Ok(loss / s.d0 as f64)
    }

    /// Gradient of the mean loss w.r.t. the logits.
    #[allow(clippy::needless_range_loop)] // b indexes both probs and labels
    pub fn backward(&mut self, labels: &[usize]) -> Result<Tensor4<f64>, SwdnnError> {
        let probs = self
            .probs
            .as_ref()
            .ok_or_else(|| SwdnnError::ShapeMismatch {
                expected: "forward before backward".into(),
                got: "no cache".into(),
            })?;
        let s = probs.shape();
        check_labels(labels, s)?;
        let mut grad = probs.clone();
        let inv_b = 1.0 / s.d0 as f64;
        for b in 0..s.d0 {
            for c in 0..s.d1 {
                let delta = if c == labels[b] { 1.0 } else { 0.0 };
                grad.set(b, c, 0, 0, (probs.get(b, c, 0, 0) - delta) * inv_b);
            }
        }
        Ok(grad)
    }

    /// Argmax predictions from the last forward pass.
    pub fn predictions(&self) -> Option<Vec<usize>> {
        let probs = self.probs.as_ref()?;
        let s = probs.shape();
        let mut out = Vec::with_capacity(s.d0);
        for b in 0..s.d0 {
            let mut best = (0usize, f64::NEG_INFINITY);
            for c in 0..s.d1 {
                let p = probs.get(b, c, 0, 0);
                if p > best.1 {
                    best = (c, p);
                }
            }
            out.push(best.0);
        }
        Some(out)
    }
}

/// One label per image of the `(B, C, 1, 1)` logits, each below `C`.
fn check_labels(labels: &[usize], s: Shape4) -> Result<(), SwdnnError> {
    if labels.len() != s.d0 {
        return Err(SwdnnError::ShapeMismatch {
            expected: format!("{} labels", s.d0),
            got: format!("{}", labels.len()),
        });
    }
    match labels.iter().find(|&&l| l >= s.d1) {
        Some(l) => Err(SwdnnError::ShapeMismatch {
            expected: format!("label < {}", s.d1),
            got: format!("{l}"),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a logits tensor from a flat batch-major vector.
    fn logits_from(batch: usize, classes: usize, vals: &[f64]) -> Tensor4<f64> {
        assert_eq!(vals.len(), batch * classes);
        Tensor4::from_vec(Shape4::new(batch, classes, 1, 1), vals.to_vec())
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let mut sm = SoftmaxCrossEntropy::new();
        let logits = logits_from(2, 4, &[0.0; 8]);
        let loss = sm.forward(&logits, &[0, 3]).unwrap();
        assert!((loss - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn backward_is_p_minus_onehot_over_batch() {
        let mut sm = SoftmaxCrossEntropy::new();
        let logits = logits_from(1, 2, &[0.0, 0.0]);
        let _ = sm.forward(&logits, &[1]).unwrap();
        let g = sm.backward(&[1]).unwrap();
        assert!((g.get(0, 0, 0, 0) - 0.5).abs() < 1e-12);
        assert!((g.get(0, 1, 0, 0) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut sm = SoftmaxCrossEntropy::new();
        let vals = [0.3, -0.7, 1.2];
        let logits = logits_from(1, 3, &vals);
        let base = sm.forward(&logits, &[2]).unwrap();
        let g = sm.backward(&[2]).unwrap();
        let eps = 1e-6;
        for c in 0..3 {
            let mut bumped = vals;
            bumped[c] += eps;
            let l2 = SoftmaxCrossEntropy::new()
                .forward(&logits_from(1, 3, &bumped), &[2])
                .unwrap();
            let fd = (l2 - base) / eps;
            assert!((fd - g.get(0, c, 0, 0)).abs() < 1e-5, "class {c}");
        }
    }

    #[test]
    fn predictions_are_argmax() {
        let mut sm = SoftmaxCrossEntropy::new();
        let logits = logits_from(2, 3, &[1.0, 5.0, 2.0, 0.0, -1.0, 3.0]);
        let _ = sm.forward(&logits, &[0, 0]).unwrap();
        assert_eq!(sm.predictions().unwrap(), vec![1, 2]);
    }

    #[test]
    fn stability_with_large_logits() {
        let mut sm = SoftmaxCrossEntropy::new();
        let logits = logits_from(1, 2, &[1000.0, -1000.0]);
        let loss = sm.forward(&logits, &[0]).unwrap();
        assert!(loss.is_finite());
        assert!(loss < 1e-9);
    }

    #[test]
    fn label_bounds_checked() {
        let mut sm = SoftmaxCrossEntropy::new();
        let logits = logits_from(1, 2, &[0.0, 0.0]);
        assert!(sm.forward(&logits, &[2]).is_err());
        assert!(sm.forward(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn backward_checks_its_labels_too() {
        let mut sm = SoftmaxCrossEntropy::new();
        let logits = logits_from(2, 3, &[0.0; 6]);
        sm.forward(&logits, &[0, 2]).unwrap();
        for bad in [&[0][..], &[0, 1, 2], &[0, 3]] {
            assert!(
                matches!(sm.backward(bad), Err(SwdnnError::ShapeMismatch { .. })),
                "labels {bad:?}"
            );
        }
        assert!(sm.backward(&[0, 2]).is_ok());
    }
}
