//! Sequential networks and SGD training.
//!
//! Enough machinery to train the paper's motivating workload — a small CNN
//! classifier — end-to-end, with the convolutions optionally running on the
//! simulated SW26010 (see `examples/train_cnn.rs`).

use crate::error::SwdnnError;
use crate::layers::{Layer, SoftmaxCrossEntropy};
use sw_tensor::Tensor4;

/// A stack of layers ending in a softmax cross-entropy head.
pub struct Sequential {
    pub layers: Vec<Box<dyn Layer>>,
    pub loss: SoftmaxCrossEntropy,
}

impl Sequential {
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self {
            layers,
            loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Forward through all layers, returning the logits.
    pub fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// One optimizer step on a batch with a stateful [`crate::optim::Optimizer`];
    /// returns the loss before the update.
    pub fn train_step_opt(
        &mut self,
        input: &Tensor4<f64>,
        labels: &[usize],
        opt: &mut crate::optim::Optimizer,
    ) -> Result<f64, SwdnnError> {
        let loss = forward_backward(&mut self.layers, &mut self.loss, input.clone(), labels)?;
        opt.step(&mut self.layers);
        Ok(loss)
    }

    /// One SGD step on a batch; returns the loss before the update.
    pub fn train_step(
        &mut self,
        input: &Tensor4<f64>,
        labels: &[usize],
        lr: f64,
    ) -> Result<f64, SwdnnError> {
        let loss = forward_backward(&mut self.layers, &mut self.loss, input.clone(), labels)?;
        for layer in &mut self.layers {
            layer.sgd_step(lr);
        }
        Ok(loss)
    }

    /// Predicted classes for a batch: argmax over the logits.
    ///
    /// Reads the logits directly — the earlier implementation ran a
    /// fake-label loss forward to reach `loss.predictions()`, which both
    /// mutated the loss head's cached state between training steps and
    /// panicked via `unwrap` instead of surfacing an error.
    fn predict(&mut self, input: &Tensor4<f64>) -> Result<Vec<usize>, SwdnnError> {
        let logits = self.forward(input)?;
        let (batch, classes) = (logits.shape().d0, logits.shape().d1);
        if batch == 0 || classes == 0 {
            return Err(SwdnnError::ShapeMismatch {
                expected: "non-empty batch and class dimensions".into(),
                got: format!("logits {batch}x{classes}"),
            });
        }
        Ok((0..batch)
            .map(|b| {
                (0..classes)
                    .map(|c| logits.get(b, c, 0, 0))
                    .enumerate()
                    .max_by(|(_, x), (_, y)| x.total_cmp(y))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect())
    }

    /// Classification accuracy on a batch.
    pub fn accuracy(&mut self, input: &Tensor4<f64>, labels: &[usize]) -> Result<f64, SwdnnError> {
        if labels.is_empty() {
            return Err(SwdnnError::ShapeMismatch {
                expected: "at least one label".into(),
                got: "empty label slice".into(),
            });
        }
        let preds = self.predict(input)?;
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }
}

/// Forward `input` through `layers` and the loss head on `labels`, then
/// backward through every layer, which accumulates its parameter
/// gradients. Returns the loss.
pub(crate) fn forward_backward<L: Layer + ?Sized>(
    layers: &mut [Box<L>],
    loss: &mut SoftmaxCrossEntropy,
    input: Tensor4<f64>,
    labels: &[usize],
) -> Result<f64, SwdnnError> {
    let mut act = input;
    for layer in layers.iter_mut() {
        act = layer.forward(&act)?;
    }
    let value = loss.forward(&act, labels)?;
    let mut grad = loss.backward(labels)?;
    for layer in layers.iter_mut().rev() {
        grad = layer.backward(&grad)?;
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2dLayer, Engine, Linear, MaxPool2, ReLU};
    use sw_tensor::{ConvShape, Layout, Shape4};

    /// A linearly-separable synthetic task: class = which image half is
    /// brighter.
    fn synthetic_batch(batch: usize, seed: u64) -> (Tensor4<f64>, Vec<usize>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Shape4::new(batch, 1, 6, 6);
        let mut x = Tensor4::zeros(s, Layout::Nchw);
        let mut labels = Vec::with_capacity(batch);
        for b in 0..batch {
            let class = rng.gen_range(0..2usize);
            for r in 0..6 {
                for c in 0..6 {
                    let bright = if (class == 0) == (c < 3) { 1.0 } else { 0.1 };
                    x.set(b, 0, r, c, bright + rng.gen_range(-0.05..0.05));
                }
            }
            labels.push(class);
        }
        (x, labels)
    }

    fn small_cnn() -> Sequential {
        // 1x6x6 -> conv(2 ch, 3x3) -> 2x4x4 -> relu -> pool -> 2x2x2 -> fc(2)
        let conv =
            Conv2dLayer::new(ConvShape::new(16, 1, 2, 4, 4, 3, 3), Engine::Host, 100).unwrap();
        Sequential::new(vec![
            Box::new(conv),
            Box::new(ReLU::new()),
            Box::new(MaxPool2::new()),
            Box::new(Linear::new(2 * 2 * 2, 2, 101)),
        ])
    }

    #[test]
    fn loss_decreases_during_training() {
        let mut net = small_cnn();
        let (x, y) = synthetic_batch(16, 7);
        let first = net.train_step(&x, &y, 0.1).unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = net.train_step(&x, &y, 0.1).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn learns_the_synthetic_task() {
        let mut net = small_cnn();
        let (x, y) = synthetic_batch(16, 8);
        for _ in 0..60 {
            net.train_step(&x, &y, 0.15).unwrap();
        }
        let (xt, yt) = synthetic_batch(16, 9);
        let acc = net.accuracy(&xt, &yt).unwrap();
        assert!(acc >= 0.85, "held-out accuracy {acc}");
    }

    #[test]
    fn predict_is_pure_argmax_without_touching_loss_state() {
        // Regression: predict() used to run a fake-label loss forward and
        // read loss.predictions(), mutating the head's cached state (and
        // panicking via unwrap on a fresh head). An identity network makes
        // the argmax directly checkable.
        let mut net = Sequential::new(vec![]);
        let mut x = Tensor4::zeros(Shape4::new(3, 4, 1, 1), Layout::Nchw);
        for (b, best) in [(0usize, 2usize), (1, 0), (2, 3)] {
            x.set(b, best, 0, 0, 5.0);
        }
        let preds = net.predict(&x).unwrap();
        assert_eq!(preds, vec![2, 0, 3]);
        assert!(
            net.loss.predictions().is_none(),
            "predict must not run the loss head"
        );
    }

    #[test]
    fn predict_rejects_empty_batch_instead_of_panicking() {
        let mut net = Sequential::new(vec![]);
        let x = Tensor4::zeros(Shape4::new(0, 2, 1, 1), Layout::Nchw);
        let err = net.predict(&x).unwrap_err();
        assert!(matches!(err, SwdnnError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn accuracy_rejects_empty_labels_instead_of_nan() {
        let mut net = Sequential::new(vec![]);
        let x = Tensor4::zeros(Shape4::new(2, 2, 1, 1), Layout::Nchw);
        let err = net.accuracy(&x, &[]).unwrap_err();
        assert!(matches!(err, SwdnnError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn param_count_sums_layers() {
        let net = small_cnn();
        // conv: 2*1*3*3 + 2 = 20; fc: 8*2 + 2 = 18
        assert_eq!(net.param_count(), 38);
    }
}
