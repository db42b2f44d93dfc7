//! Property-based tests on layer mathematics: algebraic identities every
//! layer must satisfy regardless of shape or data.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use sw_tensor::conv_general::ConvGeometry;
use sw_tensor::init::seeded_tensor;
use sw_tensor::{ConvShape, Layout, Shape4, Tensor4};
use swdnn::layers::{
    AvgPool2, BatchNorm2d, Conv2dLayer, ConvGeneralLayer, Dropout, Engine, Layer, Linear, MaxPool2,
    ReLU, Sigmoid, SoftmaxCrossEntropy, Tanh,
};
use swdnn::SwdnnError;

/// Every layer's `backward` checks `d_out` against the output shape its
/// forward pass cached: a wrong-shaped gradient is a `ShapeMismatch`, never
/// a panic and never a silently truncated or padded result.
#[test]
fn every_layer_rejects_a_wrong_shaped_gradient() {
    let s = Shape4::new(2, 3, 4, 4);
    let x = seeded_tensor::<f64>(s, Layout::Nchw, 7);
    let mut identity_dropout = Dropout::new(0.5, 1);
    identity_dropout.training = false;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(ReLU::new()),
        Box::new(Sigmoid::new()),
        Box::new(Tanh::new()),
        Box::new(MaxPool2::new()),
        Box::new(AvgPool2::new()),
        Box::new(Linear::new(3 * 4 * 4, 5, 1)),
        Box::new(BatchNorm2d::new(3)),
        Box::new(Dropout::new(0.5, 1)),
        Box::new(identity_dropout),
        Box::new(ConvGeneralLayer::new(ConvGeometry::same(3, 3), 3, 2, 1)),
        Box::new(Conv2dLayer::new(ConvShape::new(2, 3, 2, 2, 2, 3, 3), Engine::Host, 1).unwrap()),
    ];
    for mut layer in layers {
        let o = layer.forward(&x).unwrap().shape();
        let wrong = [
            s,
            Shape4::new(o.d0 + 1, o.d1, o.d2, o.d3),
            Shape4::new(o.d0, o.d1 + 1, o.d2, o.d3),
            Shape4::new(o.d0, o.d1, o.d2, o.d3 + 1),
            Shape4::new(o.d0, o.d1, o.d2.max(2) - 1, o.d3),
        ];
        for w in wrong.into_iter().filter(|&w| w != o) {
            let d_out = Tensor4::full(w, Layout::Nchw, 1.0);
            let got = catch_unwind(AssertUnwindSafe(|| layer.backward(&d_out)));
            assert!(
                matches!(got, Ok(Err(SwdnnError::ShapeMismatch { .. }))),
                "{}: forward gave {o:?}, backward accepted or panicked on {w:?}",
                layer.name()
            );
        }
        let d_out = Tensor4::full(o, Layout::Nchw, 1.0);
        assert!(layer.backward(&d_out).is_ok(), "{}", layer.name());
    }
}

fn arb_shape() -> impl Strategy<Value = Shape4> {
    (1usize..4, 1usize..4, 1usize..4, 1usize..4)
        .prop_map(|(b, c, h, w)| Shape4::new(b, c, 2 * h, 2 * w))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn relu_is_idempotent(s in arb_shape(), seed in 0u64..1000) {
        let x = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        let mut relu = ReLU::new();
        let once = relu.forward(&x).unwrap();
        let twice = ReLU::new().forward(&once).unwrap();
        prop_assert_eq!(twice.max_abs_diff(&once), 0.0);
    }

    #[test]
    fn relu_is_positively_homogeneous(s in arb_shape(), seed in 0u64..1000, a in 0.1f64..10.0) {
        let x = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        let mut scaled = x.clone();
        scaled.data_mut().iter_mut().for_each(|v| *v *= a);
        let y1 = ReLU::new().forward(&scaled).unwrap();
        let mut y2 = ReLU::new().forward(&x).unwrap();
        y2.data_mut().iter_mut().for_each(|v| *v *= a);
        prop_assert!(y1.approx_eq(&y2, 1e-12));
    }

    #[test]
    fn maxpool_commutes_with_positive_scaling(s in arb_shape(), seed in 0u64..1000, a in 0.1f64..10.0) {
        let x = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        let mut scaled = x.clone();
        scaled.data_mut().iter_mut().for_each(|v| *v *= a);
        let y1 = MaxPool2::new().forward(&scaled).unwrap();
        let mut y2 = MaxPool2::new().forward(&x).unwrap();
        y2.data_mut().iter_mut().for_each(|v| *v *= a);
        prop_assert!(y1.approx_eq(&y2, 1e-9));
    }

    #[test]
    fn avgpool_is_linear(s in arb_shape(), sa in 0u64..500, sb in 500u64..1000) {
        let x = seeded_tensor::<f64>(s, Layout::Nchw, sa);
        let y = seeded_tensor::<f64>(s, Layout::Nchw, sb);
        let mut sum = x.clone();
        for (v, w) in sum.data_mut().iter_mut().zip(y.data()) {
            *v += w;
        }
        let p_sum = AvgPool2::new().forward(&sum).unwrap();
        let px = AvgPool2::new().forward(&x).unwrap();
        let py = AvgPool2::new().forward(&y).unwrap();
        let mut p_sep = px.clone();
        for (v, w) in p_sep.data_mut().iter_mut().zip(py.data()) {
            *v += w;
        }
        prop_assert!(p_sum.approx_eq(&p_sep, 1e-10));
    }

    #[test]
    fn maxpool_dominates_avgpool(s in arb_shape(), seed in 0u64..1000) {
        let x = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        let mx = MaxPool2::new().forward(&x).unwrap();
        let av = AvgPool2::new().forward(&x).unwrap();
        for (m, a) in mx.data().iter().zip(av.data()) {
            prop_assert!(m >= a);
        }
    }

    #[test]
    fn sigmoid_range_and_symmetry(s in arb_shape(), seed in 0u64..1000) {
        let x = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        let y = Sigmoid::new().forward(&x).unwrap();
        for v in y.data() {
            prop_assert!((0.0..1.0).contains(v));
        }
        // sigmoid(-x) = 1 - sigmoid(x)
        let mut neg = x.clone();
        neg.data_mut().iter_mut().for_each(|v| *v = -*v);
        let yn = Sigmoid::new().forward(&neg).unwrap();
        for (a, b) in y.data().iter().zip(yn.data()) {
            prop_assert!((a + b - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_probabilities_sum_to_one_and_shift_invariant(
        batch in 1usize..4, classes in 2usize..6, seed in 0u64..1000, shift in -5.0f64..5.0,
    ) {
        let s = Shape4::new(batch, classes, 1, 1);
        let logits = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        let labels: Vec<usize> = (0..batch).map(|b| b % classes).collect();
        let mut sm = SoftmaxCrossEntropy::new();
        let loss = sm.forward(&logits, &labels).unwrap();
        // Shift every logit by a constant: loss must be unchanged.
        let mut shifted = logits.clone();
        shifted.data_mut().iter_mut().for_each(|v| *v += shift);
        let loss2 = SoftmaxCrossEntropy::new().forward(&shifted, &labels).unwrap();
        prop_assert!((loss - loss2).abs() < 1e-9);
        // Gradients per sample sum to zero (p - onehot sums to 0).
        let g = sm.backward(&labels).unwrap();
        for b in 0..batch {
            let sum: f64 = (0..classes).map(|c| g.get(b, c, 0, 0)).sum();
            prop_assert!(sum.abs() < 1e-12);
        }
    }

    #[test]
    fn conv_layer_is_linear_in_its_input(
        seed in 0u64..1000,
    ) {
        let shape = ConvShape::new(2, 2, 3, 4, 4, 3, 3);
        let mut layer = Conv2dLayer::new(shape, Engine::Host, 77).unwrap();
        layer.bias.iter_mut().for_each(|b| *b = 0.0);
        let x = seeded_tensor::<f64>(shape.input_shape(), Layout::Nchw, seed);
        let y = seeded_tensor::<f64>(shape.input_shape(), Layout::Nchw, seed + 1);
        let mut sum = x.clone();
        for (v, w) in sum.data_mut().iter_mut().zip(y.data()) {
            *v += w;
        }
        let c_sum = layer.forward(&sum).unwrap();
        let cx = layer.forward(&x).unwrap();
        let cy = layer.forward(&y).unwrap();
        let mut c_sep = cx.clone();
        for (v, w) in c_sep.data_mut().iter_mut().zip(cy.data()) {
            *v += w;
        }
        prop_assert!(c_sum.approx_eq(&c_sep, 1e-9));
    }

    #[test]
    fn pooling_round_trip_gradient_conserves_mass(s in arb_shape(), seed in 0u64..1000) {
        // AvgPool backward distributes exactly the incoming gradient mass.
        let x = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        let mut pool = AvgPool2::new();
        let y = pool.forward(&x).unwrap();
        let dy = seeded_tensor::<f64>(y.shape(), Layout::Nchw, seed + 2);
        let dx = pool.backward(&dy).unwrap();
        prop_assert!((dx.sum_f64() - dy.sum_f64()).abs() < 1e-9);
    }
}
