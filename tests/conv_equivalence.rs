//! Property-based equivalence: every optimized convolution plan must agree
//! with the naive 7-loop reference (Listing 1) on arbitrary shapes and
//! data — the central correctness claim of the reproduction.
//!
//! Uses `lattice` operands (quarter-integers) so results are *exactly*
//! equal regardless of each plan's summation order, plus a random-data
//! pass with a tight tolerance.

use proptest::prelude::*;
use sw_perfmodel::select::Blocking;
use sw_tensor::init::{lattice_tensor, seeded_tensor};
use sw_tensor::{conv2d_ref, ConvShape, Layout};
use swdnn::plans::{BatchAwarePlan, ConvPlan, DirectPlan, ImageAwarePlan};
use swdnn::Conv2d;

/// Shapes the image-size-aware plan supports (bB = 32).
fn image_plan_shapes() -> impl Strategy<Value = (ConvShape, Blocking)> {
    (
        1usize..=2, // batch multiple of 32
        1usize..=3, // ni / 8
        1usize..=3, // no / 8
        1usize..=4, // ro
        1usize..=2, // co / b_co
        1usize..=3, // kr
        1usize..=3, // kc
        prop::sample::select(vec![4usize, 8]),
    )
        .prop_map(|(b32, ni8, no8, ro, cob, kr, kc, b_co)| {
            (
                ConvShape::new(32 * b32, 8 * ni8, 8 * no8, ro, b_co * cob, kr, kc),
                Blocking { b_b: 32, b_co },
            )
        })
}

/// Shapes the batch-size-aware plan supports.
fn batch_plan_shapes() -> impl Strategy<Value = (ConvShape, usize)> {
    (
        1usize..=3, // batch / 8
        1usize..=3,
        1usize..=3,
        1usize..=4,
        1usize..=3, // co / b_co
        1usize..=3,
        1usize..=3,
        prop::sample::select(vec![2usize, 4]),
    )
        .prop_map(|(b8, ni8, no8, ro, cob, kr, kc, b_co)| {
            (
                ConvShape::new(8 * b8, 8 * ni8, 8 * no8, ro, b_co * cob, kr, kc),
                b_co,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn image_aware_plan_equals_reference((shape, blocking) in image_plan_shapes(), seed in 0u64..1000) {
        let plan = ImageAwarePlan::new(blocking);
        prop_assume!(plan.supports(&shape).is_ok());
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, seed);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, seed + 1);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = plan.run(&shape, &input, &filter).unwrap();
        prop_assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn batch_aware_plan_equals_reference((shape, b_co) in batch_plan_shapes(), seed in 0u64..1000) {
        let plan = BatchAwarePlan::new(b_co);
        prop_assume!(plan.supports(&shape).is_ok());
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, seed);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, seed + 1);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = plan.run(&shape, &input, &filter).unwrap();
        prop_assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn direct_plan_equals_reference_on_any_shape(
        b in 1usize..4, ni in 1usize..5, no in 1usize..5,
        ro in 1usize..4, co in 1usize..4, kr in 1usize..3, kc in 1usize..3,
        seed in 0u64..1000,
    ) {
        let shape = ConvShape::new(b, ni, no, ro, co, kr, kc);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, seed);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, seed + 1);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = DirectPlan::default().run(&shape, &input, &filter).unwrap();
        // Same summation order as the reference => exactly equal.
        prop_assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn auto_selected_plan_equals_reference_on_random_data(
        (shape, _) in batch_plan_shapes(), seed in 0u64..1000,
    ) {
        let conv = Conv2d::new(shape).unwrap();
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, seed);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, seed + 1);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = conv.forward(&input, &filter).unwrap();
        prop_assert!(run.output.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn bwd_filter_plan_equals_reference(
        (ni8, no8) in (1usize..=3, 1usize..=3),
        ro in 1usize..=4, cob in 1usize..=2,
        kr in 1usize..=3, kc in 1usize..=3,
        // b_B 64 puts two batch quads on each mesh chunk.
        (batch, b_b) in prop::sample::select(vec![(32usize, 32usize), (64, 32), (64, 64)]),
        b_co in prop::sample::select(vec![1usize, 2, 3, 4]),
        seed in 0u64..1000,
    ) {
        let shape = ConvShape::new(batch, 8 * ni8, 8 * no8, ro, b_co * cob, kr, kc);
        let plan = swdnn::plans::BwdFilterPlan::new(b_b, b_co);
        prop_assume!(plan.supports(&shape).is_ok());
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, seed);
        let d_out = lattice_tensor(shape.output_shape(), Layout::Nchw, seed + 1);
        let expect = sw_tensor::conv2d_bwd_filter_ref(shape, &input, &d_out);
        let (dw, _) = plan.run(&shape, &input, &d_out).unwrap();
        prop_assert_eq!(dw.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn im2col_equals_reference(
        b in 1usize..3, ni in 1usize..4, no in 1usize..4,
        ro in 1usize..4, co in 1usize..4, kr in 1usize..3, kc in 1usize..3,
        seed in 0u64..1000,
    ) {
        let shape = ConvShape::new(b, ni, no, ro, co, kr, kc);
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, seed);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, seed + 1);
        let expect = conv2d_ref(shape, &input, &filter);
        let got = sw_gpuref::conv2d_im2col(&shape, &input, &filter);
        prop_assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn layouts_round_trip(
        d0 in 1usize..10, d1 in 1usize..6, d2 in 1usize..6, d3 in 1usize..6,
        seed in 0u64..1000,
    ) {
        let s = sw_tensor::Shape4::new(d0, d1, d2, d3);
        let t = seeded_tensor::<f64>(s, Layout::Nchw, seed);
        for lay in Layout::ALL {
            let back = t.to_layout(lay).to_layout(Layout::Nchw);
            prop_assert_eq!(back.max_abs_diff(&t), 0.0);
        }
    }

    #[test]
    fn backward_data_is_adjoint_of_forward(
        b in 1usize..3, ni in 1usize..3, no in 1usize..3,
        ro in 1usize..4, co in 1usize..4, kr in 1usize..3, kc in 1usize..3,
        seed in 0u64..1000,
    ) {
        // <conv(x), y> == <x, conv^T(y)> — the defining adjoint property.
        let shape = ConvShape::new(b, ni, no, ro, co, kr, kc);
        let x = seeded_tensor::<f64>(shape.input_shape(), Layout::Nchw, seed);
        let w = seeded_tensor::<f64>(shape.filter_shape(), Layout::Nchw, seed + 1);
        let y = seeded_tensor::<f64>(shape.output_shape(), Layout::Nchw, seed + 2);
        let fwd = conv2d_ref(shape, &x, &w);
        let bwd = sw_tensor::conv2d_bwd_data_ref(shape, &y, &w);
        let lhs: f64 = (0..shape.output_shape().len())
            .map(|i| fwd.data()[i] * y.data()[i])
            .sum();
        let rhs: f64 = (0..shape.input_shape().len())
            .map(|i| x.data()[i] * bwd.data()[i])
            .sum();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()));
    }
}
