//! Property-based tests on the fault-injection + recovery machinery.
//!
//! Two invariants the resilient executor promises:
//!
//! 1. **No shape is ever left planless.** Any shape `Conv2d::new` accepts
//!    runs to completion through the fallback chain — in the worst case on
//!    the host reference plan — so `NoPlan` never reaches the caller.
//! 2. **Faults cost time, never accuracy.** Under injected DMA fault rates
//!    up to 1e-3 with retries enabled, outputs are bit-for-bit identical to
//!    the fault-free run, the reported cycle count never decreases, and
//!    whenever a retry fired its overhead shows up in the retry counters
//!    (wall cycles may stay flat while double-buffering slack absorbs it).

use proptest::prelude::*;
use sw_tensor::init::lattice_tensor;
use sw_tensor::{ConvShape, Layout};
use swdnn::resilient::ResilientExecutor;
use swdnn::{FaultPlan, LowerCtx, SwdnnError};

/// Shapes spanning mesh-friendly and mesh-hostile geometries: odd channel
/// counts, tiny batches, and degenerate 1×1 images are all fair game.
fn arb_shape() -> impl Strategy<Value = ConvShape> {
    (
        1usize..33, // batch
        1usize..17, // ni
        1usize..17, // no
        1usize..7,  // ro
        1usize..9,  // co
        1usize..4,  // kr
        1usize..4,  // kc
    )
        .prop_map(|(b, ni, no, ro, co, kr, kc)| ConvShape::new(b, ni, no, ro, co, kr, kc))
}

/// Shapes the mesh plans actually map (so fault injection exercises real
/// DMA traffic, not the host fallback).
fn arb_mesh_shape() -> impl Strategy<Value = ConvShape> {
    (1usize..3, 1usize..3, 1usize..3, 1usize..3)
        .prop_map(|(b, ni, no, c)| ConvShape::new(32 * b, 8 * ni, 8 * no, 4, 4 * c, 3, 3))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn every_accepted_shape_completes_without_noplan(shape in arb_shape()) {
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 21);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 22);
        match ResilientExecutor::new().run(&shape, &input, &filter) {
            Ok(rep) => {
                prop_assert_eq!(rep.run.output.shape(), shape.output_shape());
                prop_assert!(rep.run.output.data().iter().all(|v| v.is_finite()));
            }
            Err(SwdnnError::NoPlan(s)) => {
                return Err(TestCaseError::fail(format!(
                    "fallback chain surfaced NoPlan for {s}"
                )));
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!("unexpected failure: {e}")));
            }
        }
    }

    #[test]
    fn low_rate_dma_faults_cost_cycles_not_accuracy(
        shape in arb_mesh_shape(),
        seed in 0u64..1_000,
        rate_millis in 1u32..=10,
    ) {
        let rate = rate_millis as f64 * 1e-4; // 1e-4 ..= 1e-3
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 23);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 24);
        let clean = ResilientExecutor::new().run(&shape, &input, &filter).unwrap();
        let faulty = ResilientExecutor::new()
            .on(LowerCtx::default().with_fault(Some(FaultPlan::none(seed).with_dma_fail_rate(rate))))
            .run(&shape, &input, &filter)
            .unwrap();
        // Bit-for-bit identical output: recovery replays the exact work.
        prop_assert_eq!(faulty.run.output.max_abs_diff(&clean.run.output), 0.0);
        // Retry overhead is charged into the timing model, never hidden.
        // Wall cycles may stay flat while double-buffering slack absorbs
        // the backoff, but they can never shrink, and the consumed slack
        // is always visible in the retry counters.
        prop_assert!(faulty.run.timing.cycles >= clean.run.timing.cycles);
        if faulty.dma_retries > 0 {
            prop_assert!(
                faulty.retry_cycles > 0,
                "retries fired ({}) but no overhead was charged",
                faulty.dma_retries
            );
        }
    }
}
