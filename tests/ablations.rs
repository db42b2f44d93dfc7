//! Integration tests for the design-choice ablations DESIGN.md calls out —
//! each optimization must be (a) functionally neutral and (b) measurably
//! beneficial on the simulator.

use sw_perfmodel::select::Blocking;
use sw_tensor::init::lattice_tensor;
use sw_tensor::{ConvShape, Layout};
use swdnn::plans::{BatchAwarePlan, ConvPlan, ImageAwarePlan};

fn shape() -> ConvShape {
    ConvShape::new(32, 16, 16, 6, 8, 3, 3)
}

fn operands(shape: &ConvShape) -> (sw_tensor::Tensor4<f64>, sw_tensor::Tensor4<f64>) {
    (
        lattice_tensor(shape.input_shape(), Layout::Nchw, 401),
        lattice_tensor(shape.filter_shape(), Layout::Nchw, 402),
    )
}

#[test]
fn kernel_reordering_helps_both_plans_and_changes_nothing() {
    // Needs enough channels that compute dominates over DMA and bus time;
    // with few channels the kernel is a couple of iterations and the gain
    // vanishes into communication overheads.
    let shape = ConvShape::new(32, 64, 64, 2, 8, 3, 3);
    let (input, filter) = operands(&shape);

    // Image plan.
    let mut img = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 8 });
    let fast = img.run(&shape, &input, &filter).unwrap();
    img.reordered_kernel = false;
    let slow = img.run(&shape, &input, &filter).unwrap();
    assert_eq!(fast.output.max_abs_diff(&slow.output), 0.0);
    let ratio = slow.timing.cycles as f64 / fast.timing.cycles as f64;
    assert!(ratio > 1.1, "image plan reordering gain only {ratio:.2}x");
    assert!(
        ratio < 26.0 / 17.0 + 0.2,
        "gain cannot exceed the kernel bound"
    );

    // Batch plan.
    let mut bat = BatchAwarePlan::new(4);
    let fast = bat.run(&shape, &input, &filter).unwrap();
    bat.reordered_kernel = false;
    let slow = bat.run(&shape, &input, &filter).unwrap();
    assert_eq!(fast.output.max_abs_diff(&slow.output), 0.0);
    assert!(slow.timing.cycles > fast.timing.cycles);
}

#[test]
fn double_buffering_is_functionally_neutral_and_faster() {
    let shape = shape();
    let (input, filter) = operands(&shape);
    let buffered = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 });
    let mut sync = buffered;
    sync.double_buffer = false;
    let a = buffered.run(&shape, &input, &filter).unwrap();
    let b = sync.run(&shape, &input, &filter).unwrap();
    assert_eq!(a.output.max_abs_diff(&b.output), 0.0);
    assert!(b.timing.cycles > a.timing.cycles);
}

#[test]
fn channel_blocking_trades_traffic_for_footprint() {
    let shape = ConvShape::new(32, 32, 8, 3, 8, 2, 2);
    let (input, filter) = operands(&shape);
    let plain = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 });
    let blocked = plain.with_ni_blocking(8);
    let a = plain.run(&shape, &input, &filter).unwrap();
    let b = blocked.run(&shape, &input, &filter).unwrap();
    assert_eq!(a.output.max_abs_diff(&b.output), 0.0);
    // Footprint shrinks...
    let ldm = |run: &swdnn::plans::ConvRun| run.timing.stats.ldm_high_water_doubles;
    assert!(ldm(&b) < ldm(&a));
    // ...while input traffic grows (the window is re-fetched per block).
    assert!(
        b.timing.stats.totals.dma_get_bytes >= a.timing.stats.totals.dma_get_bytes,
        "blocking cannot reduce traffic"
    );
}

#[test]
fn bigger_ldm_blocks_reduce_traffic() {
    // Eq. 1's whole point: larger (b_b x b_co) tiles fetch the filter set
    // fewer times.
    let shape = ConvShape::new(64, 16, 16, 4, 16, 3, 3);
    let (input, filter) = operands(&shape);
    let small = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 })
        .run(&shape, &input, &filter)
        .unwrap();
    let large = ImageAwarePlan::new(Blocking { b_b: 64, b_co: 16 })
        .run(&shape, &input, &filter)
        .unwrap();
    assert_eq!(small.output.max_abs_diff(&large.output), 0.0);
    assert!(
        large.timing.stats.totals.dma_get_bytes < small.timing.stats.totals.dma_get_bytes,
        "large blocks must move fewer bytes: {} vs {}",
        large.timing.stats.totals.dma_get_bytes,
        small.timing.stats.totals.dma_get_bytes
    );
}

#[test]
fn autotune_best_is_at_least_as_fast_as_every_candidate() {
    let rep = swdnn::tune::autotune(&shape()).unwrap();
    let best = rep.best().cycles;
    for c in &rep.candidates {
        assert!(best <= c.cycles);
    }
}

#[test]
fn res_mii_bounds_the_simulated_steady_state() {
    // The §VI schedule achieves its resource bound exactly.
    use sw_isa::{naive_gemm_kernel, reordered_gemm_kernel, DualPipe, KernelSpec};
    let pipe = DualPipe::default();
    for n in [4usize, 16] {
        let reord = reordered_gemm_kernel(KernelSpec::new(n));
        let c_n = pipe
            .run(&reordered_gemm_kernel(KernelSpec::new(n + 1)))
            .cycles
            - pipe.run(&reord).cycles;
        assert_eq!(c_n, 17, "steady state");
        // And the naive schedule misses the bound by 9 cycles/iter.
        let naive_period = pipe.run(&naive_gemm_kernel(KernelSpec::new(n + 1))).cycles
            - pipe.run(&naive_gemm_kernel(KernelSpec::new(n))).cycles;
        assert_eq!(naive_period, 26);
    }
}
