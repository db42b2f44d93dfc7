//! Fault tolerance: run convolutions on a *faulty* simulated SW26010 and
//! watch the resilient executor recover — retries for transient DMA
//! faults, plan fallback, and degraded-mesh execution around a dead CPE.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use sw_tensor::init::seeded_tensor;
use swdnn::{ConvShape, FaultPlan, Layout, LowerCtx, ResilientExecutor, SwdnnError, VerifyPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = ConvShape::new(32, 16, 16, 8, 8, 3, 3);
    let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 1);
    let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 2);
    println!("convolution: {shape}\n");

    // 1. Fault-free baseline.
    let clean = ResilientExecutor::new().run(&shape, &input, &filter)?;
    println!(
        "clean:     plan={} cycles={} attempts={}",
        clean.plan_name, clean.run.timing.cycles, clean.attempts
    );

    // 2. Transient DMA faults: retried with backoff charged into the
    //    timing model; the output stays bit-for-bit identical.
    let faulty = ResilientExecutor::new()
        .on(LowerCtx::default().with_fault(Some(FaultPlan::none(11).with_dma_fail_rate(5e-3))))
        .with_verification(VerifyPolicy::SpotCheck {
            samples: 16,
            tol: 1e-10,
        })
        .run(&shape, &input, &filter)?;
    println!(
        "dma 5e-3:  plan={} cycles={} dma_retries={} retry_cycles={} drift={:.1e}",
        faulty.plan_name,
        faulty.run.timing.cycles,
        faulty.dma_retries,
        faulty.retry_cycles,
        faulty.run.output.max_abs_diff(&clean.run.output)
    );

    // 3. A dead CPE at (2, 3): the executor masks the faulty row/column
    //    and re-plans on a degraded 4x4 mesh.
    let dead = ResilientExecutor::new()
        .on(LowerCtx::default().with_fault(Some(FaultPlan::none(7).with_dead_cpe(2, 3))))
        .run(&shape, &input, &filter)?;
    println!(
        "dead CPE:  plan={} degraded={} drift={:.1e}",
        dead.plan_name,
        dead.degraded,
        dead.run.output.max_abs_diff(&clean.run.output)
    );
    for note in &dead.fallbacks {
        println!("           fallback: {note}");
    }

    // 4. Unrecoverable: every DMA transfer fails and fallback is disabled,
    //    so the executor surfaces FaultExhausted instead of looping.
    let doomed = ResilientExecutor::new()
        .on(LowerCtx::default().with_fault(Some(FaultPlan::none(3).with_dma_fail_rate(1.0))))
        .with_max_retries(2)
        .with_fallback(false)
        .run(&shape, &input, &filter);
    match doomed {
        Err(e @ SwdnnError::FaultExhausted { .. }) => println!("rate 1.0:  {e}"),
        other => println!("rate 1.0:  unexpected: {other:?}"),
    }

    Ok(())
}
