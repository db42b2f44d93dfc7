//! The `fault_campaign` artifact: sweep DMA fault rates across the paper's
//! convolution configurations and report completion, retry overhead, and
//! numeric drift against the reference convolution; and the
//! `fault_campaign_dead_cpe` artifact: the first three of them with one CPE
//! dead.
//!
//! The configurations keep the paper's channel settings (the Table III
//! plans and a Fig. 8 diagonal point) at reduced spatial extents — the
//! campaign runs every convolution *in full* (not sampled) so the output
//! can be diffed bit-for-bit against `conv2d_ref`, and fault decisions
//! depend on the actual DMA stream, not an extrapolation.
//!
//! Expected picture:
//!
//! * rate 0 — every config completes first try, zero overhead, zero drift;
//! * rates 1e-4 / 1e-3 — every config still completes (simulator-level DMA
//!   retries absorb the faults), drift stays exactly 0, overhead cycles
//!   grow with the rate;
//! * rate 1e-2 — plans may burn through retries and fall down the plan
//!   chain, but the campaign still completes every config;
//! * dead CPE — the executor masks the faulty row/column and re-plans on
//!   the degraded 4×4 mesh.

use crate::report::{f, Table};
use sw_tensor::init::lattice_tensor;
use sw_tensor::{conv2d_ref, ConvShape, Layout, Tensor4};
use swdnn::plans::LowerCtx;
use swdnn::resilient::ResilientExecutor;
use swdnn::FaultPlan;

const SEED: u64 = 0xFA_17;
const RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// Paper channel configurations at campaign scale (B=32, 4×8 output).
fn campaign_configs() -> Vec<(&'static str, ConvShape)> {
    vec![
        // The four Table III configurations' channel settings.
        ("t3 img 128/128", ConvShape::new(32, 128, 128, 4, 8, 3, 3)),
        ("t3 img 128/256", ConvShape::new(32, 128, 256, 4, 8, 3, 3)),
        ("t3 bat 256/256", ConvShape::new(32, 256, 256, 4, 8, 3, 3)),
        ("t3 bat 128/384", ConvShape::new(32, 128, 384, 4, 8, 3, 3)),
        // Fig. 8 diagonal start/end points.
        ("fig8 64/64", ConvShape::new(32, 64, 64, 4, 8, 3, 3)),
        ("fig8 384/384", ConvShape::new(32, 384, 384, 4, 8, 3, 3)),
        // A Fig. 9 larger-filter point.
        ("fig9 64/64 k5", ConvShape::new(32, 64, 64, 4, 8, 5, 5)),
    ]
}

/// Operands and the reference output every run of `shape` is diffed with.
fn operands(shape: &ConvShape) -> (Tensor4<f64>, Tensor4<f64>, Tensor4<f64>) {
    let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 31);
    let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 32);
    let expect = conv2d_ref(*shape, &input, &filter);
    (input, filter, expect)
}

struct Outcome {
    name: &'static str,
    rate: f64,
    completed: bool,
    plan: String,
    attempts: u32,
    dma_retries: u64,
    overhead_cycles: u64,
    slowdown: f64,
    drift: f64,
}

/// One config under every fault rate.
fn sweep(name: &'static str, shape: &ConvShape) -> Vec<Outcome> {
    let (input, filter, expect) = operands(shape);
    let clean_cycles = ResilientExecutor::new()
        .run(shape, &input, &filter)
        .expect("fault-free run must complete")
        .run
        .timing
        .cycles;
    RATES
        .iter()
        .map(|&rate| {
            let fault = (rate > 0.0).then(|| FaultPlan::none(SEED).with_dma_fail_rate(rate));
            match ResilientExecutor::new()
                .on(LowerCtx::default().with_fault(fault))
                .run(shape, &input, &filter)
            {
                Ok(rep) => Outcome {
                    name,
                    rate,
                    completed: true,
                    plan: rep.plan_name,
                    attempts: rep.attempts,
                    dma_retries: rep.dma_retries,
                    overhead_cycles: rep.retry_cycles,
                    slowdown: rep.run.timing.cycles as f64 / clean_cycles as f64,
                    drift: rep.run.output.max_abs_diff(&expect),
                },
                Err(e) => Outcome {
                    name,
                    rate,
                    completed: false,
                    plan: format!("FAILED: {e}"),
                    attempts: 0,
                    dma_retries: 0,
                    overhead_cycles: 0,
                    slowdown: 0.0,
                    drift: f64::INFINITY,
                },
            }
        })
        .collect()
}

pub fn fault_campaign() -> Vec<Table> {
    let configs = campaign_configs();
    let outcomes: Vec<Outcome> = sw_runtime::global()
        .map_vec(configs.clone(), |_, (name, shape)| sweep(name, &shape))
        .into_iter()
        .flatten()
        .collect();

    let mut t = Table::new(
        "fault_campaign",
        "Fault campaign: DMA fault-rate sweep over paper conv configs",
        &[
            "config",
            "rate",
            "plan",
            "attempts",
            "dma retries",
            "overhead cyc",
            "slowdown",
            "max drift",
        ],
    );
    for o in &outcomes {
        t.row(vec![
            o.name.to_string(),
            format!("{:.0e}", o.rate),
            o.plan.clone(),
            o.attempts.to_string(),
            o.dma_retries.to_string(),
            o.overhead_cycles.to_string(),
            f(o.slowdown, 3),
            format!("{:.1e}", o.drift),
        ]);
    }
    let completed = outcomes.iter().filter(|o| o.completed).count();
    t.note(format!(
        "completion rate: {completed}/{} ({}%)",
        outcomes.len(),
        100 * completed / outcomes.len()
    ));
    let at_1e3: Vec<_> = outcomes.iter().filter(|o| o.rate == 1e-3).collect();
    t.note(format!(
        "rate 1e-3: {}/{} completed, {} with retries, max drift {:.1e}",
        at_1e3.iter().filter(|o| o.completed).count(),
        at_1e3.len(),
        at_1e3.iter().filter(|o| o.dma_retries > 0).count(),
        at_1e3.iter().map(|o| o.drift).fold(0.0f64, f64::max),
    ));
    vec![t]
}

/// One CPE dead: the executor masks its row/column and re-plans on the 4×4
/// mesh.
pub fn dead_cpe() -> Vec<Table> {
    let mut d = Table::new(
        "fault_campaign_dead_cpe",
        "Dead CPE (2,3): degraded-mesh execution",
        &["config", "plan", "degraded", "max drift"],
    );
    for (name, shape) in campaign_configs().into_iter().take(3) {
        let (input, filter, expect) = operands(&shape);
        let rep = ResilientExecutor::new()
            .on(LowerCtx::default().with_fault(Some(FaultPlan::none(SEED).with_dead_cpe(2, 3))))
            .run(&shape, &input, &filter)
            .expect("degraded run must complete");
        d.row(vec![
            name.to_string(),
            rep.plan_name.clone(),
            rep.degraded.to_string(),
            format!("{:.1e}", rep.run.output.max_abs_diff(&expect)),
        ]);
    }
    vec![d]
}
