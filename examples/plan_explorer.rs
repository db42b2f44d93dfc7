//! Plan explorer: interrogate the performance model the way §III-D uses it
//! — for a configuration of your choosing, list every candidate schedule of
//! the dense schedule space with its verdict (why the plan rejects it, or
//! its Fig. 2 required bandwidth and prediction), then time the pick on the
//! simulator to see how well the model did.
//!
//! ```sh
//! cargo run --release --example plan_explorer -- [Ni] [No] [batch] [K]
//! cargo run --release --example plan_explorer -- 256 128 128 5
//! ```

use sw_perfmodel::{ChipSpec, ConvPerfModel};
use swdnn::tune::enumerate_schedules;
use swdnn::{lower_schedule, Conv2d, ConvShape, Executor, LowerCtx, SwdnnError};

fn arg(n: usize, default: usize) -> usize {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (ni, no, batch, k) = (arg(1, 128), arg(2, 128), arg(3, 128), arg(4, 3));
    let shape = ConvShape::new(batch, ni, no, 64, 64, k, k);
    let chip = ChipSpec::sw26010();
    let model = ConvPerfModel::default();
    let ctx = LowerCtx::default();
    println!("configuration: {shape}");
    println!(
        "LDM budget: {} doubles/CPE; CG peak {:.1} Gflops\n",
        chip.ldm_doubles(),
        chip.peak_gflops_per_cg()
    );

    println!("candidate schedules:");
    for schedule in enumerate_schedules(&shape) {
        let verdict = match lower_schedule(&schedule, &shape, &ctx) {
            Ok(plan) => {
                let est = model.estimate(schedule.kind(), plan.blocking(&shape), batch, ni, no, k);
                format!(
                    "RBW {:6.1} GB/s  model {:6.1} Gflops",
                    est.rbw_mem_ldm, est.gflops_per_cg
                )
            }
            Err(SwdnnError::PlanRejected { reason, .. }) => format!("rejected: {reason}"),
            Err(e) => format!("error: {e}"),
        };
        println!("  {:<34} {verdict}", schedule.describe());
    }

    let pick = Conv2d::new(shape)?.schedule();
    println!("\npick: {}", pick.describe());

    // Time the pick on the simulator.
    let rep = Executor::new().run_config(&shape)?;
    println!(
        "simulated ({}): {:.1} Gflops/CG = {:.1}% of peak (model said {:.1})",
        rep.plan_name,
        rep.gflops_cg,
        100.0 * rep.efficiency,
        rep.model.gflops_per_cg
    );
    println!(
        "traffic: {:.1} MB get / {:.1} MB put; minimum possible {:.1} MB",
        rep.timing.stats.totals.dma_get_bytes as f64 / 1e6,
        rep.timing.stats.totals.dma_put_bytes as f64 / 1e6,
        shape.min_bytes_f64() as f64 / 1e6
    );
    println!("ok.");
    Ok(())
}
