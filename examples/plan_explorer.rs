//! Plan explorer: interrogate the performance model the way §III-D uses it
//! — for a configuration of your choosing, enumerate the candidate plans,
//! their required bandwidths, LDM footprints, and predictions, then run
//! the winner on the simulator to see how well the model did.
//!
//! ```sh
//! cargo run --release --example plan_explorer -- [Ni] [No] [batch] [K]
//! cargo run --release --example plan_explorer -- 256 128 128 5
//! ```

use sw_perfmodel::select::{ldm_doubles_batch_aware, ldm_doubles_image_aware, Blocking};
use sw_perfmodel::{rbw, select_plan, ChipSpec, ConvPerfModel, PlanKind};
use swdnn::{ConvShape, Executor};

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
    println!("configuration: {shape}");
    println!(
        "LDM budget: {} doubles/CPE; CG peak {:.1} Gflops\n",
        chip.ldm_doubles(),
        chip.peak_gflops_per_cg()
    );

    // Batch-size-aware candidate.
    let batch_ldm = ldm_doubles_batch_aware(&shape);
    let batch_est = model.estimate(
        PlanKind::BatchSizeAware,
        Blocking::default(),
        batch,
        ni,
        no,
        k,
    );
    println!(
        "batch-size-aware   : RBW {:6.1} GB/s (Eq.2)  LDM {:>5} {}  model {:6.1} Gflops",
        rbw::rbw_batch_aware(batch, k, no, chip.peak_gflops_per_cg()),
        batch_ldm,
        if batch_ldm <= chip.ldm_doubles() {
            "ok      "
        } else {
            "OVERFLOW"
        },
        batch_est.gflops_per_cg
    );

    // Image-size-aware candidates.
    println!("image-size-aware candidates:");
    for b_b in [32usize, 64, 128] {
        if batch % b_b != 0 {
            continue;
        }
        for b_co in [4usize, 8, 16, 32] {
            if !shape.co.is_multiple_of(b_co) {
                continue;
            }
            let blk = Blocking { b_b, b_co };
            let ldm = ldm_doubles_image_aware(&shape, blk);
            let est = model.estimate(PlanKind::ImageSizeAware, blk, batch, ni, no, k);
            println!(
                "  bB={b_b:<3} bCo={b_co:<2}: RBW {:6.1} GB/s (Eq.1)  LDM {:>5} {}  model {:6.1} Gflops",
                est.rbw_mem_ldm,
                ldm,
                if ldm <= chip.ldm_doubles() { "ok      " } else { "OVERFLOW" },
                est.gflops_per_cg
            );
        }
    }

    match select_plan(&shape, &chip) {
        Some(choice) => {
            println!(
                "\nmodel selects: {:?} with blocking {:?} ({} LDM doubles, predicted {:.1} Gflops, \
                 register tiles {:.0}% occupied)",
                choice.kind,
                choice.blocking,
                choice.ldm_doubles,
                choice.estimate.gflops_per_cg,
                100.0 * choice.tile_occupancy
            );
        }
        None => println!("\nmodel selects: none (shape needs Ni/No blocking)"),
    }

    // Run the winner on the simulator.
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
