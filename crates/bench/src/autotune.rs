//! The `autotune` artifact: model-guided schedule search next to the
//! hand-written presets and the host fallback.
//!
//! * On every Table III shape the search is warm-started with the paper's
//!   hand schedule, so its winner can be no slower (in simulated cycles)
//!   than the preset — `autotune_search.csv` pins both cycle counts.
//! * A stride-2 shape the dense plans reject must get a patch-GEMM schedule
//!   faster than the honest host MPE baseline: the search opens shapes to
//!   mesh execution instead of the host fallback.
//!
//! Both inequalities are asserted by the `swdnn::tune` unit tests and the
//! `tune_search` benchmark workload; this module only tabulates.

use crate::configs::{paper_shape, table3_configs};
use crate::report::{f, Table};
use sw_perfmodel::ChipSpec;
use sw_tensor::{ConvGeometry, Shape4};
use swdnn::plans::{lower_schedule, BatchAwarePlan, LowerCtx, Schedule};
use swdnn::tune::{autotune_general, autotune_with};

pub fn autotune() -> Vec<Table> {
    let chip = ChipSpec::sw26010();
    let ctx = LowerCtx::on_chip(chip);
    let mut t = Table::new(
        "autotune_search",
        "Model-guided schedule search vs hand presets (one CG)",
        &[
            "config",
            "hand schedule",
            "hand cycles",
            "searched schedule",
            "searched cycles",
            "Gflops",
            "enumerated",
            "pruned",
        ],
    );
    for (tag, b_b, b_co, ni, no) in table3_configs() {
        let shape = paper_shape(ni, no);
        // `img` rows carry their published blocking; `batch` rows resolve
        // `b_Co` the way the plan's auto constructor does.
        let hand = match tag {
            "img" => Schedule::image_aware(b_b, b_co),
            _ => Schedule::batch_aware(BatchAwarePlan::auto_on(ctx, &shape).b_co),
        };
        let hand_cycles = lower_schedule(&hand, &shape, &ctx)
            .unwrap_or_else(|e| panic!("hand preset must lower for {shape}: {e}"))
            .time_full_shape(&shape)
            .unwrap_or_else(|e| panic!("hand preset must time for {shape}: {e}"))
            .cycles;
        let report = autotune_with(&chip, &shape, &[hand])
            .unwrap_or_else(|e| panic!("search must succeed for {shape}: {e}"));
        let best = report.best();
        t.row(vec![
            format!("Ni{ni} No{no}"),
            hand.describe(),
            hand_cycles.to_string(),
            best.description.clone(),
            best.cycles.to_string(),
            f(best.gflops, 0),
            report.enumerated.to_string(),
            report.pruned.to_string(),
        ]);
    }

    // Scaled below paper size — the general path simulates full runs, not
    // sampled ones — but still 17×17 outputs over 128×128 channels.
    let geom = ConvGeometry::valid(3, 3).with_stride(2, 2);
    let (input, no) = (Shape4::new(32, 128, 35, 35), 128);
    let general = autotune_general(&chip, &geom, input, no)
        .unwrap_or_else(|e| panic!("stride-2 search must succeed: {e}"));
    t.row(vec![
        format!("stride2 B{} Ni{} No{no}", input.d0, input.d1),
        "(host fallback)".into(),
        general.host_cycles.to_string(),
        general.schedule.describe(),
        general.cycles.to_string(),
        f(general.gflops, 0),
        general.enumerated.to_string(),
        "0".into(),
    ]);
    vec![t]
}
