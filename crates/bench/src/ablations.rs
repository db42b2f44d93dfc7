//! Ablations and extensions around the paper's evaluation: the design
//! choices DESIGN.md calls out, each toggled on the simulated plans, the
//! training-step passes, the model-vs-exhaustive-search check, and the
//! exact counter pin of the Table III shapes.

use crate::configs::{paper_shape, perf_snapshot_configs};
use crate::report::{f, Table};
use sw_perfmodel::select::{ldm_doubles_image_aware, Blocking};
use sw_perfmodel::{rbw, ChipSpec};
use sw_sim::CpeStats;
use sw_tensor::ConvShape;
use swdnn::plans::{BwdDataPlan, BwdFilterPlan, ConvPlan, ImageAwarePlan};
use swdnn::tune::autotune;
use swdnn::Executor;

/// §V-B/§V-C — register blocking ablation (Eqs. 3, 4, 5).
///
/// Sweeps the GEMM register blocking `(rb_B, rb_No)`: required LDM→REG
/// bandwidth of the plain (Eq. 4) and SIMD (Eq. 5) variants against the
/// 46.4 GB/s hardware budget, confirming the published choice `rb_B = 16`,
/// `rb_No = 4` ⇒ 23.2 GB/s with 4 + 4 + 16 = 24 of 32 vector registers.
/// The second table is the spatial blocking alternative (Eq. 3) the paper
/// rejects: its RBW is pinned by the network's `Kr, Kc` (for K = 1 it can
/// never drop below the budget), while Eq. 4/5 blocking is tunable for any
/// configuration — the reason swDNN uses the GEMM plan.
pub fn ablation_regblock() -> Vec<Table> {
    let chip = ChipSpec::sw26010();
    let t_cpe = chip.peak_gflops_per_cpe();
    let budget = chip.ldm_reg_gbps;

    let mut t = Table::new(
        "ablation_regblock",
        "Eq. 4/5: GEMM register blocking sweep (per-CPE RBW, GB/s)",
        &[
            "rb_B",
            "rb_No",
            "regs used",
            "RBW plain",
            "RBW simd",
            "fits 46.4?",
        ],
    );
    for rb_b in [4usize, 8, 16, 32] {
        for rb_no in [1usize, 2, 4, 8] {
            // Register budget: rb_B/4 A vectors + rb_No B vectors +
            // (rb_B/4 * rb_No) C vectors out of 32.
            let regs = rb_b / 4 + rb_no + (rb_b / 4) * rb_no;
            let simd = rbw::rbw_reg_gemm_simd(rb_b, rb_no, t_cpe);
            t.row(vec![
                rb_b.to_string(),
                rb_no.to_string(),
                format!("{regs}/32{}", if regs > 32 { " (!)" } else { "" }),
                f(rbw::rbw_reg_gemm(rb_b, rb_no, t_cpe), 1),
                f(simd, 1),
                (simd < budget && regs <= 32).to_string(),
            ]);
        }
    }

    let mut t2 = Table::new(
        "ablation_regblock_spatial",
        "Eq. 3: spatial register blocking (rejected alternative, per-CPE RBW)",
        &["tile", "K=1", "K=3", "K=5"],
    );
    for tile in [4usize, 6, 8, 10] {
        let cell = |k: usize| {
            if tile >= k {
                f(rbw::rbw_reg_spatial(tile, tile, k, k, t_cpe), 1)
            } else {
                "-".into()
            }
        };
        t2.row(vec![format!("{tile}x{tile}"), cell(1), cell(3), cell(5)]);
    }
    vec![t, t2]
}

/// §IV-A ablations on the image-size-aware plan.
///
/// 1. LDM blocking sweep: Eq. 1's RBW and the simulated throughput across
///    `(b_B, b_Co)` — larger `bB·bCo` lowers the RBW until LDM overflows,
///    the sweet spot the model picks.
/// 2. Inner-kernel reordering end to end: the naive (26 cyc/iter) vs
///    reordered (17 cyc/iter) kernel lifts throughput by roughly the 26/17
///    kernel ratio wherever the plan is compute-bound (§VI).
/// 3. DMA double buffering end to end.
pub fn ablation_ldm() -> Vec<Table> {
    let chip = ChipSpec::sw26010();
    let peak = chip.peak_gflops_per_cg();
    let shape = paper_shape(128, 128);

    let mut t = Table::new(
        "ablation_ldm_blocking",
        "LDM blocking sweep (image-size-aware, Ni=No=128, one CG)",
        &["bB", "bCo", "LDM doubles", "RBW Eq.1", "sim Gflops", "eff%"],
    );
    for b_b in [32usize, 64, 128] {
        for b_co in [4usize, 8, 16, 32] {
            if !shape.co.is_multiple_of(b_co) || !shape.batch.is_multiple_of(b_b) {
                continue;
            }
            let blk = Blocking { b_b, b_co };
            let (gflops, eff) = match ImageAwarePlan::new(blk).time_full_shape(&shape) {
                Ok(timing) => {
                    let g = timing.gflops(&shape, &chip);
                    (f(g, 0), f(100.0 * g / peak, 1))
                }
                Err(_) => ("LDM overflow".to_string(), "-".to_string()),
            };
            t.row(vec![
                b_b.to_string(),
                b_co.to_string(),
                ldm_doubles_image_aware(&shape, blk, &chip).to_string(),
                f(rbw::rbw_image_aware(b_b, b_co, shape.no, peak), 1),
                gflops,
                eff,
            ]);
        }
    }

    let mut t2 = Table::new(
        "ablation_kernel_reorder",
        "Inner-kernel reordering, end-to-end (image-size-aware plan)",
        &["Ni", "No", "kernel", "sim Gflops", "eff%"],
    );
    for (ni, no) in [(64, 64), (128, 128), (256, 256)] {
        let shape = paper_shape(ni, no);
        for reordered in [false, true] {
            let mut plan = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 8 });
            plan.reordered_kernel = reordered;
            let g = plan
                .time_full_shape(&shape)
                .expect("plan")
                .gflops(&shape, &chip);
            let kernel = if reordered {
                "reordered (17/iter)"
            } else {
                "naive (26/iter)"
            };
            t2.row(vec![
                ni.to_string(),
                no.to_string(),
                kernel.to_string(),
                f(g, 0),
                f(100.0 * g / peak, 1),
            ]);
        }
    }

    let mut t3 = Table::new(
        "ablation_double_buffer",
        "DMA double buffering, end-to-end (image-size-aware plan)",
        &["Ni", "No", "mode", "sim Gflops", "eff%", "dma stall Mcyc"],
    );
    for (ni, no) in [(64, 64), (128, 128)] {
        let shape = paper_shape(ni, no);
        for buffered in [false, true] {
            let mut plan = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 8 });
            plan.double_buffer = buffered;
            let timing = plan.time_full_shape(&shape).expect("plan");
            let g = timing.gflops(&shape, &chip);
            let mode = if buffered {
                "double-buffered"
            } else {
                "synchronous"
            };
            t3.row(vec![
                ni.to_string(),
                no.to_string(),
                mode.to_string(),
                f(g, 0),
                f(100.0 * g / peak, 1),
                f(timing.stats.totals.dma_stall_cycles as f64 / 1e6, 1),
            ]);
        }
    }
    vec![t, t2, t3]
}

/// Extension: the full training step on the simulated chip.
///
/// The paper focuses on the forward kernel but motivates swDNN with
/// *training*. All three convolution passes of a step — forward (the
/// executor's plan), backward-data (the dedicated `Wᵀ·dY` rotation plus
/// col2im, `BwdDataPlan`), backward-filter (the dedicated pixel-reduction
/// rotation, `BwdFilterPlan`) — at paper scale, each timed on the shape
/// whose flops it does. All three run through the same
/// register-communication GEMM machinery.
pub fn training_pass() -> Vec<Table> {
    let chip = ChipSpec::sw26010();
    let exec = Executor::new();
    let mut t = Table::new(
        "training_pass",
        "Training-step passes on the simulated SW26010 (per CG)",
        &["Ni", "No", "pass", "plan", "Gflops/CG", "eff%", "ms/chip"],
    );
    let chip_ms = |shape: &ConvShape, gflops_cg: f64| {
        shape.flops() as f64 / (gflops_cg * chip.core_groups as f64 * 1e9) * 1e3
    };
    let mut total_ms = [0.0f64; 3];
    for (ni, no) in [(64usize, 64usize), (128, 128), (256, 128)] {
        let shape = paper_shape(ni, no);
        let fwd = exec.run_config(&shape).expect("forward");
        let gflops = |timed: Result<swdnn::plans::PlanTiming, _>, pass| {
            timed.expect(pass).gflops(&shape, &chip)
        };
        let bwd = gflops(
            BwdDataPlan::auto(&shape).time_full_shape(&shape),
            "backward data",
        );
        let bwf = gflops(
            BwdFilterPlan::auto(&shape).time_full_shape(&shape),
            "backward filter",
        );
        let passes = [
            ("forward", fwd.plan_name, fwd.gflops_cg),
            ("bwd-data", "bwd_data".to_string(), bwd),
            ("bwd-filter", "bwd_filter".to_string(), bwf),
        ];
        for (i, (pass, plan, gflops)) in passes.into_iter().enumerate() {
            let ms = chip_ms(&shape, gflops);
            total_ms[i] += ms;
            t.row(vec![
                ni.to_string(),
                no.to_string(),
                pass.into(),
                plan,
                f(gflops, 0),
                f(100.0 * gflops / chip.peak_gflops_per_cg(), 1),
                f(ms, 2),
            ]);
        }
    }
    t.note(format!(
        "step totals across the three configs: forward {:.1} ms, bwd-data {:.1} ms, \
         bwd-filter {:.1} ms",
        total_ms[0], total_ms[1], total_ms[2]
    ));
    vec![t]
}

/// The B = 32 shapes of the small-batch regime: the two convolutions of the
/// `train_sim` network (8→16 @ 16×16, 16→32 @ 6×6), each forward and as the
/// zero-padded forward convolution its backward-data pass once ran, and two
/// 8×8 neighbours.
pub fn small_batch_shapes() -> Vec<ConvShape> {
    let conv = |ni, no, out| ConvShape::new(32, ni, no, out, out, 3, 3);
    vec![
        conv(8, 16, 16),
        conv(16, 8, 18),
        conv(16, 32, 6),
        conv(32, 16, 8),
        conv(8, 8, 8),
        conv(8, 16, 8),
    ]
}

/// §VII validation: does the performance model pick (near-)optimal plans?
///
/// For each configuration, time every frontier candidate of the schedule
/// search (sampled simulation) and compare the empirical optimum with the
/// model's choice, which costs no timing at all. Two regimes, one table
/// each:
///
/// * evaluation scale (B = 128, 64×64 outputs), where Fig. 2 alone ranks
///   the candidates — every per-CPE GEMM block fills its register tiles;
/// * small batch (B = 32, [`small_batch_shapes`]), where selection also
///   prices the §V-C register tile: Algorithm 2 hands each CPE a
///   `No/8 × B/8` block, a fraction of one `4 × 16` tile, and the kernel
///   charges whole tiles. With that term the model's pick is the searched
///   optimum on all six shapes (0.18–0.40 of it on five of them before).
///
/// Still not priced: the per-superstep barrier and bus latency (fixed costs
/// per GEMM rotation, which favour few large rotations), and the DMA the
/// simulator hides behind compute at small channel counts, where Fig. 2's
/// squared MEM derate overstates Eq. 1 against Eq. 2 — at B = 64 the
/// selector still trails the search by up to 2.3× (`tests/selection.rs`).
pub fn model_vs_autotune() -> Vec<Table> {
    const COLUMNS: [&str; 7] = [
        "Ni",
        "No",
        "best candidate",
        "best Gflops",
        "model choice",
        "model Gflops",
        "model/best",
    ];
    let row = |shape: &ConvShape| {
        let rep = autotune(shape).expect("candidates exist");
        let best = rep.best();
        let (mdesc, mg) = match rep.model_choice {
            Some(i) => (
                rep.candidates[i].description.clone(),
                rep.candidates[i].gflops,
            ),
            None => ("(infeasible)".into(), 0.0),
        };
        vec![
            shape.ni.to_string(),
            shape.no.to_string(),
            best.description.clone(),
            f(best.gflops, 0),
            mdesc,
            f(mg, 0),
            f(mg / best.gflops, 2),
        ]
    };

    let mut t = Table::new(
        "model_vs_autotune",
        "Model-guided selection vs exhaustive autotuning (one CG)",
        &COLUMNS,
    );
    for (ni, no) in [
        (64usize, 64usize),
        (128, 128),
        (128, 256),
        (256, 256),
        (384, 384),
    ] {
        t.row(row(&paper_shape(ni, no)));
    }

    let mut header = vec!["B", "out"];
    header.extend(COLUMNS);
    let mut small = Table::new(
        "model_vs_autotune_small",
        "Model-guided selection vs exhaustive autotuning, small batch (one CG)",
        &header,
    );
    for shape in small_batch_shapes() {
        let mut cells = vec![shape.batch.to_string(), shape.ro.to_string()];
        cells.extend(row(&shape));
        small.row(cells);
    }
    vec![t, small]
}

/// The exact pin the figure CSVs lack: simulated cycles, every
/// [`CpeStats`] counter and the MEM-level communication bound for
/// each [`perf_snapshot_configs`] entry. (`pool_handoffs` is left out: it
/// depends on the host's lane count.)
pub fn perf_counters() -> Vec<Table> {
    let mut header = vec!["Ni", "No", "plan", "cycles"];
    header.extend(CpeStats::default().named().iter().map(|(name, _)| *name));
    header.extend(["mem_comm_lower_bound_bytes", "mem_comm_optimal_permille"]);
    let mut t = Table::new(
        "perf_counters",
        "Simulated counters of the Table III shapes (one CG)",
        &header,
    );
    let exec = Executor::new();
    for (shape, kind) in perf_snapshot_configs() {
        let rep = exec
            .run_config_with(&shape, kind)
            .unwrap_or_else(|e| panic!("measuring {shape}: {e}"));
        let mut row = vec![
            shape.ni.to_string(),
            shape.no.to_string(),
            rep.plan_name.clone(),
            rep.timing.cycles.to_string(),
        ];
        let counters = rep.timing.stats.totals.named();
        row.extend(counters.iter().map(|(_, v)| v.to_string()));
        row.push(rep.comm_lower_bound_bytes.to_string());
        row.push(rep.comm_optimal_permille.to_string());
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_pick_attains_the_searched_best_on_the_small_batch_shapes() {
        for shape in small_batch_shapes() {
            let frac = autotune(&shape)
                .expect("candidates exist")
                .model_fraction_of_best()
                .expect("the model's pick is a searched candidate");
            assert!(frac >= 0.95, "{shape}: model pick at {frac:.2} of the best");
        }
    }
}
