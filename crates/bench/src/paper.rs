//! The paper's own evaluation (§VII, §III-D, §VI): Table II, Fig. 2,
//! Fig. 6, Fig. 7, Fig. 9, Table III and the 4-CG scaling claim, each
//! regenerated on the simulated SW26010.

use crate::configs::{fig7_configs, fig9_configs, paper_shape, table3_configs, BATCH};
use crate::report::{f, Table};
use sw_gpuref::K40m;
use sw_isa::efficiency;
use sw_isa::{naive_gemm_kernel, reordered_gemm_kernel, DualPipe, KernelSpec};
use sw_perfmodel::dma::{DmaDirection, RationalFit, TABLE_II_GET, TABLE_II_PUT, TABLE_II_SIZES};
use sw_perfmodel::select::Blocking;
use sw_perfmodel::{rbw, ChipSpec, ConvPerfModel, PlanKind};
use sw_sim::{LdmBuf, Mesh};
use sw_tensor::ConvShape;
use swdnn::plans::{BatchAwarePlan, ConvPlan, ImageAwarePlan};
use swdnn::Executor;

/// Achieved aggregate DMA bandwidth (GB/s) with every CPE moving
/// `per_cpe_bytes` in blocks of `block` bytes.
fn dma_bandwidth(dir: DmaDirection, block: usize, per_cpe_bytes: usize) -> f64 {
    let chip = ChipSpec::sw26010();
    let src = vec![1.0f64; per_cpe_bytes / 8 * 64];
    let mut mesh: Mesh<LdmBuf> = Mesh::new(chip, |_, _| LdmBuf { offset: 0, len: 0 });
    mesh.sync_cycles = 0;
    let doubles = block / 8;
    let reqs = per_cpe_bytes / block;
    mesh.superstep(|ctx, buf| {
        *buf = ctx.ldm_alloc(doubles)?;
        let base = ctx.id() * (per_cpe_bytes / 8);
        let mut last = None;
        for r in 0..reqs {
            let h = match dir {
                DmaDirection::Get => ctx.dma_get(*buf, 0, &src, base + r * doubles, doubles)?,
                DmaDirection::Put => ctx.dma_put(*buf, 0, base + r * doubles, doubles)?,
            };
            last = Some(h);
        }
        if let Some(h) = last {
            ctx.dma_wait(h);
        }
        Ok(())
    })
    .expect("dma microbenchmark");
    let total_bytes = (per_cpe_bytes * 64) as f64;
    total_bytes / mesh.stats().seconds(chip.clock_ghz) / 1e9
}

/// Table II — measured DMA bandwidths (GB/s) on one CG vs block size.
///
/// The DMA micro-benchmark of §III-D: all 64 CPEs stream a large array in
/// blocks of the given size, both directions, bandwidth from simulated
/// time. The engine's curve is calibrated to the published table, so the
/// "sim" columns reproduce the paper; the "fit" columns show the
/// mechanistic two-parameter model (setup cost + link ceiling + alignment
/// penalty) that explains the curve's shape. Takeaway: blocks ≥ 256 B
/// aligned to 128 B approach the 32–36 GB/s ceiling; 32–64 B blocks waste
/// ~75 % of the interface.
pub fn table2_dma() -> Vec<Table> {
    let mut t = Table::new(
        "table2_dma",
        "Table II: Measured DMA Bandwidths (GB/s) on 1 CG",
        &[
            "Size(B)",
            "Get(paper)",
            "Get(sim)",
            "Get(fit)",
            "Put(paper)",
            "Put(sim)",
            "Put(fit)",
        ],
    );
    let get_fit = RationalFit::get();
    let put_fit = RationalFit::put();
    for (i, &size) in TABLE_II_SIZES.iter().enumerate() {
        let per_cpe = (1 << 20).max(size * 64);
        t.row(vec![
            size.to_string(),
            f(TABLE_II_GET[i], 2),
            f(dma_bandwidth(DmaDirection::Get, size, per_cpe), 2),
            f(get_fit.bandwidth_gbps(size), 2),
            f(TABLE_II_PUT[i], 2),
            f(dma_bandwidth(DmaDirection::Put, size, per_cpe), 2),
            f(put_fit.bandwidth_gbps(size), 2),
        ]);
    }
    vec![t]
}

/// Fig. 2 — the two mapping paths of the performance model, executed.
///
/// The *direct memory access* mapping (gload from main memory,
/// `(8/139.2)² ≈ 0.32 %` of peak) against the *REG-LDM-MEM* hierarchy,
/// both analytically and by (sampled) simulation: the simulated direct
/// plan lands at the same collapse, two orders of magnitude below the
/// LDM plans, which recover > 50 % of peak.
pub fn fig2_model() -> Vec<Table> {
    let exec = Executor::new();
    let mut t = Table::new(
        "fig2_model",
        "Fig. 2: direct-gload vs REG-LDM-MEM (one CG)",
        &[
            "Ni",
            "No",
            "direct mdl",
            "direct sim",
            "dir eff%",
            "ldm mdl",
            "ldm sim",
            "ldm eff%",
            "gain",
        ],
    );
    for (ni, no) in [(64, 64), (128, 128), (256, 256)] {
        let shape = paper_shape(ni, no);
        let direct = exec
            .run_config_with(&shape, PlanKind::DirectGload)
            .expect("direct");
        let opt = exec.run_config(&shape).expect("optimized");
        t.row(vec![
            ni.to_string(),
            no.to_string(),
            f(direct.model.gflops_per_cg, 2),
            f(direct.gflops_cg, 2),
            f(100.0 * direct.efficiency, 3),
            f(opt.model.gflops_per_cg, 1),
            f(opt.gflops_cg, 1),
            f(100.0 * opt.efficiency, 1),
            format!("{:.0}x", opt.gflops_cg / direct.gflops_cg),
        ]);
    }
    vec![t]
}

/// Fig. 6 / §VI — double-pipeline instruction reordering.
///
/// Simulates the naive and reordered GEMM inner kernels on the dual-issue
/// CPE pipeline model for the evaluation's channel counts and checks the
/// paper's closed forms: naive = 8 vload + 1 cmp + 1 bnw + 16 vmad = 26
/// cycles/iter (EE → 16/26 = 61.5 %); reordered = 5-cycle initial section,
/// 17-cycle steady state, 16-cycle exit (EE = 16n/(17n+4), rising with Ni).
pub fn fig6_reorder() -> Vec<Table> {
    let pipe = DualPipe::default();
    let mut t = Table::new(
        "fig6_reorder",
        "Fig. 6 / §VI: inner-kernel pipeline schedule (per Ni)",
        &[
            "Ni",
            "iters n",
            "naive cyc",
            "naive/iter",
            "naive EE%",
            "reord cyc",
            "reord/iter",
            "reord EE%",
            "speedup",
        ],
    );
    for ni in [64usize, 128, 192, 256, 320, 384] {
        let n = efficiency::iterations_for_ni(ni);
        let spec = KernelSpec::new(n);
        let naive = pipe.run(&naive_gemm_kernel(spec));
        let reord = pipe.run(&reordered_gemm_kernel(spec));
        assert_eq!(
            naive.cycles,
            efficiency::cycles_naive(n),
            "closed form (naive)"
        );
        assert_eq!(
            reord.cycles,
            efficiency::cycles_reordered(n),
            "closed form (reordered)"
        );
        t.row(vec![
            ni.to_string(),
            n.to_string(),
            naive.cycles.to_string(),
            f(naive.cycles as f64 / n as f64, 2),
            f(100.0 * efficiency::ee_naive(n), 1),
            reord.cycles.to_string(),
            f(reord.cycles as f64 / n as f64, 2),
            f(100.0 * efficiency::ee_reordered(n), 1),
            f(naive.cycles as f64 / reord.cycles as f64, 2),
        ]);
    }
    let rep = pipe.run(&reordered_gemm_kernel(KernelSpec::new(16)));
    t.note(format!(
        "reordered kernel (n=16): {} instrs issued, {} dual-issue cycles, {} stalls, {} flops",
        rep.p0_issued + rep.p1_issued,
        rep.dual_issues,
        rep.stall_cycles,
        rep.flops
    ));
    vec![t]
}

/// Every configuration on all four core groups (§III-D row partitioning)
/// next to the calibrated K40m + cuDNNv5.1 model: `(shape, swDNN Gflops,
/// K40m Gflops)` in input order, fanned over the worker pool.
fn chip_vs_k40m(configs: Vec<ConvShape>) -> Vec<(ConvShape, f64, f64)> {
    let exec = Executor::new();
    let gpu = K40m::default();
    sw_runtime::global().map_vec(configs, |_, shape| {
        let multi = exec
            .run_multi_cg(&shape, exec.chip.core_groups)
            .expect("config must run");
        (shape, multi.gflops_chip, gpu.conv_gflops(&shape))
    })
}

fn peak_chip_gflops() -> f64 {
    let chip = ChipSpec::sw26010();
    chip.peak_gflops_per_cg() * chip.core_groups as f64
}

/// Fig. 7 — double-precision convolution performance over the 101
/// channel configurations, vs Tesla K40m + cuDNNv5.1.
///
/// `B = 128`, output `64×64`, filter `3×3`; configurations 1–21 from the
/// left Fig. 8 script (diagonal `Ni = No`), 22–101 from the center script
/// (channel grid). The paper reports swDNN above 1.6 Tflops for most
/// configurations (> 54 % of peak, stable) and speedups of 1.91–9.75×
/// over cuDNN across Figs. 7 and 9.
pub fn fig7_channels() -> Vec<Table> {
    let rows = chip_vs_k40m(fig7_configs());
    let mut t = Table::new(
        "fig7_channels",
        "Fig. 7: conv performance over 101 (Ni,No) configs (chip vs K40m)",
        &[
            "#",
            "Ni",
            "No",
            "swDNN Gflops",
            "eff%",
            "K40m Gflops",
            "speedup",
        ],
    );
    for (i, (shape, sw, k40)) in rows.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            shape.ni.to_string(),
            shape.no.to_string(),
            f(*sw, 0),
            f(100.0 * sw / peak_chip_gflops(), 1),
            f(*k40, 0),
            f(sw / k40, 2),
        ]);
    }
    let span = |vals: Vec<f64>| {
        (
            vals.iter().cloned().fold(f64::INFINITY, f64::min),
            vals.iter().cloned().fold(0.0f64, f64::max),
        )
    };
    let (sw_min, sw_max) = span(rows.iter().map(|r| r.1).collect());
    let (k40_min, k40_max) = span(rows.iter().map(|r| r.2).collect());
    let (sp_min, sp_max) = span(rows.iter().map(|r| r.1 / r.2).collect());
    t.note(format!(
        "swDNN {sw_min:.0}-{sw_max:.0} Gflops, {}/{} configs above 1.6 Tflops; \
         speedup vs K40m {sp_min:.2}x-{sp_max:.2}x; spread swDNN {:.2}x vs cuDNN {:.2}x",
        rows.iter().filter(|r| r.1 >= 1600.0).count(),
        rows.len(),
        sw_max / sw_min,
        k40_max / k40_min,
    ));
    vec![t]
}

/// Fig. 9 — convolution performance for filter sizes 3×3 … 21×21 vs K40m.
///
/// The right Fig. 8 script: 30 configurations (10 odd filter sizes × three
/// channel settings), `B = 128`, output `64×64`. The paper's claim: swDNN
/// stays above 54 % efficiency across filter sizes while cuDNN falls off
/// its tuned small-filter kernels, so the speedup *grows* with filter size
/// — crossover-free, the upper end of the 1.91–9.75× range lives here.
pub fn fig9_filters() -> Vec<Table> {
    let rows = chip_vs_k40m(fig9_configs());
    let mut t = Table::new(
        "fig9_filters",
        "Fig. 9: conv performance for filter sizes 3x3..21x21 (chip vs K40m)",
        &[
            "#",
            "Ni",
            "No",
            "K",
            "swDNN Gflops",
            "eff%",
            "K40m Gflops",
            "speedup",
        ],
    );
    for (i, (shape, sw, k40)) in rows.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            shape.ni.to_string(),
            shape.no.to_string(),
            format!("{}x{}", shape.kr, shape.kc),
            f(*sw, 0),
            f(100.0 * sw / peak_chip_gflops(), 1),
            f(*k40, 0),
            f(sw / k40, 2),
        ]);
    }
    let mean_speedup = |k: usize| -> f64 {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.0.kr == k)
            .map(|r| r.1 / r.2)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    t.note(format!(
        "mean speedup by filter size: 3x3 = {:.2}x, 9x9 = {:.2}x, 15x15 = {:.2}x, 21x21 = {:.2}x",
        mean_speedup(3),
        mean_speedup(9),
        mean_speedup(15),
        mean_speedup(21)
    ));
    vec![t]
}

/// Table III — performance model evaluation: modeled vs measured Gflops on
/// one CG for the four published plan/parameter rows.
///
/// | plan  | Kc | bB | bCo | Ni  | No  | paper RBW | paper MBW | paper mdl | paper meas |
/// |-------|----|----|-----|-----|-----|-----------|-----------|-----------|------------|
/// | img   | 3  | 32 | 16  | 128 | 128 | 29.0      | 21.9      | 368       | 350        |
/// | img   | 3  | 32 | 8   | 128 | 256 | 23.2      | 18.2      | 397       | 375        |
/// | batch | 3  | –  | –   | 256 | 256 | 27.1      | 21.2      | 422       | 410        |
/// | batch | 3  | –  | –   | 128 | 384 | 25.7      | 21.2      | 407       | 392        |
///
/// Our RBW column reproduces the paper's exactly (Eqs. 1–2 are closed
/// forms). The mdl column is our Fig. 2 model, the meas column the
/// simulated execution of the same plan with the same blocking; the
/// reproduced claim is the *reasonable match between model and
/// measurement*, row by row. Our MBW is the bandwidth the plan achieved
/// over the kernel's lifetime — DMA is largely hidden behind compute by
/// double buffering, so it sits below the Table II per-request bandwidth.
pub fn table3_model() -> Vec<Table> {
    /// The paper's `(RBW, MBW, mdl, meas)` per [`table3_configs`] row.
    const PAPER: [(f64, f64, f64, f64); 4] = [
        (29.0, 21.9, 368.0, 350.0),
        (23.2, 18.2, 397.0, 375.0),
        (27.1, 21.2, 422.0, 410.0),
        (25.7, 21.2, 407.0, 392.0),
    ];
    let chip = ChipSpec::sw26010();
    let model = ConvPerfModel::default();
    let t_cg = chip.peak_gflops_per_cg();
    let mut table = Table::new(
        "table3_model",
        "Table III: Performance Model Evaluation (one CG, Kc=3, B=128)",
        &[
            "plan",
            "bB",
            "bCo",
            "Ni",
            "No",
            "RBW(paper)",
            "RBW(ours)",
            "MBW(paper)",
            "MBW(ours)",
            "mdl(paper)",
            "mdl(ours)",
            "meas(paper)",
            "meas(ours)",
            "mdl/meas",
        ],
    );
    for ((plan, b_b, b_co, ni, no), (paper_rbw, paper_mbw, paper_mdl, paper_meas)) in
        table3_configs().into_iter().zip(PAPER)
    {
        let shape = paper_shape(ni, no);
        let (rbw_ours, est, meas) = if plan == "img" {
            let blk = Blocking { b_b, b_co };
            (
                rbw::rbw_image_aware(b_b, b_co, no, t_cg),
                model.estimate(PlanKind::ImageSizeAware, blk, BATCH, ni, no, 3),
                ImageAwarePlan::new(blk)
                    .time_full_shape(&shape)
                    .expect("img plan"),
            )
        } else {
            (
                rbw::rbw_batch_aware(BATCH, 3, no, t_cg),
                model.estimate(
                    PlanKind::BatchSizeAware,
                    Blocking::default(),
                    BATCH,
                    ni,
                    no,
                    3,
                ),
                BatchAwarePlan::auto(&shape)
                    .time_full_shape(&shape)
                    .expect("batch plan"),
            )
        };
        let meas_gflops = meas.gflops(&shape, &chip);
        let secs = meas.cycles as f64 / (chip.clock_ghz * 1e9);
        let mbw_ours = meas.stats.totals.dma_get_bytes as f64 / secs / 1e9;
        let blocking = |b: usize| if b > 0 { b.to_string() } else { "-".into() };
        table.row(vec![
            plan.to_string(),
            blocking(b_b),
            blocking(b_co),
            ni.to_string(),
            no.to_string(),
            f(paper_rbw, 1),
            f(rbw_ours, 1),
            f(paper_mbw, 1),
            f(mbw_ours, 1),
            f(paper_mdl, 0),
            f(est.gflops_per_cg, 0),
            f(paper_meas, 0),
            f(meas_gflops, 0),
            f(est.gflops_per_cg / meas_gflops, 2),
        ]);
    }
    vec![table]
}

/// §III-D — scaling across the four core groups.
///
/// "We can partition output images into four parts along the row, and
/// assign each CG to process one fourth ... near linear scaling among the
/// four CGs in one processor" (private memory partitions, no cross-CG
/// traffic).
pub fn scaling_cgs() -> Vec<Table> {
    let exec = Executor::new();
    let mut t = Table::new(
        "scaling_cgs",
        "Multi-CG scaling (output-row partitioning)",
        &[
            "Ni",
            "No",
            "CGs",
            "wall Mcycles",
            "chip Gflops",
            "speedup",
            "parallel eff%",
        ],
    );
    for (ni, no) in [(128, 128), (256, 256)] {
        let shape = paper_shape(ni, no);
        let base = exec.run_multi_cg(&shape, 1).expect("1 CG");
        for cgs in [1usize, 2, 4] {
            let rep = exec.run_multi_cg(&shape, cgs).expect("multi CG");
            let speedup = base.wall_cycles as f64 / rep.wall_cycles as f64;
            t.row(vec![
                ni.to_string(),
                no.to_string(),
                cgs.to_string(),
                f(rep.wall_cycles as f64 / 1e6, 1),
                f(rep.gflops_chip, 0),
                f(speedup, 2),
                f(100.0 * speedup / cgs as f64, 1),
            ]);
        }
    }
    vec![t]
}
