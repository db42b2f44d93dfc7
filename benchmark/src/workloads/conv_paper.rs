//! `conv_paper` — the paper's own evaluation. One pass times the four
//! Table III rows (each forced to its *published* plan and blocking) and
//! the 21-point Fig. 7 diagonal `Ni = No ∈ {64, 80, …, 384}` at `B = 128`,
//! 64×64 outputs, 3×3 filters, on one core group with sampled timing.
//! `swsim` + `plans` + `runtime` do all the work; nothing is served,
//! routed or trained.

use super::{cycles_to_us, Checks, Laps, Layers, Outcome, SimClock, Workload};
use crate::gen::lattice_tensor;
use crate::probes;
use crate::span;
use crate::spans::Recorder;
use sw_perfmodel::{
    comm_optimal_permille, mem_comm_lower_bound_bytes, Blocking, ChipSpec, ConvPerfModel,
};
use sw_sim::CgStats;
use sw_tensor::{conv2d_ref, ConvShape, Layout};
use swdnn::plans::{BatchAwarePlan, ConvPlan, ImageAwarePlan, PlanTiming};
use swdnn::{Conv2d, Executor};

const BATCH: usize = 128;
const OUT: usize = 64;

/// A Table III row: the published plan, its blocking, and the Gflops/CG
/// the paper measured.
#[derive(Clone, Copy)]
pub struct Table3Row {
    pub ni: usize,
    pub no: usize,
    /// `Some` → image-size-aware with this `(b_B, b_Co)`; `None` →
    /// batch-size-aware.
    pub blocking: Option<(usize, usize)>,
    pub paper_gflops: f64,
}

pub const TABLE3: [Table3Row; 4] = [
    Table3Row {
        ni: 128,
        no: 128,
        blocking: Some((32, 16)),
        paper_gflops: 350.0,
    },
    Table3Row {
        ni: 128,
        no: 256,
        blocking: Some((32, 8)),
        paper_gflops: 375.0,
    },
    Table3Row {
        ni: 256,
        no: 256,
        blocking: None,
        paper_gflops: 410.0,
    },
    Table3Row {
        ni: 128,
        no: 384,
        blocking: None,
        paper_gflops: 392.0,
    },
];

impl Table3Row {
    pub fn shape(&self) -> ConvShape {
        paper_shape(self.ni, self.no)
    }

    pub fn plan(&self) -> Box<dyn ConvPlan> {
        match self.blocking {
            Some((b_b, b_co)) => Box::new(ImageAwarePlan::new(Blocking { b_b, b_co })),
            None => Box::new(BatchAwarePlan::auto(&self.shape())),
        }
    }
}

pub fn paper_shape(ni: usize, no: usize) -> ConvShape {
    ConvShape::new(BATCH, ni, no, OUT, OUT, 3, 3)
}

/// Fig. 7 configurations 1–21.
pub fn diagonal() -> Vec<ConvShape> {
    (0..21)
        .map(|i| paper_shape(64 + 16 * i, 64 + 16 * i))
        .collect()
}

/// What one timed conv produced.
#[derive(Clone, Copy)]
pub struct ConvResult {
    pub shape: ConvShape,
    pub cycles: u64,
    pub stats: CgStats,
    pub gflops: f64,
    pub model_gflops: f64,
    pub comm_permille: u64,
    pub handoffs: u64,
}

fn result(
    chip: &ChipSpec,
    shape: &ConvShape,
    timing: &PlanTiming,
    model_gflops: f64,
    handoffs: u64,
) -> ConvResult {
    let bound = mem_comm_lower_bound_bytes(
        chip,
        shape.batch,
        shape.ni,
        shape.no,
        shape.ro,
        shape.co,
        shape.kr,
        shape.kc,
    );
    ConvResult {
        shape: *shape,
        cycles: timing.cycles,
        stats: timing.stats,
        gflops: timing.gflops(shape, chip),
        model_gflops,
        comm_permille: comm_optimal_permille(bound, timing.stats.totals.dma_get_bytes),
        handoffs,
    }
}

pub struct ConvPaper {
    seed: u64,
    chip: ChipSpec,
    diag: Vec<ConvShape>,
    /// Results of the most recent pass: Table III rows first, then the
    /// diagonal. Simulated numbers are identical pass to pass.
    last: Vec<ConvResult>,
    errors: u64,
}

impl ConvPaper {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let mut diag = diagonal();
        if smoke {
            diag.truncate(5);
        }
        let mut w = Self {
            seed,
            chip: ChipSpec::sw26010(),
            diag,
            last: Vec::new(),
            errors: 0,
        };
        // Warm-up: the Table III rows fill the tile-cost cache, grow the
        // GEMM scratch arenas and fault in the pool's stacks.
        w.table3_rows(&mut Recorder::new(false), &mut Laps::start());
        w.last.clear();
        w
    }

    /// Time `plan` on `shape`, price the same choice with the analytic
    /// model, and keep the result.
    fn time_plan(&mut self, rec: &mut Recorder, op: usize, shape: &ConvShape, plan: &dyn ConvPlan) {
        let rt = sw_runtime::global();
        let before = rt.pool_handoffs();
        let timed = span!(
            rec,
            "plans",
            "time_full_shape",
            op,
            plan.time_full_shape(shape)
        );
        let handoffs = rt.pool_handoffs() - before;
        let Ok(timing) = timed else {
            self.errors += 1;
            return;
        };
        let est = span!(
            rec,
            "perfmodel",
            "estimate",
            op,
            ConvPerfModel::default().estimate(
                plan.kind(),
                plan.blocking(shape),
                shape.batch,
                shape.ni,
                shape.no,
                shape.kc,
            )
        );
        self.last.push(result(
            &self.chip,
            shape,
            &timing,
            est.gflops_per_cg,
            handoffs,
        ));
    }

    fn table3_rows(&mut self, rec: &mut Recorder, laps: &mut Laps) {
        for (op, row) in TABLE3.iter().enumerate() {
            let shape = row.shape();
            let plan = span!(rec, "plans", "new", op, row.plan());
            if span!(rec, "plans", "supports", op, plan.supports(&shape)).is_ok() {
                self.time_plan(rec, op, &shape, plan.as_ref());
            } else {
                self.errors += 1;
            }
            laps.lap();
        }
    }

    /// The diagonal through a fresh `Executor::run_config` per conv.
    fn diagonal_via_executor(&mut self, laps: &mut Laps) {
        for shape in &self.diag {
            match Executor::new().run_config(shape) {
                Ok(rep) => self.last.push(result(
                    &self.chip,
                    shape,
                    &rep.timing,
                    rep.model.gflops_per_cg,
                    rep.pool_handoffs,
                )),
                Err(_) => self.errors += 1,
            }
            laps.lap();
        }
    }

    /// The same diagonal as the calls `run_config` makes, one span each.
    fn diagonal_decomposed(&mut self, rec: &mut Recorder, laps: &mut Laps) {
        for i in 0..self.diag.len() {
            let (op, shape) = (TABLE3.len() + i, self.diag[i]);
            let whole = rec.enter("executor", "run_config", op as u64);
            match span!(rec, "executor", "Conv2d::new", op, Conv2d::new(shape)) {
                Ok(conv) => {
                    let plan = span!(rec, "perfmodel", "plan", op, conv.plan());
                    self.time_plan(rec, op, &shape, plan.as_ref());
                }
                Err(_) => self.errors += 1,
            }
            rec.exit(whole);
            laps.lap();
        }
    }

    fn table3_results(&self) -> impl Iterator<Item = (&Table3Row, &ConvResult)> {
        TABLE3.iter().zip(&self.last)
    }
}

impl Workload for ConvPaper {
    fn ops(&self) -> u64 {
        (TABLE3.len() + self.diag.len()) as u64
    }

    fn pass(&mut self, rec: &mut Recorder) -> Vec<f64> {
        self.last.clear();
        let mut laps = Laps::start();
        self.table3_rows(rec, &mut laps);
        if rec.enabled() {
            self.diagonal_decomposed(rec, &mut laps);
        } else {
            self.diagonal_via_executor(&mut laps);
        }
        laps.done()
    }

    fn finish(&mut self) -> Outcome {
        let mut checks = Checks::default();
        let expected = self.ops();
        checks.check_n(expected, self.errors.min(expected), || {
            format!("{} convs returned an error", self.errors)
        });
        let peak = self.chip.peak_gflops_per_cg();
        for r in &self.last {
            let s = r.shape;
            checks.check(r.stats.totals.flops == s.flops(), || {
                format!(
                    "{s}: counted {} flops, shape has {}",
                    r.stats.totals.flops,
                    s.flops()
                )
            });
            let ldm = r.stats.ldm_high_water_frac(self.chip.ldm_bytes);
            checks.check(ldm > 0.0 && ldm <= 1.0, || {
                format!("{s}: LDM high water {ldm}")
            });
            checks.check(r.gflops > 0.0 && r.gflops <= peak, || {
                format!(
                    "{s}: {} Gflops beats the {peak} Gflops/CG roofline",
                    r.gflops
                )
            });
        }
        // One functional run per plan kind this workload times, on lattice
        // operands, bit-identical to the reference convolution.
        let small = ConvShape::new(32, 16, 16, 8, 8, 3, 3);
        let x = lattice_tensor(small.input_shape(), Layout::Nchw, self.seed, 10);
        let w = lattice_tensor(small.filter_shape(), Layout::Nchw, self.seed, 11);
        let want = conv2d_ref(small, &x, &w);
        let plans: [Box<dyn ConvPlan>; 2] = [
            Box::new(ImageAwarePlan::new(Blocking { b_b: 32, b_co: 8 })),
            Box::new(BatchAwarePlan::auto(&small)),
        ];
        for plan in plans {
            let same = plan
                .run(&small, &x, &w)
                .is_ok_and(|run| run.output.to_layout(Layout::Nchw) == want);
            checks.check(same, || format!("{} differs from conv2d_ref", plan.name()));
        }
        let op_us = self.last.iter().map(|r| cycles_to_us(r.cycles)).collect();
        Outcome {
            sim: SimClock::closed_loop(op_us, 1.0),
            checks,
            notes: self
                .table3_results()
                .map(|(row, r)| {
                    format!(
                        "Table III Ni={} No={}: {:.1} Gflops/CG (paper {}), model {:.1}",
                        row.ni, row.no, r.gflops, row.paper_gflops, r.model_gflops
                    )
                })
                .collect(),
        }
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) {
        let n = self.last.len() as f64;
        let mut total = CgStats::default();
        let mut cycles = 0u64;
        let mut ldm_high = 0.0f64;
        for r in &self.last {
            total.totals.add(&r.stats.totals);
            cycles += r.cycles;
            ldm_high = ldm_high.max(r.stats.ldm_high_water_frac(self.chip.ldm_bytes));
        }
        let cpe_cycles = (64 * cycles) as f64;
        let t = total.totals;
        let compute = t.compute_cycles as f64 / cpe_cycles;
        let stall = t.dma_stall_cycles as f64 / cpe_cycles;
        out.insert("swsim.gflops_cg", self.chip.gflops(t.flops, cycles));
        out.insert("swsim.compute_frac", compute);
        out.insert("swsim.dma_stall_frac", stall);
        out.insert("swsim.unattributed_frac", 1.0 - compute - stall);
        out.insert("swsim.dma_get_gbytes", t.dma_get_bytes as f64 / 1e9);
        out.insert("swsim.bus_vectors", t.bus_vectors_sent as f64);
        out.insert("swsim.p0_util", t.p0_issue_slots as f64 / cpe_cycles);
        out.insert("swsim.ldm_high_water_frac", ldm_high);
        out.insert(
            "runtime.pool_handoffs_per_op",
            self.last.iter().map(|r| r.handoffs).sum::<u64>() as f64 / n,
        );

        let ratios: Vec<f64> = self
            .table3_results()
            .map(|(_, r)| r.model_gflops / r.gflops)
            .collect();
        let fold = |f: fn(f64, f64) -> f64, init: f64| ratios.iter().copied().fold(init, f);
        out.insert(
            "perfmodel.model_over_measured_min",
            fold(f64::min, f64::INFINITY),
        );
        out.insert("perfmodel.model_over_measured_max", fold(f64::max, 0.0));
        out.insert(
            "perfmodel.model_ratio_err",
            ratios.iter().map(|r| (r - 1.0).abs()).fold(0.0, f64::max),
        );
        out.insert(
            "perfmodel.paper_gflops_err",
            self.table3_results()
                .map(|(row, r)| (r.gflops / row.paper_gflops - 1.0).abs())
                .fold(0.0, f64::max),
        );
        out.insert(
            "perfmodel.comm_optimal_permille_min",
            self.last.iter().map(|r| r.comm_permille).min().unwrap_or(0) as f64,
        );

        // Read off the traced pass.
        let (sim_ns, _) = rec.total("plans", "time_full_shape");
        let (whole_ns, convs) = rec.total("executor", "run_config");
        if convs > 0 {
            let (diag_sim_ns, _) = rec
                .spans()
                .iter()
                .filter(|s| s.name == "time_full_shape" && s.op >= TABLE3.len() as u64)
                .fold((0u64, 0u64), |(ns, k), s| (ns + s.dur_ns(), k + 1));
            out.insert(
                "executor.overhead_frac",
                1.0 - diag_sim_ns as f64 / whole_ns as f64,
            );
        }
        out.insert(
            "swsim.sim_gflop_per_host_s",
            t.flops as f64 / 1e9 / (sim_ns as f64 / 1e9),
        );

        probes::tensor(out);
        probes::swisa(out);
        probes::select_plan_cost(out);
        probes::gemm_large(out);
        probes::conv_plan_timing(
            out,
            "plans.image_aware",
            &TABLE3[0].shape(),
            TABLE3[0].plan().as_ref(),
        );
        probes::conv_plan_timing(
            out,
            "plans.batch_aware",
            &TABLE3[2].shape(),
            TABLE3[2].plan().as_ref(),
        );
        probes::executor(out);
        probes::gpuref(out, self.seed);
    }
}
