//! `tune_search` — one pass runs six schedule searches: `tune::autotune`
//! (warm-started with the paper's hand schedule) on the four Table III
//! shapes, and `autotune_general` on one stride-2 and one same-padded
//! shape the dense plans cannot express. The only workload where
//! `perfmodel` pricing, `lower_schedule` legality checks and the
//! patch-GEMM plan dominate.

use super::conv_paper::TABLE3;
use super::{cycles_to_us, Checks, Laps, Layers, Outcome, SimClock, Workload};
use crate::gen::lattice_tensor;
use crate::probes;
use crate::span;
use crate::spans::Recorder;
use sw_perfmodel::ChipSpec;
use sw_tensor::{conv2d_general, ConvGeometry, ConvShape, Layout, Shape4};
use swdnn::kernel_cost::tile_cache_stats;
use swdnn::plans::{lower_schedule, BatchAwarePlan, LowerCtx, PatchGemmPlan, Schedule};
use swdnn::tune::{autotune_general, autotune_with, GeneralTune, TuneReport};

/// A geometry outside the dense schedule space: `(geometry, input, No)`.
type General = (ConvGeometry, Shape4, usize);

/// Scaled below paper size — the general path simulates full runs, not
/// sampled ones — but still 128×128 channels.
fn stride2() -> General {
    (
        ConvGeometry::valid(3, 3).with_stride(2, 2),
        Shape4::new(32, 128, 35, 35),
        128,
    )
}

fn same_padded() -> General {
    (ConvGeometry::same(3, 3), Shape4::new(32, 64, 16, 16), 64)
}

/// The hand schedule a Table III row names.
fn hand_schedule(row: &super::conv_paper::Table3Row) -> Schedule {
    match row.blocking {
        Some((b_b, b_co)) => Schedule::image_aware(b_b, b_co),
        None => Schedule::batch_aware(BatchAwarePlan::auto(&row.shape()).b_co),
    }
}

pub struct TuneSearch {
    seed: u64,
    chip: ChipSpec,
    dense: Vec<(ConvShape, Schedule)>,
    general: Vec<General>,
    /// Outcomes of the most recent pass.
    reports: Vec<TuneReport>,
    general_reports: Vec<GeneralTune>,
    /// Simulated cycles of each dense shape's hand preset (from `finish`).
    hand_cycles: Vec<u64>,
    /// Tile-cost cache (hits, misses) the most recent pass added.
    tile_cache: (u64, u64),
    errors: u64,
}

impl TuneSearch {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let mut dense: Vec<(ConvShape, Schedule)> = TABLE3
            .iter()
            .map(|r| (r.shape(), hand_schedule(r)))
            .collect();
        let mut general = vec![stride2(), same_padded()];
        if smoke {
            dense.truncate(1);
            general.truncate(1);
        }
        let w = Self {
            seed,
            chip: ChipSpec::sw26010(),
            dense,
            general,
            reports: Vec::new(),
            general_reports: Vec::new(),
            hand_cycles: Vec::new(),
            tile_cache: (0, 0),
            errors: 0,
        };
        // Warm-up: one dense and one general search fill the tile-cost
        // cache and grow the scratch arenas every later search reuses.
        let (shape, hand) = w.dense[0];
        let _ = autotune_with(&w.chip, &shape, &[hand]);
        let (geom, input, no) = w.general[w.general.len() - 1];
        let _ = autotune_general(&w.chip, &geom, input, no);
        w
    }
}

impl Workload for TuneSearch {
    fn ops(&self) -> u64 {
        (self.dense.len() + self.general.len()) as u64
    }

    fn pass(&mut self, rec: &mut Recorder) -> Vec<f64> {
        let mut laps = Laps::start();
        self.reports.clear();
        self.general_reports.clear();
        let before = tile_cache_stats();
        for (op, (shape, hand)) in self.dense.iter().enumerate() {
            match span!(
                rec,
                "tune",
                "autotune_with",
                op,
                autotune_with(&self.chip, shape, &[*hand])
            ) {
                Ok(r) => self.reports.push(r),
                Err(_) => self.errors += 1,
            }
            laps.lap();
        }
        for (i, (geom, input, no)) in self.general.iter().enumerate() {
            let op = self.dense.len() + i;
            match span!(
                rec,
                "tune",
                "autotune_general",
                op,
                autotune_general(&self.chip, geom, *input, *no)
            ) {
                Ok(r) => self.general_reports.push(r),
                Err(_) => self.errors += 1,
            }
            laps.lap();
        }
        let after = tile_cache_stats();
        self.tile_cache = (after.0 - before.0, after.1 - before.1);
        laps.done()
    }

    fn finish(&mut self) -> Outcome {
        let mut checks = Checks::default();
        checks.check_n(self.ops(), self.errors.min(self.ops()), || {
            format!("{} searches returned an error", self.errors)
        });
        let ctx = LowerCtx::on_chip(self.chip);
        self.hand_cycles = self
            .dense
            .iter()
            .map(|(shape, hand)| {
                lower_schedule(hand, shape, &ctx)
                    .and_then(|plan| plan.time_full_shape(shape))
                    .map_or(0, |t| t.cycles)
            })
            .collect();
        for (((shape, _), report), &hand) in
            self.dense.iter().zip(&self.reports).zip(&self.hand_cycles)
        {
            let best = report.best().cycles;
            checks.check(best > 0 && best <= hand, || {
                format!("{shape}: searched best {best} cycles vs hand preset {hand}")
            });
        }
        for (g, (geom, input, _)) in self.general_reports.iter().zip(&self.general) {
            checks.check(g.cycles > 0 && g.speedup_vs_host() > 1.0, || {
                format!(
                    "{geom:?} on {input:?}: searched mesh schedule ({} cycles) does not beat the host ({})",
                    g.cycles, g.host_cycles
                )
            });
        }
        // The plan kind only this workload runs functionally.
        let geom = ConvGeometry::valid(3, 3).with_stride(2, 2);
        let x = lattice_tensor(Shape4::new(8, 16, 11, 11), Layout::Nchw, self.seed, 40);
        let w = lattice_tensor(Shape4::new(16, 16, 3, 3), Layout::Nchw, self.seed, 41);
        let same = PatchGemmPlan::new(8)
            .run_general(&geom, &x, &w)
            .is_ok_and(|run| run.output.to_layout(Layout::Nchw) == conv2d_general(&geom, &x, &w));
        checks.check(same, || "patch_gemm differs from conv2d_general".into());

        let op_us = self
            .reports
            .iter()
            .map(|r| r.best().cycles)
            .chain(self.general_reports.iter().map(|g| g.cycles))
            .map(cycles_to_us)
            .collect();
        Outcome {
            sim: SimClock::closed_loop(op_us, 1.0),
            checks,
            notes: self
                .reports
                .iter()
                .map(|r| {
                    let b = r.best();
                    format!(
                        "{}: {} cycles, {:.1} Gflops/CG ({} simulated, {} pruned)",
                        b.description,
                        b.cycles,
                        b.gflops,
                        r.candidates.len(),
                        r.pruned
                    )
                })
                .collect(),
        }
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) {
        let searches = self.reports.len() as f64;
        let simulated: usize = self.reports.iter().map(|r| r.candidates.len()).sum();
        let enumerated: usize = self.reports.iter().map(|r| r.enumerated).sum();
        let pruned: usize = self.reports.iter().map(|r| r.pruned).sum();
        out.insert("tune.simulated_per_search", simulated as f64 / searches);
        out.insert("tune.pruned_frac", pruned as f64 / enumerated as f64);
        let (hits, misses) = self.tile_cache;
        out.insert(
            "tune.tile_cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let spans: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.layer == "tune")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        out.insert("tune.search_ms", crate::stats::median(&spans));

        let mut best_over_hand = 0.0f64;
        let (mut flops, mut cycles) = (0u64, 0u64);
        let mut ratios = Vec::new();
        let mut paper_err = 0.0f64;
        let mut pick = f64::INFINITY;
        let hands = self.hand_cycles.iter();
        for ((((shape, _), report), row), &hand) in
            self.dense.iter().zip(&self.reports).zip(&TABLE3).zip(hands)
        {
            let best = report.best();
            best_over_hand = best_over_hand.max(best.cycles as f64 / hand.max(1) as f64);
            flops += shape.flops();
            cycles += best.cycles;
            ratios.push(best.predicted_gflops / best.gflops);
            paper_err = paper_err.max((best.gflops / row.paper_gflops - 1.0).abs());
            pick = pick.min(report.model_fraction_of_best().unwrap_or(0.0));
        }
        out.insert("tune.best_over_hand", best_over_hand);
        out.insert("swsim.gflops_cg", self.chip.gflops(flops, cycles));
        out.insert("perfmodel.model_pick_frac_of_best", pick);
        out.insert("perfmodel.paper_gflops_err", paper_err);
        out.insert(
            "perfmodel.model_over_measured_min",
            ratios.iter().copied().fold(f64::INFINITY, f64::min),
        );
        out.insert(
            "perfmodel.model_over_measured_max",
            ratios.iter().copied().fold(0.0, f64::max),
        );
        out.insert(
            "perfmodel.model_ratio_err",
            ratios.iter().map(|r| (r - 1.0).abs()).fold(0.0, f64::max),
        );

        let (geom, input, no) = stride2();
        let patch = PatchGemmPlan::new(64);
        probes::plan_timing(out, "plans.patch_gemm", || {
            patch
                .time_general(&geom, input, no)
                .expect("stride-2 probe is supported")
                .cycles
        });
        probes::swisa(out);
        probes::estimate_cost(out);
        probes::select_plan_cost(out);
        probes::gemm_large(out);
        probes::lowering(out);
    }
}
