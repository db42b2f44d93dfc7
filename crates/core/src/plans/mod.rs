//! Convolution plans: the paper's mappings of the convolution kernel onto
//! one SW26010 core group.
//!
//! All mesh plans share the same skeleton:
//!
//! 1. distribute operand tiles over the 8×8 CPE mesh with **no duplicated
//!    data** (§V-A), using DMA block sizes the Table II curve rewards;
//! 2. run the **register-communication GEMM** ([`gemm_mesh`]): 8 rotation
//!    rounds in which one mesh column broadcasts filter blocks along rows
//!    and one mesh row broadcasts image blocks along columns (Fig. 3);
//! 3. price the per-CPE compute with the software-pipelined inner kernel of
//!    §VI (`17·(Ni/8) + 4` cycles per 4×16 register tile);
//! 4. double-buffer DMA against compute (§IV-A).
//!
//! Every plan's `run` computes real `f64` results, checked against the
//! reference convolution in the test suites. Each mesh plan keeps its loop
//! nest in one private `walk` function over plain `&[f64]` operands and a
//! `&mut [f64]` output: `run` prepares the operands (layout conversion,
//! filter repack) and hands them to `walk` on a functional mesh;
//! `time_full_shape` hands `walk` all-zero operands of the right lengths on a
//! cost-only mesh ([`sw_sim::Mesh::cost_only`]), which charges every cycle
//! and counter of the same walk without moving or multiplying anything —
//! timing a shape does not do its arithmetic. Either mesh comes from the
//! plan's one [`LowerCtx`] (chip, injected faults, host runtime), and every
//! walk ends in the same epilogue, `finish` — the direct plan's functional
//! run included (its timing is closed form).
//!
//! A forward plan is described by a [`Schedule`], and [`Schedule::build`]
//! is the one place a description becomes one of these structs: `Conv2d`,
//! the resilient fallback chain, the plan cache and the autotuner all go
//! through it.

pub mod batch_aware;
pub mod bwd_filter;
pub mod direct;
pub mod gemm_mesh;
pub mod image_aware;
pub mod patch_gemm;
pub mod reference;
pub mod schedule;

pub use batch_aware::BatchAwarePlan;
pub use bwd_filter::BwdFilterPlan;
pub use direct::DirectPlan;
pub use image_aware::ImageAwarePlan;
pub use patch_gemm::PatchGemmPlan;
pub use reference::ReferencePlan;
pub use schedule::{lower_schedule, LoopOrder, LowerCtx, Schedule};

use crate::error::SwdnnError;
use sw_perfmodel::{Blocking, ChipSpec, PlanKind};
use sw_sim::CgStats;
use sw_tensor::{ConvShape, Tensor4};

/// Timing of one plan execution on one core group.
#[derive(Clone, Copy, Debug)]
pub struct PlanTiming {
    /// Simulated wall cycles on the CG.
    pub cycles: u64,
    /// Aggregate counters.
    pub stats: CgStats,
    /// True when the cycles were extrapolated from sampled outer iterations
    /// rather than a full simulation.
    pub sampled: bool,
    /// True when timing comes from the analytic model only (reference plan).
    pub modeled: bool,
}

impl PlanTiming {
    /// Attained Gflops given the convolution's true flop count.
    pub fn gflops(&self, shape: &ConvShape, chip: &ChipSpec) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let secs = self.cycles as f64 / (chip.clock_ghz * 1e9);
        shape.flops() as f64 / secs / 1e9
    }

    /// Fraction of one CG's peak attained.
    pub fn efficiency(&self, shape: &ConvShape, chip: &ChipSpec) -> f64 {
        self.gflops(shape, chip) / chip.peak_gflops_per_cg()
    }
}

/// Result of running a plan: the output tensor plus timing.
#[derive(Clone, Debug)]
pub struct ConvRun {
    pub output: Tensor4<f64>,
    pub timing: PlanTiming,
}

/// A convolution execution strategy.
pub trait ConvPlan {
    fn name(&self) -> &'static str;
    fn kind(&self) -> PlanKind;

    /// The LDM blocking this plan *actually executes* `shape` with.
    ///
    /// Reports must derive their model columns from this, not from a fresh
    /// `select_plan` call: when the plan kind was forced (or the selector
    /// would pick a different blocking than the instantiated plan), the
    /// two can disagree and the report would describe a plan that was
    /// never measured. Plans without a meaningful blocking (direct,
    /// reference) keep the model's default.
    fn blocking(&self, _shape: &ConvShape) -> Blocking {
        Blocking::default()
    }

    /// Can this plan run `shape` at all (divisibility + LDM budget)?
    fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError>;

    /// Execute the full convolution (real arithmetic, full timing).
    fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError>;

    /// Estimate full-shape timing by simulating a small number of outer
    /// iterations and extrapolating linearly (see [`extrapolate`]). The
    /// mesh plans walk those iterations on a cost-only mesh over zero
    /// operands: same cycles and counters as a functional run, no tensors
    /// seeded, laid out or multiplied.
    ///
    /// The default implementation runs the plan in full, arithmetic
    /// included — plans whose cost is linear in an outer trip count override
    /// this.
    fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        let input = sw_tensor::init::seeded_tensor(shape.input_shape(), sw_tensor::Layout::Nchw, 1);
        let filter =
            sw_tensor::init::seeded_tensor(shape.filter_shape(), sw_tensor::Layout::Nchw, 2);
        Ok(self.run(shape, &input, &filter)?.timing)
    }
}

/// The epilogue of every mesh plan's walk: land the logged DMA puts in
/// `out`, check that no bus message was left undelivered, and read the
/// timing off the mesh, which simulated every outer iteration it was given.
pub(crate) fn finish<S: Send>(
    mut mesh: sw_sim::Mesh<S>,
    out: &mut [f64],
) -> Result<PlanTiming, SwdnnError> {
    mesh.drain_puts(out)?;
    mesh.assert_inboxes_empty()?;
    let stats = mesh.stats();
    Ok(PlanTiming {
        cycles: stats.cycles,
        stats,
        sampled: false,
        modeled: false,
    })
}

/// Filters repacked host-side to `(Kr, Kc, Ni, No)`, so each `(kr, kc)` tap
/// is one contiguous `Ni × No` matrix a CPE fetches with a strided DMA.
pub(crate) fn tap_major_filter(filter: &Tensor4<f64>) -> Vec<f64> {
    let f = filter.shape();
    let (no, ni, kr_n, kc_n) = (f.d0, f.d1, f.d2, f.d3);
    let mut w_flat = vec![0.0f64; kr_n * kc_n * ni * no];
    for n_o in 0..no {
        for n_i in 0..ni {
            for kr in 0..kr_n {
                for kc in 0..kc_n {
                    w_flat[((kr * kc_n + kc) * ni + n_i) * no + n_o] = filter.get(n_o, n_i, kr, kc);
                }
            }
        }
    }
    w_flat
}

/// Linear extrapolation of timing from two sampled runs.
///
/// A plan's cost is `a + b·N` in the outer trip count `N`; given
/// measurements at `n1 < n2` outer iterations, recover `(a, b)` and predict
/// the full count. Counters extrapolate the same way.
pub fn extrapolate(t1: &PlanTiming, n1: u64, t2: &PlanTiming, n2: u64, n_full: u64) -> PlanTiming {
    assert!(n2 > n1 && n1 > 0, "need two distinct positive sample sizes");
    let per_iter = (t2.cycles.saturating_sub(t1.cycles)) / (n2 - n1);
    let setup = t1.cycles.saturating_sub(per_iter * n1);
    let cycles = setup + per_iter * n_full;

    let lerp_u64 = |a: u64, b: u64| -> u64 {
        let per = (b.saturating_sub(a)) / (n2 - n1);
        let base = a.saturating_sub(per * n1);
        base + per * n_full
    };
    // `combine` iterates the complete counter field list, so counters added
    // to CpeStats extrapolate without this function changing.
    let mut stats = t1.stats;
    stats.cycles = cycles;
    stats.totals = t1.stats.totals.combine(&t2.stats.totals, lerp_u64);
    stats.ldm_high_water_doubles = t1
        .stats
        .ldm_high_water_doubles
        .max(t2.stats.ldm_high_water_doubles);

    PlanTiming {
        cycles,
        stats,
        sampled: true,
        modeled: false,
    }
}

/// Assert that a cost-only walk landed exactly where the functional run of
/// the same shape did: cycles, all 15 counter totals, LDM high water.
#[cfg(test)]
pub(crate) fn assert_same_timing(cost_only: &PlanTiming, functional: &PlanTiming, what: &str) {
    assert_eq!(cost_only.cycles, functional.cycles, "{what}: cycles");
    assert_eq!(
        cost_only.stats.totals, functional.stats.totals,
        "{what}: counters"
    );
    assert_eq!(
        cost_only.stats.ldm_high_water_doubles, functional.stats.ldm_high_water_doubles,
        "{what}: LDM high water"
    );
    assert!(!cost_only.sampled && !functional.sampled, "{what}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::CpeStats;

    fn timing(cycles: u64, flops: u64) -> PlanTiming {
        PlanTiming {
            cycles,
            stats: CgStats {
                cycles,
                totals: CpeStats {
                    flops,
                    ..Default::default()
                },
                ..Default::default()
            },
            sampled: false,
            modeled: false,
        }
    }

    #[test]
    fn extrapolation_recovers_linear_cost() {
        // cost = 100 + 50*N
        let t1 = timing(150, 10);
        let t2 = timing(200, 20);
        let full = extrapolate(&t1, 1, &t2, 2, 100);
        assert_eq!(full.cycles, 100 + 50 * 100);
        assert_eq!(full.stats.totals.flops, 10 * 100);
        assert!(full.sampled);
    }

    #[test]
    fn gflops_from_timing() {
        let shape = ConvShape::new(8, 8, 8, 4, 4, 3, 3);
        let chip = ChipSpec::sw26010();
        let t = timing(1450, 0); // 1 µs
        let expected = shape.flops() as f64 / 1e-6 / 1e9;
        assert!((t.gflops(&shape, &chip) - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "two distinct")]
    fn extrapolate_rejects_bad_samples() {
        let t = timing(100, 1);
        let _ = extrapolate(&t, 2, &t, 2, 10);
    }
}
