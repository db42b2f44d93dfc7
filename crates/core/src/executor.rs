//! The executor: run a configuration through the simulator and put the
//! measured numbers next to the model's predictions.
//!
//! This is the engine behind the Table III and Fig. 7/9 regenerations: for
//! each parameter configuration it selects a plan, obtains simulated timing
//! (sampled extrapolation at paper scale), computes achieved Gflops and
//! effective MEM↔LDM bandwidth from the traffic counters, and evaluates the
//! analytic model for comparison.

use crate::conv::Conv2d;
use crate::error::SwdnnError;
use crate::plans::{LowerCtx, PlanTiming};
use crate::serve::ShardedDispatcher;
use sw_perfmodel::{
    comm_optimal_permille, mem_comm_lower_bound_bytes, Blocking, ChipSpec, ConvPerfModel,
    PerfEstimate, PlanKind,
};
use sw_sim::run_multi_cg_on;
use sw_tensor::ConvShape;

/// Everything measured and modeled for one configuration.
#[derive(Clone, Debug)]
pub struct ConvReport {
    pub shape: ConvShape,
    pub plan_name: String,
    pub plan_kind: PlanKind,
    pub blocking: Blocking,
    /// Simulated timing on one CG.
    pub timing: PlanTiming,
    /// Measured Gflops on one CG.
    pub gflops_cg: f64,
    /// Fraction of CG peak.
    pub efficiency: f64,
    /// Achieved MEM→LDM bandwidth, GB/s.
    pub mbw_measured: f64,
    /// Worker-pool handoffs (condvar wake + join cycles) the simulation
    /// cost on the host — the superstep tax: one per rotation above the
    /// runtime's grain, none below it.
    pub pool_handoffs: u64,
    /// Closed-form lower bound on MEM→LDM read traffic for this shape
    /// ([`mem_comm_lower_bound_bytes`]).
    pub comm_lower_bound_bytes: u64,
    /// Attained fraction of comm-optimal in permille: `1000·bound/measured`
    /// with `dma_get_bytes` as the measured traffic, clamped to 1000.
    pub comm_optimal_permille: u64,
    /// Analytic model output for the same choice.
    pub model: PerfEstimate,
}

/// Runs configurations on the simulated chip.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    pub chip: ChipSpec,
    /// Execution context every simulation this executor launches runs on.
    pub rt: &'static sw_runtime::ExecutionContext,
}

impl Default for Executor {
    fn default() -> Self {
        Self {
            chip: ChipSpec::default(),
            rt: sw_runtime::global(),
        }
    }
}

impl Executor {
    pub fn new() -> Self {
        Self {
            chip: ChipSpec::sw26010(),
            rt: sw_runtime::global(),
        }
    }

    /// Run every simulation on an explicit [`sw_runtime::ExecutionContext`].
    pub fn on_runtime(mut self, rt: &'static sw_runtime::ExecutionContext) -> Self {
        self.rt = rt;
        self
    }

    /// The context every simulation this executor launches runs in.
    fn ctx(&self) -> LowerCtx {
        LowerCtx::on_chip(self.chip).on_runtime(self.rt)
    }

    /// Measure one configuration on one core group (sampled timing).
    pub fn run_config(&self, shape: &ConvShape) -> Result<ConvReport, SwdnnError> {
        let conv = Conv2d::new(*shape)?.on(self.ctx());
        let plan = conv.plan();
        let handoffs_before = self.rt.pool_handoffs();
        let timing = plan.time_full_shape(shape)?;
        let handoffs = self.rt.pool_handoffs() - handoffs_before;
        self.report(
            shape,
            plan.name(),
            plan.kind(),
            plan.blocking(shape),
            timing,
            handoffs,
        )
    }

    /// Measure with a forced plan kind.
    pub fn run_config_with(
        &self,
        shape: &ConvShape,
        kind: PlanKind,
    ) -> Result<ConvReport, SwdnnError> {
        let conv = Conv2d::new(*shape)?.on(self.ctx()).with_plan(kind);
        let plan = conv.plan();
        plan.supports(shape)?;
        let handoffs_before = self.rt.pool_handoffs();
        let timing = plan.time_full_shape(shape)?;
        let handoffs = self.rt.pool_handoffs() - handoffs_before;
        self.report(
            shape,
            plan.name(),
            plan.kind(),
            plan.blocking(shape),
            timing,
            handoffs,
        )
    }

    /// Assemble a [`ConvReport`] for an already-timed execution.
    ///
    /// `kind`/`blocking` must be the *executed* plan's values
    /// ([`crate::plans::ConvPlan::blocking`]): deriving them from a fresh
    /// `select_plan` call here would let the model columns describe a plan
    /// other than the one measured whenever the kind was forced or the
    /// instantiated blocking differs from the selector's pick.
    pub(crate) fn report(
        &self,
        shape: &ConvShape,
        name: &str,
        kind: PlanKind,
        blocking: Blocking,
        timing: PlanTiming,
        pool_handoffs: u64,
    ) -> Result<ConvReport, SwdnnError> {
        let model = ConvPerfModel::default().estimate(
            kind,
            blocking,
            shape.batch,
            shape.ni,
            shape.no,
            shape.kc,
        );
        let gflops = timing.gflops(shape, &self.chip);
        let secs = self.chip.cycles_to_seconds(timing.cycles);
        // A degenerate timing (zero cycles) must not poison snapshots with
        // Inf/NaN bandwidth.
        let mbw = if secs > 0.0 {
            timing.stats.totals.dma_get_bytes as f64 / secs / 1e9
        } else {
            0.0
        };
        let comm_bound = mem_comm_lower_bound_bytes(
            &self.chip,
            shape.batch,
            shape.ni,
            shape.no,
            shape.ro,
            shape.co,
            shape.kr,
            shape.kc,
        );
        let comm_permille = comm_optimal_permille(comm_bound, timing.stats.totals.dma_get_bytes);
        Ok(ConvReport {
            shape: *shape,
            plan_name: name.to_string(),
            plan_kind: kind,
            blocking,
            timing,
            gflops_cg: gflops,
            efficiency: gflops / self.chip.peak_gflops_per_cg(),
            mbw_measured: mbw,
            pool_handoffs,
            comm_lower_bound_bytes: comm_bound,
            comm_optimal_permille: comm_permille,
            model,
        })
    }

    /// Chip-level Gflops when the batch is split across `cgs` core groups
    /// (§III-D's partitioning; each CG runs the same plan on 1/cgs of the
    /// output rows).
    pub fn run_multi_cg(
        &self,
        shape: &ConvShape,
        cgs: usize,
    ) -> Result<MultiCgConvReport, SwdnnError> {
        // The dispatcher's core-group range check and row split.
        ShardedDispatcher::new(self.chip, cgs)?;
        let slice = ShardedDispatcher::slice_shape(shape, cgs)?;
        let conv = Conv2d::new(slice)?.on(self.ctx());
        let plan = conv.plan();
        let timing = plan.time_full_shape(&slice)?;
        let (rep, _) = run_multi_cg_on(self.rt, cgs, |_| (timing.stats, ()));
        let gflops =
            shape.flops() as f64 / (rep.wall_cycles as f64 / (self.chip.clock_ghz * 1e9)) / 1e9;
        Ok(MultiCgConvReport {
            cgs,
            wall_cycles: rep.wall_cycles,
            gflops_chip: gflops,
        })
    }
}

/// Chip-level scaling result.
#[derive(Clone, Copy, Debug)]
pub struct MultiCgConvReport {
    pub cgs: usize,
    pub wall_cycles: u64,
    pub gflops_chip: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ConvShape {
        ConvShape::new(32, 16, 16, 8, 8, 3, 3)
    }

    #[test]
    fn report_has_consistent_numbers() {
        let rep = Executor::new().run_config(&small()).unwrap();
        assert!(rep.gflops_cg > 0.0);
        assert!(rep.efficiency > 0.0 && rep.efficiency < 1.0);
        assert!(rep.mbw_measured > 0.0);
        assert!(rep.model.gflops_per_cg > 0.0);
        assert!(
            rep.timing.stats.totals.ldm_reg_bytes > 0,
            "kernel must charge LDM→REG traffic"
        );
        assert!(rep.comm_lower_bound_bytes > 0);
        assert!(rep.comm_optimal_permille > 0 && rep.comm_optimal_permille <= 1000);
    }

    #[test]
    fn forced_plan_report_describes_executed_plan_not_selector_pick() {
        // Regression: report() used to re-run select_plan and attach *its*
        // blocking/model to whatever plan actually executed. With the kind
        // forced to batch-size-aware the selector can disagree, so the
        // model columns described a plan that was never measured.
        let e = Executor::new();
        let shape = small();
        let rep = e.run_config_with(&shape, PlanKind::BatchSizeAware).unwrap();
        assert_eq!(rep.plan_kind, PlanKind::BatchSizeAware);
        assert_eq!(
            rep.blocking.b_b, shape.batch,
            "batch-aware plan streams the whole batch; report must say so"
        );
        let model = ConvPerfModel::default().estimate(
            rep.plan_kind,
            rep.blocking,
            shape.batch,
            shape.ni,
            shape.no,
            shape.kc,
        );
        assert_eq!(rep.model.gflops_per_cg, model.gflops_per_cg);
    }

    #[test]
    fn degenerate_zero_cycle_timing_yields_finite_bandwidth() {
        // Regression: mbw_measured divided by secs without a zero guard, so
        // a zero-cycle timing poisoned the report with Inf/NaN.
        let e = Executor::new();
        let shape = small();
        let timing = PlanTiming {
            cycles: 0,
            stats: sw_sim::CgStats::default(),
            sampled: false,
        };
        let rep = e
            .report(
                &shape,
                "degenerate",
                PlanKind::ImageSizeAware,
                Blocking::default(),
                timing,
                0,
            )
            .unwrap();
        assert!(rep.mbw_measured.is_finite());
        assert_eq!(rep.mbw_measured, 0.0);
        assert_eq!(rep.comm_optimal_permille, 0, "no traffic, no gauge");
    }

    #[test]
    fn forced_direct_plan_is_catastrophically_slow() {
        let e = Executor::new();
        let fast = e.run_config(&small()).unwrap();
        let slow = e.run_config_with(&small(), PlanKind::DirectGload).unwrap();
        assert!(
            slow.gflops_cg * 20.0 < fast.gflops_cg,
            "direct {} vs optimized {}",
            slow.gflops_cg,
            fast.gflops_cg
        );
    }

    #[test]
    fn invalid_cg_splits_are_errors_not_panics() {
        let e = Executor::new();
        let shape = small();
        assert!(matches!(
            e.run_multi_cg(&shape, 0),
            Err(SwdnnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            e.run_multi_cg(&shape, e.chip.core_groups + 1),
            Err(SwdnnError::ShapeMismatch { .. })
        ));
        // ro = 16 does not split across 3 CGs.
        assert!(matches!(
            e.run_multi_cg(&shape, 3),
            Err(SwdnnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn multi_cg_scales_nearly_linearly() {
        let e = Executor::new();
        let shape = small();
        let one = e.run_multi_cg(&shape, 1).unwrap();
        let four = e.run_multi_cg(&shape, 4).unwrap();
        let speedup = one.wall_cycles as f64 / four.wall_cycles as f64;
        assert!(speedup > 3.0, "4-CG speedup {speedup}");
        assert!(four.gflops_chip > one.gflops_chip * 3.0);
    }
}
