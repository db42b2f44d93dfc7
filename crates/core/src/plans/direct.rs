//! The direct memory-access plan — the pathological mapping of Fig. 2's
//! middle column, kept as an executable ablation.
//!
//! Each CPE computes an interleaved 1/64 share of the output pixels,
//! reading every operand element straight from main memory with `gload`
//! (8 GB/s aggregate for the whole CG, no LDM staging, no data sharing,
//! scalar arithmetic). The paper's model predicts
//! `(8 / 139.2)² ≈ 0.32 %` of peak; simulating this plan shows the same
//! collapse and anchors the "direct memory access" column of the Fig. 2
//! reproduction.

use super::{check_operands, finish, reject_degenerate, ConvPlan, ConvRun, LowerCtx, PlanTiming};
use crate::error::SwdnnError;
use crate::plans::PlanKind;
use sw_perfmodel::ChipSpec;
use sw_sim::{CgStats, CpeStats, LdmBuf};
use sw_tensor::{ConvShape, Layout, Tensor4};

/// Cycles one scalar 8-byte `gload` costs a CPE when all 64 CPEs contend
/// for the 8 GB/s interface: `8 B / (8/64 GB/s) · 1.45 GHz = 92.8`.
fn gload_cycles(chip: &ChipSpec) -> u64 {
    let share = chip.gload_gbps / chip.cpes_per_cg as f64;
    (8.0 / (share * 1e9) * chip.clock_ghz * 1e9).ceil() as u64
}

/// The direct-gload convolution.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectPlan {
    /// Where the simulated mesh runs: chip, injected faults, host runtime.
    pub ctx: LowerCtx,
}

impl DirectPlan {
    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Analytic cycle count. The plan is perfectly regular, so (up to the
    /// final barrier) the closed form matches the simulated count —
    /// asserted in the tests.
    fn analytic_cycles(&self, shape: &ConvShape) -> u64 {
        let outputs = shape.batch * shape.no * shape.ro * shape.co;
        let per_cpe_outputs = outputs.div_ceil(self.ctx.chip.cpes_per_cg);
        let g = gload_cycles(&self.ctx.chip);
        let inner = shape.ni * shape.kr * shape.kc;
        // 2 gloads (input + filter element) and 1 scalar fma per inner step,
        // plus one gstore per output.
        per_cpe_outputs as u64 * (inner as u64 * (2 * g + 1) + g)
    }
}

impl ConvPlan for DirectPlan {
    fn name(&self) -> &'static str {
        "direct_gload"
    }

    fn kind(&self) -> PlanKind {
        PlanKind::DirectGload
    }

    fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError> {
        reject_degenerate("direct_gload", shape)
    }

    fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        self.supports(shape)?;
        check_operands([(input, shape.input_shape()), (filter, shape.filter_shape())])?;
        let input = input.to_layout(Layout::Nchw);
        let filter = filter.to_layout(Layout::Nchw);
        let in_data = input.data();
        let w_data = filter.data();
        let (b_n, no, ro, co, ni, kr_n, kc_n) = (
            shape.batch,
            shape.no,
            shape.ro,
            shape.co,
            shape.ni,
            shape.kr,
            shape.kc,
        );
        let (ri, ci) = (shape.ri(), shape.ci());
        let outputs = b_n * no * ro * co;
        let g = gload_cycles(&self.ctx.chip);
        let cpes = self.ctx.chip.cpes_per_cg;

        let mut output = Tensor4::zeros(shape.output_shape(), Layout::Nchw);
        let mut mesh = self.ctx.mesh::<LdmBuf>();
        mesh.superstep(|ctx, buf| {
            *buf = ctx.ldm_alloc(1)?;
            Ok(())
        })?;
        mesh.superstep(|ctx, buf| {
            let mut idx = ctx.id();
            while idx < outputs {
                let c = idx % co;
                let r = (idx / co) % ro;
                let n_o = (idx / (co * ro)) % no;
                let b = idx / (co * ro * no);
                let mut acc = 0.0;
                for n_i in 0..ni {
                    for kr in 0..kr_n {
                        for kc in 0..kc_n {
                            let iv = in_data[((b * ni + n_i) * ri + r + kr) * ci + c + kc];
                            let wv = w_data[((n_o * ni + n_i) * kr_n + kr) * kc_n + kc];
                            acc += iv * wv;
                        }
                    }
                }
                ctx.ldm_data_mut()[buf.offset] = acc;
                // gstore: one 8-byte scalar store at gload cost; the put is
                // charged through charge_compute so the analytic formula
                // stays exact, and logged for functional correctness.
                let h = ctx.dma_put(*buf, 0, idx, 1)?;
                let _ = h; // timing folded into the closed form below
                let inner = (ni * kr_n * kc_n) as u64;
                ctx.charge_compute(inner * (2 * g + 1) + g);
                ctx.add_flops(2 * inner);
                idx += cpes;
            }
            Ok(())
        })?;
        mesh.drain_puts(output.data_mut())?;
        let timing = finish(mesh)?;
        Ok(ConvRun { output, timing })
    }

    fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        // The plan is perfectly regular: use the closed form (validated
        // against full simulation on small shapes in the tests).
        let cycles = self.analytic_cycles(shape);
        let stats = CgStats {
            cycles,
            totals: CpeStats {
                flops: shape.flops(),
                dma_get_bytes: 16
                    * (shape.batch * shape.no * shape.ro * shape.co) as u64
                    * (shape.ni * shape.kr * shape.kc) as u64,
                ..Default::default()
            },
            ..Default::default()
        };
        Ok(stats.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_perfmodel::{Blocking, ConvPerfModel};
    use sw_tensor::conv2d_ref;
    use sw_tensor::init::seeded_tensor;

    #[test]
    fn gload_cost_is_about_93_cycles() {
        assert_eq!(gload_cycles(&ChipSpec::sw26010()), 93);
    }

    #[test]
    fn matches_reference() {
        let shape = ConvShape::new(4, 3, 5, 4, 6, 3, 2);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 31);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 32);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = DirectPlan::default().run(&shape, &input, &filter).unwrap();
        assert_eq!(
            run.output.max_abs_diff(&expect),
            0.0,
            "same summation order => exact"
        );
    }

    #[test]
    fn degraded_chip_writes_every_output() {
        // The 4×4 chip has 16 CPEs: the output loop starts at the chip's
        // linear CPE index and strides by its CPE count, not the healthy
        // mesh's 64.
        let shape = ConvShape::new(4, 3, 5, 4, 6, 3, 2);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 31);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 32);
        let expect = conv2d_ref(shape, &input, &filter);
        let chip = crate::ResilientExecutor::degraded_chip(ChipSpec::sw26010());
        let run = DirectPlan::default()
            .on(LowerCtx::on_chip(chip))
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn analytic_cycles_match_simulation() {
        let shape = ConvShape::new(8, 4, 8, 4, 8, 3, 3);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 33);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 34);
        let plan = DirectPlan::default();
        let run = plan.run(&shape, &input, &filter).unwrap();
        let analytic = plan.analytic_cycles(&shape);
        // The simulation adds only the fixed superstep barriers.
        let slack = run.timing.cycles - analytic;
        assert!(
            slack <= 64,
            "analytic {analytic} vs simulated {}",
            run.timing.cycles
        );
    }

    #[test]
    fn efficiency_collapses_to_fraction_of_percent() {
        // The Fig. 2 claim: ~0.32% of peak.
        let chip = ChipSpec::sw26010();
        let plan = DirectPlan::default();
        let shape = ConvShape::new(128, 128, 128, 64, 64, 3, 3);
        let t = plan.time_full_shape(&shape).unwrap();
        let eff = t.efficiency(&shape, &chip);
        assert!(eff < 0.005, "direct plan must be <0.5% of peak, got {eff}");
        // And the analytic model agrees on the order of magnitude.
        let est = ConvPerfModel::default().estimate(
            PlanKind::DirectGload,
            Blocking::default(),
            128,
            128,
            128,
            3,
        );
        let model_eff = est.gflops_per_cg / chip.peak_gflops_per_cg();
        assert!((eff / model_eff) < 3.0 && (model_eff / eff) < 3.0);
    }
}
