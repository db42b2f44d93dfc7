//! The user-facing convolution API with model-driven plan selection (§VII:
//! "we adopt different loop scheduling and blocking strategies according to
//! the performance model for different parameter configurations").
//! The two backward passes run on their dedicated mesh plans,
//! [`BwdDataPlan`] and [`BwdFilterPlan`], or on the host reference loops.

use crate::error::SwdnnError;
use crate::plans::{
    check_operands, lower_schedule, BatchAwarePlan, BwdDataPlan, BwdFilterPlan, ConvPlan, ConvRun,
    LowerCtx, PatchGemmPlan, PlanTiming, Schedule,
};
use sw_perfmodel::{co_blocks, select_plan, Blocking, PlanChoice, PlanKind};
use sw_tensor::{conv2d_bwd_data_ref, conv2d_bwd_filter_ref, ConvShape, Tensor4};

/// A configured convolution operator.
#[derive(Clone, Copy, Debug)]
pub struct Conv2d {
    pub shape: ConvShape,
    /// Where every mesh this operator builds runs — forward and both
    /// backward passes. Plan selection and divisibility checks use this
    /// context's chip (e.g. a degraded 4×4 mesh after masking a faulty CPE
    /// row/column).
    pub ctx: LowerCtx,
    /// Force a specific plan instead of consulting the model.
    pub forced: Option<PlanKind>,
}

impl Conv2d {
    pub fn new(shape: ConvShape) -> Result<Self, SwdnnError> {
        if !shape.is_valid() {
            return Err(SwdnnError::ShapeMismatch {
                expected: "positive extents whose counts fit".into(),
                got: format!("{shape}"),
            });
        }
        Ok(Self {
            shape,
            ctx: LowerCtx::default(),
            forced: None,
        })
    }

    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }

    pub fn with_plan(mut self, kind: PlanKind) -> Self {
        self.forced = Some(kind);
        self
    }

    /// The plan this configuration will use: [`Conv2d::schedule`], built
    /// in this operator's context.
    pub fn plan(&self) -> Box<dyn ConvPlan> {
        self.schedule().build(&self.ctx)
    }

    /// Resolve the schedule this configuration will use.
    ///
    /// Order: forced kind if set (returned even when its plan does not
    /// support the shape — that plan's `supports` then says why);
    /// otherwise the performance model's choice, verified against the
    /// plan's own `supports`; otherwise whichever of batch-size-aware and
    /// image-size-aware supports the shape; otherwise the host reference.
    /// The selector is consulted once, and its blocking serves every
    /// image-size-aware candidate below.
    pub fn schedule(&self) -> Schedule {
        let choice = select_plan(&self.shape, &self.ctx.chip);
        if let Some(kind) = self.forced {
            return self.schedule_for(kind, choice.as_ref());
        }
        let modeled = choice.as_ref().map(|c| c.kind);
        modeled
            .into_iter()
            .chain([PlanKind::BatchSizeAware, PlanKind::ImageSizeAware])
            .map(|kind| self.schedule_for(kind, choice.as_ref()))
            .find(|s| self.lowers(s))
            .unwrap_or(Schedule::reference())
    }

    fn lowers(&self, s: &Schedule) -> bool {
        lower_schedule(s, &self.shape, &self.ctx).is_ok()
    }

    fn schedule_for(&self, kind: PlanKind, choice: Option<&PlanChoice>) -> Schedule {
        let shape = &self.shape;
        match kind {
            PlanKind::ImageSizeAware => {
                // Use the model's blocking choice when available.
                let Blocking { b_b, b_co } = choice
                    .filter(|c| c.kind == PlanKind::ImageSizeAware)
                    .map(|c| c.blocking)
                    .unwrap_or_else(|| self.fallback_blocking());
                let plain = Schedule::image_aware(b_b, b_co);
                if self.lowers(&plain) {
                    return plain;
                }
                // §IV-A fallback: jointly shrink the output-column block
                // and block the Ni dimension until the footprint fits
                // (largest surviving b_co first; b_ni halves down to one
                // mesh row's worth of channels).
                for b_co in co_blocks(shape.co, 16) {
                    let mut b_ni = shape.ni;
                    while b_ni >= 8 {
                        if shape.ni.is_multiple_of(b_ni) && b_ni.is_multiple_of(8) {
                            let blocked = Schedule::image_aware_ni(32, b_co, b_ni);
                            if self.lowers(&blocked) {
                                return blocked;
                            }
                        }
                        b_ni /= 2;
                    }
                }
                plain
            }
            PlanKind::BatchSizeAware => {
                Schedule::batch_aware(BatchAwarePlan::auto_on(self.ctx, shape).b_co)
            }
            PlanKind::DirectGload => Schedule::direct(),
            PlanKind::PatchGemm => Schedule::patch_gemm(PatchGemmPlan::auto(self.ctx, shape).b_p),
        }
    }

    fn fallback_blocking(&self) -> Blocking {
        // Largest feasible power-of-two batch block, largest column block.
        let mut b_b = 32;
        while b_b * 2 <= self.shape.batch && self.shape.batch.is_multiple_of(b_b * 2) && b_b < 128 {
            b_b *= 2;
        }
        let b_co = co_blocks(self.shape.co, 16).next().unwrap_or(1);
        Blocking { b_b, b_co }
    }

    /// Forward convolution.
    pub fn forward(
        &self,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        self.plan().run(&self.shape, input, filter)
    }

    /// Gradient w.r.t. the input, computed host-side with the reference
    /// loops. See [`Conv2d::backward_data_on_chip`] for the simulated-chip
    /// path the paper's training focus implies.
    pub fn backward_data(
        &self,
        d_out: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<Tensor4<f64>, SwdnnError> {
        let s = &self.shape;
        check_operands([(d_out, s.output_shape()), (filter, s.filter_shape())])?;
        Ok(conv2d_bwd_data_ref(self.shape, d_out, filter))
    }

    /// Gradient w.r.t. the input, executed **on the simulated SW26010** by
    /// the dedicated [`BwdDataPlan`] (one `Wᵀ·dY` rotation per pixel tile,
    /// then col2im in LDM) in this operator's context. `Unsupported` for
    /// shapes the mesh cannot tile; use [`Conv2d::backward_data`] for the
    /// always-correct host path.
    pub fn backward_data_on_chip(
        &self,
        d_out: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        let s = &self.shape;
        BwdDataPlan::auto_on(self.ctx, s).run(s, d_out, filter)
    }

    /// Gradient w.r.t. the filters, executed **on the simulated SW26010**
    /// by the dedicated [`BwdFilterPlan`] (the pixel-reduced GEMM rotation)
    /// in this operator's context. Falls back with `Unsupported` for shapes
    /// the mesh cannot tile; use [`Conv2d::backward_filter`] for the
    /// always-correct host path.
    pub fn backward_filter_on_chip(
        &self,
        input: &Tensor4<f64>,
        d_out: &Tensor4<f64>,
    ) -> Result<(Tensor4<f64>, PlanTiming), SwdnnError> {
        let s = &self.shape;
        BwdFilterPlan::auto_on(self.ctx, s).run(s, input, d_out)
    }

    /// Gradient w.r.t. the filters.
    pub fn backward_filter(
        &self,
        input: &Tensor4<f64>,
        d_out: &Tensor4<f64>,
    ) -> Result<Tensor4<f64>, SwdnnError> {
        let s = &self.shape;
        check_operands([(input, s.input_shape()), (d_out, s.output_shape())])?;
        Ok(conv2d_bwd_filter_ref(self.shape, input, d_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::{lattice_tensor, seeded_tensor};
    use sw_tensor::{conv2d_ref, Layout, Shape4};

    #[test]
    fn forward_auto_selects_and_matches_reference() {
        let shape = ConvShape::new(16, 8, 8, 4, 8, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 51);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 52);
        let run = conv.forward(&input, &filter).unwrap();
        let expect = conv2d_ref(shape, &input, &filter);
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn odd_shapes_fall_back_to_reference_plan() {
        let shape = ConvShape::new(3, 5, 7, 2, 3, 2, 2);
        let conv = Conv2d::new(shape).unwrap();
        assert_eq!(conv.plan().name(), "reference");
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 53);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 54);
        let run = conv.forward(&input, &filter).unwrap();
        assert_eq!(run.output.shape(), shape.output_shape());
    }

    #[test]
    fn forcing_a_plan_is_respected() {
        let shape = ConvShape::new(16, 8, 8, 4, 8, 3, 3);
        let conv = Conv2d::new(shape).unwrap().with_plan(PlanKind::DirectGload);
        assert_eq!(conv.plan().name(), "direct_gload");
    }

    #[test]
    fn forced_direct_plan_sees_the_operators_faults() {
        let shape = ConvShape::new(16, 8, 8, 4, 8, 3, 3);
        let fault = sw_sim::FaultPlan::none(1).with_dma_fail_rate(1.0);
        let conv = Conv2d::new(shape)
            .unwrap()
            .on(LowerCtx::default().with_fault(Some(fault)))
            .with_plan(PlanKind::DirectGload);
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 58);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 59);
        let err = conv.forward(&input, &filter).unwrap_err();
        assert!(
            matches!(err, SwdnnError::Sim(sw_sim::SimError::DmaFault { .. })),
            "{err}"
        );
    }

    #[test]
    fn operand_shapes_are_checked() {
        // One wrong operand per call on a mesh-eligible shape: every entry
        // point returns `ShapeMismatch` before any loop or DMA reads it.
        let shape = ConvShape::new(32, 8, 8, 4, 8, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        let t = |s| seeded_tensor(s, Layout::Nchw, 1);
        let [x, w, dy] = [
            shape.input_shape(),
            shape.filter_shape(),
            shape.output_shape(),
        ]
        .map(t);
        // A 2×2 filter on a 3×3 shape, an input and a gradient one row short.
        let [w_bad, x_bad, dy_bad] = [(8, 8, 2, 2), (32, 8, 5, 10), (32, 8, 3, 8)]
            .map(|(b, c, r, k)| t(Shape4::new(b, c, r, k)));
        // Forward, backward-data on host and chip, backward-filter on host
        // and chip: each with its first, then its second operand wrong.
        let calls = [
            conv.forward(&x_bad, &w).map(drop),
            conv.forward(&x, &w_bad).map(drop),
            conv.backward_data(&dy_bad, &w).map(drop),
            conv.backward_data(&dy, &w_bad).map(drop),
            conv.backward_data_on_chip(&dy_bad, &w).map(drop),
            conv.backward_data_on_chip(&dy, &w_bad).map(drop),
            conv.backward_filter(&x_bad, &dy).map(drop),
            conv.backward_filter(&x, &dy_bad).map(drop),
            conv.backward_filter_on_chip(&x_bad, &dy).map(drop),
            conv.backward_filter_on_chip(&x, &dy_bad).map(drop),
        ];
        for (i, result) in calls.into_iter().enumerate() {
            let mismatch = matches!(result, Err(SwdnnError::ShapeMismatch { .. }));
            assert!(mismatch, "call {i}: {result:?}");
        }
    }

    #[test]
    fn shapes_whose_counts_overflow_are_rejected() {
        // Every extent is positive, but the first two overflow `flops`, and
        // the third's input buffer, padded to a whole vector, overflows
        // `usize`.
        let overflowing = [
            ConvShape::new(1 << 22, 1 << 22, 1 << 22, 1 << 22, 1, 1, 1),
            ConvShape::new(1 << 16, 1 << 16, 1 << 16, 64, 64, 3, 3),
            ConvShape::new(1, 1, 1, 1, 1, usize::MAX / 2, 1),
        ];
        for shape in overflowing {
            let result = Conv2d::new(shape);
            let mismatch = matches!(result, Err(SwdnnError::ShapeMismatch { .. }));
            assert!(mismatch, "{shape}: {result:?}");
        }
    }

    #[test]
    fn backward_passes_match_reference() {
        let shape = ConvShape::new(2, 3, 4, 3, 3, 2, 2);
        let conv = Conv2d::new(shape).unwrap();
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 55);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 56);
        let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 57);
        let d_in = conv.backward_data(&d_out, &filter).unwrap();
        let d_w = conv.backward_filter(&input, &d_out).unwrap();
        assert_eq!(d_in.shape(), shape.input_shape());
        assert_eq!(d_w.shape(), shape.filter_shape());
    }

    #[test]
    fn paper_scale_config_selects_a_mesh_plan() {
        let shape = ConvShape::new(128, 128, 128, 64, 64, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        let plan = conv.plan();
        assert_ne!(plan.name(), "reference");
        assert!(plan.supports(&shape).is_ok());
    }
}

#[cfg(test)]
mod ni_blocking_tests {
    use super::*;
    use sw_tensor::Layout;

    #[test]
    fn huge_channel_counts_get_a_blocked_mesh_plan() {
        // 512x512 channels overflow LDM for the plain plans; the selector
        // must fall back to Ni blocking, not to the host reference plan.
        let shape = ConvShape::new(128, 512, 512, 64, 64, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        assert!(conv.schedule().b_ni.is_some());
        let plan = conv.plan();
        assert_eq!(plan.name(), "image_size_aware");
        assert!(plan.supports(&shape).is_ok());
    }

    #[test]
    fn blocked_plan_is_still_correct() {
        let shape = ConvShape::new(32, 64, 8, 2, 4, 2, 2);
        // Force a footprint squeeze by picking a tiny fake LDM via direct
        // plan construction instead: exercised through the public API with
        // an awkward-but-valid shape.
        let conv = Conv2d::new(shape).unwrap();
        let input = sw_tensor::init::lattice_tensor(shape.input_shape(), Layout::Nchw, 81);
        let filter = sw_tensor::init::lattice_tensor(shape.filter_shape(), Layout::Nchw, 82);
        let run = conv.forward(&input, &filter).unwrap();
        let expect = sw_tensor::conv2d_ref(shape, &input, &filter);
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }
}

#[cfg(test)]
mod backward_on_chip_tests {
    use super::*;
    use sw_tensor::init::{lattice_tensor, seeded_tensor};
    use sw_tensor::Layout;

    #[test]
    fn chip_backward_data_matches_reference_exactly() {
        // Mesh-eligible backward shape: Ni<->No swap keeps multiples of 8,
        // and the padded extents stay divisible for the auto plans.
        let shape = ConvShape::new(16, 8, 16, 6, 6, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        let d_out = lattice_tensor(shape.output_shape(), Layout::Nchw, 201);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 202);
        let expect = conv.backward_data(&d_out, &filter).unwrap();
        let run = conv.backward_data_on_chip(&d_out, &filter).unwrap();
        assert_eq!(run.output.shape(), shape.input_shape());
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
        assert!(run.timing.cycles > 0, "must actually run on the simulator");
    }

    #[test]
    fn chip_backward_data_random_data_tolerance() {
        let shape = ConvShape::new(8, 16, 8, 4, 6, 2, 3);
        let conv = Conv2d::new(shape).unwrap();
        let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 203);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 204);
        let expect = conv.backward_data(&d_out, &filter).unwrap();
        let run = conv.backward_data_on_chip(&d_out, &filter).unwrap();
        assert!(run.output.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn chip_backward_filter_matches_reference() {
        let shape = ConvShape::new(32, 8, 16, 4, 8, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 205);
        let d_out = lattice_tensor(shape.output_shape(), Layout::Nchw, 206);
        let expect = conv.backward_filter(&input, &d_out).unwrap();
        let (dw, timing) = conv.backward_filter_on_chip(&input, &d_out).unwrap();
        assert_eq!(dw.max_abs_diff(&expect), 0.0);
        assert!(timing.cycles > 0);
    }

    #[test]
    fn chip_backward_filter_runs_on_the_operators_chip() {
        // Ni = No = 12 tiles a degraded 4×4 mesh but not the stock 8×8 one.
        let shape = ConvShape::new(32, 12, 12, 4, 8, 3, 3);
        let chip = crate::ResilientExecutor::degraded_chip(sw_perfmodel::ChipSpec::sw26010());
        let conv = Conv2d::new(shape).unwrap().on(LowerCtx::on_chip(chip));
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 207);
        let d_out = lattice_tensor(shape.output_shape(), Layout::Nchw, 208);
        let expect = conv.backward_filter(&input, &d_out).unwrap();
        let (dw, timing) = conv.backward_filter_on_chip(&input, &d_out).unwrap();
        assert_eq!(dw.max_abs_diff(&expect), 0.0);
        assert!(timing.cycles > 0);
    }

    #[test]
    fn chip_backward_filter_sees_the_operators_faults() {
        let shape = ConvShape::new(32, 8, 16, 4, 8, 3, 3);
        let fault = sw_sim::FaultPlan::none(1).with_dma_fail_rate(1.0);
        let conv = Conv2d::new(shape)
            .unwrap()
            .on(LowerCtx::default().with_fault(Some(fault)));
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 209);
        let d_out = lattice_tensor(shape.output_shape(), Layout::Nchw, 210);
        let err = conv.backward_filter_on_chip(&input, &d_out).unwrap_err();
        assert!(
            matches!(err, SwdnnError::Sim(sw_sim::SimError::DmaFault { .. })),
            "{err}"
        );
    }

    #[test]
    fn chip_backward_filter_runs_on_the_operators_runtime() {
        // Rotation rounds of 8²·8·8·64 = 2¹⁸ MACs: above the runtime's grain,
        // so every round is a pool handoff once there is more than one lane.
        let shape = ConvShape::new(32, 64, 64, 2, 16, 3, 3);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 211);
        let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 212);
        let private = || -> &'static sw_runtime::ExecutionContext {
            Box::leak(Box::new(sw_runtime::ExecutionContext::new()))
        };
        let (via_conv, direct) = (private(), private());
        sw_runtime::with_threads(4, || {
            let ctx = LowerCtx::default().on_runtime(via_conv);
            let conv = Conv2d::new(shape).unwrap().on(ctx);
            conv.backward_filter_on_chip(&input, &d_out).unwrap();
            BwdFilterPlan::auto_on(LowerCtx::default().on_runtime(direct), &shape)
                .run(&shape, &input, &d_out)
                .unwrap();
        });
        // The global pool is shared with every concurrently running test, so
        // its counter proves nothing here; instead the operator's context
        // must have taken every handoff the plan posts — none went elsewhere.
        assert!(via_conv.pool_handoffs() > 0);
        assert_eq!(via_conv.pool_handoffs(), direct.pool_handoffs());
    }
}
