//! The user-facing convolution API with model-driven plan selection (§VII:
//! "we adopt different loop scheduling and blocking strategies according to
//! the performance model for different parameter configurations").

use crate::error::SwdnnError;
use crate::plans::{
    lower_schedule, BatchAwarePlan, BwdFilterPlan, ConvPlan, ConvRun, LowerCtx, PatchGemmPlan,
    PlanTiming, Schedule,
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
                expected: "positive extents".into(),
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
        self.check_operands(input, filter)?;
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
        if d_out.shape() != self.shape.output_shape() {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{:?}", self.shape.output_shape()),
                got: format!("{:?}", d_out.shape()),
            });
        }
        Ok(conv2d_bwd_data_ref(self.shape, d_out, filter))
    }

    /// The [`ConvShape`] of the backward-data pass expressed as a forward
    /// convolution: `d_in = conv_valid(pad(d_out, K−1), rot180(Wᵀ))`, i.e.
    /// channels swap roles (`Ni ↔ No`) and the output extent is the input
    /// extent.
    pub fn backward_data_shape(&self) -> ConvShape {
        let s = self.shape;
        ConvShape::new(s.batch, s.no, s.ni, s.ri(), s.ci(), s.kr, s.kc)
    }

    /// Gradient w.r.t. the input, executed **on the simulated SW26010** by
    /// lowering to an equivalent forward convolution (zero-padded output
    /// gradient × flipped-transposed filters) and running it through the
    /// regular plan machinery — the same trick real training frameworks
    /// use so one tuned kernel serves both directions. `Unsupported` when no
    /// mesh plan tiles the lowered shape; use [`Conv2d::backward_data`] for
    /// the always-correct host path.
    pub fn backward_data_on_chip(
        &self,
        d_out: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        if d_out.shape() != self.shape.output_shape() {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{:?}", self.shape.output_shape()),
                got: format!("{:?}", d_out.shape()),
            });
        }
        let s = self.shape;
        let bwd_shape = self.backward_data_shape();
        let bwd_conv = Conv2d {
            shape: bwd_shape,
            ..*self
        };
        let plan = bwd_conv.plan();
        if plan.name() == "reference" {
            return Err(SwdnnError::Unsupported {
                plan: plan.name(),
                shape: bwd_shape,
                reason: "no mesh plan tiles the lowered backward-data shape".into(),
            });
        }

        // Zero-pad the output gradient by (Kr-1, Kc-1) on every side.
        let mut padded = Tensor4::zeros(bwd_shape.input_shape(), sw_tensor::Layout::Nchw);
        for b in 0..s.batch {
            for no in 0..s.no {
                for r in 0..s.ro {
                    for c in 0..s.co {
                        padded.set(b, no, r + s.kr - 1, c + s.kc - 1, d_out.get(b, no, r, c));
                    }
                }
            }
        }
        // Flip and transpose the filters: W'[ni][no][kr][kc] =
        // W[no][ni][Kr-1-kr][Kc-1-kc].
        let mut flipped = Tensor4::zeros(bwd_shape.filter_shape(), sw_tensor::Layout::Nchw);
        for no in 0..s.no {
            for ni in 0..s.ni {
                for kr in 0..s.kr {
                    for kc in 0..s.kc {
                        flipped.set(
                            ni,
                            no,
                            s.kr - 1 - kr,
                            s.kc - 1 - kc,
                            filter.get(no, ni, kr, kc),
                        );
                    }
                }
            }
        }
        plan.run(&bwd_shape, &padded, &flipped)
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
        if d_out.shape() != self.shape.output_shape() {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{:?}", self.shape.output_shape()),
                got: format!("{:?}", d_out.shape()),
            });
        }
        BwdFilterPlan::auto_on(self.ctx, &self.shape).run(&self.shape, input, d_out)
    }

    /// Gradient w.r.t. the filters.
    pub fn backward_filter(
        &self,
        input: &Tensor4<f64>,
        d_out: &Tensor4<f64>,
    ) -> Result<Tensor4<f64>, SwdnnError> {
        if d_out.shape() != self.shape.output_shape() {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{:?}", self.shape.output_shape()),
                got: format!("{:?}", d_out.shape()),
            });
        }
        Ok(conv2d_bwd_filter_ref(self.shape, input, d_out))
    }

    fn check_operands(
        &self,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<(), SwdnnError> {
        if input.shape() != self.shape.input_shape() {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{:?}", self.shape.input_shape()),
                got: format!("{:?}", input.shape()),
            });
        }
        if filter.shape() != self.shape.filter_shape() {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{:?}", self.shape.filter_shape()),
                got: format!("{:?}", filter.shape()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::{lattice_tensor, seeded_tensor};
    use sw_tensor::{conv2d_ref, Layout};

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
        let shape = ConvShape::new(16, 8, 8, 4, 8, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        let wrong = seeded_tensor(sw_tensor::Shape4::new(1, 1, 1, 1), Layout::Nchw, 1);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 2);
        assert!(matches!(
            conv.forward(&wrong, &filter),
            Err(SwdnnError::ShapeMismatch { .. })
        ));
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

    #[test]
    fn backward_shape_swaps_channels() {
        let shape = ConvShape::new(128, 64, 128, 64, 64, 3, 3);
        let conv = Conv2d::new(shape).unwrap();
        let b = conv.backward_data_shape();
        assert_eq!((b.ni, b.no), (128, 64));
        assert_eq!((b.ro, b.co), (66, 66));
        assert_eq!(b.input_shape().d2, 68);
    }
}
