//! Host fallback plan.
//!
//! Shapes the mesh plans cannot map (channel counts not divisible by 8,
//! tiny batches, degenerate images) still deserve a correct answer: this
//! plan computes the convolution with the naive reference loops on the
//! host and *models* its SW26010 timing with the analytic performance
//! model (there is nothing interesting to simulate — a real swDNN would
//! run such shapes on the MPE).

use super::{check_operands, reject_degenerate, ConvPlan, ConvRun, PlanTiming};
use crate::error::SwdnnError;
use crate::plans::PlanKind;
use sw_perfmodel::{Blocking, ChipSpec, ConvPerfModel};
use sw_sim::{CgStats, CpeStats};
use sw_tensor::{conv2d_ref, ConvShape, Tensor4};

/// Always-correct host execution with modeled timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferencePlan {
    pub chip: ChipSpec,
}

impl ConvPlan for ReferencePlan {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn kind(&self) -> PlanKind {
        // Reported under the image-size-aware family: the model's estimate
        // for a generic blocked execution.
        PlanKind::ImageSizeAware
    }

    fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError> {
        reject_degenerate("reference", shape)
    }

    fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        self.supports(shape)?;
        check_operands([(input, shape.input_shape()), (filter, shape.filter_shape())])?;
        let output = conv2d_ref(*shape, input, filter);
        Ok(ConvRun {
            output,
            timing: self.modeled_timing(shape),
        })
    }

    fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        Ok(self.modeled_timing(shape))
    }
}

impl ReferencePlan {
    fn modeled_timing(&self, shape: &ConvShape) -> PlanTiming {
        let est = ConvPerfModel::default().estimate(
            PlanKind::ImageSizeAware,
            Blocking::default(),
            shape.batch.max(1),
            shape.ni.max(8),
            shape.no.max(8),
            shape.kc,
        );
        let secs = shape.flops() as f64 / (est.gflops_per_cg.max(1e-9) * 1e9);
        let cycles = (secs * self.chip.clock_ghz * 1e9).ceil() as u64;
        let totals = CpeStats {
            flops: shape.flops(),
            ..Default::default()
        };
        CgStats {
            cycles,
            totals,
            ..Default::default()
        }
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::seeded_tensor;
    use sw_tensor::Layout;

    #[test]
    fn runs_any_valid_shape() {
        // Deliberately awkward: Ni=5, No=3, batch=1.
        let shape = ConvShape::new(1, 5, 3, 2, 2, 2, 2);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 41);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 42);
        let run = ReferencePlan::default()
            .run(&shape, &input, &filter)
            .unwrap();
        assert!(run.timing.cycles > 0);
        let expect = sw_tensor::conv2d_ref(shape, &input, &filter);
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(ReferencePlan::default()
            .supports(&ConvShape::new(0, 1, 1, 1, 1, 1, 1))
            .is_err());
    }
}
