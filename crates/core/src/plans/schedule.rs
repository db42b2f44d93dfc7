//! The schedule IR: every decision a conv plan makes, as one composable
//! value, and the one place such a value becomes a plan.
//!
//! The forward plans are points in a space of decisions the paper makes
//! per shape: which loop order streams the data (pixel tiles vs. batch
//! columns vs. gathered patches, each stated to the one loop nest,
//! `plans::nest`; or the direct and host-reference loops) and how to block
//! it (`b_B`, `b_Co`, `b_Ni`, `b_P`). A [`Schedule`] states each decision
//! once — the loop order fixes the plan family, the operand layout and the
//! mesh grain it is written against, so those are not separate fields. The
//! §VI kernel and §IV-A double buffering are each plan's default, not
//! schedule fields: only the ablations turn them off, on the plan.
//! [`Schedule::build`] is the only constructor of a plan struct from a
//! description: `Conv2d`, the resilient fallback chain, the plan cache and
//! the autotuner all resolve a `Schedule` first and build it here.
//!
//! [`lower_schedule`] is `build` behind the legality check a caller-supplied
//! schedule needs. Both layers surface as [`SwdnnError::PlanRejected`]
//! carrying the human-readable reason, so a search (or a serving fallback
//! chain) can log *why* a point in the space is infeasible instead of
//! silently degrading:
//!
//! 1. **Structural** (shape-independent): the loop order's own blocking
//!    fields must be non-zero.
//! 2. **Per-shape**: the built plan's `supports` check (divisibility, LDM
//!    budget).

use super::patch_gemm::PatchGemmPlan;
use super::{BatchAwarePlan, ConvPlan, DirectPlan, ImageAwarePlan, ReferencePlan};
use crate::error::SwdnnError;
use sw_perfmodel::{Blocking, ChipSpec, PlanKind};
use sw_tensor::ConvShape;

/// The loop order / mapping family a schedule streams data in. Each order
/// is implemented against exactly one operand layout and mesh grain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LoopOrder {
    /// Algorithm 1: tile `(b_B, b_Co)` output blocks, rotate filters;
    /// image-aware layout, whole batch-quads per mesh pixel chunk.
    PixelTiled,
    /// Algorithm 2: stream input pixel columns across the whole batch;
    /// batch-aware layout, `B/8` batch slices per mesh column.
    ColumnStreamed,
    /// The pathological per-element `gload` nest (Fig. 2 ablation).
    DirectNested,
    /// Host MPE reference loops (always legal, never fast).
    HostReference,
    /// Per-tap GEMM over gathered output-pixel patches — the general
    /// geometry (stride/dilation/padding) mapping; `b_P/8` pixels per mesh
    /// column.
    PatchGathered,
}

/// One point in the schedule space. `Copy + Eq + Hash` so it can key
/// caches directly (`PlanCache` stores searched winners under
/// `(shape, schedule)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Schedule {
    pub order: LoopOrder,
    /// Batch block `b_B` (pixel-tiled; `0` = stream the whole batch).
    pub b_b: usize,
    /// Output-column block `b_Co`.
    pub b_co: usize,
    /// Optional input-channel block `b_Ni` (pixel-tiled §IV-A fallback).
    pub b_ni: Option<usize>,
    /// Gathered-pixel block `b_P` (patch-gathered only).
    pub b_p: usize,
}

impl Schedule {
    /// `order` with no blocking.
    const fn of(order: LoopOrder) -> Self {
        Self {
            order,
            b_b: 0,
            b_co: 0,
            b_ni: None,
            b_p: 0,
        }
    }

    /// Algorithm 1 preset: builds [`ImageAwarePlan`] with `(b_b, b_co)`.
    pub const fn image_aware(b_b: usize, b_co: usize) -> Self {
        Self {
            b_b,
            b_co,
            ..Self::of(LoopOrder::PixelTiled)
        }
    }

    /// [`Schedule::image_aware`] with the §IV-A input-channel blocking.
    pub const fn image_aware_ni(b_b: usize, b_co: usize, b_ni: usize) -> Self {
        Self {
            b_ni: Some(b_ni),
            ..Self::image_aware(b_b, b_co)
        }
    }

    /// Algorithm 2 preset: builds [`BatchAwarePlan`] with `b_co` (streams
    /// the whole batch, so `b_b` stays 0).
    pub const fn batch_aware(b_co: usize) -> Self {
        Self {
            b_co,
            ..Self::of(LoopOrder::ColumnStreamed)
        }
    }

    /// Direct-`gload` preset: builds [`DirectPlan`].
    pub const fn direct() -> Self {
        Self::of(LoopOrder::DirectNested)
    }

    /// Host-reference preset: builds `ReferencePlan`.
    pub const fn reference() -> Self {
        Self::of(LoopOrder::HostReference)
    }

    /// Patch-GEMM preset: builds [`PatchGemmPlan`] with pixel block `b_p`.
    /// The only family whose plan accepts stride/dilation.
    pub const fn patch_gemm(b_p: usize) -> Self {
        Self {
            b_p,
            ..Self::of(LoopOrder::PatchGathered)
        }
    }

    /// The plan family this schedule builds. The host reference reports
    /// itself as `ImageSizeAware` (the model's generic blocked estimate),
    /// as `ReferencePlan::kind` does.
    pub const fn kind(&self) -> PlanKind {
        match self.order {
            LoopOrder::PixelTiled | LoopOrder::HostReference => PlanKind::ImageSizeAware,
            LoopOrder::ColumnStreamed => PlanKind::BatchSizeAware,
            LoopOrder::DirectNested => PlanKind::DirectGload,
            LoopOrder::PatchGathered => PlanKind::PatchGemm,
        }
    }

    /// Short human-readable identity for logs and tune reports.
    pub fn describe(&self) -> String {
        match self.order {
            LoopOrder::PixelTiled => match self.b_ni {
                Some(b_ni) => format!(
                    "image_size_aware b_b={} b_co={} b_ni={b_ni}",
                    self.b_b, self.b_co
                ),
                None => format!("image_size_aware b_b={} b_co={}", self.b_b, self.b_co),
            },
            LoopOrder::ColumnStreamed => format!("batch_size_aware b_co={}", self.b_co),
            LoopOrder::DirectNested => "direct_gload".into(),
            LoopOrder::HostReference => "reference".into(),
            LoopOrder::PatchGathered => format!("patch_gemm b_p={}", self.b_p),
        }
    }

    /// The structural layer of legality: a loop order with a zero block of
    /// its own describes no kernel. Shape-independent.
    fn structural_error(&self) -> Option<String> {
        let zero = match self.order {
            LoopOrder::PixelTiled => (self.b_b == 0 || self.b_co == 0)
                .then_some("pixel-tiled order needs b_b > 0 and b_co > 0"),
            LoopOrder::ColumnStreamed => {
                (self.b_co == 0).then_some("column-streamed order needs b_co > 0")
            }
            LoopOrder::PatchGathered => (self.b_p == 0).then_some("patch order needs b_p > 0"),
            LoopOrder::DirectNested | LoopOrder::HostReference => None,
        };
        zero.map(String::from)
    }

    /// The plan this schedule describes, running in `ctx`, with the plan's
    /// §VI kernel and §IV-A double buffering. Checks nothing: the plan's own
    /// `supports` says whether it can run a shape ([`lower_schedule`] asks
    /// it).
    pub fn build(&self, ctx: &LowerCtx) -> Box<dyn ConvPlan> {
        let ctx = *ctx;
        match self.order {
            LoopOrder::PixelTiled => Box::new(ImageAwarePlan {
                b_ni: self.b_ni,
                ..ImageAwarePlan::new(Blocking {
                    b_b: self.b_b,
                    b_co: self.b_co,
                })
                .on(ctx)
            }),
            LoopOrder::ColumnStreamed => Box::new(BatchAwarePlan::new(self.b_co).on(ctx)),
            LoopOrder::DirectNested => Box::new(DirectPlan { ctx }),
            LoopOrder::HostReference => Box::new(ReferencePlan { chip: ctx.chip }),
            LoopOrder::PatchGathered => Box::new(PatchGemmPlan::new(self.b_p).on(ctx)),
        }
    }
}

/// Where a simulated mesh runs — the one run context every mesh plan,
/// [`crate::Conv2d`] and [`crate::ResilientExecutor`] hold: which chip
/// description to target, which faults to inject, and which execution
/// context the mesh's supersteps run on.
#[derive(Clone, Copy, Debug)]
pub struct LowerCtx {
    pub chip: ChipSpec,
    pub fault: Option<sw_sim::FaultPlan>,
    pub rt: &'static sw_runtime::ExecutionContext,
}

impl Default for LowerCtx {
    fn default() -> Self {
        Self {
            chip: ChipSpec::sw26010(),
            fault: None,
            rt: sw_runtime::global(),
        }
    }
}

impl LowerCtx {
    /// The stock context on an explicit (e.g. degraded 4×4) chip.
    pub fn on_chip(chip: ChipSpec) -> Self {
        Self {
            chip,
            ..Self::default()
        }
    }

    /// Inject faults into every mesh built from this context.
    pub fn with_fault(mut self, fault: Option<sw_sim::FaultPlan>) -> Self {
        self.fault = fault;
        self
    }

    /// Run every mesh built from this context on an explicit
    /// [`sw_runtime::ExecutionContext`] instead of the process-wide pool.
    pub fn on_runtime(mut self, rt: &'static sw_runtime::ExecutionContext) -> Self {
        self.rt = rt;
        self
    }

    /// Every mesh plan's LDM check: `need` doubles per CPE fit this chip.
    pub(crate) fn fit_ldm(&self, need: usize) -> Result<(), String> {
        let have = self.chip.ldm_doubles();
        if need > have {
            return Err(format!("needs {need} LDM doubles > {have}"));
        }
        Ok(())
    }

    /// A fresh mesh for one walk, every CPE's state at its default: this
    /// context's chip and runtime, its faults injected.
    pub(crate) fn mesh<S: Default + Send>(&self) -> sw_sim::Mesh<S> {
        let mut mesh = sw_sim::Mesh::new_on(self.rt, self.chip, |_, _| S::default());
        if let Some(fp) = self.fault {
            mesh.inject_faults(fp);
        }
        mesh
    }
}

/// [`Schedule::build`] for a schedule that came from a caller: the
/// structural check, the build, then the plan's own `supports` for
/// `shape`. An illegal schedule returns [`SwdnnError::PlanRejected`]
/// naming the reason.
pub fn lower_schedule(
    s: &Schedule,
    shape: &ConvShape,
    ctx: &LowerCtx,
) -> Result<Box<dyn ConvPlan>, SwdnnError> {
    let reject = |reason: String| SwdnnError::PlanRejected {
        shape: *shape,
        reason,
    };
    if let Some(reason) = s.structural_error() {
        return Err(reject(reason));
    }
    let plan = s.build(ctx);
    plan.supports(shape).map_err(|e| match e {
        SwdnnError::Unsupported { reason, .. } => reject(reason),
        other => other,
    })?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(32, 16, 16, 4, 8, 3, 3)
    }

    #[test]
    fn presets_lower_to_their_named_plans() {
        let ctx = LowerCtx::default();
        let s = shape();
        let cases = [
            (Schedule::image_aware(32, 4), "image_size_aware"),
            (Schedule::batch_aware(4), "batch_size_aware"),
            (Schedule::direct(), "direct_gload"),
            (Schedule::reference(), "reference"),
            (Schedule::patch_gemm(32), "patch_gemm"),
        ];
        for (sched, name) in cases {
            let plan = lower_schedule(&sched, &s, &ctx).unwrap();
            assert_eq!(plan.name(), name);
            assert_eq!(plan.kind(), sched.kind());
        }
    }

    #[test]
    fn lowered_blocking_matches_the_schedule() {
        let ctx = LowerCtx::default();
        let s = shape();
        let plan = lower_schedule(&Schedule::image_aware(32, 4), &s, &ctx).unwrap();
        assert_eq!(plan.blocking(&s), Blocking { b_b: 32, b_co: 4 });
        let plan = lower_schedule(&Schedule::batch_aware(2), &s, &ctx).unwrap();
        assert_eq!(
            plan.blocking(&s),
            Blocking {
                b_b: s.batch,
                b_co: 2
            }
        );
    }

    #[test]
    fn structurally_inconsistent_schedules_are_rejected() {
        // Zero blocking never describes a kernel; the plan, layout and grain
        // follow from the loop order and cannot disagree with it.
        let ctx = LowerCtx::default();
        let s = shape();
        for bad in [
            Schedule::image_aware(0, 4),
            Schedule::image_aware(32, 0),
            Schedule::batch_aware(0),
            Schedule::patch_gemm(0),
        ] {
            match lower_schedule(&bad, &s, &ctx).map(|_| ()) {
                Err(SwdnnError::PlanRejected { reason, .. }) => {
                    assert!(reason.contains("> 0"), "{reason}")
                }
                other => panic!("{}: expected PlanRejected, got {other:?}", bad.describe()),
            }
        }
    }

    #[test]
    fn per_shape_illegality_surfaces_as_plan_rejected_with_reason() {
        let ctx = LowerCtx::default();
        // Ni = 7 is not a multiple of the mesh dim.
        let s = ConvShape::new(32, 7, 16, 4, 8, 3, 3);
        match lower_schedule(&Schedule::image_aware(32, 4), &s, &ctx).map(|_| ()) {
            Err(SwdnnError::PlanRejected { shape, reason }) => {
                assert_eq!(shape, s);
                assert!(reason.contains("multiple"), "{reason}");
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }
    }

    #[test]
    fn schedules_are_hashable_cache_keys() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Schedule::image_aware(32, 4));
        set.insert(Schedule::image_aware(32, 8));
        set.insert(Schedule::batch_aware(4));
        assert_eq!(set.len(), 3);
        assert!(set.contains(&Schedule::image_aware(32, 4)));
        // Preset-built schedules are equal exactly when they describe the
        // same plan, so schedule-keyed maps collide exactly where the plans do.
        let presets = [
            Schedule::image_aware(32, 4),
            Schedule::image_aware(64, 4),
            Schedule::image_aware_ni(32, 4, 8),
            Schedule::batch_aware(4),
            Schedule::batch_aware(8),
            Schedule::direct(),
            Schedule::reference(),
            Schedule::patch_gemm(32),
        ];
        for a in presets {
            for b in presets {
                assert_eq!(a == b, a.describe() == b.describe(), "{a:?} vs {b:?}");
            }
        }
    }
}
