//! The schedule IR: blocking, loop order, layout, and mesh-mapping grain
//! as one composable value, plus the single interpreter that lowers a
//! legal [`Schedule`] onto the existing plan/`regcomm_gemm` machinery.
//!
//! The four hand-written plans are points in a space of decisions the
//! paper makes per shape: how to block (`b_B`, `b_Co`, `b_Ni`, `b_P`),
//! which loop order streams the data (pixel tiles vs. batch columns vs.
//! gathered patches), which physical layout feeds the DMA engine, and at
//! what grain operand tiles map onto the 8×8 mesh. A [`Schedule`] records
//! those decisions explicitly; [`lower_schedule`] turns any *legal*
//! combination into a ready-to-run [`ConvPlan`] by configuring the
//! existing plan structs — so a preset schedule lowers to *exactly* the
//! plan the hand-written path would build, bit-identical output and
//! identical simulated cycles included (see `tests/schedule_presets.rs`).
//!
//! Legality has two layers:
//!
//! 1. **Structural** (shape-independent): the loop order fixes the layout
//!    and mesh grain it is implemented against, and requires its own
//!    blocking fields to be non-zero. A schedule claiming, say, a
//!    batch-streamed loop over the image-aware layout describes a kernel
//!    nobody wrote; it is rejected before any lowering.
//! 2. **Per-shape**: the lowered plan's own `supports` check
//!    (divisibility, LDM budget). Both layers surface as
//!    [`SwdnnError::PlanRejected`] carrying the human-readable reason, so
//!    a search (or a serving fallback chain) can log *why* a point in the
//!    space is infeasible instead of silently degrading.

use super::patch_gemm::PatchGemmPlan;
use super::{BatchAwarePlan, ConvPlan, DirectPlan, ImageAwarePlan, ReferencePlan};
use crate::error::SwdnnError;
use sw_perfmodel::{Blocking, ChipSpec, PlanKind};
use sw_tensor::{ConvShape, Layout};

/// The loop order / mapping family a schedule streams data in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LoopOrder {
    /// Algorithm 1: tile `(b_B, b_Co)` output blocks, rotate filters.
    PixelTiled,
    /// Algorithm 2: stream input pixel columns across the whole batch.
    ColumnStreamed,
    /// The pathological per-element `gload` nest (Fig. 2 ablation).
    DirectNested,
    /// Host MPE reference loops (always legal, never fast).
    HostReference,
    /// Per-tap GEMM over gathered output-pixel patches — the general
    /// geometry (stride/dilation/padding) mapping.
    PatchGathered,
}

/// The grain at which operand tiles map onto the CPE mesh.
///
/// Today each [`LoopOrder`] is implemented against exactly one grain;
/// the axis exists in the IR so multi-grained mappings (MG3MConv-style)
/// can be added as new legal combinations rather than new plan monoliths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MeshGrain {
    /// Whole batch-quads per mesh pixel chunk (image-size-aware).
    BatchQuad,
    /// `B/8` batch slices per mesh column (batch-size-aware).
    BatchSlice,
    /// One element per `gload` (direct mapping).
    Element,
    /// No mesh at all: the host MPE runs the loops.
    Host,
    /// `b_P/8` gathered output pixels per mesh column (patch GEMM).
    PixelBlock,
}

/// One point in the schedule space. `Copy + Eq + Hash` so it can key
/// caches directly (`PlanCache` stores searched winners under
/// `(shape, schedule)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Schedule {
    /// The plan family this schedule lowers into (redundant with `order`
    /// for the presets, but kept explicit: a structural check rejects
    /// combinations where the two disagree).
    pub kind: PlanKind,
    pub order: LoopOrder,
    /// Physical operand layout the loop order is implemented against.
    pub layout: Layout,
    pub grain: MeshGrain,
    /// Batch block `b_B` (pixel-tiled; `0` = stream the whole batch).
    pub b_b: usize,
    /// Output-column block `b_Co`.
    pub b_co: usize,
    /// Optional input-channel block `b_Ni` (pixel-tiled §IV-A fallback).
    pub b_ni: Option<usize>,
    /// Gathered-pixel block `b_P` (patch-gathered only).
    pub b_p: usize,
    /// §VI software-pipelined inner kernel (vs. the naive one).
    pub reordered_kernel: bool,
    /// Double-buffer DMA against compute (§IV-A).
    pub double_buffer: bool,
}

impl Schedule {
    /// Algorithm 1 preset: lowers to [`ImageAwarePlan`] with `(b_b, b_co)`.
    pub const fn image_aware(b_b: usize, b_co: usize) -> Self {
        Self {
            kind: PlanKind::ImageSizeAware,
            order: LoopOrder::PixelTiled,
            layout: Layout::ImageAware,
            grain: MeshGrain::BatchQuad,
            b_b,
            b_co,
            b_ni: None,
            b_p: 0,
            reordered_kernel: true,
            double_buffer: true,
        }
    }

    /// [`Schedule::image_aware`] with the §IV-A input-channel blocking.
    pub const fn image_aware_ni(b_b: usize, b_co: usize, b_ni: usize) -> Self {
        let mut s = Self::image_aware(b_b, b_co);
        s.b_ni = Some(b_ni);
        s
    }

    /// Algorithm 2 preset: lowers to [`BatchAwarePlan`] with `b_co`.
    pub const fn batch_aware(b_co: usize) -> Self {
        Self {
            kind: PlanKind::BatchSizeAware,
            order: LoopOrder::ColumnStreamed,
            layout: Layout::BatchAware,
            grain: MeshGrain::BatchSlice,
            b_b: 0, // streams the whole batch
            b_co,
            b_ni: None,
            b_p: 0,
            reordered_kernel: true,
            double_buffer: true,
        }
    }

    /// Direct-`gload` preset: lowers to [`DirectPlan`].
    pub const fn direct() -> Self {
        Self {
            kind: PlanKind::DirectGload,
            order: LoopOrder::DirectNested,
            layout: Layout::Nchw,
            grain: MeshGrain::Element,
            b_b: 0,
            b_co: 0,
            b_ni: None,
            b_p: 0,
            reordered_kernel: false,
            double_buffer: false,
        }
    }

    /// Host-reference preset: lowers to [`ReferencePlan`] (which reports
    /// itself as `ImageSizeAware`, so the preset does too).
    pub const fn reference() -> Self {
        Self {
            kind: PlanKind::ImageSizeAware,
            order: LoopOrder::HostReference,
            layout: Layout::Nchw,
            grain: MeshGrain::Host,
            b_b: 0,
            b_co: 0,
            b_ni: None,
            b_p: 0,
            reordered_kernel: false,
            double_buffer: false,
        }
    }

    /// Patch-GEMM preset: lowers to [`PatchGemmPlan`] with pixel block
    /// `b_p`. The only family whose lowering accepts stride/dilation.
    pub const fn patch_gemm(b_p: usize) -> Self {
        Self {
            kind: PlanKind::PatchGemm,
            order: LoopOrder::PatchGathered,
            layout: Layout::Nchw,
            grain: MeshGrain::PixelBlock,
            b_b: 0,
            b_co: 0,
            b_ni: None,
            b_p,
            reordered_kernel: true,
            double_buffer: false,
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

    /// The structural layer of legality: does this combination of
    /// decisions describe a kernel that exists? Returns the reason when
    /// it does not (shape-independent — no `ConvShape` needed).
    pub fn structural_error(&self) -> Option<String> {
        let expect = |kind: PlanKind, layout: Layout, grain: MeshGrain| -> Option<String> {
            if self.kind != kind {
                return Some(format!(
                    "loop order {:?} lowers to {kind:?}, not {:?}",
                    self.order, self.kind
                ));
            }
            if self.layout != layout {
                return Some(format!(
                    "loop order {:?} is implemented against layout {layout:?}, not {:?}",
                    self.order, self.layout
                ));
            }
            if self.grain != grain {
                return Some(format!(
                    "loop order {:?} maps at grain {grain:?}, not {:?}",
                    self.order, self.grain
                ));
            }
            None
        };
        match self.order {
            LoopOrder::PixelTiled => expect(
                PlanKind::ImageSizeAware,
                Layout::ImageAware,
                MeshGrain::BatchQuad,
            )
            .or_else(|| {
                (self.b_b == 0 || self.b_co == 0)
                    .then(|| "pixel-tiled order needs b_b > 0 and b_co > 0".into())
            }),
            LoopOrder::ColumnStreamed => expect(
                PlanKind::BatchSizeAware,
                Layout::BatchAware,
                MeshGrain::BatchSlice,
            )
            .or_else(|| (self.b_co == 0).then(|| "column-streamed order needs b_co > 0".into())),
            LoopOrder::DirectNested => {
                expect(PlanKind::DirectGload, Layout::Nchw, MeshGrain::Element)
            }
            // ReferencePlan reports ImageSizeAware; the preset mirrors it.
            LoopOrder::HostReference => {
                expect(PlanKind::ImageSizeAware, Layout::Nchw, MeshGrain::Host)
            }
            LoopOrder::PatchGathered => {
                expect(PlanKind::PatchGemm, Layout::Nchw, MeshGrain::PixelBlock)
                    .or_else(|| (self.b_p == 0).then(|| "patch order needs b_p > 0".into()))
            }
        }
    }

    /// Full legality for `shape`: structural check, then the lowered
    /// plan's own `supports`. Errors arrive as
    /// [`SwdnnError::PlanRejected`] with the concrete reason.
    pub fn check(&self, shape: &ConvShape, ctx: &LowerCtx) -> Result<(), SwdnnError> {
        lower_schedule(self, shape, ctx).map(|_| ())
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

    /// A fresh mesh for one walk: this context's chip and runtime, its
    /// faults injected.
    pub(crate) fn mesh<S: Send>(&self, init: impl FnMut(usize, usize) -> S) -> sw_sim::Mesh<S> {
        let mut mesh = sw_sim::Mesh::new_on(self.rt, self.chip, init);
        if let Some(fp) = self.fault {
            mesh.inject_faults(fp);
        }
        mesh
    }
}

/// The interpreter: lower a legal `Schedule` for `shape` into a
/// ready-to-run plan on the existing mesh machinery.
///
/// Presets lower to exactly the plan struct the hand-written path
/// constructs, so outputs and simulated cycles are identical by
/// construction. An illegal schedule (structurally, or rejected by the
/// plan's `supports`) returns [`SwdnnError::PlanRejected`] naming the
/// reason.
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
    let plan: Box<dyn ConvPlan> = match s.order {
        LoopOrder::PixelTiled => {
            let mut p = ImageAwarePlan::new(Blocking {
                b_b: s.b_b,
                b_co: s.b_co,
            })
            .on(*ctx);
            p.b_ni = s.b_ni;
            p.reordered_kernel = s.reordered_kernel;
            p.double_buffer = s.double_buffer;
            Box::new(p)
        }
        LoopOrder::ColumnStreamed => {
            let mut p = BatchAwarePlan::new(s.b_co).on(*ctx);
            p.reordered_kernel = s.reordered_kernel;
            Box::new(p)
        }
        LoopOrder::DirectNested => Box::new(DirectPlan {
            chip: ctx.chip,
            rt: ctx.rt,
        }),
        LoopOrder::HostReference => Box::new(ReferencePlan { chip: ctx.chip }),
        LoopOrder::PatchGathered => Box::new(
            PatchGemmPlan::new(s.b_p)
                .on(*ctx)
                .with_reordered(s.reordered_kernel),
        ),
    };
    // Per-shape legality: the plan's own divisibility/LDM checks, mapped
    // into the structured rejection so callers see one error class.
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
            assert_eq!(plan.kind(), sched.kind);
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
        let ctx = LowerCtx::default();
        let s = shape();
        // A batch-streamed loop cannot run over the image-aware layout.
        let mut bad = Schedule::batch_aware(4);
        bad.layout = Layout::ImageAware;
        match lower_schedule(&bad, &s, &ctx).map(|_| ()) {
            Err(SwdnnError::PlanRejected { reason, .. }) => {
                assert!(reason.contains("layout"), "{reason}")
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }
        // Kind disagreeing with the loop order is a lie about the lowering.
        let mut bad = Schedule::image_aware(32, 4);
        bad.kind = PlanKind::BatchSizeAware;
        assert!(matches!(
            lower_schedule(&bad, &s, &ctx).map(|_| ()),
            Err(SwdnnError::PlanRejected { .. })
        ));
        // Zero blocking never describes a kernel.
        let bad = Schedule::image_aware(0, 4);
        assert!(matches!(
            lower_schedule(&bad, &s, &ctx).map(|_| ()),
            Err(SwdnnError::PlanRejected { .. })
        ));
    }

    #[test]
    fn per_shape_illegality_surfaces_as_plan_rejected_with_reason() {
        let ctx = LowerCtx::default();
        // Ni = 7 is not a multiple of the mesh dim.
        let s = ConvShape::new(32, 7, 16, 4, 8, 3, 3);
        match Schedule::image_aware(32, 4).check(&s, &ctx) {
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
    }
}
