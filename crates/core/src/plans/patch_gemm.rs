//! The patch-GEMM plan: general-geometry convolution (stride, dilation,
//! padding, ragged pixel counts) on the register-communication mesh.
//!
//! The dense plans buy their bandwidth by exploiting dense structure —
//! whole image rows (Algorithm 1) or whole batch columns (Algorithm 2)
//! stream as one contiguous DMA block, which is exactly what stride-2 or
//! dilated shapes destroy. Instead of rejecting those shapes to the host,
//! this plan flattens the output space to `P = B·Ro·Co` pixels, gathers a
//! `Ni × b_P` input patch per filter tap on the MPE (the gather absorbs
//! all geometry: stride, dilation, padding, image edges), and runs one
//! register-communication GEMM per tap:
//!
//! ```text
//! C[No × b_P] += W_tap[No × Ni] · X_tap[Ni × b_P]      for each (kr, kc)
//! ```
//!
//! Mesh distribution (no duplicated data, §V-A): `X_tap` with
//! `ni ∈ chunk_i`, `p ∈ chunk_j`; `W_tap` with `no ∈ chunk_i`,
//! `ni ∈ chunk_j`; `C` with `no ∈ chunk_i`, `p ∈ chunk_j`. The last pixel
//! block is zero-padded in the gather and its puts are clipped to `P`, so
//! *any* pixel count is legal — only `Ni`/`No` keep the mesh-dim
//! divisibility constraint.
//!
//! The filter tap is reused `b_P` times and each gathered input element
//! `No` times, so the required MEM→LDM bandwidth follows Eq. 1 with
//! `b_Co·b_B → b_P` (priced by `ConvPerfModel` under
//! `PlanKind::PatchGemm`). LDM holds one tap matrix, one patch and the
//! output block — no double buffering, which keeps the footprint at
//! `(Ni·No + Ni·b_P + No·b_P)/cpes` doubles per CPE.

use super::gemm_mesh::GemmBlock;
use super::nest::{Dma, Fetch, Get, Nest, Operand, Operands, Rotate, Step, Walks};
use super::{check_operands, reject_degenerate, tap_major_filter, ConvPlan, ConvRun};
use super::{LdmBuffers, LowerCtx, PlanTiming};
use crate::error::SwdnnError;
use crate::plans::PlanKind;
use sw_perfmodel::Blocking;
use sw_sim::{CpeCtx, LdmBuf};
use sw_tensor::{ConvGeometry, ConvShape, Layout, Shape4, Tensor4};

/// Per-tap GEMM over gathered output-pixel patches. `b_p` is the number
/// of flattened output pixels held in LDM at once (a multiple of the mesh
/// dimension).
#[derive(Clone, Copy, Debug)]
pub struct PatchGemmPlan {
    /// Where the simulated mesh runs: chip, injected faults, host runtime.
    pub ctx: LowerCtx,
    /// Gathered-pixel block `b_P`.
    pub b_p: usize,
}

impl PatchGemmPlan {
    pub fn new(b_p: usize) -> Self {
        Self {
            ctx: LowerCtx::default(),
            b_p,
        }
    }

    /// Largest pixel block (≤ 32·mesh_dim) whose patch + tap + output
    /// tiles fit the LDM budget for these channel counts.
    pub fn auto(ctx: LowerCtx, shape: &ConvShape) -> Self {
        Self::auto_for(ctx, shape.ni, shape.no)
    }

    /// [`PatchGemmPlan::auto`] from raw channel counts (general entry).
    pub fn auto_for(ctx: LowerCtx, ni: usize, no: usize) -> Self {
        let dim = ctx.chip.mesh_dim;
        // The buffers depend on the channel counts alone: any extent with
        // them will do.
        let extent = (ConvGeometry::valid(1, 1), Shape4::new(1, ni, 1, 1), no);
        let mut plan = Self::new(32 * dim).on(ctx);
        while plan.b_p > dim && ctx.fit_ldm(plan.ldm_doubles(&extent)).is_err() {
            plan.b_p /= 2;
        }
        plan
    }

    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Legality against raw geometry (shapes a dense [`ConvShape`] cannot
    /// express). Rejections carry a nominal shape built from the output
    /// extents (0 where there are none), purely for error reporting.
    pub fn supports_general(
        &self,
        geom: &ConvGeometry,
        input: Shape4,
        no: usize,
    ) -> Result<(), SwdnnError> {
        let (batch, ni) = (input.d0, input.d1);
        let g = geom;
        let unfit = |reason| {
            let shape = ConvShape::new(batch, ni, no, 0, 0, g.kr, g.kc);
            Err(SwdnnError::PlanRejected { shape, reason })
        };
        let extents = [
            batch, ni, no, g.kr, g.kc, g.stride_r, g.stride_c, g.dil_r, g.dil_c,
        ];
        if extents.contains(&0) {
            return unfit("degenerate shape".into());
        }
        let Some((ro, co)) = geom.output_extent(input.d2, input.d3) else {
            return unfit(format!(
                "effective filter {}x{} exceeds the padded {}x{} input",
                geom.kr_eff(),
                geom.kc_eff(),
                input.d2,
                input.d3
            ));
        };
        let nominal = ConvShape::new(batch, ni, no, ro, co, geom.kr, geom.kc);
        let fail = |reason: String| {
            Err(SwdnnError::PlanRejected {
                shape: nominal,
                reason,
            })
        };
        let dim = self.ctx.chip.mesh_dim;
        if !ni.is_multiple_of(dim) || !no.is_multiple_of(dim) {
            return fail(format!("Ni and No must be multiples of {dim}"));
        }
        if self.b_p == 0 || !self.b_p.is_multiple_of(dim) {
            return fail(format!(
                "b_p {} must be a positive multiple of {dim}",
                self.b_p
            ));
        }
        let extent = (*geom, input, no);
        self.ctx.fit_ldm(self.ldm_doubles(&extent)).or_else(fail)
    }

    /// Run the convolution under an arbitrary [`ConvGeometry`] — the
    /// entry point for shapes [`ConvShape`] cannot express. The filter must
    /// be `(No, input Ni, Kr, Kc)`. Output is a fresh NCHW tensor of the
    /// geometry's output extent.
    pub fn run_general(
        &self,
        geom: &ConvGeometry,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        let (ishape, no) = (input.shape(), filter.shape().d0);
        check_operands([(filter, Shape4::new(no, ishape.d1, geom.kr, geom.kc))])?;
        self.supports_general(geom, ishape, no)?;
        let (ro, co) = geom
            .output_extent(ishape.d2, ishape.d3)
            .expect("checked by supports");
        let input = input.to_layout(Layout::Nchw);
        let w_flat = tap_major_filter(filter);
        let mut output = Tensor4::zeros(Shape4::new(ishape.d0, no, ro, co), Layout::Nchw);
        let data = Operands {
            b: input.data(),
            a: &w_flat,
            out: output.data_mut(),
        };
        let timing = self.walk(&(*geom, ishape, no), self.ctx.mesh(), Some(data))?;
        Ok(ConvRun { output, timing })
    }

    /// Exact timing for an arbitrary geometry with no arithmetic: the loop
    /// nest [`Self::run_general`] walks, over every pixel block, on a
    /// cost-only mesh. Dense shapes sample it ([`ConvPlan::time_full_shape`]).
    pub fn time_general(
        &self,
        geom: &ConvGeometry,
        input_shape: Shape4,
        no: usize,
    ) -> Result<PlanTiming, SwdnnError> {
        self.supports_general(geom, input_shape, no)?;
        self.time_cost_only(&(*geom, input_shape, no))
    }
}

/// Patch-GEMM's walk over one geometry.
#[derive(Clone, Copy)]
pub(crate) struct Dims {
    geom: ConvGeometry,
    x: Shape4,
    no: usize,
    /// `Ni`, `No` and `b_P` per mesh row or column.
    per_cpe: [usize; 3],
    /// Output columns, output pixels per image, and in all.
    co: usize,
    img: usize,
    pixels: usize,
}

/// Input and output NCHW, the filters repacked tap-major
/// (`w[(tap·Ni + ni)·No + no]`, one strided get per tap per CPE).
impl Nest for PatchGemmPlan {
    /// A general-geometry convolution: geometry, NCHW input shape, No.
    type Extent = (ConvGeometry, Shape4, usize);
    type Dims = Dims;
    /// The block's first flattened output pixel.
    type Tile = usize;

    fn ctx(&self) -> &LowerCtx {
        &self.ctx
    }

    /// NCHW input, filters tap-major, NCHW output.
    fn operand_lens(&self, &(geom, ishape, no): &Self::Extent) -> [usize; 3] {
        let (ro, co) = geom
            .output_extent(ishape.d2, ishape.d3)
            .expect("checked by supports");
        let (taps, pixels) = (geom.kr * geom.kc, ishape.d0 * ro * co);
        [ishape.len(), taps * ishape.d1 * no, pixels * no]
    }

    /// A: one filter tap matrix; B: one gathered patch; C: the output block.
    /// None double-buffered.
    fn ldm_buffers(&self, &(_, ishape, no): &Self::Extent) -> LdmBuffers {
        let dim = self.ctx.chip.mesh_dim;
        let (ni8, no8, p8) = (ishape.d1 / dim, no / dim, self.b_p / dim);
        [(ni8 * no8, 1), (ni8 * p8, 1), (no8 * p8, 1), (0, 0)]
    }

    /// One and two output rows of every image, counted in pixel blocks; the
    /// whole shape at four blocks or fewer, or when two rows fill no more.
    fn timing_walks(&self, shape: &ConvShape) -> Walks<Self::Extent> {
        let geom = ConvGeometry::valid(shape.kr, shape.kc);
        let rows = |ro: usize| {
            let s = ConvShape { ro, ..*shape };
            let blocks = (s.batch * ro * s.co).div_ceil(self.b_p) as u64;
            ((geom, s.input_shape(), s.no), blocks)
        };
        let (one, two, whole) = (rows(1), rows(2), rows(shape.ro));
        if whole.1 <= 4 || two.1 <= one.1 {
            Walks::Whole(whole.0)
        } else {
            Walks::Sampled([one, two], whole.1)
        }
    }

    fn dims(&self, &(geom, x, no): &Self::Extent) -> Dims {
        let (ro, co) = geom.output_extent(x.d2, x.d3).expect("checked by supports");
        let per_cpe = [x.d1, no, self.b_p].map(|n| n / self.ctx.chip.mesh_dim);
        let (img, pixels) = (ro * co, x.d0 * ro * co);
        Dims {
            geom,
            x,
            no,
            per_cpe,
            co,
            img,
            pixels,
        }
    }

    fn block(&self, d: &Dims) -> GemmBlock {
        let [ni8, no8, p8] = d.per_cpe;
        GemmBlock::dense(no8, p8, ni8, true)
    }

    fn tiles(&self, d: &Dims) -> impl Iterator<Item = usize> {
        (0..d.pixels).step_by(self.b_p)
    }

    /// Per tap, its gathered patch (B) and its filter matrix (A), neither
    /// double-buffered, then the rotation.
    fn steps(&self, d: &Dims, _: usize) -> impl Iterator<Item = Step> {
        (0..d.geom.kr * d.geom.kc).map(|tap| Step {
            fetch: [Operand::B, Operand::A].map(|op| Some((op, Fetch::Need(tap, 0, 1)))),
            rotate: Some(Rotate::default()),
        })
    }

    #[inline]
    fn fetch(&self, ctx: &mut CpeCtx<'_>, d: &Dims, get: Get<usize>) -> Dma {
        let ([ni8, no8, p8], b_p) = (d.per_cpe, self.b_p);
        let (tap, dst, src) = (get.run, get.dst, get.src);
        match get.op {
            // Collective row-mode DMA: a mesh row jointly fetches the
            // b_p-pixel run of each channel.
            Operand::B => {
                ctx.dma_block_hint(8 * b_p);
                let at = ctx.row * ni8 * b_p + ctx.col * p8;
                ctx.dma_get_strided(dst, 0, src, at, ni8, b_p, p8)
            }
            Operand::A => {
                let at = (tap * d.x.d1 + ctx.col * ni8) * d.no + ctx.row * no8;
                ctx.dma_get_strided(dst, 0, src, at, ni8, d.no, no8)
            }
        }
        .map(Some)
    }

    /// Pixels are contiguous in NCHW per (batch, channel) run, so each C row
    /// is put as maximal same-batch runs, clipped at the pixel count (the
    /// tail block's padding is dropped).
    fn put(&self, ctx: &mut CpeCtx<'_>, d: &Dims, c: LdmBuf, p0: usize) -> Dma {
        let ([_, no8, p8], img) = (d.per_cpe, d.img);
        let p_start = p0 + ctx.col * p8;
        let p_end = (p_start + p8).min(d.pixels);
        let mut last = None;
        for m in 0..no8 {
            let n_o = ctx.row * no8 + m;
            let mut p = p_start;
            while p < p_end {
                let b = p / img;
                let run_end = p_end.min((b + 1) * img);
                let dst = (b * d.no + n_o) * img + (p - b * img);
                ctx.dma_block_hint(8 * self.b_p);
                last = Some(ctx.dma_put(c, m * p8 + (p - p_start), dst, run_end - p)?);
                p = run_end;
            }
        }
        Ok(last)
    }

    fn staged_len(&self, d: &Dims) -> usize {
        d.x.d1 * self.b_p
    }

    /// The tap's `Ni × b_P` patch, `staged[ni·b_P + p]`, with out-of-image
    /// taps (padding, edges, the zero-padded tail block) resolved to 0: the
    /// mesh sees a dense matrix.
    fn gather(&self, d: &Dims, p0: usize, step: &Step, input: &[f64], staged: &mut [f64]) {
        let (g, img, co, x) = (d.geom, d.img, d.co, d.x);
        let Some((_, Fetch::Need(tap, ..))) = step.fetch[0] else {
            return;
        };
        let (tkr, tkc) = (tap / g.kc, tap % g.kc);
        for (pl, row) in staged.chunks_mut(self.b_p).enumerate() {
            // `pl` walks ni; gather this channel's pixel row.
            for (t, v) in row.iter_mut().enumerate() {
                let p = p0 + t;
                *v = 0.0;
                if p >= d.pixels {
                    continue;
                }
                let (b, rem) = (p / img, p % img);
                let (orow, ocol) = (rem / co, rem % co);
                let ir = orow * g.stride_r + tkr * g.dil_r;
                let ic = ocol * g.stride_c + tkc * g.dil_c;
                if ir < g.pad_r || ic < g.pad_c {
                    continue;
                }
                let (ir, ic) = (ir - g.pad_r, ic - g.pad_c);
                if ir < x.d2 && ic < x.d3 {
                    *v = input[((b * x.d1 + pl) * x.d2 + ir) * x.d3 + ic];
                }
            }
        }
    }
}

impl ConvPlan for PatchGemmPlan {
    fn name(&self) -> &'static str {
        "patch_gemm"
    }

    fn kind(&self) -> PlanKind {
        PlanKind::PatchGemm
    }

    fn blocking(&self, _shape: &ConvShape) -> Blocking {
        // b_p rides in the model's b_b slot (see ConvPerfModel).
        Blocking {
            b_b: self.b_p,
            b_co: 1,
        }
    }

    fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError> {
        reject_degenerate("patch_gemm", shape)?;
        let geom = ConvGeometry::valid(shape.kr, shape.kc);
        self.supports_general(&geom, shape.input_shape(), shape.no)
            .map_err(|e| match e {
                // The trait contract is the plans' Unsupported class.
                SwdnnError::PlanRejected { reason, .. } => {
                    SwdnnError::unsupported("patch_gemm", shape, reason)
                }
                other => other,
            })
    }

    fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        self.supports(shape)?;
        check_operands([(input, shape.input_shape()), (filter, shape.filter_shape())])?;
        let geom = ConvGeometry::valid(shape.kr, shape.kc);
        self.run_general(&geom, input, filter)
    }

    fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        self.time_sampled(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::{lattice_tensor, seeded_tensor};
    use sw_tensor::{conv2d_general, conv2d_ref};

    #[test]
    fn dense_shapes_match_reference_exactly_on_lattice_data() {
        let shape = ConvShape::new(16, 8, 8, 4, 4, 3, 3);
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 31);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 32);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = PatchGemmPlan::new(32).run(&shape, &input, &filter).unwrap();
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
        assert!(run.timing.cycles > 0);
    }

    #[test]
    fn ragged_pixel_counts_pad_the_tail_block_correctly() {
        // P = 8·3·3 = 72, b_p = 32: two full blocks + a 8-pixel tail.
        let shape = ConvShape::new(8, 8, 8, 3, 3, 2, 2);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 33);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 34);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = PatchGemmPlan::new(32).run(&shape, &input, &filter).unwrap();
        assert!(run.output.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn stride_two_matches_the_general_reference() {
        let geom = ConvGeometry::valid(3, 3).with_stride(2, 2);
        let input = seeded_tensor(Shape4::new(8, 16, 9, 9), Layout::Nchw, 35);
        let filter = seeded_tensor(Shape4::new(16, 16, 3, 3), Layout::Nchw, 36);
        let expect = conv2d_general(&geom, &input, &filter);
        let run = PatchGemmPlan::new(64)
            .run_general(&geom, &input, &filter)
            .unwrap();
        assert_eq!(run.output.shape(), expect.shape());
        assert!(run.output.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn padding_and_dilation_match_the_general_reference() {
        let geom = ConvGeometry::same(3, 3).with_dilation(2, 2);
        let input = seeded_tensor(Shape4::new(4, 8, 8, 8), Layout::Nchw, 37);
        let filter = seeded_tensor(Shape4::new(8, 8, 3, 3), Layout::Nchw, 38);
        let expect = conv2d_general(&geom, &input, &filter);
        let run = PatchGemmPlan::new(32)
            .run_general(&geom, &input, &filter)
            .unwrap();
        assert_eq!(run.output.shape(), expect.shape());
        assert!(run.output.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn rejects_channels_off_the_mesh_grid() {
        let shape = ConvShape::new(8, 7, 8, 4, 4, 3, 3);
        let err = PatchGemmPlan::new(32).supports(&shape).unwrap_err();
        assert!(matches!(err, SwdnnError::Unsupported { .. }), "{err}");
        let geom = ConvGeometry::valid(3, 3);
        let err = PatchGemmPlan::new(32)
            .supports_general(&geom, Shape4::new(8, 7, 6, 6), 8)
            .unwrap_err();
        assert!(matches!(err, SwdnnError::PlanRejected { .. }), "{err}");
    }

    #[test]
    fn auto_blocking_fits_ldm() {
        let chip = sw_perfmodel::ChipSpec::sw26010();
        let plan = PatchGemmPlan::auto_for(LowerCtx::on_chip(chip), 256, 256);
        let extent = (ConvGeometry::valid(3, 3), Shape4::new(8, 256, 6, 6), 256);
        assert!(plan.ldm_doubles(&extent) <= chip.ldm_doubles());
        assert!(plan.b_p >= chip.mesh_dim);
    }

    #[test]
    fn cost_only_walk_lands_on_the_functional_run() {
        crate::plans::tests::assert_cost_only_walk_lands_on_the_functional_run("patch-GEMM");
    }

    #[test]
    fn supports_is_exactly_what_the_walk_allocates() {
        crate::plans::tests::assert_supports_matches_the_walks_ldm("patch-GEMM");
    }

    #[test]
    fn sampled_timing_tracks_full_timing() {
        crate::plans::tests::assert_sampled_timing_tracks_full_timing("patch-GEMM");
    }
}
