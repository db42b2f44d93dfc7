//! The image-size-aware convolution plan — Algorithm 1 of the paper.
//!
//! LDM blocking on the batch (`b_B`) and output-column (`b_Co`) dimensions,
//! with the DMA of the input window promoted out of the `kc` loop ("we can
//! promote the DMA operation at line 6 to line 4 and read input image tile
//! of size `(Costart : Costart + Kc + bCo)`"), so each input row window is
//! fetched once per `kr` and reused for all `Kc` filter columns.
//!
//! For each output tile `(b-block, ro, co-block)`:
//!
//! 1. zero the distributed output accumulator;
//! 2. for each `kr`: DMA the input row window (double-buffered against the
//!    previous `kr`'s compute) and the filter slice `W[kr][·]`;
//! 3. for each `kc`: one register-communication GEMM rotation
//!    (`M = No`, `N = b_B·b_Co` pixels, `K = Ni`) reading a shifted
//!    sub-window of the LDM-resident input;
//! 4. DMA the output tile back.
//!
//! Data layouts: input/output in [`Layout::ImageAware`]
//! (`(4, C, R, N, B/4)` — the DMA block per CPE is a `4·(b_Co+Kc−1)`-double
//! run, large and aligned), filters repacked host-side to `(Kr, Kc, Ni, No)`
//! so each `(kr, kc)` slice is a contiguous `Ni × No` matrix.
//!
//! Mesh distribution (per CPE `(i, j)`):
//! * input: channels `ni ∈ chunk_i`, batch-quads `∈ chunk_j` — no element
//!   is duplicated across CPEs (§V-A);
//! * filters: `no ∈ chunk_i`, `ni ∈ chunk_j`;
//! * output: `no ∈ chunk_i`, pixels `∈ chunk_j`.

use super::gemm_mesh::GemmBlock;
use super::nest::{Dma, Fetch, Get, Nest, Operand, Operands, Rotate, Step, Walks};
use super::{check_operands, reject_degenerate, tap_major_filter, ConvPlan, ConvRun};
use super::{LdmBuffers, LowerCtx, PlanTiming};
use crate::error::SwdnnError;
use crate::plans::PlanKind;
use sw_perfmodel::Blocking;
use sw_sim::{CpeCtx, LdmBuf};
use sw_tensor::{ConvShape, Layout, Tensor4};

/// Algorithm 1 with a fixed blocking choice.
#[derive(Clone, Copy, Debug)]
pub struct ImageAwarePlan {
    /// Where the simulated mesh runs: chip, injected faults, host runtime.
    pub ctx: LowerCtx,
    pub blocking: Blocking,
    /// Reduction (input-channel) block `b_Ni` — §IV-A: "if LDM space is
    /// not enough for large Ni or No, we still need to apply loop blocking
    /// on these dimensions". `None` keeps the whole `Ni` resident.
    pub b_ni: Option<usize>,
    /// Use the §VI software-pipelined inner kernel (true) or the naive one
    /// (false) — the Fig. 6 ablation switch.
    pub reordered_kernel: bool,
    /// Double-buffer DMA against compute (§IV-A). `false` fetches each
    /// tile synchronously — the ablation that shows why the paper bothers.
    pub double_buffer: bool,
}

impl ImageAwarePlan {
    pub fn new(blocking: Blocking) -> Self {
        Self {
            ctx: LowerCtx::default(),
            blocking,
            b_ni: None,
            reordered_kernel: true,
            double_buffer: true,
        }
    }

    /// Add input-channel blocking (must divide `Ni`, multiple of 8).
    pub fn with_ni_blocking(mut self, b_ni: usize) -> Self {
        self.b_ni = Some(b_ni);
        self
    }

    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }

    fn effective_b_ni(&self, shape: &ConvShape) -> usize {
        self.b_ni.unwrap_or(shape.ni).min(shape.ni)
    }
}

/// Algorithm 1's walk over one shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Dims {
    s: ConvShape,
    b_ni: usize,
    ni8: usize,
    no8: usize,
    /// Batch quads per CPE.
    quads: usize,
    /// Doubles per `(quad, ni)` input row window (`4·(b_co+Kc−1)`).
    win4: usize,
    /// Output pixels per CPE (`quads · 4 · b_co`).
    n8: usize,
    b_co: usize,
}

/// Algorithm 1: `input` in [`Layout::ImageAware`], the filters repacked to
/// `(Kr, Kc, Ni, No)`, the output in [`Layout::ImageAware`].
impl Nest for ImageAwarePlan {
    type Extent = ConvShape;
    type Dims = Dims;
    /// First batch quad, output row, first output column.
    type Tile = (usize, usize, usize);

    fn ctx(&self) -> &LowerCtx {
        &self.ctx
    }

    fn operand_lens(&self, shape: &ConvShape) -> [usize; 3] {
        let layout = Layout::ImageAware;
        let [i, o] = [shape.input_shape(), shape.output_shape()].map(|s| layout.buffer_len(s));
        [i, shape.filter_shape().len(), o]
    }

    /// A: one `(kr, kc)` filter slice; B: the input row window; both
    /// double-buffered unless the ablation switch says not. C: the output
    /// tile.
    fn ldm_buffers(&self, shape: &ConvShape) -> LdmBuffers {
        let d = self.dims(shape);
        let copies = if self.double_buffer { 2 } else { 1 };
        [
            (d.ni8 * d.no8, copies),
            (d.quads * d.ni8 * d.win4, copies),
            (d.no8 * d.n8, 1),
            (0, 0),
        ]
    }

    fn timing_walks(&self, shape: &ConvShape) -> Walks<ConvShape> {
        Walks::pixel_tiles(shape, self.blocking.b_b, self.blocking.b_co)
    }

    fn dims(&self, shape: &ConvShape) -> Dims {
        let dim = self.ctx.chip.mesh_dim;
        let quads_per_cpe = self.blocking.b_b / (4 * dim);
        let win = self.blocking.b_co + shape.kc - 1;
        let b_ni = self.effective_b_ni(shape);
        Dims {
            s: *shape,
            b_ni,
            ni8: b_ni / dim,
            no8: shape.no / dim,
            quads: quads_per_cpe,
            win4: 4 * win,
            n8: quads_per_cpe * 4 * self.blocking.b_co,
            b_co: self.blocking.b_co,
        }
    }

    fn block(&self, d: &Dims) -> GemmBlock {
        GemmBlock::dense(d.no8, d.n8, d.ni8, self.reordered_kernel)
    }

    fn tiles(&self, d: &Dims) -> impl Iterator<Item = Self::Tile> {
        let (s, Blocking { b_b, b_co }) = (d.s, self.blocking);
        let row = move |q, r| (0..s.co).step_by(b_co).map(move |c| (q, r, c));
        (0..s.batch)
            .step_by(b_b)
            .flat_map(move |b| (0..s.ro).flat_map(move |r| row(b / 4, r)))
    }

    /// Per `(Ni block, kr)` the input row window (B), then per `kc` the
    /// filter slice (A: Algorithm 1 line 7 re-fetches W inside the filter
    /// loops) and the rotation over the window shifted by `kc`.
    fn steps(&self, d: &Dims, _: Self::Tile) -> impl Iterator<Item = Step> {
        let (kc_n, windows) = (d.s.kc, d.s.ni / d.b_ni * d.s.kr);
        let need = |op, j, n| [Some((op, Fetch::Need(0, j, n))), None];
        (0..windows).flat_map(move |w| {
            let window = Step {
                fetch: need(Operand::B, w, windows),
                rotate: None,
            };
            let slices = (0..kc_n).map(move |kc| Step {
                fetch: need(Operand::A, w * kc_n + kc, windows * kc_n),
                rotate: Some(Rotate {
                    b_at: 4 * kc,
                    ..Rotate::default()
                }),
            });
            std::iter::once(window).chain(slices)
        })
    }

    #[inline]
    fn fetch(&self, ctx: &mut CpeCtx<'_>, d: &Dims, get: Get<Self::Tile>) -> Dma {
        let (s, taps, (q0, r_o, co0)) = (&d.s, d.s.kr * d.s.kc, get.tile);
        let (j, dst, src) = (get.j, get.dst, get.src);
        if let Operand::A = get.op {
            let ni0 = j / taps * d.b_ni + ctx.col * d.ni8;
            let at = (j % taps * s.ni + ni0) * s.no + ctx.row * d.no8;
            return ctx
                .dma_get_strided(dst, 0, src, at, d.ni8, s.no, d.no8)
                .map(Some);
        }
        let (ri, ci, ni0) = (s.ri(), s.ci(), j / s.kr * d.b_ni + ctx.row * d.ni8);
        (0..d.quads).try_fold(None, |_, q| {
            let gq = q0 + ctx.col * d.quads + q;
            let at = (((gq * s.ni + ni0) * ri + r_o + j % s.kr) * ci + co0) * 4;
            let (len, stride) = (d.ni8 * d.win4, ri * ci * 4);
            ctx.dma_get_strided(dst, q * len, src, at, d.ni8, stride, d.win4)
                .map(Some)
        })
    }

    fn put(&self, ctx: &mut CpeCtx<'_>, d: &Dims, c: LdmBuf, t: Self::Tile) -> Dma {
        let (s, (q0, r_o, co0)) = (&d.s, t);
        (0..d.quads).try_fold(None, |_, q| {
            let gq = q0 + ctx.col * d.quads + q;
            let at = (((gq * s.no + ctx.row * d.no8) * s.ro + r_o) * s.co + co0) * 4;
            let (run, stride) = (4 * d.b_co, s.ro * s.co * 4);
            ctx.dma_put_scatter(c, q * run, d.n8, at, stride, d.no8, run)
                .map(Some)
        })
    }

    /// The window shifted by `kc` (it starts at `4·kc`), packed k-major.
    fn pack_b(&self, d: &Dims, window: &[f64], dst: &mut Vec<f64>) {
        for k in 0..d.ni8 {
            for q in 0..d.quads {
                let at = (q * d.ni8 + k) * d.win4;
                dst.extend_from_slice(&window[at..at + 4 * d.b_co]);
            }
        }
    }
}

impl ConvPlan for ImageAwarePlan {
    fn name(&self) -> &'static str {
        "image_size_aware"
    }

    fn kind(&self) -> PlanKind {
        PlanKind::ImageSizeAware
    }

    fn blocking(&self, _shape: &ConvShape) -> Blocking {
        self.blocking
    }

    fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError> {
        reject_degenerate("image_size_aware", shape)?;
        let fail = |reason: String| Err(SwdnnError::unsupported("image_size_aware", shape, reason));
        let Blocking { b_b, b_co } = self.blocking;
        let dim = self.ctx.chip.mesh_dim;
        if !shape.ni.is_multiple_of(dim) || !shape.no.is_multiple_of(dim) {
            return fail(format!("Ni and No must be multiples of {dim}"));
        }
        if b_b % (4 * dim) != 0 {
            return fail(format!("b_B ({b_b}) must be a multiple of {}", 4 * dim));
        }
        if !shape.batch.is_multiple_of(b_b) {
            return fail(format!("batch {} not divisible by b_B {b_b}", shape.batch));
        }
        if !shape.co.is_multiple_of(b_co) {
            return fail(format!("Co {} not divisible by b_Co {b_co}", shape.co));
        }
        let b_ni = self.effective_b_ni(shape);
        if !b_ni.is_multiple_of(dim) || !shape.ni.is_multiple_of(b_ni) {
            return fail(format!(
                "b_Ni ({b_ni}) must be a multiple of {dim} dividing Ni ({})",
                shape.ni
            ));
        }
        self.ctx.fit_ldm(self.ldm_doubles(shape)).or_else(fail)
    }

    fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        self.supports(shape)?;
        check_operands([(input, shape.input_shape()), (filter, shape.filter_shape())])?;
        // Host-side layout preparation (done once per layer in practice).
        let input = input.to_layout(Layout::ImageAware);
        let w = tap_major_filter(filter);
        let mut output = Tensor4::zeros(shape.output_shape(), Layout::ImageAware);
        let timing = self.walk(
            shape,
            self.ctx.mesh(),
            Some(Operands {
                b: input.data(),
                a: &w,
                out: output.data_mut(),
            }),
        )?;
        Ok(ConvRun { output, timing })
    }

    fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        self.time_sampled(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::lattice_tensor;
    use sw_tensor::{conv2d_ref, init::seeded_tensor};

    fn small_shape() -> ConvShape {
        // bB must be a multiple of 32; keep the rest small.
        ConvShape::new(32, 8, 8, 4, 8, 3, 3)
    }

    fn plan() -> ImageAwarePlan {
        ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 })
    }

    #[test]
    fn matches_reference_exactly_on_lattice_data() {
        let shape = small_shape();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 3);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 4);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = plan().run(&shape, &input, &filter).unwrap();
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn matches_reference_closely_on_random_data() {
        let shape = ConvShape::new(32, 16, 8, 3, 8, 2, 2);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 5);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 6);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 })
            .run(&shape, &input, &filter)
            .unwrap();
        assert!(run.output.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let p = plan();
        // Ni not a multiple of 8.
        assert!(p.supports(&ConvShape::new(32, 7, 8, 4, 8, 3, 3)).is_err());
        // batch not divisible by b_b.
        assert!(p.supports(&ConvShape::new(48, 8, 8, 4, 8, 3, 3)).is_err());
        // co not divisible by b_co.
        assert!(p.supports(&ConvShape::new(32, 8, 8, 4, 6, 3, 3)).is_err());
        assert!(p.supports(&small_shape()).is_ok());
    }

    #[test]
    fn timing_is_sane_and_flops_exact() {
        let shape = small_shape();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 7);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 8);
        let run = plan().run(&shape, &input, &filter).unwrap();
        assert!(run.timing.cycles > 0);
        // GEMM flops = 2*B*No*Ro*Co*Ni per (kr,kc) => exactly shape.flops().
        assert_eq!(run.timing.stats.totals.flops, shape.flops());
    }

    #[test]
    fn ni_blocking_matches_unblocked_exactly() {
        let shape = ConvShape::new(32, 16, 8, 3, 8, 3, 3);
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 71);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 72);
        let full = plan().run(&shape, &input, &filter).unwrap();
        let blocked = plan()
            .with_ni_blocking(8)
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(blocked.output.max_abs_diff(&full.output), 0.0);
        // Blocking trades extra filter traffic for a smaller footprint.
        assert!(
            blocked.timing.stats.totals.dma_get_bytes >= full.timing.stats.totals.dma_get_bytes
        );
    }

    #[test]
    fn ni_blocking_reduces_ldm_footprint() {
        let shape = ConvShape::new(128, 512, 512, 64, 64, 3, 3);
        let unblocked = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 });
        assert!(
            unblocked.supports(&shape).is_err(),
            "512x512 must overflow LDM"
        );
        let blocked = unblocked.with_ni_blocking(128);
        assert!(
            blocked.supports(&shape).is_ok(),
            "b_Ni=128 must fit: {} doubles",
            blocked.ldm_doubles(&shape)
        );
    }

    #[test]
    fn ni_blocked_512_channel_conv_runs_correctly_small() {
        // Functional check of the blocked path on a shape with several
        // ni-blocks (small spatial size keeps it fast).
        let shape = ConvShape::new(32, 32, 8, 2, 4, 2, 2);
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 73);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 74);
        let expect = sw_tensor::conv2d_ref(shape, &input, &filter);
        let run = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 })
            .with_ni_blocking(8)
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn synchronous_dma_ablation_is_slower_but_correct() {
        let shape = small_shape();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 91);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 92);
        let buffered = plan().run(&shape, &input, &filter).unwrap();
        let mut sync_plan = plan();
        sync_plan.double_buffer = false;
        let sync = sync_plan.run(&shape, &input, &filter).unwrap();
        assert_eq!(sync.output.max_abs_diff(&buffered.output), 0.0);
        assert!(
            sync.timing.cycles > buffered.timing.cycles,
            "sync {} vs buffered {}",
            sync.timing.cycles,
            buffered.timing.cycles
        );
        // Stall accounting must show where the loss went.
        assert!(
            sync.timing.stats.totals.dma_stall_cycles
                > buffered.timing.stats.totals.dma_stall_cycles
        );
        // One copy of each operand: the walk holds what `ldm_buffers` says.
        let ldm = |run: &ConvRun| run.timing.stats.ldm_high_water_doubles;
        assert!(ldm(&sync) < ldm(&buffered));
        assert_eq!(ldm(&sync), sync_plan.ldm_doubles(&shape) as u64);
    }

    #[test]
    fn naive_kernel_ablation_is_slower() {
        let shape = small_shape();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 9);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 10);
        let fast = plan().run(&shape, &input, &filter).unwrap();
        let mut slowp = plan();
        slowp.reordered_kernel = false;
        let slow = slowp.run(&shape, &input, &filter).unwrap();
        assert!(slow.timing.cycles > fast.timing.cycles);
        assert_eq!(slow.output.max_abs_diff(&fast.output), 0.0);
    }

    #[test]
    fn cost_only_walk_lands_on_the_functional_run() {
        crate::plans::tests::assert_cost_only_walk_lands_on_the_functional_run("image-aware");
    }

    #[test]
    fn supports_is_exactly_what_the_walk_allocates() {
        crate::plans::tests::assert_supports_matches_the_walks_ldm("image-aware");
    }

    #[test]
    fn sampled_timing_tracks_full_timing() {
        crate::plans::tests::assert_sampled_timing_tracks_full_timing("image-aware");
    }
}
