//! The filter-gradient ("backward filter") pass on the CPE mesh.
//!
//! Training needs `dW[no][ni][kr][kc] = Σ_{b,ro,co} x[b][ni][ro+kr][co+kc] ·
//! g[b][no][ro][co]` — in GEMM form `dW[No × Ni·Kr·Kc] = G · X_colᵀ`, a
//! GEMM whose *reduction* runs over every output pixel and whose result is
//! only `No × Ni·Kr·Kc`. That shape inverts the forward plan's economics:
//! the accumulator is tiny (the whole `dW` tile lives in LDM for the entire
//! pass), while the operands stream once — the ideal case for the
//! register-communication rotation, since each streamed tile is reduced
//! against every other chunk.
//!
//! Mesh distribution per pixel tile (batch block `b_B`, one output row,
//! column block `b_co`):
//!
//! * `g` (gradient): CPE `(i, j)` holds `no ∈ chunk_i`, pixels of batch
//!   quad `j` — the forward plan's output distribution, so a fused
//!   training step would not even need a relayout;
//! * `x` (activations): CPE `(i, j)` holds the input window of batch quad
//!   `i`, channels `ni ∈ chunk_j`;
//! * `dW`: CPE `(i, j)` accumulates `no ∈ chunk_i`, `ni ∈ chunk_j` for all
//!   `(kr, kc)` taps, held in LDM as `[no][(kr·Kc+kc)·ni8 + ni]`.
//!
//! Each pixel tile is **one** rotation with the `Kr·Kc` taps folded into
//! the GEMM's `n` (`Kr·Kc·Ni/8` per CPE): round `r` broadcasts `g` blocks
//! along rows from column `r` and every tap's `x` window of the same pixels
//! along columns from row `r` — the Fig. 3 pattern, reducing over pixels.
//! A rotation per tap would broadcast `g` `Kr·Kc` times and charge each
//! `No/8 × Ni/8` block a whole register tile. Folding costs no LDM: the `x`
//! block is packed from the tile's `x` buffer into the bus payload, and
//! received blocks are register-communication payloads, which no plan
//! holds in LDM. `x`'s bus volume, the DMA gets and puts, and each `dW`
//! element's summation order (tile by tile, round by round, pixels
//! ascending) are those of a rotation per tap.
//!
//! The pass runs on the one loop nest (`Nest::walk`) as a single tile: `dW`
//! is zeroed once, each pixel tile is a step that needs its `g` and `x`
//! (both prefetched a tile ahead) and rotates, and `dW` is put at the end.

use super::gemm_mesh::GemmBlock;
use super::nest::{Dma, Fetch, Get, Nest, Operand, Operands, Rotate, Step, Walks};
use super::{check_operands, reject_degenerate, LdmBuffers, LowerCtx, PlanTiming};
use crate::error::SwdnnError;
use sw_perfmodel::co_blocks;
use sw_sim::{CpeCtx, LdmBuf};
use sw_tensor::{ConvShape, Layout, Tensor4};

/// The backward-filter plan.
#[derive(Clone, Copy, Debug)]
pub struct BwdFilterPlan {
    /// Where the simulated mesh runs: chip, injected faults, host runtime.
    pub ctx: LowerCtx,
    /// Batch block (multiple of 32: whole quads per mesh chunk).
    pub b_b: usize,
    /// Output-column block.
    pub b_co: usize,
}

impl BwdFilterPlan {
    pub fn new(b_b: usize, b_co: usize) -> Self {
        Self {
            ctx: LowerCtx::default(),
            b_b,
            b_co,
        }
    }

    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Largest default blocking that fits the paper-scale shapes.
    pub fn auto(shape: &ConvShape) -> Self {
        Self::auto_on(LowerCtx::default(), shape)
    }

    /// [`BwdFilterPlan::auto`] in an explicit context: the blocking is the
    /// largest one `supports` accepts on that context's chip.
    pub fn auto_on(ctx: LowerCtx, shape: &ConvShape) -> Self {
        co_blocks(shape.co, 16)
            .map(|b_co| Self::new(32, b_co).on(ctx))
            .find(|plan| plan.supports(shape).is_ok())
            .unwrap_or_else(|| Self::new(32, 1).on(ctx))
    }

    pub fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError> {
        reject_degenerate("bwd_filter", shape)?;
        let fail = |reason: String| Err(SwdnnError::unsupported("bwd_filter", shape, reason));
        let dim = self.ctx.chip.mesh_dim;
        if !shape.ni.is_multiple_of(dim) || !shape.no.is_multiple_of(dim) {
            return fail(format!("Ni and No must be multiples of {dim}"));
        }
        if !self.b_b.is_multiple_of(4 * dim) || !shape.batch.is_multiple_of(self.b_b) {
            return fail(format!(
                "batch {} not tileable by b_B {}",
                shape.batch, self.b_b
            ));
        }
        if !shape.co.is_multiple_of(self.b_co) {
            return fail(format!(
                "Co {} not divisible by b_co {}",
                shape.co, self.b_co
            ));
        }
        self.ctx.fit_ldm(self.ldm_doubles(shape)).or_else(fail)
    }

    /// Compute `dW` with full simulation; returns the gradient and timing.
    pub fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        d_out: &Tensor4<f64>,
    ) -> Result<(Tensor4<f64>, PlanTiming), SwdnnError> {
        self.supports(shape)?;
        check_operands([(input, shape.input_shape()), (d_out, shape.output_shape())])?;
        let (kr_n, kc_n, ni, no) = (shape.kr, shape.kc, shape.ni, shape.no);
        let input = input.to_layout(Layout::ImageAware);
        let g = d_out.to_layout(Layout::ImageAware);
        // Global accumulation buffer ordered [(kr*Kc+kc)][no][ni].
        let mut dw_flat = vec![0.0f64; kr_n * kc_n * no * ni];
        let timing = self.walk(
            shape,
            self.ctx.mesh(),
            Some(Operands {
                b: input.data(),
                a: g.data(),
                out: &mut dw_flat,
            }),
        )?;

        // Transpose [(kr,kc)][no][ni] -> (No, Ni, Kr, Kc).
        let mut dw = Tensor4::zeros(shape.filter_shape(), Layout::Nchw);
        for kr in 0..kr_n {
            for kc in 0..kc_n {
                for n_o in 0..no {
                    for n_i in 0..ni {
                        dw.set(
                            n_o,
                            n_i,
                            kr,
                            kc,
                            dw_flat[((kr * kc_n + kc) * no + n_o) * ni + n_i],
                        );
                    }
                }
            }
        }
        Ok((dw, timing))
    }

    /// Sampled full-shape timing (the pass is linear in the pixel tiles).
    pub fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        self.time_sampled(shape)
    }
}

/// The pass over one shape, per CPE.
#[derive(Clone, Copy)]
pub(crate) struct Dims {
    s: ConvShape,
    ni8: usize,
    no8: usize,
    /// Batch quads per mesh chunk.
    quads: usize,
    /// Doubles per `(kr, quad, ni)` input row window (`4·(b_co+Kc−1)`).
    win4: usize,
    /// Pixels per chunk (`quads · 4 · b_co`).
    n8: usize,
    /// Column blocks per output row.
    cols: usize,
}

/// One tile, the whole `dW`, zeroed once and put at the end; its steps are
/// the pixel tiles `(batch block, output row, column block)`. A is `g`,
/// the output gradient, and B `x`, the activations, both in
/// [`Layout::ImageAware`]; the put lands `dW` ordered
/// `[(kr·Kc+kc)][no][ni]`.
impl Nest for BwdFilterPlan {
    type Extent = ConvShape;
    type Dims = Dims;
    type Tile = ();

    fn ctx(&self) -> &LowerCtx {
        &self.ctx
    }

    fn operand_lens(&self, shape: &ConvShape) -> [usize; 3] {
        let layout = Layout::ImageAware;
        let [i, o] = [shape.input_shape(), shape.output_shape()].map(|s| layout.buffer_len(s));
        [i, o, shape.filter_shape().len()]
    }

    /// A: the tile's `g`; B: its `x` windows, every `kr` row; both
    /// double-buffered. C: the `dW` blocks of every tap.
    fn ldm_buffers(&self, shape: &ConvShape) -> LdmBuffers {
        let d = self.dims(shape);
        [
            (d.no8 * d.n8, 2),
            (shape.kr * d.quads * d.ni8 * d.win4, 2),
            (d.no8 * shape.kr * shape.kc * d.ni8, 1),
            (0, 0),
        ]
    }

    fn timing_walks(&self, shape: &ConvShape) -> Walks<ConvShape> {
        Walks::pixel_tiles(shape, self.b_b, self.b_co)
    }

    fn dims(&self, shape: &ConvShape) -> Dims {
        let dim = self.ctx.chip.mesh_dim;
        let quads = self.b_b / (4 * dim);
        Dims {
            s: *shape,
            ni8: shape.ni / dim,
            no8: shape.no / dim,
            quads,
            win4: 4 * (self.b_co + shape.kc - 1),
            n8: quads * 4 * self.b_co,
            cols: shape.co / self.b_co,
        }
    }

    /// One rotation per pixel tile, every tap folded into `n`.
    fn block(&self, d: &Dims) -> GemmBlock {
        GemmBlock::dense(d.no8, d.s.kr * d.s.kc * d.ni8, d.n8, true)
    }

    fn tiles(&self, _: &Dims) -> impl Iterator<Item = ()> {
        std::iter::once(())
    }

    /// Per pixel tile, its `g` (A) and `x` (B), both prefetched a tile
    /// ahead, then the rotation.
    fn steps(&self, d: &Dims, _: ()) -> impl Iterator<Item = Step> {
        let n = d.s.batch / self.b_b * d.s.ro * d.cols;
        (0..n).map(move |j| Step {
            fetch: [Operand::A, Operand::B].map(|op| Some((op, Fetch::Need(0, j, n)))),
            rotate: Some(Rotate::default()),
        })
    }

    #[inline]
    fn fetch(&self, ctx: &mut CpeCtx<'_>, d: &Dims, get: Get<()>) -> Dma {
        let (s, b_co, dst, src) = (&d.s, self.b_co, get.dst, get.src);
        let (r_o, co0) = (get.j / d.cols % s.ro, get.j % d.cols * b_co);
        let q0 = get.j / d.cols / s.ro * self.b_b / 4;
        if let Operand::A = get.op {
            // g: the batch quads of this CPE's column, its row's `no`
            // chunk, output row r_o, columns co0..co0+b_co.
            return (0..d.quads).try_fold(None, |_, q| {
                let gq = q0 + ctx.col * d.quads + q;
                let at = (((gq * s.no + ctx.row * d.no8) * s.ro + r_o) * s.co + co0) * 4;
                let (len, stride) = (4 * b_co, s.ro * s.co * 4);
                ctx.dma_get_strided(dst, q * d.no8 * len, src, at, d.no8, stride, len)
                    .map(Some)
            });
        }
        // x: the batch quads of this CPE's row, its column's `ni` chunk,
        // input rows r_o..r_o+Kr, columns co0..co0+b_co+Kc-1.
        let (ri, ci) = (s.ri(), s.ci());
        (0..s.kr * d.quads).try_fold(None, |_, kq| {
            let (kr, q) = (kq / d.quads, kq % d.quads);
            let gq = q0 + ctx.row * d.quads + q;
            let at = (((gq * s.ni + ctx.col * d.ni8) * ri + r_o + kr) * ci + co0) * 4;
            let (len, stride) = (d.ni8 * d.win4, ri * ci * 4);
            ctx.dma_get_strided(dst, kq * len, src, at, d.ni8, stride, d.win4)
                .map(Some)
        })
    }

    /// Every tap's `dW` blocks.
    fn put(&self, ctx: &mut CpeCtx<'_>, d: &Dims, c: LdmBuf, _: ()) -> Dma {
        let (s, taps) = (&d.s, d.s.kr * d.s.kc);
        (0..taps * d.no8).try_fold(None, |_, i| {
            let (krkc, m) = (i / d.no8, i % d.no8);
            let at = (krkc * s.no + ctx.row * d.no8 + m) * s.ni + ctx.col * d.ni8;
            ctx.dma_put(c, (m * taps + krkc) * d.ni8, at, d.ni8)
                .map(Some)
        })
    }

    /// `g`, packed k-major: `(pixel, no)`.
    fn pack_a(&self, d: &Dims, g: &[f64], dst: &mut Vec<f64>) {
        let run = 4 * self.b_co;
        for q in 0..d.quads {
            for p in 0..run {
                dst.extend((0..d.no8).map(|m| g[(q * d.no8 + m) * run + p]));
            }
        }
    }

    /// Every tap's window of the tile's pixels, packed k-major:
    /// `(pixel, (kr·Kc+kc)·ni8 + ni)`.
    fn pack_b(&self, d: &Dims, x: &[f64], dst: &mut Vec<f64>) {
        let (s, win4) = (&d.s, d.win4);
        for q in 0..d.quads {
            for p in 0..self.b_co {
                for lane in 0..4 {
                    for kr in 0..s.kr {
                        let row = (kr * d.quads + q) * d.ni8 * win4 + lane;
                        for kc in 0..s.kc {
                            let at = row + 4 * (p + kc);
                            dst.extend((0..d.ni8).map(|nl| x[at + nl * win4]));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::conv2d_bwd_filter_ref;
    use sw_tensor::init::{lattice_tensor, seeded_tensor};

    fn small_shape() -> ConvShape {
        ConvShape::new(32, 8, 8, 4, 8, 3, 3)
    }

    #[test]
    fn matches_reference_exactly_on_lattice_data() {
        let shape = small_shape();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 301);
        let d_out = lattice_tensor(shape.output_shape(), Layout::Nchw, 302);
        let expect = conv2d_bwd_filter_ref(shape, &input, &d_out);
        let (dw, timing) = BwdFilterPlan::new(32, 4)
            .run(&shape, &input, &d_out)
            .unwrap();
        assert_eq!(dw.max_abs_diff(&expect), 0.0);
        assert!(timing.cycles > 0);
    }

    #[test]
    fn matches_reference_on_random_data_and_asymmetric_filters() {
        let shape = ConvShape::new(32, 16, 8, 3, 8, 2, 3);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 303);
        let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 304);
        let expect = conv2d_bwd_filter_ref(shape, &input, &d_out);
        let (dw, _) = BwdFilterPlan::new(32, 4)
            .run(&shape, &input, &d_out)
            .unwrap();
        assert!(dw.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn auto_blocking_supports_paper_scale() {
        let shape = ConvShape::new(128, 128, 128, 64, 64, 3, 3);
        let plan = BwdFilterPlan::auto(&shape);
        assert!(
            plan.supports(&shape).is_ok(),
            "footprint {}",
            plan.ldm_doubles(&shape)
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        let plan = BwdFilterPlan::new(32, 4);
        assert!(plan
            .supports(&ConvShape::new(31, 8, 8, 4, 8, 3, 3))
            .is_err());
        assert!(plan
            .supports(&ConvShape::new(32, 7, 8, 4, 8, 3, 3))
            .is_err());
        assert!(plan
            .supports(&ConvShape::new(32, 8, 8, 4, 7, 3, 3))
            .is_err());
    }

    #[test]
    fn cost_only_walk_lands_on_the_functional_run() {
        crate::plans::tests::assert_cost_only_walk_lands_on_the_functional_run("bwd-filter");
    }

    #[test]
    fn supports_is_exactly_what_the_walk_allocates() {
        crate::plans::tests::assert_supports_matches_the_walks_ldm("bwd-filter");
    }

    #[test]
    fn sampled_timing_tracks_full_timing() {
        crate::plans::tests::assert_sampled_timing_tracks_full_timing("bwd-filter");
    }
}
