//! The input-gradient ("backward data") pass on the CPE mesh, in Caffe's
//! formulation, which swCaffe keeps on the CPEs: the GEMM
//! `dX_col[(ni,kr,kc) × pixels] = Wᵀ · dY`, then col2im. Each `dY` pixel
//! tile (`b_B` images, one output row, `b_co` columns) is **one** rotation
//! with the `Kr·Kc` taps folded into the GEMM's `m` — no zero halo, no
//! flipped filter. `m` is ni-major, so CPE `(i, j)` holds every tap of the
//! channels `ni ∈ chunk_i`: as A their filters (resident per `Ni` block),
//! as C the `dX_col` of mesh column `j`'s `b_B/dim` images, so every
//! contribution to a `dX` element lands on one CPE. B, the tile's `dY`, is
//! double-buffered with a next-tile prefetch. col2im scatter-adds C into a
//! `Kr`-row window of `dX` rows in LDM and puts each row once, complete.
//! The pass runs on the one loop nest (`Nest::walk`) as a single tile whose
//! steps are the pixel tiles; holding the window gives it col2im as the
//! nest's `fold` superstep after every rotation, and no closing put.
//! DESIGN.md §16 has the window, the charges and the `Ni` blocking.

use super::gemm_mesh::{zero_ldm, GemmBlock};
use super::nest::{Dma, Fetch, Get, Nest, Operand, Operands, Rotate, Step, Walks};
use super::{check_operands, reject_degenerate, ConvRun, LdmBuffers, LowerCtx, PlanTiming, Slot};
use crate::error::SwdnnError;
use sw_perfmodel::co_blocks;
use sw_sim::CpeCtx;
use sw_tensor::{ConvShape, Layout, Tensor4};

/// The backward-data plan.
#[derive(Clone, Copy, Debug)]
pub struct BwdDataPlan {
    /// Where the simulated mesh runs: chip, injected faults, host runtime.
    pub ctx: LowerCtx,
    /// Batch block: `dim`, `2·dim` or `4·dim` — one image, two lanes or a
    /// whole quad per mesh column.
    pub b_b: usize,
    /// Output-column block.
    pub b_co: usize,
    /// Input-channel block held in the `dX` window (multiple of `dim`).
    pub b_ni: usize,
}

impl BwdDataPlan {
    pub fn new(b_b: usize, b_co: usize, b_ni: usize) -> Self {
        let ctx = LowerCtx::default();
        Self {
            ctx,
            b_b,
            b_co,
            b_ni,
        }
    }

    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Largest blocking that fits `shape` on the stock chip.
    pub fn auto(shape: &ConvShape) -> Self {
        Self::auto_on(LowerCtx::default(), shape)
    }

    /// [`BwdDataPlan::auto`] in an explicit context: whole quads per mesh
    /// column where the batch allows, then the widest column block and,
    /// for it, the largest `Ni` block that `supports` accepts.
    pub fn auto_on(ctx: LowerCtx, shape: &ConvShape) -> Self {
        let dim = ctx.chip.mesh_dim;
        let b_b = [4 * dim, 2 * dim, dim]
            .into_iter()
            .find(|b| shape.batch.is_multiple_of(*b))
            .unwrap_or(dim);
        let ni_blocks = std::iter::successors(Some(shape.ni), |b| Some(b / 2))
            .take_while(|b| *b >= dim)
            .filter(|b| b.is_multiple_of(dim) && shape.ni.is_multiple_of(*b));
        co_blocks(shape.co, 16)
            .flat_map(|b_co| ni_blocks.clone().map(move |b_ni| (b_co, b_ni)))
            .map(|(b_co, b_ni)| Self::new(b_b, b_co, b_ni).on(ctx))
            .find(|plan| plan.supports(shape).is_ok())
            .unwrap_or_else(|| Self::new(b_b, 1, dim).on(ctx))
    }

    pub fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError> {
        reject_degenerate("bwd_data", shape)?;
        let fail = |reason: String| Err(SwdnnError::unsupported("bwd_data", shape, reason));
        let dim = self.ctx.chip.mesh_dim;
        let (b_b, b_co, b_ni) = (self.b_b, self.b_co, self.b_ni);
        // (extent, divisor): so `Ni` and the batch are multiples of `dim` too.
        let tiled = [(b_b, dim), (b_ni, dim), (shape.no, dim)]
            .into_iter()
            .chain([(shape.batch, b_b), (shape.co, b_co), (shape.ni, b_ni)])
            .all(|(n, d)| n.is_multiple_of(d));
        if !tiled || !matches!(b_b / dim, 1 | 2 | 4) {
            return fail(format!(
                "b_B {b_b} (one image, two lanes or a quad per mesh column), b_co {b_co} and \
                 b_Ni {b_ni} (a multiple of {dim}) must tile the batch, Co and Ni; No must \
                 be a multiple of {dim}"
            ));
        }
        self.ctx.fit_ldm(self.ldm_doubles(shape)).or_else(fail)
    }

    /// Compute `dX` with full simulation; the output is in
    /// [`Layout::ImageAware`].
    pub fn run(
        &self,
        shape: &ConvShape,
        d_out: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError> {
        self.supports(shape)?;
        check_operands([
            (d_out, shape.output_shape()),
            (filter, shape.filter_shape()),
        ])?;
        let dy = d_out.to_layout(Layout::ImageAware);
        let w = filter.to_layout(Layout::Nchw);
        let mut output = Tensor4::zeros(shape.input_shape(), Layout::ImageAware);
        let mesh = self.ctx.mesh();
        let timing = self.walk(
            shape,
            mesh,
            Some(Operands {
                b: dy.data(),
                a: w.data(),
                out: output.data_mut(),
            }),
        )?;
        Ok(ConvRun { output, timing })
    }

    /// Sampled full-shape timing (the pass is linear in the output rows).
    pub fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        self.time_sampled(shape)
    }

    /// Pixel tiles per `Ni` block.
    fn per_block(&self, s: &ConvShape) -> usize {
        s.batch / self.b_b * s.ro * (s.co / self.b_co)
    }

    /// Pixel tile `j`: `[Ni block, batch block, output row, column block]`.
    fn pixel_tile(&self, s: &ConvShape, j: usize) -> [usize; 4] {
        let (per_block, cols) = (self.per_block(s), s.co / self.b_co);
        let (rows, tc) = (j % per_block / cols, j % cols);
        [j / per_block, rows / s.ro, rows % s.ro, tc]
    }

    /// Quad and first lane of mesh column `col`'s `lanes` images in batch
    /// block `tb`, and how one channel's DMA runs over `cols` columns: a
    /// whole quad is one run, a sub-quad slice a run of `lanes` per column.
    fn images(&self, lanes: usize, tb: usize, col: usize, cols: usize) -> [usize; 4] {
        let img = tb * self.b_b + col * lanes;
        let (n, len) = match lanes {
            4 => (1, 4 * cols),
            lanes => (cols, lanes),
        };
        [img / 4, img % 4, n, len]
    }
}

/// The pass and its per-CPE extents `[ni8, no8, lanes, m8, n8, row]`:
/// channels of an `Ni` block, output channels, images (ImageAware lanes),
/// GEMM rows and pixels, doubles of one window row.
type Dims = (ConvShape, [usize; 6]);

/// One tile, the whole pass; its steps are the pixel tiles, `Ni` block
/// outermost. A is the filters in NCHW, B the output gradient `dY` in
/// [`Layout::ImageAware`]; the window's puts land `dX` in
/// [`Layout::ImageAware`].
impl Nest for BwdDataPlan {
    type Extent = ConvShape;
    type Dims = Dims;
    type Tile = ();

    fn ctx(&self) -> &LowerCtx {
        &self.ctx
    }

    fn operand_lens(&self, shape: &ConvShape) -> [usize; 3] {
        let layout = Layout::ImageAware;
        let [o, i] = [shape.output_shape(), shape.input_shape()].map(|s| layout.buffer_len(s));
        [o, shape.filter_shape().len(), i]
    }

    /// A: the `Ni` block's filters, resident; B: the tile's `dY`,
    /// double-buffered; C: the tile's `dX_col`; the `Kr`-row `dX` window.
    fn ldm_buffers(&self, shape: &ConvShape) -> LdmBuffers {
        let [_, no8, _, m8, n8, row] = self.dims(shape).1;
        [
            (no8 * m8, 1),
            (no8 * n8, 2),
            (m8 * n8, 1),
            (shape.kr * row, 1),
        ]
    }

    /// One and two output rows (all their column blocks) of one batch and
    /// one `Ni` block, extrapolated: each block's prologue is counted once.
    fn timing_walks(&self, shape: &ConvShape) -> Walks<ConvShape> {
        let s = shape;
        let rows = |ro| ConvShape::new(self.b_b, self.b_ni, s.no, ro, s.co, s.kr, s.kc);
        let n_full = s.ni / self.b_ni * s.batch / self.b_b * s.ro;
        Walks::Sampled([(rows(1), 1), (rows(2), 2)], n_full as u64)
    }

    fn dims(&self, shape: &ConvShape) -> Dims {
        let dim = self.ctx.chip.mesh_dim;
        let (ni8, lanes) = (self.b_ni / dim, self.b_b / dim);
        let (m8, n8) = (ni8 * shape.kr * shape.kc, lanes * self.b_co);
        let row = ni8 * lanes * shape.ci();
        (*shape, [ni8, shape.no / dim, lanes, m8, n8, row])
    }

    /// One rotation per pixel tile, every tap folded into `m`: A and B are
    /// k-major (`no` rows) exactly as fetched.
    fn block(&self, &(_, [_, no8, _, m8, n8, _]): &Dims) -> GemmBlock {
        GemmBlock::dense(m8, n8, no8, true)
    }

    fn tiles(&self, _: &Dims) -> impl Iterator<Item = ()> {
        std::iter::once(())
    }

    /// Per pixel tile, the `Ni` block's filters on its first tile (A,
    /// resident), the tile's `dY` (B, prefetched a tile ahead, across `Ni`
    /// blocks too), then the rotation.
    fn steps(&self, &(s, _): &Dims, _: ()) -> impl Iterator<Item = Step> {
        let per_block = self.per_block(&s);
        let n = s.ni / self.b_ni * per_block;
        (0..n).map(move |j| {
            let w = (Operand::A, Fetch::Need(j / per_block, 0, 1));
            let dy = (Operand::B, Fetch::Need(0, j, n));
            Step {
                fetch: [(j % per_block == 0).then_some(w), Some(dy)],
                rotate: Some(Rotate::default()),
            }
        })
    }

    #[inline]
    fn fetch(&self, ctx: &mut CpeCtx<'_>, d: &Dims, get: Get<()>) -> Dma {
        let &(s, [ni8, no8, lanes, m8, n8, _]) = d;
        let (dst, src) = (get.dst, get.src);
        if let Operand::A = get.op {
            let taps = s.kr * s.kc;
            let at = (ctx.col * no8 * s.ni + get.run * self.b_ni + ctx.row * ni8) * taps;
            return ctx
                .dma_get_strided(dst, 0, src, at, no8, s.ni * taps, m8)
                .map(Some);
        }
        let [_, tb, r_o, tc] = self.pixel_tile(&s, get.j);
        let [gq, lane, n, len] = self.images(lanes, tb, ctx.col, self.b_co);
        (0..no8).try_fold(None, |_, k| {
            let at = (((gq * s.no + ctx.row * no8 + k) * s.ro + r_o) * s.co + tc * self.b_co) * 4;
            ctx.dma_get_strided(dst, k * n8, src, at + lane, n, 4, len)
                .map(Some)
        })
    }

    /// col2im: scatter-add C into the window, zero C, put the row(s) pixel
    /// tile `j` completes.
    fn fold(&self, ctx: &mut CpeCtx<'_>, d: &Dims, s: &mut Slot, j: usize) -> Dma {
        let &(sh, [ni8, _, lanes, m8, n8, row]) = d;
        let (ri, ci, ro, kr_n, kc_n) = (sh.ri(), sh.ci(), sh.ro, sh.kr, sh.kc);
        let [nb, tb, r_o, tc] = self.pixel_tile(&sh, j);
        // The last put has drained: its slot becomes row `r_o + Kr − 1`, or
        // a new batch or Ni block clears the window.
        if let Some(h) = s.win_h.take() {
            ctx.dma_wait(h);
            let (at, len) = match r_o {
                0 => (0, kr_n * row),
                _ => ((r_o + kr_n - 1) % kr_n * row, row),
            };
            zero_ldm(ctx, s.win, at, len);
        }
        if !ctx.is_cost_only() {
            let (c, win, taps) = (s.c.offset, s.win.offset, kr_n * kc_n);
            let data = ctx.ldm_data_mut();
            for m in 0..m8 {
                let (nl, kr, kc) = (m / taps, m / kc_n % kr_n, m % kc_n);
                let slot = (r_o + kr) % kr_n;
                let dst = win + slot * row + (nl * ci + tc * self.b_co + kc) * lanes;
                for i in 0..n8 {
                    data[dst + i] += data[c + m * n8 + i];
                }
            }
        }
        // Per vector: load C, load and store the window on P1, add on P0.
        // A `kc` shift moves whole vectors of image lanes, or part of one in
        // a sub-quad run, charged per double.
        let ops = (m8 * n8 / if lanes == 4 { 4 } else { 1 }) as u64;
        ctx.charge_compute(3 * ops);
        ctx.add_ldm_reg_bytes(3 * 8 * (m8 * n8) as u64);
        ctx.add_issue_slots(ops, 3 * ops);
        zero_ldm(ctx, s.c, 0, m8 * n8);

        if tc + 1 == sh.co / self.b_co {
            let [gq, lane, n, len] = self.images(lanes, tb, ctx.col, ci);
            let rows = if r_o + 1 == ro { r_o..ri } else { r_o..r_o + 1 };
            for (r_i, nl) in rows.flat_map(|r| (0..ni8).map(move |nl| (r, nl))) {
                let ni_l = nb * self.b_ni + ctx.row * ni8 + nl;
                let mem = ((gq * sh.ni + ni_l) * ri + r_i) * ci * 4 + lane;
                let at = r_i % kr_n * row + nl * ci * lanes;
                s.win_h = Some(ctx.dma_put_scatter(s.win, at, lanes, mem, 4, n, len)?);
            }
        }
        // The walk's last tile waits for its puts.
        let last = j + 1 == sh.ni / self.b_ni * self.per_block(&sh);
        Ok(if last { s.win_h.take() } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::conv2d_bwd_data_ref;
    use sw_tensor::init::lattice_tensor;

    #[test]
    fn matches_reference_exactly_on_lattice_data_with_exact_flops() {
        // Quads per mesh column, two column blocks, two Ni blocks.
        let shape = ConvShape::new(32, 16, 8, 4, 8, 3, 3);
        let d_out = lattice_tensor(shape.output_shape(), Layout::Nchw, 311);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 312);
        let expect = conv2d_bwd_data_ref(shape, &d_out, &filter);
        let plan = BwdDataPlan::new(32, 4, 8);
        let run = plan.run(&shape, &d_out, &filter).unwrap();
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
        assert_eq!(run.timing.stats.totals.flops, shape.flops());
    }

    #[test]
    fn auto_blocks_ni_at_paper_scale_and_rejects_untileable_blockings() {
        let plan = BwdDataPlan::auto(&ConvShape::new(128, 128, 128, 64, 64, 3, 3));
        assert_eq!((plan.b_b, plan.b_co, plan.b_ni), (32, 16, 32));
        let shape = ConvShape::new(48, 16, 8, 4, 8, 3, 3);
        for (b_b, b_co, b_ni) in [(24, 4, 8), (64, 4, 8), (16, 3, 8), (16, 4, 12)] {
            let fails = BwdDataPlan::new(b_b, b_co, b_ni).supports(&shape).is_err();
            assert!(fails, "{b_b} {b_co} {b_ni}");
        }
    }

    #[test]
    fn cost_only_walk_lands_on_the_functional_run() {
        crate::plans::tests::assert_cost_only_walk_lands_on_the_functional_run("bwd-data");
    }

    #[test]
    fn supports_is_exactly_what_the_walk_allocates() {
        crate::plans::tests::assert_supports_matches_the_walks_ldm("bwd-data");
    }

    #[test]
    fn sampled_timing_tracks_full_timing() {
        crate::plans::tests::assert_sampled_timing_tracks_full_timing("bwd-data");
    }
}
