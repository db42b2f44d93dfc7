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
//! DESIGN.md §16 has the window, the charges and the `Ni` blocking.

use super::gemm_mesh::{lease_scratch, regcomm_gemm_with, zero_c, zero_ldm, GemmBlock};
use super::{finish, ConvRun, LdmBuffers, LoopNest, LowerCtx, MeshWalk, PlanTiming, Slot, Walks};
use crate::error::SwdnnError;
use sw_perfmodel::co_blocks;
use sw_sim::{CpeCtx, Mesh, SimError};
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
        let dy = d_out.to_layout(Layout::ImageAware);
        let w = filter.to_layout(Layout::Nchw);
        let mut output = Tensor4::zeros(shape.input_shape(), Layout::ImageAware);
        let mesh = self.ctx.mesh();
        let timing = self.walk(shape, mesh, dy.data(), w.data(), output.data_mut())?;
        Ok(ConvRun { output, timing })
    }

    /// Sampled full-shape timing (the pass is linear in the output rows).
    pub fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        self.time_sampled(shape)
    }

    /// Per-CPE extents: `[ni8, no8, lanes, m8, n8, row]` — channels of an
    /// `Ni` block, output channels, images (ImageAware lanes), GEMM rows
    /// and pixels, doubles of one window row.
    fn dims(&self, shape: &ConvShape) -> [usize; 6] {
        let dim = self.ctx.chip.mesh_dim;
        let (ni8, lanes) = (self.b_ni / dim, self.b_b / dim);
        let (m8, n8) = (ni8 * shape.kr * shape.kc, lanes * self.b_co);
        [ni8, shape.no / dim, lanes, m8, n8, ni8 * lanes * shape.ci()]
    }
}

impl MeshWalk for BwdDataPlan {
    type Extent = ConvShape;

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
        let [_, no8, _, m8, n8, row] = self.dims(shape);
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
}

impl LoopNest for BwdDataPlan {
    /// The loop nest `run` and `time_full_shape` both walk: `dy` is the
    /// output gradient in [`Layout::ImageAware`], `w` the filters in NCHW,
    /// `dx` the input gradient in [`Layout::ImageAware`].
    fn loop_nest(
        &self,
        shape: &ConvShape,
        mut mesh: Mesh<Slot>,
        dy: &[f64],
        w: &[f64],
        dx: &mut [f64],
    ) -> Result<PlanTiming, SwdnnError> {
        let [ni8, no8, lanes, m8, n8, row] = self.dims(shape);
        let (b_b, b_co, b_ni) = (self.b_b, self.b_co, self.b_ni);
        let (ri, ci, ro, co) = (shape.ri(), shape.ci(), shape.ro, shape.co);
        let (ni, no, kr_n, kc_n) = (shape.ni, shape.no, shape.kr, shape.kc);
        let taps = kr_n * kc_n;
        // Quad and first lane of mesh column `col`'s images in batch block `tb`.
        let quad_lane = |tb: usize, col: usize| {
            let img = tb * b_b + col * lanes;
            (img / 4, img % 4)
        };
        // One channel's DMA runs over `cols` columns: a whole quad is one
        // run, a sub-quad slice a run of `lanes` per column.
        let runs = |cols: usize| match lanes {
            4 => (1, 4 * cols),
            lanes => (cols, lanes),
        };
        // Fetch tile `[_, tb, r_o, tc]`'s dY into B buffer `p`.
        let get_dy =
            |ctx: &mut CpeCtx<'_>, s: &mut Slot, [_, tb, r_o, tc]: [usize; 4], p: usize| {
                let (gq, lane) = quad_lane(tb, ctx.col);
                let (n, len) = runs(b_co);
                for k in 0..no8 {
                    let mem = (((gq * no + ctx.row * no8 + k) * ro + r_o) * co + tc * b_co) * 4;
                    s.b_h[p] =
                        Some(ctx.dma_get_strided(s.b[p], k * n8, dy, mem + lane, n, 4, len)?);
                }
                Ok::<(), SimError>(())
            };
        let store = !mesh.is_cost_only();

        zero_c(&mut mesh, |s: &Slot| s.c)?;
        zero_c(&mut mesh, |s: &Slot| s.win)?;
        let mut scratch = lease_scratch(self.ctx.rt, mesh.chip.mesh_dim);

        // Pixel tiles (Ni block, batch block, output row, column block).
        let tiles: Vec<[usize; 4]> = (0..ni / b_ni)
            .flat_map(|nb| (0..shape.batch / b_b).map(move |tb| (nb, tb)))
            .flat_map(|(nb, tb)| (0..ro).map(move |r| (nb, tb, r)))
            .flat_map(|(nb, tb, r)| (0..co / b_co).map(move |tc| [nb, tb, r, tc]))
            .collect();

        for (t_idx, &[nb, tb, r_o, tc]) in tiles.iter().enumerate() {
            let par = t_idx % 2;
            let next = tiles.get(t_idx + 1).copied();
            // Load superstep: the Ni block's filters on its first tile,
            // this tile's dY (or the prefetched one), the next tile's dY.
            mesh.superstep(|ctx, s| {
                if tb == 0 && r_o == 0 && tc == 0 {
                    let mem = (ctx.col * no8 * ni + nb * b_ni + ctx.row * ni8) * taps;
                    let h = ctx.dma_get_strided(s.a[0], 0, w, mem, no8, ni * taps, m8);
                    s.a_h[0] = Some(h?);
                }
                if t_idx == 0 {
                    get_dy(ctx, s, tiles[0], 0)?;
                }
                if let Some(nx) = next {
                    get_dy(ctx, s, nx, 1 - par)?;
                }
                for h in [s.a_h[0].take(), s.b_h[par].take()].into_iter().flatten() {
                    ctx.dma_wait(h);
                }
                Ok(())
            })?;

            // One rotation for the whole tile, every tap folded into m: A
            // and B are k-major (`no` rows) exactly as fetched.
            regcomm_gemm_with(
                &mut mesh,
                GemmBlock::dense(m8, n8, no8, true),
                &mut scratch,
                |ctx, s: &Slot, dst: &mut Vec<f64>| dst.extend_from_slice(ctx.ldm(s.a[0])),
                |ctx, s: &Slot, dst: &mut Vec<f64>| dst.extend_from_slice(ctx.ldm(s.b[par])),
                |s: &Slot| (s.c, 0),
            )?;

            // col2im superstep: scatter-add C into the window, zero C, put
            // the row(s) this tile completes.
            let row_done = tc + 1 == co / b_co;
            let rows = if r_o + 1 == ro { r_o..ri } else { r_o..r_o + 1 };
            mesh.superstep(|ctx, s| {
                // The last put has drained: its slot becomes row
                // `r_o + Kr − 1`, or a new batch or Ni block clears the window.
                if let Some(h) = s.win_h.take() {
                    ctx.dma_wait(h);
                    let (at, len) = match r_o {
                        0 => (0, kr_n * row),
                        _ => ((r_o + kr_n - 1) % kr_n * row, row),
                    };
                    zero_ldm(ctx, s.win, at, len, store);
                }
                if store {
                    let (c, win) = (s.c.offset, s.win.offset);
                    let data = ctx.ldm_data_mut();
                    for m in 0..m8 {
                        let (nl, kr, kc) = (m / taps, m / kc_n % kr_n, m % kc_n);
                        let slot = (r_o + kr) % kr_n;
                        let dst = win + slot * row + (nl * ci + tc * b_co + kc) * lanes;
                        for i in 0..n8 {
                            data[dst + i] += data[c + m * n8 + i];
                        }
                    }
                }
                // Per vector: load C, load and store the window on P1, add
                // on P0. A `kc` shift moves whole vectors of image lanes, or
                // part of one in a sub-quad run, charged per double.
                let ops = (m8 * n8 / if lanes == 4 { 4 } else { 1 }) as u64;
                ctx.charge_compute(3 * ops);
                ctx.add_ldm_reg_bytes(3 * 8 * (m8 * n8) as u64);
                ctx.add_issue_slots(ops, 3 * ops);
                zero_ldm(ctx, s.c, 0, m8 * n8, store);

                if row_done {
                    let (gq, lane) = quad_lane(tb, ctx.col);
                    let (n, len) = runs(ci);
                    for (r_i, nl) in rows.clone().flat_map(|r| (0..ni8).map(move |nl| (r, nl))) {
                        let ni_l = nb * b_ni + ctx.row * ni8 + nl;
                        let mem = ((gq * ni + ni_l) * ri + r_i) * ci * 4 + lane;
                        let at = r_i % kr_n * row + nl * ci * lanes;
                        let h = ctx.dma_put_scatter(s.win, at, lanes, mem, 4, n, len)?;
                        s.win_h = Some(h);
                    }
                }
                if next.is_none() {
                    if let Some(h) = s.win_h.take() {
                        ctx.dma_wait(h);
                    }
                }
                Ok(())
            })?;
        }
        finish(mesh, dx)
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
