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

use super::gemm_mesh::{lease_scratch, regcomm_gemm_with, zero_c, GemmBlock};
use super::{finish, LdmBuffers, LoopNest, LowerCtx, MeshWalk, PlanTiming, Slot, Walks};
use crate::error::SwdnnError;
use sw_perfmodel::co_blocks;
use sw_sim::Mesh;
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
        let (kr_n, kc_n, ni, no) = (shape.kr, shape.kc, shape.ni, shape.no);
        let input = input.to_layout(Layout::ImageAware);
        let g = d_out.to_layout(Layout::ImageAware);
        // Global accumulation buffer ordered [(kr*Kc+kc)][no][ni].
        let mut dw_flat = vec![0.0f64; kr_n * kc_n * no * ni];
        let timing = self.walk(shape, self.ctx.mesh(), input.data(), g.data(), &mut dw_flat)?;

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

impl MeshWalk for BwdFilterPlan {
    type Extent = ConvShape;

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
        let dim = self.ctx.chip.mesh_dim;
        let (ni8, no8) = (shape.ni / dim, shape.no / dim);
        let quads = self.b_b / (4 * dim);
        let win4 = 4 * (self.b_co + shape.kc - 1);
        [
            (no8 * quads * 4 * self.b_co, 2),
            (shape.kr * quads * ni8 * win4, 2),
            (no8 * shape.kr * shape.kc * ni8, 1),
            (0, 0),
        ]
    }

    fn timing_walks(&self, shape: &ConvShape) -> Walks<ConvShape> {
        Walks::pixel_tiles(shape, self.b_b, self.b_co)
    }
}

impl LoopNest for BwdFilterPlan {
    /// The pixel-tile loop nest — the one `run` and `time_full_shape` both
    /// walk. `in_data` and `g_data` are the activations and the output
    /// gradient in [`Layout::ImageAware`], `dw_flat` the gradient buffer
    /// ordered `[(kr·Kc+kc)][no][ni]`.
    fn loop_nest(
        &self,
        shape: &ConvShape,
        mut mesh: Mesh<Slot>,
        in_data: &[f64],
        g_data: &[f64],
        dw_flat: &mut [f64],
    ) -> Result<PlanTiming, SwdnnError> {
        let dim = self.ctx.chip.mesh_dim;
        let (ni8, no8) = (shape.ni / dim, shape.no / dim);
        let quads = self.b_b / (4 * dim);
        let (b_b, b_co) = (self.b_b, self.b_co);
        let win4 = 4 * (b_co + shape.kc - 1);
        let (ri, ci) = (shape.ri(), shape.ci());
        let (ro, co, kr_n, kc_n) = (shape.ro, shape.co, shape.kr, shape.kc);
        let (ni, no) = (shape.ni, shape.no);
        let n8 = quads * 4 * b_co; // pixels per chunk
        let taps = kr_n * kc_n;

        zero_c(&mut mesh, |s: &Slot| s.c)?;

        // One pack/payload arena reused by every GEMM rotation below, leased
        // from the execution context across runs.
        let mut scratch = lease_scratch(self.ctx.rt, mesh.chip.mesh_dim);

        // Pixel tiles: (batch block, output row, column block).
        let tiles: Vec<(usize, usize, usize)> = (0..shape.batch / b_b)
            .flat_map(|tb| (0..ro).flat_map(move |r| (0..co / b_co).map(move |tc| (tb, r, tc))))
            .collect();

        for (t_idx, &tile) in tiles.iter().enumerate() {
            let par = t_idx % 2;
            // Load superstep: issue this tile's operands (or reuse the
            // prefetched ones), prefetch the next tile, wait.
            let next = tiles.get(t_idx + 1).copied();
            mesh.superstep(|ctx, s| {
                let issue = |ctx: &mut sw_sim::CpeCtx<'_>,
                             s: &mut Slot,
                             tile: (usize, usize, usize),
                             p: usize|
                 -> Result<(), sw_sim::SimError> {
                    let (tb, r_o, tc) = tile;
                    let co0 = tc * b_co;
                    // g: batch quad j, no in chunk_i, row r_o, cols co0..+b_co.
                    let mut last = None;
                    for q in 0..quads {
                        let gq = (tb * b_b) / 4 + ctx.col * quads + q;
                        let src_off = (((gq * no + ctx.row * no8) * ro + r_o) * co + co0) * 4;
                        let h = ctx.dma_get_strided(
                            s.a[p],
                            q * no8 * 4 * b_co,
                            g_data,
                            src_off,
                            no8,
                            ro * co * 4,
                            4 * b_co,
                        )?;
                        last = Some(h);
                    }
                    s.a_h[p] = last;
                    // x: batch quad i, ni in chunk_j, rows r_o..r_o+Kr,
                    // cols co0..co0+b_co+Kc-1.
                    let mut lastx = None;
                    for kr in 0..kr_n {
                        for q in 0..quads {
                            let gq = (tb * b_b) / 4 + ctx.row * quads + q;
                            let src_off =
                                (((gq * ni + ctx.col * ni8) * ri + r_o + kr) * ci + co0) * 4;
                            let h = ctx.dma_get_strided(
                                s.b[p],
                                (kr * quads + q) * ni8 * win4,
                                in_data,
                                src_off,
                                ni8,
                                ri * ci * 4,
                                win4,
                            )?;
                            lastx = Some(h);
                        }
                    }
                    s.b_h[p] = lastx;
                    Ok(())
                };
                if t_idx == 0 {
                    issue(ctx, s, tile, 0)?;
                }
                if let Some(nx) = next {
                    issue(ctx, s, nx, (t_idx + 1) % 2)?;
                }
                if let Some(h) = s.a_h[par].take() {
                    ctx.dma_wait(h);
                }
                if let Some(h) = s.b_h[par].take() {
                    ctx.dma_wait(h);
                }
                Ok(())
            })?;

            // One rotation for the whole tile, every tap folded into n.
            regcomm_gemm_with(
                &mut mesh,
                GemmBlock::dense(no8, taps * ni8, n8, true),
                &mut scratch,
                // A block: g, packed k-major (pixel, no).
                move |ctx, s: &Slot, dst: &mut Vec<f64>| {
                    let gbuf = ctx.ldm(s.a[par]);
                    for q in 0..quads {
                        for p in 0..4 * b_co {
                            for m in 0..no8 {
                                dst.push(gbuf[(q * no8 + m) * 4 * b_co + p]);
                            }
                        }
                    }
                },
                // B block: packed k-major (pixel, (kr·Kc+kc)·ni8 + ni),
                // every tap's window read from the same LDM buffer.
                move |ctx, s: &Slot, dst: &mut Vec<f64>| {
                    let xbuf = ctx.ldm(s.b[par]);
                    for q in 0..quads {
                        for p in 0..b_co {
                            for lane in 0..4 {
                                for kr in 0..kr_n {
                                    let row = (kr * quads + q) * ni8 * win4 + lane;
                                    for kc in 0..kc_n {
                                        let at = row + 4 * (p + kc);
                                        dst.extend((0..ni8).map(|nl| xbuf[at + nl * win4]));
                                    }
                                }
                            }
                        }
                    }
                },
                |s: &Slot| (s.c, 0),
            )?;
        }

        // Store the accumulated dW blocks.
        mesh.superstep(|ctx, s| {
            let mut last = None;
            for krkc in 0..taps {
                for m in 0..no8 {
                    let n_o = ctx.row * no8 + m;
                    let dst = (krkc * no + n_o) * ni + ctx.col * ni8;
                    let h = ctx.dma_put(s.c, (m * taps + krkc) * ni8, dst, ni8)?;
                    last = Some(h);
                }
            }
            if let Some(h) = last {
                ctx.dma_wait(h);
            }
            Ok(())
        })?;
        finish(mesh, dw_flat)
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
