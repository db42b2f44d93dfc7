//! The batch-size-aware convolution plan — Algorithm 2 of the paper.
//!
//! When the batch is large, Eq. 2's required bandwidth is already low
//! without column blocking: the plan streams input *pixel columns* across
//! the whole batch (`Ni × B` doubles per column, contiguous in the
//! `(4, B/4, C, R, N)` layout, so the collective DMA block is `8·B` bytes —
//! deep into the fast region of the Table II curve).
//!
//! For each output-column block and output row:
//!
//! 1. zero the distributed `No × b_Co × B` accumulator;
//! 2. for each `kr`: DMA the filter slice `W[kr][·]`, then stream the
//!    `b_Co + Kc − 1` input columns of row `ro + kr` (double-buffered);
//!    each column `ci` feeds up to `Kc` register-communication GEMMs, one
//!    per output column `co = ci − kc` inside the block
//!    (Algorithm 2's "if cCo >= Costart and cCo < Costart + ..." guard);
//! 3. DMA the output block back.
//!
//! Mesh distribution: input channels `ni ∈ chunk_i` with batch slice
//! `b ∈ chunk_j`; filters `no ∈ chunk_i`, `ni ∈ chunk_j`; outputs
//! `no ∈ chunk_i`, `b ∈ chunk_j`.

use super::gemm_mesh::{lease_scratch, regcomm_gemm_with, zero_c, GemmBlock};
use super::{finish, tap_major_filter, ConvPlan, ConvRun, LdmBuffers, LowerCtx, MeshWalk};
use super::{PlanTiming, Slot, Walks};
use crate::error::SwdnnError;
use crate::plans::PlanKind;
use sw_perfmodel::{co_blocks, Blocking};
use sw_sim::Mesh;
use sw_tensor::{ConvShape, Layout, Tensor4};

/// Algorithm 2. `b_co` is the output-column block held in LDM at once.
#[derive(Clone, Copy, Debug)]
pub struct BatchAwarePlan {
    /// Where the simulated mesh runs: chip, injected faults, host runtime.
    pub ctx: LowerCtx,
    pub b_co: usize,
    /// §VI kernel selection (ablation switch).
    pub reordered_kernel: bool,
}

impl BatchAwarePlan {
    pub fn new(b_co: usize) -> Self {
        Self {
            ctx: LowerCtx::default(),
            b_co,
            reordered_kernel: true,
        }
    }

    /// Pick the largest `b_co ≤ 16` dividing `Co` that fits LDM.
    pub fn auto(shape: &ConvShape) -> Self {
        Self::auto_on(LowerCtx::default(), shape)
    }

    /// [`BatchAwarePlan::auto`] in an explicit context: `b_co` is chosen
    /// against that context's (possibly degraded) chip.
    pub fn auto_on(ctx: LowerCtx, shape: &ConvShape) -> Self {
        co_blocks(shape.co, 16)
            .map(|b_co| Self::new(b_co).on(ctx))
            .find(|plan| ctx.fit_ldm(plan.ldm_doubles(shape)).is_ok())
            .unwrap_or_else(|| Self::new(1).on(ctx))
    }

    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }
}

impl ConvPlan for BatchAwarePlan {
    fn name(&self) -> &'static str {
        "batch_size_aware"
    }

    fn kind(&self) -> PlanKind {
        PlanKind::BatchSizeAware
    }

    fn blocking(&self, shape: &ConvShape) -> Blocking {
        // Algorithm 2 streams the whole batch and holds a b_co output
        // window; report the executed values, not the selector's.
        Blocking {
            b_b: shape.batch,
            b_co: self.b_co,
        }
    }

    fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError> {
        let fail = |reason: String| Err(SwdnnError::unsupported("batch_size_aware", shape, reason));
        let dim = self.ctx.chip.mesh_dim;
        if !shape.ni.is_multiple_of(dim) || !shape.no.is_multiple_of(dim) {
            return fail(format!("Ni and No must be multiples of {dim}"));
        }
        if !shape.batch.is_multiple_of(dim) {
            return fail(format!("batch must be a multiple of {dim}"));
        }
        if !shape.co.is_multiple_of(self.b_co) {
            return fail(format!(
                "Co {} not divisible by b_co {}",
                shape.co, self.b_co
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
        let input = input.to_layout(Layout::BatchAware);
        let w = tap_major_filter(filter);
        let mut output = Tensor4::zeros(shape.output_shape(), Layout::BatchAware);
        let timing = self.walk(shape, self.ctx.mesh(), input.data(), &w, output.data_mut())?;
        Ok(ConvRun { output, timing })
    }

    fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        self.supports(shape)?;
        self.time_sampled(shape)
    }
}

impl MeshWalk for BatchAwarePlan {
    type Extent = ConvShape;

    fn ctx(&self) -> &LowerCtx {
        &self.ctx
    }

    fn operand_lens(&self, shape: &ConvShape) -> [usize; 3] {
        let layout = Layout::BatchAware;
        let [i, o] = [shape.input_shape(), shape.output_shape()].map(|s| layout.buffer_len(s));
        [i, shape.filter_shape().len(), o]
    }

    /// A: one filter slice (the `Kc` matrices of the current `kr`); B: the
    /// input column, double-buffered; C: the output block.
    fn ldm_buffers(&self, shape: &ConvShape) -> LdmBuffers {
        let dim = self.ctx.chip.mesh_dim;
        let (ni8, no8, b8) = (shape.ni / dim, shape.no / dim, shape.batch / dim);
        [
            (shape.kc * ni8 * no8, 1),
            (ni8 * b8, 2),
            (no8 * self.b_co * b8, 1),
            (0, 0),
        ]
    }

    /// Whole-batch tiles: one `b_co` column block per output row.
    fn timing_walks(&self, shape: &ConvShape) -> Walks<ConvShape> {
        Walks::pixel_tiles(shape, shape.batch, self.b_co)
    }

    /// Algorithm 2's loop nest — the one `run` and `time_full_shape` both
    /// walk. `in_data` is the input in [`Layout::BatchAware`], `w_flat` the
    /// filters repacked to `(Kr, Kc, Ni, No)`, `out` the output buffer in
    /// [`Layout::BatchAware`].
    fn loop_nest(
        &self,
        shape: &ConvShape,
        mut mesh: Mesh<Slot>,
        in_data: &[f64],
        w_flat: &[f64],
        out: &mut [f64],
    ) -> Result<PlanTiming, SwdnnError> {
        let dim = self.ctx.chip.mesh_dim;
        let (ni8, no8, b8) = (shape.ni / dim, shape.no / dim, shape.batch / dim);
        let b_co = self.b_co;
        let (ri, ci_n) = (shape.ri(), shape.ci());
        let (ro_n, co_n, kr_n, kc_n) = (shape.ro, shape.co, shape.kr, shape.kc);
        let (ni, no, batch) = (shape.ni, shape.no, shape.batch);

        // Fetch one input column (ci, ri) into di[p]; returns via state.
        let get_column = |ctx: &mut sw_sim::CpeCtx<'_>,
                          s: &mut Slot,
                          ci: usize,
                          r_i: usize,
                          p: usize|
         -> Result<(), sw_sim::SimError> {
            // Collective row-mode DMA: the 8 CPEs of a row jointly fetch
            // the contiguous B-double run of each (ni, pixel).
            let src_off = ((ctx.row * ni8) * ri + r_i) * ci_n * batch + ci * batch + ctx.col * b8;
            ctx.dma_block_hint(8 * batch);
            let h = ctx.dma_get_strided(s.b[p], 0, in_data, src_off, ni8, ri * ci_n * batch, b8)?;
            s.b_h[p] = Some(h);
            Ok(())
        };

        // One pack/payload arena reused by every GEMM rotation below, leased
        // from the execution context across runs.
        let mut scratch = lease_scratch(self.ctx.rt, mesh.chip.mesh_dim);

        for tile_c in 0..co_n / b_co {
            let co0 = tile_c * b_co;
            let win = b_co + kc_n - 1;
            for r_o in 0..ro_n {
                zero_c(&mut mesh, |s: &Slot| s.c)?;
                for kr in 0..kr_n {
                    let r_i = r_o + kr;
                    // Filter slice for this kr + first input column.
                    mesh.superstep(|ctx, s| {
                        let src_off = (kr * kc_n * ni + ctx.col * ni8) * no + ctx.row * no8;
                        // One strided request per kc slice.
                        let mut last = None;
                        for kc in 0..kc_n {
                            let h = ctx.dma_get_strided(
                                s.a[0],
                                kc * ni8 * no8,
                                w_flat,
                                src_off + kc * ni * no,
                                ni8,
                                no,
                                no8,
                            )?;
                            last = Some(h);
                        }
                        s.a_h[0] = last;
                        get_column(ctx, s, co0, r_i, 0)?;
                        if let Some(h) = s.a_h[0].take() {
                            ctx.dma_wait(h);
                        }
                        Ok(())
                    })?;

                    for ci_local in 0..win {
                        let ci = co0 + ci_local;
                        let p = ci_local % 2;
                        // Wait for this column, prefetch the next.
                        mesh.superstep(|ctx, s| {
                            if ci_local + 1 < win {
                                get_column(ctx, s, ci + 1, r_i, (ci_local + 1) % 2)?;
                            }
                            if let Some(h) = s.b_h[p].take() {
                                ctx.dma_wait(h);
                            }
                            Ok(())
                        })?;

                        for kc in 0..kc_n {
                            if ci < kc {
                                continue;
                            }
                            let co = ci - kc;
                            if co < co0 || co >= co0 + b_co || co >= co_n {
                                continue;
                            }
                            let co_local = co - co0;
                            regcomm_gemm_with(
                                &mut mesh,
                                GemmBlock {
                                    m8: no8,
                                    n8: b8,
                                    k8: ni8,
                                    c_stride: b_co * b8,
                                    reordered: self.reordered_kernel,
                                },
                                &mut scratch,
                                move |ctx, s: &Slot, dst: &mut Vec<f64>| {
                                    dst.extend_from_slice(
                                        &ctx.ldm(s.a[0])[kc * ni8 * no8..(kc + 1) * ni8 * no8],
                                    );
                                },
                                move |ctx, s: &Slot, dst: &mut Vec<f64>| {
                                    dst.extend_from_slice(ctx.ldm(s.b[p]));
                                },
                                move |s: &Slot| (s.c, co_local * b8),
                            )?;
                        }
                    }
                }

                // Store the output block: per (no_local): scatter b_co runs
                // of b8 doubles.
                mesh.superstep(|ctx, s| {
                    let mut last = None;
                    for no_l in 0..no8 {
                        let n_o = ctx.row * no8 + no_l;
                        let dst_off =
                            (n_o * ro_n + r_o) * co_n * batch + co0 * batch + ctx.col * b8;
                        ctx.dma_block_hint(8 * batch);
                        let h = ctx.dma_put_scatter(
                            s.c,
                            no_l * b_co * b8,
                            b8,
                            dst_off,
                            batch,
                            b_co,
                            b8,
                        )?;
                        last = Some(h);
                    }
                    if let Some(h) = last {
                        ctx.dma_wait(h);
                    }
                    Ok(())
                })?;
            }
        }

        finish(mesh, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::conv2d_ref;
    use sw_tensor::init::{lattice_tensor, seeded_tensor};

    fn small_shape() -> ConvShape {
        ConvShape::new(16, 8, 8, 4, 8, 3, 3)
    }

    #[test]
    fn matches_reference_exactly_on_lattice_data() {
        let shape = small_shape();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 13);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 14);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = BatchAwarePlan::new(4).run(&shape, &input, &filter).unwrap();
        assert_eq!(run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn matches_reference_on_asymmetric_filters() {
        // kr != kc exercises the (kr, kc) bookkeeping.
        let shape = ConvShape::new(8, 8, 16, 3, 6, 2, 3);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 15);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 16);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = BatchAwarePlan::new(2).run(&shape, &input, &filter).unwrap();
        assert!(run.output.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn matches_reference_with_1x1_filter() {
        let shape = ConvShape::new(8, 8, 8, 4, 4, 1, 1);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 17);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 18);
        let expect = conv2d_ref(shape, &input, &filter);
        let run = BatchAwarePlan::new(4).run(&shape, &input, &filter).unwrap();
        assert!(run.output.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn auto_blocking_fits_ldm() {
        let shape = ConvShape::new(128, 256, 256, 64, 64, 3, 3);
        let plan = BatchAwarePlan::auto(&shape);
        assert!(plan.ldm_doubles(&shape) <= plan.ctx.chip.ldm_doubles());
        assert!(plan.supports(&shape).is_ok());
    }

    #[test]
    fn rejects_oversized_channels() {
        // Ni=No=384: the filter slice alone (3*48*48*... ) blows LDM.
        let shape = ConvShape::new(128, 384, 384, 64, 64, 3, 3);
        let plan = BatchAwarePlan::new(1);
        assert!(plan.supports(&shape).is_err());
    }

    #[test]
    fn timing_and_flops_are_exact() {
        let shape = small_shape();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 19);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 20);
        let run = BatchAwarePlan::new(4).run(&shape, &input, &filter).unwrap();
        assert_eq!(run.timing.stats.totals.flops, shape.flops());
        assert!(run.timing.cycles > 0);
    }

    #[test]
    fn cost_only_walk_lands_on_the_functional_run() {
        crate::plans::tests::assert_cost_only_walk_lands_on_the_functional_run("batch-aware");
    }

    #[test]
    fn supports_is_exactly_what_the_walk_allocates() {
        crate::plans::tests::assert_supports_matches_the_walks_ldm("batch-aware");
    }

    #[test]
    fn sampled_timing_tracks_full_timing() {
        crate::plans::tests::assert_sampled_timing_tracks_full_timing("batch-aware");
    }
}
