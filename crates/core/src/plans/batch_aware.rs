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

use super::gemm_mesh::GemmBlock;
use super::nest::{Dma, Fetch, Get, Nest, Operand, Operands, Rotate, Step, Walks};
use super::{check_operands, reject_degenerate, tap_major_filter, ConvPlan, ConvRun};
use super::{LdmBuffers, LowerCtx, PlanTiming};
use crate::error::SwdnnError;
use crate::plans::PlanKind;
use sw_perfmodel::{co_blocks, Blocking};
use sw_sim::{CpeCtx, LdmBuf};
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

/// Algorithm 2: `input` in [`Layout::BatchAware`], the filters repacked to
/// `(Kr, Kc, Ni, No)`, the output in [`Layout::BatchAware`].
impl Nest for BatchAwarePlan {
    type Extent = ConvShape;
    /// The shape, and `Ni`, `No` and the batch per mesh row or column.
    type Dims = (ConvShape, [usize; 3]);
    /// First output column, output row.
    type Tile = (usize, usize);

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
        let [ni8, no8, b8] = self.dims(shape).1;
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

    fn dims(&self, s: &ConvShape) -> Self::Dims {
        (
            *s,
            [s.ni, s.no, s.batch].map(|n| n / self.ctx.chip.mesh_dim),
        )
    }

    fn block(&self, &(_, [ni8, no8, b8]): &Self::Dims) -> GemmBlock {
        let dense = GemmBlock::dense(no8, b8, ni8, self.reordered_kernel);
        GemmBlock {
            c_stride: self.b_co * b8,
            ..dense
        }
    }

    fn tiles(&self, (s, _): &Self::Dims) -> impl Iterator<Item = Self::Tile> {
        let ro = s.ro;
        (0..s.co)
            .step_by(self.b_co)
            .flat_map(move |c| (0..ro).map(move |r| (c, r)))
    }

    /// Per `kr`: the filter slice (A, resident; its get is issued with
    /// the first input column and not overlapped), then the `b_Co + Kc − 1`
    /// input columns of row `ro + kr` (B, double-buffered). Column `ci`
    /// feeds one rotation per output column `ci − kc` inside the block
    /// (Algorithm 2's "if cCo >= Costart and cCo < Costart + ..." guard).
    fn steps(&self, d: &Self::Dims, _: Self::Tile) -> impl Iterator<Item = Step> {
        let ((s, [ni8, no8, b8]), b_co) = (*d, self.b_co);
        let kc_n = s.kc;
        let win = b_co + kc_n - 1;
        (0..s.kr).flat_map(move |kr| {
            let slice = Step {
                fetch: [
                    Some((Operand::A, Fetch::Need(kr, 0, 1))),
                    Some((Operand::B, Fetch::Issue(kr, 0))),
                ],
                rotate: None,
            };
            let columns = (0..win).flat_map(move |ci| {
                let first = ci.saturating_sub(b_co - 1);
                (first..kc_n.min(ci + 1)).map(move |kc| Step {
                    fetch: [
                        (kc == first).then_some((Operand::B, Fetch::Need(kr, ci, win))),
                        None,
                    ],
                    rotate: Some(Rotate {
                        a_at: kc * ni8 * no8,
                        b_at: 0,
                        c_at: (ci - kc) * b8,
                    }),
                })
            });
            std::iter::once(slice).chain(columns)
        })
    }

    #[inline]
    fn fetch(&self, ctx: &mut CpeCtx<'_>, d: &Self::Dims, get: Get<Self::Tile>) -> Dma {
        let (&(s, [ni8, no8, b8]), (co0, r_o)) = (d, get.tile);
        let (kr, dst, src) = (get.run, get.dst, get.src);
        if let Operand::A = get.op {
            // One strided request per kc matrix of the slice.
            return (0..s.kc).try_fold(None, |_, kc| {
                let at = ((kr * s.kc + kc) * s.ni + ctx.col * ni8) * s.no + ctx.row * no8;
                ctx.dma_get_strided(dst, kc * ni8 * no8, src, at, ni8, s.no, no8)
                    .map(Some)
            });
        }
        // Collective row-mode DMA: the CPEs of a row jointly fetch the
        // contiguous B-double run of each (ni, pixel).
        let (ri, ci) = (s.ri(), s.ci());
        let at = ((ctx.row * ni8 * ri + r_o + kr) * ci + co0 + get.j) * s.batch;
        ctx.dma_block_hint(8 * s.batch);
        let stride = ri * ci * s.batch;
        ctx.dma_get_strided(dst, 0, src, at + ctx.col * b8, ni8, stride, b8)
            .map(Some)
    }

    /// Per output channel, `b_Co` runs of `B/8` doubles.
    fn put(&self, ctx: &mut CpeCtx<'_>, d: &Self::Dims, c: LdmBuf, t: Self::Tile) -> Dma {
        let (&(s, [_, no8, b8]), (co0, r_o), b_co) = (d, t, self.b_co);
        (0..no8).try_fold(None, |_, m| {
            let at = (((ctx.row * no8 + m) * s.ro + r_o) * s.co + co0) * s.batch + ctx.col * b8;
            ctx.dma_block_hint(8 * s.batch);
            ctx.dma_put_scatter(c, m * b_co * b8, b8, at, s.batch, b_co, b8)
                .map(Some)
        })
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
        reject_degenerate("batch_size_aware", shape)?;
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
        check_operands([(input, shape.input_shape()), (filter, shape.filter_shape())])?;
        let input = input.to_layout(Layout::BatchAware);
        let w = tap_major_filter(filter);
        let mut output = Tensor4::zeros(shape.output_shape(), Layout::BatchAware);
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
