//! Convolution plans: the paper's mappings of the convolution kernel onto
//! one SW26010 core group.
//!
//! All mesh plans share the same skeleton:
//!
//! 1. distribute operand tiles over the 8×8 CPE mesh with **no duplicated
//!    data** (§V-A), using DMA block sizes the Table II curve rewards;
//! 2. run the **register-communication GEMM** ([`gemm_mesh`]): 8 rotation
//!    rounds in which one mesh column broadcasts filter blocks along rows
//!    and one mesh row broadcasts image blocks along columns (Fig. 3);
//! 3. price the per-CPE compute with the software-pipelined inner kernel of
//!    §VI (`17·(Ni/8) + 4` cycles per 4×16 register tile);
//! 4. double-buffer DMA against compute (§IV-A).
//!
//! Every plan's `run` computes real `f64` results, checked against the
//! reference convolution in the test suites, and every plan's `supports`
//! first rejects a degenerate shape (`reject_degenerate`). Each mesh plan
//! is stated by one crate-private trait, `nest::Nest`: its context, its
//! operands, the LDM its walk holds (`ldm_buffers`, stated once: the walk
//! allocates that list and `supports` checks its sum, so a plan fits
//! exactly when its walk does), its timing samples, and only its tiles,
//! steps, strided gets, packs and put to the one loop nest, `Nest::walk`,
//! which all five mesh plans share; a backward pass is one tile whose steps
//! are its pixel tiles. `run` hands the walk prepared operands on a
//! functional mesh; the one timing protocol, `Nest::time_sampled`, hands it
//! only the operands' lengths on a cost-only mesh
//! ([`sw_sim::Mesh::cost_only`]), which charges every cycle and counter
//! without moving or multiplying anything, for two outer-loop samples and
//! the line through them. Either mesh comes from the plan's one
//! [`LowerCtx`] (chip, injected faults, host runtime), and every walk ends
//! in the same epilogue, `finish` — the direct plan's functional run
//! included (its timing is closed form).
//!
//! A forward plan is described by a [`Schedule`], and [`Schedule::build`]
//! is the one place a description becomes one of these structs: `Conv2d`,
//! the resilient fallback chain, the plan cache and the autotuner all go
//! through it.

mod batch_aware;
mod bwd_data;
mod bwd_filter;
mod direct;
pub mod gemm_mesh;
mod image_aware;
mod nest;
mod patch_gemm;
mod reference;
mod schedule;

pub use batch_aware::BatchAwarePlan;
pub use bwd_data::BwdDataPlan;
pub use bwd_filter::BwdFilterPlan;
pub use direct::DirectPlan;
pub use image_aware::ImageAwarePlan;
pub use patch_gemm::PatchGemmPlan;
pub(crate) use reference::ReferencePlan;
pub(crate) use schedule::LoopOrder;
pub use schedule::{lower_schedule, LowerCtx, Schedule};

use crate::error::SwdnnError;
use sw_perfmodel::{Blocking, ChipSpec, PlanKind};
use sw_sim::{CgStats, DmaHandle, LdmBuf, Mesh};
use sw_tensor::{ConvShape, Shape4, Tensor4};

/// Timing of one plan execution on one core group.
#[derive(Clone, Copy, Debug)]
pub struct PlanTiming {
    /// Simulated wall cycles on the CG.
    pub cycles: u64,
    /// Aggregate counters.
    pub stats: CgStats,
    /// True when the cycles were extrapolated from sampled outer iterations
    /// rather than a full simulation.
    pub sampled: bool,
}

impl PlanTiming {
    /// Attained Gflops given the convolution's true flop count.
    pub fn gflops(&self, shape: &ConvShape, chip: &ChipSpec) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let secs = self.cycles as f64 / (chip.clock_ghz * 1e9);
        shape.flops() as f64 / secs / 1e9
    }

    /// Fraction of one CG's peak attained.
    pub fn efficiency(&self, shape: &ConvShape, chip: &ChipSpec) -> f64 {
        self.gflops(shape, chip) / chip.peak_gflops_per_cg()
    }
}

impl From<CgStats> for PlanTiming {
    /// The timing of a whole walk (or a closed form): nothing sampled.
    fn from(stats: CgStats) -> Self {
        Self {
            cycles: stats.cycles,
            stats,
            sampled: false,
        }
    }
}

/// Result of running a plan: the output tensor plus timing.
#[derive(Clone, Debug)]
pub struct ConvRun {
    pub output: Tensor4<f64>,
    pub timing: PlanTiming,
}

/// A convolution execution strategy.
pub trait ConvPlan {
    fn name(&self) -> &'static str;
    fn kind(&self) -> PlanKind;

    /// The LDM blocking this plan *actually executes* `shape` with.
    ///
    /// Reports must derive their model columns from this, not from a fresh
    /// `select_plan` call: when the plan kind was forced (or the selector
    /// would pick a different blocking than the instantiated plan), the
    /// two can disagree and the report would describe a plan that was
    /// never measured. Plans without a meaningful blocking (direct,
    /// reference) keep the model's default.
    fn blocking(&self, _shape: &ConvShape) -> Blocking {
        Blocking::default()
    }

    /// Can this plan run `shape` at all (divisibility + LDM budget)?
    fn supports(&self, shape: &ConvShape) -> Result<(), SwdnnError>;

    /// Execute the full convolution (real arithmetic, full timing).
    fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ConvRun, SwdnnError>;

    /// Timing of the full shape without its arithmetic, for a shape
    /// `supports` accepts: a mesh plan's `Nest::time_sampled`, else a
    /// closed form or the model.
    fn time_full_shape(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError>;
}

/// Every plan's first `supports` check: a shape with a zero extent, or
/// whose counts overflow ([`ConvShape::is_valid`]), is no convolution to run.
pub(crate) fn reject_degenerate(plan: &'static str, shape: &ConvShape) -> Result<(), SwdnnError> {
    if shape.is_valid() {
        return Ok(());
    }
    Err(SwdnnError::unsupported(plan, shape, "degenerate shape"))
}

/// Every entry point's operand check, once its shape is known to be no
/// degenerate one: each operand has the shape the convolution expects of it.
pub(crate) fn check_operands<const N: usize>(
    operands: [(&Tensor4<f64>, Shape4); N],
) -> Result<(), SwdnnError> {
    for (tensor, expected) in operands {
        if tensor.shape() != expected {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{expected:?}"),
                got: format!("{:?}", tensor.shape()),
            });
        }
    }
    Ok(())
}

/// The epilogue of every mesh plan's walk, once its logged DMA puts are
/// drained: check that no bus message was left undelivered, and read the
/// timing off the mesh, which simulated every outer iteration it was given.
pub(crate) fn finish(mesh: Mesh<impl Send>) -> Result<PlanTiming, SwdnnError> {
    mesh.assert_inboxes_empty()?;
    Ok(mesh.stats().into())
}

/// One CPE's state in a mesh plan's walk: its GEMM's LDM buffers — operands
/// A and B (`[1]` unused when single-buffered) and the accumulator C — the
/// backward-data pass's `dX` window, and the DMA in flight into A and B and
/// out of the window.
#[derive(Default)]
pub(crate) struct Slot {
    a: [LdmBuf; 2],
    b: [LdmBuf; 2],
    c: LdmBuf,
    win: LdmBuf,
    a_h: [Option<DmaHandle>; 2],
    b_h: [Option<DmaHandle>; 2],
    win_h: Option<DmaHandle>,
}

impl Slot {
    /// An operand's copies and the DMA in flight into each.
    fn operand(&mut self, op: nest::Operand) -> (&[LdmBuf; 2], &mut [Option<DmaHandle>; 2]) {
        match op {
            nest::Operand::A => (&self.a, &mut self.a_h),
            nest::Operand::B => (&self.b, &mut self.b_h),
        }
    }
}

/// The LDM a walk holds per CPE: `(len in doubles, copies)` of [`Slot`]'s
/// `a`, `b`, `c` and `win`, `copies` 2 where an operand is double-buffered
/// and 0 where the walk does not hold it.
pub(crate) type LdmBuffers = [(usize, usize); 4];

/// Filters repacked host-side to `(Kr, Kc, Ni, No)`, so each `(kr, kc)` tap
/// is one contiguous `Ni × No` matrix a CPE fetches with a strided DMA.
pub(crate) fn tap_major_filter(filter: &Tensor4<f64>) -> Vec<f64> {
    let f = filter.shape();
    let (no, ni, kr_n, kc_n) = (f.d0, f.d1, f.d2, f.d3);
    let mut w_flat = vec![0.0f64; kr_n * kc_n * ni * no];
    for n_o in 0..no {
        for n_i in 0..ni {
            for kr in 0..kr_n {
                for kc in 0..kc_n {
                    w_flat[((kr * kc_n + kc) * ni + n_i) * no + n_o] = filter.get(n_o, n_i, kr, kc);
                }
            }
        }
    }
    w_flat
}

#[cfg(test)]
mod tests {
    use super::nest::{extrapolate, Nest, Walks};
    use super::*;
    use sw_sim::{CpeStats, FaultPlan};
    use sw_tensor::init::seeded_tensor;
    use sw_tensor::{ConvGeometry, Layout, Shape4};

    fn timing(cycles: u64, flops: u64) -> PlanTiming {
        PlanTiming {
            cycles,
            stats: CgStats {
                cycles,
                totals: CpeStats {
                    flops,
                    ..Default::default()
                },
                ..Default::default()
            },
            sampled: false,
        }
    }

    #[test]
    fn extrapolation_recovers_linear_cost() {
        // cost = 100 + 50*N
        let t1 = timing(150, 10);
        let t2 = timing(200, 20);
        let full = extrapolate([(t1, 1), (t2, 2)], 100);
        assert_eq!(full.cycles, 100 + 50 * 100);
        assert_eq!(full.stats.totals.flops, 10 * 100);
        assert!(full.sampled);
    }

    #[test]
    fn extrapolation_is_the_signed_line_through_both_samples() {
        // Cycles fall and flops more than double between the samples: the
        // two-row count lands on the second sample, and far out the falling
        // line floors at 0.
        let samples = [(timing(300, 4), 1), (timing(200, 10), 2)];
        let at2 = extrapolate(samples, 2);
        assert_eq!((at2.cycles, at2.stats.totals.flops), (200, 10));
        assert_eq!(extrapolate(samples, 10).cycles, 0);
    }

    #[test]
    fn gflops_from_timing() {
        let shape = ConvShape::new(8, 8, 8, 4, 4, 3, 3);
        let chip = ChipSpec::sw26010();
        let t = timing(1450, 0); // 1 µs
        let expected = shape.flops() as f64 / 1e-6 / 1e9;
        assert!((t.gflops(&shape, &chip) - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "two distinct")]
    fn extrapolate_rejects_bad_samples() {
        let t = timing(100, 1);
        let _ = extrapolate([(t, 2), (t, 2)], 10);
    }

    /// A functional run and a cost-only walk of one extent: the functional
    /// timing, the cost-only timing, the output's bits.
    type Walked = (PlanTiming, PlanTiming, Vec<u64>);

    fn bits(t: &Tensor4<f64>) -> Vec<u64> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    fn run_seeded(plan: &dyn ConvPlan, shape: ConvShape) -> ConvRun {
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 1);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 2);
        plan.run(&shape, &input, &filter).unwrap()
    }

    fn dense<P: ConvPlan + Nest<Extent = ConvShape>>(plan: P, shape: ConvShape) -> Walked {
        let run = run_seeded(&plan, shape);
        (
            run.timing,
            plan.time_cost_only(&shape).unwrap(),
            bits(&run.output),
        )
    }

    /// The backward-filter pass, whose flop count is exact.
    fn bwd(plan: BwdFilterPlan, shape: ConvShape) -> Walked {
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 1);
        let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 2);
        let (dw, ran) = plan.run(&shape, &input, &d_out).unwrap();
        assert_eq!(ran.stats.totals.flops, shape.flops(), "{shape}");
        (ran, plan.time_cost_only(&shape).unwrap(), bits(&dw))
    }

    /// The backward-data pass, whose flop count is exact.
    fn bwd_data(plan: BwdDataPlan, shape: ConvShape) -> Walked {
        let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 1);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 2);
        let ConvRun { output, timing } = plan.run(&shape, &d_out, &filter).unwrap();
        assert_eq!(timing.stats.totals.flops, shape.flops(), "{shape}");
        (timing, plan.time_cost_only(&shape).unwrap(), bits(&output))
    }

    fn general(plan: PatchGemmPlan, geom: ConvGeometry, ishape: Shape4, no: usize) -> Walked {
        let input = seeded_tensor(ishape, Layout::Nchw, 1);
        let filter = seeded_tensor(
            Shape4::new(no, ishape.d1, geom.kr, geom.kc),
            Layout::Nchw,
            2,
        );
        let run = plan.run_general(&geom, &input, &filter).unwrap();
        (
            run.timing,
            plan.time_general(&geom, ishape, no).unwrap(),
            bits(&run.output),
        )
    }

    /// The rows of the mesh plans' two timing tables whose label starts
    /// with `plan`; each plan's own tests run its rows.
    fn rows_of<T>(
        plan: &str,
        rows: impl IntoIterator<Item = (&'static str, T)>,
    ) -> Vec<(&'static str, T)> {
        let rows: Vec<_> = rows
            .into_iter()
            .filter(|(case, _)| case.starts_with(plan))
            .collect();
        assert!(!rows.is_empty(), "no timing rows for {plan}");
        rows
    }

    /// Per mesh plan a paper-scale sample and a ragged small extent, each
    /// fault-free, with DMA retries eating into the double-buffer slack, and
    /// with CPE stalls on top; the small extents on the degraded 4×4 chip
    /// too. The cost-only walk lands exactly on the functional run — with
    /// its GEMM rotations priced in one step where no fault can touch them,
    /// stepped under the stalls — and faults cost time, never output bits.
    pub(super) fn assert_cost_only_walk_lands_on_the_functional_run(plan: &str) {
        let image = |b_co| ImageAwarePlan::new(sw_perfmodel::Blocking { b_b: 32, b_co });
        let row4 = ConvShape::new(128, 128, 384, 64, 64, 3, 3);
        let paper = ConvShape::new(128, 128, 128, 64, 64, 3, 3);
        /// (case, also on the degraded 4×4 chip, walk)
        type Case<'a> = (&'static str, bool, &'a dyn Fn(LowerCtx) -> Walked);
        let cases: [Case; 10] = [
            (
                "image-aware, Table III row 2 one-row sample",
                false,
                &|ctx| dense(image(8).on(ctx), ConvShape::new(32, 128, 256, 1, 8, 3, 3)),
            ),
            ("image-aware, ragged, Ni blocked", true, &|ctx| {
                let plan = image(4).with_ni_blocking(8).on(ctx);
                dense(plan, ConvShape::new(32, 16, 8, 3, 8, 2, 3))
            }),
            (
                "batch-aware, Table III row 4 one-row sample",
                false,
                &|ctx| {
                    let plan = BatchAwarePlan::auto_on(ctx, &row4);
                    dense(plan, ConvShape::new(128, 128, 384, 1, plan.b_co, 3, 3))
                },
            ),
            ("batch-aware, asymmetric filter", true, &|ctx| {
                dense(
                    BatchAwarePlan::new(2).on(ctx),
                    ConvShape::new(8, 8, 16, 3, 6, 2, 3),
                )
            }),
            ("bwd-filter, 128x128 layer one-row sample", false, &|ctx| {
                let plan = BwdFilterPlan::auto_on(ctx, &paper);
                bwd(plan, ConvShape::new(plan.b_b, 128, 128, 1, plan.b_co, 3, 3))
            }),
            ("bwd-filter, asymmetric filter", true, &|ctx| {
                bwd(
                    BwdFilterPlan::new(32, 4).on(ctx),
                    ConvShape::new(32, 16, 8, 3, 8, 2, 3),
                )
            }),
            ("bwd-data, 128x128 layer one-row sample", false, &|ctx| {
                let plan = BwdDataPlan::auto_on(ctx, &paper);
                bwd_data(plan, ConvShape::new(plan.b_b, 128, 128, 1, plan.b_co, 3, 3))
            }),
            ("bwd-data, ragged, asymmetric filter", true, &|ctx| {
                let plan = BwdDataPlan::new(16, 3, 8).on(ctx);
                bwd_data(plan, ConvShape::new(16, 16, 8, 3, 6, 2, 3))
            }),
            (
                "patch-GEMM, two blocks at Table III channels",
                false,
                &|ctx| {
                    let plan = PatchGemmPlan::auto_for(ctx, 128, 128);
                    general(
                        plan,
                        ConvGeometry::valid(3, 3),
                        Shape4::new(8, 128, 3, 66),
                        128,
                    )
                },
            ),
            (
                "patch-GEMM, strided and padded, ragged tail",
                true,
                &|ctx| {
                    let geom = ConvGeometry::same(3, 2).with_stride(2, 2);
                    general(
                        PatchGemmPlan::new(32).on(ctx),
                        geom,
                        Shape4::new(4, 8, 9, 10),
                        16,
                    )
                },
            ),
        ];
        let dma = FaultPlan::none(5).with_dma_fail_rate(0.02);
        let faults = [
            ("no fault", None),
            ("DMA faults", Some(dma)),
            (
                "DMA faults, CPE stalls",
                Some(dma.with_cpe_stalls(0.05, 1_000)),
            ),
        ];
        let full = ChipSpec::sw26010();
        let degraded = crate::ResilientExecutor::degraded_chip(full);
        let cases = cases.map(|(case, small, walk)| (case, (small, walk)));
        for (case, (small, walk)) in rows_of(plan, cases) {
            let chips = if small {
                &[full, degraded][..]
            } else {
                &[full]
            };
            for chip in chips {
                let mut clean = None;
                for (faulted, fault) in faults {
                    let ctx = LowerCtx::on_chip(*chip).with_fault(fault);
                    let (ran, timed, out) = walk(ctx);
                    let dim = chip.mesh_dim;
                    let what = format!("{case}, {dim}×{dim} mesh, {faulted}");
                    assert_eq!(timed.cycles, ran.cycles, "{what}: cycles");
                    assert_eq!(timed.stats.totals, ran.stats.totals, "{what}: counters");
                    let ldm = |t: PlanTiming| t.stats.ldm_high_water_doubles;
                    assert_eq!(ldm(timed), ldm(ran), "{what}: LDM high water");
                    assert!(!timed.sampled && !ran.sampled, "{what}");
                    let retried = ran.stats.totals.dma_retries > 0;
                    assert_eq!(retried, fault.is_some(), "{what}: retries");
                    assert!(
                        out == *clean.get_or_insert_with(|| out.clone()),
                        "{what}: bits"
                    );
                }
            }
        }
    }

    /// `tests/selection.rs`'s 128-shape small-batch grid and its 24
    /// paper-scale shapes.
    fn selection_shapes() -> Vec<ConvShape> {
        let mut shapes = vec![];
        for batch in [32, 64] {
            for ni in [8, 16, 32, 64] {
                for no in [8, 16, 32, 64] {
                    for out in [6, 8, 16, 18] {
                        shapes.push(ConvShape::new(batch, ni, no, out, out, 3, 3));
                    }
                }
            }
        }
        let diagonal = (64..=384).step_by(16).map(|c| (c, c));
        for (ni, no) in diagonal.chain([(128, 256), (128, 384), (256, 128)]) {
            shapes.push(ConvShape::new(128, ni, no, 64, 64, 3, 3));
        }
        shapes
    }

    /// `n`, `n / 2`, `n / 4`, … while a multiple of `dim` dividing `n`.
    fn halvings(n: usize, dim: usize) -> impl Iterator<Item = usize> {
        std::iter::successors(Some(n), |b| Some(b / 2))
            .take_while(move |b| *b >= dim && b.is_multiple_of(dim))
            .filter(move |b| n.is_multiple_of(*b))
    }

    /// `supports` accepts `shape` exactly when the cost-only walk of the
    /// plan's first timing sample allocates without overflow, and that
    /// walk's LDM high water is exactly `ldm_doubles`. The blocking is
    /// legal but for LDM, so a rejection must be an LDM one.
    fn assert_fits_iff_the_walk_allocates<P: Nest>(
        what: String,
        plan: &P,
        (supported, declared): (Result<(), SwdnnError>, usize),
        shape: &ConvShape,
    ) {
        let first = match plan.timing_walks(shape) {
            Walks::Whole(e) | Walks::Sampled([(e, _), _], _) => e,
        };
        match (supported, plan.time_cost_only(&first)) {
            (Ok(()), Ok(t)) => {
                assert_eq!(t.stats.ldm_high_water_doubles, declared as u64, "{what}")
            }
            (Err(e), Err(SwdnnError::Sim(sw_sim::SimError::Ldm(_)))) => {
                assert!(e.to_string().contains("LDM doubles"), "{what}: {e}")
            }
            (s, w) => panic!("{what}: supports {s:?}, walk {:?}", w.map(|t| t.cycles)),
        }
    }

    /// What fits is what the walk allocates, for every blocking of `plan`
    /// on the selection shapes, on the 8×8 and the degraded 4×4 chip.
    /// Patch-GEMM walks the top three rungs of `auto_for`'s `b_P` ladder
    /// (`32·dim` halving), each where its sample — one output row of every
    /// image — is at most 64 pixel blocks, to keep the debug build quick.
    pub(super) fn assert_supports_matches_the_walks_ldm(plan: &str) {
        let full = ChipSpec::sw26010();
        for chip in [full, crate::ResilientExecutor::degraded_chip(full)] {
            let ctx = LowerCtx::on_chip(chip);
            let dim = chip.mesh_dim;
            for shape in selection_shapes() {
                let what = |blocking: String| format!("{plan} {blocking}, {shape}, {dim}×{dim}");
                let co_blocks = |cap| sw_perfmodel::co_blocks(shape.co, cap);
                let tiles = |cap| {
                    halvings(shape.batch, 4 * dim)
                        .flat_map(move |b_b| co_blocks(cap).map(move |b_co| (b_b, b_co)))
                };
                match plan {
                    "image-aware" => {
                        for ((b_b, b_co), b_ni) in tiles(32)
                            .flat_map(|tile| halvings(shape.ni, dim).map(move |b_ni| (tile, b_ni)))
                        {
                            let p = ImageAwarePlan::new(Blocking { b_b, b_co });
                            let p = p.with_ni_blocking(b_ni).on(ctx);
                            let w = what(format!("b_B {b_b} b_Co {b_co} b_Ni {b_ni}"));
                            let ldm = (p.supports(&shape), p.ldm_doubles(&shape));
                            assert_fits_iff_the_walk_allocates(w, &p, ldm, &shape);
                        }
                    }
                    "batch-aware" => {
                        for b_co in co_blocks(16) {
                            let p = BatchAwarePlan::new(b_co).on(ctx);
                            let ldm = (p.supports(&shape), p.ldm_doubles(&shape));
                            assert_fits_iff_the_walk_allocates(
                                what(format!("b_Co {b_co}")),
                                &p,
                                ldm,
                                &shape,
                            );
                        }
                    }
                    "bwd-filter" => {
                        for (b_b, b_co) in tiles(16) {
                            let p = BwdFilterPlan::new(b_b, b_co).on(ctx);
                            let w = what(format!("b_B {b_b} b_Co {b_co}"));
                            let ldm = (p.supports(&shape), p.ldm_doubles(&shape));
                            assert_fits_iff_the_walk_allocates(w, &p, ldm, &shape);
                        }
                    }
                    "bwd-data" => {
                        let b_bs = [4 * dim, 2 * dim, dim].into_iter();
                        let b_nis = || halvings(shape.ni, dim);
                        for ((b_b, b_co), b_ni) in b_bs
                            .flat_map(|b_b| co_blocks(16).map(move |b_co| (b_b, b_co)))
                            .flat_map(|tile| b_nis().map(move |b_ni| (tile, b_ni)))
                        {
                            let p = BwdDataPlan::new(b_b, b_co, b_ni).on(ctx);
                            let w = what(format!("b_B {b_b} b_Co {b_co} b_Ni {b_ni}"));
                            let ldm = (p.supports(&shape), p.ldm_doubles(&shape));
                            assert_fits_iff_the_walk_allocates(w, &p, ldm, &shape);
                        }
                    }
                    _ => {
                        let extent = (ConvGeometry::valid(3, 3), shape.input_shape(), shape.no);
                        let row = shape.batch * shape.co;
                        for b_p in (3..6).map(|k| dim << k).filter(|b_p| row <= 64 * b_p) {
                            let p = PatchGemmPlan::new(b_p).on(ctx);
                            let ldm = (p.supports(&shape), p.ldm_doubles(&extent));
                            assert_fits_iff_the_walk_allocates(
                                what(format!("b_P {b_p}")),
                                &p,
                                ldm,
                                &shape,
                            );
                        }
                    }
                }
            }
        }
    }

    /// On shapes small enough to run fully, the plan's sampled timing is
    /// within 5 % of its functional run.
    pub(super) fn assert_sampled_timing_tracks_full_timing(plan: &str) {
        let shape = |batch| ConvShape::new(batch, 8, 8, 6, 8, 3, 3);
        let timed = |plan: &dyn ConvPlan, s| (run_seeded(plan, s).timing, plan.time_full_shape(&s));
        let image = ImageAwarePlan::new(sw_perfmodel::Blocking { b_b: 32, b_co: 4 });
        let (bwd_plan, bwd_shape) = (BwdFilterPlan::new(32, 4), shape(32));
        let data_plan = BwdDataPlan::new(32, 4, 8);
        type Timed = (PlanTiming, Result<PlanTiming, SwdnnError>);
        let cases: [(&str, &dyn Fn() -> Timed); 5] = [
            ("image-aware", &|| timed(&image, shape(32))),
            ("batch-aware", &|| timed(&BatchAwarePlan::new(4), shape(16))),
            ("bwd-filter", &|| {
                (
                    bwd(bwd_plan, bwd_shape).0,
                    bwd_plan.time_full_shape(&bwd_shape),
                )
            }),
            ("bwd-data", &|| {
                let ran = bwd_data(data_plan, shape(32)).0;
                (ran, data_plan.time_full_shape(&shape(32)))
            }),
            ("patch-GEMM", &|| timed(&PatchGemmPlan::new(64), shape(8))),
        ];
        for (plan, time) in rows_of(plan, cases) {
            let (full, sampled) = time();
            let sampled = sampled.unwrap();
            let rel = (sampled.cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
            assert!(
                rel < 0.05,
                "{plan}: sampled {} vs full {} ({rel:.3})",
                sampled.cycles,
                full.cycles
            );
            assert!(sampled.sampled, "{plan}");
        }
    }
}
