//! Golden-cycle determinism suite.
//!
//! The zero-copy messaging path, the fused pack-once rotation, the
//! register-tiled microkernel, and the batched superstep engine (with its
//! leased broadcast buffers) are host-side optimisations: they must not
//! move *simulated* time or results by a single cycle or bit. This suite
//! pins that down three ways:
//!
//! 1. **Golden digests.** One image-aware and one batch-aware plan run
//!    against digests (cycles, DMA/bus counters, flops, an order-sensitive
//!    checksum of the exact output bit patterns) captured from the
//!    pre-optimisation implementation; one backward-filter plan run on
//!    seeded data, whose output bits predate its tap-folded rotation; one
//!    backward-data plan run on seeded data over two column blocks and two
//!    `Ni` blocks; one patch-GEMM run on a strided, padded geometry. All
//!    five plans also run under injected DMA faults and CPE stalls, whose
//!    digests (DMA retries included) pin the order of every superstep, DMA
//!    and bus delivery, which the fault draws are keyed by.
//! 2. **Thread-count independence.** The same runs repeated under host
//!    fan-outs of 1, 4, 8, and the machine default (via
//!    `sw_runtime::with_threads`, the policy every layer now shares) must
//!    produce identical digests.
//! 3. **Per-CPE invariance.** Not just the aggregate: every CPE's clock
//!    and counters after a raw mesh GEMM are identical on either host
//!    schedule, and the schedule taken is the one the grain predicts.
//! 4. **Timing without arithmetic.** `time_full_shape` walks the plan's
//!    loop nest on a cost-only mesh; where its two-sample extrapolation is
//!    exact (an outer trip count of 2) it must equal the functional run's
//!    timing in cycles and all 15 counters, at every lane count, with and
//!    without injected DMA faults.
//! 5. **Concurrent searches.** `autotune_with` and `autotune_general` time
//!    their candidates concurrently, one walk per lane; every candidate and
//!    every count they report is the same at 1, 2 and 8 lanes.
//!
//! The superstep engine runs rotations below the runtime's grain
//! (131 072 MACs per round, DESIGN.md §14) inline at every lane count. The
//! original golden shapes are far below it, so each family also has a case
//! just above the grain, with its golden captured from the same
//! pre-grain implementation, and the thread-invariance tests assert that
//! it really did cross the pool at 4 and 8 lanes.

use sw_perfmodel::select::Blocking;
use sw_perfmodel::ChipSpec;
use sw_runtime::ExecutionContext;
use sw_sim::{FaultPlan, LdmBuf, Mesh};
use sw_tensor::init::{lattice_tensor, seeded_tensor};
use sw_tensor::{ConvGeometry, ConvShape, Layout, Shape4};
use swdnn::plans::gemm_mesh::{regcomm_gemm, zero_c, GemmBlock};
use swdnn::plans::{
    BatchAwarePlan, BwdDataPlan, BwdFilterPlan, ConvPlan, ConvRun, ImageAwarePlan, LowerCtx,
    PatchGemmPlan, PlanTiming, Schedule,
};
use swdnn::tune::{autotune_general, autotune_with, GeneralTune, TuneReport};

#[derive(PartialEq, Eq, Debug, Clone)]
struct RunDigest {
    cycles: u64,
    dma_get_bytes: u64,
    dma_put_bytes: u64,
    bus_vectors_sent: u64,
    bus_vectors_received: u64,
    flops: u64,
    dma_retries: u64,
    output_bits: u64,
}

/// Order-sensitive checksum over the exact bit patterns of the output.
fn checksum(data: &[f64]) -> u64 {
    data.iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits())
}

fn digest(run: &ConvRun) -> RunDigest {
    let t = &run.timing.stats.totals;
    RunDigest {
        cycles: run.timing.cycles,
        dma_get_bytes: t.dma_get_bytes,
        dma_put_bytes: t.dma_put_bytes,
        bus_vectors_sent: t.bus_vectors_sent,
        bus_vectors_received: t.bus_vectors_received,
        flops: t.flops,
        dma_retries: t.dma_retries,
        output_bits: checksum(run.output.data()),
    }
}

/// Golden digests captured from the pre-zero-copy implementation (two
/// parallel supersteps per rotation, per-receiver payload clones, scalar
/// triple-loop microkernel). Any drift here is a simulation-fidelity bug,
/// not a perf regression.
fn image_golden() -> RunDigest {
    RunDigest {
        cycles: 82512,
        dma_get_bytes: 368640,
        dma_put_bytes: 65536,
        bus_vectors_sent: 20736,
        bus_vectors_received: 145152,
        flops: 2359296,
        dma_retries: 0,
        output_bits: 8771703832349549151,
    }
}

fn batch_golden() -> RunDigest {
    RunDigest {
        cycles: 114504,
        dma_get_bytes: 172032,
        dma_put_bytes: 16384,
        bus_vectors_sent: 9216,
        bus_vectors_received: 64512,
        flops: 589824,
        dma_retries: 0,
        output_bits: 11020029646220698066,
    }
}

/// Just above the grain: `No/8 · b_B·b_Co/8 · Ni/8 = 8·32·8 = 2048` MACs
/// per CPE per rotation round.
fn image_large_golden() -> RunDigest {
    RunDigest {
        cycles: 214722,
        dma_get_bytes: 1572864,
        dma_put_bytes: 262144,
        bus_vectors_sent: 92160,
        bus_vectors_received: 645120,
        flops: 37748736,
        dma_retries: 0,
        output_bits: 10428746408275829906,
    }
}

/// Just above the grain: `No/8 · B/8 · Ni/8 = 8·16·16 = 2048`.
fn batch_large_golden() -> RunDigest {
    RunDigest {
        cycles: 484302,
        dma_get_bytes: 4325376,
        dma_put_bytes: 262144,
        bus_vectors_sent: 221184,
        bus_vectors_received: 1548288,
        flops: 75497472,
        dma_retries: 0,
        output_bits: 15884816419428590194,
    }
}

/// The backward-filter pass on seeded (non-lattice) data, where a changed
/// summation order changes bits. `output_bits` was captured before the
/// `Kr·Kc` taps were folded into one rotation per pixel tile; the cycle and
/// bus counts are the folded rotation's (one rotation per tap read 116 530
/// cycles and 27 648 / 193 536 bus vectors, with the same DMA bytes and
/// flops).
fn bwd_filter_golden() -> RunDigest {
    RunDigest {
        cycles: 38525,
        dma_get_bytes: 344064,
        dma_put_bytes: 6144,
        bus_vectors_sent: 19968,
        bus_vectors_received: 139776,
        flops: 1179648,
        dma_retries: 0,
        output_bits: 14628683591305572534,
    }
}

/// The backward-data pass on seeded data: two column blocks, two `Ni`
/// blocks, so the cross-block `dY` prefetch, the filter re-fetch and every
/// window put run.
fn bwd_data_golden() -> RunDigest {
    RunDigest {
        cycles: 40843,
        dma_get_bytes: 140288,
        dma_put_bytes: 245760,
        bus_vectors_sent: 7168,
        bus_vectors_received: 50176,
        flops: 2359296,
        dma_retries: 0,
        output_bits: 829913498486874884,
    }
}

/// The backward-filter and backward-data cases under [`faulted`].
fn faulted_bwd_goldens() -> [RunDigest; 2] {
    [
        RunDigest {
            cycles: 132917,
            dma_retries: 32,
            ..bwd_filter_golden()
        },
        RunDigest {
            cycles: 319047,
            dma_retries: 39,
            ..bwd_data_golden()
        },
    ]
}

/// Patch-GEMM on a strided, padded geometry with a ragged last pixel block
/// (200 pixels in blocks of 32), so the MPE gather and the clipped put run.
fn patch_golden() -> RunDigest {
    RunDigest {
        cycles: 160266,
        dma_get_bytes: 387072,
        dma_put_bytes: 25600,
        bus_vectors_sent: 12096,
        bus_vectors_received: 84672,
        flops: 1032192,
        dma_retries: 0,
        output_bits: 3668136545317930996,
    }
}

/// The image-aware, batch-aware and patch-GEMM cases under [`faulted`].
fn faulted_goldens() -> [RunDigest; 3] {
    [
        RunDigest {
            cycles: 668770,
            dma_get_bytes: 368640,
            dma_put_bytes: 65536,
            bus_vectors_sent: 20736,
            bus_vectors_received: 145152,
            flops: 2359296,
            dma_retries: 64,
            output_bits: 8771703832349549151,
        },
        RunDigest {
            cycles: 1290529,
            dma_get_bytes: 172032,
            dma_put_bytes: 16384,
            bus_vectors_sent: 9216,
            bus_vectors_received: 64512,
            flops: 589824,
            dma_retries: 130,
            output_bits: 11020029646220698066,
        },
        RunDigest {
            cycles: 1236547,
            dma_get_bytes: 387072,
            dma_put_bytes: 25600,
            bus_vectors_sent: 12096,
            bus_vectors_received: 84672,
            flops: 1032192,
            dma_retries: 184,
            output_bits: 3668136545317930996,
        },
    ]
}

fn run_plan(plan: &dyn ConvPlan, shape: ConvShape, seed: u64) -> ConvRun {
    plan.supports(&shape).expect("shape supported");
    let input = lattice_tensor(shape.input_shape(), Layout::Nchw, seed);
    let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, seed + 1);
    plan.run(&shape, &input, &filter).expect("plan runs")
}

fn image_case() -> ConvRun {
    image_case_on(LowerCtx::default())
}

fn image_case_on(ctx: LowerCtx) -> ConvRun {
    let plan = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 4 }).on(ctx);
    run_plan(&plan, ConvShape::new(32, 16, 16, 2, 8, 3, 3), 11)
}

fn batch_case() -> ConvRun {
    batch_case_on(LowerCtx::default())
}

fn batch_case_on(ctx: LowerCtx) -> ConvRun {
    run_plan(
        &BatchAwarePlan::new(2).on(ctx),
        ConvShape::new(16, 16, 16, 2, 4, 3, 3),
        21,
    )
}

fn patch_case() -> ConvRun {
    patch_case_on(LowerCtx::default())
}

fn patch_case_on(ctx: LowerCtx) -> ConvRun {
    let geom = ConvGeometry::same(3, 3).with_stride(2, 2);
    let input = lattice_tensor(Shape4::new(8, 16, 9, 10), Layout::Nchw, 81);
    let filter = lattice_tensor(Shape4::new(16, 16, 3, 3), Layout::Nchw, 82);
    PatchGemmPlan::new(32)
        .on(ctx)
        .run_general(&geom, &input, &filter)
        .expect("plan runs")
}

/// DMA retries eating into the double-buffer slack, CPE stalls on top.
/// Faults key on superstep and delivery sequence numbers, so a walk that
/// issues its supersteps, DMAs or bus deliveries in another order moves
/// these digests.
fn faulted() -> LowerCtx {
    let fault = FaultPlan::none(5)
        .with_dma_fail_rate(0.02)
        .with_cpe_stalls(0.05, 1_000);
    LowerCtx::default().with_fault(Some(fault))
}

fn bwd_filter_case() -> ConvRun {
    bwd_filter_case_on(LowerCtx::default())
}

fn bwd_filter_case_on(ctx: LowerCtx) -> ConvRun {
    let shape = ConvShape::new(32, 16, 8, 3, 8, 2, 3);
    let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 71);
    let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 72);
    let (output, timing) = BwdFilterPlan::new(32, 4)
        .on(ctx)
        .run(&shape, &input, &d_out)
        .expect("plan runs");
    ConvRun { output, timing }
}

fn bwd_data_case() -> ConvRun {
    bwd_data_case_on(LowerCtx::default())
}

fn bwd_data_case_on(ctx: LowerCtx) -> ConvRun {
    let shape = ConvShape::new(32, 16, 8, 4, 8, 3, 3);
    let d_out = seeded_tensor(shape.output_shape(), Layout::Nchw, 91);
    let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 92);
    BwdDataPlan::new(32, 4, 8)
        .on(ctx)
        .run(&shape, &d_out, &filter)
        .expect("plan runs")
}

/// One batch block, one column block, two output rows: an outer trip count
/// of exactly 2.
fn image_large(rt: &'static ExecutionContext) -> (ImageAwarePlan, ConvShape) {
    (
        ImageAwarePlan::new(Blocking { b_b: 32, b_co: 8 }).on(LowerCtx::default().on_runtime(rt)),
        ConvShape::new(32, 64, 64, 2, 8, 3, 3),
    )
}

/// One column block, two output rows: an outer trip count of exactly 2.
fn batch_large(rt: &'static ExecutionContext) -> (BatchAwarePlan, ConvShape) {
    (
        BatchAwarePlan::new(2).on(LowerCtx::default().on_runtime(rt)),
        ConvShape::new(128, 128, 64, 2, 2, 3, 3),
    )
}

fn image_case_large(rt: &'static ExecutionContext) -> ConvRun {
    let (plan, shape) = image_large(rt);
    run_plan(&plan, shape, 31)
}

fn batch_case_large(rt: &'static ExecutionContext) -> ConvRun {
    let (plan, shape) = batch_large(rt);
    run_plan(&plan, shape, 41)
}

/// A pool of this suite's own, so handoff counts are not inflated by the
/// other tests of this binary posting to the global one.
fn private_pool() -> &'static ExecutionContext {
    Box::leak(Box::new(ExecutionContext::new()))
}

/// Run `f` at `threads` lanes and return its result with the handoffs it
/// posted to `rt`.
fn counting_handoffs<R>(rt: &ExecutionContext, threads: usize, f: impl FnOnce() -> R) -> (R, u64) {
    let before = rt.pool_handoffs();
    let r = sw_runtime::with_threads(threads, f);
    (r, rt.pool_handoffs() - before)
}

#[test]
fn image_aware_plan_matches_golden_digest() {
    assert_eq!(digest(&image_case()), image_golden());
}

#[test]
fn batch_aware_plan_matches_golden_digest() {
    assert_eq!(digest(&batch_case()), batch_golden());
}

#[test]
fn patch_gemm_plan_matches_golden_digest() {
    assert_eq!(digest(&patch_case()), patch_golden());
}

#[test]
fn faulted_plans_match_golden_digests() {
    let ctx = faulted();
    let [image, batch, patch] = faulted_goldens();
    assert_eq!(digest(&image_case_on(ctx)), image, "image-aware");
    assert_eq!(digest(&batch_case_on(ctx)), batch, "batch-aware");
    assert_eq!(digest(&patch_case_on(ctx)), patch, "patch-GEMM");
    let [filter, data] = faulted_bwd_goldens();
    assert_eq!(digest(&bwd_filter_case_on(ctx)), filter, "bwd-filter");
    assert_eq!(digest(&bwd_data_case_on(ctx)), data, "bwd-data");
}

#[test]
fn bwd_filter_plan_matches_golden_digest() {
    assert_eq!(digest(&bwd_filter_case()), bwd_filter_golden());
}

#[test]
fn bwd_data_plan_matches_golden_digest() {
    assert_eq!(digest(&bwd_data_case()), bwd_data_golden());
}

#[test]
fn above_grain_plans_match_golden_digests() {
    let rt = private_pool();
    assert_eq!(digest(&image_case_large(rt)), image_large_golden());
    assert_eq!(digest(&batch_case_large(rt)), batch_large_golden());
}

#[test]
fn digests_are_identical_across_host_thread_counts() {
    let rt = private_pool();
    for threads in [1usize, 4, 8] {
        let (img, bat, bwd, dx, patch) = sw_runtime::with_threads(threads, || {
            let bwd = (bwd_filter_case(), bwd_data_case());
            (image_case(), batch_case(), bwd.0, bwd.1, patch_case())
        });
        assert_eq!(digest(&img), image_golden(), "image @ {threads} threads");
        assert_eq!(digest(&bat), batch_golden(), "batch @ {threads} threads");
        assert_eq!(digest(&patch), patch_golden(), "patch @ {threads} threads");
        assert_eq!(digest(&bwd), bwd_filter_golden(), "bwd @ {threads} threads");
        assert_eq!(digest(&dx), bwd_data_golden(), "dx @ {threads} threads");
        // The small shapes run inline whatever the lane count; these two
        // are what keeps the pool path under the same golden regime.
        let ((img, bat), handoffs) =
            counting_handoffs(rt, threads, || (image_case_large(rt), batch_case_large(rt)));
        assert_eq!(digest(&img), image_large_golden(), "image @ {threads}");
        assert_eq!(digest(&bat), batch_large_golden(), "batch @ {threads}");
        assert_eq!(
            handoffs > 0,
            threads > 1,
            "pool crossed @ {threads} threads"
        );
    }
    // Machine default (whatever available_parallelism says).
    assert_eq!(digest(&image_case()), image_golden());
    assert_eq!(digest(&batch_case()), batch_golden());
    assert_eq!(digest(&bwd_filter_case()), bwd_filter_golden());
    assert_eq!(digest(&bwd_data_case()), bwd_data_golden());
}

#[test]
fn timing_equals_the_functional_run_where_extrapolation_is_exact() {
    // Shapes whose outer trip count is exactly 2 (or, for patch-GEMM, few
    // enough pixel blocks that every one is walked): `extrapolate`'s line
    // then passes through the two-row sample, so the timing a cost-only mesh
    // computed over zero operands must be the functional run's, counter for
    // counter — also under injected DMA retries, which make a counter's
    // two-row sample more than twice its one-row sample.
    fn assert_exact(timed: PlanTiming, ran: PlanTiming, what: &str) {
        assert_eq!(timed.cycles, ran.cycles, "{what}: cycles");
        assert_eq!(
            timed.stats.totals.named(),
            ran.stats.totals.named(),
            "{what}: counters"
        );
        assert_eq!(
            timed.stats.ldm_high_water_doubles, ran.stats.ldm_high_water_doubles,
            "{what}: LDM high water"
        );
    }
    let rt = private_pool();
    let faulted = Some(FaultPlan::none(5).with_dma_fail_rate(0.02));
    for (threads, fault) in [1usize, 4, 8]
        .into_iter()
        .flat_map(|t| [(t, None), (t, faulted)])
    {
        let (timed_handoffs, ran_handoffs) = sw_runtime::with_threads(threads, || {
            let ctx = LowerCtx::default().on_runtime(rt).with_fault(fault);
            let (image, image_shape) = image_large(rt);
            let image = image.on(ctx);
            let (batch, batch_shape) = batch_large(rt);
            let batch = batch.on(ctx);
            let patch = PatchGemmPlan::new(64).on(ctx);
            let patch_shape = ConvShape::new(8, 8, 8, 4, 8, 3, 3); // 256 pixels: 4 blocks
            let bwd = BwdFilterPlan::new(32, 4).on(ctx);
            let bwd_shape = ConvShape::new(32, 8, 8, 2, 4, 3, 3);

            let before = rt.pool_handoffs();
            let timed = [
                image.time_full_shape(&image_shape).unwrap(),
                batch.time_full_shape(&batch_shape).unwrap(),
                patch.time_full_shape(&patch_shape).unwrap(),
                bwd.time_full_shape(&bwd_shape).unwrap(),
            ];
            let timed_handoffs = rt.pool_handoffs() - before;

            let d_out = lattice_tensor(bwd_shape.output_shape(), Layout::Nchw, 52);
            let bwd_input = lattice_tensor(bwd_shape.input_shape(), Layout::Nchw, 51);
            let ran = [
                run_plan(&image, image_shape, 31).timing,
                run_plan(&batch, batch_shape, 41).timing,
                run_plan(&patch, patch_shape, 61).timing,
                bwd.run(&bwd_shape, &bwd_input, &d_out).unwrap().1,
            ];
            let ran_handoffs = rt.pool_handoffs() - before - timed_handoffs;

            for ((timed, ran), plan) in timed.into_iter().zip(ran).zip([
                "image-aware",
                "batch-aware",
                "patch-GEMM",
                "bwd-filter",
            ]) {
                let what = format!("{plan} @ {threads} lanes, fault {}", fault.is_some());
                assert_eq!(ran.stats.totals.dma_retries > 0, fault.is_some(), "{what}");
                assert_exact(timed, ran, &what);
            }
            (timed_handoffs, ran_handoffs)
        });
        assert_eq!(timed_handoffs, 0, "a timing never posts @ {threads}");
        assert_eq!(
            ran_handoffs > 0,
            threads > 1,
            "runs cross the pool @ {threads}"
        );
    }
}

/// Per-CPE state for the direct mesh-level GEMM below.
struct St {
    a: Vec<f64>,
    b: Vec<f64>,
    c: LdmBuf,
}

/// `(m8, n8, k8)` far below the grain: the rotation runs inline.
const SMALL_BLOCK: (usize, usize, usize) = (4, 8, 4);
/// `64·m8·n8·k8` = 131 072 MACs per round, the first size that crosses the
/// pool.
const LARGE_BLOCK: (usize, usize, usize) = (8, 16, 16);

type CpeSnapshots = Vec<(usize, usize, u64, sw_sim::CpeStats)>;

/// Run one raw register-communication GEMM and snapshot every CPE.
fn mesh_gemm_snapshots(
    rt: &'static ExecutionContext,
    (m8, n8, k8): (usize, usize, usize),
) -> CpeSnapshots {
    let mut mesh = Mesh::new_on(rt, ChipSpec::sw26010(), |row, col| St {
        a: (0..k8 * m8)
            .map(|i| ((row * 131 + col * 17 + i * 7) % 23) as f64 - 11.0)
            .collect(),
        b: (0..k8 * n8)
            .map(|i| ((row * 19 + col * 113 + i * 5) % 29) as f64 - 14.0)
            .collect(),
        c: LdmBuf { offset: 0, len: 0 },
    });
    mesh.superstep(|ctx, s| {
        s.c = ctx.ldm_alloc(m8 * n8)?;
        Ok(())
    })
    .unwrap();
    zero_c(&mut mesh, |s: &St| s.c).unwrap();
    regcomm_gemm(
        &mut mesh,
        GemmBlock::dense(m8, n8, k8, true),
        |_, s: &St, dst: &mut Vec<f64>| dst.extend_from_slice(&s.a),
        |_, s: &St, dst: &mut Vec<f64>| dst.extend_from_slice(&s.b),
        |s| (s.c, 0),
    )
    .unwrap();
    mesh.assert_inboxes_empty().unwrap();
    mesh.cpe_snapshots()
}

#[test]
fn per_cpe_clocks_and_counters_are_thread_count_invariant() {
    // Not just the aggregate: every individual CPE's clock and counters
    // must be identical whichever host schedule executed it — inline below
    // the grain, over the pool (exactly one handoff: the rotation; the
    // alloc and zero supersteps hold too little LDM to cross) above it.
    let rt = private_pool();
    for (block, crosses) in [(SMALL_BLOCK, false), (LARGE_BLOCK, true)] {
        let baseline = sw_runtime::with_threads(1, || mesh_gemm_snapshots(rt, block));
        assert_eq!(baseline.len(), 64);
        for threads in [4usize, 8] {
            let (got, handoffs) = counting_handoffs(rt, threads, || mesh_gemm_snapshots(rt, block));
            assert_eq!(got, baseline, "{block:?} snapshots @ {threads} threads");
            assert_eq!(handoffs, u64::from(crosses), "{block:?} @ {threads}");
        }
        assert_eq!(
            mesh_gemm_snapshots(rt, block),
            baseline,
            "machine-default threads"
        );
    }
}

/// Everything a dense search reports: per candidate, fastest first, its
/// schedule, description, cycles and Gflops bits; then the model's choice,
/// the legal schedules enumerated and the ones pruned.
type DenseDigest = (
    Vec<(Schedule, String, u64, u64)>,
    Option<usize>,
    usize,
    usize,
);

fn dense_digest(r: TuneReport) -> DenseDigest {
    let candidates = r.candidates.into_iter();
    let candidates = candidates.map(|c| (c.schedule, c.description, c.cycles, c.gflops.to_bits()));
    (candidates.collect(), r.model_choice, r.enumerated, r.pruned)
}

/// A general search's winner, its cycles and Gflops bits, the host
/// baseline and the candidates enumerated.
fn general_digest(g: GeneralTune) -> (Schedule, u64, u64, u64, usize) {
    let GeneralTune {
        schedule,
        cycles,
        gflops,
        host_cycles,
        enumerated,
    } = g;
    (schedule, cycles, gflops.to_bits(), host_cycles, enumerated)
}

#[test]
fn searches_report_the_same_candidates_at_every_lane_count() {
    let chip = ChipSpec::sw26010();
    // Table III row 1 with its hand schedule as the warm start, and a B = 32
    // shape of the small-batch grid.
    let dense = [
        (
            ConvShape::new(128, 128, 128, 64, 64, 3, 3),
            vec![Schedule::image_aware(32, 16)],
        ),
        (ConvShape::new(32, 64, 64, 16, 16, 3, 3), vec![]),
    ];
    // tune_search's stride-2 and same-padded geometries.
    let general = [
        (
            ConvGeometry::valid(3, 3).with_stride(2, 2),
            Shape4::new(32, 128, 35, 35),
            128,
        ),
        (ConvGeometry::same(3, 3), Shape4::new(32, 64, 16, 16), 64),
    ];
    let search = || {
        let dense: Vec<DenseDigest> = dense
            .iter()
            .map(|(shape, warm)| dense_digest(autotune_with(&chip, shape, warm).unwrap()))
            .collect();
        let general: Vec<_> = general
            .iter()
            .map(|(geom, input, no)| {
                general_digest(autotune_general(&chip, geom, *input, *no).unwrap())
            })
            .collect();
        (dense, general)
    };
    let serial = sw_runtime::with_threads(1, search);
    assert!(serial.0.iter().all(|d| d.0.len() >= 6), "{serial:?}");
    for threads in [2usize, 8] {
        let got = sw_runtime::with_threads(threads, search);
        assert_eq!(got, serial, "searches @ {threads} threads");
    }
}
