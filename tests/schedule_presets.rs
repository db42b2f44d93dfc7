//! Schedule-IR preset equivalence suite.
//!
//! `Schedule::build` is the one place a schedule becomes a plan, and every
//! caller goes through it. This suite pins that contract three ways:
//!
//! 1. **Golden digests.** The image-aware and batch-aware presets, lowered
//!    through the IR, must reproduce the same golden digests (cycles, DMA
//!    and bus counters, flops, bit-exact output checksum) that
//!    `tests/determinism.rs` pins for the plan structs — at host thread
//!    counts 1, 4, and 8.
//! 2. **One door.** For automatic selection and every forced kind,
//!    `Conv2d::plan()`, `Conv2d::schedule().build(ctx)` and
//!    `lower_schedule(&conv.schedule(), ..)` produce one digest — same
//!    simulated cycles, same output bits — in the stock context and in a
//!    degraded, faulted, privately scheduled one.
//! 3. **Reference equivalence.** Every preset that lowers legally for a
//!    shape agrees exactly with the 7-loop reference on lattice data.

use sw_perfmodel::{ChipSpec, PlanKind};
use sw_tensor::init::lattice_tensor;
use sw_tensor::{conv2d_ref, ConvGeometry, ConvShape, Layout, Shape4, Tensor4};
use swdnn::plans::{BwdDataPlan, BwdFilterPlan, ConvPlan, ConvRun, PatchGemmPlan};
use swdnn::{lower_schedule, Conv2d, FaultPlan, LowerCtx, ResilientExecutor, Schedule, SwdnnError};

/// One preset of every loop order, two blockings of most.
const PRESETS: [Schedule; 9] = [
    Schedule::image_aware(32, 4),
    Schedule::image_aware(32, 8),
    Schedule::image_aware_ni(32, 4, 8),
    Schedule::batch_aware(2),
    Schedule::batch_aware(4),
    Schedule::direct(),
    Schedule::reference(),
    Schedule::patch_gemm(32),
    Schedule::patch_gemm(64),
];

#[derive(PartialEq, Eq, Debug, Clone)]
struct RunDigest {
    cycles: u64,
    dma_get_bytes: u64,
    dma_put_bytes: u64,
    bus_vectors_sent: u64,
    bus_vectors_received: u64,
    flops: u64,
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
        output_bits: checksum(run.output.data()),
    }
}

/// Same goldens as `tests/determinism.rs` — the IR must not move them.
fn image_golden() -> RunDigest {
    RunDigest {
        cycles: 82512,
        dma_get_bytes: 368640,
        dma_put_bytes: 65536,
        bus_vectors_sent: 20736,
        bus_vectors_received: 145152,
        flops: 2359296,
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
        output_bits: 11020029646220698066,
    }
}

/// `determinism.rs`'s image case just above the runtime's grain (131 072
/// MACs per rotation round): the one that crosses the worker pool.
fn image_large_golden() -> RunDigest {
    RunDigest {
        cycles: 214722,
        dma_get_bytes: 1572864,
        dma_put_bytes: 262144,
        bus_vectors_sent: 92160,
        bus_vectors_received: 645120,
        flops: 37748736,
        output_bits: 10428746408275829906,
    }
}

/// Run `schedule` on `shape` with lattice operands seeded `(seed, seed+1)`.
fn run_schedule(schedule: &Schedule, shape: ConvShape, seed: u64) -> ConvRun {
    run_schedule_on(&LowerCtx::default(), schedule, shape, seed)
}

fn run_schedule_on(ctx: &LowerCtx, schedule: &Schedule, shape: ConvShape, seed: u64) -> ConvRun {
    let plan = lower_schedule(schedule, &shape, ctx)
        .unwrap_or_else(|e| panic!("{} must lower for {shape:?}: {e}", schedule.describe()));
    let input = lattice_tensor(shape.input_shape(), Layout::Nchw, seed);
    let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, seed + 1);
    plan.run(&shape, &input, &filter)
        .expect("lowered plan runs")
}

fn lowered_image_case() -> ConvRun {
    run_schedule(
        &Schedule::image_aware(32, 4),
        ConvShape::new(32, 16, 16, 2, 8, 3, 3),
        11,
    )
}

fn lowered_batch_case() -> ConvRun {
    run_schedule(
        &Schedule::batch_aware(2),
        ConvShape::new(16, 16, 16, 2, 4, 3, 3),
        21,
    )
}

#[test]
fn lowered_presets_reproduce_the_golden_digests() {
    assert_eq!(digest(&lowered_image_case()), image_golden());
    assert_eq!(digest(&lowered_batch_case()), batch_golden());
}

#[test]
fn lowered_preset_digests_are_thread_count_invariant() {
    for threads in [1usize, 4, 8] {
        let (img, bat) =
            sw_runtime::with_threads(threads, || (lowered_image_case(), lowered_batch_case()));
        assert_eq!(digest(&img), image_golden(), "image @ {threads} threads");
        assert_eq!(digest(&bat), batch_golden(), "batch @ {threads} threads");
    }
}

#[test]
fn lowered_preset_above_the_grain_is_thread_count_invariant_on_the_pool() {
    // The two goldens above run inline at every lane count; this one is
    // large enough to fan out, on a pool of its own so the handoff count is
    // this test's alone.
    let ctx = LowerCtx {
        rt: Box::leak(Box::new(sw_runtime::ExecutionContext::new())),
        ..LowerCtx::default()
    };
    for threads in [1usize, 4, 8] {
        let before = ctx.rt.pool_handoffs();
        let run = sw_runtime::with_threads(threads, || {
            run_schedule_on(
                &ctx,
                &Schedule::image_aware(32, 8),
                ConvShape::new(32, 64, 64, 2, 8, 3, 3),
                31,
            )
        });
        assert_eq!(digest(&run), image_large_golden(), "@ {threads} threads");
        let crossed = ctx.rt.pool_handoffs() > before;
        assert_eq!(crossed, threads > 1, "pool crossed @ {threads} threads");
    }
}

#[test]
fn conv2d_plan_its_schedule_and_lower_schedule_are_one_door() {
    // The two `LowerCtx` fronts the benchmark harness calls keep their shape.
    let _: fn() -> LowerCtx = LowerCtx::default;
    let _: fn(ChipSpec) -> LowerCtx = LowerCtx::on_chip;

    // A shape every mesh plan accepts, in the stock context and in one where
    // nothing is the default: a degraded 4×4 chip, DMA faults, and a private
    // runtime at two lanes.
    let shape = ConvShape::new(32, 16, 16, 4, 8, 3, 3);
    let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 41);
    let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 42);
    let run = |plan: &dyn ConvPlan| {
        sw_runtime::with_threads(2, || digest(&plan.run(&shape, &input, &filter).unwrap()))
    };
    let non_default = LowerCtx::on_chip(ResilientExecutor::degraded_chip(ChipSpec::sw26010()))
        .with_fault(Some(FaultPlan::none(9).with_dma_fail_rate(0.01)))
        .on_runtime(Box::leak(Box::new(sw_runtime::ExecutionContext::new())));
    let forced = [
        None,
        Some(PlanKind::ImageSizeAware),
        Some(PlanKind::BatchSizeAware),
        Some(PlanKind::DirectGload),
        Some(PlanKind::PatchGemm),
    ];
    for ctx in [LowerCtx::default(), non_default] {
        for kind in forced {
            let mut conv = Conv2d::new(shape).unwrap().on(ctx);
            if let Some(kind) = kind {
                conv = conv.with_plan(kind);
            }
            let schedule = conv.schedule();
            let what = format!("{kind:?} -> {}", schedule.describe());
            let lowered = lower_schedule(&schedule, &shape, &ctx)
                .unwrap_or_else(|e| panic!("{what} must lower: {e}"));
            let doors = [conv.plan(), schedule.build(&ctx), lowered];
            for door in &doors {
                assert_eq!(door.kind(), schedule.kind(), "{what}");
                assert_eq!(door.name(), doors[0].name(), "{what}");
            }
            let want = run(doors[0].as_ref());
            for door in &doors[1..] {
                assert_eq!(run(door.as_ref()), want, "{what}: same cycles, same bits");
            }
        }
    }
}

#[test]
fn every_legal_preset_matches_the_reference_convolution() {
    // Lattice operands (quarter-integers) make every summation order exact,
    // so all presets — including the tap-outer patch-GEMM — must agree
    // with the 7-loop reference to the last bit.
    let shapes = [
        ConvShape::new(32, 16, 16, 4, 8, 3, 3),
        ConvShape::new(32, 8, 16, 2, 4, 1, 1),
    ];
    for shape in shapes {
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 51);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 52);
        let expect = conv2d_ref(shape, &input, &filter);
        let mut legal = 0usize;
        for schedule in &PRESETS {
            let Ok(plan) = lower_schedule(schedule, &shape, &LowerCtx::default()) else {
                continue;
            };
            legal += 1;
            let run = plan.run(&shape, &input, &filter).unwrap();
            assert_eq!(
                run.output.max_abs_diff(&expect),
                0.0,
                "{} on {shape:?} must be bit-identical with conv2d_ref",
                schedule.describe()
            );
        }
        assert!(
            legal >= 6,
            "expected most presets legal for {shape:?}, got {legal}"
        );
    }
}

/// Zeros of shape `s`, or an empty tensor where `s` is too large to hold.
fn zeros(s: Shape4) -> Tensor4<f64> {
    let len = [s.d0, s.d1, s.d2, s.d3]
        .into_iter()
        .try_fold(1usize, usize::checked_mul);
    let fits = len.is_some_and(|n| n <= 1 << 20);
    Tensor4::zeros(if fits { s } else { Shape4::new(0, 0, 0, 0) }, Layout::Nchw)
}

/// A named entry-point call that must return `Err`.
type Call<'a> = (&'static str, &'a dyn Fn() -> Result<(), SwdnnError>);

/// Each of `calls` that returned `Ok`, an error `expected` refuses, or
/// panicked, named.
fn not_rejected_as(what: &str, calls: &[Call], expected: fn(&SwdnnError) -> bool) -> Vec<String> {
    let verdict = |call: &dyn Fn() -> Result<(), SwdnnError>| match std::panic::catch_unwind(
        std::panic::AssertUnwindSafe(call),
    ) {
        Ok(Err(e)) if expected(&e) => None,
        Ok(Err(e)) => Some(format!("returned {e}")),
        Ok(Ok(())) => Some("returned Ok".to_string()),
        Err(_) => Some("panicked".to_string()),
    };
    let failed = calls
        .iter()
        .filter_map(|&(name, call)| Some((name, verdict(call)?)));
    failed
        .map(|(name, v)| format!("{what}: {name} {v}"))
        .collect()
}

/// Each of `calls` that returned `Ok` or panicked, named.
fn not_rejected(what: &str, calls: &[Call]) -> Vec<String> {
    not_rejected_as(what, calls, |_| true)
}

#[test]
fn degenerate_shapes_and_misfit_filters_are_errors_in_every_plan() {
    // Every entry point answers `Err`, in a debug build, to a shape with a
    // zero extent or with counts that overflow, and to a general geometry
    // with a zero batch, channel count, filter extent, stride or dilation;
    // patch-GEMM's general run answers `ShapeMismatch` to a filter that
    // does not fit its input and geometry.
    let base = ConvShape::new(32, 16, 16, 4, 8, 3, 3);
    let shapes = [
        ConvShape { batch: 0, ..base },
        ConvShape { ni: 0, ..base },
        ConvShape { no: 0, ..base },
        ConvShape { ro: 0, ..base },
        ConvShape { co: 0, ..base },
        ConvShape { kr: 0, ..base },
        ConvShape { kc: 0, ..base },
        ConvShape::new(1 << 16, 1 << 16, 1 << 16, 1 << 16, 1, 1, 1),
    ];
    let (bwd_filter, bwd_data) = (BwdFilterPlan::new(32, 4), BwdDataPlan::new(32, 4, 8));
    let mut failed = vec![];
    for shape in shapes {
        let [x, w, y] = [
            shape.input_shape(),
            shape.filter_shape(),
            shape.output_shape(),
        ]
        .map(zeros);
        for schedule in &PRESETS {
            let plan = schedule.build(&LowerCtx::default());
            let what = format!("{} on {shape}", schedule.describe());
            failed.extend(not_rejected(
                &what,
                &[
                    ("supports", &|| plan.supports(&shape)),
                    ("time_full_shape", &|| {
                        plan.time_full_shape(&shape).map(drop)
                    }),
                    ("run", &|| plan.run(&shape, &x, &w).map(drop)),
                ],
            ));
        }
        failed.extend(not_rejected(
            &format!("bwd_filter on {shape}"),
            &[
                ("supports", &|| bwd_filter.supports(&shape)),
                ("time_full_shape", &|| {
                    bwd_filter.time_full_shape(&shape).map(drop)
                }),
                ("run", &|| bwd_filter.run(&shape, &x, &y).map(drop)),
            ],
        ));
        failed.extend(not_rejected(
            &format!("bwd_data on {shape}"),
            &[
                ("supports", &|| bwd_data.supports(&shape)),
                ("time_full_shape", &|| {
                    bwd_data.time_full_shape(&shape).map(drop)
                }),
                ("run", &|| bwd_data.run(&shape, &y, &w).map(drop)),
            ],
        ));
    }

    let (patch, valid) = (PatchGemmPlan::new(32), ConvGeometry::valid(3, 3));
    let (input, no) = (Shape4::new(8, 8, 6, 6), 8);
    let geometries = [
        (valid, Shape4 { d0: 0, ..input }, no),
        (valid, Shape4 { d1: 0, ..input }, no),
        (valid, input, 0),
        (ConvGeometry::valid(0, 3), input, no),
        (ConvGeometry::valid(3, 0), input, no),
        (valid.with_stride(0, 1), input, no),
        (valid.with_stride(1, 0), input, no),
        (valid.with_dilation(0, 1), input, no),
        (valid.with_dilation(1, 0), input, no),
    ];
    for (geom, x, no) in geometries {
        let (xs, ws) = (zeros(x), zeros(Shape4::new(no, x.d1, geom.kr, geom.kc)));
        failed.extend(not_rejected(
            &format!("patch_gemm on {geom:?}, input {x:?}, No {no}"),
            &[
                ("supports_general", &|| patch.supports_general(&geom, x, no)),
                ("time_general", &|| {
                    patch.time_general(&geom, x, no).map(drop)
                }),
                ("run_general", &|| {
                    patch.run_general(&geom, &xs, &ws).map(drop)
                }),
            ],
        ));
    }
    let xs = zeros(input);
    for filter in [(8, 16, 3, 3), (8, 8, 3, 5), (8, 8, 2, 2)].map(Shape4::from) {
        match patch.run_general(&valid, &xs, &zeros(filter)) {
            Err(SwdnnError::ShapeMismatch { .. }) => {}
            other => failed.push(format!(
                "patch_gemm run_general, filter {filter:?} on input {input:?}: {:?}",
                other.map(|run| run.output.shape())
            )),
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn misfit_operands_are_shape_mismatches_in_every_plan() {
    // On a shape every plan supports, each plan's `run` answers
    // `ShapeMismatch`, with no panic in a debug build, to an operand that
    // is not the shape asks for: a filter with the wrong Kr, Kc or Ni, an
    // input a row or a column off or with the wrong Ni, and, for the
    // backward plans, a wrong `d_out`.
    let shape = ConvShape::new(32, 16, 16, 4, 8, 3, 3);
    let [x, w, y] = [
        shape.input_shape(),
        shape.filter_shape(),
        shape.output_shape(),
    ]
    .map(zeros);
    let tensors = |shapes: [(usize, usize, usize, usize); 3]| shapes.map(Shape4::from).map(zeros);
    let bad_w = tensors([(16, 16, 2, 3), (16, 16, 3, 5), (16, 8, 3, 3)]);
    let bad_x = tensors([(32, 16, 7, 10), (32, 16, 6, 9), (32, 8, 6, 10)]);
    let bad_y = tensors([(32, 16, 3, 8), (32, 16, 4, 6), (32, 8, 4, 8)]);
    let mismatch = |e: &SwdnnError| matches!(e, SwdnnError::ShapeMismatch { .. });
    let (bwd_filter, bwd_data) = (BwdFilterPlan::new(32, 4), BwdDataPlan::new(32, 4, 8));
    let mut failed: Vec<String> = [bwd_filter.supports(&shape), bwd_data.supports(&shape)]
        .into_iter()
        .filter_map(|r| Some(format!("backward plan on {shape}: {}", r.err()?)))
        .collect();
    for schedule in &PRESETS {
        let plan = schedule.build(&LowerCtx::default());
        let what = format!("{} on {shape}", schedule.describe());
        if let Err(e) = plan.supports(&shape) {
            failed.push(format!("{what}: {e}"));
        }
        for (bx, bw) in bad_x.iter().zip(&bad_w) {
            failed.extend(not_rejected_as(
                &what,
                &[
                    ("run, input", &|| plan.run(&shape, bx, &w).map(drop)),
                    ("run, filter", &|| plan.run(&shape, &x, bw).map(drop)),
                ],
                mismatch,
            ));
        }
    }
    for ((bx, bw), by) in bad_x.iter().zip(&bad_w).zip(&bad_y) {
        failed.extend(not_rejected_as(
            &format!("bwd_filter on {shape}"),
            &[
                ("run, input", &|| bwd_filter.run(&shape, bx, &y).map(drop)),
                ("run, d_out", &|| bwd_filter.run(&shape, &x, by).map(drop)),
            ],
            mismatch,
        ));
        failed.extend(not_rejected_as(
            &format!("bwd_data on {shape}"),
            &[
                ("run, d_out", &|| bwd_data.run(&shape, by, &w).map(drop)),
                ("run, filter", &|| bwd_data.run(&shape, &y, bw).map(drop)),
            ],
            mismatch,
        ));
    }
    assert!(
        failed.is_empty(),
        "{} calls:\n{}",
        failed.len(),
        failed.join("\n")
    );
}
