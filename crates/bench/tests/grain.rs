//! Count gate for the superstep grain (DESIGN.md §14 "Grain"): whether a
//! GEMM rotation crosses the worker pool is a pure function of its shape
//! and the lane count — never of timing — and the choice is invisible on
//! the simulated clock.
//!
//! At 8 lanes a rotation below the grain (the benchmark's `gemm_small`
//! block, 1 024 MACs per round) posts no pool handoff at all; one at the
//! grain (131 072 MACs per round) posts exactly one for its whole fused
//! batch. Either way cycles, every CPE's clock and counters, and the output
//! bits equal the single-lane run.
//!
//! The same holds one level up: at 8 lanes a functional run of each
//! Table III plan over two output rows of its blocking posts a fixed number
//! of handoffs — one per rotation plus one per pooled single superstep (the
//! DMA and clear supersteps whose resident LDM is above the grain) — pinned
//! here. An engine that fell back to a handoff per round would post ~16× as
//! many.
//!
//! A cost-only mesh (`Mesh::cost_only`) does no host arithmetic, so it has
//! nothing to fan out: a cost-only rotation, and therefore every Table III
//! *timing*, posts no handoff at any lane count and calls no pack closure,
//! yet lands every CPE on the functional run's clock and counters.
//!
//! A private [`sw_runtime::ExecutionContext`] keeps the counts this test's
//! own.

use std::sync::atomic::{AtomicUsize, Ordering};
use sw_bench::configs::perf_snapshot_configs;
use sw_perfmodel::ChipSpec;
use sw_runtime::ExecutionContext;
use sw_sim::{CpeStats, LdmBuf, Mesh};
use sw_tensor::init::seeded_tensor;
use sw_tensor::{ConvShape, Layout};
use swdnn::plans::gemm_mesh::{regcomm_gemm, zero_c, GemmBlock};
use swdnn::{Conv2d, Executor, LowerCtx};

struct St {
    a: Vec<f64>,
    b: Vec<f64>,
    c: LdmBuf,
}

struct Rotation {
    cycles: u64,
    cpes: Vec<(usize, usize, u64, CpeStats)>,
    output_bits: Vec<u64>,
    /// Handoffs posted by the rotation alone (setup and read-back excluded).
    handoffs: u64,
    /// Calls of either pack closure.
    packs: usize,
}

fn rotate(
    rt: &'static ExecutionContext,
    (m8, n8, k8): (usize, usize, usize),
    cost_only: bool,
) -> Rotation {
    let mut mesh = Mesh::new_on(rt, ChipSpec::sw26010(), |row, col| St {
        a: (0..k8 * m8)
            .map(|i| ((row * 131 + col * 17 + i * 7) % 23) as f64 - 11.0)
            .collect(),
        b: (0..k8 * n8)
            .map(|i| ((row * 19 + col * 113 + i * 5) % 29) as f64 - 14.0)
            .collect(),
        c: LdmBuf { offset: 0, len: 0 },
    });
    if cost_only {
        mesh = mesh.cost_only();
    }
    mesh.superstep(|ctx, s| {
        s.c = ctx.ldm_alloc(m8 * n8)?;
        Ok(())
    })
    .unwrap();
    zero_c(&mut mesh, |s: &St| s.c).unwrap();

    let packs = AtomicUsize::new(0);
    let before = rt.pool_handoffs();
    regcomm_gemm(
        &mut mesh,
        GemmBlock::dense(m8, n8, k8, true),
        |_, s: &St, dst: &mut Vec<f64>| {
            packs.fetch_add(1, Ordering::Relaxed);
            dst.extend_from_slice(&s.a)
        },
        |_, s: &St, dst: &mut Vec<f64>| {
            packs.fetch_add(1, Ordering::Relaxed);
            dst.extend_from_slice(&s.b)
        },
        |s| (s.c, 0),
    )
    .unwrap();
    let handoffs = rt.pool_handoffs() - before;
    mesh.assert_inboxes_empty().unwrap();
    let cpes = mesh.cpe_snapshots();
    let cycles = mesh.stats().cycles;

    let mut out = vec![f64::NAN; 64 * m8 * n8];
    mesh.superstep(|ctx, s| {
        ctx.dma_put(s.c, 0, ctx.id() * m8 * n8, m8 * n8)?;
        Ok(())
    })
    .unwrap();
    mesh.drain_puts(&mut out).unwrap();
    Rotation {
        cycles,
        cpes,
        output_bits: out.iter().map(|v| v.to_bits()).collect(),
        handoffs,
        packs: packs.into_inner(),
    }
}

#[test]
fn rotations_cross_the_pool_only_above_the_grain() {
    let rt: &'static ExecutionContext = Box::leak(Box::new(ExecutionContext::new()));
    let gemm_small = (2, 4, 2); // 64·16 = 1 024 MACs per round
    let at_grain = (8, 16, 16); // 64·2048 = 131 072 MACs per round
    for (block, expect) in [(gemm_small, 0), (at_grain, 1)] {
        let one = sw_runtime::with_threads(1, || rotate(rt, block, false));
        assert_eq!(one.handoffs, 0, "{block:?}: one lane never posts");
        assert_eq!(one.packs, 2 * 64, "{block:?}: one pack per broadcast");
        for threads in [2, 8] {
            let many = sw_runtime::with_threads(threads, || rotate(rt, block, false));
            assert_eq!(many.handoffs, expect, "{block:?} @ {threads} lanes");
            assert_eq!(many.cycles, one.cycles, "{block:?} @ {threads} lanes");
            assert_eq!(many.cpes, one.cpes, "{block:?} @ {threads} lanes");
            assert_eq!(many.output_bits, one.output_bits, "{block:?} @ {threads}");
        }
        // Cost-only: the same clocks and counters with nothing to fan out
        // and nothing packed (the output bits are not meaningful there).
        for threads in [1, 2, 8] {
            let cost = sw_runtime::with_threads(threads, || rotate(rt, block, true));
            assert_eq!(cost.handoffs, 0, "{block:?} cost-only @ {threads} lanes");
            assert_eq!(cost.packs, 0, "{block:?} cost-only @ {threads} lanes");
            assert_eq!(cost.cycles, one.cycles, "{block:?} cost-only @ {threads}");
            assert_eq!(cost.cpes, one.cpes, "{block:?} cost-only @ {threads}");
        }
    }
}

#[test]
fn table3_shapes_post_their_recorded_handoffs() {
    let rt: &'static ExecutionContext = Box::leak(Box::new(ExecutionContext::new()));
    let exec = Executor::new().on_runtime(rt);
    // Per shape, in `perf_snapshot_configs` order: the `cycles` column of
    // `results/perf_counters.csv`, and the handoffs of a functional run over
    // two output rows of the plan's blocking at 8 lanes.
    let cycles = [500638728u64, 940694536, 1843764232, 1596436488];
    let recorded = [46u64, 46, 214, 118];

    // A timing walks cost-only meshes: no handoff at any lane count.
    let time_shapes = || -> Vec<_> {
        perf_snapshot_configs()
            .iter()
            .map(|(shape, kind)| exec.run_config_with(shape, *kind).unwrap())
            .collect()
    };
    for threads in [1, 8] {
        for (report, want) in sw_runtime::with_threads(threads, time_shapes)
            .iter()
            .zip(cycles)
        {
            let at = format!("{} @ {threads} lanes", report.shape);
            assert_eq!(report.pool_handoffs, 0, "{at}: a timing never posts");
            assert_eq!(report.timing.cycles, want, "{at}: simulated time moved");
        }
    }

    // The functional run of the same plans, two outer iterations each.
    let run_shapes = || -> Vec<(ConvShape, u64, u64)> {
        perf_snapshot_configs()
            .iter()
            .map(|(shape, kind)| {
                let plan = Conv2d::new(*shape)
                    .unwrap()
                    .with_plan(*kind)
                    .on(LowerCtx::default().on_runtime(rt))
                    .plan();
                let blk = plan.blocking(shape);
                let two_rows = ConvShape {
                    batch: blk.b_b,
                    ro: 2,
                    co: blk.b_co,
                    ..*shape
                };
                let input = seeded_tensor(two_rows.input_shape(), Layout::Nchw, 1);
                let filter = seeded_tensor(two_rows.filter_shape(), Layout::Nchw, 2);
                let before = rt.pool_handoffs();
                let run = plan.run(&two_rows, &input, &filter).unwrap();
                (two_rows, rt.pool_handoffs() - before, run.timing.cycles)
            })
            .collect()
    };
    let one = sw_runtime::with_threads(1, run_shapes);
    let eight = sw_runtime::with_threads(8, run_shapes);
    for ((one, eight), want) in one.iter().zip(&eight).zip(recorded) {
        let shape = one.0;
        assert_eq!(one.1, 0, "{shape}: one lane never posts");
        assert_eq!(eight.1, want, "{shape} @ 8 lanes");
        assert_eq!(
            eight.2, one.2,
            "{shape}: the host schedule must not move simulated time"
        );
    }
}
