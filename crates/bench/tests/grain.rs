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
//! The same holds one level up: at 8 lanes each Table III shape posts a
//! fixed number of handoffs — one per rotation plus one per pooled single
//! superstep (the DMA and clear supersteps whose resident LDM is above the
//! grain) — pinned here to the counts recorded when a rotation became one
//! batch. An engine that fell back to a handoff per round would post
//! ~16× as many.
//!
//! A private [`sw_runtime::ExecutionContext`] keeps the counts this test's
//! own.

use sw_bench::configs::perf_snapshot_configs;
use sw_perfmodel::ChipSpec;
use sw_runtime::ExecutionContext;
use sw_sim::{CpeStats, LdmBuf, Mesh};
use swdnn::plans::gemm_mesh::{regcomm_gemm, zero_c, GemmBlock};
use swdnn::Executor;

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
}

fn rotate(rt: &'static ExecutionContext, (m8, n8, k8): (usize, usize, usize)) -> Rotation {
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

    let before = rt.pool_handoffs();
    regcomm_gemm(
        &mut mesh,
        GemmBlock::dense(m8, n8, k8, true),
        |_, s: &St, dst: &mut Vec<f64>| dst.extend_from_slice(&s.a),
        |_, s: &St, dst: &mut Vec<f64>| dst.extend_from_slice(&s.b),
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
    }
}

#[test]
fn rotations_cross_the_pool_only_above_the_grain() {
    let rt: &'static ExecutionContext = Box::leak(Box::new(ExecutionContext::new()));
    let gemm_small = (2, 4, 2); // 64·16 = 1 024 MACs per round
    let at_grain = (8, 16, 16); // 64·2048 = 131 072 MACs per round
    for (block, expect) in [(gemm_small, 0), (at_grain, 1)] {
        let one = sw_runtime::with_threads(1, || rotate(rt, block));
        assert_eq!(one.handoffs, 0, "{block:?}: one lane never posts");
        for threads in [2, 8] {
            let many = sw_runtime::with_threads(threads, || rotate(rt, block));
            assert_eq!(many.handoffs, expect, "{block:?} @ {threads} lanes");
            assert_eq!(many.cycles, one.cycles, "{block:?} @ {threads} lanes");
            assert_eq!(many.cpes, one.cpes, "{block:?} @ {threads} lanes");
            assert_eq!(many.output_bits, one.output_bits, "{block:?} @ {threads}");
        }
    }
}

#[test]
fn table3_shapes_post_their_recorded_handoffs() {
    let rt: &'static ExecutionContext = Box::leak(Box::new(ExecutionContext::new()));
    let exec = Executor::new().on_runtime(rt);
    // Per shape, in `perf_snapshot_configs` order.
    let recorded = [69, 69, 321, 177];
    let run_shapes = || -> Vec<_> {
        perf_snapshot_configs()
            .iter()
            .map(|(shape, kind)| exec.run_config_with(shape, *kind).unwrap())
            .collect()
    };
    let one = sw_runtime::with_threads(1, run_shapes);
    let eight = sw_runtime::with_threads(8, run_shapes);
    for ((one, eight), want) in one.iter().zip(&eight).zip(recorded) {
        assert_eq!(one.pool_handoffs, 0, "{}: one lane never posts", one.shape);
        assert_eq!(eight.pool_handoffs, want, "{} @ 8 lanes", eight.shape);
        assert_eq!(
            eight.timing.cycles, one.timing.cycles,
            "{}: the host schedule must not move simulated time",
            eight.shape
        );
    }
}
