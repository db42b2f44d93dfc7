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
//! A private [`sw_runtime::ExecutionContext`] keeps the counts this test's
//! own; its own test binary keeps `handoffs.rs` toggling the process-wide
//! unfused switch from changing them mid-run.

use sw_perfmodel::ChipSpec;
use sw_runtime::ExecutionContext;
use sw_sim::{CpeStats, LdmBuf, Mesh};
use swdnn::plans::gemm_mesh::{regcomm_gemm, unfused_forced, zero_c, GemmBlock};

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
    // Under SWDNN_UNFUSED=1 (the CI opt-out run) a rotation worth the pool
    // pays one handoff per round instead of one per batch.
    let per_rotation = if unfused_forced() { 8 } else { 1 };
    let gemm_small = (2, 4, 2); // 64·16 = 1 024 MACs per round
    let at_grain = (8, 16, 16); // 64·2048 = 131 072 MACs per round
    for (block, expect) in [(gemm_small, 0), (at_grain, per_rotation)] {
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
