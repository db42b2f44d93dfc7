//! Property tests for the simulator: determinism under pool scheduling,
//! conservation of DMA data, bandwidth-model monotonicity, and LDM
//! allocator invariants.

use proptest::prelude::*;
use sw_perfmodel::dma::DmaDirection;
use sw_perfmodel::ChipSpec;
use sw_sim::{DmaEngine, Ldm, LdmBuf, Mesh};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn dma_round_trip_preserves_data(len in 1usize..64, seed in 0u64..1000) {
        // Every CPE copies its slice through LDM; the output must equal
        // the input exactly.
        let n = len * 64;
        let src: Vec<f64> = (0..n).map(|i| ((i as u64 ^ seed) % 1000) as f64 * 0.5).collect();
        let mut out = vec![0.0f64; n];
        let mut mesh: Mesh<LdmBuf> =
            Mesh::new(ChipSpec::sw26010(), |_, _| LdmBuf { offset: 0, len: 0 });
        mesh.superstep(|ctx, buf| {
            *buf = ctx.ldm_alloc(len)?;
            let base = ctx.id() * len;
            let h = ctx.dma_get(*buf, 0, &src, base, len)?;
            ctx.dma_wait(h);
            let h = ctx.dma_put(*buf, 0, base, len)?;
            ctx.dma_wait(h);
            Ok(())
        }).unwrap();
        mesh.drain_puts(&mut out).unwrap();
        prop_assert_eq!(out, src);
    }

    #[test]
    fn simulation_timing_is_deterministic(len in 1usize..32, reps in 1usize..4) {
        // Rayon's scheduling must never leak into simulated time.
        let run = || {
            let src = vec![1.0f64; len * 64];
            let mut mesh: Mesh<LdmBuf> =
                Mesh::new(ChipSpec::sw26010(), |_, _| LdmBuf { offset: 0, len: 0 });
            mesh.superstep(|ctx, buf| {
                *buf = ctx.ldm_alloc(len)?;
                Ok(())
            }).unwrap();
            for _ in 0..reps {
                mesh.superstep(|ctx, buf| {
                    let h = ctx.dma_get(*buf, 0, &src, ctx.id() * len, len)?;
                    ctx.dma_wait(h);
                    if ctx.col == 0 {
                        ctx.bcast_row(&[1.0, 2.0, 3.0, 4.0]);
                    }
                    Ok(())
                }).unwrap();
                mesh.superstep(|ctx, _| {
                    if ctx.col != 0 {
                        let _ = ctx.recv_row()?;
                    }
                    Ok(())
                }).unwrap();
            }
            let st = mesh.stats();
            (st.cycles, st.totals)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    #[test]
    fn broadcast_reaches_exactly_seven_peers(row in 0usize..8, col in 0usize..8) {
        let mut mesh: Mesh<usize> = Mesh::new(ChipSpec::sw26010(), |_, _| 0);
        mesh.superstep(|ctx, _| {
            if ctx.row == row && ctx.col == col {
                ctx.bcast_row(&[7.0; 4]);
                ctx.bcast_col(&[9.0; 4]);
            }
            Ok(())
        }).unwrap();
        mesh.superstep(|ctx, got| {
            if ctx.row == row && ctx.col != col {
                assert_eq!(ctx.recv_row()?[0], 7.0);
                *got += 1;
            }
            if ctx.col == col && ctx.row != row {
                assert_eq!(ctx.recv_col()?[0], 9.0);
                *got += 1;
            }
            Ok(())
        }).unwrap();
        mesh.assert_inboxes_empty().unwrap();
        let st = mesh.stats();
        prop_assert_eq!(st.totals.bus_vectors_received, 14);
    }

    #[test]
    fn dma_bandwidth_cost_is_monotone_in_bytes(block in 1usize..9, a in 1usize..50, b in 1usize..50) {
        let e = DmaEngine::new(ChipSpec::sw26010());
        let block_bytes = block * 128;
        let (small, large) = (a.min(b) * 256, a.max(b) * 256);
        let cs = e.cost_cycles(DmaDirection::Get, small, block_bytes);
        let cl = e.cost_cycles(DmaDirection::Get, large, block_bytes);
        prop_assert!(cs <= cl);
    }

    #[test]
    fn larger_blocks_never_cost_more_per_byte(b1 in 1usize..64, b2 in 1usize..64) {
        // Effective bandwidth is non-decreasing in block size on the
        // interpolated curve except at the published misalignment dips —
        // compare only 128-byte multiples that are also 256-aligned.
        let e = DmaEngine::new(ChipSpec::sw26010());
        let (s, l) = (b1.min(b2) * 256, b1.max(b2) * 256);
        let bytes = 1 << 20;
        let cs = e.cost_cycles(DmaDirection::Get, bytes, s);
        let cl = e.cost_cycles(DmaDirection::Get, bytes, l);
        prop_assert!(cl <= cs + 1, "block {l} slower than {s}: {cl} vs {cs}");
    }

    #[test]
    fn ldm_allocator_never_hands_out_overlapping_buffers(sizes in prop::collection::vec(1usize..600, 1..20)) {
        let mut ldm = Ldm::new(64 * 1024);
        let mut taken: Vec<(usize, usize)> = Vec::new();
        for len in sizes {
            match ldm.alloc(len) {
                Ok(buf) => {
                    for &(o, l) in &taken {
                        prop_assert!(
                            buf.offset >= o + l || buf.offset + buf.len <= o,
                            "overlap: ({o},{l}) vs ({},{})", buf.offset, buf.len
                        );
                    }
                    prop_assert!(buf.offset % 4 == 0, "alignment");
                    prop_assert!(buf.offset + buf.len <= ldm.capacity_doubles());
                    taken.push((buf.offset, buf.len));
                }
                Err(e) => {
                    // Failure must be honest: the request really exceeds
                    // what's left (accounting for alignment padding).
                    prop_assert!(e.used_doubles + len > e.capacity_doubles
                        || e.used_doubles + e.requested_doubles > e.capacity_doubles);
                }
            }
        }
    }

    #[test]
    fn strided_gets_pack_correctly(runs in 1usize..6, run_len in 1usize..8, stride_extra in 0usize..5) {
        let stride = run_len + stride_extra;
        let total_src = stride * runs + run_len + 4;
        let src: Vec<f64> = (0..total_src).map(|i| i as f64).collect();
        let mut mesh: Mesh<LdmBuf> =
            Mesh::new(ChipSpec::sw26010(), |_, _| LdmBuf { offset: 0, len: 0 });
        let expected: Vec<f64> = (0..runs)
            .flat_map(|r| (0..run_len).map(move |i| (r * stride + i) as f64))
            .collect();
        mesh.superstep(|ctx, buf| {
            if ctx.id() != 0 {
                return Ok(());
            }
            *buf = ctx.ldm_alloc(runs * run_len)?;
            let h = ctx.dma_get_strided(*buf, 0, &src, 0, runs, stride, run_len)?;
            ctx.dma_wait(h);
            assert_eq!(ctx.ldm(*buf), &expected[..]);
            Ok(())
        }).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn counter_totals_are_schedule_independent(len in 1usize..32, flops in 1u64..1000) {
        // Each CPE's counters have one writer per superstep (whichever
        // lane runs that CPE) and are summed only after the barrier, so
        // aggregate totals must match the closed-form expectation on every
        // run and be identical across repeated runs (whatever interleaving
        // the thread pool happens to produce).
        let run = || {
            let src = vec![1.0f64; len * 64];
            let mut mesh: Mesh<LdmBuf> =
                Mesh::new(ChipSpec::sw26010(), |_, _| LdmBuf { offset: 0, len: 0 });
            mesh.superstep(|ctx, buf| {
                *buf = ctx.ldm_alloc(len)?;
                let h = ctx.dma_get(*buf, 0, &src, ctx.id() * len, len)?;
                ctx.dma_wait(h);
                ctx.add_flops(flops);
                ctx.add_ldm_reg_bytes(32 * flops);
                ctx.add_issue_slots(flops, 2 * flops);
                Ok(())
            }).unwrap();
            mesh.stats()
        };
        let first = run();
        prop_assert_eq!(first.totals.dma_get_bytes, (len * 8 * 64) as u64);
        prop_assert_eq!(first.totals.flops, 64 * flops);
        prop_assert_eq!(first.totals.ldm_reg_bytes, 64 * 32 * flops);
        prop_assert_eq!(first.totals.p0_issue_slots, 64 * flops);
        prop_assert_eq!(first.totals.p1_issue_slots, 64 * 2 * flops);
        for _ in 0..3 {
            let again = run();
            prop_assert_eq!(again.totals, first.totals);
            prop_assert_eq!(again.cycles, first.cycles);
        }
    }
}

/// A fixed kernel that moves every one of the 15 per-CPE counters, fault
/// counters included: DMA gets and puts under injected failures and stalls,
/// row broadcasts and column sends under message drops, CPE stalls, compute
/// and issue-slot charges.
fn all_counters_kernel(threads: usize) -> Vec<(usize, usize, u64, sw_sim::CpeStats)> {
    use sw_sim::FaultPlan;
    // Far above any grain: the pool path whenever `threads > 1`.
    const POOL: sw_runtime::Work = sw_runtime::Work::Macs(u64::MAX);
    let src: Vec<f64> = (0..64 * 64).map(|i| (i % 97) as f64 * 0.25).collect();
    sw_runtime::with_threads(threads, || {
        let mut mesh: Mesh<LdmBuf> =
            Mesh::new(ChipSpec::sw26010(), |_, _| LdmBuf { offset: 0, len: 0 });
        mesh.inject_faults(
            FaultPlan::none(0x5eed)
                .with_dma_fail_rate(0.05)
                .with_dma_stalls(0.1, 300)
                .with_msg_drop_rate(0.15)
                .with_cpe_stalls(0.1, 2_000),
        );
        mesh.superstep_with(POOL, |ctx, buf| {
            *buf = ctx.ldm_alloc(64)?;
            let h = ctx.dma_get(*buf, 0, &src, ctx.id() * 64, 64)?;
            ctx.dma_wait(h);
            Ok(())
        })
        .unwrap();
        for round in 0..6usize {
            mesh.superstep_with(POOL, |ctx, buf| {
                if ctx.col == round {
                    let payload = ctx.ldm(*buf)[..8].to_vec();
                    ctx.bcast_row(&payload);
                }
                if ctx.row == round {
                    let payload = ctx.ldm(*buf)[8..12].to_vec();
                    ctx.send_col((round + 1) % 8, &payload);
                }
                let id = ctx.id() as u64;
                ctx.charge_compute(10 + id);
                ctx.add_flops(2 * id + 1);
                ctx.add_ldm_reg_bytes(32 * (id + 1));
                ctx.add_issue_slots(id + 3, 2 * id + 5);
                let h = ctx.dma_get_strided(*buf, 0, &src, ctx.id() * 32, 4, 16, 8)?;
                ctx.dma_wait(h);
                Ok(())
            })
            .unwrap();
            mesh.superstep_with(POOL, |ctx, buf| {
                // A dropped message leaves the transfer buffer empty; the
                // kernel shrugs that off so the run reaches the end.
                if ctx.col != round {
                    let _ = ctx.recv_row();
                }
                if ctx.row == (round + 1) % 8 {
                    let _ = ctx.recv_col();
                }
                let h = ctx.dma_put(*buf, 0, ctx.id() * 16, 16)?;
                ctx.dma_wait(h);
                Ok(())
            })
            .unwrap();
        }
        mesh.cpe_snapshots()
    })
}

#[test]
fn plain_counters_count_what_the_atomic_counters_counted() {
    // Captured from the implementation whose per-CPE counters were relaxed
    // atomics (`sw_obs::Counter`), before they became plain `u64`s written
    // through the superstep's `&mut CpeNode`: the mesh totals of every
    // counter, and an order-sensitive fold over every CPE's coordinates,
    // clock and 15 counters.
    const TOTALS: [(&str, u64); 15] = [
        ("dma_get_bytes", 131_072),
        ("dma_put_bytes", 49_152),
        ("dma_requests", 832),
        ("bus_vectors_sent", 144),
        ("bus_vectors_received", 632),
        ("flops", 24_576),
        ("ldm_reg_bytes", 399_360),
        ("p0_issue_slots", 13_248),
        ("p1_issue_slots", 26_112),
        ("dma_stall_cycles", 1_471_236),
        ("compute_cycles", 15_936),
        ("dma_retries", 41),
        ("fault_retry_cycles", 80_560),
        ("fault_stall_cycles", 183_700),
        ("msgs_dropped", 46),
    ];
    const PER_CPE_FOLD: u64 = 7_914_512_079_072_184_196;

    let fold = |snaps: &[(usize, usize, u64, sw_sim::CpeStats)]| {
        snaps.iter().fold(0u64, |h, (row, col, clock, stats)| {
            let h = h.rotate_left(5) ^ (*row as u64 * 8 + *col as u64) ^ clock.rotate_left(17);
            stats
                .named()
                .iter()
                .fold(h, |h, (_, v)| h.rotate_left(9) ^ v)
        })
    };
    for threads in [1usize, 4, 8] {
        let snaps = all_counters_kernel(threads);
        let mut totals = sw_sim::CpeStats::default();
        for (_, _, _, s) in &snaps {
            totals.add(s);
        }
        assert_eq!(totals.named(), TOTALS, "totals @ {threads} threads");
        assert!(
            totals.named().iter().all(|&(_, v)| v > 0),
            "the kernel must exercise every counter"
        );
        assert_eq!(
            fold(&snaps),
            PER_CPE_FOLD,
            "per-CPE fold @ {threads} threads"
        );
    }
}
