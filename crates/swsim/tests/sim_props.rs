//! Property tests for the simulator: determinism under pool scheduling,
//! conservation of DMA data, bandwidth-model monotonicity, LDM allocator
//! invariants, and cost-only == functional on generated CPE programs and on
//! every error class.

use proptest::prelude::*;
use std::sync::Arc;
use sw_perfmodel::dma::DmaDirection;
use sw_perfmodel::ChipSpec;
use sw_sim::{Bus, CpeCtx, CpeStats, DmaEngine, DmaHandle, FaultPlan, Ldm, LdmBuf, Mesh, SimError};

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

/// Far above any grain: the pool path whenever more than one lane is set.
const POOL: sw_runtime::Work = sw_runtime::Work::Macs(u64::MAX);

/// Per-CPE state of a generated program: one LDM buffer and the DMA
/// transfers still in flight.
struct Prog {
    buf: LdmBuf,
    pending: Vec<DmaHandle>,
}

/// Doubles in each CPE's LDM buffer and in its slice of the output segment.
const PROG_BUF: usize = 64;

fn prog_mesh(fault: Option<FaultPlan>, cost_only: bool) -> Mesh<Prog> {
    let mut mesh = Mesh::new(ChipSpec::sw26010(), |_, _| Prog {
        buf: LdmBuf { offset: 0, len: 0 },
        pending: Vec::new(),
    });
    if cost_only {
        mesh = mesh.cost_only();
    }
    if let Some(fp) = fault {
        mesh.inject_faults(fp);
    }
    mesh
}

/// Who receives what the previous superstep put on the buses.
#[derive(Clone, Copy)]
enum Sent {
    Nothing,
    /// Broadcast along `bus` from position `from` on it.
    Bcast(Bus, usize),
    /// Point-to-point along `bus` from position `from` to position `to`.
    Send(Bus, usize, usize),
}

/// Drain what `sent` addressed to this CPE. Under message drops an empty
/// transfer buffer is part of the run, not its end.
fn receive(ctx: &mut CpeCtx<'_>, sent: Sent, lossy: bool) -> Result<(), SimError> {
    let (bus, from, to) = match sent {
        Sent::Nothing => return Ok(()),
        Sent::Bcast(bus, from) => (bus, from, None),
        Sent::Send(bus, from, to) => (bus, from, Some(to)),
    };
    // Position along the bus, and the line (row or column) the bus is.
    let (pos, line) = match bus {
        Bus::Row => (ctx.col, ctx.row),
        Bus::Col => (ctx.row, ctx.col),
    };
    // Point-to-point sends leave from line 0 only; broadcasts from all.
    let addressed = match to {
        Some(to) => line == 0 && pos == to,
        None => pos != from,
    };
    if addressed {
        let got = match bus {
            Bus::Row => ctx.recv_row(),
            Bus::Col => ctx.recv_col(),
        };
        if !lossy {
            got?;
        }
    }
    Ok(())
}

/// Interpret `ops` — `(kind, p, q, r)` tuples, one pooled superstep each —
/// on `mesh`, reading `src` and finally draining into an output segment.
/// Every CPE does the same kind of thing with sizes and offsets bent by its
/// id, so clocks and DMA queues differ across the mesh. A cost-only mesh
/// holds no LDM, so there a bus payload is zeros of the same length, as in
/// the plans' cost-only rotations.
fn run_program(
    mesh: &mut Mesh<Prog>,
    ops: &[(usize, usize, usize, usize)],
    src: &[f64],
    lossy: bool,
) -> Result<(), SimError> {
    let cost_only = mesh.is_cost_only();
    mesh.superstep(|ctx, s| {
        s.buf = ctx.ldm_alloc(PROG_BUF)?;
        Ok(())
    })?;
    let mut sent = Sent::Nothing;
    for &(kind, p, q, r) in ops {
        let prev = sent;
        sent = match kind {
            3 => Sent::Bcast(Bus::Row, (p + r) % 8),
            4 => Sent::Bcast(Bus::Col, (p + r) % 8),
            5 => Sent::Send(Bus::Row, p % 8, (p + 1 + r) % 8),
            6 => Sent::Send(Bus::Col, p % 8, (p + 1 + r) % 8),
            _ => Sent::Nothing,
        };
        mesh.superstep_with(POOL, |ctx, s| {
            receive(ctx, prev, lossy)?;
            let id = ctx.id();
            match kind {
                // Strided get, every other one priced as a collective block.
                0 => {
                    if r % 2 == 0 {
                        ctx.dma_block_hint(64 * q);
                    }
                    let h = ctx.dma_get_strided(s.buf, id % 8, src, id % 16, p, q + r, q)?;
                    s.pending.push(h);
                }
                1 => {
                    let h = ctx.dma_put_strided(s.buf, id % 4, id * PROG_BUF, p, q + r, q)?;
                    s.pending.push(h);
                }
                2 => {
                    let h = ctx.dma_put_scatter(s.buf, 0, q + 1, id * PROG_BUF, q + r, p, q)?;
                    s.pending.push(h);
                }
                3..=6 => {
                    let len = q + id % 3;
                    let payload = if cost_only {
                        vec![0.0; len]
                    } else {
                        ctx.ldm(s.buf)[..len].to_vec()
                    };
                    match sent {
                        Sent::Bcast(Bus::Row, from) if ctx.col == from => ctx.bcast_row(&payload),
                        Sent::Bcast(Bus::Col, from) if ctx.row == from => ctx.bcast_col(&payload),
                        Sent::Send(Bus::Row, from, to) if ctx.row == 0 && ctx.col == from => {
                            ctx.send_row(to, &payload)
                        }
                        Sent::Send(Bus::Col, from, to) if ctx.col == 0 && ctx.row == from => {
                            ctx.send_col(to, &payload)
                        }
                        _ => {}
                    }
                }
                _ => {
                    ctx.charge_compute((10 * p + id) as u64);
                    for h in s.pending.drain(..) {
                        ctx.dma_wait(h);
                    }
                }
            }
            Ok(())
        })?;
    }
    mesh.superstep(|ctx, s| {
        receive(ctx, sent, lossy)?;
        for h in s.pending.drain(..) {
            ctx.dma_wait(h);
        }
        Ok(())
    })?;
    let mut out = vec![0.0; 64 * PROG_BUF + 64];
    mesh.drain_puts(&mut out)
}

/// Everything a run leaves behind that the simulated clock and the error
/// path can see.
#[derive(Debug, PartialEq)]
struct Observed {
    cpes: Vec<(usize, usize, u64, sw_sim::CpeStats)>,
    supersteps: u64,
    pending_puts: usize,
    ldm_high_water: usize,
    inboxes: Result<(), SimError>,
}

fn observe(mesh: &Mesh<Prog>) -> Observed {
    Observed {
        cpes: mesh.cpe_snapshots(),
        supersteps: mesh.supersteps(),
        pending_puts: mesh.pending_puts(),
        ldm_high_water: mesh.ldm_high_water(),
        inboxes: mesh.assert_inboxes_empty(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn cost_only_mesh_matches_functional_mesh_on_generated_programs(
        ops in prop::collection::vec((0usize..8, 1usize..6, 1usize..9, 0usize..5), 1..12),
        seed in 0u64..1000,
    ) {
        // Per-CPE clock and all 15 counters, superstep count, logged puts and
        // LDM high water: none may depend on whether data moved — with no
        // faults, and with every fault kind keyed off the same sequence
        // numbers on both meshes.
        let src: Vec<f64> = (0..256).map(|i| ((i as u64 ^ seed) % 97) as f64 * 0.25).collect();
        let faults = FaultPlan::none(seed)
            .with_dma_fail_rate(0.05)
            .with_dma_stalls(0.1, 300)
            .with_msg_drop_rate(0.15)
            .with_cpe_stalls(0.1, 2_000);
        for fault in [None, Some(faults)] {
            let mut functional = prog_mesh(fault, false);
            let mut cost_only = prog_mesh(fault, true);
            prop_assert!(cost_only.is_cost_only() && !functional.is_cost_only());
            let lossy = fault.is_some();
            let ran = run_program(&mut functional, &ops, &src, lossy);
            prop_assert_eq!(run_program(&mut cost_only, &ops, &src, lossy), ran);
            prop_assert_eq!(observe(&cost_only), observe(&functional));
        }
    }
}

#[test]
fn every_error_class_is_the_same_value_on_a_cost_only_mesh() {
    // Each closure drives a fresh mesh into one error class; the functional
    // and the cost-only mesh must return the identical `SimError`, of the
    // class the case names.
    type Case = (
        &'static str,
        Option<FaultPlan>,
        fn(&mut Mesh<Prog>) -> Result<(), SimError>,
        fn(&SimError) -> bool,
    );
    let cases: [Case; 9] = [
        (
            "LDM overflow",
            None,
            |m| m.superstep(|ctx, _| ctx.ldm_alloc(10_000).map(|_| ())),
            |e| matches!(e, SimError::Ldm(_)),
        ),
        (
            "get past the source",
            None,
            |m| {
                let src = vec![1.0; 64];
                m.superstep(|ctx, _| {
                    let buf = ctx.ldm_alloc(16)?;
                    ctx.dma_get_strided(buf, 0, &src, 40 + ctx.id(), 2, 10, 8)?;
                    Ok(())
                })
            },
            |e| {
                matches!(
                    e,
                    SimError::OutOfBounds {
                        offset: 47,
                        len: 18,
                        size: 64
                    }
                )
            },
        ),
        (
            "get past the LDM buffer",
            None,
            |m| {
                let src = vec![1.0; 64];
                m.superstep(|ctx, _| {
                    let buf = ctx.ldm_alloc(8)?;
                    ctx.dma_get(buf, 4, &src, 0, 8)?;
                    Ok(())
                })
            },
            |e| matches!(e, SimError::Program(_)),
        ),
        (
            "put past the LDM buffer",
            None,
            |m| {
                m.superstep(|ctx, _| {
                    let buf = ctx.ldm_alloc(8)?;
                    ctx.dma_put_strided(buf, 2, 0, 2, 8, 4)?;
                    Ok(())
                })
            },
            |e| matches!(e, SimError::Program(_)),
        ),
        (
            "scatter put past the LDM buffer",
            None,
            |m| {
                m.superstep(|ctx, _| {
                    let buf = ctx.ldm_alloc(8)?;
                    ctx.dma_put_scatter(buf, 0, 6, 0, 8, 2, 4)?;
                    Ok(())
                })
            },
            |e| matches!(e, SimError::Program(_)),
        ),
        (
            "drain_puts past the output",
            None,
            |m| {
                m.superstep(|ctx, _| {
                    let buf = ctx.ldm_alloc(8)?;
                    // In bounds for most CPEs; the first one past the end of the
                    // 256-double output, in log order, is the error.
                    ctx.dma_put_strided(buf, 0, ctx.id() * 6, 2, 5, 4)?;
                    Ok(())
                })?;
                m.drain_puts(&mut [0.0; 256])
            },
            |e| {
                matches!(
                    e,
                    SimError::OutOfBounds {
                        offset: 257,
                        len: 4,
                        size: 256
                    }
                )
            },
        ),
        (
            "EmptyInbox",
            None,
            |m| {
                m.superstep(|ctx, _| {
                    if ctx.row == 2 {
                        ctx.recv_col()?;
                    }
                    Ok(())
                })
            },
            |e| {
                matches!(
                    e,
                    SimError::EmptyInbox {
                        row: 2,
                        col: 0,
                        bus: Bus::Col
                    }
                )
            },
        ),
        (
            "exhausted-retry DmaFault",
            Some(
                FaultPlan::none(7)
                    .with_dma_fail_rate(1.0)
                    .with_retry(sw_sim::RetryPolicy {
                        max_retries: 2,
                        base_backoff_cycles: 16,
                    }),
            ),
            |m| {
                let src = vec![0.0; 64];
                m.superstep(|ctx, _| {
                    let buf = ctx.ldm_alloc(1)?;
                    ctx.dma_get(buf, 0, &src, ctx.id(), 1)?;
                    Ok(())
                })
            },
            |e| {
                matches!(
                    e,
                    SimError::DmaFault {
                        row: 0,
                        col: 0,
                        attempts: 3
                    }
                )
            },
        ),
        (
            "CpeOffline",
            Some(FaultPlan::none(0).with_dead_cpe(3, 5)),
            |m| m.superstep(|_, _| Ok(())),
            |e| matches!(e, SimError::CpeOffline { row: 3, col: 5 }),
        ),
    ];
    for (name, fault, drive, is_the_class) in cases {
        let functional = drive(&mut prog_mesh(fault, false)).expect_err(name);
        let cost_only = drive(&mut prog_mesh(fault, true)).expect_err(name);
        assert!(is_the_class(&functional), "{name}: got {functional:?}");
        assert_eq!(cost_only, functional, "{name}");
    }
}

#[test]
fn the_first_put_past_the_output_fails_the_drain_on_both_meshes() {
    // Put ends that rise and fall, within a CPE's step, across CPEs and
    // across steps: the first put past the 16-double output in log order
    // ends at 24, and a later one ends at 48. A cost-only log that kept
    // only the furthest put would report the wrong one.
    let puts: [&[(usize, usize, usize)]; 2] = [
        // (cpe, offset, len) in program order, per superstep.
        &[(0, 0, 4), (1, 10, 4), (1, 2, 2)],
        &[(0, 2, 4), (5, 20, 4), (5, 12, 2), (9, 40, 8), (9, 0, 2)],
    ];
    let filled = |cost_only: bool| {
        let mut m = prog_mesh(None, cost_only);
        for step in puts {
            m.superstep(|ctx, s| {
                s.buf = ctx.ldm_alloc(8)?;
                for &(cpe, offset, len) in step {
                    if cpe == ctx.id() {
                        ctx.dma_put(s.buf, 0, offset, len)?;
                    }
                }
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(m.pending_puts(), 8);
        m
    };
    let past = SimError::OutOfBounds {
        offset: 20,
        len: 4,
        size: 16,
    };
    for (size, expect) in [(16, Err(past)), (48, Ok(()))] {
        let drained = [false, true].map(|cost_only| {
            let mut m = filled(cost_only);
            (m.drain_puts(&mut vec![0.0; size]), m.pending_puts())
        });
        let mut m = filled(true);
        let checked = (m.check_puts(size), m.pending_puts());
        let expect = (expect, 0);
        assert_eq!(drained, [expect.clone(), expect.clone()], "size {size}");
        assert_eq!(checked, expect, "size {size}");
    }
}

/// A fixed kernel that moves every one of the 15 per-CPE counters, fault
/// counters included: DMA gets and puts under injected failures and stalls,
/// row broadcasts and column sends under message drops, CPE stalls, compute
/// and issue-slot charges.
fn all_counters_kernel(threads: usize) -> Vec<(usize, usize, u64, sw_sim::CpeStats)> {
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

/// The SW26010 core group with a `dim`×`dim` mesh (4: the degraded chip).
fn chip(dim: usize) -> ChipSpec {
    ChipSpec {
        mesh_dim: dim,
        cpes_per_cg: dim * dim,
        ..ChipSpec::sw26010()
    }
}

/// One round's compute charge of a generated rotation.
fn round_charge(cycles: u64) -> CpeStats {
    CpeStats {
        compute_cycles: cycles,
        flops: 2 * cycles + 1,
        ldm_reg_bytes: 32 * cycles,
        p0_issue_slots: cycles / 2,
        p1_issue_slots: cycles / 3 + 1,
        ..CpeStats::default()
    }
}

/// The rotation [`Mesh::price_rotation`] prices, stepped: in round `r`
/// column `r` broadcasts an `a_len` block on the row buses and row `r` a
/// `b_len` block on the column buses, then every CPE receives the blocks it
/// does not own and is charged `round`. Under message drops (`lossy`) an
/// empty transfer buffer is part of the run.
fn step_rotation<S: Send>(
    mesh: &mut Mesh<S>,
    a_len: usize,
    b_len: usize,
    round: &CpeStats,
    lossy: bool,
) -> Result<(), SimError> {
    let a: Arc<[f64]> = vec![0.0; a_len].into();
    let b: Arc<[f64]> = vec![0.0; b_len].into();
    let received = |got: Result<Arc<[f64]>, SimError>| match got {
        Err(_) if lossy => Ok(()),
        got => got.map(|_| ()),
    };
    let dim = mesh.chip.mesh_dim;
    mesh.superstep_rounds(
        dim,
        sw_runtime::Work::Macs(0),
        &|r, ctx: &mut CpeCtx<'_>, _: &mut S| {
            if ctx.col == r {
                ctx.bcast_row_shared(Arc::clone(&a));
            }
            if ctx.row == r {
                ctx.bcast_col_shared(Arc::clone(&b));
            }
            Ok(())
        },
        &|r, ctx: &mut CpeCtx<'_>, _: &mut S| {
            if ctx.col != r {
                received(ctx.recv_row())?;
            }
            if ctx.row != r {
                received(ctx.recv_col())?;
            }
            ctx.charge_compute(round.compute_cycles);
            ctx.add_flops(round.flops);
            ctx.add_ldm_reg_bytes(round.ldm_reg_bytes);
            ctx.add_issue_slots(round.p0_issue_slots, round.p1_issue_slots);
            Ok(())
        },
    )
}

type Snapshots = Vec<(usize, usize, u64, CpeStats)>;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn priced_rotation_equals_stepped_rotation(
        dim in prop::sample::select(vec![8usize, 4]),
        a_len in 1usize..40,
        b_len in 1usize..40,
        cycles in 0u64..400,
        sync in 0u64..40,
        skewed in prop::sample::select(vec![false, true]),
        seed in 0u64..1000,
    ) {
        // Every CPE's clock and counters and the superstep count after one
        // rotation, priced on one cost-only mesh and stepped on another —
        // across a DMA in flight, under DMA-only faults, from clocks a failed
        // step left unequal. Then both step one more rotation under message
        // drops and CPE stalls, which key off the delivery and superstep
        // sequence numbers the priced rotation advanced.
        let round = round_charge(cycles);
        let src = vec![0.0; 1024];
        let run = |priced: bool| -> (Snapshots, u64, Snapshots, u64) {
            let mut mesh: Mesh<Vec<DmaHandle>> = Mesh::new(chip(dim), |_, _| Vec::new()).cost_only();
            mesh.sync_cycles = sync;
            mesh.inject_faults(FaultPlan::none(seed).with_dma_fail_rate(0.05).with_dma_stalls(0.1, 300));
            mesh.superstep(|ctx, pending| {
                let buf = ctx.ldm_alloc(64)?;
                pending.push(ctx.dma_get(buf, 0, &src, 8 * ctx.id(), 64)?);
                ctx.charge_compute(7 * ctx.id() as u64);
                Ok(())
            }).unwrap();
            if skewed {
                mesh.superstep(|ctx, _| {
                    ctx.charge_compute(13 * (ctx.id() as u64 % 7));
                    match (ctx.row, ctx.col) {
                        (1, 2) => Err(SimError::Program("leaves the clocks unequal".into())),
                        _ => Ok(()),
                    }
                }).unwrap_err();
            }
            if priced {
                assert!(mesh.price_rotation(a_len, b_len, &round), "DMA-only faults");
            } else {
                step_rotation(&mut mesh, a_len, b_len, &round, false).unwrap();
            }
            let rotated = (mesh.cpe_snapshots(), mesh.supersteps());
            mesh.inject_faults(FaultPlan::none(seed).with_msg_drop_rate(0.2).with_cpe_stalls(0.2, 500));
            step_rotation(&mut mesh, a_len, b_len, &round, true).unwrap();
            mesh.superstep(|ctx, pending| {
                for h in pending.drain(..) {
                    ctx.dma_wait(h);
                }
                Ok(())
            }).unwrap();
            (rotated.0, rotated.1, mesh.cpe_snapshots(), mesh.supersteps())
        };
        let (priced, stepped) = (run(true), run(false));
        prop_assert_eq!(&priced, &stepped);
        let dropped: u64 = priced.2.iter().map(|(_, _, _, s)| s.msgs_dropped).sum();
        prop_assert!(dropped > 0, "the drop plan must drop deliveries");
    }
}

#[test]
fn price_rotation_declines_whatever_a_rotation_step_could_meet() {
    // Declining leaves every clock, counter and sequence number as it was.
    let drops = FaultPlan::none(1).with_msg_drop_rate(0.1);
    let stalls = FaultPlan::none(1).with_cpe_stalls(0.1, 100);
    let dead = FaultPlan::none(1).with_dead_cpe(2, 6);
    let dma = FaultPlan::none(1)
        .with_dma_fail_rate(0.5)
        .with_dma_stalls(0.5, 300);
    // (case, cost-only, faults, a message unread, accepted)
    let cases = [
        ("cost-only, no faults", true, None, false, true),
        ("DMA faults only", true, Some(dma), false, true),
        ("functional mesh", false, None, false, false),
        ("an unread message", true, None, true, false),
        ("message drops", true, Some(drops), false, false),
        ("CPE stalls", true, Some(stalls), false, false),
        ("a dead CPE", true, Some(dead), false, false),
    ];
    for (case, cost_only, fault, unread, accepted) in cases {
        let mut mesh: Mesh<()> = Mesh::new(ChipSpec::sw26010(), |_, _| ());
        if cost_only {
            mesh = mesh.cost_only();
        }
        if unread {
            mesh.superstep(|ctx, _| {
                if ctx.col == 0 {
                    ctx.bcast_row(&[1.0; 4]);
                }
                Ok(())
            })
            .unwrap();
        }
        if let Some(fp) = fault {
            mesh.inject_faults(fp);
        }
        let before = (mesh.cpe_snapshots(), mesh.supersteps());
        let priced = mesh.price_rotation(12, 20, &round_charge(50));
        assert_eq!(priced, accepted, "{case}");
        if !priced {
            assert_eq!((mesh.cpe_snapshots(), mesh.supersteps()), before, "{case}");
        }
    }
}
