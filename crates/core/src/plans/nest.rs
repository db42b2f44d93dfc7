//! The one loop nest of every mesh plan: image-aware (Algorithm 1),
//! batch-aware (Algorithm 2), patch-GEMM and the two backward passes.
//!
//! [`Nest::walk`] allocates the LDM the plan declares ([`Nest::ldm_buffers`])
//! on every CPE in one setup superstep. Then, per tile, it zeroes the
//! distributed accumulator (and the window, where the plan holds one), runs
//! the tile's steps — each a superstep that issues and then waits on operand
//! DMAs, followed by at most one register-communication rotation — and puts
//! the tile back, waiting on the put. A plan states only what differs, as a
//! [`Nest`]: its context and operands; its LDM buffers; its tiles; its
//! steps, each naming its fetches and where its rotation's blocks start;
//! each fetch's strided get; the rotations' block shape and how each
//! operand's block is packed; and its put. Patch-GEMM also stages each `B`
//! fetch on the MPE first, which a functional mesh runs and a cost-only one
//! skips. A backward pass is one tile whose steps are its pixel tiles.
//!
//! The one timing protocol, [`Nest::time_sampled`], walks the plan's
//! [`Walks`] on a cost-only mesh and [`extrapolate`]s two samples to the
//! full trip count. A cost-only walk holds no operand: its gets read
//! [`Nest::operand_lens`] as lengths, and its mesh keeps of its puts a count
//! and the few records the drain can report, so what a timing holds does
//! not grow with its extent.
//!
//! A plan whose `ldm_buffers` holds a `win` (backward-data's `dX` window)
//! assembles its output there: after every rotation a superstep folds `C`
//! into the window and puts what it completes ([`Nest::fold`]), and the
//! tile has no put superstep of its own.
//!
//! Fetch `j` of an operand lands in LDM copy `j % copies`, `copies` being
//! what the plan's `ldm_buffers` holds of it: 2 where it is double-buffered
//! against compute (§IV-A), else 1. A step issues every fetch it needs that
//! no earlier step issued, then prefetches each double-buffered operand's
//! `j + 1` where its run goes on, and waits for its fetches in order.
//! Faults are keyed by superstep and DMA sequence numbers, so this order is
//! part of every plan's timing.

use super::gemm_mesh::{lease_scratch, regcomm_gemm_with, zero_c, GemmBlock};
use super::{finish, LdmBuffers, LowerCtx, PlanTiming, Slot};
use crate::error::SwdnnError;
use sw_sim::ldm::padded_len;
use sw_sim::{CgStats, CpeCtx, DmaHandle, DmaSource, LdmBuf, Mesh, SimError};
use sw_tensor::ConvShape;

/// The handle of a fetch's or put's last DMA request.
pub(crate) type Dma = Result<Option<DmaHandle>, SimError>;

/// A rotation's operand, `A` in [`Slot`]'s `a` and `B` in its `b`: the
/// filters and the pixels of a forward pass.
#[derive(Clone, Copy)]
pub(crate) enum Operand {
    A,
    B,
}

/// What a step does with fetch `j` of run `run` of an operand. A run's
/// fetches alternate copies where the operand is double-buffered.
#[derive(Clone, Copy)]
pub(crate) enum Fetch {
    /// `Issue(run, j)`: issue it and leave it in flight for a later step.
    Issue(usize, usize),
    /// `Need(run, j, n)`, of a run of `n` fetches: issue it unless in
    /// flight, prefetch `j + 1` where double-buffered, then wait for it.
    Need(usize, usize, usize),
}

/// The rotation after a step, over the operand copies last waited on: its
/// `A` block starts `a_at` doubles into the `A` copy, its `B` block is read
/// from `b_at` (the whole copy unless the plan packs `B` itself), and its
/// `C` block starts `c_at` doubles into the accumulator.
#[derive(Clone, Copy, Default)]
pub(crate) struct Rotate {
    pub a_at: usize,
    pub b_at: usize,
    pub c_at: usize,
}

/// One step of a tile: a superstep issuing, then waiting on, up to two
/// fetches in order (none: no superstep); then the rotation, if any.
#[derive(Clone, Copy)]
pub(crate) struct Step {
    pub fetch: [Option<(Operand, Fetch)>; 2],
    pub rotate: Option<Rotate>,
}

/// Fetch `j` of run `run` of `op` for `tile` into `dst`, reading `src`:
/// the walk's `A` operand for `A`; for `B` its `B` operand, or what
/// [`Nest::gather`] staged. On a cost-only walk `src` is a length alone.
pub(crate) struct Get<'a, T> {
    pub op: Operand,
    pub tile: T,
    pub run: usize,
    pub j: usize,
    pub dst: LdmBuf,
    pub src: DmaSource<'a>,
}

/// A mesh plan's statement of its walk over an extent — its context,
/// operands, LDM buffers, timing samples and what its nest does — and the
/// walk and timing every mesh plan shares.
pub(crate) trait Nest: Sync {
    /// What one walk covers: a dense [`ConvShape`], or a general geometry.
    type Extent;
    /// What the walk derives from its extent, once per walk.
    type Dims: Copy + Sync;
    /// One output tile: zeroed, reduced into, put back.
    type Tile: Copy + Sync;

    fn ctx(&self) -> &LowerCtx;

    /// Lengths of what the walk reads for its `B` and `A` operands, and of
    /// its output.
    fn operand_lens(&self, e: &Self::Extent) -> [usize; 3];

    /// The plan's one statement of the LDM its walk over `e` holds.
    /// Arithmetic only, no allocation: `supports` asks it on every timing,
    /// tune candidate and plan-cache miss.
    fn ldm_buffers(&self, e: &Self::Extent) -> LdmBuffers;

    /// The walks that time `shape`, which the plan supports.
    fn timing_walks(&self, shape: &ConvShape) -> Walks<Self::Extent>;

    fn dims(&self, e: &Self::Extent) -> Self::Dims;
    fn block(&self, d: &Self::Dims) -> GemmBlock;
    fn tiles(&self, d: &Self::Dims) -> impl Iterator<Item = Self::Tile>;
    fn steps(&self, d: &Self::Dims, t: Self::Tile) -> impl Iterator<Item = Step>;
    fn fetch(&self, ctx: &mut CpeCtx<'_>, d: &Self::Dims, get: Get<Self::Tile>) -> Dma;

    /// Put tile `t`'s accumulator `c` back. A plan holding a window puts
    /// from [`Nest::fold`] instead, and its tiles have no put superstep.
    fn put(&self, _: &mut CpeCtx<'_>, _: &Self::Dims, _: LdmBuf, _: Self::Tile) -> Dma {
        Ok(None)
    }

    /// Pack a rotation's `A` block, k-major, from its copy `a`, which
    /// starts at the block and is exactly its length.
    fn pack_a(&self, _: &Self::Dims, a: &[f64], dst: &mut Vec<f64>) {
        dst.extend_from_slice(a);
    }

    /// Pack a rotation's `B` block, k-major, from its copy `b` from the
    /// block's start on.
    fn pack_b(&self, _: &Self::Dims, b: &[f64], dst: &mut Vec<f64>) {
        dst.extend_from_slice(b);
    }

    /// A windowed plan's superstep after step `i`'s rotation: fold `C`
    /// into the window and put what that completes. Like [`Nest::put`], it
    /// returns the DMA the superstep then waits on.
    fn fold(&self, _: &mut CpeCtx<'_>, _: &Self::Dims, _: &mut Slot, _: usize) -> Dma {
        Ok(None)
    }

    /// Doubles of host memory `gather` stages for `B`'s fetches.
    fn staged_len(&self, _: &Self::Dims) -> usize {
        0
    }

    /// MPE-side work before `step`'s superstep, on a functional mesh only:
    /// stage from `b_src` what the step's `B` fetch reads.
    fn gather(&self, _: &Self::Dims, _: Self::Tile, _: &Step, _: &[f64], _: &mut [f64]) {}

    /// The walk's LDM high water per CPE: its buffers, each rounded as the
    /// allocator rounds it. `supports` checks this through
    /// [`LowerCtx::fit_ldm`], so it accepts exactly what the walk allocates.
    fn ldm_doubles(&self, e: &Self::Extent) -> usize {
        let bufs = self.ldm_buffers(e);
        bufs.iter().map(|&(len, n)| n * padded_len(len)).sum()
    }

    /// The walk over `e` on a fresh `mesh`: one setup superstep allocates
    /// [`Nest::ldm_buffers`] in every CPE's [`Slot`], then the nest runs,
    /// reading `B`'s fetches from `data.b` and `A`'s from `data.a` and
    /// putting to `data.out`. With no `data`, on a cost-only mesh, every
    /// fetch and the drain check against [`Nest::operand_lens`] instead.
    fn walk(
        &self,
        e: &Self::Extent,
        mut mesh: Mesh<Slot>,
        data: Option<Operands<'_>>,
    ) -> Result<PlanTiming, SwdnnError> {
        let buffers = self.ldm_buffers(e);
        mesh.superstep(|ctx, s| {
            let [c, win] = [&mut s.c, &mut s.win].map(std::slice::from_mut);
            let slots: [&mut [LdmBuf]; 4] = [&mut s.a, &mut s.b, c, win];
            for (slot, (len, copies)) in slots.into_iter().zip(buffers) {
                for buf in &mut slot[..copies] {
                    *buf = ctx.ldm_alloc(len)?;
                }
            }
            Ok(())
        })?;
        let [(_, a), (_, b), _, (_, win)] = buffers;
        let d = self.dims(e);
        let (copies, blk, rt) = ([a, b], self.block(&d), self.ctx().rt);
        // The rotations' pack arena, leased across runs; a functional walk
        // that stages `B` also leases its staging buffer.
        let mut scratch = lease_scratch(rt, mesh.chip.mesh_dim);
        let len = self.staged_len(&d);
        let [b_len, a_len, out_len] = self.operand_lens(e);
        // What `B`'s fetches read: the staging buffer where the plan stages.
        let b_read = if len > 0 { len } else { b_len };
        let mut staged = (data.is_some() && len > 0).then(|| {
            let mut buf = rt.scratch(0, Vec::new);
            let grown = buf.len().max(len);
            buf.resize(grown, 0.0);
            buf
        });
        // Per operand, the copies a fetch is in flight into, and the copy the
        // last step waited on.
        let (mut in_flight, mut cur) = ([[false; 2]; 2], [0; 2]);
        for tile in self.tiles(&d) {
            zero_c(&mut mesh, |s: &Slot| s.c)?;
            if win > 0 {
                zero_c(&mut mesh, |s: &Slot| s.win)?;
            }
            for (i, step) in self.steps(&d, tile).enumerate() {
                if let (Some(ops), Some(buf)) = (&data, &mut staged) {
                    self.gather(&d, tile, &step, ops.b, &mut buf[..len]);
                }
                if step.fetch.iter().any(Option::is_some) {
                    // What every CPE issues, `(operand, run, fetch, copy)` in
                    // order — the step's own fetches, then its prefetches — and
                    // which copies it then waits on.
                    let (mut issues, mut waits) =
                        ([(Operand::A, 0, 0, 0); 4], [(Operand::A, 0); 2]);
                    let (mut n_issues, mut n_waits) = (0, 0);
                    for ahead in [0, 1] {
                        for (op, f) in step.fetch.into_iter().flatten() {
                            let (o, copies) = (op as usize, copies[op as usize]);
                            let (run, j, n) = match f {
                                Fetch::Issue(run, j) => (run, j + ahead, j + 1),
                                Fetch::Need(run, j, n) => (run, j + ahead, n),
                            };
                            if ahead == 1 && (copies < 2 || j >= n) {
                                continue;
                            }
                            // A fetch in flight was issued by an earlier step.
                            if !std::mem::replace(&mut in_flight[o][j % copies], true) {
                                issues[n_issues] = (op, run, j, j % copies);
                                n_issues += 1;
                            }
                        }
                    }
                    for (op, f) in step.fetch.into_iter().flatten() {
                        if let Fetch::Need(_, j, _) = f {
                            let (o, c) = (op as usize, j % copies[op as usize]);
                            (in_flight[o][c], cur[o]) = (false, c);
                            waits[n_waits] = (op, c);
                            n_waits += 1;
                        }
                    }
                    let srcs = match (&data, &staged) {
                        (Some(ops), Some(buf)) => [ops.a.into(), buf[..len].into()],
                        (Some(ops), None) => [ops.a.into(), ops.b.into()],
                        (None, _) => [DmaSource::Len(a_len), DmaSource::Len(b_read)],
                    };
                    let (issues, waits) = (&issues[..n_issues], &waits[..n_waits]);
                    mesh.superstep(|ctx, s| {
                        for &(op, run, j, c) in issues {
                            let (bufs, handles) = s.operand(op);
                            let (dst, src) = (bufs[c], srcs[op as usize]);
                            let get = Get {
                                op,
                                tile,
                                run,
                                j,
                                dst,
                                src,
                            };
                            handles[c] = self.fetch(ctx, &d, get)?;
                        }
                        for &(op, c) in waits {
                            if let Some(h) = s.operand(op).1[c].take() {
                                ctx.dma_wait(h);
                            }
                        }
                        Ok(())
                    })?;
                }
                if let Some(r) = step.rotate {
                    let ([a, b], a_len) = (cur, blk.k8 * blk.m8);
                    regcomm_gemm_with(
                        &mut mesh,
                        blk,
                        &mut scratch,
                        |ctx, s: &Slot, dst: &mut Vec<f64>| {
                            self.pack_a(&d, &ctx.ldm(s.a[a])[r.a_at..r.a_at + a_len], dst);
                        },
                        |ctx, s: &Slot, dst: &mut Vec<f64>| {
                            self.pack_b(&d, &ctx.ldm(s.b[b])[r.b_at..], dst)
                        },
                        |s: &Slot| (s.c, r.c_at),
                    )?;
                    if win > 0 {
                        mesh.superstep(|ctx, s| {
                            if let Some(h) = self.fold(ctx, &d, s, i)? {
                                ctx.dma_wait(h);
                            }
                            Ok(())
                        })?;
                    }
                }
            }
            if win == 0 {
                mesh.superstep(|ctx, s| {
                    if let Some(h) = self.put(ctx, &d, s.c, tile)? {
                        ctx.dma_wait(h);
                    }
                    Ok(())
                })?;
            }
        }
        match data {
            Some(ops) => mesh.drain_puts(ops.out)?,
            None => mesh.check_puts(out_len)?,
        }
        finish(mesh)
    }

    /// Exact timing of `e` with no arithmetic: the walk on a cost-only mesh,
    /// which reads and writes no operand, only checks against their lengths.
    fn time_cost_only(&self, e: &Self::Extent) -> Result<PlanTiming, SwdnnError> {
        self.walk(e, self.ctx().mesh().cost_only(), None)
    }

    /// Every mesh plan's `time_full_shape`: two cost-only samples and the
    /// line through them, or the whole shape walked cost-only.
    fn time_sampled(&self, shape: &ConvShape) -> Result<PlanTiming, SwdnnError> {
        match self.timing_walks(shape) {
            Walks::Whole(e) => self.time_cost_only(&e),
            Walks::Sampled(samples, n_full) => {
                let [s1, s2] = samples.map(|(e, n)| self.time_cost_only(&e).map(|t| (t, n)));
                Ok(extrapolate([s1?, s2?], n_full))
            }
        }
    }
}

/// What a functional walk reads its `B` and `A` fetches from and puts to.
pub(crate) struct Operands<'a> {
    pub b: &'a [f64],
    pub a: &'a [f64],
    pub out: &'a mut [f64],
}

/// How [`Nest::time_sampled`] times a shape: walk it whole, or walk two
/// outer-loop samples `(extent, trip count)` and extrapolate to a trip count.
pub(crate) enum Walks<E> {
    Whole(E),
    Sampled([(E, u64); 2], u64),
}

impl Walks<ConvShape> {
    /// Outer loop over `b_b × 1 × b_co` pixel tiles: one tile over one and
    /// two output rows, extrapolated to the tile count.
    pub(crate) fn pixel_tiles(shape: &ConvShape, b_b: usize, b_co: usize) -> Self {
        let tile = |ro| ConvShape::new(b_b, shape.ni, shape.no, ro, b_co, shape.kr, shape.kc);
        let tiles = shape.batch / b_b * shape.ro * (shape.co / b_co);
        Walks::Sampled([(tile(1), 1), (tile(2), 2)], tiles as u64)
    }
}

/// Linear extrapolation of timing from two sampled runs.
///
/// A plan's cost is `a + b·N` in the outer trip count `N`; given samples at
/// `n1 < n2` outer iterations, predict `n_full` on the line through them,
/// `t1 + (t2 − t1)/(n2 − n1)·(n_full − n1)`, counters alike. The line is
/// signed, so it passes through both samples even where a counter falls or
/// more than doubles between them (injected DMA retries do both); only the
/// prediction is floored at 0.
pub(crate) fn extrapolate(samples: [(PlanTiming, u64); 2], n_full: u64) -> PlanTiming {
    let [(t1, n1), (t2, n2)] = samples;
    let (s1, s2) = (t1.stats, t2.stats);
    assert!(n2 > n1 && n1 > 0, "need two distinct positive sample sizes");
    let line = |a: u64, b: u64| {
        let per = (i128::from(b) - i128::from(a)) / i128::from(n2 - n1);
        let at = i128::from(a) + per * (i128::from(n_full) - i128::from(n1));
        u64::try_from(at.max(0)).unwrap_or(u64::MAX)
    };
    // `combine` iterates the complete counter field list, so counters added
    // to CpeStats extrapolate without this function changing.
    let stats = CgStats {
        cycles: line(t1.cycles, t2.cycles),
        totals: s1.totals.combine(&s2.totals, line),
        ldm_high_water_doubles: s1.ldm_high_water_doubles.max(s2.ldm_high_water_doubles),
    };
    PlanTiming {
        sampled: true,
        ..stats.into()
    }
}
