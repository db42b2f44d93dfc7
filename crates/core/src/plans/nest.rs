//! The one loop nest of the forward mesh plans: image-aware (Algorithm 1),
//! batch-aware (Algorithm 2) and patch-GEMM.
//!
//! Per output tile, [`run`] zeroes the distributed accumulator, runs the
//! tile's steps — each a superstep that issues and then waits on operand
//! DMAs, followed by at most one register-communication rotation — and puts
//! the tile back, waiting on the put. A plan states only what differs, as a
//! [`ForwardNest`]: its tiles; its steps, each naming its fetches and
//! where its rotation's blocks start; each fetch's strided get; the
//! rotations' block shape; and its put. Patch-GEMM also stages each `B`
//! fetch on the MPE first, which a functional mesh runs and a cost-only
//! one skips.
//!
//! Fetch `j` of an operand lands in LDM copy `j % copies`, `copies` being
//! what the plan's `ldm_buffers` holds of it: 2 where it is double-buffered
//! against compute (§IV-A), else 1. A step that needs fetch `j` issues it
//! unless an earlier step did, prefetches `j + 1` where the operand is
//! double-buffered and its run goes on, and waits for `j`. Faults are keyed
//! by superstep and DMA sequence numbers, so this order is part of every
//! plan's timing.

use super::gemm_mesh::{lease_scratch, regcomm_gemm_with, zero_c, GemmBlock};
use super::{finish, MeshWalk, PlanTiming, Slot};
use crate::error::SwdnnError;
use sw_sim::{CpeCtx, DmaHandle, LdmBuf, Mesh, SimError};

/// The handle of a fetch's or put's last DMA request.
pub(crate) type Dma = Result<Option<DmaHandle>, SimError>;

/// A rotation's operand: `A` (filters) in [`Slot`]'s `a`, `B` (pixels) in
/// its `b`.
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
/// the filters for `A`; for `B` the input, or what
/// [`ForwardNest::gather`] staged.
pub(crate) struct Get<'a, T> {
    pub op: Operand,
    pub tile: T,
    pub run: usize,
    pub j: usize,
    pub dst: LdmBuf,
    pub src: &'a [f64],
}

/// A forward mesh plan's statement of its walk over an extent.
pub(crate) trait ForwardNest: MeshWalk + Sync {
    /// What the walk derives from its extent, once per walk.
    type Dims: Copy + Sync;
    /// One output tile: zeroed, reduced into, put back.
    type Tile: Copy + Sync;

    fn dims(&self, e: &Self::Extent) -> Self::Dims;
    fn block(&self, d: &Self::Dims) -> GemmBlock;
    fn tiles(&self, d: &Self::Dims) -> impl Iterator<Item = Self::Tile>;
    fn steps(&self, d: &Self::Dims, t: Self::Tile) -> impl Iterator<Item = Step>;
    fn fetch(&self, ctx: &mut CpeCtx<'_>, d: &Self::Dims, get: Get<Self::Tile>) -> Dma;
    fn put(&self, ctx: &mut CpeCtx<'_>, d: &Self::Dims, c: LdmBuf, t: Self::Tile) -> Dma;

    /// Pack a rotation's `B` block, k-major, from copy `b` at `at`.
    fn pack_b(&self, ctx: &CpeCtx<'_>, _: &Self::Dims, b: LdmBuf, at: usize, dst: &mut Vec<f64>) {
        dst.extend_from_slice(&ctx.ldm(b)[at..]);
    }

    /// Doubles of host memory `gather` stages for `B`'s fetches.
    fn staged_len(&self, _: &Self::Dims) -> usize {
        0
    }

    /// MPE-side work before `step`'s superstep, on a functional mesh only:
    /// stage from `input` what the step's `B` fetch reads.
    fn gather(&self, _: &Self::Dims, _: Self::Tile, _: &Step, _: &[f64], _: &mut [f64]) {}
}

/// The forward nest of `plan` over `e` on `mesh`, whose [`Slot`]s hold the
/// allocated `ldm_buffers`: reads `input` and `filters`, puts to `out`.
pub(crate) fn run<P: ForwardNest>(
    plan: &P,
    e: &P::Extent,
    mut mesh: Mesh<Slot>,
    input: &[f64],
    filters: &[f64],
    out: &mut [f64],
) -> Result<PlanTiming, SwdnnError> {
    let [(_, a), (_, b), ..] = plan.ldm_buffers(e);
    let d = plan.dims(e);
    let (copies, blk, rt) = ([a, b], plan.block(&d), plan.ctx().rt);
    // The rotations' pack arena and the staging buffer, leased across runs.
    let mut scratch = lease_scratch(rt, mesh.chip.mesh_dim);
    let mut staged = rt.scratch(0, Vec::new);
    let len = plan.staged_len(&d);
    let grown = staged.len().max(len);
    staged.resize(grown, 0.0);
    let staged = &mut staged[..len];
    // Per operand, the copies a fetch is in flight into, and the copy the
    // last step waited on.
    let (mut in_flight, mut cur) = ([[false; 2]; 2], [0; 2]);
    for tile in plan.tiles(&d) {
        zero_c(&mut mesh, |s: &Slot| s.c)?;
        for step in plan.steps(&d, tile) {
            if !mesh.is_cost_only() {
                plan.gather(&d, tile, &step, input, staged);
            }
            if step.fetch[0].is_some() {
                // What every CPE issues, `(operand, run, fetch, copy)` in
                // order, and which copies it then waits on.
                let (mut issues, mut waits) = ([(Operand::A, 0, 0, 0); 4], [(Operand::A, 0); 2]);
                let (mut n_issues, mut n_waits) = (0, 0);
                for (op, f) in step.fetch.into_iter().flatten() {
                    let (o, copies) = (op as usize, copies[op as usize]);
                    let (run, j, n) = match f {
                        Fetch::Issue(run, j) => (run, j, j + 1),
                        Fetch::Need(run, j, n) => (run, j, n),
                    };
                    let next = (copies == 2 && j + 1 < n).then_some(j + 1);
                    for j in std::iter::once(j).chain(next) {
                        // A fetch in flight was issued by an earlier step.
                        if !std::mem::replace(&mut in_flight[o][j % copies], true) {
                            issues[n_issues] = (op, run, j, j % copies);
                            n_issues += 1;
                        }
                    }
                    if let Fetch::Need(..) = f {
                        (in_flight[o][j % copies], cur[o]) = (false, j % copies);
                        waits[n_waits] = (op, j % copies);
                        n_waits += 1;
                    }
                }
                let srcs = [filters, if len > 0 { &*staged } else { input }];
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
                        handles[c] = plan.fetch(ctx, &d, get)?;
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
                        dst.extend_from_slice(&ctx.ldm(s.a[a])[r.a_at..r.a_at + a_len]);
                    },
                    |ctx, s: &Slot, dst: &mut Vec<f64>| plan.pack_b(ctx, &d, s.b[b], r.b_at, dst),
                    |s: &Slot| (s.c, r.c_at),
                )?;
            }
        }
        mesh.superstep(|ctx, s| {
            if let Some(h) = plan.put(ctx, &d, s.c, tile)? {
                ctx.dma_wait(h);
            }
            Ok(())
        })?;
    }
    finish(mesh, out)
}
