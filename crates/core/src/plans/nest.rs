//! The one loop nest of every mesh plan: image-aware (Algorithm 1),
//! batch-aware (Algorithm 2), patch-GEMM and the two backward passes.
//!
//! Per tile, [`run`] zeroes the distributed accumulator (and the window,
//! where the plan holds one), runs the tile's steps — each a superstep that
//! issues and then waits on operand DMAs, followed by at most one
//! register-communication rotation — and puts the tile back, waiting on the
//! put. A plan states only what differs, as a [`Nest`]: its tiles; its
//! steps, each naming its fetches and where its rotation's blocks start;
//! each fetch's strided get; the rotations' block shape and how each
//! operand's block is packed; and its put. Patch-GEMM also stages each `B`
//! fetch on the MPE first, which a functional mesh runs and a cost-only one
//! skips. A backward pass is one tile whose steps are its pixel tiles.
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
use super::{finish, MeshWalk, PlanTiming, Slot};
use crate::error::SwdnnError;
use sw_sim::{CpeCtx, DmaHandle, LdmBuf, Mesh, SimError};

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
/// the walk's `a_src` for `A`; for `B` its `b_src`, or what
/// [`Nest::gather`] staged.
pub(crate) struct Get<'a, T> {
    pub op: Operand,
    pub tile: T,
    pub run: usize,
    pub j: usize,
    pub dst: LdmBuf,
    pub src: &'a [f64],
}

/// A mesh plan's statement of its walk over an extent.
pub(crate) trait Nest: MeshWalk + Sync {
    /// What the walk derives from its extent, once per walk.
    type Dims: Copy + Sync;
    /// One output tile: zeroed, reduced into, put back.
    type Tile: Copy + Sync;

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
}

/// The nest of `plan` over `e` on `mesh`, whose [`Slot`]s hold the
/// allocated `ldm_buffers`: reads `B`'s fetches from `b_src` and `A`'s
/// from `a_src`, puts to `out`.
pub(crate) fn run<P: Nest + ?Sized>(
    plan: &P,
    e: &P::Extent,
    mut mesh: Mesh<Slot>,
    b_src: &[f64],
    a_src: &[f64],
    out: &mut [f64],
) -> Result<PlanTiming, SwdnnError> {
    let [(_, a), (_, b), _, (_, win)] = plan.ldm_buffers(e);
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
        if win > 0 {
            zero_c(&mut mesh, |s: &Slot| s.win)?;
        }
        for (i, step) in plan.steps(&d, tile).enumerate() {
            if !mesh.is_cost_only() {
                plan.gather(&d, tile, &step, b_src, staged);
            }
            if step.fetch.iter().any(Option::is_some) {
                // What every CPE issues, `(operand, run, fetch, copy)` in
                // order — the step's own fetches, then its prefetches — and
                // which copies it then waits on.
                let (mut issues, mut waits) = ([(Operand::A, 0, 0, 0); 4], [(Operand::A, 0); 2]);
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
                let srcs = [a_src, if len > 0 { &*staged } else { b_src }];
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
                        plan.pack_a(&d, &ctx.ldm(s.a[a])[r.a_at..r.a_at + a_len], dst);
                    },
                    |ctx, s: &Slot, dst: &mut Vec<f64>| {
                        plan.pack_b(&d, &ctx.ldm(s.b[b])[r.b_at..], dst)
                    },
                    |s: &Slot| (s.c, r.c_at),
                )?;
                if win > 0 {
                    mesh.superstep(|ctx, s| {
                        if let Some(h) = plan.fold(ctx, &d, s, i)? {
                            ctx.dma_wait(h);
                        }
                        Ok(())
                    })?;
                }
            }
        }
        if win == 0 {
            mesh.superstep(|ctx, s| {
                if let Some(h) = plan.put(ctx, &d, s.c, tile)? {
                    ctx.dma_wait(h);
                }
                Ok(())
            })?;
        }
    }
    finish(mesh, out)
}
