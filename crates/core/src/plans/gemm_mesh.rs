//! The register-communication GEMM on the 8×8 CPE mesh (§V-A, Fig. 3).
//!
//! Computes a distributed update `C += Aᵀ·B` where
//!
//! * `A` (filters) is blocked `(k, m)`: CPE `(i, j)` owns rows
//!   `m ∈ chunk_i`, reduction slice `k ∈ chunk_j`,
//! * `B` (image pixels) is blocked `(k, n)`: CPE `(i, j)` owns
//!   `k ∈ chunk_i`, pixels `n ∈ chunk_j`,
//! * `C` (outputs) is blocked `(m, n)`: CPE `(i, j)` owns `m ∈ chunk_i`,
//!   `n ∈ chunk_j`.
//!
//! Round `r` (of 8): CPEs in mesh **column r** broadcast their `A` block
//! along their row bus; CPEs in mesh **row r** broadcast their `B` block
//! along their column bus; every CPE then accumulates
//! `C(i,j) += A(i,r)ᵀ · B(r,j)`. After 8 rounds each CPE holds its complete
//! `C` block having stored no duplicated operand data in LDM — the scheme
//! that "reduces the memory bandwidth requirement for almost an order of
//! magnitude".
//!
//! Compute time is charged per register tile from the §VI software-pipelined
//! kernel model (`crate::kernel_cost`); communication time is charged by the
//! mesh's put/get accounting.
//!
//! # Host-side hot path
//!
//! This rotation is where a functional run spends nearly all of its host
//! time, so it is organised around these invariants (see DESIGN.md §8 and
//! §14):
//!
//! * **Price what is not computed.** A cost-only rotation no fault can
//!   touch is one [`sw_sim::Mesh::price_rotation`] call (see below).
//! * **Pack once.** Each rotation's broadcast phase runs as a *serial*
//!   superstep: every broadcaster packs its block exactly once into a
//!   reused scratch buffer ([`GemmScratch`]) and hands the mesh a shared
//!   `Arc<[f64]>` payload. The broadcaster keeps a clone of the same
//!   payload for its own phase-2 accumulation, so nothing is packed (or
//!   allocated) twice.
//! * **Zero-copy delivery.** Receivers take the shared payload by
//!   reference count ([`sw_sim::CpeCtx::recv_row`]); one broadcast is one
//!   allocation, not eight.
//! * **Leased payloads.** Broadcast payloads come from a
//!   [`sw_runtime::PayloadPool`] free-list in the scratch: after a
//!   two-rotation warmup every broadcast refills a recycled buffer
//!   (`copy_from_slice` — byte-identical to a fresh `Arc::from`) instead
//!   of allocating.
//! * **Fused supersteps, sized.** The whole `dim`-round rotation runs as
//!   one [`sw_sim::Mesh::superstep_rounds`] batch, handed the work of one
//!   round (`dim²·m8·n8·k8` MACs): one worker-pool handoff per rotation
//!   instead of one per parallel superstep, and none at all when a round
//!   is below the runtime's grain — small training tiles run inline.
//! * **Nothing per CPE that is constant per rotation.** The block's
//!   cycle/traffic profile and its flop count are resolved once per call,
//!   not 64 × 8 times inside it.
//! * **Register-tiled microkernel.** The accumulation uses a 4×8
//!   register-blocked kernel (the host-side analogue of the paper's
//!   `rb_B`×`rb_No` register blocking) that accumulates each C element in
//!   k-ascending order — bit-identical to the plain triple loop, which the
//!   unit tests keep as its oracle.
//!
//! None of this changes simulated time: cycle charges, fault keying, and
//! superstep counts are identical to running the `2·dim` supersteps of a
//! rotation one by one.
//!
//! On a cost-only mesh ([`sw_sim::Mesh::cost_only`]), unless a message
//! drop, CPE stall or dead CPE could touch the rotation or a transfer
//! buffer still holds a message, the mesh prices it in one step from the
//! two block lengths and one round's compute charge. Otherwise the same
//! rotation body runs with the host arithmetic left out: broadcasters put
//! a shared all-zero payload of the block's length on the bus instead of
//! packing, and the microkernel is skipped. Message lengths, length checks
//! and every charge are unchanged, so either way the rotation costs the
//! same cycles.

use crate::error::SwdnnError;
use crate::kernel_cost;
use std::sync::{Arc, Mutex};
use sw_runtime::{PayloadPool, Work};
use sw_sim::{CpeCtx, CpeStats, LdmBuf, Mesh, SimError};

/// Shape of the distributed GEMM (per-CPE block sizes).
#[derive(Clone, Copy, Debug)]
pub struct GemmBlock {
    /// Rows of C per CPE (`No/8`).
    pub m8: usize,
    /// Columns of C per CPE (pixels).
    pub n8: usize,
    /// Reduction elements per rotation round (`Ni/8`).
    pub k8: usize,
    /// Row stride of the C block in LDM (`>= n8`; lets a GEMM update a
    /// column slice of a wider accumulator).
    pub c_stride: usize,
    /// Price compute with the reordered (software-pipelined) kernel?
    pub reordered: bool,
}

impl GemmBlock {
    /// A dense block: stride equals width.
    pub fn dense(m8: usize, n8: usize, k8: usize, reordered: bool) -> Self {
        Self {
            m8,
            n8,
            k8,
            c_stride: n8,
            reordered,
        }
    }
}

/// Reusable host-side scratch for [`regcomm_gemm_with`]: the pack buffer
/// every broadcaster packs into, plus the per-row/per-column shared
/// payloads the broadcasters keep for their own phase-2 accumulation.
/// Create one per plan (sized by the mesh dimension) and reuse it across
/// every GEMM invocation — after the first rotation the hot path
/// allocates only the one `Arc` per broadcast.
pub struct GemmScratch {
    pack: Vec<f64>,
    a_own: Vec<Option<Arc<[f64]>>>,
    b_own: Vec<Option<Arc<[f64]>>>,
    /// Free-list the broadcast payloads are leased from: a broadcaster
    /// replacing its kept payload recycles the old one here, so a steady
    /// rotation allocates nothing after a two-rotation warmup.
    pool: PayloadPool,
    /// The all-zero A and B blocks a cost-only rotation broadcasts in place
    /// of packed ones, kept across rotations of the same block shape.
    zero_a: Arc<[f64]>,
    zero_b: Arc<[f64]>,
}

impl GemmScratch {
    /// Scratch for a `dim`×`dim` mesh.
    pub fn new(dim: usize) -> Self {
        Self {
            pack: Vec::new(),
            a_own: vec![None; dim],
            b_own: vec![None; dim],
            pool: PayloadPool::new(),
            zero_a: Arc::from([]),
            zero_b: Arc::from([]),
        }
    }

    /// The broadcast-payload free-list (counters are what tests assert).
    pub fn payload_pool(&self) -> &PayloadPool {
        &self.pool
    }
}

/// The shared all-zero block of `len` doubles kept in `slot`.
fn zero_block(slot: &mut Arc<[f64]>, len: usize) -> Arc<[f64]> {
    if slot.len() != len {
        *slot = vec![0.0; len].into();
    }
    Arc::clone(slot)
}

/// Lease a [`GemmScratch`] for a `dim`×`dim` mesh from the execution
/// context's scratch arena. The lease hands the (grown) buffers back on
/// drop, so repeated plan runs — benches, the serving warm path — reuse
/// one arena per mesh dimension instead of reallocating per run. Stale
/// payload `Arc`s from a previous lease are harmless: every rotation
/// round overwrites `a_own`/`b_own` before phase 2 reads them.
pub fn lease_scratch(
    rt: &'static sw_runtime::ExecutionContext,
    dim: usize,
) -> sw_runtime::ScratchLease<'static, GemmScratch> {
    rt.scratch(dim, || GemmScratch::new(dim))
}

/// Run one full 8-round rotation.
///
/// `pack_a(ctx, s, dst)` appends this CPE's `A` block packed k-major
/// (`a[k*m8 + m]`) to `dst` (handed in empty), `pack_b` its `B` block
/// packed k-major (`b[k*n8 + n]`), and `c_buf(s)` the LDM buffer of its
/// `C` block plus a starting offset within it; C is m-major with row
/// stride `blk.c_stride` (`c[off + m*c_stride + n]`).
///
/// Each pack closure is invoked exactly once per broadcaster per rotation
/// round. Convenience wrapper over [`regcomm_gemm_with`] that leases a
/// [`GemmScratch`] from the mesh's execution context; plans issuing many
/// GEMMs should hold a lease across the whole run.
pub fn regcomm_gemm<S, FA, FB, FC>(
    mesh: &mut Mesh<S>,
    blk: GemmBlock,
    pack_a: FA,
    pack_b: FB,
    c_buf: FC,
) -> Result<(), SwdnnError>
where
    S: Send,
    FA: Fn(&CpeCtx<'_>, &S, &mut Vec<f64>) + Sync,
    FB: Fn(&CpeCtx<'_>, &S, &mut Vec<f64>) + Sync,
    FC: Fn(&S) -> (LdmBuf, usize) + Sync,
{
    let mut scratch = lease_scratch(mesh.runtime(), mesh.chip.mesh_dim);
    regcomm_gemm_with(mesh, blk, &mut scratch, pack_a, pack_b, c_buf)
}

/// [`regcomm_gemm`] with caller-owned scratch (the allocation-free form).
pub fn regcomm_gemm_with<S, FA, FB, FC>(
    mesh: &mut Mesh<S>,
    blk: GemmBlock,
    scratch: &mut GemmScratch,
    pack_a: FA,
    pack_b: FB,
    c_buf: FC,
) -> Result<(), SwdnnError>
where
    S: Send,
    FA: Fn(&CpeCtx<'_>, &S, &mut Vec<f64>) + Sync,
    FB: Fn(&CpeCtx<'_>, &S, &mut Vec<f64>) + Sync,
    FC: Fn(&S) -> (LdmBuf, usize) + Sync,
{
    let dim = mesh.chip.mesh_dim;
    assert!(
        scratch.a_own.len() >= dim && scratch.b_own.len() >= dim,
        "GemmScratch sized for a smaller mesh"
    );
    // Constant for the whole rotation: resolved here, not per CPE per round.
    let prof = kernel_cost::block_profile(blk.m8, blk.n8, blk.k8, blk.reordered);
    let round = CpeStats {
        compute_cycles: prof.cycles,
        flops: kernel_cost::block_flops(blk.m8, blk.n8, blk.k8),
        ldm_reg_bytes: prof.ldm_load_bytes + prof.ldm_store_bytes,
        p0_issue_slots: prof.p0_slots,
        p1_issue_slots: prof.p1_slots,
        ..CpeStats::default()
    };
    let (a_len, b_len) = (blk.k8 * blk.m8, blk.k8 * blk.n8);
    let (m8, n8, cs) = (blk.m8, blk.n8, blk.c_stride);
    let c_in_bounds = |s: &S| {
        let (cb, c_off) = c_buf(s);
        c_off + (m8 - 1) * cs + n8 <= cb.len
    };
    if mesh.price_rotation(a_len, b_len, &round) {
        // The stepped rotation's receive-length check cannot fire here:
        // every transfer buffer was empty, so each receive would have taken
        // a block this rotation put on the bus.
        debug_assert!(mesh.states().all(c_in_bounds), "C slice in bounds");
        return Ok(());
    }
    // On a cost-only mesh nothing reads a block's values: every broadcaster
    // hands out the same zero payload of the right length and no CPE
    // multiplies anything.
    let zeros = mesh.is_cost_only().then(|| {
        (
            zero_block(&mut scratch.zero_a, a_len),
            zero_block(&mut scratch.zero_b, b_len),
        )
    });
    // What one compute superstep costs the host: every CPE multiplies an
    // `m8×k8` by a `k8×n8` block.
    let round_work = Work::Macs(match zeros {
        Some(_) => 0,
        None => (dim * dim * m8 * n8 * blk.k8) as u64,
    });

    // The mesh may run the phase closures from worker lanes (`Fn + Sync`),
    // so the mutable scratch lives behind a mutex — uncontended in
    // practice: the pack phase runs on one lane, and the compute phase
    // locks only on the one broadcaster per row/column that reuses its
    // kept payload.
    struct Shared<'a> {
        pack: &'a mut Vec<f64>,
        a_own: &'a mut Vec<Option<Arc<[f64]>>>,
        b_own: &'a mut Vec<Option<Arc<[f64]>>>,
        pool: &'a mut PayloadPool,
    }
    let shared = Mutex::new(Shared {
        pack: &mut scratch.pack,
        a_own: &mut scratch.a_own,
        b_own: &mut scratch.b_own,
        pool: &mut scratch.pool,
    });

    // Phase 1 of round `r` (serial — the work is 16 packs, not worth a
    // thread fan-out): the broadcasting column/row pack once and put
    // leased shared payloads on the buses, keeping a clone for their own
    // phase 2. The payload they kept last rotation is recycled into the
    // pool in exchange.
    let pack_phase = |r: usize, ctx: &mut CpeCtx<'_>, s: &mut S| -> Result<(), SimError> {
        if ctx.col == r {
            let payload = match &zeros {
                Some((a, _)) => Arc::clone(a),
                None => {
                    let g = &mut *shared.lock().unwrap();
                    let own = &mut g.a_own[ctx.row];
                    pack_block(g.pack, g.pool, own, a_len, |dst| pack_a(ctx, s, dst))
                }
            };
            ctx.bcast_row_shared(payload);
        }
        if ctx.row == r {
            let payload = match &zeros {
                Some((_, b)) => Arc::clone(b),
                None => {
                    let g = &mut *shared.lock().unwrap();
                    let own = &mut g.b_own[ctx.col];
                    pack_block(g.pack, g.pool, own, b_len, |dst| pack_b(ctx, s, dst))
                }
            };
            ctx.bcast_col_shared(payload);
        }
        Ok(())
    };

    // Phase 2 of round `r`: everyone receives (or reuses its own block)
    // and accumulates.
    let compute_phase = |r: usize, ctx: &mut CpeCtx<'_>, s: &mut S| -> Result<(), SimError> {
        let a = if ctx.col != r {
            ctx.recv_row()?
        } else if let Some((a, _)) = &zeros {
            Arc::clone(a)
        } else {
            shared.lock().unwrap().a_own[ctx.row]
                .clone()
                .ok_or_else(|| missing_own_block(ctx, 'A', r))?
        };
        let b = if ctx.row != r {
            ctx.recv_col()?
        } else if let Some((_, b)) = &zeros {
            Arc::clone(b)
        } else {
            shared.lock().unwrap().b_own[ctx.col]
                .clone()
                .ok_or_else(|| missing_own_block(ctx, 'B', r))?
        };
        if a.len() != a_len || b.len() != b_len {
            return Err(SimError::Program(format!(
                "GEMM block mismatch at CPE({},{}): a={} b={} expected {}x{} {}x{}",
                ctx.row,
                ctx.col,
                a.len(),
                b.len(),
                blk.k8,
                blk.m8,
                blk.k8,
                blk.n8
            )));
        }
        debug_assert!(c_in_bounds(s), "C slice in bounds");
        if zeros.is_none() {
            let (cb, c_off) = c_buf(s);
            let c = &mut ctx.ldm_data_mut()[cb.range()];
            microkernel_tiled(c, c_off, cs, &a, &b, m8, n8, blk.k8);
        }
        ctx.charge_compute(round.compute_cycles);
        ctx.add_flops(round.flops);
        ctx.add_ldm_reg_bytes(round.ldm_reg_bytes);
        ctx.add_issue_slots(round.p0_issue_slots, round.p1_issue_slots);
        Ok(())
    };

    // The whole rotation is one superstep batch — one pool handoff
    // regardless of `dim`, none when a round is below the runtime's grain.
    mesh.superstep_rounds(dim, round_work, &pack_phase, &compute_phase)?;
    Ok(())
}

/// Pack one block into a leased payload and keep a clone in `own` for the
/// broadcaster's phase 2; the payload kept last rotation goes back to the
/// pool.
fn pack_block(
    pack: &mut Vec<f64>,
    pool: &mut PayloadPool,
    own: &mut Option<Arc<[f64]>>,
    len: usize,
    fill: impl FnOnce(&mut Vec<f64>),
) -> Arc<[f64]> {
    pack.clear();
    fill(pack);
    debug_assert_eq!(pack.len(), len, "packed block size");
    let payload = pool.lease_from(pack);
    if let Some(old) = own.replace(Arc::clone(&payload)) {
        pool.recycle(old);
    }
    payload
}

fn missing_own_block(ctx: &CpeCtx<'_>, which: char, round: usize) -> SimError {
    SimError::Program(format!(
        "CPE({},{}) has no packed {which} block for round {round}",
        ctx.row, ctx.col
    ))
}

/// Scalar reference kernel: the plain triple loop, the bitwise ground truth
/// the tiled kernel is tested against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn microkernel_reference(
    c: &mut [f64],
    c_off: usize,
    cs: usize,
    a: &[f64],
    b: &[f64],
    m8: usize,
    n8: usize,
    k8: usize,
) {
    for k in 0..k8 {
        let arow = &a[k * m8..(k + 1) * m8];
        let brow = &b[k * n8..(k + 1) * n8];
        for (m, &av) in arow.iter().enumerate() {
            let base = c_off + m * cs;
            let crow = &mut c[base..base + n8];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// One MR×NR register tile: load the C sub-block, accumulate all of `k8`
/// in registers, store once. Each C element still sees `c += a*b` in
/// k-ascending order with separate multiply and add, so the result is
/// bit-identical to the plain triple loop (no FMA, no reassociation);
/// the win is purely fewer loads/stores and accumulator arrays the
/// autovectorizer maps onto vector registers.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn tile<const MR: usize, const NR: usize>(
    c: &mut [f64],
    c_base: usize,
    cs: usize,
    a: &[f64],
    b: &[f64],
    m0: usize,
    n0: usize,
    m8: usize,
    n8: usize,
    k8: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (mi, row) in acc.iter_mut().enumerate() {
        let base = c_base + mi * cs;
        row.copy_from_slice(&c[base..base + NR]);
    }
    for (arow, brow) in a.chunks_exact(m8).zip(b.chunks_exact(n8)).take(k8) {
        let av: [f64; MR] = arow[m0..m0 + MR].try_into().unwrap();
        let bv: [f64; NR] = brow[n0..n0 + NR].try_into().unwrap();
        for (row, &am) in acc.iter_mut().zip(&av) {
            for (cv, &bn) in row.iter_mut().zip(&bv) {
                *cv += am * bn;
            }
        }
    }
    for (mi, row) in acc.iter().enumerate() {
        let base = c_base + mi * cs;
        c[base..base + NR].copy_from_slice(row);
    }
}

/// One row-band of tiles: MR C rows, swept across n in 8-, then 4-, then
/// 1-wide column tiles.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn row_tiles<const MR: usize>(
    c: &mut [f64],
    c_off: usize,
    cs: usize,
    a: &[f64],
    b: &[f64],
    m0: usize,
    m8: usize,
    n8: usize,
    k8: usize,
) {
    let mut n0 = 0;
    while n0 + 8 <= n8 {
        tile::<MR, 8>(c, c_off + m0 * cs + n0, cs, a, b, m0, n0, m8, n8, k8);
        n0 += 8;
    }
    while n0 + 4 <= n8 {
        tile::<MR, 4>(c, c_off + m0 * cs + n0, cs, a, b, m0, n0, m8, n8, k8);
        n0 += 4;
    }
    while n0 < n8 {
        tile::<MR, 1>(c, c_off + m0 * cs + n0, cs, a, b, m0, n0, m8, n8, k8);
        n0 += 1;
    }
}

/// Tile sweep shared by every instruction-set version of the kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn microkernel_tiled_impl(
    c: &mut [f64],
    c_off: usize,
    cs: usize,
    a: &[f64],
    b: &[f64],
    m8: usize,
    n8: usize,
    k8: usize,
) {
    const MR: usize = 4;
    let m_main = m8 - m8 % MR;
    let mut m0 = 0;
    while m0 < m_main {
        row_tiles::<MR>(c, c_off, cs, a, b, m0, m8, n8, k8);
        m0 += MR;
    }
    while m0 < m8 {
        row_tiles::<1>(c, c_off, cs, a, b, m0, m8, n8, k8);
        m0 += 1;
    }
}

/// AVX2 compilation of the same tile sweep. `#[target_feature]` recompiles
/// the (fully inlined) generic tiles with 256-bit vectors without raising
/// the whole binary's baseline — portability is preserved because callers
/// go through the runtime dispatch in [`microkernel_tiled`]. The math is
/// element-wise identical (separate mul and add; Rust never contracts to
/// FMA by default), so wider registers cannot change a single bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn microkernel_tiled_avx2(
    c: &mut [f64],
    c_off: usize,
    cs: usize,
    a: &[f64],
    b: &[f64],
    m8: usize,
    n8: usize,
    k8: usize,
) {
    microkernel_tiled_impl(c, c_off, cs, a, b, m8, n8, k8);
}

/// Register-tiled microkernel: 4×8 main tiles (8 vector accumulators of 4
/// doubles on a 256-bit host) with 4- and 1-wide edge tiles. Dispatches
/// once per call on runtime CPU feature detection (a cached atomic load).
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn microkernel_tiled(
    c: &mut [f64],
    c_off: usize,
    cs: usize,
    a: &[f64],
    b: &[f64],
    m8: usize,
    n8: usize,
    k8: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { microkernel_tiled_avx2(c, c_off, cs, a, b, m8, n8, k8) };
        return;
    }
    microkernel_tiled_impl(c, c_off, cs, a, b, m8, n8, k8);
}

/// Zero a distributed C block (one superstep; charged as vector stores —
/// on a cost-only mesh charged only).
pub fn zero_c<S: Send>(
    mesh: &mut Mesh<S>,
    c_buf: impl Fn(&S) -> LdmBuf + Sync,
) -> Result<(), SwdnnError> {
    mesh.superstep(|ctx, s| {
        let cb = c_buf(s);
        zero_ldm(ctx, cb, 0, cb.len);
        Ok(())
    })?;
    Ok(())
}

/// Zero `len` doubles of `buf` from `at` — on a cost-only mesh charge
/// only — as vector stores, one P1 issue slot and cycle each.
pub(crate) fn zero_ldm(ctx: &mut CpeCtx<'_>, buf: LdmBuf, at: usize, len: usize) {
    if !ctx.is_cost_only() {
        let start = buf.offset + at;
        ctx.ldm_data_mut()[start..start + len].fill(0.0);
    }
    let vectors = len.div_ceil(4) as u64;
    ctx.charge_compute(vectors);
    ctx.add_ldm_reg_bytes(32 * vectors);
    ctx.add_issue_slots(0, vectors);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use sw_perfmodel::ChipSpec;

    /// Per-CPE state: own blocks of A, B and the C accumulator buffer.
    struct St {
        a: Vec<f64>, // k-major (k8 x m8)
        b: Vec<f64>, // k-major (k8 x n8)
        c: LdmBuf,
    }

    /// Dense reference: C = A^T B with A (K x M), B (K x N).
    fn host_gemm(a: &[f64], b: &[f64], big_m: usize, big_n: usize, big_k: usize) -> Vec<f64> {
        let mut c = vec![0.0; big_m * big_n];
        for k in 0..big_k {
            for m in 0..big_m {
                let av = a[k * big_m + m];
                for n in 0..big_n {
                    c[m * big_n + n] += av * b[k * big_n + n];
                }
            }
        }
        c
    }

    #[test]
    fn distributed_gemm_matches_host_gemm() {
        let (m8, n8, k8) = (4, 8, 2);
        let (big_m, big_n, big_k) = (m8 * 8, n8 * 8, k8 * 8);
        // Global operands, k-major.
        let a: Vec<f64> = (0..big_k * big_m)
            .map(|i| ((i * 7 + 3) % 11) as f64 - 5.0)
            .collect();
        let b: Vec<f64> = (0..big_k * big_n)
            .map(|i| ((i * 5 + 1) % 13) as f64 - 6.0)
            .collect();
        let expect = host_gemm(&a, &b, big_m, big_n, big_k);

        let mut mesh = Mesh::new(ChipSpec::sw26010(), |row, col| {
            // CPE(i,j): A block rows m in chunk_i, k in chunk_j;
            //           B block k in chunk_i, n in chunk_j.
            let mut ab = Vec::with_capacity(k8 * m8);
            for k in 0..k8 {
                for m in 0..m8 {
                    ab.push(a[(col * k8 + k) * big_m + row * m8 + m]);
                }
            }
            let mut bb = Vec::with_capacity(k8 * n8);
            for k in 0..k8 {
                for n in 0..n8 {
                    bb.push(b[(row * k8 + k) * big_n + col * n8 + n]);
                }
            }
            St {
                a: ab,
                b: bb,
                c: LdmBuf { offset: 0, len: 0 },
            }
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

        // Collect C blocks and compare.
        let mut got = vec![f64::NAN; big_m * big_n];
        mesh.superstep(|ctx, s| {
            // put via DMA so drain_puts assembles the global matrix
            for m in 0..m8 {
                ctx.dma_put(s.c, m * n8, (ctx.row * m8 + m) * big_n + ctx.col * n8, n8)?;
            }
            Ok(())
        })
        .unwrap();
        mesh.drain_puts(&mut got).unwrap();
        mesh.assert_inboxes_empty().unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g, e);
        }
    }

    #[test]
    fn gemm_charges_compute_and_bus_traffic() {
        let (m8, n8, k8) = (4, 16, 8);
        let mut mesh = Mesh::new(ChipSpec::sw26010(), |_, _| St {
            a: vec![1.0; k8 * m8],
            b: vec![2.0; k8 * n8],
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
        let st = mesh.stats();
        // 64 CPEs x 8 rounds of (4x16 over k8=8) = 2*4*16*8 flops each.
        assert_eq!(
            st.totals.flops,
            64 * 8 * kernel_cost::block_flops(m8, n8, k8)
        );
        assert!(st.totals.bus_vectors_sent > 0);
        assert!(st.totals.bus_vectors_received > 0);
        // Every C value = sum over K=64 of 1*2.
        let mut c0 = vec![0.0; m8 * n8];
        mesh.superstep(|ctx, s| {
            if ctx.id() == 0 {
                for i in 0..m8 * n8 {
                    ctx.dma_put(s.c, i, i, 1)?;
                }
            }
            Ok(())
        })
        .unwrap();
        mesh.drain_puts(&mut c0).unwrap();
        assert!(c0.iter().all(|&v| v == 128.0));
    }

    /// Regression for the old formulation, where broadcasters packed in
    /// superstep 1 *and again* in superstep 2: every pack closure must now
    /// run exactly once per broadcaster per rotation round — 8 broadcasters
    /// × 8 rounds = 64 calls each for A and B per rotation. Also exercises
    /// the broadcast-buffer free-list: with the scratch held across
    /// rotations, the steady-state rotation must lease every payload from
    /// the pool — zero fresh allocations after warmup.
    #[test]
    fn pack_runs_exactly_once_per_broadcaster_per_round() {
        let (m8, n8, k8) = (2, 4, 2);
        let a_packs = AtomicUsize::new(0);
        let b_packs = AtomicUsize::new(0);
        let mut mesh = Mesh::new(ChipSpec::sw26010(), |_, _| St {
            a: vec![1.0; k8 * m8],
            b: vec![1.0; k8 * n8],
            c: LdmBuf { offset: 0, len: 0 },
        });
        mesh.superstep(|ctx, s| {
            s.c = ctx.ldm_alloc(m8 * n8)?;
            Ok(())
        })
        .unwrap();
        zero_c(&mut mesh, |s: &St| s.c).unwrap();
        let mut scratch = GemmScratch::new(mesh.chip.mesh_dim);
        let rotate = |scratch: &mut GemmScratch, mesh: &mut Mesh<St>| {
            regcomm_gemm_with(
                mesh,
                GemmBlock::dense(m8, n8, k8, true),
                scratch,
                |_, s: &St, dst: &mut Vec<f64>| {
                    a_packs.fetch_add(1, Ordering::Relaxed);
                    dst.extend_from_slice(&s.a);
                },
                |_, s: &St, dst: &mut Vec<f64>| {
                    b_packs.fetch_add(1, Ordering::Relaxed);
                    dst.extend_from_slice(&s.b);
                },
                |s| (s.c, 0),
            )
            .unwrap();
        };
        rotate(&mut scratch, &mut mesh);
        assert_eq!(a_packs.load(Ordering::Relaxed), 64);
        assert_eq!(b_packs.load(Ordering::Relaxed), 64);

        // Warmup rotation done (plus one more for good measure): from here
        // on every broadcast must reuse a leased buffer.
        rotate(&mut scratch, &mut mesh);
        let fresh_after_warmup = scratch.payload_pool().fresh_allocs();
        rotate(&mut scratch, &mut mesh);
        rotate(&mut scratch, &mut mesh);
        assert_eq!(
            scratch.payload_pool().fresh_allocs(),
            fresh_after_warmup,
            "steady-state rotations must allocate zero fresh payloads"
        );
        assert!(
            scratch.payload_pool().reuses() >= 2 * 128,
            "two full rotations of broadcasts served from the pool"
        );
        assert_eq!(a_packs.load(Ordering::Relaxed), 4 * 64);
        assert_eq!(b_packs.load(Ordering::Relaxed), 4 * 64);
    }

    /// The tiled kernel must be bit-identical to the scalar reference on
    /// shapes that exercise every edge-tile combination (odd m8/n8) and a
    /// strided, offset C block.
    #[test]
    fn tiled_microkernel_is_bitwise_identical_to_reference() {
        for &(m8, n8, k8) in &[(1, 1, 1), (4, 4, 3), (5, 7, 3), (9, 13, 5), (16, 4, 8)] {
            let cs = n8 + 3; // strided C
            let c_off = 2;
            let a: Vec<f64> = (0..k8 * m8)
                .map(|i| (((i * 31 + 7) % 97) as f64 - 48.0) / 7.0)
                .collect();
            let b: Vec<f64> = (0..k8 * n8)
                .map(|i| (((i * 17 + 5) % 89) as f64 - 44.0) / 5.0)
                .collect();
            let init: Vec<f64> = (0..c_off + m8 * cs)
                .map(|i| ((i % 13) as f64 - 6.0) / 3.0)
                .collect();
            let mut c_ref = init.clone();
            let mut c_tiled = init.clone();
            microkernel_reference(&mut c_ref, c_off, cs, &a, &b, m8, n8, k8);
            microkernel_tiled(&mut c_tiled, c_off, cs, &a, &b, m8, n8, k8);
            let ref_bits: Vec<u64> = c_ref.iter().map(|v| v.to_bits()).collect();
            let tiled_bits: Vec<u64> = c_tiled.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ref_bits, tiled_bits, "shape ({m8},{n8},{k8})");
        }
    }
}
