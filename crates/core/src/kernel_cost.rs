//! Cycle cost of the inner GEMM kernel, priced by the `sw-isa` simulator.
//!
//! Every convolution plan's compute step is the register-blocked tile
//! kernel of §V/§VI: a `4 (No) × 16 (pixel)` output tile accumulated over
//! `n` reduction steps. Rather than hard-coding the closed-form `17n + 4`,
//! we *simulate* the generated instruction stream once per distinct `n`
//! (naive and reordered variants) and cache the result — so if the pipeline
//! model changes, every plan's timing follows automatically. The closed
//! forms are asserted against the simulation in `sw-isa`'s own tests.

use crate::serve::ShardedMap;
use std::sync::OnceLock;
use sw_isa::{naive_gemm_kernel, reordered_gemm_kernel, DualPipe, KernelSpec};

/// Extra P1 cycles per tile for spilling/refilling the 16 vector
/// accumulators between rotation rounds (16 `vload` + 16 `vstore` of the
/// C tile, plus loop control) — the C tile lives in registers only inside
/// one round.
const TILE_OVERHEAD_CYCLES: u64 = 40;

/// Rows (output channels) covered by one register tile (`rb_no`).
const TILE_NO: usize = 4;
/// Pixels covered by one register tile (`rb_b`).
const TILE_PIX: usize = 16;

/// The C tile is `TILE_NO x TILE_PIX = 64` doubles = 16 vector registers;
/// the spill/refill between rotation rounds moves it twice (16 `vload` +
/// 16 `vstore`) and accounts for most of [`TILE_OVERHEAD_CYCLES`].
const TILE_SPILL_VECTORS: u64 = (TILE_NO * TILE_PIX / 4) as u64;

/// Issue-level profile of one register tile: timing plus the observable
/// side channels (per-pipe slots, LDM traffic) the observability layer
/// aggregates. All values come from simulating the generated instruction
/// stream with the `sw-isa` dual-pipe model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TileProfile {
    /// Issue cycles of the tile's inner loop.
    pub cycles: u64,
    /// Instructions issued to P0 (FP) / P1 (memory) in the inner loop.
    pub p0_slots: u64,
    pub p1_slots: u64,
    /// LDM bytes read / written by the inner loop (Eq. 5 accounting:
    /// `vldde` is charged the full 32 B of register-file fill).
    pub ldm_load_bytes: u64,
    pub ldm_store_bytes: u64,
}

fn cache() -> &'static ShardedMap<(usize, bool), TileProfile> {
    static CACHE: OnceLock<ShardedMap<(usize, bool), TileProfile>> = OnceLock::new();
    CACHE.get_or_init(ShardedMap::default)
}

/// Hit/miss totals of the process-wide tile-profile cache, for the serving
/// layer's cache observability.
pub fn tile_cache_stats() -> (u64, u64) {
    (cache().hits(), cache().misses())
}

/// Full issue profile of one register tile over `n` reduction steps.
fn tile_profile(n: usize, reordered: bool) -> TileProfile {
    let n = n.max(1);
    let computed: Result<TileProfile, std::convert::Infallible> =
        cache().get_or_insert_with(&(n, reordered), || {
            let spec = KernelSpec::new(n);
            let prog = if reordered {
                reordered_gemm_kernel(spec)
            } else {
                naive_gemm_kernel(spec)
            };
            let rep = DualPipe::default().run(&prog);
            Ok(TileProfile {
                cycles: rep.cycles,
                p0_slots: rep.p0_issued,
                p1_slots: rep.p1_issued,
                ldm_load_bytes: rep.ldm_load_bytes,
                ldm_store_bytes: rep.ldm_store_bytes,
            })
        });
    match computed {
        Ok(p) => p,
    }
}

/// Full issue profile of a per-CPE GEMM block update, including the
/// per-tile C spill/refill overhead (counted as P1 vector loads/stores).
pub fn block_profile(m: usize, p: usize, n: usize, reordered: bool) -> TileProfile {
    let tiles = (m.div_ceil(TILE_NO) * p.div_ceil(TILE_PIX)) as u64;
    let t = tile_profile(n, reordered);
    TileProfile {
        cycles: tiles * (t.cycles + TILE_OVERHEAD_CYCLES),
        p0_slots: tiles * t.p0_slots,
        p1_slots: tiles * (t.p1_slots + 2 * TILE_SPILL_VECTORS),
        ldm_load_bytes: tiles * (t.ldm_load_bytes + 32 * TILE_SPILL_VECTORS),
        ldm_store_bytes: tiles * (t.ldm_store_bytes + 32 * TILE_SPILL_VECTORS),
    }
}

/// Flops of the same block update (2 per multiply-add).
pub fn block_flops(m: usize, p: usize, n: usize) -> u64 {
    2 * (m * p * n) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_cycles_match_closed_forms() {
        for n in 2..=48 {
            assert_eq!(tile_profile(n, true).cycles, 17 * n as u64 + 4);
            assert_eq!(tile_profile(n, false).cycles, 26 * n as u64 - 1);
        }
    }

    #[test]
    fn register_tile_is_the_perf_models() {
        // Plan selection computes tile occupancy from the model's
        // `rb_no × rb_b`; it must be the tile `block_profile` charges.
        let model = sw_perfmodel::ConvPerfModel::default();
        assert_eq!((model.rb_no, model.rb_b), (TILE_NO, TILE_PIX));
    }

    #[test]
    fn cache_returns_consistent_values() {
        let a = tile_profile(16, true).cycles;
        let b = tile_profile(16, true).cycles;
        assert_eq!(a, b);
    }

    #[test]
    fn tile_cache_counts_hits_and_misses() {
        // The cache is process-global and other tests hit it concurrently,
        // so assert deltas, not absolutes.
        let _ = tile_profile(37, true).cycles;
        let (h0, m0) = tile_cache_stats();
        let _ = tile_profile(37, true).cycles;
        let (h1, m1) = tile_cache_stats();
        assert!(h1 > h0, "second lookup must be a hit");
        assert!(m1 >= m0.max(1), "first lookup was a miss");
    }

    #[test]
    fn tile_cache_key_is_schedule_independent() {
        // The tile cache keys on `(n, reordered)` — the inner-kernel trip
        // count and kernel flavor. Every schedule prices its GEMM through
        // the same per-tile profiles, so two different schedules that
        // produce the same tile shape must (and do) share one entry; the
        // cache needs no schedule key.
        let a = tile_profile(2, true);
        let (_, misses_before) = tile_cache_stats();
        let b = tile_profile(2, true);
        let (_, misses_after) = tile_cache_stats();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(
            misses_before, misses_after,
            "same tile shape must hit regardless of which schedule asked"
        );
    }

    #[test]
    fn block_cycles_tile_count() {
        // 16x64 block = 4*4 = 16 tiles.
        let c = block_profile(16, 64, 16, true).cycles;
        assert_eq!(c, 16 * (17 * 16 + 4 + TILE_OVERHEAD_CYCLES));
    }

    #[test]
    fn reordered_blocks_are_faster() {
        assert!(block_profile(16, 64, 16, true).cycles < block_profile(16, 64, 16, false).cycles);
    }

    #[test]
    fn block_flops_counts_fmas_twice() {
        assert_eq!(block_flops(4, 16, 8), 2 * 4 * 16 * 8);
    }

    #[test]
    fn partial_tiles_round_up() {
        let full = block_profile(4, 16, 8, true).cycles;
        let partial = block_profile(3, 15, 8, true).cycles;
        assert_eq!(full, partial, "partial tiles cost a full tile");
    }

    #[test]
    fn tile_profile_ldm_traffic_matches_eq5_structure() {
        // Per reduction step the reordered kernel issues 4 vloads (image)
        // + 4 vlddes (filter), each charged 32 B -> 256 B/step. Stores
        // appear only in the spill/refill overhead, not the inner loop.
        let n = 16;
        let t = tile_profile(n, true);
        assert_eq!(t.ldm_load_bytes, 256 * n as u64);
        assert_eq!(t.ldm_store_bytes, 0);
        assert!(t.p0_slots >= (TILE_NO * TILE_PIX / 4 * n) as u64);
        assert!(t.p1_slots > 0);
    }

    #[test]
    fn block_profile_adds_spill_refill_per_tile() {
        let n = 8;
        let t = tile_profile(n, true);
        let b = block_profile(TILE_NO, TILE_PIX, n, true); // exactly one tile
        assert_eq!(b.cycles, t.cycles + TILE_OVERHEAD_CYCLES);
        assert_eq!(b.ldm_load_bytes, t.ldm_load_bytes + 32 * TILE_SPILL_VECTORS);
        assert_eq!(
            b.ldm_store_bytes,
            t.ldm_store_bytes + 32 * TILE_SPILL_VECTORS
        );
        assert_eq!(b.p1_slots, t.p1_slots + 2 * TILE_SPILL_VECTORS);
        assert_eq!(b.p0_slots, t.p0_slots);
    }
}
