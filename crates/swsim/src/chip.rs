//! Multi-core-group execution (§III-D).
//!
//! "We can partition output images into four parts along the row, and
//! assign each CG to process one fourth of the output images. Our
//! experiments demonstrate that such a partition scheme can generally
//! achieve near linear scaling among the four CGs."
//!
//! Each CG owns a private memory segment (its slice of the batch/rows), so
//! the four simulations are independent; the chip-level wall time is the
//! maximum over CGs plus a fixed kernel-launch overhead on the MPEs.

use crate::stats::CgStats;
use sw_runtime::ExecutionContext;

/// Result of a multi-CG run.
#[derive(Clone, Debug)]
pub struct MultiCgReport {
    pub per_cg: Vec<CgStats>,
    /// Wall-clock cycles: max over CGs + launch overhead.
    pub wall_cycles: u64,
    /// Total flops across CGs.
    pub total_flops: u64,
}

/// Cycles the MPE spends launching a kernel onto its CPE mesh.
pub const LAUNCH_OVERHEAD_CYCLES: u64 = 2_000;

impl MultiCgReport {
    pub fn gflops(&self, clock_ghz: f64) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        let secs = self.wall_cycles as f64 / (clock_ghz * 1e9);
        self.total_flops as f64 / secs / 1e9
    }
}

/// Run `work(cg_index)` for each of `cgs` core groups on `rt` (each
/// closure builds and runs its own [`crate::Mesh`]) and combine timing
/// with each CG's value (e.g. its slice of a sharded output tensor),
/// returned in CG order. The serving dispatcher shares one context across
/// its per-batch CG fan-outs instead of spawning threads per request.
/// Scheduled with per-lane slot affinity
/// ([`ExecutionContext::map_index_affine`]), so CG `i` lands on the same
/// pool lane call after call — the serve dispatcher's 4 CGs stop
/// migrating across worker threads between requests, keeping each CG's
/// mesh state warm in one core's cache. Affinity is a scheduling hint
/// only; results are indexed by CG and bit-identical either way.
pub fn run_multi_cg_on<R, F>(rt: &ExecutionContext, cgs: usize, work: F) -> (MultiCgReport, Vec<R>)
where
    F: Fn(usize) -> (CgStats, R) + Sync + Send,
    R: Send,
{
    let pairs: Vec<(CgStats, R)> = rt.map_index_affine(cgs, work);
    let (per_cg, results): (Vec<CgStats>, Vec<R>) = pairs.into_iter().unzip();
    let wall = per_cg.iter().map(|s| s.cycles).max().unwrap_or(0) + LAUNCH_OVERHEAD_CYCLES;
    let flops = per_cg.iter().map(|s| s.totals.flops).sum();
    (
        MultiCgReport {
            per_cg,
            wall_cycles: wall,
            total_flops: flops,
        },
        results,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CpeStats;

    fn run<R: Send>(
        cgs: usize,
        work: impl Fn(usize) -> (CgStats, R) + Sync + Send,
    ) -> (MultiCgReport, Vec<R>) {
        run_multi_cg_on(sw_runtime::global(), cgs, work)
    }

    fn fake_cg(cycles: u64, flops: u64) -> CgStats {
        CgStats {
            cycles,
            totals: CpeStats {
                flops,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn wall_time_is_max_plus_overhead() {
        let (rep, _) = run(4, |i| (fake_cg(1000 + i as u64 * 10, 100), ()));
        assert_eq!(rep.wall_cycles, 1030 + LAUNCH_OVERHEAD_CYCLES);
        assert_eq!(rep.total_flops, 400);
    }

    #[test]
    fn balanced_partition_scales_nearly_linearly() {
        // A problem of 4N cycles on one CG becomes N cycles per CG on four.
        let total_work = 40_000_000u64;
        let (one, _) = run(1, |_| (fake_cg(total_work, total_work), ()));
        let (four, _) = run(4, |_| (fake_cg(total_work / 4, total_work / 4), ()));
        let speedup = one.wall_cycles as f64 / four.wall_cycles as f64;
        assert!(speedup > 3.9 && speedup <= 4.01, "speedup {speedup}");
    }

    #[test]
    fn run_with_returns_results_in_cg_order() {
        let (rep, results) = run(4, |i| (fake_cg(100, 10), i * i));
        assert_eq!(results, vec![0, 1, 4, 9]);
        assert_eq!(rep.wall_cycles, 100 + LAUNCH_OVERHEAD_CYCLES);
        assert_eq!(rep.total_flops, 40);
    }

    #[test]
    fn gflops_sums_across_cgs() {
        // Each CG does 1e9 flops in 1.45e9 cycles (1s) -> 1 Gflops each.
        let (rep, _) = run(4, |_| (fake_cg(1_450_000_000, 1_000_000_000), ()));
        assert!((rep.gflops(1.45) - 4.0).abs() < 0.01);
    }
}
