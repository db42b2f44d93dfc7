//! Published SW26010 machine constants (§III-B, §III-D).
//!
//! Every number here is taken from the paper (or follows arithmetically
//! from one that is): 1.45 GHz clock, 4 core groups of 64 CPEs, 8 DP flops
//! per CPE per cycle (one 4-lane FMA), 64 KB LDM per CPE, 36 GB/s DDR3 per
//! CG, 8 GB/s `gload` path, 46.4 GB/s LDM↔register per CPE
//! (32 B × 1.45 GHz), and the derived 742.4 Gflops/CG peak.

/// Machine description of one SW26010 processor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChipSpec {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Number of core groups on the chip.
    pub core_groups: usize,
    /// Computing processing elements per core group (8×8 mesh).
    pub cpes_per_cg: usize,
    /// Mesh side (8): row/column communication bus span.
    pub mesh_dim: usize,
    /// Double-precision flops per CPE per cycle (4-lane FMA = 8).
    pub flops_per_cycle_per_cpe: u64,
    /// Local Directive Memory per CPE, bytes.
    pub ldm_bytes: usize,
    /// Peak DDR3 bandwidth per CG, GB/s.
    pub ddr3_peak_gbps: f64,
    /// Bandwidth of the direct `gload` path from CPEs to memory, GB/s.
    pub gload_gbps: f64,
    /// LDM ↔ register bandwidth per CPE, GB/s.
    pub ldm_reg_gbps: f64,
    /// The paper's required bandwidth for the direct-memory-access mapping
    /// with no data sharing (Fig. 2 middle column), GB/s.
    pub rbw_direct_mem_gbps: f64,
}

impl ChipSpec {
    /// The SW26010 as described in the paper.
    pub const fn sw26010() -> Self {
        Self {
            clock_ghz: 1.45,
            core_groups: 4,
            cpes_per_cg: 64,
            mesh_dim: 8,
            flops_per_cycle_per_cpe: 8,
            ldm_bytes: 64 * 1024,
            ddr3_peak_gbps: 36.0,
            gload_gbps: 8.0,
            ldm_reg_gbps: 46.4,
            rbw_direct_mem_gbps: 139.2,
        }
    }

    /// Peak double-precision Gflops of one core group (742.4 for SW26010).
    pub fn peak_gflops_per_cg(&self) -> f64 {
        self.clock_ghz * self.flops_per_cycle_per_cpe as f64 * self.cpes_per_cg as f64
    }

    /// Peak double-precision Gflops of one CPE (11.6 for SW26010).
    pub fn peak_gflops_per_cpe(&self) -> f64 {
        self.clock_ghz * self.flops_per_cycle_per_cpe as f64
    }

    /// Peak double-precision Tflops of the whole chip (≈2.97; the paper
    /// quotes 3.06 including the MPEs, which swDNN does not use for compute).
    pub fn peak_tflops_chip(&self) -> f64 {
        self.peak_gflops_per_cg() * self.core_groups as f64 / 1000.0
    }

    /// Aggregate DDR3 bandwidth of the chip, GB/s (144 for SW26010).
    pub fn total_mem_bw_gbps(&self) -> f64 {
        self.ddr3_peak_gbps * self.core_groups as f64
    }

    /// LDM capacity in doubles (8192 for SW26010).
    pub fn ldm_doubles(&self) -> usize {
        self.ldm_bytes / 8
    }

    /// Convert a CPE cycle count into seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Gflops attained by `flops` of work in `cycles` CPE cycles.
    pub fn gflops(&self, flops: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        flops as f64 / self.cycles_to_seconds(cycles) / 1e9
    }
}

impl Default for ChipSpec {
    fn default() -> Self {
        Self::sw26010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_per_cg_is_742_4() {
        let c = ChipSpec::sw26010();
        assert!((c.peak_gflops_per_cg() - 742.4).abs() < 1e-9);
    }

    #[test]
    fn chip_peak_near_3_tflops() {
        let c = ChipSpec::sw26010();
        assert!((c.peak_tflops_chip() - 2.9696).abs() < 1e-3);
    }

    #[test]
    fn ldm_reg_bandwidth_is_32_bytes_per_cycle() {
        let c = ChipSpec::sw26010();
        assert!((c.ldm_reg_gbps - 32.0 * c.clock_ghz).abs() < 1e-9);
    }

    #[test]
    fn aggregate_memory_bandwidth() {
        assert!((ChipSpec::sw26010().total_mem_bw_gbps() - 144.0).abs() < 1e-9);
    }

    #[test]
    fn direct_gload_utilization_is_0_32_percent() {
        // (8 / 139.2)^2 = 0.33% — the paper quotes 0.32%.
        let c = ChipSpec::sw26010();
        let u = (c.gload_gbps / c.rbw_direct_mem_gbps).powi(2);
        assert!((u - 0.0033).abs() < 3e-4);
    }

    #[test]
    fn cycle_time_conversions() {
        let c = ChipSpec::sw26010();
        assert!((c.cycles_to_seconds(1_450_000_000) - 1.0).abs() < 1e-12);
        // 8 flops/cycle at full rate = 11.6 Gflops.
        assert!((c.gflops(8 * 1450, 1450) - 11.6).abs() < 1e-9);
    }
}
