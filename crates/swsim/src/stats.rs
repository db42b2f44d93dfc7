//! Traffic and work counters.
//!
//! Every claim the reproduction makes about bandwidth requirements is
//! *measured* here, not assumed: plans cannot move a byte or execute a flop
//! without it being counted, so the benchmark harness can report achieved
//! MEM→LDM bandwidth and Gflops directly from these counters.
//!
//! Counters are plain `u64`s. Each mesh node owns one [`CpeStats`] and a
//! superstep hands it to exactly one writer — the lane holding that node's
//! `&mut CpeNode` — and nothing reads it until the superstep barrier has
//! joined every lane, so no atomics are needed and totals cannot depend on
//! thread scheduling (asserted by `counters_are_schedule_independent` and
//! the `sim_props` suite). Being `Copy`, the same struct is the snapshot
//! the planner's timing extrapolation and the bench harness manipulate.
//!
//! The field list is defined once in `for_each_cpe_stat!` and expanded into
//! the struct and every whole-struct operation, so adding a counter in one
//! place wires it through summation, naming and extrapolation.

/// Invokes `$action!(field, field, ...)` with the complete counter field
/// list — the single source of truth for what a CPE counts.
macro_rules! for_each_cpe_stat {
    ($action:ident) => {
        $action! {
            dma_get_bytes,
            dma_put_bytes,
            dma_requests,
            bus_vectors_sent,
            bus_vectors_received,
            flops,
            ldm_reg_bytes,
            p0_issue_slots,
            p1_issue_slots,
            dma_stall_cycles,
            compute_cycles,
            dma_retries,
            fault_retry_cycles,
            fault_stall_cycles,
            msgs_dropped
        }
    };
}

/// Counters for one CPE.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpeStats {
    /// Bytes moved memory → LDM by DMA gets.
    pub dma_get_bytes: u64,
    /// Bytes moved LDM → memory by DMA puts.
    pub dma_put_bytes: u64,
    /// Number of DMA requests issued.
    pub dma_requests: u64,
    /// 256-bit payloads sent on row/column buses.
    pub bus_vectors_sent: u64,
    /// 256-bit payloads received from transfer buffers.
    pub bus_vectors_received: u64,
    /// Double-precision flops executed.
    pub flops: u64,
    /// Bytes moved LDM → register file by the inner kernel's vector
    /// loads/stores, in the paper's Eq. 5 accounting (`vldde` charged 32 B).
    pub ldm_reg_bytes: u64,
    /// Instructions issued to pipeline P0 (FP/vector arithmetic).
    pub p0_issue_slots: u64,
    /// Instructions issued to pipeline P1 (memory/communication/control).
    pub p1_issue_slots: u64,
    /// Cycles spent waiting on DMA completions.
    pub dma_stall_cycles: u64,
    /// Cycles spent in compute kernels.
    pub compute_cycles: u64,
    /// DMA attempts re-issued after an injected failure.
    pub dma_retries: u64,
    /// Cycles charged for re-issued transfers plus retry backoff.
    pub fault_retry_cycles: u64,
    /// Cycles lost to injected DMA/CPE stalls.
    pub fault_stall_cycles: u64,
    /// Bus messages dropped by fault injection (counted at the sender).
    pub msgs_dropped: u64,
}

impl CpeStats {
    /// Field-wise combination: the one place whole-struct arithmetic is
    /// written. `add` is `combine(+)`; the planner's timing extrapolation
    /// is `combine(lerp)`.
    pub fn combine(&self, other: &CpeStats, mut f: impl FnMut(u64, u64) -> u64) -> CpeStats {
        macro_rules! combined {
            ($($field:ident),+) => {
                CpeStats { $($field: f(self.$field, other.$field)),+ }
            };
        }
        for_each_cpe_stat!(combined)
    }

    pub fn add(&mut self, other: &CpeStats) {
        *self = self.combine(other, |a, b| a + b);
    }

    /// `(name, value)` pairs for every counter, in declaration order —
    /// the raw-counter dump exported into perf reports and trace args.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        macro_rules! named {
            ($($field:ident),+) => {
                vec![$((stringify!($field), self.$field)),+]
            };
        }
        for_each_cpe_stat!(named)
    }
}

/// Aggregated result of running a kernel on one core group.
#[derive(Clone, Copy, Debug, Default)]
pub struct CgStats {
    /// Wall-clock cycles (max over CPEs, including superstep syncs).
    pub cycles: u64,
    /// Sum over all 64 CPEs.
    pub totals: CpeStats,
    /// Peak LDM usage of any CPE, in doubles.
    pub ldm_high_water_doubles: u64,
}

impl CgStats {
    /// Seconds of simulated wall time at `clock_ghz`.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1e9)
    }

    /// Attained Gflops of the kernel on this CG.
    pub fn gflops(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.totals.flops as f64 / self.seconds(clock_ghz) / 1e9
    }

    /// Achieved LDM→REG bandwidth in GB/s (per CPE, lifetime average),
    /// the Eq. 5 level of the model. Per-CPE because the paper's 46.4 GB/s LDM→REG figure is a single CPE's load path.
    pub fn ldm_reg_gbps_per_cpe(&self, clock_ghz: f64, cpes: u64) -> f64 {
        if self.cycles == 0 || cpes == 0 {
            return 0.0;
        }
        self.totals.ldm_reg_bytes as f64 / cpes as f64 / self.seconds(clock_ghz) / 1e9
    }

    /// Total memory traffic (both directions) in bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.totals.dma_get_bytes + self.totals.dma_put_bytes
    }

    /// Peak LDM occupancy as a fraction of `ldm_bytes` capacity.
    pub fn ldm_high_water_frac(&self, ldm_bytes: usize) -> f64 {
        if ldm_bytes == 0 {
            return 0.0;
        }
        (self.ldm_high_water_doubles * 8) as f64 / ldm_bytes as f64
    }

    /// Fraction of the CG's peak the kernel attained.
    pub fn efficiency(&self, peak_gflops: f64, clock_ghz: f64) -> f64 {
        self.gflops(clock_ghz) / peak_gflops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_arithmetic() {
        let s = CgStats {
            cycles: 1_450_000_000, // one second at 1.45 GHz
            totals: CpeStats {
                flops: 500_000_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.gflops(1.45) - 500.0).abs() < 1e-9);
        assert!((s.seconds(1.45) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_arithmetic() {
        let s = CgStats {
            cycles: 1_450_000_000,
            totals: CpeStats {
                ldm_reg_bytes: 64 * 46_400_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.ldm_reg_gbps_per_cpe(1.45, 64) - 46.4).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_is_not_a_division_error() {
        let s = CgStats::default();
        assert_eq!(s.gflops(1.45), 0.0);
        assert_eq!(s.ldm_reg_gbps_per_cpe(1.45, 64), 0.0);
        assert_eq!(s.ldm_high_water_frac(0), 0.0);
    }

    #[test]
    fn ldm_high_water_fraction() {
        let s = CgStats {
            ldm_high_water_doubles: 4096, // 32 KB
            ..Default::default()
        };
        assert!((s.ldm_high_water_frac(65536) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_add_accumulates_all_fields() {
        let mut a = CpeStats {
            flops: 1,
            dma_get_bytes: 2,
            ..Default::default()
        };
        let b = CpeStats {
            flops: 10,
            dma_get_bytes: 20,
            bus_vectors_sent: 3,
            ldm_reg_bytes: 7,
            p0_issue_slots: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.flops, 11);
        assert_eq!(a.dma_get_bytes, 22);
        assert_eq!(a.bus_vectors_sent, 3);
        assert_eq!(a.ldm_reg_bytes, 7);
        assert_eq!(a.p0_issue_slots, 5);
    }

    #[test]
    fn combine_covers_every_field() {
        // combine(max) of a struct against itself must be the identity;
        // through the macro this exercises the complete field list.
        let t = CpeStats {
            flops: 3,
            msgs_dropped: 9,
            p1_issue_slots: 2,
            ..Default::default()
        };
        assert_eq!(t.combine(&t, |a, b| a.max(b)), t);
        assert_eq!(t.named().len(), 15);
        assert!(t.named().contains(&("p1_issue_slots", 2)));
    }

    #[test]
    fn counters_are_schedule_independent() {
        // One writer per CPE per superstep, read after the barrier: every
        // per-CPE counter must come out identical whether the 64 programs
        // ran inline or were fanned over 2, 4 or 8 pool lanes.
        use crate::mesh::Mesh;
        let run = |threads: usize| {
            sw_runtime::with_threads(threads, || {
                let mut mesh: Mesh<()> = Mesh::new(sw_perfmodel::ChipSpec::sw26010(), |_, _| ());
                for _ in 0..4 {
                    // An estimate far above the grain: the pool path.
                    mesh.superstep_with(sw_runtime::Work::Macs(u64::MAX), |ctx, _| {
                        for _ in 0..500 {
                            ctx.add_flops(8);
                            ctx.add_ldm_reg_bytes(32);
                        }
                        ctx.charge_compute(ctx.id() as u64);
                        Ok(())
                    })
                    .unwrap();
                }
                mesh.cpe_snapshots()
            })
        };
        let inline = run(1);
        assert!(inline
            .iter()
            .all(|(_, _, _, s)| s.flops == 4 * 500 * 8 && s.ldm_reg_bytes == 4 * 500 * 32));
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), inline, "threads = {threads}");
        }
    }
}
