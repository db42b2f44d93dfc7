//! [`PerfReport`]: one convolution configuration's measured counters put
//! next to the analytic model's prediction, per memory-hierarchy level.
//!
//! The paper's Fig. 2 model predicts attainable performance from the ratio
//! of measured to required bandwidth at each REG/LDM/MEM level. A report
//! closes the loop: the simulator's counters give *measured* traffic and
//! time, the `perfmodel` crate gives *required* (RBW) and *modeled* (MBW)
//! bandwidth, and the report serializes all three side by side so a human
//! (via [`PerfReport::summary`]) can see whether implementation and model
//! still agree.

use crate::level::Level;
use serde_json::{object, Value};

/// Measured-vs-modeled traffic across one link of the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelIo {
    pub level: Level,
    /// RBW: bandwidth the algorithm *needs* at this level to keep the
    /// pipelines busy (model, Eqs. 1/3/5). GB/s.
    pub required_gbps: f64,
    /// MBW the model credits the hardware with at this level (Table II
    /// DMA curve for MEM, Eq. 5 closed form for REG). GB/s.
    pub modeled_gbps: f64,
    /// Bandwidth actually observed: counter bytes over measured time. GB/s.
    pub measured_gbps: f64,
    /// Raw bytes the counters recorded across this link.
    pub bytes: u64,
}

impl LevelIo {
    pub fn zero(level: Level) -> Self {
        LevelIo {
            level,
            required_gbps: 0.0,
            modeled_gbps: 0.0,
            measured_gbps: 0.0,
            bytes: 0,
        }
    }

    pub fn to_json(&self) -> Value {
        object([
            ("level", Value::from(self.level.name())),
            ("required_gbps", Value::from(self.required_gbps)),
            ("modeled_gbps", Value::from(self.modeled_gbps)),
            ("measured_gbps", Value::from(self.measured_gbps)),
            ("bytes", Value::from(self.bytes)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<LevelIo> {
        Some(LevelIo {
            level: Level::from_name(v.get("level")?.as_str()?)?,
            required_gbps: v.get("required_gbps")?.as_f64()?,
            modeled_gbps: v.get("modeled_gbps")?.as_f64()?,
            measured_gbps: v.get("measured_gbps")?.as_f64()?,
            bytes: v.get("bytes")?.as_u64()?,
        })
    }
}

/// Full measured-vs-modeled record for one (configuration, plan) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfReport {
    /// Stable configuration label, e.g. `"B128 Ni128 No128 R64 K3"`.
    pub config: String,
    /// Plan that produced the measurement (`image_aware`, `batch_aware`, ...).
    pub plan: String,
    /// Simulated CPE-cluster cycles for the run.
    pub cycles: u64,
    /// Wall time the cycles correspond to at the chip clock, in ms.
    pub time_ms: f64,
    /// Throughput computed from counted flops over simulated time.
    pub gflops_measured: f64,
    /// Throughput the analytic model predicts for this configuration.
    pub gflops_modeled: f64,
    /// Model's execution efficiency (Eq. 4 pipeline utilization term).
    pub efficiency_modeled: f64,
    /// Whether the model classifies this configuration as memory-bound.
    pub memory_bound: bool,
    /// Peak LDM occupancy as a fraction of the 64 KB scratchpad.
    pub ldm_high_water_frac: f64,
    /// MEM→LDM link (DMA traffic).
    pub mem: LevelIo,
    /// LDM→REG link (vector load/store traffic, Eq. 5 accounting).
    pub reg: LevelIo,
    /// Raw counter dump, name → value, for drill-down and trace args.
    pub counters: Vec<(String, u64)>,
}

impl PerfReport {
    pub fn to_json(&self) -> Value {
        object([
            ("config", Value::from(self.config.as_str())),
            ("plan", Value::from(self.plan.as_str())),
            ("cycles", Value::from(self.cycles)),
            ("time_ms", Value::from(self.time_ms)),
            ("gflops_measured", Value::from(self.gflops_measured)),
            ("gflops_modeled", Value::from(self.gflops_modeled)),
            ("efficiency_modeled", Value::from(self.efficiency_modeled)),
            ("memory_bound", Value::from(self.memory_bound)),
            ("ldm_high_water_frac", Value::from(self.ldm_high_water_frac)),
            ("mem", self.mem.to_json()),
            ("reg", self.reg.to_json()),
            (
                "counters",
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<PerfReport> {
        Some(PerfReport {
            config: v.get("config")?.as_str()?.to_string(),
            plan: v.get("plan")?.as_str()?.to_string(),
            cycles: v.get("cycles")?.as_u64()?,
            time_ms: v.get("time_ms")?.as_f64()?,
            gflops_measured: v.get("gflops_measured")?.as_f64()?,
            gflops_modeled: v.get("gflops_modeled")?.as_f64()?,
            efficiency_modeled: v.get("efficiency_modeled")?.as_f64()?,
            memory_bound: v.get("memory_bound")?.as_bool()?,
            ldm_high_water_frac: v.get("ldm_high_water_frac")?.as_f64()?,
            mem: LevelIo::from_json(v.get("mem")?)?,
            reg: LevelIo::from_json(v.get("reg")?)?,
            counters: v
                .get("counters")?
                .as_object()?
                .iter()
                .map(|(k, val)| Some((k.clone(), val.as_u64()?)))
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{} [{}]: {:.1} GF/s measured vs {:.1} GF/s modeled ({:.1}% of model), {} cycles, {:.3} ms\n",
            self.config,
            self.plan,
            self.gflops_measured,
            self.gflops_modeled,
            if self.gflops_modeled > 0.0 {
                100.0 * self.gflops_measured / self.gflops_modeled
            } else {
                0.0
            },
            self.cycles,
            self.time_ms,
        ));
        for io in [&self.mem, &self.reg] {
            s.push_str(&format!(
                "  {}: required {:>7.1} GB/s | modeled {:>7.1} GB/s | measured {:>7.1} GB/s ({} bytes)\n",
                io.level, io.required_gbps, io.modeled_gbps, io.measured_gbps, io.bytes,
            ));
        }
        s.push_str(&format!(
            "  LDM high water {:.1}% of 64 KB; model EE {:.3}; {}\n",
            100.0 * self.ldm_high_water_frac,
            self.efficiency_modeled,
            if self.memory_bound {
                "memory-bound"
            } else {
                "compute-bound"
            },
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(config: &str, plan: &str) -> PerfReport {
        PerfReport {
            config: config.to_string(),
            plan: plan.to_string(),
            cycles: 3_200_000,
            time_ms: 2.206,
            gflops_measured: 310.5,
            gflops_modeled: 371.25,
            efficiency_modeled: 0.82,
            memory_bound: false,
            ldm_high_water_frac: 0.74,
            mem: LevelIo {
                level: Level::Mem,
                required_gbps: 14.8,
                modeled_gbps: 27.9,
                measured_gbps: 13.2,
                bytes: 29_360_128,
            },
            reg: LevelIo {
                level: Level::Reg,
                required_gbps: 11.6,
                modeled_gbps: 23.2,
                measured_gbps: 15.4,
                bytes: 67_108_864,
            },
            counters: vec![
                ("dma_get_bytes".into(), 25_165_824),
                ("vfmadd_issued".into(), 1_048_576),
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report("B128 Ni128 No128 R64 K3", "image_aware");
        let s = serde_json::to_string(&r.to_json());
        let back = PerfReport::from_json(&serde_json::from_str(&s).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn summary_mentions_levels_and_plan() {
        let s = sample_report("B64", "batch_aware").summary();
        assert!(s.contains("batch_aware"));
        assert!(s.contains("MEM:"));
        assert!(s.contains("REG:"));
        assert!(s.contains("compute-bound"));
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let v = serde_json::from_str("{\"config\": \"x\"}").unwrap();
        assert!(PerfReport::from_json(&v).is_none());
    }
}
