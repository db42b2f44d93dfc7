//! Tier-1 observability tests: the measured counters and the analytic
//! model must stay mutually consistent.
//!
//! One claim is pinned here — **model-vs-measured agreement**: for both
//! evaluated plan families the counter-derived per-level bandwidth must
//! land inside a documented factor of the model's figures — the
//! reproduction of the paper's Table III "reasonable match" as an
//! executable bound.

use sw_bench::configs::perf_snapshot_configs;
use swdnn::Executor;

/// Documented agreement bounds (see DESIGN.md, "Observability"):
///
/// * measured throughput sits in `(0.5, 1.05) ×` the model's prediction —
///   the simulator charges overheads (spill/refill, launch, barriers) the
///   closed-form model elides, so measured < modeled is expected, but a
///   2× disagreement would mean model and implementation diverged;
/// * measured per-CPE LDM→REG bandwidth never exceeds the hardware figure
///   the model credits (46.4 GB/s per CPE);
/// * measured MEM bandwidth never exceeds the model's DMA-curve figure.
const GFLOPS_AGREEMENT: (f64, f64) = (0.5, 1.05);

/// What one snapshot configuration measured, next to the model's MBW.
struct Measured {
    plan: String,
    gflops_ratio: f64,
    reg_gbps: f64,
    reg_modeled_gbps: f64,
    reg_bytes: u64,
    mem_gbps: f64,
    mem_modeled_gbps: f64,
    mem_bytes: u64,
    ldm_high_water_frac: f64,
}

fn measure(shape_idx: usize) -> Measured {
    let (shape, kind) = perf_snapshot_configs()[shape_idx];
    let exec = Executor::new();
    let chip = exec.chip;
    let rep = exec.run_config_with(&shape, kind).expect("config runs");
    let stats = &rep.timing.stats;
    let secs = chip.cycles_to_seconds(rep.timing.cycles);
    assert!(secs > 0.0, "a snapshot configuration takes simulated time");
    Measured {
        plan: rep.plan_name.clone(),
        gflops_ratio: rep.gflops_cg / rep.model.gflops_per_cg,
        reg_gbps: stats.ldm_reg_gbps_per_cpe(chip.clock_ghz, chip.cpes_per_cg as u64),
        reg_modeled_gbps: rep.model.mbw_ldm_reg,
        reg_bytes: stats.totals.ldm_reg_bytes,
        mem_gbps: stats.mem_bytes() as f64 / secs / 1e9,
        mem_modeled_gbps: rep.model.mbw_mem_ldm,
        mem_bytes: stats.mem_bytes(),
        ldm_high_water_frac: stats.ldm_high_water_frac(chip.ldm_bytes),
    }
}

fn assert_agrees(m: &Measured) {
    assert!(
        m.gflops_ratio > GFLOPS_AGREEMENT.0 && m.gflops_ratio < GFLOPS_AGREEMENT.1,
        "{} measured/modeled = {:.3}, outside {GFLOPS_AGREEMENT:?}",
        m.plan,
        m.gflops_ratio
    );
    assert!(
        m.reg_gbps <= m.reg_modeled_gbps * 1.001,
        "per-CPE LDM→REG {:.1} GB/s exceeds the hardware's {:.1}",
        m.reg_gbps,
        m.reg_modeled_gbps
    );
    assert!(
        m.mem_gbps <= m.mem_modeled_gbps * 1.001,
        "MEM→LDM {:.1} GB/s exceeds the DMA curve's {:.1}",
        m.mem_gbps,
        m.mem_modeled_gbps
    );
    assert!(m.reg_bytes > 0 && m.mem_bytes > 0);
    assert!(m.ldm_high_water_frac > 0.0 && m.ldm_high_water_frac <= 1.0);
}

#[test]
fn image_aware_measured_bandwidth_agrees_with_model() {
    let m = measure(0);
    assert_eq!(m.plan, "image_size_aware");
    assert_agrees(&m);
}

#[test]
fn batch_aware_measured_bandwidth_agrees_with_model() {
    let m = measure(2);
    assert_eq!(m.plan, "batch_size_aware");
    assert_agrees(&m);
    // The batch plan fills LDM to capacity by design (§IV-B).
    assert!(m.ldm_high_water_frac > 0.5);
}
