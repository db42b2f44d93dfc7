//! Tier-1 observability tests: the measured counters and the analytic
//! model must stay mutually consistent.
//!
//! One claim is pinned here — **model-vs-measured agreement**: for both
//! evaluated plan families the counter-derived per-level bandwidth must
//! land inside a documented factor of the model's figures — the
//! reproduction of the paper's Table III "reasonable match" as an
//! executable bound.

use sw_bench::configs::perf_snapshot_configs;
use sw_obs::PerfReport;
use swdnn::Executor;

/// Documented agreement bounds (see DESIGN.md, "Observability"):
///
/// * measured throughput sits in `[0.5, 1.05] ×` the model's prediction —
///   the simulator charges overheads (spill/refill, launch, barriers) the
///   closed-form model elides, so measured < modeled is expected, but a
///   2× disagreement would mean model and implementation diverged;
/// * measured per-CPE LDM→REG bandwidth never exceeds the hardware figure
///   the model credits (46.4 GB/s per CPE);
/// * measured MEM bandwidth never exceeds the model's DMA-curve figure.
const GFLOPS_AGREEMENT: (f64, f64) = (0.5, 1.05);

fn measure(shape_idx: usize) -> PerfReport {
    let (shape, kind) = perf_snapshot_configs()[shape_idx];
    let exec = Executor::new();
    let rep = exec.run_config_with(&shape, kind).expect("config runs");
    rep.obs_report(&exec.chip)
}

#[test]
fn image_aware_measured_bandwidth_agrees_with_model() {
    let obs = measure(0);
    assert_eq!(obs.plan, "image_size_aware");
    let ratio = obs.gflops_measured / obs.gflops_modeled;
    assert!(
        ratio > GFLOPS_AGREEMENT.0 && ratio < GFLOPS_AGREEMENT.1,
        "image_aware measured/modeled = {ratio:.3}, outside {GFLOPS_AGREEMENT:?}"
    );
    assert!(
        obs.reg.measured_gbps <= obs.reg.modeled_gbps * 1.001,
        "per-CPE LDM→REG {:.1} GB/s exceeds the hardware's {:.1}",
        obs.reg.measured_gbps,
        obs.reg.modeled_gbps
    );
    assert!(
        obs.mem.measured_gbps <= obs.mem.modeled_gbps * 1.001,
        "MEM→LDM {:.1} GB/s exceeds the DMA curve's {:.1}",
        obs.mem.measured_gbps,
        obs.mem.modeled_gbps
    );
    assert!(obs.reg.bytes > 0 && obs.mem.bytes > 0);
    assert!(obs.ldm_high_water_frac > 0.0 && obs.ldm_high_water_frac <= 1.0);
}

#[test]
fn batch_aware_measured_bandwidth_agrees_with_model() {
    let obs = measure(2);
    assert_eq!(obs.plan, "batch_size_aware");
    let ratio = obs.gflops_measured / obs.gflops_modeled;
    assert!(
        ratio > GFLOPS_AGREEMENT.0 && ratio < GFLOPS_AGREEMENT.1,
        "batch_aware measured/modeled = {ratio:.3}, outside {GFLOPS_AGREEMENT:?}"
    );
    assert!(obs.reg.measured_gbps <= obs.reg.modeled_gbps * 1.001);
    assert!(obs.mem.measured_gbps <= obs.mem.modeled_gbps * 1.001);
    // The batch plan fills LDM to capacity by design (§IV-B).
    assert!(obs.ldm_high_water_frac > 0.5);
}
