//! Tesla K40m + cuDNNv5.1 throughput model.
//!
//! What the paper reports about the baseline:
//!
//! * K40m peak double precision ≈ 1.43 Tflops (1.66 with GPU boost); the
//!   paper quotes its memory bandwidth as 240–480 GB/s depending on ECC
//!   and counting;
//! * "the best efficiency on K40m is around 40% but only for a small set
//!   of parameter configurations";
//! * cuDNN's throughput is *unstable* across configurations (Fig. 7's GPU
//!   curve swings widely while swDNN's is flat);
//! * large filters hurt cuDNN badly (Fig. 9: swDNN's advantage grows with
//!   filter size, up to 9.75×).
//!
//! The model composes four calibrated factors:
//! `gflops = 1430 · 0.40 · ch(ni, no) · flt(k) · stab(config-hash)`, with
//! `ch` a mild channel-count factor, `flt = (3/max(k,3))^0.25`, and `stab`
//! a deterministic per-configuration factor in `[0.55, 1.0]` standing in
//! for cuDNN's kernel-selection cliffs. The constants were chosen so the
//! published envelope holds: best efficiency ≈ 40%, and swDNN speedups on
//! the Fig. 7/8/9 configuration sets spanning roughly 1.9–9.8×.

use sw_tensor::ConvShape;

/// The baseline device model.
#[derive(Clone, Copy, Debug)]
pub struct K40m {
    /// Peak double-precision Gflops.
    pub peak_gflops: f64,
    /// Best-case cuDNN efficiency.
    pub best_efficiency: f64,
}

impl Default for K40m {
    fn default() -> Self {
        Self {
            peak_gflops: 1430.0,
            best_efficiency: 0.40,
        }
    }
}

/// Deterministic config hash → [0, 1).
fn unit_hash(shape: &ConvShape) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in [
        shape.batch,
        shape.ni,
        shape.no,
        shape.ro,
        shape.co,
        shape.kr,
        shape.kc,
    ] {
        h ^= v as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl K40m {
    /// Modeled cuDNNv5.1 double-precision convolution throughput, Gflops.
    pub fn conv_gflops(&self, shape: &ConvShape) -> f64 {
        self.peak_gflops
            * self.best_efficiency
            * self.channel_factor(shape)
            * self.filter_factor(shape)
            * self.stability_factor(shape)
    }

    /// Mild preference for larger channel counts (GEMMs get fatter).
    fn channel_factor(&self, shape: &ConvShape) -> f64 {
        let m = shape.ni.min(shape.no) as f64;
        (m / 384.0).powf(0.08).clamp(0.5, 1.0)
    }

    /// cuDNN's tuned kernels favour small filters; large ones fall off the
    /// fast paths (Fig. 9).
    fn filter_factor(&self, shape: &ConvShape) -> f64 {
        let k = shape.kr.max(shape.kc).max(3) as f64;
        (3.0 / k).powf(0.25)
    }

    /// Kernel-selection instability: deterministic pseudo-random factor in
    /// [0.55, 1.0] — wide enough that Fig. 7's GPU curve swings while the
    /// swDNN curve stays flat.
    fn stability_factor(&self, shape: &ConvShape) -> f64 {
        0.55 + 0.45 * unit_hash(shape)
    }

    /// Achieved fraction of peak.
    pub fn efficiency(&self, shape: &ConvShape) -> f64 {
        self.conv_gflops(shape) / self.peak_gflops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_shape(ni: usize, no: usize, k: usize) -> ConvShape {
        ConvShape::new(128, ni, no, 64, 64, k, k)
    }

    #[test]
    fn efficiency_never_exceeds_40_percent() {
        let gpu = K40m::default();
        for ni in (64..=384).step_by(32) {
            for no in (64..=384).step_by(32) {
                for k in [3, 5, 9, 15, 21] {
                    let e = gpu.efficiency(&paper_shape(ni, no, k));
                    assert!(e <= 0.40 + 1e-12, "eff {e} at ni={ni} no={no} k={k}");
                    assert!(e > 0.05, "eff {e} collapsed at ni={ni} no={no} k={k}");
                }
            }
        }
    }

    #[test]
    fn best_configs_reach_about_40_percent() {
        let gpu = K40m::default();
        let best = (64..=384)
            .step_by(32)
            .flat_map(|ni| (64..=384).step_by(32).map(move |no| (ni, no)))
            .map(|(ni, no)| gpu.efficiency(&paper_shape(ni, no, 3)))
            .fold(0.0f64, f64::max);
        assert!(best > 0.35, "best efficiency {best}");
    }

    #[test]
    fn large_filters_are_much_slower() {
        let gpu = K40m::default();
        let small = gpu.conv_gflops(&paper_shape(128, 128, 3));
        let large = gpu.conv_gflops(&paper_shape(128, 128, 21));
        assert!(large < small * 0.75, "{large} vs 0.75 * {small}");
    }

    #[test]
    fn model_is_deterministic_but_config_sensitive() {
        let gpu = K40m::default();
        let a = gpu.conv_gflops(&paper_shape(128, 128, 3));
        let b = gpu.conv_gflops(&paper_shape(128, 128, 3));
        assert_eq!(a, b);
        let c = gpu.conv_gflops(&paper_shape(128, 160, 3));
        assert_ne!(a, c);
    }

    #[test]
    fn instability_spread_is_wide() {
        // The stability factor must move results by tens of percent across
        // neighbouring configs — the "unstable" behaviour of Fig. 7.
        let gpu = K40m::default();
        let effs: Vec<f64> = (64..=384)
            .step_by(32)
            .map(|ni| gpu.efficiency(&paper_shape(ni, 128, 3)))
            .collect();
        let min = effs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = effs.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.35, "spread {min}..{max} too flat");
    }
}
