//! Closed-form execution-efficiency (EE) expressions from §VI-B.
//!
//! The paper's EE is the fraction of issue cycles in which P0 performs a
//! floating-point operation. For the 16-FMA inner kernel iterated `n = Ni/8`
//! times:
//!
//! * naive flow: 26 issue slots per iteration ⇒ `EE → 16/26 = 61.5 %`,
//! * reordered flow: `EE(n) = 16n / (5 + 17(n−1) + 16) = 16n / (17n + 4)`
//!   — "larger Ni will get higher execution efficiency".

/// Iterations of the inner loop for a given number of input channels.
pub fn iterations_for_ni(ni: usize) -> usize {
    (ni / 8).max(1)
}

/// Exact EE of the naive kernel for `n` iterations as simulated
/// (the final fall-through branch saves its bubble: `16n / (26n − 1)`).
pub fn ee_naive(n: usize) -> f64 {
    let n = n as f64;
    16.0 * n / (26.0 * n - 1.0)
}

/// EE of the software-pipelined kernel, the paper's
/// `(Ni/8 · 16) / (5 + (Ni/8 − 1)·17 + 16)`.
pub fn ee_reordered(n: usize) -> f64 {
    let n = n as f64;
    16.0 * n / (17.0 * n + 4.0)
}

/// Total issue cycles of the reordered kernel: `17n + 4`.
pub fn cycles_reordered(n: usize) -> u64 {
    17 * n as u64 + 4
}

/// Total issue cycles of the naive kernel: `26n − 1`.
pub fn cycles_naive(n: usize) -> u64 {
    26 * n as u64 - 1
}

/// EE for a given channel count under the reordered kernel.
pub fn ee_for_ni(ni: usize) -> f64 {
    ee_reordered(iterations_for_ni(ni))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{naive_gemm_kernel, reordered_gemm_kernel, KernelSpec};
    use crate::pipeline::DualPipe;

    /// Steady-state EE of the naive kernel: `16/26 ≈ 0.615`.
    fn ee_naive_asymptotic() -> f64 {
        16.0 / 26.0
    }

    #[test]
    fn formulas_match_simulation() {
        let pipe = DualPipe::default();
        for n in 2..=48usize {
            let spec = KernelSpec::new(n);
            assert_eq!(
                pipe.run(&naive_gemm_kernel(spec)).cycles,
                cycles_naive(n),
                "naive n={n}"
            );
            assert_eq!(
                pipe.run(&reordered_gemm_kernel(spec)).cycles,
                cycles_reordered(n),
                "reordered n={n}"
            );
        }
    }

    #[test]
    fn paper_headline_numbers() {
        // 16/26 = 61.5%
        assert!((ee_naive_asymptotic() - 0.615).abs() < 1e-3);
        // Ni=64 -> n=8 -> 128/140 ≈ 91.4%
        assert!((ee_for_ni(64) - 128.0 / 140.0).abs() < 1e-12);
        // Larger Ni gives higher efficiency.
        assert!(ee_for_ni(384) > ee_for_ni(64));
        assert!(ee_for_ni(64) > ee_naive_asymptotic());
    }

    #[test]
    fn ee_is_monotone_in_n_and_bounded() {
        let mut prev = 0.0;
        for n in 1..200 {
            let e = ee_reordered(n);
            assert!(e > prev);
            assert!(e < 16.0 / 17.0);
            prev = e;
        }
    }

    #[test]
    fn iterations_floor_at_one() {
        assert_eq!(iterations_for_ni(4), 1);
        assert_eq!(iterations_for_ni(64), 8);
        assert_eq!(iterations_for_ni(384), 48);
    }
}
