//! Required-bandwidth equations (Eqs. 1–5 of the paper).
//!
//! `RBW` is the memory traffic a level must sustain, per unit time, for the
//! arithmetic units to run at peak `T` flop/s. All equations reduce to
//! `RBW = (bytes moved / flops performed) · T`; with `T` in Gflop/s and
//! `DS = 8` bytes the result is in GB/s.
//!
//! Verified against the paper's own numbers: Eq. 1 reproduces the Table III
//! `RBW` column rows 1–2 (29.0 / 23.2 GB/s) and Eq. 2 rows 3–4
//! (27.1 / 25.7 GB/s); Eq. 5 reproduces the 23.2 GB/s of §V-C.

/// Size of a double in bytes (`DS` in the paper).
const DS: f64 = 8.0;

/// Eq. 1 — MEM→LDM required bandwidth of the *image-size-aware* plan
/// (Algorithm 1), which blocks on the batch (`b_b`) and output-column
/// (`b_co`) dimensions:
///
/// `RBW = ((No + b_co·b_b)·DS) / (2·b_co·b_b·No / T)
///      = ((1/(b_co·b_b) + 1/No) · DS) / (2/T)`
pub fn rbw_image_aware(b_b: usize, b_co: usize, no: usize, t_gflops: f64) -> f64 {
    let inv = 1.0 / (b_co as f64 * b_b as f64) + 1.0 / no as f64;
    inv * DS / (2.0 / t_gflops)
}

/// Eq. 2 — MEM→LDM required bandwidth of the *batch-size-aware* plan
/// (Algorithm 2):
///
/// `RBW = ((B + Kc·No)·DS) / (2·Kc·B·No / T)
///      = ((1/(Kc·No) + 1/B) · DS) / (2/T)`
pub fn rbw_batch_aware(batch: usize, kc: usize, no: usize, t_gflops: f64) -> f64 {
    let inv = 1.0 / (kc as f64 * no as f64) + 1.0 / batch as f64;
    inv * DS / (2.0 / t_gflops)
}

/// Eq. 3 — LDM→REG required bandwidth of the *spatial* register-blocking
/// scheme (convolve on `Ci × Ri` in registers with an `rb_kr × rb_kc`
/// filter tile held resident). `t_gflops` is per CPE.
///
/// `RBW = (rb_ri·rb_ci + rb_co·rb_ro)·DS / (2·rb_kr·rb_kc·rb_co·rb_ro / T)`
/// with `rb_co = rb_ci − kc + 1`, `rb_ro = rb_ri − kr + 1`.
pub fn rbw_reg_spatial(
    rb_ri: usize,
    rb_ci: usize,
    rb_kr: usize,
    rb_kc: usize,
    t_gflops: f64,
) -> f64 {
    assert!(
        rb_ci >= rb_kc && rb_ri >= rb_kr,
        "register tile smaller than filter tile"
    );
    let rb_co = (rb_ci - rb_kc + 1) as f64;
    let rb_ro = (rb_ri - rb_kr + 1) as f64;
    let bytes = (rb_ri as f64 * rb_ci as f64 + rb_co * rb_ro) * DS;
    let flops = 2.0 * rb_kr as f64 * rb_kc as f64 * rb_co * rb_ro;
    bytes / (flops / t_gflops)
}

/// Eq. 4 — LDM→REG required bandwidth of the *GEMM-style* register blocking
/// (block on `B` and `No`; `rb_b · rb_no` outputs stay resident in
/// registers). `t_gflops` is per CPE.
///
/// `RBW = (rb_b + rb_no)·DS / (2·rb_b·rb_no / T)`
pub fn rbw_reg_gemm(rb_b: usize, rb_no: usize, t_gflops: f64) -> f64 {
    (rb_b + rb_no) as f64 * DS / (2.0 * rb_b as f64 * rb_no as f64 / t_gflops)
}

/// Eq. 5 — the SIMD-aware variant of Eq. 4: filter elements are loaded as
/// scalars and replicated into 4-lane vectors (`vldde`), which costs 4× the
/// bandwidth on the `rb_no` term:
///
/// `RBW = (rb_b + 4·rb_no)·DS / (2·rb_b·rb_no / T)`
pub fn rbw_reg_gemm_simd(rb_b: usize, rb_no: usize, t_gflops: f64) -> f64 {
    (rb_b + 4 * rb_no) as f64 * DS / (2.0 * rb_b as f64 * rb_no as f64 / t_gflops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipSpec;

    const T_CG: f64 = 742.4;

    #[test]
    fn eq1_reproduces_table_iii_rows_1_and_2() {
        // Row 1: Kc=3 bB=32 bCo=16 Ni=128 No=128 -> RBW 29.0
        assert!((rbw_image_aware(32, 16, 128, T_CG) - 29.0).abs() < 0.05);
        // Row 2: bB=32 bCo=8 No=256 -> RBW 23.2
        assert!((rbw_image_aware(32, 8, 256, T_CG) - 23.2).abs() < 0.05);
    }

    #[test]
    fn eq2_reproduces_table_iii_rows_3_and_4() {
        // Row 3: Kc=3 B=128 Ni=256 No=256 -> RBW 27.1
        assert!((rbw_batch_aware(128, 3, 256, T_CG) - 27.1).abs() < 0.05);
        // Row 4: No=384 -> RBW 25.7
        assert!((rbw_batch_aware(128, 3, 384, T_CG) - 25.7).abs() < 0.1);
    }

    #[test]
    fn eq5_reproduces_section_v_c() {
        let t_cpe = ChipSpec::sw26010().peak_gflops_per_cpe();
        let rbw = rbw_reg_gemm_simd(16, 4, t_cpe);
        assert!((rbw - 23.2).abs() < 0.05, "got {rbw}");
        assert!(rbw < ChipSpec::sw26010().ldm_reg_gbps);
    }

    #[test]
    fn eq4_is_cheaper_than_eq5() {
        let t = 11.6;
        assert!(rbw_reg_gemm(16, 4, t) < rbw_reg_gemm_simd(16, 4, t));
    }

    #[test]
    fn larger_blocking_lowers_rbw() {
        assert!(rbw_image_aware(64, 16, 128, T_CG) < rbw_image_aware(32, 16, 128, T_CG));
        assert!(rbw_image_aware(32, 32, 128, T_CG) < rbw_image_aware(32, 16, 128, T_CG));
        assert!(rbw_batch_aware(256, 3, 128, T_CG) < rbw_batch_aware(128, 3, 128, T_CG));
    }

    #[test]
    fn larger_no_lowers_rbw_in_both_plans() {
        // "For both versions, a large output channel No will reduce the RBW."
        assert!(rbw_image_aware(32, 16, 384, T_CG) < rbw_image_aware(32, 16, 64, T_CG));
        assert!(rbw_batch_aware(128, 3, 384, T_CG) < rbw_batch_aware(128, 3, 64, T_CG));
    }

    #[test]
    fn spatial_register_blocking_is_kernel_size_bound() {
        // Eq. 3's RBW depends on the filter tile; growing the image tile
        // alone cannot push it arbitrarily low (the paper's reason for
        // rejecting the direct plan).
        let t = 11.6;
        let small_filter = rbw_reg_spatial(8, 8, 3, 3, t);
        let big_filter = rbw_reg_spatial(8, 8, 5, 5, t);
        assert!(big_filter < small_filter);
        // For a 1x1 filter the spatial RBW is DS*T = 92.8 GB/s regardless
        // of tile size — above the 46.4 GB/s LDM-REG bandwidth, i.e. the
        // spatial plan *cannot* be made compute-bound, while the GEMM plan
        // (Eq. 5) sits at 23.2 GB/s for any filter size.
        let gemm = rbw_reg_gemm_simd(16, 4, t);
        assert!((rbw_reg_spatial(4, 4, 1, 1, t) - 92.8).abs() < 0.05);
        for tile in [2usize, 4, 8, 16] {
            assert!(rbw_reg_spatial(tile, tile, 1, 1, t) > 46.4);
            assert!(rbw_reg_spatial(tile, tile, 1, 1, t) > gemm);
        }
    }

    #[test]
    #[should_panic(expected = "register tile smaller")]
    fn eq3_rejects_undersized_tiles() {
        rbw_reg_spatial(2, 2, 3, 3, 11.6);
    }
}
