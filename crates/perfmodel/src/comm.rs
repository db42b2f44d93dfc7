//! Closed-form MEM-level communication lower bound for convolution.
//!
//! Following the communication-avoiding line of work (Demmel & Dinh,
//! "Communication-optimal convolutional neural nets", see PAPERS.md), any
//! schedule of a direct convolution on a processor with fast memory of
//! `M` words must move at least
//!
//! ```text
//! W ≥ max( compulsory reads , 2 · #MACs / sqrt(M) )   words
//! ```
//!
//! from slow memory. The first term is the *compulsory* traffic — every
//! input pixel and every filter weight has to cross the MEM→LDM boundary
//! at least once. The second is the Hong–Kung pebbling bound: with `M`
//! words of fast memory, at most `O(M^{3/2})` multiply-accumulates can be
//! served per `M` words moved, i.e. at least `2·#MACs/√M` operand words
//! must stream in overall.
//!
//! For the SW26010 the fast memory is the *aggregate* LDM of one core
//! group (64 CPEs × 64 KB): the register-communication scheme shares
//! operands across the mesh, so the whole CG's LDM acts as one cooperative
//! cache — that is exactly the mechanism that lets swDNN approach this
//! bound where the `gload` mapping cannot.
//!
//! [`mem_comm_lower_bound_bytes`] evaluates the bound; the executor
//! compares it against the measured `dma_get_bytes` counter and reports
//! the attained fraction of comm-optimal via [`comm_optimal_permille`].

use crate::chip::ChipSpec;

/// Multiply-accumulate count of a direct convolution:
/// `B·No·Ro·Co·Ni·Kr·Kc`.
#[allow(clippy::too_many_arguments)]
fn conv_macs(
    batch: usize,
    ni: usize,
    no: usize,
    ro: usize,
    co: usize,
    kr: usize,
    kc: usize,
) -> u64 {
    (batch as u64)
        * (no as u64)
        * (ro as u64)
        * (co as u64)
        * (ni as u64)
        * (kr as u64)
        * (kc as u64)
}

/// Lower bound, in bytes, on MEM→LDM read traffic for one core group
/// running the full direct convolution (f64 operands).
///
/// `max(compulsory, Hong–Kung)` where the compulsory term counts each
/// input pixel (`B·Ni·Ri·Ci`, with `Ri = Ro+Kr−1`, `Ci = Co+Kc−1`) and
/// filter weight (`Ni·No·Kr·Kc`) once, and the Hong–Kung term is
/// `2·#MACs/√M` with `M` the CG's aggregate LDM capacity in words.
#[allow(clippy::too_many_arguments)]
pub fn mem_comm_lower_bound_bytes(
    chip: &ChipSpec,
    batch: usize,
    ni: usize,
    no: usize,
    ro: usize,
    co: usize,
    kr: usize,
    kc: usize,
) -> u64 {
    let ri = (ro + kr - 1) as u64;
    let ci = (co + kc - 1) as u64;
    let compulsory_words = (batch as u64) * (ni as u64) * ri * ci
        + (ni as u64) * (no as u64) * (kr as u64) * (kc as u64);
    let macs = conv_macs(batch, ni, no, ro, co, kr, kc);
    let m_words = (chip.cpes_per_cg * chip.ldm_bytes / 8) as f64;
    let hong_kung_words = (2.0 * macs as f64 / m_words.sqrt()).ceil() as u64;
    8 * compulsory_words.max(hong_kung_words)
}

/// Attained fraction of comm-optimal, in permille.
///
/// `1000` means the measured MEM→LDM traffic (`dma_get_bytes`) matches the
/// lower bound — the schedule is communication-optimal; `500` means it
/// moved twice the essential bytes. Clamped to `[0, 1000]` so modeling
/// slack (e.g. a bound evaluated for a slightly different halo) can never
/// report an impossible >100%; degenerate zero-traffic measurements
/// report `0`.
pub fn comm_optimal_permille(lower_bound_bytes: u64, measured_bytes: u64) -> u64 {
    if measured_bytes == 0 {
        return 0;
    }
    let permille = (1000.0 * lower_bound_bytes as f64 / measured_bytes as f64).round() as u64;
    permille.min(1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compulsory_term_dominates_low_reuse_shapes() {
        // One output channel, 1x1 filter: one MAC per input pixel, so the
        // Hong–Kung term (2·MACs/√M, M = 512K words) is tiny and the bound
        // must be exactly the compulsory bytes.
        let chip = ChipSpec::sw26010();
        let (b, ni, no, ro, co, kr, kc) = (4, 8, 1, 16, 16, 1, 1);
        let compulsory = (b * ni * ro * co + ni * no) as u64 * 8;
        assert_eq!(
            mem_comm_lower_bound_bytes(&chip, b, ni, no, ro, co, kr, kc),
            compulsory
        );
    }

    #[test]
    fn hong_kung_term_dominates_high_reuse_shapes() {
        // A compute-dense shape: MACs grow with No while compulsory input
        // traffic does not, so for large No the √M term takes over.
        let chip = ChipSpec::sw26010();
        let (b, ni, no, ro, co, kr, kc) = (128, 256, 4096, 64, 64, 3, 3);
        let bound = mem_comm_lower_bound_bytes(&chip, b, ni, no, ro, co, kr, kc);
        let m_words = (chip.cpes_per_cg * chip.ldm_bytes / 8) as f64;
        let hk = (2.0 * conv_macs(b, ni, no, ro, co, kr, kc) as f64 / m_words.sqrt()).ceil() as u64;
        assert_eq!(bound, 8 * hk);
        let compulsory = ((b * ni * (ro + kr - 1) * (co + kc - 1)) + ni * no * kr * kc) as u64 * 8;
        assert!(bound > compulsory);
    }

    #[test]
    fn smaller_fast_memory_raises_the_bound() {
        let big = ChipSpec::sw26010();
        let small = ChipSpec {
            ldm_bytes: big.ldm_bytes / 4,
            ..big
        };
        let (b, ni, no, ro, co, kr, kc) = (128, 256, 4096, 64, 64, 3, 3);
        assert!(
            mem_comm_lower_bound_bytes(&small, b, ni, no, ro, co, kr, kc)
                > mem_comm_lower_bound_bytes(&big, b, ni, no, ro, co, kr, kc)
        );
    }

    #[test]
    fn permille_gauge_clamps_and_handles_degenerate_traffic() {
        assert_eq!(comm_optimal_permille(500, 1000), 500);
        assert_eq!(comm_optimal_permille(1000, 1000), 1000);
        // Bound above measurement (modeling slack) clamps at optimal.
        assert_eq!(comm_optimal_permille(2000, 1000), 1000);
        assert_eq!(comm_optimal_permille(1000, 0), 0);
        assert_eq!(comm_optimal_permille(0, 1000), 0);
    }
}
