//! Property tests for the performance model: monotonicities, bounds and
//! internal consistency of the RBW equations and the Fig. 2 estimator.

use proptest::prelude::*;
use sw_perfmodel::dma::{DmaDirection, DmaTable};
use sw_perfmodel::select::{ldm_doubles_image_aware, Blocking};
use sw_perfmodel::{rbw, select_plan, ChipSpec, ConvPerfModel, PlanKind};
use sw_tensor::ConvShape;

fn arb_channels() -> impl Strategy<Value = usize> {
    (1usize..=48).prop_map(|v| v * 8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn estimates_never_exceed_peak(
        ni in arb_channels(), no in arb_channels(),
        b_b in prop::sample::select(vec![32usize, 64, 128]),
        b_co in prop::sample::select(vec![4usize, 8, 16, 32]),
        kc in 1usize..8,
    ) {
        let m = ConvPerfModel::default();
        for kind in [PlanKind::ImageSizeAware, PlanKind::BatchSizeAware, PlanKind::DirectGload] {
            let est = m.estimate(kind, Blocking { b_b, b_co }, 128, ni, no, kc);
            prop_assert!(est.gflops_per_cg > 0.0);
            prop_assert!(est.gflops_per_cg <= m.chip.peak_gflops_per_cg() + 1e-9);
            prop_assert!(est.execution_efficiency > 0.0 && est.execution_efficiency < 1.0);
        }
    }

    #[test]
    fn rbw_eq1_monotonic_in_all_arguments(
        b_b in prop::sample::select(vec![32usize, 64, 128]),
        b_co in prop::sample::select(vec![4usize, 8, 16]),
        no in arb_channels(),
    ) {
        let t = 742.4;
        let base = rbw::rbw_image_aware(b_b, b_co, no, t);
        prop_assert!(rbw::rbw_image_aware(b_b * 2, b_co, no, t) < base);
        prop_assert!(rbw::rbw_image_aware(b_b, b_co * 2, no, t) < base);
        prop_assert!(rbw::rbw_image_aware(b_b, b_co, no + 8, t) < base);
        // And scales linearly with peak throughput.
        prop_assert!((rbw::rbw_image_aware(b_b, b_co, no, 2.0 * t) - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    fn rbw_eq2_bounded_below_by_batch_term(batch in 1usize..512, kc in 1usize..22, no in arb_channels()) {
        let t = 742.4;
        let v = rbw::rbw_batch_aware(batch, kc, no, t);
        // RBW >= DS*T/(2*B): the irreducible per-batch-element traffic.
        let floor = 8.0 / (2.0 * batch as f64) * t;
        prop_assert!(v >= floor - 1e-9);
    }

    #[test]
    fn selection_respects_ldm_budget_when_some(
        ni in arb_channels(), no in arb_channels(),
        mesh_dim in prop::sample::select(vec![8usize, 4]),
    ) {
        // The stock chip, or the degraded 4×4 one.
        let chip = ChipSpec { mesh_dim, cpes_per_cg: mesh_dim * mesh_dim, ..ChipSpec::sw26010() };
        let shape = ConvShape::new(128, ni, no, 64, 64, 3, 3);
        if let Some(c) = select_plan(&shape, &chip) {
            prop_assert!(c.ldm_doubles <= chip.ldm_doubles());
            prop_assert!(c.estimate.gflops_per_cg > 0.0);
            if c.kind == PlanKind::ImageSizeAware {
                prop_assert_eq!(ldm_doubles_image_aware(&shape, c.blocking, &chip), c.ldm_doubles);
            }
        }
    }

    #[test]
    fn dma_table_bandwidth_within_published_envelope(bytes in 1usize..16384) {
        let t = DmaTable;
        for dir in [DmaDirection::Get, DmaDirection::Put] {
            let bw = t.bandwidth_gbps(dir, bytes);
            prop_assert!(bw > 0.0);
            prop_assert!(bw <= 36.01 + 1e-9, "{dir:?} {bytes}B -> {bw}");
        }
    }

    #[test]
    fn direct_plan_estimate_is_always_worst(
        // Paper-regime channel counts: Eq. 1's modeled throughput collapses
        // below even the direct mapping for tiny No (1/No dominates), which
        // is exactly why the evaluation starts at 64 channels.
        ni in (4usize..=48).prop_map(|v| v * 8),
        no in (4usize..=48).prop_map(|v| v * 8),
        kc in 1usize..8,
    ) {
        let m = ConvPerfModel::default();
        let blk = Blocking::default();
        let direct = m.estimate(PlanKind::DirectGload, blk, 128, ni, no, kc);
        for kind in [PlanKind::ImageSizeAware, PlanKind::BatchSizeAware] {
            let est = m.estimate(kind, blk, 128, ni, no, kc);
            prop_assert!(direct.gflops_per_cg < est.gflops_per_cg);
        }
    }
}
