//! The Fig. 8 test scripts: parameter-configuration generators for the
//! performance evaluations.
//!
//! The paper evaluates with `B = 128`, `64×64` output images, `3×3`
//! filters and `(Ni, No)` ranging from `(64, 64)` to `(384, 384)`:
//!
//! * the **left** script generates configurations 1–21 of Fig. 7 — the
//!   diagonal sweep `Ni = No ∈ {64, 80, …, 384}` (step 16 gives exactly
//!   21 points);
//! * the **center** script generates configurations 22–101 — an 80-point
//!   grid over `(Ni, No)` (the scan of the paper is not pixel-legible, so
//!   we use `Ni ∈ {64, 96, …, 352}` × `No ∈ {64, 96, …, 288}`, documented
//!   in DESIGN.md; any 80-point grid over the same ranges exercises the
//!   identical code paths);
//! * the **right** script generates the 30 configurations of Fig. 9 —
//!   filter sizes `3×3 … 21×21` (odd) × three channel settings.

use sw_perfmodel::PlanKind;
use sw_tensor::ConvShape;

/// Canonical evaluation constants (§VII).
pub const BATCH: usize = 128;
const OUT_IMAGE: usize = 64;

/// The canonical §VII shape at the given channel counts: `B = 128`,
/// `64×64` output, `3×3` filter.
pub fn paper_shape(ni: usize, no: usize) -> ConvShape {
    ConvShape::new(BATCH, ni, no, OUT_IMAGE, OUT_IMAGE, 3, 3)
}

/// Left script of Fig. 8: configurations 1–21 (diagonal channel sweep).
fn fig8_left() -> Vec<ConvShape> {
    (0..21)
        .map(|i| paper_shape(64 + 16 * i, 64 + 16 * i))
        .collect()
}

/// Center script of Fig. 8: configurations 22–101 (channel grid).
fn fig8_center() -> Vec<ConvShape> {
    let mut v = Vec::with_capacity(80);
    for ni in (64..=352).step_by(32) {
        for no in (64..=288).step_by(32) {
            v.push(paper_shape(ni, no));
        }
    }
    v
}

/// All 101 configurations of Fig. 7, in figure order.
pub fn fig7_configs() -> Vec<ConvShape> {
    let mut v = fig8_left();
    v.extend(fig8_center());
    v
}

/// Right script of Fig. 8: the 30 configurations of Fig. 9
/// (filter sizes 3–21 × three channel settings).
pub fn fig9_configs() -> Vec<ConvShape> {
    let mut v = Vec::with_capacity(30);
    for &(ni, no) in &[(64, 64), (128, 128), (256, 256)] {
        for k in (3..=21).step_by(2) {
            v.push(ConvShape::new(BATCH, ni, no, OUT_IMAGE, OUT_IMAGE, k, k));
        }
    }
    v
}

/// The Table III rows, each pinned to its published plan: the shapes the
/// `perf_counters` artifact and the grain count gate (`tests/grain.rs`)
/// measure.
pub fn perf_snapshot_configs() -> Vec<(ConvShape, PlanKind)> {
    vec![
        (paper_shape(128, 128), PlanKind::ImageSizeAware),
        (paper_shape(128, 256), PlanKind::ImageSizeAware),
        (paper_shape(256, 256), PlanKind::BatchSizeAware),
        (paper_shape(128, 384), PlanKind::BatchSizeAware),
    ]
}

/// The four Table III configurations `(plan, Kc, bB, bCo, Ni, No)`.
/// `plan` is "img" or "batch"; blockings apply to the image plan only.
pub fn table3_configs() -> Vec<(&'static str, usize, usize, usize, usize)> {
    vec![
        // (plan, bB, bCo, Ni, No) with Kc = 3
        ("img", 32, 16, 128, 128),
        ("img", 32, 8, 128, 256),
        ("batch", 0, 0, 256, 256),
        ("batch", 0, 0, 128, 384),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_script_has_21_diagonal_configs() {
        let v = fig8_left();
        assert_eq!(v.len(), 21);
        assert_eq!(v[0].ni, 64);
        assert_eq!(v[20].ni, 384);
        assert!(v
            .iter()
            .all(|s| s.ni == s.no && s.batch == 128 && s.kr == 3));
    }

    #[test]
    fn center_script_has_80_grid_configs() {
        let v = fig8_center();
        assert_eq!(v.len(), 80);
        assert!(v.iter().all(|s| s.ro == 64 && s.co == 64));
    }

    #[test]
    fn fig7_has_101_configs_total() {
        assert_eq!(fig7_configs().len(), 101);
    }

    #[test]
    fn fig9_covers_filter_sizes_3_to_21() {
        let v = fig9_configs();
        assert_eq!(v.len(), 30);
        assert_eq!(v.iter().map(|s| s.kr).min(), Some(3));
        assert_eq!(v.iter().map(|s| s.kr).max(), Some(21));
        assert!(v.iter().all(|s| s.kr == s.kc));
    }

    #[test]
    fn perf_snapshot_configs_are_valid_and_have_unique_keys() {
        let v = perf_snapshot_configs();
        assert_eq!(v.len(), 4);
        let mut keys: Vec<String> = v
            .iter()
            .map(|(s, k)| {
                assert!(s.is_valid());
                format!("{s} / {k:?}")
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4, "snapshot keys must be unique");
    }

    #[test]
    fn all_configs_are_valid_and_channel_aligned() {
        for s in fig7_configs().iter().chain(fig9_configs().iter()) {
            assert!(s.is_valid());
            assert_eq!(s.ni % 8, 0, "{s}");
            assert_eq!(s.no % 8, 0, "{s}");
        }
    }
}
