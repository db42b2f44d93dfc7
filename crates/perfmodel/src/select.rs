//! Plan selection — "we adopt different loop scheduling and blocking
//! strategies according to the performance model for different parameter
//! configurations" (§VII).
//!
//! The policy follows §IV-A: if the batch is large enough that Eq. 2's RBW
//! is already low, adopt the batch-size-aware plan; otherwise block the
//! output-column dimension and use the image-size-aware plan with the
//! `(b_b, b_co)` pair that maximizes modeled performance under the LDM
//! capacity constraint.
//!
//! Candidates are ranked by `estimate.gflops_per_cg × tile_occupancy`: the
//! Fig. 2 estimate prices bandwidth, `tile_occupancy` prices the §V-C
//! register tile. The kernel computes whole `rb_No × rb_B = 4 × 16` tiles,
//! so a candidate whose per-CPE GEMM block fills only part of its tiles
//! (Algorithm 2 at `B = 32`, `No = 16` hands each CPE a `2 × 4` block —
//! one tile, 12.5 % full) pays for the empty part. Fig. 2 ranks, occupancy
//! scales; [`ConvPerfModel::estimate`] is never edited for selection's
//! sake, because the reference plan's modeled timing and every model
//! column under `results/` read it.
//!
//! The LDM footprint formulas mirror how the `swdnn` plans actually buffer
//! data (each CPE owns `1/cpes_per_cg` of every tile, the chip's
//! [`ChipSpec::cpes_per_cg`]; input and filter buffers are double-buffered
//! to overlap DMA with compute), written here with `P = cpes_per_cg`:
//!
//! * image-size-aware, per CPE, in doubles:
//!   `2·(b_b·Ni·(b_co+Kc−1))/P + 2·(Ni·No)/P + (b_b·No·b_co)/P`
//! * batch-size-aware, per CPE:
//!   `2·(B·Ni)/P + 2·(Ni·No·Kc)/P + (B·No·Kc)/P` — the output tile held
//!   is the `b_co = Kc` window Algorithm 2 accumulates.
//!
//! The selector cannot see the plans, so these are its own estimates; a
//! plan's legality is the LDM its walk declares (`Nest::ldm_buffers` in
//! `swdnn`), rounded like the allocator rounds.
//! The batch-size-aware estimate is deliberately more conservative than the
//! batch-size-aware plan's buffers (double-buffered filters and a `Kc`-wide
//! output window, where the plan single-buffers the filter slice and
//! shrinks its window down to `b_co = 1`); the two can disagree, which is
//! why `Conv2d::schedule` re-checks the picked schedule against its plan's
//! `supports`.

use crate::chip::ChipSpec;
use crate::model::{ConvPerfModel, PerfEstimate};
use sw_tensor::ConvShape;

/// Which convolution plan to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PlanKind {
    /// Algorithm 1 — block on `B` and `Co`, layout `(4, C, R, N, B/4)`.
    ImageSizeAware,
    /// Algorithm 2 — stream pixels across the batch, layout `(4, B/4, C, R, N)`.
    BatchSizeAware,
    /// The pathological direct-`gload` mapping (for the Fig. 2 ablation).
    DirectGload,
    /// Per-tap register-communication GEMM over gathered output-pixel
    /// patches — the general-geometry mapping (stride/dilation/padding)
    /// the schedule search lowers for shapes the dense plans reject.
    PatchGemm,
}

/// LDM blocking factors (meaningful for the image-size-aware plan).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Blocking {
    /// Batch-dimension block `b_B`.
    pub b_b: usize,
    /// Output-column block `b_Co`.
    pub b_co: usize,
}

impl Default for Blocking {
    fn default() -> Self {
        Self { b_b: 32, b_co: 16 }
    }
}

/// The outcome of plan selection.
#[derive(Clone, Copy, Debug)]
pub struct PlanChoice {
    pub kind: PlanKind,
    pub blocking: Blocking,
    /// LDM doubles used per CPE (must be ≤ 8192).
    pub ldm_doubles: usize,
    /// The Fig. 2 estimate of the candidate — what the plan is modeled to
    /// attain, untouched by [`PlanChoice::tile_occupancy`].
    pub estimate: PerfEstimate,
    /// Register-tile occupancy (§V-C) of the candidate's per-CPE GEMM block.
    pub tile_occupancy: f64,
}

impl PlanChoice {
    /// What candidates are ranked by: modeled Gflops scaled by the share
    /// of the register tiles doing real work.
    fn score(&self) -> f64 {
        self.estimate.gflops_per_cg * self.tile_occupancy
    }
}

/// Per-CPE LDM footprint of the image-size-aware plan on `chip`, in doubles.
pub fn ldm_doubles_image_aware(shape: &ConvShape, blk: Blocking, chip: &ChipSpec) -> usize {
    let cpes = chip.cpes_per_cg;
    let input = 2 * blk.b_b * shape.ni * (blk.b_co + shape.kc - 1) / cpes;
    let filter = 2 * shape.ni * shape.no / cpes;
    let output = blk.b_b * shape.no * blk.b_co / cpes;
    input + filter + output
}

/// Per-CPE LDM footprint of the batch-size-aware plan on `chip`, in doubles.
fn ldm_doubles_batch_aware(shape: &ConvShape, chip: &ChipSpec) -> usize {
    let cpes = chip.cpes_per_cg;
    let input = 2 * shape.batch * shape.ni / cpes;
    let filter = 2 * shape.ni * shape.no * shape.kc / cpes;
    let output = shape.batch * shape.no * shape.kc / cpes;
    input + filter + output
}

/// The divisors of `co` up to `cap`, largest first: the one `b_Co` ladder
/// behind the selector's candidates, the plans' `auto` constructors and the
/// autotuner's enumeration (each with its own cap). Every divisor, not
/// only powers of two — real extents are odd (`Co = 66` for a 64×64
/// output padded by `K − 1`, 18 and 6 in small networks).
pub fn co_blocks(co: usize, cap: usize) -> impl DoubleEndedIterator<Item = usize> {
    (1..=co.min(cap))
        .rev()
        .filter(move |b_co| co.is_multiple_of(*b_co))
}

/// Candidate blockings searched for the image-size-aware plan.
///
/// `b_B` starts at 32: the mesh distribution assigns whole batch-quads to
/// each of the 8 pixel chunks, so the plan needs `b_B` to be a multiple of
/// `4 · 8`. `b_Co` runs up to 33 (half of `Co = 66`, a paper-scale output
/// padded by `K − 1`), smallest first so that among equal scores the
/// smaller LDM footprint wins.
fn blocking_candidates(shape: &ConvShape) -> Vec<Blocking> {
    let mut out = Vec::new();
    let mut b_b = 32;
    while b_b <= shape.batch {
        out.extend(
            co_blocks(shape.co, 33)
                .rev()
                .map(|b_co| Blocking { b_b, b_co }),
        );
        b_b *= 2;
    }
    out
}

/// Fraction of the register tiles a candidate's per-CPE GEMM block
/// touches that holds real work, in `(0, 1]`.
///
/// Each CPE updates an `m8 × n8` block per rotation — `m8 = No/mesh_dim`
/// output channels by `n8` pixels, `B/mesh_dim` for the batch-size-aware
/// plan and `b_B·b_Co/mesh_dim` for the image-size-aware one — in whole
/// `rb_no × rb_b` register tiles (§V-C; `ConvPerfModel`'s fields, the
/// tile `swdnn::kernel_cost` charges). Plans the selector does not rank
/// report 1.
fn tile_occupancy(
    model: &ConvPerfModel,
    kind: PlanKind,
    blocking: Blocking,
    shape: &ConvShape,
) -> f64 {
    let dim = model.chip.mesh_dim;
    let n8 = match kind {
        PlanKind::BatchSizeAware => shape.batch / dim,
        PlanKind::ImageSizeAware => blocking.b_b * blocking.b_co / dim,
        PlanKind::DirectGload | PlanKind::PatchGemm => return 1.0,
    };
    let m8 = shape.no / dim;
    let padded = m8.next_multiple_of(model.rb_no) * n8.next_multiple_of(model.rb_b);
    if padded == 0 {
        // Extents below one mesh chunk: no plan supports the shape.
        return 1.0;
    }
    (m8 * n8) as f64 / padded as f64
}

/// Choose a plan for `shape` on `chip` following the paper's policy.
///
/// Returns `None` only when no candidate fits in LDM (tiny LDM or enormous
/// channel counts — at that point the caller must also block `Ni`/`No`,
/// which the paper notes as the fallback).
pub fn select_plan(shape: &ConvShape, chip: &ChipSpec) -> Option<PlanChoice> {
    let model = ConvPerfModel {
        chip: *chip,
        ..ConvPerfModel::default()
    };
    let budget = chip.ldm_doubles();
    let choice = |kind, blocking, ldm_doubles| {
        // The batch-size-aware estimate ignores its blocking argument.
        let estimate = model.estimate(kind, blocking, shape.batch, shape.ni, shape.no, shape.kc);
        PlanChoice {
            kind,
            blocking,
            ldm_doubles,
            estimate,
            tile_occupancy: tile_occupancy(&model, kind, blocking, shape),
        }
    };

    // Batch-size-aware first; an image-size-aware blocking wins only with a
    // strictly better score.
    let batch_ldm = ldm_doubles_batch_aware(shape, chip);
    let batch = (batch_ldm <= budget).then(|| {
        let blocking = Blocking {
            b_b: shape.batch,
            b_co: shape.kc,
        };
        choice(PlanKind::BatchSizeAware, blocking, batch_ldm)
    });
    let image = blocking_candidates(shape).into_iter().filter_map(|blk| {
        let ldm = ldm_doubles_image_aware(shape, blk, chip);
        (ldm <= budget).then(|| choice(PlanKind::ImageSizeAware, blk, ldm))
    });
    batch.into_iter().chain(image).reduce(|best, next| {
        if next.score() > best.score() {
            next
        } else {
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_shape(ni: usize, no: usize) -> ConvShape {
        ConvShape::new(128, ni, no, 64, 64, 3, 3)
    }

    #[test]
    fn selection_always_fits_ldm() {
        let chip = ChipSpec::sw26010();
        for ni in [64, 128, 256, 384] {
            for no in [64, 128, 256, 384] {
                let choice = select_plan(&paper_shape(ni, no), &chip)
                    .unwrap_or_else(|| panic!("no plan for ni={ni} no={no}"));
                assert!(choice.ldm_doubles <= chip.ldm_doubles());
            }
        }
    }

    #[test]
    fn large_batch_prefers_batch_plan_when_it_fits() {
        // With B=128 Eq.2's RBW is low; for moderate channel counts the
        // batch plan fits LDM and should win or be competitive.
        let chip = ChipSpec::sw26010();
        let choice = select_plan(&paper_shape(128, 128), &chip).unwrap();
        let batch_est = ConvPerfModel::default().estimate(
            PlanKind::BatchSizeAware,
            Blocking::default(),
            128,
            128,
            128,
            3,
        );
        assert!(choice.estimate.gflops_per_cg >= batch_est.gflops_per_cg * 0.999);
    }

    #[test]
    fn huge_channels_fall_back_to_image_plan() {
        // Ni=No=384: the batch plan's double-buffered filter tile
        // (2*384*384*3/64 = 13824 doubles) exceeds LDM, so the image plan
        // must be chosen.
        let chip = ChipSpec::sw26010();
        assert!(ldm_doubles_batch_aware(&paper_shape(384, 384), &chip) > chip.ldm_doubles());
        let choice = select_plan(&paper_shape(384, 384), &chip).unwrap();
        assert_eq!(choice.kind, PlanKind::ImageSizeAware);
    }

    #[test]
    fn predicted_performance_is_high_for_most_paper_configs() {
        // §VII: "we see a convolution performance above 1.6 Tflops" for the
        // chip = 400 Gflops per CG ≈ 54% of peak. The analytic model is
        // conservative at the channel extremes (tiny No, or Ni=No=384 where
        // LDM forces small blocks), so require: most configs near half
        // peak, and every config well above the direct-mapping collapse.
        let chip = ChipSpec::sw26010();
        let mut above = 0;
        let mut total = 0;
        for ni in [64, 128, 192, 256, 320, 384] {
            for no in [64, 128, 192, 256, 320, 384] {
                let choice = select_plan(&paper_shape(ni, no), &chip).unwrap();
                total += 1;
                if choice.estimate.gflops_per_cg >= 0.45 * 742.4 {
                    above += 1;
                }
                assert!(
                    choice.estimate.gflops_per_cg > 0.15 * 742.4,
                    "ni={ni} no={no} collapsed to {:.0}",
                    choice.estimate.gflops_per_cg
                );
            }
        }
        assert!(
            2 * above >= total,
            "only {above}/{total} configs above 45% of peak"
        );
    }

    #[test]
    fn occupancy_is_full_at_paper_scale_and_partial_at_small_batch() {
        let model = ConvPerfModel::default();
        let occ = |kind, b_b, b_co, shape: ConvShape| {
            tile_occupancy(&model, kind, Blocking { b_b, b_co }, &shape)
        };
        // Every Table III row fills its register tiles.
        for (kind, b_b, b_co, ni, no) in [
            (PlanKind::ImageSizeAware, 32, 16, 128, 128),
            (PlanKind::ImageSizeAware, 32, 8, 128, 256),
            (PlanKind::BatchSizeAware, 128, 3, 256, 256),
            (PlanKind::BatchSizeAware, 128, 3, 128, 384),
        ] {
            assert_eq!(occ(kind, b_b, b_co, paper_shape(ni, no)), 1.0);
        }
        // B 32, No 16: Algorithm 2 hands each CPE a 2 × 4 block of one
        // 4 × 16 tile; Algorithm 1 at (32, 16) a 2 × 64 block of four.
        let small = ConvShape::new(32, 8, 16, 16, 16, 3, 3);
        assert_eq!(occ(PlanKind::BatchSizeAware, 32, 3, small), 0.125);
        assert_eq!(occ(PlanKind::ImageSizeAware, 32, 16, small), 0.5);
        // Plans the selector does not rank are not scaled.
        assert_eq!(occ(PlanKind::PatchGemm, 8, 1, small), 1.0);
    }

    #[test]
    fn occupancy_follows_the_chips_mesh_dim() {
        // On a 4×4 mesh the same B 32, No 16 shape hands each CPE a 4 × 8
        // block: the rows fill, half the pixels do.
        let mut model = ConvPerfModel::default();
        model.chip.mesh_dim = 4;
        let small = ConvShape::new(32, 8, 16, 16, 16, 3, 3);
        let blk = Blocking { b_b: 32, b_co: 3 };
        assert_eq!(
            tile_occupancy(&model, PlanKind::BatchSizeAware, blk, &small),
            0.5
        );
    }

    #[test]
    fn small_batch_leaves_the_batch_aware_plan() {
        // conv 8→16 @ 16×16, B 32: Fig. 2 alone prefers Algorithm 2 (its
        // estimate is the higher one); at 12.5 % occupancy it loses.
        let chip = ChipSpec::sw26010();
        let shape = ConvShape::new(32, 8, 16, 16, 16, 3, 3);
        let choice = select_plan(&shape, &chip).unwrap();
        assert_eq!(choice.kind, PlanKind::ImageSizeAware);
        assert_eq!(choice.blocking, Blocking { b_b: 32, b_co: 16 });
        assert_eq!(choice.tile_occupancy, 0.5);
        let batch = ConvPerfModel::default().estimate(
            PlanKind::BatchSizeAware,
            Blocking::default(),
            32,
            8,
            16,
            3,
        );
        assert!(batch.gflops_per_cg > choice.estimate.gflops_per_cg);
        assert!(choice.score() > batch.gflops_per_cg * 0.125);
    }

    #[test]
    fn co_blocks_are_the_divisors_largest_first() {
        let blocks = |co, cap| co_blocks(co, cap).collect::<Vec<_>>();
        assert_eq!(blocks(64, 16), [16, 8, 4, 2, 1]);
        assert_eq!(blocks(64, 32), [32, 16, 8, 4, 2, 1]);
        assert_eq!(blocks(66, 16), [11, 6, 3, 2, 1]);
        assert_eq!(blocks(66, 33), [33, 22, 11, 6, 3, 2, 1]);
        assert_eq!(blocks(18, 16), [9, 6, 3, 2, 1]);
        assert_eq!(blocks(6, 16), [6, 3, 2, 1]);
    }

    #[test]
    fn tiny_ldm_chip_yields_none() {
        let mut chip = ChipSpec::sw26010();
        chip.ldm_bytes = 512; // 64 doubles — nothing fits
        assert!(select_plan(&paper_shape(128, 128), &chip).is_none());
    }

    #[test]
    fn footprint_formulas_are_monotone() {
        let (s, chip) = (paper_shape(128, 128), ChipSpec::sw26010());
        let small = ldm_doubles_image_aware(&s, Blocking { b_b: 8, b_co: 4 }, &chip);
        let large = ldm_doubles_image_aware(&s, Blocking { b_b: 64, b_co: 32 }, &chip);
        assert!(small < large);
    }

    #[test]
    fn footprints_on_the_4x4_chip_are_four_times_the_8x8_ones() {
        // Every division is exact for this shape: a quarter of the CPEs
        // each own four times the share of every tile.
        let full = ChipSpec::sw26010();
        let quarter = ChipSpec {
            mesh_dim: 4,
            cpes_per_cg: 16,
            ..full
        };
        let (s, blk) = (paper_shape(128, 128), Blocking { b_b: 32, b_co: 4 });
        assert_eq!(ldm_doubles_image_aware(&s, blk, &full), 1536);
        assert_eq!(ldm_doubles_image_aware(&s, blk, &quarter), 4 * 1536);
        assert_eq!(ldm_doubles_batch_aware(&s, &full), 2816);
        assert_eq!(ldm_doubles_batch_aware(&s, &quarter), 4 * 2816);
    }
}
