//! Selector regret: how far `Conv2d::plan()`'s pick is from the best plan
//! the tree can run, in simulated cycles.
//!
//! Every timing here is `time_full_shape` — a cost-only walk, no
//! arithmetic — so timing every `(kind, b_B, b_Co)` of the dense schedule
//! space that `supports` a shape, unpruned, takes seconds. The space is
//! `tune::enumerate_schedules`, the one `autotune` prunes: every divisor of
//! `Co` up to 16 for Algorithm 2 and up to 32 for Algorithm 1, every
//! power-of-two `b_B`.
//!
//! * Paper scale (the 21-point Fig. 7 diagonal plus three off-diagonal
//!   shapes, B 128): the pick stays within 1.02× of the searched minimum
//!   *and* `Conv2d::schedule()` equals the pinned `Schedule` list — the
//!   "paper-scale picks do not move" gate. `(128, 256)` and `(128, 384)` are Table III's
//!   off-diagonal rows, `(256, 128)` is `training_pass.csv`'s.
//! * The small-batch grid (B 32 and 64, 8–64 channels, 6–18 pixel images),
//!   where the register tile decides. At B 32 the occupancy term closes the
//!   gap: all but the four `No 8, 6×6` shapes land within 1.25× (within
//!   1.02×, in fact). At B 64 it closes it only where the selector leaves
//!   Algorithm 2; on 40 of the 64 shapes Fig. 2's squared MEM derate still
//!   ranks Eq. 2 several-fold above Eq. 1 while the simulator, which hides
//!   that DMA, has Algorithm 1 1.4–2.3× ahead. Those bounds are ratchets
//!   (parent: up to 5.5× at B 32, 3.2× at B 64), not targets.

use sw_bench::ablations::small_batch_shapes;
use sw_perfmodel::select::Blocking;
use sw_perfmodel::{ChipSpec, PlanKind};
use sw_tensor::ConvShape;
use swdnn::plans::ConvPlan;
use swdnn::tune::{autotune, enumerate_schedules};
use swdnn::{lower_schedule, zoo, Conv2d, LowerCtx, ResilientExecutor, Schedule};

fn cycles(plan: &dyn ConvPlan, shape: &ConvShape) -> u64 {
    plan.time_full_shape(shape)
        .unwrap_or_else(|e| panic!("{} must time {shape}: {e}", plan.name()))
        .cycles
}

/// Simulated cycles of the fastest schedule of the dense space that
/// supports `shape` on the stock chip.
fn searched_minimum(shape: &ConvShape) -> u64 {
    let ctx = LowerCtx::default();
    enumerate_schedules(shape)
        .iter()
        .filter_map(|s| lower_schedule(s, shape, &ctx).ok())
        .map(|plan| cycles(plan.as_ref(), shape))
        .min()
        .unwrap_or_else(|| panic!("no mesh plan supports {shape}"))
}

/// `(pick cycles) / (searched minimum)` for `Conv2d::plan()` on `shape`.
fn regret(shape: &ConvShape) -> f64 {
    let plan = Conv2d::new(*shape).unwrap().plan();
    assert_ne!(plan.name(), "reference", "{shape} must get a mesh plan");
    cycles(plan.as_ref(), shape) as f64 / searched_minimum(shape) as f64
}

/// B 32 and 64 × Ni, No ∈ {8, 16, 32, 64} × 6–18 pixel square outputs, 3×3:
/// 128 shapes, batch-major.
fn small_batch_grid() -> impl Iterator<Item = ConvShape> {
    [32usize, 64].into_iter().flat_map(|batch| {
        [8usize, 16, 32, 64].into_iter().flat_map(move |ni| {
            [8usize, 16, 32, 64].into_iter().flat_map(move |no| {
                [6usize, 8, 16, 18]
                    .into_iter()
                    .map(move |out| ConvShape::new(batch, ni, no, out, out, 3, 3))
            })
        })
    })
}

#[test]
fn small_batch_picks_stay_near_the_searched_best() {
    // (batch, shapes of 64 that must be within 1.25×, ratchet on the rest).
    for (batch, priced, ratchet) in [(32usize, 60usize, 3.0f64), (64, 24, 2.3)] {
        let mut within = 0;
        for shape in small_batch_grid().filter(|s| s.batch == batch) {
            let r = regret(&shape);
            assert!(r <= ratchet, "{shape}: pick at {r:.3}x the searched best");
            within += usize::from(r <= 1.25);
        }
        assert!(
            within >= priced,
            "B {batch}: only {within} of 64 picks within 1.25x of the searched best"
        );
    }
}

/// The paper-scale shapes with the picks of the commit before the
/// occupancy term: `(Ni, No, schedule)`.
#[rustfmt::skip]
const PAPER_SCALE_PICKS: [(usize, usize, Schedule); 24] = {
    const fn batch(b_co: usize) -> Schedule { Schedule::batch_aware(b_co) }
    const fn image(b_co: usize) -> Schedule { Schedule::image_aware(32, b_co) }
    [
        (64, 64, batch(16)), (80, 80, batch(16)), (96, 96, batch(16)),
        (112, 112, image(32)), (128, 128, image(32)), (144, 144, image(32)),
        (160, 160, image(16)), (176, 176, image(16)), (192, 192, image(16)),
        (208, 208, image(16)), (224, 224, image(16)), (240, 240, image(16)),
        (256, 256, image(8)), (272, 272, image(8)), (288, 288, image(8)),
        (304, 304, image(8)), (320, 320, image(8)), (336, 336, image(4)),
        (352, 352, image(4)), (368, 368, image(4)), (384, 384, image(4)),
        (128, 256, image(16)), (128, 384, image(16)), (256, 128, batch(16)),
    ]
};

#[test]
fn paper_scale_picks_are_pinned_and_near_the_searched_best() {
    for (ni, no, pick) in PAPER_SCALE_PICKS {
        let shape = ConvShape::new(128, ni, no, 64, 64, 3, 3);
        assert_eq!(
            Conv2d::new(shape).unwrap().schedule(),
            pick,
            "{shape}: the paper-scale pick moved"
        );
        // (160, 160) is the maximum, at 1.013.
        let r = regret(&shape);
        assert!(r <= 1.02, "{shape}: pick at {r:.4}x the searched best");
    }
}

#[test]
fn the_picked_schedule_lowers_exactly_when_the_plan_runs() {
    // `Conv2d::plan()` is its schedule built; lowering that schedule is the
    // checked door to the same plan, so the two agree on every grid shape.
    let ctx = LowerCtx::default();
    for shape in small_batch_grid() {
        let conv = Conv2d::new(shape).unwrap();
        let plan = conv.plan();
        let lowered = lower_schedule(&conv.schedule(), &shape, &ctx);
        assert_eq!(lowered.is_ok(), plan.supports(&shape).is_ok(), "{shape}");
        if let Ok(lowered) = lowered {
            assert_eq!(
                (lowered.name(), lowered.kind(), lowered.blocking(&shape)),
                (plan.name(), plan.kind(), plan.blocking(&shape)),
                "{shape}"
            );
        }
    }
}

#[test]
fn autotune_best_is_never_slower_than_the_selectors_pick() {
    // Regression: the search only tried power-of-two `b_Co`, so on
    // B 32, 16→32, 6×6 its "best" (b_Co 2) lost to `Conv2d::plan()` (b_Co 6).
    for shape in small_batch_shapes() {
        let pick = Conv2d::new(shape).unwrap().plan();
        let best = autotune(&shape).expect("candidates exist").best().cycles;
        assert!(
            best <= cycles(pick.as_ref(), &shape),
            "{shape}: autotune best {best} vs pick {}",
            cycles(pick.as_ref(), &shape)
        );
    }
}

#[test]
fn degraded_mesh_picks_time_without_overflowing_ldm() {
    // On the 4×4 chip each CPE holds four times the share of every tile. A
    // pick that `supports` a shape must then also walk it: the picked plan
    // times every grid shape, and B 64/128 × 64–384 channels, without an
    // LDM overflow.
    let ctx = LowerCtx::on_chip(ResilientExecutor::degraded_chip(ChipSpec::sw26010()));
    let channels = [64usize, 128, 256, 384];
    let large = [64usize, 128].into_iter().flat_map(|batch| {
        channels.into_iter().flat_map(move |ni| {
            channels
                .into_iter()
                .map(move |no| ConvShape::new(batch, ni, no, 8, 16, 3, 3))
        })
    });
    for shape in small_batch_grid().chain(large) {
        let plan = Conv2d::new(shape).unwrap().on(ctx).plan();
        if plan.name() != "reference" {
            if let Err(e) = plan.time_full_shape(&shape) {
                panic!("{shape}: the 4×4 pick {} cannot time: {e}", plan.name());
            }
        }
    }
}

#[test]
fn degraded_mesh_picks_for_the_serving_mix_are_pinned() {
    // Occupancy is computed against `chip.mesh_dim`, and the serving shapes
    // (B 16 and 8) have no image-size-aware candidate (`b_B ≥ 32`): the 4×4
    // mesh keeps the picks of the commit before the occupancy term, for
    // every shape and each of its row slices.
    let chip = ResilientExecutor::degraded_chip(ChipSpec::sw26010());
    let ctx = LowerCtx::on_chip(chip);
    for (name, shape) in zoo::serving_mix() {
        for split in [1usize, 2, 4] {
            let slice = ConvShape {
                ro: shape.ro / split,
                ..shape
            };
            let plan = Conv2d::new(slice).unwrap().on(ctx).plan();
            let pinned = Blocking {
                b_b: shape.batch,
                b_co: 8,
            };
            assert_eq!(
                (plan.kind(), plan.blocking(&slice)),
                (PlanKind::BatchSizeAware, pinned),
                "{name}, 1/{split} of the rows"
            );
        }
    }
}
