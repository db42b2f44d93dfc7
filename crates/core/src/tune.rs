//! Model-guided autotuning over the schedule space.
//!
//! The paper's §VII claims the performance model "provided useful guidance
//! in our optimization process". This module takes that literally: the
//! search enumerates [`Schedule`] candidates, prices every legal one with
//! the three-level model (the Fig. 2 REG/MEM bandwidth derates), and
//! *simulates only the predicted frontier* — the model prunes the space,
//! the simulator ranks the survivors. Each simulated candidate costs two
//! small runs (the sampled-timing machinery); each pruned candidate costs
//! one analytic evaluation. The `model_vs_autotune` artifact of `repro`
//! reports the model's regret against this empirical oracle, and its
//! `autotune` artifact tabulates the searched winner next to the hand
//! presets on every Table III shape.
//!
//! Shapes the dense schedule space cannot express at all (stride,
//! dilation, padding) go through [`autotune_general`]: a search over the
//! patch-GEMM pixel-block axis, compared against an honest *host* MPE
//! baseline (one CPE-speed core running the reference loops — not the
//! mesh-level modeled timing the dense reference plan reports).
//!
//! Both searches time their simulated candidates concurrently on the run
//! context's lanes ([`LowerCtx::rt`]), one cost-only walk per lane. Here a
//! candidate, not a CPE, is the grain: a cost-only mesh runs each of its
//! supersteps inline (it has no resident data to fan out), so a walk never
//! opens a nested parallel region, and the lanes claim whole walks, the
//! longest first. Each lane lowers its own candidate's [`Schedule`] (a
//! lowered plan stays on its thread); timings are gathered by candidate
//! index, so the reports — and the first error, if any — are those of
//! timing the candidates one by one in rank order, at every lane count.

use crate::conv::Conv2d;
use crate::error::SwdnnError;
use crate::plans::{lower_schedule, LowerCtx, PatchGemmPlan, Schedule};
use sw_perfmodel::select::Blocking;
use sw_perfmodel::{co_blocks, ChipSpec, ConvPerfModel, PlanKind};
use sw_runtime::ExecutionContext;
use sw_tensor::{general_flops, ConvGeometry, ConvShape, Shape4};

/// One searched candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub description: String,
    /// The schedule-space point this candidate lowers.
    pub schedule: Schedule,
    /// The LDM blocking the candidate executed with (for batch-size-aware
    /// plans `b_b` is the whole batch, matching
    /// [`crate::plans::ConvPlan::blocking`]).
    pub blocking: Blocking,
    /// The model's predicted Gflops per CG (what the pruning ranked on).
    pub predicted_gflops: f64,
    /// Simulated cycles for the full shape (sampled).
    pub cycles: u64,
    /// Attained Gflops on one CG.
    pub gflops: f64,
}

/// The autotuning outcome.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// All *simulated* candidates, fastest first.
    pub candidates: Vec<Candidate>,
    /// What [`Conv2d::plan`] would have picked, as an index into
    /// `candidates` (None if that schedule was not simulated or is outside
    /// the enumerated space).
    pub model_choice: Option<usize>,
    /// Legal schedules enumerated (simulated + pruned).
    pub enumerated: usize,
    /// Legal schedules the model priced but the search did not simulate.
    pub pruned: usize,
}

impl TuneReport {
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }

    /// Fraction of the empirically-best throughput the model's choice
    /// attains (1.0 = the model found the optimum). `None` when the model
    /// choice was infeasible or the best candidate attained zero
    /// throughput (degenerate shapes with no flops).
    pub fn model_fraction_of_best(&self) -> Option<f64> {
        let i = self.model_choice?;
        let best = self.candidates[0].gflops;
        if best <= 0.0 {
            return None;
        }
        Some(self.candidates[i].gflops / best)
    }
}

/// The dense schedule space: every `(b_B, b_Co)` the two mesh loop orders
/// can express for this shape. Legality is *not* decided here — the
/// lowering's `supports` check is the arbiter (enumerating from `b_b = 8`
/// matters on the degraded 4-wide mesh, where the row granule is 16).
/// `b_Co` runs over the divisors of `Co` up to 16 for Algorithm 2 and up to
/// 32 for Algorithm 1.
pub fn enumerate_schedules(shape: &ConvShape) -> Vec<Schedule> {
    let mut out: Vec<Schedule> = co_blocks(shape.co, 16).map(Schedule::batch_aware).collect();
    let mut b_b = 8usize;
    while b_b <= shape.batch {
        if shape.batch.is_multiple_of(b_b) {
            out.extend(co_blocks(shape.co, 32).map(|b_co| Schedule::image_aware(b_b, b_co)));
        }
        b_b *= 2;
    }
    out
}

/// Search the schedule space for `shape` on the stock SW26010.
pub fn autotune(shape: &ConvShape) -> Result<TuneReport, SwdnnError> {
    autotune_with(&ChipSpec::sw26010(), shape, &[])
}

/// [`autotune`] on an explicit chip (e.g. the degraded 4×4 mesh
/// [`crate::resilient::ResilientExecutor::degraded_chip`] builds), with
/// warm-start schedules: `extra` points are searched
/// ahead of the enumerated space and always simulated, so a known-good
/// hand preset is guaranteed to bound the result from above (the searched
/// winner can never be slower than a legal warm start).
pub fn autotune_with(
    chip: &ChipSpec,
    shape: &ConvShape,
    extra: &[Schedule],
) -> Result<TuneReport, SwdnnError> {
    let ctx = LowerCtx::on_chip(*chip);
    let model = ConvPerfModel {
        chip: *chip,
        ..ConvPerfModel::default()
    };

    // Enumerate, lower, and price. Illegal points are recorded (their
    // rejection reasons feed the PlanRejected error when nothing is
    // legal); legal points carry their blocking and predicted Gflops.
    // (schedule, blocking, predicted Gflops, warm start).
    let mut seen: Vec<Schedule> = Vec::new();
    let mut legal: Vec<(Schedule, Blocking, f64, bool)> = Vec::new();
    let mut reasons: Vec<String> = Vec::new();
    for (i, sched) in extra
        .iter()
        .chain(enumerate_schedules(shape).iter())
        .enumerate()
    {
        if seen.contains(sched) {
            continue;
        }
        seen.push(*sched);
        let warm = i < extra.len();
        match lower_schedule(sched, shape, &ctx) {
            Ok(plan) => {
                let blocking = plan.blocking(shape);
                let est = model.estimate(
                    sched.kind(),
                    blocking,
                    shape.batch,
                    shape.ni,
                    shape.no,
                    shape.kc,
                );
                legal.push((*sched, blocking, est.gflops_per_cg, warm));
            }
            Err(e) => reasons.push(e.to_string()),
        }
    }
    if legal.is_empty() {
        let mut reason = String::from("no legal schedule in the search space");
        for r in reasons.iter().take(3) {
            reason.push_str("; ");
            reason.push_str(r);
        }
        if reasons.len() > 3 {
            reason.push_str(&format!("; and {} more", reasons.len() - 3));
        }
        return Err(SwdnnError::PlanRejected {
            shape: *shape,
            reason,
        });
    }

    // Prune by predicted bandwidth-derated throughput: simulate the
    // frontier (within 60% of the best prediction), the top 8 as a
    // model-error hedge, every warm start, and the selector's pick — the
    // schedule `Conv2d::plan()` builds.
    let model_pick = Conv2d::new(*shape)?.on(ctx).schedule();
    let enumerated = legal.len();
    legal.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let best_pred = legal[0].2;
    let (frontier, rest): (Vec<_>, Vec<_>) =
        legal
            .into_iter()
            .enumerate()
            .partition(|&(rank, (sched, _, pred, warm))| {
                warm || rank < 8 || pred >= 0.6 * best_pred || sched == model_pick
            });
    let pruned = rest.len();
    let frontier: Vec<(Schedule, Blocking, f64)> = frontier
        .into_iter()
        .map(|(_, (s, b, pred, _))| (s, b, pred))
        .collect();

    // Longest walk first: a batch-aware walk reduces `b_Co` output columns
    // per sampled tile and is the longest, widest first; an image-aware one
    // grows with `b_B` only (on a Table III row, 2 vCPUs, release: ≈ 1.2 ms
    // at `b_Co` 16 against 0.16–0.38 ms).
    let mut order: Vec<usize> = (0..frontier.len()).collect();
    order.sort_by_key(|&i| {
        let (sched, Blocking { b_b, b_co }, _) = frontier[i];
        let batch_aware = sched.kind() == PlanKind::BatchSizeAware;
        std::cmp::Reverse((batch_aware, if batch_aware { b_co } else { b_b }))
    });
    let timings = time_candidates(ctx.rt, &order, |i| {
        lower_schedule(&frontier[i].0, shape, &ctx)?.time_full_shape(shape)
    })?;
    let mut candidates: Vec<Candidate> = frontier
        .into_iter()
        .zip(timings)
        .map(|((sched, blocking, pred), timing)| Candidate {
            description: sched.describe(),
            schedule: sched,
            blocking,
            predicted_gflops: pred,
            cycles: timing.cycles,
            gflops: timing.gflops(shape, chip),
        })
        .collect();
    candidates.sort_by_key(|c| c.cycles);

    let model_choice = candidates.iter().position(|c| c.schedule == model_pick);
    Ok(TuneReport {
        candidates,
        model_choice,
        enumerated,
        pruned,
    })
}

/// Simulated cycles of the honest host baseline for a general geometry:
/// one MPE-speed core (one CPE's peak, no mesh) running the reference
/// loops. This is the bar a searched mesh schedule must beat — the dense
/// reference plan's mesh-level modeled timing is not an achievable
/// fallback for shapes the mesh cannot serve.
fn host_general_cycles(chip: &ChipSpec, geom: &ConvGeometry, input: Shape4, no: usize) -> u64 {
    let flops = general_flops(geom, input, no) as f64;
    let secs = flops / (chip.peak_gflops_per_cpe().max(1e-9) * 1e9);
    (secs * chip.clock_ghz * 1e9).ceil() as u64
}

/// Outcome of a general-geometry (stride/dilation/padding) search.
#[derive(Clone, Debug)]
pub struct GeneralTune {
    /// The winning patch-GEMM schedule.
    pub schedule: Schedule,
    /// Simulated mesh cycles of the winner (full run).
    pub cycles: u64,
    /// Attained Gflops on one CG.
    pub gflops: f64,
    /// The host MPE baseline: one MPE-speed core running the reference
    /// loops.
    pub host_cycles: u64,
    /// Legal pixel-block candidates considered.
    pub enumerated: usize,
}

impl GeneralTune {
    /// Speedup of the searched mesh schedule over the host baseline.
    pub fn speedup_vs_host(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.host_cycles as f64 / self.cycles as f64
    }
}

/// Search the patch-GEMM pixel-block axis for a geometry the dense
/// schedule space cannot express. The model orders the `b_P` candidates
/// (Eq. 1 with `b_Co·b_B → b_P`); the top of the frontier is simulated in
/// full (general shapes reachable today are small).
pub fn autotune_general(
    chip: &ChipSpec,
    geom: &ConvGeometry,
    input: Shape4,
    no: usize,
) -> Result<GeneralTune, SwdnnError> {
    let model = ConvPerfModel {
        chip: *chip,
        ..ConvPerfModel::default()
    };
    let ctx = LowerCtx::on_chip(*chip);
    let dim = chip.mesh_dim;
    let (batch, ni) = (input.d0, input.d1);
    let mut legal: Vec<(usize, f64)> = Vec::new();
    let mut last_err = None;
    for exp in 0..6 {
        let b_p = dim << exp;
        let plan = PatchGemmPlan::new(b_p).on(ctx);
        match plan.supports_general(geom, input, no) {
            Ok(()) => {
                let est = model.estimate(
                    PlanKind::PatchGemm,
                    Blocking { b_b: b_p, b_co: 1 },
                    batch,
                    ni,
                    no,
                    geom.kc,
                );
                legal.push((b_p, est.gflops_per_cg));
            }
            Err(e) => last_err = Some(e),
        }
    }
    if legal.is_empty() {
        return Err(last_err.expect("at least one candidate was probed"));
    }
    legal.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let enumerated = legal.len();

    let flops = general_flops(geom, input, no) as f64;
    let frontier = &legal[..legal.len().min(3)];
    // Longest walk first: the smallest `b_P` walks the most pixel blocks.
    let mut order: Vec<usize> = (0..frontier.len()).collect();
    order.sort_by_key(|&i| frontier[i].0);
    let timings = time_candidates(ctx.rt, &order, |i| {
        let plan = PatchGemmPlan::new(frontier[i].0).on(ctx);
        plan.time_general(geom, input, no)
    })?;
    let mut best: Option<(Schedule, u64)> = None;
    for (&(b_p, _), timing) in frontier.iter().zip(timings) {
        if best.is_none_or(|(_, c)| timing.cycles < c) {
            best = Some((Schedule::patch_gemm(b_p), timing.cycles));
        }
    }
    let (schedule, cycles) = best.expect("frontier is non-empty");
    let secs = cycles as f64 / (chip.clock_ghz * 1e9);
    Ok(GeneralTune {
        schedule,
        cycles,
        gflops: if secs > 0.0 { flops / secs / 1e9 } else { 0.0 },
        host_cycles: host_general_cycles(chip, geom, input, no),
        enumerated,
    })
}

/// Time every candidate concurrently on `rt`'s lanes: each lane claims
/// the next slot, and slot `k` walks candidate `order[k]` on a cost-only
/// mesh, which runs inline on the lane. `order` names the longest walk
/// first, so no lane starts a long walk last. Returns the timings in index
/// order, or the error of the first failing candidate by index, whatever
/// order they finished in.
fn time_candidates<T: Send + Sync>(
    rt: &ExecutionContext,
    order: &[usize],
    time: impl Fn(usize) -> Result<T, SwdnnError> + Sync,
) -> Result<Vec<T>, SwdnnError> {
    rt.gather_by_index(
        order.len(),
        order.len(),
        |slot| [order[slot]],
        |_, i| time(i),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_come_back_by_index_whatever_order_they_ran_in() {
        // Slots claim candidates last index first; at one lane they also
        // finish in that order. Timings and the first error are still by
        // index at every lane count.
        let rt = ExecutionContext::new();
        let order = [3, 0, 2, 1];
        let fail = |i: usize| SwdnnError::Numeric {
            context: format!("candidate {i}"),
            detail: String::new(),
        };
        for threads in [1, 2, 8] {
            sw_runtime::with_threads(threads, || {
                let timed = time_candidates(&rt, &order, |i| Ok(10 * i));
                assert_eq!(timed, Ok(vec![0, 10, 20, 30]), "{threads} lanes");
                let timed = time_candidates(&rt, &order, |i| match i {
                    1 | 3 => Err(fail(i)),
                    _ => Ok(i),
                });
                assert_eq!(timed, Err(fail(1)), "{threads} lanes");
            });
        }
    }

    #[test]
    fn autotune_orders_candidates_fastest_first() {
        let shape = ConvShape::new(32, 16, 16, 4, 8, 3, 3);
        let rep = autotune(&shape).unwrap();
        assert!(rep.candidates.len() >= 3, "several candidates expected");
        assert!(rep
            .candidates
            .windows(2)
            .all(|w| w[0].cycles <= w[1].cycles));
        assert!(rep.best().gflops > 0.0);
        assert_eq!(rep.enumerated, rep.candidates.len() + rep.pruned);
    }

    #[test]
    fn model_choice_is_feasible_and_reasonable() {
        // The §VII near-optimality claim is held at paper scale and on
        // the B = 32 shapes by the `model_vs_autotune` tables, and over a
        // whole small-batch grid by `tests/selection.rs`. Here: the choice
        // must map to a simulated candidate and attain what it ranks.
        let shape = ConvShape::new(32, 16, 16, 6, 8, 3, 3);
        let rep = autotune(&shape).unwrap();
        let frac = rep
            .model_fraction_of_best()
            .expect("model choice must be feasible");
        assert!(frac >= 0.95, "model at {frac:.2} of the empirical best");
        assert!(frac <= 1.0 + 1e-12);
    }

    #[test]
    fn small_batch_gets_image_aware_candidates() {
        // Regression: enumeration started at b_b = 32, so any batch < 32
        // produced zero image-size-aware candidates — and a spurious
        // NoPlan where feasible b_b ∈ {8, 16} existed per Algorithm 1.
        // On the degraded 4×4 mesh (row granule 4·4 = 16) a batch of 16
        // maps cleanly with b_b = 16.
        let chip = crate::resilient::ResilientExecutor::degraded_chip(ChipSpec::sw26010());
        let shape = ConvShape::new(16, 16, 16, 8, 8, 3, 3);
        let rep = autotune_with(&chip, &shape, &[]).unwrap();
        assert!(
            rep.candidates
                .iter()
                .any(|c| c.schedule.kind() == PlanKind::ImageSizeAware && c.blocking.b_b == 16),
            "batch 16 must yield image-aware candidates: {:?}",
            rep.candidates
                .iter()
                .map(|c| c.description.as_str())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn model_choice_matches_on_structure_not_strings() {
        // The model's pick is the candidate whose schedule is the one
        // `Conv2d::plan()` builds — one type, no re-derived blocking.
        let shape = ConvShape::new(32, 16, 16, 6, 8, 3, 3);
        let rep = autotune(&shape).unwrap();
        let pick = Conv2d::new(shape).unwrap().schedule();
        let i = rep
            .model_choice
            .expect("model pick must map to a candidate");
        assert_eq!(rep.candidates[i].schedule, pick);
        let plan = Conv2d::new(shape).unwrap().plan();
        assert_eq!(rep.candidates[i].blocking, plan.blocking(&shape));
    }

    #[test]
    fn infeasible_shapes_return_structured_rejection() {
        // Channels not a multiple of 8: no mesh schedule is legal. The
        // search must say *why*, not throw the catch-all NoPlan.
        let shape = ConvShape::new(32, 7, 7, 4, 8, 3, 3);
        match autotune(&shape) {
            Err(SwdnnError::PlanRejected { shape: s, reason }) => {
                assert_eq!(s, shape);
                assert!(reason.contains("multiple"), "{reason}");
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_schedule_bounds_the_search() {
        let shape = ConvShape::new(32, 16, 16, 4, 8, 3, 3);
        let hand = Schedule::image_aware(32, 4);
        let rep = autotune_with(&ChipSpec::sw26010(), &shape, &[hand]).unwrap();
        let warm = rep
            .candidates
            .iter()
            .find(|c| c.schedule == hand)
            .expect("warm start must be simulated");
        assert!(rep.best().cycles <= warm.cycles);
    }

    #[test]
    fn stride_two_search_beats_the_host_baseline() {
        // The acceptance shape class: stride 2, which every dense plan
        // rejects. The searched patch schedule must beat the honest host
        // MPE reference.
        let chip = ChipSpec::sw26010();
        let geom = ConvGeometry::valid(3, 3).with_stride(2, 2);
        let input = Shape4::new(8, 16, 9, 9);
        let tune = autotune_general(&chip, &geom, input, 16).unwrap();
        assert!(tune.cycles > 0);
        assert!(
            tune.cycles < tune.host_cycles,
            "mesh {} cycles vs host {} cycles",
            tune.cycles,
            tune.host_cycles
        );
        assert!(tune.speedup_vs_host() > 1.0);
        assert_eq!(tune.schedule.kind(), PlanKind::PatchGemm);
    }

    #[test]
    fn general_search_rejects_off_grid_channels() {
        let chip = ChipSpec::sw26010();
        let geom = ConvGeometry::valid(3, 3).with_stride(2, 2);
        let err = autotune_general(&chip, &geom, Shape4::new(8, 7, 9, 9), 16).unwrap_err();
        assert!(matches!(err, SwdnnError::PlanRejected { .. }), "{err}");
    }
}
