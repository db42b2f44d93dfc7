//! Resilient execution: bounded retry, plan fallback, degraded-mesh
//! re-planning, and opt-in verified execution.
//!
//! The simulated SW26010 can now fail (see `sw_sim::fault`): DMA transfers
//! abort or stall, bus messages get dropped, whole CPEs fall offline. This
//! module is the recovery policy on top of that fault model:
//!
//! 1. **Retry with reseeded faults.** A transient simulator error
//!    ([`sw_sim::SimError::is_transient`]) re-runs the plan up to
//!    `max_retries` times with a reseeded [`FaultPlan`] — the same seed
//!    would deterministically reproduce the failure. Retry cost is charged
//!    inside the timing model (`dma_retries` / `fault_retry_cycles`
//!    counters), so recovered runs are visibly slower, not magically free.
//! 2. **Plan fallback.** When a plan keeps failing (or fails verification),
//!    the executor walks the chain *model choice → image-size-aware →
//!    batch-size-aware → host reference*. The reference plan runs on the
//!    host MPE, touches no mesh, and therefore always completes.
//! 3. **Degraded-mesh execution.** A permanently-offline CPE
//!    ([`sw_sim::SimError::CpeOffline`]) masks the faulty row/column: the
//!    chip is re-described as a 4×4 mesh (16 CPEs) and the whole chain is
//!    re-planned once on the reduced chip.
//! 4. **Verified execution.** [`VerifyPolicy::SpotCheck`] re-computes a
//!    deterministic sample of output pixels with the naive reference loops
//!    and scans the full output for NaN/Inf before a run is accepted.

use crate::conv::Conv2d;
use crate::error::SwdnnError;
use crate::plans::{ConvRun, LoopOrder, LowerCtx, Schedule};
use sw_perfmodel::{ChipSpec, PlanKind};
use sw_sim::fault::splitmix64_next;
use sw_sim::{FaultPlan, SimError};
use sw_tensor::{ConvShape, Tensor4};

/// What happened on one plan execution during a recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The run completed and passed verification.
    Accepted,
    /// A transient simulator fault; the same plan is re-run reseeded.
    TransientRetry,
    /// The plan was given up on; the chain moves to the next candidate.
    Abandoned,
    /// A dead CPE forced re-planning on the masked 4×4 mesh.
    MeshDegraded,
    /// The planner rejected the shape outright (`supports` said no before
    /// any execution). The event's `detail` carries the structured
    /// [`SwdnnError::PlanRejected`] reason, so a degrade to the host
    /// reference is diagnosable from the timeline instead of silent.
    PlanRejected,
}

/// One step of the recovery timeline: which plan ran (as which attempt)
/// and how it ended. `detail` carries the triggering error, if any.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// 1-based global attempt number (0 for the mesh-degradation marker,
    /// which is a re-planning decision, not a plan execution).
    pub attempt: u32,
    pub plan: String,
    pub outcome: RecoveryOutcome,
    pub detail: String,
}

/// How much checking a [`ResilientExecutor`] does on accepted outputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VerifyPolicy {
    /// Trust plan outputs (the default; plans are already exact in tests).
    Off,
    /// Scan the output for non-finite values and re-compute `samples`
    /// deterministic output pixels with the reference loops, accepting a
    /// relative error of `tol`.
    SpotCheck { samples: usize, tol: f64 },
}

/// Executes convolutions with retry, fallback, and degradation policies.
#[derive(Clone, Copy, Debug)]
pub struct ResilientExecutor {
    /// Where the first attempt runs: chip, injected faults, and the host
    /// runtime every simulated mesh (including retries and the degraded
    /// re-run) executes on. Recovery re-plans by swapping this context —
    /// a reseeded fault per retry, the degraded chip after a dead CPE.
    pub ctx: LowerCtx,
    /// Transient-error re-runs allowed per plan (on top of the simulator's
    /// own per-transfer DMA retries).
    pub max_retries: u32,
    /// Output acceptance checks.
    pub verify: VerifyPolicy,
    /// Walk the plan-fallback chain on persistent failure. Disable to make
    /// exhaustion surface as [`SwdnnError::FaultExhausted`].
    pub allow_fallback: bool,
}

impl Default for ResilientExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl ResilientExecutor {
    pub fn new() -> Self {
        Self {
            ctx: LowerCtx::default(),
            max_retries: 3,
            verify: VerifyPolicy::Off,
            allow_fallback: true,
        }
    }

    /// Run in `ctx` (a degraded chip, injected faults, a private runtime).
    pub fn on(mut self, ctx: LowerCtx) -> Self {
        self.ctx = ctx;
        self
    }

    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    pub fn with_verification(mut self, verify: VerifyPolicy) -> Self {
        self.verify = verify;
        self
    }

    pub fn with_fallback(mut self, allow: bool) -> Self {
        self.allow_fallback = allow;
        self
    }

    /// The reduced chip used once a CPE row/column is masked: the surviving
    /// quadrant runs as a 4×4 mesh.
    pub fn degraded_chip(chip: ChipSpec) -> ChipSpec {
        ChipSpec {
            mesh_dim: 4,
            cpes_per_cg: 16,
            ..chip
        }
    }

    /// Run the convolution with the full recovery policy.
    pub fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<ResilientReport, SwdnnError> {
        let mut attempts = 0u32;
        let mut fallbacks = Vec::new();
        let mut timeline = Vec::new();
        match self.run_chain(
            self.ctx,
            shape,
            input,
            filter,
            &mut attempts,
            &mut fallbacks,
            &mut timeline,
        ) {
            Ok((run, plan_name)) => {
                Ok(self.report(run, plan_name, false, attempts, fallbacks, timeline))
            }
            Err(e) if Self::is_offline(&e) => {
                fallbacks.push(format!("masking faulty CPE row/column: {e}"));
                timeline.push(RecoveryEvent {
                    attempt: 0,
                    plan: "mesh".into(),
                    outcome: RecoveryOutcome::MeshDegraded,
                    detail: e.to_string(),
                });
                // The dead CPE is outside the masked 4×4 quadrant; other
                // fault processes keep running on the survivors.
                let degraded = LowerCtx {
                    chip: Self::degraded_chip(self.ctx.chip),
                    fault: self.ctx.fault.map(|f| FaultPlan { dead_mask: 0, ..f }),
                    ..self.ctx
                };
                let (run, plan_name) = self.run_chain(
                    degraded,
                    shape,
                    input,
                    filter,
                    &mut attempts,
                    &mut fallbacks,
                    &mut timeline,
                )?;
                Ok(self.report(run, plan_name, true, attempts, fallbacks, timeline))
            }
            Err(e) => Err(e),
        }
    }

    /// Walk the candidate-plan chain in one context.
    #[allow(clippy::too_many_arguments)]
    fn run_chain(
        &self,
        ctx: LowerCtx,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
        attempts: &mut u32,
        fallbacks: &mut Vec<String>,
        timeline: &mut Vec<RecoveryEvent>,
    ) -> Result<(ConvRun, String), SwdnnError> {
        // Candidate chain: the model's pick, then each mesh family forced,
        // then the always-correct host reference. Resolved once; each
        // attempt builds its schedule with that attempt's reseeded faults.
        let conv = Conv2d::new(*shape)?.on(ctx);
        let chain = [
            conv.schedule(),
            conv.with_plan(PlanKind::ImageSizeAware).schedule(),
            conv.with_plan(PlanKind::BatchSizeAware).schedule(),
            Schedule::reference(),
        ];

        let mut tried: Vec<String> = Vec::new();
        let mut rejected_logged: Vec<String> = Vec::new();
        // When automatic selection already degraded to the host reference,
        // the mesh families were rejected silently inside `Conv2d::schedule`
        // — probe them here so the recovery timeline records the
        // structured reason for the degrade
        // instead of presenting the host run as a first-choice acceptance.
        if chain[0].order == LoopOrder::HostReference {
            for forced in &chain[1..3] {
                let probe = forced.build(&ctx);
                if let Err(e) = probe.supports(shape) {
                    log_rejection(
                        shape,
                        probe.name(),
                        e,
                        &mut rejected_logged,
                        fallbacks,
                        timeline,
                    );
                }
            }
        }
        let mut last_sim: Option<SimError> = None;
        'candidates: for sched in chain {
            let probe = sched.build(&ctx);
            let name = probe.name().to_string();
            if tried.contains(&name) {
                continue;
            }
            tried.push(name.clone());
            if let Err(e) = probe.supports(shape) {
                log_rejection(shape, &name, e, &mut rejected_logged, fallbacks, timeline);
                continue;
            }

            for attempt in 0..=self.max_retries {
                *attempts += 1;
                let plan = sched.build(&ctx.with_fault(ctx.fault.map(|f| reseeded(f, attempt))));
                let mut record = |outcome: RecoveryOutcome, detail: String| {
                    timeline.push(RecoveryEvent {
                        attempt: *attempts,
                        plan: name.clone(),
                        outcome,
                        detail,
                    });
                };
                match plan.run(shape, input, filter) {
                    Ok(run) => match self.verify_run(shape, input, filter, &run) {
                        Ok(()) => {
                            record(RecoveryOutcome::Accepted, String::new());
                            return Ok((run, name));
                        }
                        Err(e) => {
                            record(RecoveryOutcome::Abandoned, e.to_string());
                            fallbacks.push(format!("{name}: {e}"));
                            if !self.allow_fallback {
                                return Err(e);
                            }
                            continue 'candidates;
                        }
                    },
                    Err(SwdnnError::Sim(e)) => {
                        if matches!(e, SimError::CpeOffline { .. }) {
                            // Not recoverable by retry or another mesh plan:
                            // surface it so `run` can degrade the mesh.
                            return Err(SwdnnError::Sim(e));
                        }
                        last_sim = Some(e.clone());
                        if e.is_transient() && attempt < self.max_retries {
                            record(RecoveryOutcome::TransientRetry, e.to_string());
                            continue; // reseeded re-run
                        }
                        record(RecoveryOutcome::Abandoned, e.to_string());
                        fallbacks.push(format!("{name}: {e}"));
                        if !self.allow_fallback {
                            return Err(SwdnnError::FaultExhausted {
                                attempts: *attempts,
                                last: e,
                            });
                        }
                        continue 'candidates;
                    }
                    Err(e) => {
                        record(RecoveryOutcome::Abandoned, e.to_string());
                        fallbacks.push(format!("{name}: {e}"));
                        if !self.allow_fallback {
                            return Err(e);
                        }
                        continue 'candidates;
                    }
                }
            }
        }
        Err(SwdnnError::FaultExhausted {
            attempts: *attempts,
            last: last_sim.unwrap_or_else(|| SimError::Program("no candidate plan ran".into())),
        })
    }

    fn is_offline(e: &SwdnnError) -> bool {
        matches!(
            e,
            SwdnnError::Sim(SimError::CpeOffline { .. })
                | SwdnnError::FaultExhausted {
                    last: SimError::CpeOffline { .. },
                    ..
                }
        )
    }

    fn verify_run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
        run: &ConvRun,
    ) -> Result<(), SwdnnError> {
        let VerifyPolicy::SpotCheck { samples, tol } = self.verify else {
            return Ok(());
        };
        if let Some(v) = run.output.data().iter().find(|v| !v.is_finite()) {
            return Err(SwdnnError::Numeric {
                context: "verified execution".into(),
                detail: format!("output contains non-finite value {v}"),
            });
        }
        let mut state = self.ctx.fault.map_or(0xD1FF_5EED_u64, |f| f.seed) ^ 0x6A09_E667_F3BC_C909;
        for _ in 0..samples {
            let b = (splitmix64_next(&mut state) % shape.batch as u64) as usize;
            let no = (splitmix64_next(&mut state) % shape.no as u64) as usize;
            let r = (splitmix64_next(&mut state) % shape.ro as u64) as usize;
            let c = (splitmix64_next(&mut state) % shape.co as u64) as usize;
            let mut acc = 0.0;
            for ni in 0..shape.ni {
                for kr in 0..shape.kr {
                    for kc in 0..shape.kc {
                        acc += input.get(b, ni, r + kr, c + kc) * filter.get(no, ni, kr, kc);
                    }
                }
            }
            let got = run.output.get(b, no, r, c);
            if (acc - got).abs() > tol * (1.0 + acc.abs()) {
                return Err(SwdnnError::Numeric {
                    context: "verified execution".into(),
                    detail: format!(
                        "output[{b},{no},{r},{c}] = {got} diverges from reference {acc}"
                    ),
                });
            }
        }
        Ok(())
    }

    fn report(
        &self,
        run: ConvRun,
        plan_name: String,
        degraded: bool,
        attempts: u32,
        fallbacks: Vec<String>,
        timeline: Vec<RecoveryEvent>,
    ) -> ResilientReport {
        let totals = run.timing.stats.totals;
        ResilientReport {
            plan_name,
            degraded,
            attempts,
            fallbacks,
            timeline,
            dma_retries: totals.dma_retries,
            retry_cycles: totals.fault_retry_cycles + totals.fault_stall_cycles,
            run,
        }
    }
}

/// Outcome of a resilient execution.
#[derive(Clone, Debug)]
pub struct ResilientReport {
    /// The accepted output and timing (retry/stall cycles included).
    pub run: ConvRun,
    /// Name of the plan that finally produced the output.
    pub plan_name: String,
    /// True when a CPE was masked and the run happened on the 4×4 mesh.
    pub degraded: bool,
    /// Plan executions, counting retries, across the whole recovery.
    pub attempts: u32,
    /// Human-readable trail of every plan given up on and why.
    pub fallbacks: Vec<String>,
    /// Structured recovery timeline: one event per plan execution (plus a
    /// marker when the mesh was degraded), in order.
    pub timeline: Vec<RecoveryEvent>,
    /// Simulator-level DMA re-issues inside the accepted run.
    pub dma_retries: u64,
    /// Cycles lost to fault backoff and stalls inside the accepted run.
    pub retry_cycles: u64,
}

/// `fault` for retry `attempt` of the same work: the same rates under a
/// seed derived per attempt (re-running the identical seed would reproduce
/// the fault). Attempt 0 keeps the seed as configured.
pub(crate) fn reseeded(fault: FaultPlan, attempt: u32) -> FaultPlan {
    fault.reseed(fault.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt)))
}

/// Record one planner rejection as a structured [`SwdnnError::PlanRejected`]
/// in both the human-readable fallback trail and the recovery timeline.
/// Deduplicated per plan name: the pre-probe in `run_chain` and
/// the chain walk itself may both see the same rejection.
fn log_rejection(
    shape: &ConvShape,
    name: &str,
    e: SwdnnError,
    rejected_logged: &mut Vec<String>,
    fallbacks: &mut Vec<String>,
    timeline: &mut Vec<RecoveryEvent>,
) {
    if rejected_logged.iter().any(|n| n == name) {
        return;
    }
    rejected_logged.push(name.to_string());
    let structured = match e {
        SwdnnError::Unsupported { reason, .. } => SwdnnError::PlanRejected {
            shape: *shape,
            reason,
        },
        other => other,
    };
    timeline.push(RecoveryEvent {
        attempt: 0,
        plan: name.to_string(),
        outcome: RecoveryOutcome::PlanRejected,
        detail: structured.to_string(),
    });
    fallbacks.push(format!("{name}: {structured}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::lattice_tensor;
    use sw_tensor::{conv2d_ref, Layout};

    fn small() -> ConvShape {
        ConvShape::new(32, 16, 16, 8, 8, 3, 3)
    }

    fn operands(shape: &ConvShape) -> (Tensor4<f64>, Tensor4<f64>) {
        (
            lattice_tensor(shape.input_shape(), Layout::Nchw, 11),
            lattice_tensor(shape.filter_shape(), Layout::Nchw, 12),
        )
    }

    #[test]
    fn clean_run_needs_no_recovery() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let rep = ResilientExecutor::new()
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(rep.attempts, 1);
        assert!(!rep.degraded);
        assert_eq!(rep.dma_retries, 0);
        assert_eq!(rep.retry_cycles, 0);
        let expect = conv2d_ref(shape, &input, &filter);
        assert_eq!(rep.run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn transient_dma_faults_recover_and_cost_cycles() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let clean = ResilientExecutor::new()
            .run(&shape, &input, &filter)
            .unwrap();
        // Find a seed whose fault pattern actually hits this run's DMA
        // stream (deterministic: the scan itself is reproducible).
        let mut hit = None;
        for seed in 0..64u64 {
            let fault = FaultPlan::none(seed).with_dma_fail_rate(2e-3);
            let rep = ResilientExecutor::new()
                .on(LowerCtx::default().with_fault(Some(fault)))
                .run(&shape, &input, &filter)
                .unwrap();
            if rep.dma_retries > 0 {
                hit = Some((seed, rep));
                break;
            }
        }
        let (seed, rep) = hit.expect("some seed in 0..64 must inject at least one DMA fault");
        assert!(
            rep.retry_cycles > 0,
            "retries must be charged into the timing"
        );
        assert!(
            rep.run.timing.cycles > clean.run.timing.cycles,
            "faulty {} vs clean {}",
            rep.run.timing.cycles,
            clean.run.timing.cycles
        );
        // Bit-identical output: faults cost time, never accuracy.
        assert_eq!(rep.run.output.max_abs_diff(&clean.run.output), 0.0);
        // Determinism: the same seed reproduces the identical recovery.
        let again = ResilientExecutor::new()
            .on(LowerCtx::default()
                .with_fault(Some(FaultPlan::none(seed).with_dma_fail_rate(2e-3))))
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(again.run.timing.cycles, rep.run.timing.cycles);
        assert_eq!(again.dma_retries, rep.dma_retries);
        assert_eq!(again.attempts, rep.attempts);
    }

    #[test]
    fn dead_cpe_masks_row_and_column_and_completes() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let fault = FaultPlan::none(7).with_dead_cpe(2, 3);
        let rep = ResilientExecutor::new()
            .on(LowerCtx::default().with_fault(Some(fault)))
            .run(&shape, &input, &filter)
            .unwrap();
        assert!(rep.degraded, "a dead CPE must force the 4×4 mesh");
        assert_ne!(
            rep.plan_name, "reference",
            "the reduced mesh must run a real mesh plan, not the host fallback"
        );
        assert!(
            rep.fallbacks.iter().any(|f| f.contains("masking")),
            "fallback trail must record the degradation: {:?}",
            rep.fallbacks
        );
        let expect = conv2d_ref(shape, &input, &filter);
        assert_eq!(rep.run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn exhausted_recovery_surfaces_fault_exhausted() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let fault = FaultPlan::none(1).with_dma_fail_rate(1.0);
        let err = ResilientExecutor::new()
            .on(LowerCtx::default().with_fault(Some(fault)))
            .with_max_retries(2)
            .with_fallback(false)
            .run(&shape, &input, &filter)
            .unwrap_err();
        match err {
            SwdnnError::FaultExhausted { attempts, last } => {
                assert_eq!(attempts, 3, "initial run + 2 retries");
                assert!(matches!(last, SimError::DmaFault { .. }));
            }
            other => panic!("expected FaultExhausted, got {other}"),
        }
    }

    #[test]
    fn fallback_chain_reaches_the_host_reference_under_total_dma_loss() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let fault = FaultPlan::none(1).with_dma_fail_rate(1.0);
        let rep = ResilientExecutor::new()
            .on(LowerCtx::default().with_fault(Some(fault)))
            .with_max_retries(1)
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(
            rep.plan_name, "reference",
            "only the host path survives 100% DMA loss"
        );
        assert!(
            !rep.fallbacks.is_empty(),
            "the mesh plans must be recorded as abandoned"
        );
        let expect = conv2d_ref(shape, &input, &filter);
        assert_eq!(rep.run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn clean_run_timeline_is_a_single_acceptance() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let rep = ResilientExecutor::new()
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(rep.timeline.len(), 1);
        assert_eq!(rep.timeline[0].outcome, RecoveryOutcome::Accepted);
        assert_eq!(rep.timeline[0].plan, rep.plan_name);
    }

    #[test]
    fn fallback_timeline_records_abandonments_and_depth() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let fault = FaultPlan::none(1).with_dma_fail_rate(1.0);
        let rep = ResilientExecutor::new()
            .on(LowerCtx::default().with_fault(Some(fault)))
            .with_max_retries(1)
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(rep.plan_name, "reference");
        assert!(
            rep.timeline
                .iter()
                .any(|e| e.outcome == RecoveryOutcome::Abandoned),
            "mesh plans were abandoned"
        );
        assert_eq!(
            rep.timeline.last().unwrap().outcome,
            RecoveryOutcome::Accepted
        );
        assert!(
            rep.timeline
                .iter()
                .any(|e| e.outcome == RecoveryOutcome::TransientRetry),
            "100% DMA loss must show reseeded retries before abandonment"
        );
    }

    #[test]
    fn degraded_run_timeline_marks_the_mesh_degradation() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let fault = FaultPlan::none(7).with_dead_cpe(2, 3);
        let rep = ResilientExecutor::new()
            .on(LowerCtx::default().with_fault(Some(fault)))
            .run(&shape, &input, &filter)
            .unwrap();
        assert!(rep.degraded);
        assert!(rep
            .timeline
            .iter()
            .any(|e| e.outcome == RecoveryOutcome::MeshDegraded));
    }

    #[test]
    fn unservable_shapes_log_structured_rejections_into_the_trace() {
        // Ni = No = 7: every mesh plan refuses, the host reference runs.
        // Before this was recorded, the degrade was silent — the timeline
        // showed a clean first-choice acceptance of "reference".
        let shape = ConvShape::new(32, 7, 7, 4, 8, 3, 3);
        let (input, filter) = operands(&shape);
        let rep = ResilientExecutor::new()
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(rep.plan_name, "reference");
        let rejections: Vec<_> = rep
            .timeline
            .iter()
            .filter(|e| e.outcome == RecoveryOutcome::PlanRejected)
            .collect();
        assert_eq!(
            rejections.len(),
            2,
            "both mesh families must be logged: {:?}",
            rep.timeline
        );
        for e in &rejections {
            assert!(e.detail.contains("rejected"), "{}", e.detail);
            assert!(e.detail.contains("multiple"), "{}", e.detail);
        }
        assert!(rep
            .fallbacks
            .iter()
            .any(|f| f.contains("image_size_aware") && f.contains("rejected")));
        // Rejection never degrades correctness.
        let expect = conv2d_ref(shape, &input, &filter);
        assert_eq!(rep.run.output.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn verified_execution_accepts_correct_runs() {
        let shape = small();
        let (input, filter) = operands(&shape);
        let rep = ResilientExecutor::new()
            .with_verification(VerifyPolicy::SpotCheck {
                samples: 16,
                tol: 1e-10,
            })
            .run(&shape, &input, &filter)
            .unwrap();
        assert_eq!(
            rep.attempts, 1,
            "a correct run must pass the spot check first try"
        );
    }
}
