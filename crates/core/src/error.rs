//! Library error type.

use sw_sim::SimError;
use sw_tensor::ConvShape;

/// Errors surfaced by swDNN operations.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard arm
/// so new failure classes (like the fault-injection variants added for the
/// resilient executor) are not breaking changes.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SwdnnError {
    /// The plan cannot run this shape on the 8×8 mesh (divisibility or
    /// LDM-capacity constraints); callers may fall back to another plan.
    Unsupported {
        plan: &'static str,
        shape: ConvShape,
        reason: String,
    },
    /// The underlying simulator rejected the execution.
    Sim(SimError),
    /// Operand shapes disagree with the layer configuration.
    ShapeMismatch { expected: String, got: String },
    /// No plan can run the shape at all.
    NoPlan(ConvShape),
    /// The planner examined the shape and rejected it for a structured,
    /// reportable reason (stride/dilation the mesh plans cannot express,
    /// divisibility, or LDM-budget exhaustion). Unlike the catch-all
    /// [`SwdnnError::NoPlan`], the reason survives into fallback logs and
    /// the Chrome trace so a silent host degrade is diagnosable.
    PlanRejected { shape: ConvShape, reason: String },
    /// A numeric guard tripped: non-finite values or a verified-execution
    /// spot check diverging from the reference kernel.
    Numeric { context: String, detail: String },
    /// Every recovery attempt (retries and plan fallbacks) failed; `last`
    /// is the simulator error that ended the final attempt.
    FaultExhausted { attempts: u32, last: SimError },
    /// The serving queue is at capacity; the request was rejected rather
    /// than queued unboundedly. The variant carries enough structure for a
    /// client to act on the rejection: the observed queue depth, the
    /// configured bound, and a suggested retry delay in logical µs (the
    /// time until the batcher's next deadline release frees capacity).
    Overloaded {
        depth: usize,
        limit: usize,
        retry_after_us: u64,
    },
    /// Every chip in the cluster is marked down; no route exists for any
    /// request until one recovers.
    ClusterUnavailable { chips: usize },
    /// A data-parallel step has fewer microbatches than chips, so some
    /// chips would sit idle all step. Ragged distribution handles every
    /// other mismatch (`M mod C ≠ 0`); this is the one shape the trainer
    /// refuses outright.
    InsufficientMicrobatches { microbatches: usize, chips: usize },
    /// A data-parallel trainer runs a replica of every layer on each pool
    /// lane, and the layer at `index` (named `layer`) has none
    /// ([`crate::layers::Layer::replica`]).
    NotReplicable { index: usize, layer: &'static str },
}

impl SwdnnError {
    /// [`SwdnnError::Unsupported`]: `plan` cannot run `shape`, for `reason`.
    pub(crate) fn unsupported(
        plan: &'static str,
        shape: &ConvShape,
        reason: impl Into<String>,
    ) -> Self {
        SwdnnError::Unsupported {
            plan,
            shape: *shape,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SwdnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwdnnError::Unsupported {
                plan,
                shape,
                reason,
            } => {
                write!(f, "plan {plan} cannot run {shape}: {reason}")
            }
            SwdnnError::Sim(e) => write!(f, "simulator: {e}"),
            SwdnnError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            SwdnnError::NoPlan(s) => write!(f, "no convolution plan supports {s}"),
            SwdnnError::PlanRejected { shape, reason } => {
                write!(f, "planner rejected {shape}: {reason}")
            }
            SwdnnError::Numeric { context, detail } => {
                write!(f, "numeric check failed in {context}: {detail}")
            }
            SwdnnError::FaultExhausted { attempts, last } => {
                write!(
                    f,
                    "all {attempts} recovery attempts failed; last error: {last}"
                )
            }
            SwdnnError::Overloaded {
                depth,
                limit,
                retry_after_us,
            } => {
                write!(
                    f,
                    "serving queue overloaded: depth {depth} at limit {limit}; \
                     request rejected, retry after {retry_after_us} us"
                )
            }
            SwdnnError::ClusterUnavailable { chips } => {
                write!(f, "all {chips} cluster chips are down; no route exists")
            }
            SwdnnError::InsufficientMicrobatches {
                microbatches,
                chips,
            } => {
                write!(
                    f,
                    "{microbatches} microbatches cannot feed {chips} chips; \
                     need at least one microbatch per chip"
                )
            }
            SwdnnError::NotReplicable { index, layer } => {
                write!(
                    f,
                    "layer {index} ({layer}) has no replica for data-parallel lanes"
                )
            }
        }
    }
}

impl std::error::Error for SwdnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwdnnError::Sim(e) | SwdnnError::FaultExhausted { last: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for SwdnnError {
    fn from(e: SimError) -> Self {
        SwdnnError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_is_informative() {
        let e = SwdnnError::Unsupported {
            plan: "image_aware",
            shape: ConvShape::new(1, 1, 1, 1, 1, 1, 1),
            reason: "Ni must be a multiple of 8".into(),
        };
        let s = e.to_string();
        assert!(s.contains("image_aware") && s.contains("multiple of 8"));
    }

    #[test]
    fn plan_rejected_display_names_shape_and_reason() {
        let e = SwdnnError::PlanRejected {
            shape: ConvShape::new(8, 16, 16, 4, 4, 3, 3),
            reason: "stride 2 not expressible by dense mesh plans".into(),
        };
        let s = e.to_string();
        assert!(s.contains("rejected") && s.contains("stride 2"), "{s}");
    }

    #[test]
    fn sim_errors_convert() {
        let e: SwdnnError = SimError::Program("x".into()).into();
        assert!(matches!(e, SwdnnError::Sim(_)));
    }

    #[test]
    fn numeric_display_names_the_layer() {
        let e = SwdnnError::Numeric {
            context: "layer 3 (conv)".into(),
            detail: "output contains NaN".into(),
        };
        let s = e.to_string();
        assert!(s.contains("layer 3") && s.contains("NaN"), "{s}");
    }

    #[test]
    fn fault_exhausted_display_reports_attempts_and_cause() {
        let e = SwdnnError::FaultExhausted {
            attempts: 3,
            last: SimError::DmaFault {
                row: 1,
                col: 2,
                attempts: 5,
            },
        };
        let s = e.to_string();
        assert!(s.contains("3 recovery attempts"), "{s}");
        assert!(s.contains("CPE(1,2)"), "{s}");
    }

    #[test]
    fn overloaded_display_reports_depth_limit_and_retry_hint() {
        let e = SwdnnError::Overloaded {
            depth: 64,
            limit: 64,
            retry_after_us: 1_500,
        };
        let s = e.to_string();
        assert!(s.contains("64") && s.contains("rejected"), "{s}");
        assert!(s.contains("1500 us"), "retry hint must be printed: {s}");
    }

    #[test]
    fn source_chains_to_the_sim_error() {
        let sim = SimError::CpeOffline { row: 4, col: 4 };
        let e = SwdnnError::Sim(sim.clone());
        let src = e.source().expect("Sim must chain");
        assert_eq!(src.to_string(), sim.to_string());

        let e = SwdnnError::FaultExhausted {
            attempts: 2,
            last: sim.clone(),
        };
        assert_eq!(
            e.source().expect("FaultExhausted must chain").to_string(),
            sim.to_string()
        );

        let e = SwdnnError::NoPlan(ConvShape::new(1, 1, 1, 1, 1, 1, 1));
        assert!(e.source().is_none());
    }
}
