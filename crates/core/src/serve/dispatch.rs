//! Sharded batch dispatch across the simulated core groups (§III-D).
//!
//! The paper partitions output images along the row dimension and gives
//! each of the SW26010's four CGs one slice; the serving engine reuses that
//! scheme per *batch*: every request's convolution is row-split into `cgs`
//! slices executed on one shared [`sw_runtime::ExecutionContext`]
//! ([`sw_sim::run_multi_cg_on`]) — no per-request thread fan-out — and the
//! batch's requests stream back-to-back so the fixed kernel-launch
//! overhead amortizes over the whole batch instead of being paid per
//! request. The CG fan-out is scheduled with per-lane slot affinity
//! (DESIGN.md §14): CG `g` prefers pool lane `g` on every request, so the
//! four CGs' working sets stop migrating across worker threads between
//! requests.
//!
//! Two paths share the slicing logic:
//!
//! * [`ShardedDispatcher::run`] — the real-arithmetic path: builds each
//!   CG's input slice (its output rows plus the `kr - 1` halo rows),
//!   executes the plan per slice, and stitches the output. Output rows are
//!   computed with exactly the per-row arithmetic of the unsharded plan,
//!   so the stitched tensor is bit-identical to an unsharded run.
//! * [`ShardedDispatcher::time_batch`] — the accounting path the serving
//!   engine uses: per-slice timing comes from the [`PlanCache`], so after
//!   warmup a batch costs one map lookup, not a simulation.

use super::plan_cache::{CachedPlan, PlanCache};
use crate::conv::Conv2d;
use crate::error::SwdnnError;
use crate::plans::LowerCtx;
use std::sync::Arc;
use sw_perfmodel::ChipSpec;
use sw_sim::chip::LAUNCH_OVERHEAD_CYCLES;
use sw_sim::{run_multi_cg_on, FaultPlan};
use sw_tensor::{ConvShape, Layout, Tensor4};

/// Largest shard width usable when only `healthy` CGs are routable: the
/// biggest `k ≤ healthy` whose row split divides `shape.ro` (1 always
/// divides, so this is 0 only when `healthy` is 0 and the caller must take
/// the fallback chain).
pub fn effective_cgs(shape: &ConvShape, healthy: usize) -> usize {
    (1..=healthy)
        .rev()
        .find(|k| shape.ro.is_multiple_of(*k))
        .unwrap_or(0)
}

/// What a [`FaultPlan`] deterministically does to one CG's slice of one
/// accounted batch (see [`sample_slice_faults`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SliceFaults {
    /// Cycles lost to DMA backoff, DMA stalls, and CPE stalls — charged
    /// into the batch's wall time exactly like PR 1 charged executor
    /// retries.
    pub extra_cycles: u64,
    /// DMA re-issues that eventually succeeded.
    pub dma_retries: u64,
    /// Bus messages dropped on this slice (each one is the
    /// `EmptyInbox`-deadlock failure mode: the slice cannot complete).
    pub dropped_msgs: u64,
    /// A permanently-dead CPE sits in this CG: every dispatch fails.
    pub dead: bool,
    /// Some transfer exhausted the mesh's DMA retry budget.
    pub exhausted: bool,
}

impl SliceFaults {
    /// Did the slice fail (as opposed to merely running slow)?
    pub fn failed(&self) -> bool {
        self.dead || self.exhausted || self.dropped_msgs > 0
    }
}

/// Sample the fault outcome of `actor`'s slice of accounted batch
/// `batch_seq`, which moves `transfers` DMA requests.
///
/// The serving engine's hot path accounts batches from cached plan timing
/// rather than re-simulating 64 CPEs per request; this function gives that
/// accounting path the *same* seeded decision streams the mesh itself
/// consults (`FaultPlan::dma_attempt_fails` / `dma_stall` / `msg_dropped` /
/// `cpe_stall`), keyed by `(actor, batch_seq)` so every CG and every batch
/// sees an independent — but exactly reproducible — pattern. Failed DMA
/// attempts charge the retry policy's exponential backoff; exhausting the
/// per-transfer budget (or any dropped message, or a dead CPE) fails the
/// slice. To bound sampling cost on very large batches, at most 2048
/// transfers are drawn and the charged cycles are scaled back up by the
/// ceiling ratio.
pub fn sample_slice_faults(
    fault: &FaultPlan,
    actor: usize,
    batch_seq: u64,
    transfers: u64,
) -> SliceFaults {
    let mut out = SliceFaults::default();
    if fault.dead_mask != 0 {
        out.dead = true;
        return out;
    }
    if !fault.is_active() {
        return out;
    }
    const MAX_SAMPLED: u64 = 2_048;
    let sampled = transfers.clamp(1, MAX_SAMPLED);
    let scale = transfers.max(1).div_ceil(sampled);
    let mut extra = 0u64;
    for t in 0..sampled {
        let seq = batch_seq.wrapping_mul(0xF_4243).wrapping_add(t);
        extra += fault.dma_stall(actor, seq);
        let mut attempt = 0u32;
        while fault.dma_attempt_fails(actor, seq, attempt) {
            if attempt >= fault.retry.max_retries {
                out.exhausted = true;
                break;
            }
            extra += fault.retry.base_backoff_cycles << attempt;
            out.dma_retries += 1;
            attempt += 1;
        }
        if fault.msg_dropped(actor, actor ^ 1, seq) {
            out.dropped_msgs += 1;
        }
    }
    // A handful of nominal supersteps per batch pick up CPE stalls.
    for s in 0..8 {
        extra += fault.cpe_stall(actor, batch_seq.wrapping_mul(8).wrapping_add(s));
    }
    out.extra_cycles = extra.saturating_mul(scale);
    out
}

/// Splits convolutions across core groups.
#[derive(Clone, Copy, Debug)]
pub struct ShardedDispatcher {
    pub chip: ChipSpec,
    /// Core groups to shard over (1..=chip.core_groups).
    pub cgs: usize,
    /// Execution context shared by every batch this dispatcher runs: the
    /// per-CG slices of all requests execute on this one worker pool.
    pub rt: &'static sw_runtime::ExecutionContext,
}

/// Timing of one dispatched batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchTiming {
    /// Requests in the batch.
    pub requests: usize,
    /// Chip wall cycles for the whole batch: per-request slice cycles
    /// summed, plus one launch overhead.
    pub wall_cycles: u64,
    /// Wall time in µs of simulated time.
    pub wall_us: u64,
    /// Total flops across requests and CGs.
    pub total_flops: u64,
}

impl BatchTiming {
    /// Chip-level Gflops sustained over the batch.
    pub fn gflops_chip(&self, clock_ghz: f64) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        let secs = self.wall_cycles as f64 / (clock_ghz * 1e9);
        self.total_flops as f64 / secs / 1e9
    }
}

impl ShardedDispatcher {
    pub fn new(chip: ChipSpec, cgs: usize) -> Result<Self, SwdnnError> {
        if cgs < 1 || cgs > chip.core_groups {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("between 1 and {} core groups", chip.core_groups),
                got: format!("{cgs} core groups"),
            });
        }
        Ok(Self {
            chip,
            cgs,
            rt: sw_runtime::global(),
        })
    }

    /// Run every batch on an explicit [`sw_runtime::ExecutionContext`].
    pub fn on_runtime(mut self, rt: &'static sw_runtime::ExecutionContext) -> Self {
        self.rt = rt;
        self
    }

    /// The per-CG slice of `shape` on `cgs` core groups (§III-D): same
    /// batch and channels, `ro / cgs` output rows. Errors when the rows
    /// don't divide.
    pub fn slice_shape(shape: &ConvShape, cgs: usize) -> Result<ConvShape, SwdnnError> {
        if cgs == 0 || !shape.ro.is_multiple_of(cgs) {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("output rows divisible by {cgs} core groups"),
                got: format!("ro = {}", shape.ro),
            });
        }
        Ok(ConvShape {
            ro: shape.ro / cgs,
            ..*shape
        })
    }

    /// Account a batch of `requests` same-shape convolutions row-split
    /// over `cgs` core groups of `chip`, without simulating. The slice's
    /// timing is served by `cache` (one simulation on the first encounter
    /// of the slice shape, lookups after), and the cached entry is
    /// returned beside the batch timing. The engine passes its configured
    /// width and chip, the surviving width for a rerouted batch, and the
    /// degraded 4×4 chip for the fallback.
    pub fn time_batch(
        &self,
        cache: &PlanCache,
        shape: &ConvShape,
        requests: usize,
        cgs: usize,
        chip: ChipSpec,
    ) -> Result<(BatchTiming, Arc<CachedPlan>), SwdnnError> {
        let slice = Self::slice_shape(shape, cgs)?;
        let cached = cache.plan_on(self.rt, &chip, &slice)?;
        let n = requests as u64;
        // Each request's slices run concurrently across CGs (wall = slice
        // cycles); requests within the batch run back-to-back; the MPE
        // launch overhead is paid once per batch — the amortization that
        // makes batching worth the queueing delay.
        let wall_cycles = n * cached.timing.cycles + LAUNCH_OVERHEAD_CYCLES;
        let wall_us = (chip.cycles_to_seconds(wall_cycles) * 1e6).ceil() as u64;
        let timing = BatchTiming {
            requests,
            wall_cycles,
            wall_us,
            total_flops: n * shape.flops(),
        };
        Ok((timing, cached))
    }

    /// Execute one convolution row-sharded across the CGs, returning the
    /// stitched output and the multi-CG wall cycles.
    ///
    /// Each CG g computes output rows `[g·sro, (g+1)·sro)`, reading input
    /// rows `[g·sro, g·sro + sro + kr − 1)` — its slice plus the halo. Row
    /// r of the output depends only on input rows `[r, r + kr)` with the
    /// same reduction order the unsharded plan uses, so the stitched
    /// result is bit-identical to an unsharded run of the same plan
    /// family.
    pub fn run(
        &self,
        shape: &ConvShape,
        input: &Tensor4<f64>,
        filter: &Tensor4<f64>,
    ) -> Result<(Tensor4<f64>, u64), SwdnnError> {
        let slice = Self::slice_shape(shape, self.cgs)?;
        if input.shape() != shape.input_shape() {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{:?}", shape.input_shape()),
                got: format!("{:?}", input.shape()),
            });
        }
        let sro = slice.ro;
        let sri = slice.ri();
        let results = run_multi_cg_on(self.rt, self.cgs, |g| {
            let row0 = g * sro;
            // Copy this CG's input rows (slice + halo) into a dense slice
            // tensor — the private per-CG memory segment of §III-D.
            let mut sliced = Tensor4::zeros(slice.input_shape(), Layout::Nchw);
            for b in 0..slice.batch {
                for ni in 0..slice.ni {
                    for r in 0..sri {
                        for c in 0..slice.ci() {
                            sliced.set(b, ni, r, c, input.get(b, ni, row0 + r, c));
                        }
                    }
                }
            }
            let run = Conv2d::new(slice).and_then(|conv| {
                conv.on(LowerCtx::on_chip(self.chip).on_runtime(self.rt))
                    .forward(&sliced, filter)
            });
            match run {
                Ok(run) => (run.timing.stats, Ok((g, run.output))),
                Err(e) => (sw_sim::CgStats::default(), Err(e)),
            }
        });
        let (report, outputs) = results;
        let mut stitched = Tensor4::zeros(shape.output_shape(), Layout::Nchw);
        for out in outputs {
            let (g, out) = out?;
            let row0 = g * sro;
            for b in 0..shape.batch {
                for no in 0..shape.no {
                    for r in 0..sro {
                        for c in 0..shape.co {
                            stitched.set(b, no, row0 + r, c, out.get(b, no, r, c));
                        }
                    }
                }
            }
        }
        Ok((stitched, report.wall_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::conv2d_ref;
    use sw_tensor::init::lattice_tensor;

    fn shape() -> ConvShape {
        // ro = 8 divides across 4 CGs.
        ConvShape::new(16, 8, 8, 8, 8, 3, 3)
    }

    #[test]
    fn sharded_output_is_bit_identical_to_reference_and_unsharded() {
        let shape = shape();
        let d = ShardedDispatcher::new(ChipSpec::sw26010(), 4).unwrap();
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 61);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 62);
        let (sharded, wall) = d.run(&shape, &input, &filter).unwrap();
        let unsharded = Conv2d::new(shape)
            .unwrap()
            .forward(&input, &filter)
            .unwrap();
        assert_eq!(sharded.max_abs_diff(&unsharded.output), 0.0);
        let reference = conv2d_ref(shape, &input, &filter);
        assert_eq!(sharded.max_abs_diff(&reference), 0.0);
        assert!(wall > 0);
    }

    #[test]
    fn indivisible_rows_error_cleanly() {
        let d = ShardedDispatcher::new(ChipSpec::sw26010(), 4).unwrap();
        let odd = ConvShape::new(16, 8, 8, 6, 8, 3, 3);
        assert!(matches!(
            ShardedDispatcher::slice_shape(&odd, d.cgs),
            Err(SwdnnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn invalid_cg_counts_are_rejected() {
        let chip = ChipSpec::sw26010();
        assert!(ShardedDispatcher::new(chip, 0).is_err());
        assert!(ShardedDispatcher::new(chip, chip.core_groups + 1).is_err());
    }

    #[test]
    fn effective_cg_count_respects_row_divisibility() {
        let s = shape(); // ro = 8
        assert_eq!(effective_cgs(&s, 4), 4);
        assert_eq!(effective_cgs(&s, 3), 2, "3 doesn't divide 8; 2 does");
        assert_eq!(effective_cgs(&s, 1), 1);
        assert_eq!(effective_cgs(&s, 0), 0, "no healthy CGs → fallback");
        let odd = ConvShape::new(16, 8, 8, 6, 8, 3, 3); // ro = 6
        assert_eq!(effective_cgs(&odd, 4), 3);
    }

    #[test]
    fn fault_sampling_is_deterministic_and_inert_at_zero_rates() {
        let quiet = FaultPlan::none(11);
        let out = sample_slice_faults(&quiet, 0, 0, 1_000);
        assert_eq!(out, SliceFaults::default());
        assert!(!out.failed());

        let noisy = FaultPlan::none(11)
            .with_dma_fail_rate(0.3)
            .with_dma_stalls(0.2, 64);
        let a = sample_slice_faults(&noisy, 2, 7, 500);
        let b = sample_slice_faults(&noisy, 2, 7, 500);
        assert_eq!(a, b, "same (plan, actor, batch) must replay identically");
        assert!(a.extra_cycles > 0, "30% fail rate over 500 transfers");
        let other_cg = sample_slice_faults(&noisy, 3, 7, 500);
        assert_ne!(a, other_cg, "CGs draw independent streams");
    }

    #[test]
    fn total_dma_loss_exhausts_and_dead_cpes_fail_permanently() {
        let lost = FaultPlan::none(5).with_dma_fail_rate(1.0);
        let out = sample_slice_faults(&lost, 0, 0, 16);
        assert!(out.exhausted && out.failed());
        assert!(out.extra_cycles > 0, "every retry's backoff is charged");

        let dead = FaultPlan::none(5).with_dead_cpe(1, 1);
        let out = sample_slice_faults(&dead, 0, 0, 16);
        assert!(out.dead && out.failed());
    }

    #[test]
    fn routed_timing_matches_full_width_when_all_cgs_survive() {
        let cache = PlanCache::new();
        let d = ShardedDispatcher::new(ChipSpec::sw26010(), 4).unwrap();
        let (full, entry) = d.time_batch(&cache, &shape(), 4, 4, d.chip).unwrap();
        // The returned entry is the cached slice plan the timing charges.
        let slice = ShardedDispatcher::slice_shape(&shape(), 4).unwrap();
        assert!(Arc::ptr_eq(
            &entry,
            &cache.plan_on(d.rt, &d.chip, &slice).unwrap()
        ));
        assert_eq!(
            full.wall_cycles,
            4 * entry.timing.cycles + LAUNCH_OVERHEAD_CYCLES
        );
        // Narrower routing pays more cycles: each CG owns more rows.
        let (narrow, _) = d.time_batch(&cache, &shape(), 4, 2, d.chip).unwrap();
        assert!(narrow.wall_cycles > full.wall_cycles);
    }

    #[test]
    fn batch_timing_amortizes_launch_overhead() {
        let cache = PlanCache::new();
        let d = ShardedDispatcher::new(ChipSpec::sw26010(), 4).unwrap();
        let (one, _) = d.time_batch(&cache, &shape(), 1, 4, d.chip).unwrap();
        let (eight, _) = d.time_batch(&cache, &shape(), 8, 4, d.chip).unwrap();
        let per_req_batched = eight.wall_cycles as f64 / 8.0;
        assert!(
            per_req_batched < one.wall_cycles as f64,
            "batched per-request cost {per_req_batched} vs solo {}",
            one.wall_cycles
        );
        assert_eq!(eight.total_flops, 8 * shape().flops());
        assert!(eight.gflops_chip(d.chip.clock_ghz) > 0.0);
        // Second accounting of the same shape is pure cache hits.
        let s = cache.stats();
        assert!(s.plan_hits >= 1);
        assert_eq!(s.plan_misses, 1);
    }
}
