//! Bucketized, overlap-aware gradient collectives.
//!
//! PR 7's trainer did one monolithic allreduce after all backward work
//! finished — correct, but it serialized the step into `compute; comm`.
//! This module cuts the flattened gradient into fixed-size **buckets**
//! and launches each bucket's allreduce as soon as backward has produced
//! it, so communication overlaps the tail of backward compute exactly
//! like a real DDP bucketing engine.
//!
//! Three invariants make that safe here:
//!
//! 1. **Numerics never move.** The reduced gradient is defined per
//!    parameter as the left-to-right sum over *global microbatch index*
//!    (the test oracle `reduce_fixed_order`). Summation is
//!    element-wise, so partitioning the parameter axis into buckets
//!    cannot change a single bit — [`reduce_bucketized`] is bit-equal to
//!    the monolithic reduce at every bucket size, and a property test
//!    pins it.
//! 2. **Readiness is modeled from the backward walk.** Backward visits
//!    layers last-to-first, while `take_gradients` flattens in forward
//!    layer order — so the *tail* of the flat vector is produced first.
//!    Bucket `[lo, hi)` becomes ready when the final microbatch's
//!    backward sweep passes parameter `lo`:
//!    `ready = end − backward_fraction·mb_us·(lo/total)`.
//! 3. **Contention is priced, not ignored.** Every bucket's
//!    [`CollectiveSchedule`] executes against one shared
//!    [`LinkOccupancy`], so buckets in flight at the same time serialize
//!    on send ports, receive ports, and group uplinks
//!    ([`sw_perfmodel::NetworkModel`]).
//!
//! The module also owns microbatch sharding: ragged contiguous
//! assignment ([`shard_microbatches`]) and the deterministic
//! round-robin reshard the elastic trainer applies when a chip dies
//! mid-step ([`reshard_on_failure`]).

use crate::error::SwdnnError;
use std::ops::Range;
use sw_perfmodel::{AllreduceKind, CollectiveSchedule, LinkOccupancy, NetworkModel};

/// Partition of the flattened parameter axis into contiguous buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketPlan {
    /// Total flattened parameters.
    pub total_params: usize,
    /// Ascending, contiguous, non-empty ranges covering `0..total`.
    pub buckets: Vec<Range<usize>>,
}

impl BucketPlan {
    /// One bucket spanning everything — the monolithic PR 7 behavior.
    pub fn single(total_params: usize) -> Self {
        let mut buckets = Vec::new();
        if total_params > 0 {
            buckets.push(0..total_params);
        }
        Self {
            total_params,
            buckets,
        }
    }

    /// Cut into buckets of `bucket_params` parameters (the last bucket
    /// takes the ragged remainder). `bucket_params == 0` degrades to a
    /// single bucket.
    pub fn fixed_size(total_params: usize, bucket_params: usize) -> Self {
        if bucket_params == 0 || bucket_params >= total_params {
            return Self::single(total_params);
        }
        let mut buckets = Vec::new();
        let mut lo = 0usize;
        while lo < total_params {
            let hi = (lo + bucket_params).min(total_params);
            buckets.push(lo..hi);
            lo = hi;
        }
        Self {
            total_params,
            buckets,
        }
    }

    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// Bucketized fixed-order reduction: per bucket, sum the microbatch
/// shards strictly left to right in global index order. Because the sum
/// is element-wise, the concatenated result is bit-identical to the
/// left-to-right sum over the whole vector — at every bucket size.
pub fn reduce_bucketized(per_microbatch: &[Vec<f64>], plan: &BucketPlan) -> Vec<f64> {
    let Some(first) = per_microbatch.first() else {
        return Vec::new();
    };
    assert_eq!(first.len(), plan.total_params, "plan must match gradient");
    let mut acc = vec![0.0f64; plan.total_params];
    for bucket in &plan.buckets {
        for g in per_microbatch {
            assert_eq!(g.len(), acc.len(), "gradient shards must agree in length");
            for i in bucket.clone() {
                acc[i] += g[i];
            }
        }
    }
    acc
}

/// Ragged contiguous microbatch assignment: chip `i` of `chips` owns a
/// contiguous run of global microbatch indices, the first `M mod C`
/// chips taking one extra. Deterministic, order-preserving (chip `i`'s
/// run starts where chip `i−1`'s ends), and total — every index is owned
/// exactly once. Errors only when some chip would own nothing.
pub fn shard_microbatches(
    microbatches: usize,
    chips: usize,
) -> Result<Vec<Range<usize>>, SwdnnError> {
    if chips == 0 || microbatches < chips {
        return Err(SwdnnError::InsufficientMicrobatches {
            microbatches,
            chips,
        });
    }
    let base = microbatches / chips;
    let extra = microbatches % chips;
    let mut out = Vec::with_capacity(chips);
    let mut lo = 0usize;
    for i in 0..chips {
        let n = base + usize::from(i < extra);
        out.push(lo..lo + n);
        lo += n;
    }
    debug_assert_eq!(lo, microbatches);
    Ok(out)
}

/// Redistribute the failed chip's *entire* assignment round-robin over
/// the survivors (ascending position order, cycling). Returns one extra
/// index list per position in `assignment`; the victim's own list is
/// empty. A failed chip's partial gradients die with it, so every one of
/// its microbatches is recomputed by a survivor — zero lost work, and
/// because survivors feed the same fixed-order reduction, zero numeric
/// drift.
pub fn reshard_on_failure(assignment: &[Range<usize>], victim: usize) -> Vec<Vec<usize>> {
    let mut extra: Vec<Vec<usize>> = vec![Vec::new(); assignment.len()];
    let survivors: Vec<usize> = (0..assignment.len()).filter(|&p| p != victim).collect();
    if survivors.is_empty() {
        return extra;
    }
    for (k, idx) in assignment[victim].clone().enumerate() {
        extra[survivors[k % survivors.len()]].push(idx);
    }
    extra
}

/// One bucket's allreduce as it actually ran on the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BucketSpan {
    /// Bucket index in the [`BucketPlan`].
    pub bucket: usize,
    /// Parameter range `[lo, hi)`.
    pub lo: usize,
    pub hi: usize,
    /// Payload bytes (8 per parameter).
    pub bytes: u64,
    pub kind: AllreduceKind,
    /// When backward finished producing the bucket, µs (absolute).
    pub ready_us: f64,
    /// When the first transfer started (≥ ready when links were busy).
    pub start_us: f64,
    /// When the allgather finished on every member.
    pub finish_us: f64,
}

/// The whole step's gradient communication, bucket by bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveReport {
    /// Schedule a monolithic reduce of the full tensor would pick —
    /// the headline the legacy `AllreduceReport` keeps carrying.
    pub kind: AllreduceKind,
    pub buckets: usize,
    /// Full gradient payload, bytes.
    pub tensor_bytes: u64,
    /// Σ per-bucket wire time (start→finish), µs.
    pub comm_us: f64,
    /// When the last bucket finished, µs (absolute).
    pub finish_us: f64,
    /// Wire time hidden under backward compute, µs:
    /// `Σ max(0, min(finish, compute_end) − start)`.
    pub hidden_us: f64,
    /// `1000 · hidden / comm` (0 when there is no wire time at all).
    pub overlap_permille: u64,
    /// Bytes the busiest member put on the wire, summed over buckets.
    pub wire_bytes_per_chip: u64,
    pub spans: Vec<BucketSpan>,
}

/// Execute every bucket's allreduce over the shared occupancy.
///
/// Buckets launch in *descending index order* — the tail of the flat
/// gradient is produced first by backward, so the highest bucket has the
/// earliest `ready_us`. Each bucket independently picks ring or tree for
/// its own size (small ragged tails ride the tree, big buckets the
/// ring), and all of them contend for the same ports and uplinks in
/// `occ`. `compute_end_us` is the global end of backward compute, used
/// only for the overlap accounting.
pub fn run_collective(
    model: &NetworkModel,
    occ: &mut LinkOccupancy,
    members: &[usize],
    plan: &BucketPlan,
    ready_us: &[f64],
    compute_end_us: f64,
) -> CollectiveReport {
    assert_eq!(ready_us.len(), plan.len(), "one ready time per bucket");
    let tensor_bytes = (plan.total_params * 8) as u64;
    let kind = CollectiveSchedule::plan(&model.spec, members, tensor_bytes).kind;
    let mut spans = Vec::with_capacity(plan.len());
    let mut comm_us = 0.0;
    let mut hidden_us = 0.0;
    let mut finish_us = compute_end_us;
    let mut wire_bytes_per_chip = 0u64;
    for b in (0..plan.len()).rev() {
        let range = &plan.buckets[b];
        let bytes = ((range.end - range.start) * 8) as u64;
        let sched = CollectiveSchedule::plan(&model.spec, members, bytes);
        let cost = model.execute(occ, &sched, ready_us[b]);
        let dur = cost.finish_us - cost.start_us;
        comm_us += dur;
        hidden_us += (cost.finish_us.min(compute_end_us) - cost.start_us).max(0.0);
        finish_us = finish_us.max(cost.finish_us);
        wire_bytes_per_chip += sched.wire_bytes_per_chip();
        spans.push(BucketSpan {
            bucket: b,
            lo: range.start,
            hi: range.end,
            bytes,
            kind: sched.kind,
            ready_us: ready_us[b],
            start_us: cost.start_us,
            finish_us: cost.finish_us,
        });
    }
    let overlap_permille = if comm_us > 0.0 {
        (1000.0 * hidden_us / comm_us).round() as u64
    } else {
        0
    };
    CollectiveReport {
        kind,
        buckets: plan.len(),
        tensor_bytes,
        comm_us,
        finish_us,
        hidden_us,
        overlap_permille,
        wire_bytes_per_chip,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::allreduce::reduce_fixed_order;
    use sw_perfmodel::{InterconnectSpec, Topology};

    fn shards(m: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
        // Deterministic awkward values: sums round differently if the
        // order or grouping changes.
        (0..m)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let x = ((i as u64 + 1) * 2654435761 + (j as u64) * 40503 + seed) % 997;
                        (x as f64 - 498.0) / 313.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bucketized_reduce_is_bit_identical_to_monolithic() {
        let g = shards(7, 103, 5);
        let want = reduce_fixed_order(&g);
        for bucket_params in [1usize, 2, 7, 16, 50, 103, 1000] {
            let plan = BucketPlan::fixed_size(103, bucket_params);
            let got = reduce_bucketized(&g, &plan);
            assert_eq!(got, want, "bucket_params={bucket_params} drifted");
        }
    }

    #[test]
    fn fixed_size_plans_cover_everything_once() {
        let plan = BucketPlan::fixed_size(10, 3);
        assert_eq!(plan.buckets, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(BucketPlan::fixed_size(10, 0).len(), 1);
        assert_eq!(BucketPlan::fixed_size(10, 99).len(), 1);
        assert!(BucketPlan::single(0).is_empty());
    }

    #[test]
    fn ragged_sharding_is_contiguous_and_total() {
        let s = shard_microbatches(8, 3).unwrap();
        assert_eq!(s, vec![0..3, 3..6, 6..8]);
        let even = shard_microbatches(8, 4).unwrap();
        assert_eq!(even, vec![0..2, 2..4, 4..6, 6..8]);
        assert!(matches!(
            shard_microbatches(2, 3),
            Err(SwdnnError::InsufficientMicrobatches {
                microbatches: 2,
                chips: 3
            })
        ));
        assert!(shard_microbatches(5, 0).is_err());
    }

    #[test]
    fn reshard_spreads_the_victims_whole_assignment() {
        let assignment = shard_microbatches(8, 3).unwrap(); // 3,3,2
        let extra = reshard_on_failure(&assignment, 0);
        assert!(extra[0].is_empty(), "victim receives nothing");
        // Victim owned 0,1,2 → round-robin over survivors 1,2.
        assert_eq!(extra[1], vec![0, 2]);
        assert_eq!(extra[2], vec![1]);
        let total: usize = extra.iter().map(|e| e.len()).sum();
        assert_eq!(total, 3, "zero lost microbatches");
    }

    #[test]
    fn earlier_ready_buckets_overlap_compute() {
        let model = NetworkModel::new(InterconnectSpec::sw_cluster(), Topology::flat());
        let members = [0usize, 1, 2, 3];
        let plan = BucketPlan::fixed_size(4000, 1000);
        let compute_end = 1000.0;
        // Tail bucket ready well before compute end; head bucket at it.
        let ready = vec![1000.0, 900.0, 800.0, 700.0];
        let mut occ = LinkOccupancy::new();
        let r = run_collective(&model, &mut occ, &members, &plan, &ready, compute_end);
        assert_eq!(r.buckets, 4);
        assert!(r.hidden_us > 0.0, "tail buckets must hide under compute");
        assert!(r.overlap_permille > 0);
        assert!(r.finish_us > compute_end);
        // Spans launch tail-first and stay within [ready, finish].
        assert_eq!(r.spans[0].bucket, 3);
        for s in &r.spans {
            assert!(s.start_us >= s.ready_us - 1e-9);
            assert!(s.finish_us > s.start_us);
        }
        // Non-overlapped comparator: same buckets all released at
        // compute end must finish strictly later.
        let mut occ2 = LinkOccupancy::new();
        let flat_ready = vec![compute_end; plan.len()];
        let r2 = run_collective(&model, &mut occ2, &members, &plan, &flat_ready, compute_end);
        assert!(
            r.finish_us < r2.finish_us,
            "overlap {} must beat serial {}",
            r.finish_us,
            r2.finish_us
        );
        assert_eq!(r2.hidden_us, 0.0);
    }

    #[test]
    fn single_chip_collective_is_free() {
        let model = NetworkModel::new(InterconnectSpec::sw_cluster(), Topology::flat());
        let plan = BucketPlan::single(646);
        let mut occ = LinkOccupancy::new();
        let r = run_collective(&model, &mut occ, &[0], &plan, &[500.0], 500.0);
        assert_eq!(r.comm_us, 0.0);
        assert_eq!(r.finish_us, 500.0);
        assert_eq!(r.wire_bytes_per_chip, 0);
        assert_eq!(r.overlap_permille, 0);
    }
}
