//! Integration tests for the batch-serving engine (`swdnn::serve`): the
//! end-to-end claims the serving PR makes, exercised through the public
//! API only.
//!
//! 1. **Plan-cache determinism** — repeated lookups of the same shape hit
//!    the cache and return the exact entry (same cycles, same model), and
//!    a whole engine run is reproducible number-for-number.
//! 2. **Backpressure** — a bounded queue sheds overload with
//!    [`SwdnnError::Overloaded`], never with OOM or panic, and recovers
//!    after a drain.
//! 3. **Micro-batching** — the cap trigger fires on a full same-shape
//!    batch; the deadline trigger releases stragglers.
//! 4. **Sharded correctness** — a convolution row-sharded over the 4
//!    simulated CGs is bit-identical to the unsharded plan and to the
//!    scalar reference.
//! 5. **Exact percentiles** — the latency [`Histogram`] answers every
//!    quantile with the nearest-rank element of a sorted copy, and a
//!    merge is the concatenation of its inputs.

use proptest::prelude::*;
use std::sync::Arc;
use sw_obs::Histogram;
use sw_tensor::{conv2d_ref, init::lattice_tensor, ConvShape, Layout};
use swdnn::serve::{BatchPolicy, PlanCache, ServeConfig, ServeEngine, ShardedDispatcher};
use swdnn::{ChipSpec, Conv2d, SwdnnError};

/// Small shape whose `ro = 8` splits across the chip's 4 CGs.
fn shape() -> ConvShape {
    ConvShape::new(16, 8, 8, 8, 8, 3, 3)
}

fn engine(max_batch: usize, queue_limit: usize) -> ServeEngine {
    ServeEngine::new(ServeConfig {
        policy: BatchPolicy {
            max_batch,
            deadline_us: 2_000,
        },
        queue_limit,
        ..ServeConfig::default()
    })
    .unwrap()
}

#[test]
fn plan_cache_hits_are_deterministic_and_identical() {
    let cache = PlanCache::new();
    let chip = ChipSpec::sw26010();
    let rt = sw_runtime::global();
    let first = cache.plan_on(rt, &chip, &shape()).unwrap();
    for _ in 0..10 {
        let again = cache.plan_on(rt, &chip, &shape()).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "hits return the cached entry");
        assert_eq!(first.timing.cycles, again.timing.cycles);
        assert_eq!(first.model.gflops_per_cg, again.model.gflops_per_cg);
    }
    let s = cache.stats();
    assert_eq!((s.plan_hits, s.plan_misses), (10, 1));
    assert!(s.plan_hit_rate() > 0.9);

    // A fresh cache re-derives the exact same timing: the simulation is
    // deterministic, so cached and uncached answers can never diverge.
    let fresh = PlanCache::new().plan_on(rt, &chip, &shape()).unwrap();
    assert_eq!(fresh.timing.cycles, first.timing.cycles);
    assert_eq!(fresh.blocking, first.blocking);
}

#[test]
fn engine_runs_are_reproducible_end_to_end() {
    let run = || {
        let mut e = engine(4, 64);
        for _ in 0..12 {
            e.submit(shape()).unwrap();
        }
        e.drain().unwrap();
        let s = e.summary();
        (
            s.served,
            s.batches,
            s.p50_latency_us,
            s.p99_latency_us,
            e.counters.busy_cycles.get(),
        )
    };
    assert_eq!(run(), run(), "same load, same numbers");
}

#[test]
fn bounded_queue_sheds_overload_and_recovers() {
    let mut e = engine(4, 16);
    let mut rejected = 0u64;
    for _ in 0..160 {
        match e.submit(shape()) {
            Ok(_) => {}
            Err(SwdnnError::Overloaded {
                depth,
                limit,
                retry_after_us,
            }) => {
                assert_eq!((depth, limit), (16, 16));
                assert!(
                    retry_after_us > 0,
                    "a shed response must carry a usable retry hint"
                );
                rejected += 1;
            }
            Err(other) => panic!("overload must reject with Overloaded, got {other}"),
        }
    }
    assert_eq!(rejected, 144, "everything past the bound is shed");
    assert_eq!(e.queue_depth(), 16);
    assert_eq!(e.drain().unwrap(), 16, "queued work still completes");
    // The engine is healthy again: new submissions are accepted and served.
    e.submit(shape()).unwrap();
    e.drain().unwrap();
    let s = e.summary();
    assert_eq!(s.served, 17);
    assert_eq!(s.rejected, 144);
}

#[test]
fn cap_trigger_batches_and_deadline_releases_stragglers() {
    let mut e = engine(4, 64);
    // A full batch releases immediately on the cap…
    for _ in 0..4 {
        e.submit(shape()).unwrap();
    }
    assert_eq!(e.poll().unwrap(), 4, "cap trigger at max_batch");
    // …while a lone straggler waits for its deadline, not forever.
    e.submit(shape()).unwrap();
    assert_eq!(e.poll().unwrap(), 0, "no trigger before the deadline");
    e.advance_us(2_000);
    assert_eq!(e.poll().unwrap(), 1, "deadline releases the straggler");
    let straggler = *e.completions().last().unwrap();
    assert!(straggler.latency_us() >= 2_000);
}

#[test]
fn sharded_run_matches_unsharded_and_reference_bit_for_bit() {
    let shape = shape();
    let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 17);
    let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 18);
    let chip = ChipSpec::sw26010();

    let unsharded = Conv2d::new(shape)
        .unwrap()
        .forward(&input, &filter)
        .unwrap();
    let reference = conv2d_ref(shape, &input, &filter);
    for cgs in [1, 2, 4] {
        let d = ShardedDispatcher::new(chip, cgs).unwrap();
        let (out, wall) = d.run(&shape, &input, &filter).unwrap();
        assert_eq!(
            out.max_abs_diff(&unsharded.output),
            0.0,
            "{cgs}-way shard vs unsharded"
        );
        assert_eq!(out.max_abs_diff(&reference), 0.0, "{cgs}-way shard vs ref");
        assert!(wall > 0);
    }
}

#[test]
fn overload_does_not_improve_reported_p99() {
    // Regression test for latency accounting: shedding must never flatter
    // the completion percentiles. Serve the same total demand twice — once
    // within queue capacity, once at 10× overload where most requests are
    // shed — and require the overloaded run's reported p99 over *completed*
    // requests to be at least the uncontended one's.
    let run = |queue_limit: usize, offered: usize| {
        let mut e = engine(4, queue_limit);
        for _ in 0..offered {
            let _ = e.submit(shape());
        }
        e.drain().unwrap();
        e.summary()
    };
    let calm = run(64, 16);
    let overloaded = run(16, 160);
    assert_eq!(calm.rejected, 0);
    assert_eq!(overloaded.rejected, 144);
    assert!(
        overloaded.p99_latency_us >= calm.p99_latency_us,
        "shedding must not improve p99: overloaded {} vs calm {}",
        overloaded.p99_latency_us,
        calm.p99_latency_us
    );
    // The dropped requests live in their own histogram, not in p99.
    assert_eq!(overloaded.shed_p99_wait_us, 0, "sheds waited 0 µs in queue");
}

#[test]
fn serving_hits_cache_after_warmup_under_mixed_shapes() {
    // Two interleaved shapes: the batcher keeps them in separate batches
    // and each shape's plan is resolved exactly once.
    let other = ConvShape::new(16, 8, 16, 8, 8, 3, 3);
    let mut e = engine(4, 64);
    for round in 0..6 {
        for _ in 0..4 {
            e.submit(if round % 2 == 0 { shape() } else { other })
                .unwrap();
        }
        e.drain().unwrap();
    }
    let s = e.summary();
    assert_eq!(s.served, 24);
    let cs = e.cache_stats();
    assert_eq!(cs.plan_misses, 2, "one resolution per distinct slice shape");
    assert_eq!(cs.plan_hits, 4);
    assert_eq!(cs.plan_entries, 2);
}

/// The percentiles the serving summaries read, and the extremes.
const PCTS: [f64; 5] = [0.0, 50.0, 99.0, 99.9, 100.0];

/// The element of rank `round(pct/100 · (n − 1))` of `sorted`, 0 when
/// empty: the nearest-rank percentile by sorting.
fn nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize]
}

/// Multisets of every kind the histogram must answer exactly: spread
/// values, heavy duplication, all equal, and the empty and one-sample
/// sets.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        prop::collection::vec(0u64..u64::MAX, 0..300),
        prop::collection::vec(0u64..4, 0..300),
        (0u64..u64::MAX, 0usize..100).prop_map(|(v, n)| vec![v; n]),
        prop::collection::vec(0u64..1_000, 0..2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn histogram_quantiles_are_the_sorted_nearest_rank(
        a in arb_samples(),
        b in arb_samples(),
    ) {
        let mut h = Histogram::default();
        for &v in &a {
            h.record(v);
        }
        let mut sorted = a.clone();
        sorted.sort_unstable();
        // Every query reorders the one buffer; each must still see the
        // whole multiset, in either order of queries.
        for pct in PCTS.into_iter().chain(PCTS.into_iter().rev()) {
            prop_assert_eq!(h.quantile(pct), nearest_rank(&sorted, pct), "pct {}", pct);
        }

        // Merging equals concatenating: same length, same element at
        // every rank.
        h.merge(&b.iter().copied().collect());
        let mut both: Vec<u64> = a.iter().chain(&b).copied().collect();
        both.sort_unstable();
        prop_assert_eq!(h.len(), both.len());
        for pct in PCTS {
            prop_assert_eq!(h.quantile(pct), nearest_rank(&both, pct), "merged, pct {}", pct);
        }
        let last = both.len().saturating_sub(1).max(1) as f64;
        for (rank, &v) in both.iter().enumerate() {
            prop_assert_eq!(h.quantile(100.0 * rank as f64 / last), v, "merged, rank {}", rank);
        }
    }
}
