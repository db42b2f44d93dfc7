//! The `serve` artifact: a deterministic closed-loop load generator over
//! paper shapes against the batch-serving engine (`swdnn::serve`) —
//! plan-cache hit rate, p50/p99 request latency, chip-level Gflops, and
//! graceful rejection under 10× overload.
//!
//! The whole engine runs on a logical clock of simulated microseconds, so
//! every number here — latency percentiles included — is exactly
//! reproducible: `serve_bench.csv` pins them, and the serving SLOs (hit
//! rate, shedding, throughput) are asserted by this module's tests.

use crate::report::{f, Table};
use sw_tensor::ConvShape;
use swdnn::serve::{BatchPolicy, ServeConfig, ServeEngine, ServeSummary};
use swdnn::SwdnnError;

/// Paper shapes the serving load cycles over (Table III channels at the
/// canonical `B = 128`, `64×64` output — `ro = 64` splits evenly over the
/// 4 CGs).
fn serve_shapes() -> Vec<ConvShape> {
    vec![
        ConvShape::new(128, 64, 64, 64, 64, 3, 3),
        ConvShape::new(128, 128, 128, 64, 64, 3, 3),
        ConvShape::new(128, 128, 256, 64, 64, 3, 3),
    ]
}

/// Canonical bench engine configuration.
fn serve_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            deadline_us: 2_000,
        },
        queue_limit: 64,
        ..ServeConfig::default()
    }
}

/// Outcome of one full scenario run.
#[derive(Clone, Copy, Debug)]
struct LoadReport {
    /// Measured window (post-warmup) summary.
    pub summary: ServeSummary,
    /// Requests rejected with `Overloaded` during the 10× overload phase.
    pub overload_rejected: u64,
    pub overload_accepted: u64,
}

/// Run the closed-loop scenario:
///
/// 1. **warmup** — one full batch per shape, populating the plan cache;
/// 2. **measured window** — `rounds` rounds submitting one full batch per
///    shape and draining, with counters reset after warmup (so the cache
///    hit rate reflects steady state);
/// 3. **overload phase** — 10× the queue limit submitted with no
///    draining; everything past the bound must reject with
///    [`SwdnnError::Overloaded`] (measured-window stats are captured
///    before this phase so the SLO numbers stay clean).
fn run_scenario(rounds: usize) -> Result<LoadReport, SwdnnError> {
    let shapes = serve_shapes();
    let cfg = serve_config();
    let mut engine = ServeEngine::new(cfg)?;

    // Warmup: one cap-triggered batch per shape.
    for shape in &shapes {
        for _ in 0..cfg.policy.max_batch {
            engine.submit(*shape)?;
        }
        engine.drain()?;
    }
    engine.reset_measurements();

    // Measured closed loop.
    for _ in 0..rounds {
        for shape in &shapes {
            for _ in 0..cfg.policy.max_batch {
                engine.submit(*shape)?;
            }
            engine.drain()?;
            // A beat of idle time between bursts, like a real arrival gap.
            engine.advance_us(100);
        }
    }
    let summary = engine.summary();

    // Overload: 10× the queue bound with no draining. The queue must shed
    // load via Overloaded, never grow or panic.
    let mut overload_rejected = 0u64;
    let mut overload_accepted = 0u64;
    for i in 0..(cfg.queue_limit * 10) {
        match engine.submit(shapes[i % shapes.len()]) {
            Ok(_) => overload_accepted += 1,
            Err(SwdnnError::Overloaded {
                depth,
                limit,
                retry_after_us,
            }) => {
                // A shed response must carry usable backpressure context:
                // the full queue it bounced off and a non-zero retry hint.
                assert_eq!(depth, limit, "shed at depth {depth} below limit {limit}");
                assert!(retry_after_us > 0, "shed without a retry hint");
                overload_rejected += 1;
            }
            Err(e) => return Err(e),
        }
    }
    engine.drain()?;

    Ok(LoadReport {
        summary,
        overload_rejected,
        overload_accepted,
    })
}

/// Rounds of the committed `serve_bench.csv`.
const FULL_ROUNDS: usize = 12;

/// After warmup every request is served from the plan cache — the engine
/// re-times nothing, and the 4-CG row partition (§III-D) turns the per-CG
/// plan into chip-level throughput. Overload degrades to explicit
/// `Overloaded` rejections at the queue bound, never to unbounded memory.
pub fn serve() -> Vec<Table> {
    let rep = run_scenario(FULL_ROUNDS).unwrap_or_else(|e| panic!("serve scenario: {e}"));
    let s = rep.summary;
    let mut t = Table::new(
        "serve_bench",
        "Batch serving over paper shapes (simulated time)",
        &["metric", "value"],
    );
    for (metric, value) in [
        ("requests served", s.served.to_string()),
        ("batches dispatched", s.batches.to_string()),
        ("batch fill", f(s.batch_fill, 2)),
        ("p50 latency (us)", s.p50_latency_us.to_string()),
        ("p99 latency (us)", s.p99_latency_us.to_string()),
        ("chip Gflops", f(s.gflops_chip, 0)),
        ("plan-cache hit rate", f(s.plan_cache_hit_rate, 3)),
        ("10x overload rejected", rep.overload_rejected.to_string()),
        ("10x overload accepted", rep.overload_accepted.to_string()),
    ] {
        t.row(vec![metric.into(), value]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds the SLO unit test runs (same scenario, a quarter of the window).
    const SNAPSHOT_ROUNDS: usize = 3;

    #[test]
    fn scenario_meets_the_serving_slos() {
        let rep = run_scenario(SNAPSHOT_ROUNDS).unwrap();
        let s = rep.summary;
        assert_eq!(s.served as usize, SNAPSHOT_ROUNDS * 3 * 8);
        assert!(
            s.plan_cache_hit_rate > 0.9,
            "post-warmup hit rate {}",
            s.plan_cache_hit_rate
        );
        assert!(s.gflops_chip > 0.0);
        assert!(s.p99_latency_us >= s.p50_latency_us);
        assert!(rep.overload_rejected > 0, "10x overload must shed load");
        assert_eq!(
            rep.overload_accepted + rep.overload_rejected,
            (serve_config().queue_limit * 10) as u64
        );
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = run_scenario(2).unwrap();
        let b = run_scenario(2).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn serve_shapes_split_across_four_cgs() {
        for s in serve_shapes() {
            assert!(s.is_valid());
            assert_eq!(s.ro % 4, 0, "{s}");
        }
        assert!(serve_shapes().len() >= 3);
    }
}
