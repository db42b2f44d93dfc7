//! Property tests for the chaos-serving machinery: the per-CG circuit
//! breaker's state machine checked against an independent model, and the
//! end-to-end guarantee that a seeded fault stream produces identical
//! breaker transitions and serving numbers at any worker-pool thread
//! count.
//!
//! 1. **Threshold exactness** — from Closed, a breaker trips on exactly
//!    the `trip_after`-th *consecutive* failure, never earlier, and any
//!    interleaved success resets the streak (checked against a counter
//!    model over arbitrary outcome streams).
//! 2. **Single probe** — once tripped, no route is offered during the
//!    cooldown; afterwards exactly one probe is admitted no matter how
//!    often availability is asked, until the probe's outcome lands (or its
//!    admission is explicitly cancelled).
//! 3. **Thread-count independence** — a full chaos serving run (injected
//!    DMA faults, a dead CPE, priority traffic) replays
//!    number-for-number under `sw_runtime::with_threads` at 1, 4, and 8
//!    lanes: same completions, same drops, same breaker snapshot, same
//!    tags.
//! 4. **Pinned numbers** — the same run's tags, breaker snapshot, cycle
//!    totals and a digest of everything it produced equal literals, so an
//!    accounting rewrite is checked for bit identity, not only for
//!    determinism.
//! 5. **Exact percentiles** — a chaos run whose completions mix both
//!    tiers summarizes to the nearest-rank order statistics of its
//!    sorted latencies and drop waits.

use proptest::prelude::*;
use sw_tensor::ConvShape;
use swdnn::serve::{
    Availability, BatchPolicy, BreakerPolicy, BreakerState, CgBreaker, ChaosConfig, Completion,
    HealthBoard, Priority, RequestClass, ServeConfig, ServeEngine,
};
use swdnn::FaultPlan;

fn policy(trip_after: u32, cooldown_us: u64) -> BreakerPolicy {
    BreakerPolicy {
        trip_after,
        cooldown_us,
    }
}

/// Outcome streams: `true` = the CG's slice succeeded.
fn arb_outcomes() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn trips_exactly_at_the_configured_threshold(
        outcomes in arb_outcomes(),
        trip_after in 1u32..6,
    ) {
        let p = policy(trip_after, 1_000);
        let mut b = CgBreaker::default();
        // Independent model: a bare consecutive-failure counter.
        let mut streak = 0u32;
        for (i, &ok) in outcomes.iter().enumerate() {
            if b.state() != BreakerState::Closed {
                break; // Closed-phase property only; half-open is below.
            }
            let tripped = b.record(ok, i as u64, &p);
            streak = if ok { 0 } else { streak + 1 };
            prop_assert_eq!(
                tripped,
                streak == trip_after,
                "step {}: streak {} vs threshold {}",
                i, streak, trip_after
            );
            if streak > 0 && streak < trip_after {
                prop_assert_eq!(b.state(), BreakerState::Closed);
                prop_assert_eq!(b.consecutive_failures(), streak);
            }
            if tripped {
                prop_assert_eq!(
                    b.state(),
                    BreakerState::Open { until_us: i as u64 + 1_000 }
                );
                prop_assert_eq!(b.stats.trips, 1);
            }
        }
    }

    #[test]
    fn half_open_admits_exactly_one_probe_under_any_polling(
        cooldown_us in 100u64..10_000,
        asks_during in 0usize..6,
        asks_after in 1usize..6,
        probe_succeeds in (0u32..2).prop_map(|b| b == 1),
    ) {
        let p = policy(1, cooldown_us);
        let mut b = CgBreaker::default();
        prop_assert!(b.record(false, 0, &p), "trip_after 1 trips immediately");
        // However often the router asks during the cooldown, nothing routes.
        for i in 0..asks_during {
            let t = (i as u64 * cooldown_us.saturating_sub(1)) / asks_during.max(1) as u64;
            prop_assert_eq!(b.availability(t), Availability::Unavailable);
        }
        // After the cooldown, the first ask admits the single probe and
        // every further ask is refused until the outcome lands.
        prop_assert_eq!(b.availability(cooldown_us), Availability::Probe);
        for _ in 0..asks_after {
            prop_assert_eq!(b.availability(cooldown_us), Availability::Unavailable);
        }
        prop_assert_eq!(b.stats.probes, 1);
        let retrip = b.record(probe_succeeds, cooldown_us, &p);
        if probe_succeeds {
            prop_assert!(!retrip);
            prop_assert_eq!(b.state(), BreakerState::Closed);
            prop_assert_eq!(b.availability(cooldown_us), Availability::Ready);
        } else {
            prop_assert!(retrip, "failed probe must re-open");
            prop_assert_eq!(
                b.state(),
                BreakerState::Open { until_us: 2 * cooldown_us }
            );
        }
    }

    #[test]
    fn board_transitions_replay_identically_for_a_seeded_stream(
        seed in 0u64..1_000,
        cgs in 2usize..5,
    ) {
        // Drive two boards with the identical derived outcome stream and
        // demand identical routes, trip points, and snapshots — the board
        // must have no hidden state beyond what the stream determines.
        let run = || {
            let mut board = HealthBoard::new(cgs, policy(2, 500));
            let mut log = Vec::new();
            let mut rng = seed;
            for step in 0u64..40 {
                let now = step * 100;
                let route = board.route(now);
                for g in route.cgs.iter() {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let ok = (rng >> 33) % 4 != 0; // 25% failure rate
                    board.record(g, ok, now);
                }
                log.push((route.cgs, route.probes, board.open_count()));
            }
            (log, board.totals(), board.snapshot())
        };
        prop_assert_eq!(run(), run());
    }
}

/// One fixed chaos serving scenario: mixed-priority traffic over a flaky
/// chip with one dead CPE, returning an exhaustive fingerprint of
/// everything the run produced.
#[allow(clippy::type_complexity)]
fn chaos_fingerprint() -> (
    Vec<(u64, u64, &'static str)>,
    Vec<(Option<u64>, &'static str)>,
    Vec<(&'static str, swdnn::serve::CgHealthStats)>,
    Vec<(String, u64)>,
    u64,
    u64,
) {
    let shape = ConvShape::new(16, 8, 8, 8, 8, 3, 3);
    let chaos = ChaosConfig {
        fault: FaultPlan::none(41)
            .with_dma_fail_rate(3e-3)
            .with_dma_stalls(1e-2, 512)
            .with_dead_cpe(1, 5),
        dead_cg: 2,
        breaker: BreakerPolicy {
            trip_after: 2,
            cooldown_us: 20_000,
        },
        dispatch_retries: 1,
    };
    let mut e = ServeEngine::new(ServeConfig {
        policy: BatchPolicy {
            max_batch: 4,
            deadline_us: 1_000,
        },
        queue_limit: 16,
        chaos: Some(chaos),
        ..ServeConfig::default()
    })
    .unwrap();
    // Alternate two burst shapes, both beyond what the chip clears before
    // the next burst: the even bursts overflow the bounded queue (sheds +
    // evictions of the low tier), the odd ones leave low-priority
    // stragglers queued behind a high burst long enough (batches run ≈ 2
    // ms against a 500 µs deadline) to time out.
    for i in 0..12u32 {
        let low = |j: u32| RequestClass {
            priority: Priority::Low,
            tenant: 1 + j % 2,
            deadline_us: Some(500),
        };
        let highs = if i % 2 == 0 { 18 } else { 8 };
        for j in 0..3u32 {
            let _ = e.submit_with(shape, low(j));
        }
        for _ in 0..highs {
            let _ = e.submit_with(shape, RequestClass::default());
        }
        e.run_until(e.now_us() + 500).unwrap();
    }
    e.drain().unwrap();
    (
        e.completions()
            .iter()
            .map(|c| (c.id, c.latency_us(), c.path.name()))
            .collect(),
        e.drops().iter().map(|d| (d.id, d.kind.name())).collect(),
        e.health_snapshot().unwrap(),
        e.tags.snapshot(),
        e.counters.fault_extra_cycles.get(),
        e.counters.busy_cycles.get(),
    )
}

#[test]
fn chaos_serving_is_identical_across_thread_counts() {
    let baseline = sw_runtime::with_threads(1, chaos_fingerprint);
    // The scenario must actually exercise the breaker machinery, or the
    // determinism claim is vacuous.
    assert!(
        baseline.2.iter().any(|(_, s)| s.trips > 0),
        "seeded stream must trip at least one breaker"
    );
    assert!(!baseline.0.is_empty() && !baseline.1.is_empty());
    for threads in [4, 8] {
        let other = sw_runtime::with_threads(threads, chaos_fingerprint);
        assert_eq!(
            baseline, other,
            "chaos run diverged at {threads} worker threads"
        );
    }
}

/// FNV-1a over the fingerprint's `Debug` rendering: one number that moves
/// if any completion, drop, breaker count, tag or cycle total does.
fn digest(fingerprint: &impl std::fmt::Debug) -> u64 {
    format!("{fingerprint:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn chaos_run_is_pinned() {
    let fp = chaos_fingerprint();
    assert_eq!((fp.0.len(), fp.1.len()), (144, 48), "completions, drops");
    let tags: Vec<(&str, u64)> = fp.3.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(
        tags,
        [
            ("cg/0/success", 38),
            ("cg/1/success", 38),
            ("cg/2/failure", 3),
            ("cg/2/trip", 2),
            ("cg/3/success", 3),
            ("tenant/0/served", 144),
            ("tenant/0/shed", 12),
            ("tenant/1/evicted", 12),
            ("tenant/1/timed_out", 12),
            ("tenant/2/evicted", 6),
            ("tenant/2/timed_out", 6),
        ]
    );
    let cg2 = fp.2[2];
    assert_eq!(cg2.0, "open");
    assert_eq!(
        (cg2.1.successes, cg2.1.failures, cg2.1.trips, cg2.1.probes),
        (0, 3, 2, 1)
    );
    assert_eq!((fp.4, fp.5), (11_508_224, 46_189_024), "fault, busy cycles");
    assert_eq!(digest(&fp), 0x49ad_bf47_3848_394c);
}

/// The nearest-rank percentile by sorting: the element of rank
/// `round(pct/100 · (n − 1))` of a sorted copy, 0 when empty.
fn sorted_percentile(mut vals: Vec<u64>, pct: f64) -> u64 {
    if vals.is_empty() {
        return 0;
    }
    vals.sort_unstable();
    let rank = ((pct / 100.0) * (vals.len() - 1) as f64).round() as usize;
    vals[rank.min(vals.len() - 1)]
}

#[test]
fn summary_percentiles_are_the_sorted_nearest_rank() {
    let shape = ConvShape::new(16, 8, 8, 8, 8, 3, 3);
    let mut e = ServeEngine::new(ServeConfig {
        policy: BatchPolicy {
            max_batch: 4,
            deadline_us: 1_000,
        },
        queue_limit: 12,
        chaos: Some(ChaosConfig {
            fault: FaultPlan::none(7)
                .with_dma_fail_rate(3e-3)
                .with_dma_stalls(1e-2, 512),
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    })
    .unwrap();
    // Low requests queue first; a burst of high ones follows before the
    // chip clears them, evicting some that have waited and leaving others
    // past their deadline, and overflows the queue in the larger bursts.
    // In quiet stretches low requests complete.
    let low = |tenant: u64| RequestClass {
        priority: Priority::Low,
        tenant: tenant as u32,
        deadline_us: Some(1_500),
    };
    for i in 0..40u64 {
        for j in 0..(2 + i % 4) {
            let _ = e.submit_with(shape, low(j % 3));
        }
        e.run_until(e.now_us() + 200).unwrap();
        for _ in 0..(2 + 3 * (i % 5)) {
            let _ = e.submit_with(shape, RequestClass::default());
        }
        e.run_until(e.now_us() + 400 + 300 * (i % 7)).unwrap();
    }
    e.drain().unwrap();

    let latencies = |keep: fn(&Completion) -> bool| -> Vec<u64> {
        e.completions()
            .iter()
            .filter(|c| keep(c))
            .map(Completion::latency_us)
            .collect()
    };
    let low = latencies(|c| c.priority == Priority::Low);
    let high = latencies(|c| c.priority == Priority::High);
    let waits: Vec<u64> = e.drops().iter().map(|d| d.drop_us - d.arrival_us).collect();
    assert!(
        !low.is_empty() && !high.is_empty() && !waits.is_empty(),
        "the run must complete both tiers and drop some: {} low, {} high, {} drops",
        low.len(),
        high.len(),
        waits.len()
    );
    let all = latencies(|_| true);
    let s = e.summary();
    assert_eq!(
        (
            s.p50_latency_us,
            s.p99_latency_us,
            s.high_p99_latency_us,
            s.shed_p99_wait_us
        ),
        (
            sorted_percentile(all.clone(), 50.0),
            sorted_percentile(all, 99.0),
            sorted_percentile(high, 99.0),
            sorted_percentile(waits, 99.0),
        )
    );
    assert_ne!(
        s.p99_latency_us, s.high_p99_latency_us,
        "the high tier's p99 must come from its own refill"
    );
    assert!(s.shed_p99_wait_us > 0, "some drops must have waited");
}
