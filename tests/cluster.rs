//! Cluster-level determinism and resilience suite.
//!
//! Four properties the multi-chip layer must hold, all end to end:
//!
//! 1. **Gradient bit-identity.** Data-parallel training produces the
//!    exact same parameters at 1/2/4/8 chips (and ragged counts), every
//!    worker-pool thread count, and every gradient bucket size — because
//!    the reduction order is fixed by microbatch index, not by the
//!    collective schedule, the bucketing, or the host schedule.
//! 2. **Routing determinism.** The fleet's routing-decision fingerprint
//!    and every serving number derived from it replay bit-for-bit across
//!    runs and thread counts.
//! 3. **Failure without loss.** Killing a serving chip with queued work
//!    reroutes everything to survivors; killing a *training* chip
//!    mid-step reshards its microbatches onto survivors and the step
//!    finishes with parameters identical to a healthy step.
//! 4. **Overlap is time-only.** Bucketized overlap strictly reduces the
//!    modeled step time and moves the `collective_overlap_permille`
//!    gauge without touching a parameter bit.
//!
//! Beside them, a digest pins the host engine's absolute parameter bits
//! after three steps, and a misfit batch is a `ShapeMismatch`.
//!
//! `SWDNN_CHIP_FAULT_SEED` reseeds the chip-failure fault plan (CI runs
//! the suite once under `SWDNN_THREADS=2` with it set); the assertions
//! are seed-independent because a rate-1.0 plan always kills the first
//! active chip and the seed only moves the fail *point* within the step.

use sw_sim::FaultPlan;
use sw_tensor::{Layout, Shape4, Tensor4};
use swdnn::cluster::{Cluster, ClusterConfig, DataParallelTrainer, TrainConfig};
use swdnn::layers::Engine;
use swdnn::optim::Optimizer;
use swdnn::serve::{BatchPolicy, Priority, RequestClass, ServeConfig};
use swdnn::zoo::{lenet_12, serving_mix};
use swdnn::SwdnnError;

/// Deterministic two-class 12×12 task (same construction the trainer's
/// unit tests use, so failures here isolate the integration surface).
fn task(batch: usize, seed: u64) -> (Tensor4<f64>, Vec<usize>) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut x = Tensor4::zeros(Shape4::new(batch, 1, 12, 12), Layout::Nchw);
    let mut y = Vec::new();
    for b in 0..batch {
        let class = (next() % 2) as usize;
        for r in 0..12 {
            for c in 0..12 {
                let noise = (next() % 1000) as f64 / 1e4 - 0.05;
                let v = if (class == 0) == (c < 6) { 1.0 } else { 0.1 };
                x.set(b, 0, r, c, v + noise);
            }
        }
        y.push(class);
    }
    (x, y)
}

/// Build the suite's standard trainer (8 microbatches of 4 over
/// lenet_12) with the given config knobs, run 3 steps, and return the
/// flattened parameters.
fn train_params_cfg(cfg: TrainConfig) -> Vec<f64> {
    let (x, y) = task(32, 0xD474);
    let net = lenet_12(32 / cfg.microbatches, 1, 2, Engine::Host, 42).expect("build lenet");
    let mut t = DataParallelTrainer::new(net, Optimizer::sgd(0.1), cfg).expect("build trainer");
    for _ in 0..3 {
        t.step(&x, &y).expect("train step");
    }
    t.parameters()
}

/// Train 3 steps at `chips` chips and return the flattened parameters.
fn train_params(chips: usize) -> Vec<f64> {
    train_params_cfg(TrainConfig {
        chips,
        microbatches: 8,
        ..TrainConfig::default()
    })
}

#[test]
fn gradients_bit_identical_across_chips_and_thread_counts() {
    // The comparand: 1 chip on a single-threaded pool.
    let reference = sw_runtime::with_threads(1, || train_params(1));
    assert!(!reference.is_empty());
    for threads in [1usize, 4, 8] {
        for chips in [1usize, 2, 4, 8] {
            let got = sw_runtime::with_threads(threads, || train_params(chips));
            assert_eq!(
                got, reference,
                "parameters diverged at {chips} chips / {threads} threads"
            );
        }
    }
}

#[test]
fn bucketized_allreduce_bit_identical_at_every_chip_thread_bucket_combo() {
    // The property the whole collective refactor rests on: bucket size
    // is a pure timing knob. Monolithic 1-chip single-thread training is
    // the comparand; every (chips × threads × bucket size) combination
    // must reproduce it bit for bit — including ragged chip counts that
    // don't divide the 8 microbatches.
    let reference = sw_runtime::with_threads(1, || train_params(1));
    for threads in [1usize, 4, 8] {
        for chips in [1usize, 2, 3, 4, 5, 8] {
            for bucket_params in [Some(1), Some(50), Some(100), Some(300), None] {
                let got = sw_runtime::with_threads(threads, || {
                    train_params_cfg(TrainConfig {
                        chips,
                        microbatches: 8,
                        bucket_params,
                        ..TrainConfig::default()
                    })
                });
                assert_eq!(
                    got, reference,
                    "parameters diverged at {chips} chips / {threads} threads / \
                     bucket_params={bucket_params:?}"
                );
            }
        }
    }
}

/// FNV-1a over the parameters' bit patterns, in `parameters()` order.
fn params_digest(params: &[f64]) -> u64 {
    params
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn host_training_parameters_are_pinned() {
    // Host-engine lenet_12 after the suite's 3 steps (8 microbatches of
    // 4), pinned to the bits Listing 1's element-by-element loops gave:
    // the reference kernels and the conv layer's bias, bias-gradient and
    // weight-gradient loops must keep every addition in its order.
    let params = train_params(1);
    assert_eq!(
        (params.len(), params_digest(&params)),
        (646, 0x85bd_b5f7_cd70_25da),
        "host-engine parameters moved"
    );
}

#[test]
fn misfit_batch_is_a_structured_error() {
    // One 1×11×12 sample per microbatch where lenet_12 takes 1×12×12:
    // conv1 must say `ShapeMismatch`, not panic.
    let (x, y) = task(8, 0xD474);
    let x = Tensor4::from_fn(Shape4::new(8, 1, 11, 12), Layout::Nchw, |b, c, r, col| {
        x.get(b, c, r, col)
    });
    let net = lenet_12(1, 1, 2, Engine::Host, 42).expect("build lenet");
    let mut t =
        DataParallelTrainer::new(net, Optimizer::sgd(0.1), TrainConfig::default()).expect("build");
    match t.step(&x, &y) {
        Err(SwdnnError::ShapeMismatch { got, .. }) if got.contains("11x12") => {}
        other => panic!("expected conv1's ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn fewer_microbatches_than_chips_is_a_structured_error() {
    let net = lenet_12(4, 1, 2, Engine::Host, 42).expect("build lenet");
    let err = DataParallelTrainer::new(
        net,
        Optimizer::sgd(0.1),
        TrainConfig {
            chips: 8,
            microbatches: 4,
            ..TrainConfig::default()
        },
    )
    .err()
    .expect("4 microbatches cannot feed 8 chips");
    match err {
        SwdnnError::InsufficientMicrobatches {
            microbatches,
            chips,
        } => {
            assert_eq!((microbatches, chips), (4, 8));
        }
        other => panic!("expected InsufficientMicrobatches, got {other}"),
    }
}

/// The chip-failure fault seed: CI sets `SWDNN_CHIP_FAULT_SEED` to run
/// the suite under a different decision stream; the assertions hold for
/// any seed because the failure *choice* is rate-1.0 deterministic and
/// the seed only moves the within-step fail point.
fn chip_fault_seed() -> u64 {
    std::env::var("SWDNN_CHIP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA_17)
}

#[test]
fn training_chip_failure_reshards_and_keeps_parameters_bit_identical() {
    let (x, y) = task(32, 0xD474);
    let build = |fault: FaultPlan| {
        let net = lenet_12(4, 1, 2, Engine::Host, 42).expect("build lenet");
        DataParallelTrainer::new(
            net,
            Optimizer::sgd(0.1),
            TrainConfig {
                chips: 4,
                microbatches: 8,
                fault,
                ..TrainConfig::default()
            },
        )
        .expect("build trainer")
    };
    let mut healthy = build(FaultPlan::none(chip_fault_seed()));
    let mut faulty = build(FaultPlan::none(chip_fault_seed()).with_chip_fail_rate(1.0));
    for step in 0..3u64 {
        let rh = healthy.step(&x, &y).expect("healthy step");
        let rf = faulty.step(&x, &y).expect("faulty step");
        // Rate 1.0 kills the lowest-id active chip every step until one
        // survivor remains; each victim's whole assignment reshards.
        assert_eq!(rf.failed_chip, Some(step as usize), "victim order");
        assert!(rf.resharded_microbatches > 0, "no microbatch may be lost");
        assert!(
            rf.step_us > rh.step_us,
            "recomputation must cost simulated time"
        );
        assert_eq!(rf.loss, rh.loss, "losses must agree bit for bit");
        assert_eq!(
            healthy.parameters(),
            faulty.parameters(),
            "chip failure moved parameters at step {step}"
        );
    }
    assert_eq!(faulty.active_chips(), vec![3], "three failures in 3 steps");
    // A lone survivor keeps training rather than self-destructing.
    let last = faulty.step(&x, &y).expect("lone survivor step");
    assert_eq!(last.failed_chip, None);
    healthy.step(&x, &y).expect("healthy step 4");
    assert_eq!(healthy.parameters(), faulty.parameters());
}

#[test]
fn overlap_hides_wire_time_without_touching_numerics() {
    let (x, y) = task(32, 0xD474);
    let run = |overlap: bool| {
        let net = lenet_12(4, 1, 2, Engine::Host, 42).expect("build lenet");
        let mut t = DataParallelTrainer::new(
            net,
            Optimizer::sgd(0.1),
            TrainConfig {
                chips: 4,
                microbatches: 8,
                bucket_params: Some(100),
                overlap,
                topology: sw_perfmodel::Topology::sw_supernode(),
                ..TrainConfig::default()
            },
        )
        .expect("build trainer");
        let mut last = None;
        for _ in 0..3 {
            last = Some(t.step(&x, &y).expect("step"));
        }
        (last.unwrap(), t.parameters())
    };
    let (over, over_params) = run(true);
    let (serial, serial_params) = run(false);
    assert_eq!(over_params, serial_params, "overlap is a timing knob only");
    assert!(over.collective.buckets > 1);
    assert!(over.collective.overlap_permille > 0, "gauge must move");
    assert_eq!(serial.collective.overlap_permille, 0);
    assert!(
        over.step_us < serial.step_us,
        "overlapped {} µs must strictly beat serial {} µs",
        over.step_us,
        serial.step_us
    );
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch: 4,
            deadline_us: 1_000,
        },
        queue_limit: 32,
        ..ServeConfig::default()
    }
}

/// Replay a deterministic mixed-priority trace through a 4-chip fleet
/// and return (fingerprint, served, p99).
fn fleet_run() -> (u64, u64, u64) {
    let mut c = Cluster::new(ClusterConfig {
        chips: 4,
        serve: serve_config(),
        ..ClusterConfig::default()
    })
    .expect("build cluster");
    let shapes = serving_mix();
    for i in 0..48usize {
        let (_, shape) = shapes[i % shapes.len()];
        let class = RequestClass {
            priority: if i % 3 == 0 {
                Priority::Low
            } else {
                Priority::High
            },
            tenant: (i % 2) as u32,
            deadline_us: None,
        };
        c.submit_at(shape, class, (i as u64) * 120).expect("submit");
    }
    c.drain().expect("drain");
    let s = c.summary();
    (c.route_fingerprint(), s.served, s.p99_latency_us)
}

#[test]
fn fleet_percentiles_are_the_sorted_nearest_rank_over_every_chip() {
    let mut c = Cluster::new(ClusterConfig {
        chips: 4,
        serve: serve_config(),
        ..ClusterConfig::default()
    })
    .expect("build cluster");
    let shapes = serving_mix();
    for i in 0..96usize {
        let (_, shape) = shapes[i % shapes.len()];
        let priority = if i % 3 == 0 {
            Priority::Low
        } else {
            Priority::High
        };
        let class = RequestClass {
            priority,
            ..RequestClass::default()
        };
        c.submit_at(shape, class, (i as u64) * 60).expect("submit");
    }
    c.drain().expect("drain");
    let sorted_percentile = |high_only: bool, pct: f64| {
        let mut v: Vec<u64> = c
            .completions()
            .iter()
            .filter(|(_, d)| !high_only || d.priority == Priority::High)
            .map(|(_, d)| d.latency_us())
            .collect();
        v.sort_unstable();
        v[((pct / 100.0) * (v.len() - 1) as f64).round() as usize]
    };
    let s = c.summary();
    assert_eq!(s.served, 96);
    assert_eq!(
        (s.p50_latency_us, s.p99_latency_us, s.high_p99_latency_us),
        (
            sorted_percentile(false, 50.0),
            sorted_percentile(false, 99.0),
            sorted_percentile(true, 99.0)
        )
    );
    assert_ne!(
        s.p99_latency_us, s.high_p99_latency_us,
        "the low tier must reach the overall tail"
    );
}

#[test]
fn routing_fingerprint_is_identical_across_runs_and_thread_counts() {
    let reference = sw_runtime::with_threads(1, fleet_run);
    assert!(reference.1 > 0, "the trace must actually serve");
    for threads in [1usize, 4, 8] {
        let got = sw_runtime::with_threads(threads, fleet_run);
        assert_eq!(got, reference, "fleet replay diverged @ {threads} threads");
    }
    assert_eq!(fleet_run(), reference, "machine-default threads");
}

#[test]
fn chip_failure_loses_no_high_priority_work() {
    let mut c = Cluster::new(ClusterConfig {
        chips: 4,
        serve: serve_config(),
        ..ClusterConfig::default()
    })
    .expect("build cluster");
    let shapes = serving_mix();

    // Queue high-priority work on every chip without letting it dispatch
    // (everything submitted at t=0, nothing run yet).
    let mut offered_high = 0u64;
    let mut victim = None;
    for i in 0..24usize {
        let (_, shape) = shapes[i % shapes.len()];
        let class = RequestClass {
            priority: Priority::High,
            tenant: 0,
            deadline_us: None,
        };
        let (chip, _) = c.submit_at(shape, class, 0).expect("submit");
        offered_high += 1;
        victim.get_or_insert(chip);
    }
    let victim = victim.expect("at least one request routed");
    let queued = c.engine(victim).queue_depth();
    assert!(queued > 0, "the victim chip must hold queued work");

    let (moved, shed) = c.fail_chip(victim).expect("fail chip");
    assert_eq!(moved + shed, queued, "every evacuated request accounted");
    assert_eq!(c.engine(victim).queue_depth(), 0, "victim fully evacuated");

    c.drain().expect("drain survivors");
    let s = c.summary();
    // Zero lost high-priority work: all of it either completed on a
    // surviving chip or was shed through admission (counted in rejected).
    assert_eq!(
        s.served + s.rejected,
        offered_high,
        "high-priority accounting leak across chip failure"
    );
    assert_eq!(shed as u64, s.rejected);
    assert!(s.rerouted as usize == moved);

    // The dead chip takes no further traffic until recovery.
    for i in 0..8usize {
        let (_, shape) = shapes[i % shapes.len()];
        let (chip, _) = c
            .submit_at(shape, RequestClass::default(), c.now_us() + 1)
            .expect("submit after failure");
        assert_ne!(chip, victim, "down chip must be skipped");
    }
    c.recover_chip(victim);
    assert!(!c.is_down(victim));
    c.drain().expect("drain tail");
}

/// Every tag value of a small 4-chip fleet run, pinned: over capacity
/// through chip 0 (spills, sheds, evictions), tenant 1 low priority with
/// 400 µs deadlines (time-outs), chip 1 failed half-way through (its
/// queue rerouted) and recovered at three quarters.
#[test]
fn fleet_tag_values_are_pinned() {
    let mut c = Cluster::new(ClusterConfig {
        chips: 4,
        serve: ServeConfig {
            queue_limit: 8,
            ..serve_config()
        },
        ..ClusterConfig::default()
    })
    .expect("build cluster");
    let shapes = serving_mix();
    let n = 240usize;
    for i in 0..n {
        if i == n / 2 {
            c.fail_chip(1).expect("fail chip 1");
        }
        if i == 3 * n / 4 {
            c.recover_chip(1);
        }
        let (_, shape) = shapes[i % shapes.len()];
        let class = if i % 3 == 0 {
            RequestClass {
                priority: Priority::Low,
                tenant: 1,
                deadline_us: Some(400),
            }
        } else {
            RequestClass::default()
        };
        match c.submit_at(shape, class, (i as u64) * 100) {
            Ok(_) | Err(SwdnnError::Overloaded { .. }) => {}
            Err(e) => panic!("unexpected {e}"),
        }
    }
    c.drain().expect("drain");
    let s = c.summary();
    assert_eq!(
        (
            s.served,
            s.rejected,
            s.evicted,
            s.timed_out,
            s.spilled,
            s.rerouted
        ),
        (164, 27, 12, 37, 113, 8)
    );
    let owned = |pairs: &[(&str, u64)]| -> Vec<(String, u64)> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    };
    assert_eq!(
        c.tags.snapshot(),
        owned(&[
            ("chip/0/routed", 117),
            ("chip/0/shed", 27),
            ("chip/0/spill_in", 23),
            ("chip/1/failed", 1),
            ("chip/1/recovered", 1),
            ("chip/1/routed", 29),
            ("chip/1/spill_in", 29),
            ("chip/2/rerouted_in", 2),
            ("chip/2/routed", 59),
            ("chip/2/spill_in", 24),
            ("chip/3/rerouted_in", 6),
            ("chip/3/routed", 43),
            ("chip/3/spill_in", 37),
            ("link/ingress-0/busy_us", 1606),
            ("link/ingress-0/bytes", 11653120),
            ("link/ingress-1/busy_us", 398),
            ("link/ingress-1/bytes", 2887680),
            ("link/ingress-2/busy_us", 804),
            ("link/ingress-2/bytes", 5816320),
            ("link/ingress-3/busy_us", 602),
            ("link/ingress-3/bytes", 4403200),
        ])
    );
    let engines: [&[(&str, u64)]; 4] = [
        &[
            ("tenant/0/served", 62),
            ("tenant/0/shed", 15),
            ("tenant/1/evicted", 12),
            ("tenant/1/served", 2),
            ("tenant/1/shed", 12),
            ("tenant/1/timed_out", 14),
        ],
        &[
            ("tenant/0/served", 14),
            ("tenant/1/served", 2),
            ("tenant/1/timed_out", 5),
        ],
        &[
            ("tenant/0/served", 40),
            ("tenant/1/served", 11),
            ("tenant/1/timed_out", 8),
        ],
        &[
            ("tenant/0/served", 29),
            ("tenant/1/served", 4),
            ("tenant/1/timed_out", 10),
        ],
    ];
    for (chip, want) in engines.into_iter().enumerate() {
        assert_eq!(c.engine(chip).tags.snapshot(), owned(want), "chip {chip}");
    }
}

#[test]
fn every_chip_down_surfaces_a_structured_error() {
    let mut c = Cluster::new(ClusterConfig {
        chips: 2,
        serve: serve_config(),
        ..ClusterConfig::default()
    })
    .expect("build cluster");
    c.fail_chip(0).expect("fail 0");
    c.fail_chip(1).expect("fail 1");
    let err = c
        .submit_at(serving_mix()[0].1, RequestClass::default(), 0)
        .expect_err("no chip can take the request");
    match err {
        SwdnnError::ClusterUnavailable { chips } => assert_eq!(chips, 2),
        other => panic!("expected ClusterUnavailable, got {other}"),
    }
}
