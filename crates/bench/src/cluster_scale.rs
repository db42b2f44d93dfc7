//! The `cluster` artifact: scaling sweeps of the multi-chip fleet
//! (serving) and the data-parallel trainer (training) at 1/2/4/8 chips.
//!
//! **Weak scaling** holds the *per-chip* load constant while the chip
//! count grows: the serving sweep offers `C ×` the single-chip arrival
//! rate to a `C`-chip [`swdnn::cluster::Cluster`], the training sweep
//! gives every chip the same number of microbatches per step. Perfect
//! scale-out doubles throughput with the chip count; the efficiency
//!
//! ```text
//! eff(C) = throughput(C) / (C × throughput(1))
//! ```
//!
//! captures everything lost to routing imbalance, interconnect time, and
//! allreduce overhead. Both sweeps run entirely on the deterministic
//! logical clock, so every efficiency figure is exact: the three
//! `cluster_*_scaling.csv` pin the curves, and this module's tests hold
//! the floor (`SCALING_MIN_EFFICIENCY`) at `GATED_CHIPS` chips.
//!
//! **Strong scaling** holds the *total* batch fixed while chips grow —
//! the regime where collective latency actually bites, because per-chip
//! compute shrinks while the gradient (and its wire time) does not. The
//! strong sweep runs the bucketized, overlap-aware collective on the
//! grouped supernode topology and, at every point, also runs the same
//! configuration with overlap disabled; overlap must *strictly* reduce the
//! modeled step time at every multi-chip point (`check_strong_gates`).

use crate::report::{f, Table};
use sw_perfmodel::Topology;
use sw_sim::fault::splitmix64_next;
use sw_tensor::{ConvShape, Layout, Shape4, Tensor4};
use swdnn::cluster::{Cluster, ClusterConfig, ClusterSummary, DataParallelTrainer, TrainConfig};
use swdnn::layers::Engine;
use swdnn::optim::Optimizer;
use swdnn::serve::{BatchPolicy, RequestClass, ServeConfig};
use swdnn::zoo::{lenet_12, serving_mix};
use swdnn::SwdnnError;

/// Chip counts the sweep covers.
const SCALING_CHIPS: [usize; 4] = [1, 2, 4, 8];

/// Requests offered *per chip* in the serving sweep (so a `C`-chip run
/// replays `C ×` this many arrivals at `C ×` the single-chip rate).
const SERVE_REQUESTS_PER_CHIP: usize = 80;

/// Mean inter-arrival gap of the single-chip serving load, logical µs.
/// A batch of 8 mix-shape requests serves in ≈ 2.3 ms, so one chip
/// sustains ≈ 3.5 req/ms fully batched; offering ≈ 1.4 req/ms keeps
/// every chip busy without driving the bounded queues into shedding.
const SERVE_BASE_GAP_US: f64 = 700.0;

/// Root seed for the serving arrival trace.
const CLUSTER_SEED: u64 = 0xC1A5_7E12_5EED;

/// Microbatches per chip per training step (weak scaling: the global
/// batch grows with the chip count, per-chip work stays fixed).
const TRAIN_MICROBATCHES_PER_CHIP: usize = 2;

/// Samples per microbatch (the master network's fixed batch size).
const TRAIN_MICROBATCH_SIZE: usize = 4;

/// Training steps measured per sweep point.
const TRAIN_STEPS: usize = 3;

/// Total microbatches of the strong-scaling sweep — fixed across chip
/// counts, so per-chip compute shrinks as chips grow.
const STRONG_TOTAL_MICROBATCHES: usize = 8;

/// Bucket size (parameters) of the strong sweep's collective. lenet_12
/// at 2 classes has 646 parameters, so this cuts the gradient into 7
/// buckets — enough in-flight collectives to exercise port contention.
const STRONG_BUCKET_PARAMS: usize = 100;

fn unit(state: &mut u64) -> f64 {
    ((splitmix64_next(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// The serving-shape mix for the cluster sweep: every [`serving_mix`]
/// shape at two batch sizes — 8 distinct shapes, enough consistent-hash
/// arcs that an 8-chip ring sees work on most chips *before* load
/// spilling evens out the rest.
fn cluster_mix() -> Vec<ConvShape> {
    let mut out = Vec::new();
    for (_, s) in serving_mix() {
        out.push(s);
        out.push(ConvShape::new(
            s.batch * 2,
            s.ni,
            s.no,
            s.ro,
            s.co,
            s.kr,
            s.kc,
        ));
    }
    out
}

/// Per-chip engine configuration for the sweep: the chaos bench's tight
/// batching over a queue deep enough that spilling, not shedding,
/// absorbs transient imbalance.
fn cluster_serve_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            deadline_us: 2_000,
        },
        queue_limit: 48,
        ..ServeConfig::default()
    }
}

/// One serving sweep point. `duration_us` and `fingerprint` are read only
/// by the determinism test.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(not(test), expect(dead_code))]
struct ServeScalePoint {
    pub chips: usize,
    pub summary: ClusterSummary,
    /// First arrival to last completion, logical µs.
    pub duration_us: u64,
    /// Requests served per *simulated* second.
    pub reqs_per_sim_sec: f64,
    /// Routing-decision digest (determinism comparand).
    pub fingerprint: u64,
}

/// Replay the weak-scaled open-loop trace against a `chips`-chip fleet.
/// Pure function of `(chips, requests_per_chip)` on the logical clock.
fn run_serve_scale(chips: usize, requests_per_chip: usize) -> Result<ServeScalePoint, SwdnnError> {
    let mix = cluster_mix();
    let mut cluster = Cluster::new(ClusterConfig {
        chips,
        serve: cluster_serve_config(),
        ..ClusterConfig::default()
    })?;
    let requests = requests_per_chip * chips;
    let mean_gap = SERVE_BASE_GAP_US / chips as f64;
    let mut rng = CLUSTER_SEED ^ chips as u64;
    let mut t_us = 0u64;
    for _ in 0..requests {
        t_us += ((-unit(&mut rng).ln() * mean_gap).round() as u64).max(1);
        let shape = mix[(splitmix64_next(&mut rng) % mix.len() as u64) as usize];
        cluster.submit_at(shape, RequestClass::default(), t_us)?;
    }
    cluster.drain()?;
    let duration_us = (0..chips)
        .map(|c| cluster.engine(c).now_us())
        .max()
        .unwrap_or(0)
        .max(1);
    let summary = cluster.summary();
    Ok(ServeScalePoint {
        chips,
        summary,
        duration_us,
        reqs_per_sim_sec: summary.served as f64 / (duration_us as f64 / 1e6),
        fingerprint: cluster.route_fingerprint(),
    })
}

/// One training sweep point.
#[derive(Clone, Copy, Debug)]
struct TrainScalePoint {
    pub chips: usize,
    /// Samples in each global batch (`chips × microbatches/chip × mb`).
    pub samples_per_step: usize,
    /// Modeled per-step cluster time, µs.
    pub step_us: f64,
    /// Modeled collective time, µs.
    pub allreduce_us: f64,
    /// Samples per *simulated* second.
    pub samples_per_sim_sec: f64,
}

/// A deterministic two-class 12×12 task sized to the sweep point's
/// global batch (same generator as the trainer's unit tests).
fn train_task(batch: usize, seed: u64) -> (Tensor4<f64>, Vec<usize>) {
    let mut rng = seed;
    let mut x = Tensor4::zeros(Shape4::new(batch, 1, 12, 12), Layout::Nchw);
    let mut y = Vec::new();
    for b in 0..batch {
        let class = (splitmix64_next(&mut rng) % 2) as usize;
        for r in 0..12 {
            for c in 0..12 {
                let v = if (class == 0) == (c < 6) { 1.0 } else { 0.1 };
                x.set(b, 0, r, c, v + (unit(&mut rng) - 0.5) * 0.1);
            }
        }
        y.push(class);
    }
    (x, y)
}

/// Run [`TRAIN_STEPS`] data-parallel steps at `chips` chips with the
/// per-chip microbatch load fixed, reporting the last step's modeled
/// cost (steady state: the first steps are identical in time anyway —
/// the model is closed-form — but loss settles).
fn run_train_scale(chips: usize) -> Result<TrainScalePoint, SwdnnError> {
    let microbatches = TRAIN_MICROBATCHES_PER_CHIP * chips;
    let batch = microbatches * TRAIN_MICROBATCH_SIZE;
    let net = lenet_12(TRAIN_MICROBATCH_SIZE, 1, 2, Engine::Host, 42)?;
    let mut trainer = DataParallelTrainer::new(
        net,
        Optimizer::sgd(0.05),
        TrainConfig {
            chips,
            microbatches,
            ..TrainConfig::default()
        },
    )?;
    let (x, y) = train_task(batch, CLUSTER_SEED ^ 0xB07);
    let mut last = None;
    for _ in 0..TRAIN_STEPS {
        last = Some(trainer.step(&x, &y)?);
    }
    let rep = last.expect("TRAIN_STEPS > 0");
    Ok(TrainScalePoint {
        chips,
        samples_per_step: rep.samples,
        step_us: rep.step_us,
        allreduce_us: rep.allreduce.time_us,
        samples_per_sim_sec: rep.samples_per_sec(),
    })
}

/// One strong-scaling sweep point: the overlapped, bucketized collective
/// on the grouped topology, next to its overlap-disabled twin.
/// `samples_per_step` and `loss` are read only by the gates in `tests`.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(not(test), expect(dead_code))]
struct StrongScalePoint {
    pub chips: usize,
    /// Samples per step — constant across the sweep by construction.
    pub samples_per_step: usize,
    /// Modeled step time with bucketized overlap, µs.
    pub step_us: f64,
    /// Same configuration, buckets held until compute ends, µs.
    pub serial_step_us: f64,
    /// Σ per-bucket wire time, µs.
    pub comm_us: f64,
    /// Wire time hidden under backward compute, µs.
    pub hidden_us: f64,
    pub overlap_permille: u64,
    pub buckets: usize,
    /// Mean loss of the last step — must match between the two
    /// configurations (schedules move time, never numerics).
    pub loss: f64,
}

/// Run the strong-scaling point at `chips` chips: fixed
/// [`STRONG_TOTAL_MICROBATCHES`] global microbatches, bucketized
/// collectives on [`Topology::sw_supernode`], overlapped and not.
fn run_train_strong(chips: usize) -> Result<StrongScalePoint, SwdnnError> {
    let batch = STRONG_TOTAL_MICROBATCHES * TRAIN_MICROBATCH_SIZE;
    let cfg = TrainConfig {
        chips,
        microbatches: STRONG_TOTAL_MICROBATCHES,
        bucket_params: Some(STRONG_BUCKET_PARAMS),
        overlap: true,
        topology: Topology::sw_supernode(),
        ..TrainConfig::default()
    };
    let (x, y) = train_task(batch, CLUSTER_SEED ^ 0x57F0);
    let run = |cfg: TrainConfig| -> Result<swdnn::cluster::StepReport, SwdnnError> {
        let net = lenet_12(TRAIN_MICROBATCH_SIZE, 1, 2, Engine::Host, 42)?;
        let mut trainer = DataParallelTrainer::new(net, Optimizer::sgd(0.05), cfg)?;
        let mut last = None;
        for _ in 0..TRAIN_STEPS {
            last = Some(trainer.step(&x, &y)?);
        }
        Ok(last.expect("TRAIN_STEPS > 0"))
    };
    let over = run(cfg)?;
    let serial = run(TrainConfig {
        overlap: false,
        ..cfg
    })?;
    debug_assert_eq!(over.loss, serial.loss);
    Ok(StrongScalePoint {
        chips,
        samples_per_step: over.samples,
        step_us: over.step_us,
        serial_step_us: serial.step_us,
        comm_us: over.collective.comm_us,
        hidden_us: over.collective.hidden_us,
        overlap_permille: over.collective.overlap_permille,
        buckets: over.collective.buckets,
        loss: over.loss,
    })
}

/// Weak-scaling efficiency of a sweep point against the 1-chip anchor.
pub fn efficiency(throughput: f64, chips: usize, single_chip_throughput: f64) -> f64 {
    throughput / (chips as f64 * single_chip_throughput)
}

/// The three sweeps as tables: serving weak scaling, training weak
/// scaling, training strong scaling (overlapped next to its serial twin).
pub fn cluster() -> Vec<Table> {
    let mut st = Table::new(
        "cluster_serve_scaling",
        "Cluster serving weak scaling (open-loop, simulated time)",
        &[
            "chips",
            "served",
            "spilled",
            "req_per_s",
            "p99_us",
            "efficiency",
        ],
    );
    // Efficiency is relative to the 1-chip point, which SCALING_CHIPS
    // puts first.
    let serve = SCALING_CHIPS.map(|chips| {
        run_serve_scale(chips, SERVE_REQUESTS_PER_CHIP)
            .unwrap_or_else(|e| panic!("serve sweep at {chips} chips: {e}"))
    });
    for p in &serve {
        st.row(vec![
            p.chips.to_string(),
            p.summary.served.to_string(),
            p.summary.spilled.to_string(),
            f(p.reqs_per_sim_sec, 0),
            p.summary.p99_latency_us.to_string(),
            f(
                efficiency(p.reqs_per_sim_sec, p.chips, serve[0].reqs_per_sim_sec),
                3,
            ),
        ]);
    }
    let mut tt = Table::new(
        "cluster_train_scaling",
        "Cluster training weak scaling (data-parallel SGD, simulated time)",
        &[
            "chips",
            "samples_per_step",
            "step_us",
            "allreduce_us",
            "samples_per_s",
            "efficiency",
        ],
    );
    let train = SCALING_CHIPS.map(|chips| {
        run_train_scale(chips).unwrap_or_else(|e| panic!("train sweep at {chips} chips: {e}"))
    });
    for p in &train {
        tt.row(vec![
            p.chips.to_string(),
            p.samples_per_step.to_string(),
            f(p.step_us, 0),
            f(p.allreduce_us, 1),
            f(p.samples_per_sim_sec, 0),
            f(
                efficiency(p.samples_per_sim_sec, p.chips, train[0].samples_per_sim_sec),
                3,
            ),
        ]);
    }
    let mut sg = Table::new(
        "cluster_train_strong_scaling",
        "Cluster training strong scaling (fixed total batch, bucketized overlap)",
        &[
            "chips",
            "buckets",
            "step_us",
            "serial_us",
            "comm_us",
            "hidden_us",
            "overlap_permille",
        ],
    );
    for chips in SCALING_CHIPS {
        let p = run_train_strong(chips)
            .unwrap_or_else(|e| panic!("strong sweep at {chips} chips: {e}"));
        sg.row(vec![
            p.chips.to_string(),
            p.buckets.to_string(),
            f(p.step_us, 0),
            f(p.serial_step_us, 0),
            f(p.comm_us, 1),
            f(p.hidden_us, 1),
            p.overlap_permille.to_string(),
        ]);
    }
    vec![st, tt, sg]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chip count the efficiency floor is enforced at.
    const GATED_CHIPS: usize = 8;

    /// Hard floor on weak-scaling efficiency at [`GATED_CHIPS`] chips, for
    /// both serving req/s and training samples/s. The committed sweep sits
    /// comfortably above this; the floor fails any change that lets routing
    /// imbalance or collective overhead eat the scale-out.
    const SCALING_MIN_EFFICIENCY: f64 = 0.80;

    /// Evaluate the strong sweep: overlap must *strictly* beat the
    /// non-overlapped schedule at every multi-chip point (and visibly hide
    /// wire time), and adding chips at fixed total batch must keep cutting
    /// the step time through the gated count.
    fn check_strong_gates(strong: &[StrongScalePoint]) -> Result<Vec<String>, Vec<String>> {
        let mut lines = Vec::new();
        let mut failures = Vec::new();
        for p in strong {
            if p.chips == 1 {
                if p.comm_us != 0.0 {
                    failures.push(format!(
                        "strong-scaling 1-chip anchor has {} µs of wire time",
                        p.comm_us
                    ));
                }
                continue;
            }
            let line = format!(
                "train strong-scaling at {} chips: step {:.1} µs overlapped vs {:.1} µs serial \
                 ({} buckets, {}‰ of wire time hidden)",
                p.chips, p.step_us, p.serial_step_us, p.buckets, p.overlap_permille
            );
            if p.step_us < p.serial_step_us && p.overlap_permille > 0 {
                lines.push(line);
            } else {
                failures.push(format!("{line} — overlap must strictly win"));
            }
        }
        if let Some(anchor) = strong.iter().find(|p| p.chips == 1) {
            for p in strong
                .iter()
                .filter(|p| p.chips > 1 && p.chips <= GATED_CHIPS)
            {
                if p.step_us >= anchor.step_us {
                    failures.push(format!(
                        "strong-scaling stopped paying at {} chips: step {:.1} µs ≥ 1-chip {:.1} µs",
                        p.chips, p.step_us, anchor.step_us
                    ));
                }
            }
        } else {
            failures.push("strong sweep has no 1-chip anchor".into());
        }
        if failures.is_empty() {
            Ok(lines)
        } else {
            Err(failures)
        }
    }

    #[test]
    fn serve_points_are_deterministic() {
        let a = run_serve_scale(2, 20).unwrap();
        let b = run_serve_scale(2, 20).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.duration_us, b.duration_us);
        assert_eq!(a.summary.served, b.summary.served);
        assert_eq!(a.summary.served, 40);
    }

    #[test]
    fn train_weak_scaling_meets_the_floor() {
        let one = run_train_scale(1).unwrap();
        let eight = run_train_scale(GATED_CHIPS).unwrap();
        assert_eq!(
            eight.samples_per_step,
            GATED_CHIPS * TRAIN_MICROBATCHES_PER_CHIP * TRAIN_MICROBATCH_SIZE
        );
        let eff = efficiency(
            eight.samples_per_sim_sec,
            GATED_CHIPS,
            one.samples_per_sim_sec,
        );
        assert!(
            eff >= SCALING_MIN_EFFICIENCY,
            "training weak-scaling efficiency {eff:.3} under the floor"
        );
        assert_eq!(one.allreduce_us, 0.0, "single chip pays no collective");
        assert!(eight.allreduce_us > 0.0);
    }

    #[test]
    fn serve_weak_scaling_meets_the_floor() {
        let one = run_serve_scale(1, SERVE_REQUESTS_PER_CHIP).unwrap();
        let eight = run_serve_scale(GATED_CHIPS, SERVE_REQUESTS_PER_CHIP).unwrap();
        // Scale-out that sheds or loses work is not scale-out.
        assert_eq!(one.summary.served as usize, SERVE_REQUESTS_PER_CHIP);
        assert_eq!(
            eight.summary.served as usize,
            GATED_CHIPS * SERVE_REQUESTS_PER_CHIP
        );
        let eff = efficiency(eight.reqs_per_sim_sec, GATED_CHIPS, one.reqs_per_sim_sec);
        assert!(
            eff >= SCALING_MIN_EFFICIENCY,
            "serving weak-scaling efficiency {eff:.3} under the floor"
        );
    }

    #[test]
    fn strong_scaling_overlap_wins_at_every_multi_chip_point() {
        let strong: Vec<StrongScalePoint> = SCALING_CHIPS
            .iter()
            .map(|&c| run_train_strong(c).unwrap())
            .collect();
        let lines = check_strong_gates(&strong).unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!(lines.len(), SCALING_CHIPS.len() - 1);
        for p in &strong {
            assert_eq!(
                p.samples_per_step,
                STRONG_TOTAL_MICROBATCHES * TRAIN_MICROBATCH_SIZE
            );
            if p.chips > 1 {
                assert!(p.buckets > 1, "gradient must actually be bucketized");
                assert!(p.hidden_us > 0.0);
            }
        }
        // Determinism: the sweep is a pure function of the chip count.
        let again = run_train_strong(4).unwrap();
        let first = strong.iter().find(|p| p.chips == 4).unwrap();
        assert_eq!(again.step_us, first.step_us);
        assert_eq!(again.loss, first.loss);
    }

    #[test]
    fn strong_gates_reject_an_overlap_regression() {
        let p = StrongScalePoint {
            chips: 4,
            samples_per_step: 32,
            step_us: 10.0,
            serial_step_us: 10.0, // no win ⇒ must fail
            comm_us: 5.0,
            hidden_us: 0.0,
            overlap_permille: 0,
            buckets: 7,
            loss: 0.0,
        };
        let anchor = StrongScalePoint {
            chips: 1,
            comm_us: 0.0,
            step_us: 100.0,
            serial_step_us: 100.0,
            ..p
        };
        let errs = check_strong_gates(&[anchor, p]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("strictly win")), "{errs:?}");
    }

    #[test]
    fn cluster_mix_is_richer_than_the_serving_mix() {
        let mix = cluster_mix();
        assert_eq!(mix.len(), 2 * serving_mix().len());
        let distinct: std::collections::BTreeSet<String> =
            mix.iter().map(|s| format!("{s}")).collect();
        assert_eq!(distinct.len(), mix.len(), "no duplicate shapes");
    }
}
