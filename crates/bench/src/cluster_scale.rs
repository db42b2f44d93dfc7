//! The `cluster_bench` scenario: weak-scaling sweeps of the multi-chip
//! fleet (serving) and the data-parallel trainer (training), shared
//! between the `cluster_bench` binary and its CI gate.
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
//! logical clock, so every efficiency figure is exact and CI holds the
//! floor ([`SCALING_MIN_EFFICIENCY`]) at [`GATED_CHIPS`] chips without
//! any flake risk.
//!
//! **Strong scaling** holds the *total* batch fixed while chips grow —
//! the regime where collective latency actually bites, because per-chip
//! compute shrinks while the gradient (and its wire time) does not. The
//! strong sweep runs the bucketized, overlap-aware collective on the
//! grouped supernode topology and, at every point, also runs the same
//! configuration with overlap disabled; CI gates that overlap *strictly*
//! reduces the modeled step time at every multi-chip point
//! ([`check_strong_gates`]).

use sw_obs::{Level, LevelIo, PerfReport};
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
pub const SCALING_CHIPS: [usize; 4] = [1, 2, 4, 8];

/// The chip count the efficiency floor is enforced at.
pub const GATED_CHIPS: usize = 8;

/// Hard floor on weak-scaling efficiency at [`GATED_CHIPS`] chips, for
/// both serving req/s and training samples/s. The committed sweep sits
/// comfortably above this; the floor fails any change that lets routing
/// imbalance or collective overhead eat the scale-out.
pub const SCALING_MIN_EFFICIENCY: f64 = 0.80;

/// Requests offered *per chip* in the serving sweep (so a `C`-chip run
/// replays `C ×` this many arrivals at `C ×` the single-chip rate).
pub const SERVE_REQUESTS_PER_CHIP: usize = 80;

/// Mean inter-arrival gap of the single-chip serving load, logical µs.
/// A batch of 8 mix-shape requests serves in ≈ 2.3 ms, so one chip
/// sustains ≈ 3.5 req/ms fully batched; offering ≈ 1.4 req/ms keeps
/// every chip busy without driving the bounded queues into shedding.
pub const SERVE_BASE_GAP_US: f64 = 700.0;

/// Root seed for the serving arrival trace.
pub const CLUSTER_SEED: u64 = 0xC1A5_7E12_5EED;

/// Microbatches per chip per training step (weak scaling: the global
/// batch grows with the chip count, per-chip work stays fixed).
pub const TRAIN_MICROBATCHES_PER_CHIP: usize = 2;

/// Samples per microbatch (the master network's fixed batch size).
pub const TRAIN_MICROBATCH_SIZE: usize = 4;

/// Training steps measured per sweep point.
pub const TRAIN_STEPS: usize = 3;

/// Total microbatches of the strong-scaling sweep — fixed across chip
/// counts, so per-chip compute shrinks as chips grow.
pub const STRONG_TOTAL_MICROBATCHES: usize = 8;

/// Bucket size (parameters) of the strong sweep's collective. lenet_12
/// at 2 classes has 646 parameters, so this cuts the gradient into 7
/// buckets — enough in-flight collectives to exercise port contention.
pub const STRONG_BUCKET_PARAMS: usize = 100;

fn unit(state: &mut u64) -> f64 {
    ((splitmix64_next(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// The serving-shape mix for the cluster sweep: every [`serving_mix`]
/// shape at two batch sizes — 8 distinct shapes, enough consistent-hash
/// arcs that an 8-chip ring sees work on most chips *before* load
/// spilling evens out the rest.
pub fn cluster_mix() -> Vec<ConvShape> {
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
pub fn cluster_serve_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            deadline_us: 2_000,
        },
        queue_limit: 48,
        ..ServeConfig::default()
    }
}

/// One serving sweep point.
#[derive(Clone, Copy, Debug)]
pub struct ServeScalePoint {
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
pub fn run_serve_scale(
    chips: usize,
    requests_per_chip: usize,
) -> Result<ServeScalePoint, SwdnnError> {
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
pub struct TrainScalePoint {
    pub chips: usize,
    /// Samples in each global batch (`chips × microbatches/chip × mb`).
    pub samples_per_step: usize,
    /// Modeled per-step cluster time, µs.
    pub step_us: f64,
    /// Per-chip compute share of the step, µs.
    pub compute_us: f64,
    /// Modeled collective time, µs.
    pub allreduce_us: f64,
    pub wire_bytes_per_chip: u64,
    /// Samples per *simulated* second.
    pub samples_per_sim_sec: f64,
    /// Mean loss of the last measured step.
    pub loss: f64,
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
pub fn run_train_scale(chips: usize) -> Result<TrainScalePoint, SwdnnError> {
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
        compute_us: rep.compute_us,
        allreduce_us: rep.allreduce.time_us,
        wire_bytes_per_chip: rep.allreduce.wire_bytes_per_chip,
        samples_per_sim_sec: rep.samples_per_sec(),
        loss: rep.loss,
    })
}

/// One strong-scaling sweep point: the overlapped, bucketized collective
/// on the grouped topology, next to its overlap-disabled twin.
#[derive(Clone, Copy, Debug)]
pub struct StrongScalePoint {
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
    /// Samples per *simulated* second (overlapped configuration).
    pub samples_per_sim_sec: f64,
    /// Mean loss of the last step — must match between the two
    /// configurations (schedules move time, never numerics).
    pub loss: f64,
}

/// Run the strong-scaling point at `chips` chips: fixed
/// [`STRONG_TOTAL_MICROBATCHES`] global microbatches, bucketized
/// collectives on [`Topology::sw_supernode`], overlapped and not.
pub fn run_train_strong(chips: usize) -> Result<StrongScalePoint, SwdnnError> {
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
        samples_per_sim_sec: over.samples_per_sec(),
        loss: over.loss,
    })
}

/// Evaluate the strong sweep: overlap must *strictly* beat the
/// non-overlapped schedule at every multi-chip point (and visibly hide
/// wire time), and adding chips at fixed total batch must keep cutting
/// the step time through the gated count.
pub fn check_strong_gates(strong: &[StrongScalePoint]) -> Result<Vec<String>, Vec<String>> {
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

/// Weak-scaling efficiency of a sweep point against the 1-chip anchor.
pub fn efficiency(throughput: f64, chips: usize, single_chip_throughput: f64) -> f64 {
    throughput / (chips as f64 * single_chip_throughput)
}

/// Evaluate the sweep against the scaling gates. Returns the pass lines,
/// or every violation found.
pub fn check_scaling_gates(
    serve: &[ServeScalePoint],
    train: &[TrainScalePoint],
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    let gate = |name: &str, chips: usize, eff: f64, extra: String| -> Result<String, String> {
        let line = format!(
            "{name} weak-scaling at {chips} chips: {:.1}% efficiency \
             (floor {:.0}%){extra}",
            eff * 100.0,
            SCALING_MIN_EFFICIENCY * 100.0
        );
        if chips == GATED_CHIPS && eff < SCALING_MIN_EFFICIENCY {
            Err(format!("{line} — below the floor"))
        } else {
            Ok(line)
        }
    };
    match serve.iter().find(|p| p.chips == 1) {
        Some(anchor) => {
            for p in serve.iter().filter(|p| p.chips > 1) {
                let eff = efficiency(p.reqs_per_sim_sec, p.chips, anchor.reqs_per_sim_sec);
                match gate(
                    "serve",
                    p.chips,
                    eff,
                    format!("; {:.0} req/s", p.reqs_per_sim_sec),
                ) {
                    Ok(l) => lines.push(l),
                    Err(m) => failures.push(m),
                }
            }
        }
        None => failures.push("serve sweep has no 1-chip anchor".into()),
    }
    match train.iter().find(|p| p.chips == 1) {
        Some(anchor) => {
            for p in train.iter().filter(|p| p.chips > 1) {
                let eff = efficiency(p.samples_per_sim_sec, p.chips, anchor.samples_per_sim_sec);
                match gate(
                    "train",
                    p.chips,
                    eff,
                    format!("; {:.0} samples/s", p.samples_per_sim_sec),
                ) {
                    Ok(l) => lines.push(l),
                    Err(m) => failures.push(m),
                }
            }
        }
        None => failures.push("train sweep has no 1-chip anchor".into()),
    }
    // Scale-out that sheds or loses work is not scale-out.
    for p in serve {
        let offered = (SERVE_REQUESTS_PER_CHIP * p.chips) as u64;
        if p.summary.served != offered {
            failures.push(format!(
                "serve at {} chips served {} of {offered} offered",
                p.chips, p.summary.served
            ));
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures)
    }
}

/// Stable `PerfReport::key()` pieces of the cluster snapshot rows.
pub const SERVE_SCALE_CONFIG: &str = "cluster serve weak-scaling";
pub const TRAIN_SCALE_CONFIG: &str = "cluster train weak-scaling";
pub const TRAIN_STRONG_CONFIG: &str = "cluster train strong-scaling";

fn zero_io(level: Level) -> LevelIo {
    LevelIo {
        level,
        required_gbps: 0.0,
        modeled_gbps: 0.0,
        measured_gbps: 0.0,
        bytes: 0,
    }
}

/// Flatten a serving sweep point into the snapshot schema: req/s per
/// simulated second is the tolerance-gated throughput metric; counts,
/// spill/reroute totals, the tail, and the routing fingerprint ride in
/// the counter dump (recorded and diffed, the hard gates live in
/// [`check_scaling_gates`]).
pub fn serve_scale_report(p: &ServeScalePoint) -> PerfReport {
    let s = p.summary;
    PerfReport {
        config: SERVE_SCALE_CONFIG.to_string(),
        plan: format!("chips={}", p.chips),
        cycles: 0,
        time_ms: p.duration_us as f64 / 1e3,
        gflops_measured: p.reqs_per_sim_sec,
        gflops_modeled: 0.0,
        efficiency_modeled: 0.0,
        memory_bound: false,
        ldm_high_water_frac: 0.0,
        mem: zero_io(Level::Mem),
        reg: zero_io(Level::Reg),
        counters: vec![
            ("served".into(), s.served),
            ("rejected".into(), s.rejected),
            ("spilled".into(), s.spilled),
            ("p50_latency_us".into(), s.p50_latency_us),
            ("p99_latency_us".into(), s.p99_latency_us),
            ("ingress_bytes".into(), s.ingress_bytes),
            // Low 48 bits only: the snapshot JSON stores numbers as f64,
            // which is exact up to 2^53 but not across the full u64 range.
            (
                "route_fingerprint48".into(),
                p.fingerprint & 0xFFFF_FFFF_FFFF,
            ),
        ],
        host: None,
    }
}

/// Flatten a training sweep point: samples per simulated second is the
/// gated metric; step anatomy and wire bytes ride in the counters.
pub fn train_scale_report(p: &TrainScalePoint) -> PerfReport {
    PerfReport {
        config: TRAIN_SCALE_CONFIG.to_string(),
        plan: format!("chips={}", p.chips),
        cycles: 0,
        time_ms: p.step_us / 1e3,
        gflops_measured: p.samples_per_sim_sec,
        gflops_modeled: 0.0,
        efficiency_modeled: 0.0,
        memory_bound: false,
        ldm_high_water_frac: 0.0,
        mem: zero_io(Level::Mem),
        reg: zero_io(Level::Reg),
        counters: vec![
            ("samples_per_step".into(), p.samples_per_step as u64),
            ("step_us".into(), p.step_us.round() as u64),
            ("compute_us".into(), p.compute_us.round() as u64),
            ("allreduce_us".into(), p.allreduce_us.round() as u64),
            ("wire_bytes_per_chip".into(), p.wire_bytes_per_chip),
        ],
        host: None,
    }
}

/// Flatten a strong-scaling point: overlapped samples/s is the gated
/// metric; the serial comparator, the overlap gauge, and the bucket
/// anatomy ride in the counters so any drift in the collective model
/// shows up in the baseline diff.
pub fn train_strong_report(p: &StrongScalePoint) -> PerfReport {
    PerfReport {
        config: TRAIN_STRONG_CONFIG.to_string(),
        plan: format!("chips={}", p.chips),
        cycles: 0,
        time_ms: p.step_us / 1e3,
        gflops_measured: p.samples_per_sim_sec,
        gflops_modeled: 0.0,
        efficiency_modeled: 0.0,
        memory_bound: false,
        ldm_high_water_frac: 0.0,
        mem: zero_io(Level::Mem),
        reg: zero_io(Level::Reg),
        counters: vec![
            ("samples_per_step".into(), p.samples_per_step as u64),
            ("step_us".into(), p.step_us.round() as u64),
            ("serial_step_us".into(), p.serial_step_us.round() as u64),
            ("comm_us".into(), p.comm_us.round() as u64),
            ("hidden_us".into(), p.hidden_us.round() as u64),
            ("overlap_permille".into(), p.overlap_permille),
            ("buckets".into(), p.buckets as u64),
        ],
        host: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn gates_reject_a_flat_curve() {
        let mk = |chips: usize, thr: f64| ServeScalePoint {
            chips,
            summary: ClusterSummary {
                served: (SERVE_REQUESTS_PER_CHIP * chips) as u64,
                ..ClusterSummary::default()
            },
            duration_us: 1,
            reqs_per_sim_sec: thr,
            fingerprint: 0,
        };
        let tr = |chips: usize, thr: f64| TrainScalePoint {
            chips,
            samples_per_step: 8,
            step_us: 1.0,
            compute_us: 1.0,
            allreduce_us: 0.0,
            wire_bytes_per_chip: 0,
            samples_per_sim_sec: thr,
            loss: 0.0,
        };
        // Serving stops scaling past 4 chips: the 8-chip gate must trip.
        let serve = vec![mk(1, 1000.0), mk(8, 4000.0)];
        let train = vec![tr(1, 1000.0), tr(8, 8000.0)];
        let errs = check_scaling_gates(&serve, &train).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("below the floor")),
            "{errs:?}"
        );
        // A healthy pair of curves passes.
        let serve = vec![mk(1, 1000.0), mk(8, 7600.0)];
        check_scaling_gates(&serve, &train).unwrap();
    }

    #[test]
    fn reports_have_stable_unique_keys() {
        let p = run_train_scale(2).unwrap();
        let r = train_scale_report(&p);
        assert_eq!(r.key(), "cluster train weak-scaling / chips=2");
        assert!(r.gflops_measured > 0.0);
        let s = run_train_strong(2).unwrap();
        let r = train_strong_report(&s);
        assert_eq!(r.key(), "cluster train strong-scaling / chips=2");
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
            samples_per_sim_sec: 1.0,
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
