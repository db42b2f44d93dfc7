//! Elastic data-parallel SGD across simulated chips with bucketized,
//! overlap-aware gradient collectives.
//!
//! The global batch is cut into `M` microbatches; each of `C` chips owns
//! a contiguous run of them ([`super::collective::shard_microbatches`] —
//! ragged counts allowed, the first `M mod C` chips take one extra).
//! Per-microbatch gradients meet in a bucketized allreduce: the flat
//! gradient is cut into buckets, each bucket launches its own
//! [`sw_perfmodel::CollectiveSchedule`] as soon as the last backward
//! sweep has produced it, and all buckets contend for ports and uplinks
//! on the topology-aware [`sw_perfmodel::NetworkModel`]. Because every
//! microbatch's gradient enters the sum at its *global index* — not in
//! arrival, ring, or bucket order — the reduced gradient, and therefore
//! every parameter after every step, is bit-identical at any chip count,
//! bucket size, or thread count.
//!
//! **Host lanes:** the step's numeric half runs on the worker pool. Each
//! of `L` lanes (the pool's lane count capped by `M`) claims the next
//! microbatch in index order and runs forward, loss and backward on its
//! own replica of the network; each gradient and loss is kept by its
//! global index. The loss sum, the reduction and the optimizer step
//! then run in index order on the posting thread, over one master copy
//! of the parameters, which is copied back into every replica. A
//! microbatch's gradient depends only on the parameters and its own
//! rows, so the lanes move no bit either.
//!
//! **Elasticity:** a [`sw_sim::FaultPlan`] with a chip-fail rate may
//! kill one chip mid-step. Its entire assignment reshards round-robin
//! onto the survivors ([`super::collective::reshard_on_failure`]), the
//! collective runs over the survivor set, and the step completes with
//! zero lost microbatches and parameters identical to a healthy step —
//! the failure moves only simulated time. The chip stays down for later
//! steps until [`DataParallelTrainer::restore_chip`].
//!
//! Time is modeled, not measured: compute ends per chip, per-bucket
//! readiness (`ready = end − backward_fraction·mb_us·lo/total`), and the
//! executed collective finish together give the step's wall time; the
//! `collective_overlap_permille` gauge reports how much wire time hid
//! under backward compute.

use super::allreduce::{load_gradients, take_gradients, AllreduceReport};
use super::collective::{
    reduce_bucketized, reshard_on_failure, run_collective, shard_microbatches, BucketPlan,
};
use crate::error::SwdnnError;
use crate::layers::{Layer, SoftmaxCrossEntropy};
use crate::network::{forward_backward, Sequential};
use crate::optim::Optimizer;
use serde_json::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use sw_obs::{chip_tag, link_tag, Recorder, TagCounters};
use sw_perfmodel::{InterconnectSpec, LinkOccupancy, NetworkModel, Topology};
use sw_sim::FaultPlan;
use sw_tensor::{Layout, Shape4, Tensor4};

/// Data-parallel training configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Simulated chips sharing the step.
    pub chips: usize,
    /// Global microbatches per step (`M`); must be ≥ `chips` (ragged
    /// distribution handles any `M mod C`). The microbatch is the
    /// reduction grain: gradients are summed in microbatch-index order
    /// at any chip count.
    pub microbatches: usize,
    pub interconnect: InterconnectSpec,
    /// Switch-group structure the collectives execute against.
    pub topology: Topology,
    /// Cut the flat gradient into buckets of this many parameters
    /// (`None` → one monolithic bucket, the PR 7 behavior).
    pub bucket_params: Option<usize>,
    /// Launch each bucket at its modeled backward-readiness instead of
    /// holding everything until compute ends.
    pub overlap: bool,
    /// Fraction of a microbatch's compute that is backward — the window
    /// over which buckets become ready, tail of the gradient first.
    pub backward_fraction: f64,
    /// Chip-grain fault injection; a positive
    /// [`FaultPlan::chip_fail_rate`] lets chips die mid-step.
    pub fault: FaultPlan,
    /// Modeled compute time one chip spends on one microbatch's
    /// forward+backward, µs of simulated time.
    pub compute_us_per_microbatch: u64,
    /// Record per-chip compute spans and per-bucket comm spans.
    pub trace: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            chips: 1,
            microbatches: 8,
            interconnect: InterconnectSpec::sw_cluster(),
            topology: Topology::flat(),
            bucket_params: None,
            overlap: true,
            backward_fraction: 0.5,
            fault: FaultPlan::none(0),
            compute_us_per_microbatch: 1_000,
            trace: false,
        }
    }
}

/// The step's gradient-communication summary (the bucketized view the
/// legacy [`AllreduceReport`] aggregates away).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CollectiveSummary {
    /// Buckets the gradient was cut into.
    pub buckets: usize,
    /// Σ per-bucket wire time, µs.
    pub comm_us: f64,
    /// Wire time hidden under backward compute, µs.
    pub hidden_us: f64,
    /// `1000 · hidden / comm` — the overlap gauge.
    pub overlap_permille: u64,
}

/// One training step's outcome and modeled cost.
#[derive(Clone, Copy, Debug)]
pub struct StepReport {
    /// Mean loss over the microbatches (before the update).
    pub loss: f64,
    /// Samples in the global batch.
    pub samples: usize,
    /// Modeled compute critical path, µs (slowest chip's end − start).
    pub compute_us: f64,
    /// Monolithic-equivalent view of the collective: `time_us` is the
    /// wire time *not* hidden under compute (what the step waited on).
    pub allreduce: AllreduceReport,
    /// Bucket-level communication detail.
    pub collective: CollectiveSummary,
    /// Chip that died this step, if any.
    pub failed_chip: Option<usize>,
    /// Microbatches recomputed on survivors after the failure.
    pub resharded_microbatches: usize,
    /// Full step wall time on the simulated cluster, µs.
    pub step_us: f64,
}

impl StepReport {
    /// Simulated training throughput of this step.
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / (self.step_us / 1e6)
    }
}

/// Data-parallel SGD driver over one master [`Sequential`] and one
/// replica of it per pool lane.
///
/// The network must be built for the *microbatch* size (its conv layers
/// carry a fixed batch); [`DataParallelTrainer::step`] takes the global
/// batch and slices it. Every layer must have a
/// [`crate::layers::Layer::replica`]: each lane runs the microbatches it
/// claims on its own replica, and the master only holds the
/// parameters, takes the reduced gradient and steps the optimizer. The
/// master's updated parameters are copied into every replica after each
/// step, so all copies hold the same bits. Simulated chips are not
/// replicas: since every chip would start identical and apply the
/// identical reduced gradient each step, one set of parameters stands in
/// for all of them. That is also why elasticity cannot move numerics: a
/// survivor recomputing a victim's microbatch feeds the same gradient
/// into the same slot of the same fixed-order sum.
pub struct DataParallelTrainer {
    cfg: TrainConfig,
    net: Sequential,
    opt: Optimizer,
    /// One network copy per pool lane a step has used; lane `k` runs
    /// the microbatches it claims on `replicas[k]`.
    replicas: Vec<Mutex<Replica>>,
    /// Simulated cluster clock, µs.
    clock_us: f64,
    steps: u64,
    /// `down[c]` — chip `c` died in an earlier step and has not been
    /// restored.
    down: Vec<bool>,
    recorder: Recorder,
    /// Per-chip / per-link counters (`chip/N/microbatches`,
    /// `link/tx-N/bytes`, `link/uplink-G-K/busy_us`, …).
    pub tags: TagCounters,
}

/// One lane's copy of the network: a replica of every layer and its own
/// loss head.
struct Replica {
    layers: Vec<Box<dyn Layer + Send>>,
    loss: SoftmaxCrossEntropy,
}

impl Replica {
    /// Replicate every layer of `net`, or name the first that cannot be.
    fn of(net: &Sequential) -> Result<Self, SwdnnError> {
        let layers = net
            .layers
            .iter()
            .enumerate()
            .map(|(index, layer)| {
                layer.replica().ok_or(SwdnnError::NotReplicable {
                    index,
                    layer: layer.name(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut replica = Self {
            layers,
            loss: SoftmaxCrossEntropy::new(),
        };
        // Whatever gradient the master holds, a replica's starts at zero.
        take_gradients(&mut replica.layers);
        Ok(replica)
    }

    /// Forward, loss and backward of one microbatch: its flat gradient
    /// and loss. The gradient slots are cleared on either outcome, so an
    /// error leaves nothing behind for this replica's next microbatch.
    fn microbatch(&mut self, x: Tensor4<f64>, y: &[usize]) -> Result<(Vec<f64>, f64), SwdnnError> {
        let loss = forward_backward(&mut self.layers, &mut self.loss, x, y);
        let grad = take_gradients(&mut self.layers);
        Ok((grad, loss?))
    }

    /// Overwrite every parameter from `flat`, in `visit_params` order.
    fn load_parameters(&mut self, flat: &[f64]) {
        let mut off = 0;
        for layer in &mut self.layers {
            layer.visit_params(&mut |w, _| {
                w.copy_from_slice(&flat[off..off + w.len()]);
                off += w.len();
            });
        }
    }
}

impl DataParallelTrainer {
    /// A trainer over `net`, or [`SwdnnError::NotReplicable`] naming the
    /// first layer that has no replica.
    pub fn new(net: Sequential, opt: Optimizer, cfg: TrainConfig) -> Result<Self, SwdnnError> {
        if cfg.chips == 0 || cfg.microbatches < cfg.chips {
            return Err(SwdnnError::InsufficientMicrobatches {
                microbatches: cfg.microbatches,
                chips: cfg.chips,
            });
        }
        let first = Replica::of(&net)?;
        Ok(Self {
            recorder: if cfg.trace {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            },
            down: vec![false; cfg.chips],
            cfg,
            net,
            opt,
            replicas: vec![Mutex::new(first)],
            clock_us: 0.0,
            steps: 0,
            tags: TagCounters::new(),
        })
    }

    /// Simulated time spent so far, µs.
    pub fn now_us(&self) -> f64 {
        self.clock_us
    }

    /// Chips currently able to take work.
    pub fn active_chips(&self) -> Vec<usize> {
        (0..self.cfg.chips).filter(|&c| !self.down[c]).collect()
    }

    /// Bring a failed chip back for the next step.
    pub fn restore_chip(&mut self, chip: usize) {
        if chip < self.down.len() {
            self.down[chip] = false;
        }
    }

    /// Every trainable parameter, flattened in the stable
    /// `visit_params` walk order — the bit-identity tests' comparand.
    pub fn parameters(&mut self) -> Vec<f64> {
        let mut flat = Vec::new();
        for layer in &mut self.net.layers {
            layer.visit_params(&mut |w, _| flat.extend_from_slice(w));
        }
        flat
    }

    /// One data-parallel step over a global batch whose leading
    /// dimension is `microbatches × microbatch_size`. Returns the mean
    /// loss and the step's modeled cluster cost. On an error (that of the
    /// lowest failing microbatch) the parameters, the optimizer and the
    /// simulated clock are as before the step.
    pub fn step(
        &mut self,
        input: &Tensor4<f64>,
        labels: &[usize],
    ) -> Result<StepReport, SwdnnError> {
        let b = input.shape().d0;
        let m = self.cfg.microbatches;
        if b == 0 || !b.is_multiple_of(m) || labels.len() != b {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("batch divisible by {m} microbatches with one label each"),
                got: format!("batch={b}, labels={}", labels.len()),
            });
        }
        let active = self.active_chips();
        if active.is_empty() {
            return Err(SwdnnError::ClusterUnavailable {
                chips: self.cfg.chips,
            });
        }
        let shard = shard_microbatches(m, active.len())?;

        // ----- numerics: independent of chips, buckets, failures and
        // lanes. Each pool lane claims the next microbatch in index order
        // and runs it on its own replica (a lane that starts late or runs
        // slow takes fewer); every gradient and loss is kept by global
        // microbatch index, and all that follows runs in index order here.
        let mb_rows = b / m;
        let lanes = sw_runtime::lanes(m);
        while self.replicas.len() < lanes {
            self.replicas.push(Mutex::new(Replica::of(&self.net)?));
        }
        let x = input.as_nchw();
        let replicas = &self.replicas;
        let next = AtomicUsize::new(0);
        let per_microbatch = sw_runtime::global().gather_by_index(
            m,
            lanes,
            |_| {
                std::iter::from_fn(|| {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    (i < m).then_some(i)
                })
            },
            |k, i| {
                let y = &labels[i * mb_rows..(i + 1) * mb_rows];
                replicas[k]
                    .lock()
                    .expect("a replica's lane panicked in an earlier step")
                    .microbatch(slice_batch(&x, i * mb_rows, mb_rows), y)
            },
        )?;
        let loss_sum = per_microbatch.iter().fold(0.0, |sum, (_, loss)| sum + loss);
        let shard_grads: Vec<Vec<f64>> = per_microbatch.into_iter().map(|(g, _)| g).collect();
        let total_params = shard_grads[0].len();
        let plan = match self.cfg.bucket_params {
            Some(bp) => BucketPlan::fixed_size(total_params, bp),
            None => BucketPlan::single(total_params),
        };
        let mut reduced = reduce_bucketized(&shard_grads, &plan);
        let scale = 1.0 / m as f64;
        for g in &mut reduced {
            *g *= scale;
        }
        load_gradients(&mut self.net.layers, &reduced);
        self.opt.step(&mut self.net.layers);
        let params = self.parameters();
        for replica in &mut self.replicas {
            replica
                .get_mut()
                .expect("a replica's lane panicked in an earlier step")
                .load_parameters(&params);
        }

        // ----- time: per-chip compute ends, optional mid-step failure.
        let mb_us = self.cfg.compute_us_per_microbatch as f64;
        let mut own_end: Vec<f64> = shard
            .iter()
            .map(|r| self.clock_us + r.len() as f64 * mb_us)
            .collect();
        let mut extra_counts = vec![0usize; active.len()];
        let mut extra_starts = vec![0.0f64; active.len()];
        let mut failed_chip = None;
        let mut resharded = 0usize;
        if active.len() > 1 {
            if let Some(v) = active
                .iter()
                .position(|&chip| self.cfg.fault.chip_fails(chip, self.steps))
            {
                let victim = active[v];
                let n_v = shard[v].len();
                let done = ((self.cfg.fault.chip_fail_progress(victim, self.steps) * n_v as f64)
                    .floor() as usize)
                    .min(n_v);
                let t_fail = self.clock_us + done as f64 * mb_us;
                // A dead chip's partial sums die with it: the whole
                // assignment reshards, detection costs one link latency.
                let detect_us = self.cfg.interconnect.link_latency_us;
                let extra = reshard_on_failure(&shard, v);
                for (p, ex) in extra.iter().enumerate() {
                    if ex.is_empty() {
                        continue;
                    }
                    let start = own_end[p].max(t_fail + detect_us);
                    extra_starts[p] = start;
                    extra_counts[p] = ex.len();
                    own_end[p] = start + ex.len() as f64 * mb_us;
                }
                own_end[v] = t_fail;
                failed_chip = Some(victim);
                resharded = n_v;
                self.down[victim] = true;
                self.tags.add(&chip_tag(victim, "failures"), 1);
                self.tags
                    .add(&chip_tag(victim, "microbatches"), done as u64);
            }
        }
        let members: Vec<usize> = active
            .iter()
            .enumerate()
            .filter(|&(p, _)| failed_chip != Some(active[p]))
            .map(|(_, &chip)| chip)
            .collect();
        let compute_end = active
            .iter()
            .enumerate()
            .filter(|&(_, &chip)| failed_chip != Some(chip))
            .map(|(p, _)| own_end[p])
            .fold(self.clock_us, f64::max);

        // ----- the collective: per-bucket readiness, shared occupancy.
        let bf = self.cfg.backward_fraction.clamp(0.0, 1.0);
        let ready: Vec<f64> = plan
            .buckets
            .iter()
            .map(|r| {
                if self.cfg.overlap && total_params > 0 {
                    compute_end - bf * mb_us * (r.start as f64 / total_params as f64)
                } else {
                    compute_end
                }
            })
            .collect();
        let model = NetworkModel::new(self.cfg.interconnect, self.cfg.topology);
        let mut occ = LinkOccupancy::new();
        let creport = run_collective(&model, &mut occ, &members, &plan, &ready, compute_end);

        // ----- observability: chip counters, spans, link counters. Span
        // names and arguments are built only when tracing is on.
        let tracing = self.recorder.is_enabled();
        for (p, &chip) in active.iter().enumerate() {
            let n = shard[p].len() as u64;
            if failed_chip == Some(chip) {
                if tracing {
                    self.recorder.span_cat(
                        "compute-failed",
                        "train",
                        chip as u64,
                        0,
                        self.clock_us,
                        own_end[p] - self.clock_us,
                        vec![("lost_microbatches".into(), Value::from(n))],
                    );
                }
                continue;
            }
            self.tags.add(&chip_tag(chip, "microbatches"), n);
            if tracing {
                self.recorder.span_cat(
                    "compute",
                    "train",
                    chip as u64,
                    0,
                    self.clock_us,
                    n as f64 * mb_us,
                    vec![("microbatches".into(), Value::from(n))],
                );
            }
            if extra_counts[p] > 0 {
                let extra = extra_counts[p] as u64;
                self.tags.add(&chip_tag(chip, "microbatches"), extra);
                self.tags.add(&chip_tag(chip, "resharded_in"), extra);
                if tracing {
                    self.recorder.span_cat(
                        "compute-resharded",
                        "train",
                        chip as u64,
                        0,
                        extra_starts[p],
                        extra as f64 * mb_us,
                        vec![("microbatches".into(), Value::from(extra))],
                    );
                }
            }
        }
        if tracing {
            for span in &creport.spans {
                let name = format!("bucket-{}", span.bucket);
                for &chip in &members {
                    self.recorder.span_cat(
                        &name,
                        "comm",
                        chip as u64,
                        1,
                        span.start_us,
                        span.finish_us - span.start_us,
                        vec![
                            ("kind".into(), Value::from(span.kind.name())),
                            ("bytes".into(), Value::from(span.bytes)),
                            ("ready_us".into(), Value::from(span.ready_us)),
                        ],
                    );
                }
            }
        }
        for (name, usage) in occ.links() {
            self.tags.add(&link_tag(name, "bytes"), usage.bytes);
            self.tags
                .add(&link_tag(name, "busy_us"), usage.busy_us.round() as u64);
        }

        let compute_us = compute_end - self.clock_us;
        let step_end = compute_end.max(creport.finish_us);
        let step_us = step_end - self.clock_us;
        let allreduce = AllreduceReport {
            kind: creport.kind,
            tensor_bytes: creport.tensor_bytes,
            time_us: (creport.finish_us - compute_end).max(0.0),
            wire_bytes_per_chip: creport.wire_bytes_per_chip,
        };
        let collective = CollectiveSummary {
            buckets: creport.buckets,
            comm_us: creport.comm_us,
            hidden_us: creport.hidden_us,
            overlap_permille: creport.overlap_permille,
        };
        self.clock_us = step_end;
        self.steps += 1;
        Ok(StepReport {
            loss: loss_sum / m as f64,
            samples: b,
            compute_us,
            allreduce,
            collective,
            failed_chip,
            resharded_microbatches: resharded,
            step_us,
        })
    }

    /// Take the recorded cross-chip trace (empty when tracing is off).
    pub fn take_trace(&mut self) -> sw_obs::ChromeTrace {
        self.recorder.take()
    }
}

/// Copy `count` batch rows of an NCHW batch, starting at `start`, into a
/// fresh tensor: one contiguous range of its buffer.
fn slice_batch(x: &Tensor4<f64>, start: usize, count: usize) -> Tensor4<f64> {
    debug_assert_eq!(x.layout(), Layout::Nchw);
    let s = x.shape();
    let row = s.d1 * s.d2 * s.d3;
    Tensor4::from_vec(
        Shape4::new(count, s.d1, s.d2, s.d3),
        x.data()[start * row..(start + count) * row].to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Engine;
    use crate::zoo::lenet_12;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sw_tensor::Shape4;

    fn task(batch: usize, seed: u64) -> (Tensor4<f64>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor4::zeros(Shape4::new(batch, 1, 12, 12), Layout::Nchw);
        let mut y = Vec::new();
        for b in 0..batch {
            let class = rng.gen_range(0..2usize);
            for r in 0..12 {
                for c in 0..12 {
                    let v = if (class == 0) == (c < 6) { 1.0 } else { 0.1 };
                    x.set(b, 0, r, c, v + rng.gen_range(-0.05..0.05));
                }
            }
            y.push(class);
        }
        (x, y)
    }

    fn trainer_cfg(cfg: TrainConfig) -> DataParallelTrainer {
        let mb = 32 / cfg.microbatches;
        let net = lenet_12(mb, 1, 2, Engine::Host, 42).unwrap();
        DataParallelTrainer::new(net, Optimizer::sgd(0.1), cfg).unwrap()
    }

    fn trainer(chips: usize, microbatches: usize) -> DataParallelTrainer {
        trainer_cfg(TrainConfig {
            chips,
            microbatches,
            ..TrainConfig::default()
        })
    }

    #[test]
    fn ragged_chip_counts_are_accepted_and_bit_identical() {
        let (x, y) = task(32, 5);
        let mut even = trainer(1, 8);
        let mut ragged = trainer(3, 8); // shards 3,3,2
        for _ in 0..3 {
            even.step(&x, &y).unwrap();
            ragged.step(&x, &y).unwrap();
        }
        assert_eq!(even.parameters(), ragged.parameters());
    }

    #[test]
    fn rejects_fewer_microbatches_than_chips() {
        let net = lenet_12(4, 1, 2, Engine::Host, 1).unwrap();
        let err = DataParallelTrainer::new(
            net,
            Optimizer::sgd(0.1),
            TrainConfig {
                chips: 8,
                microbatches: 4,
                ..TrainConfig::default()
            },
        );
        assert!(matches!(
            err.err().expect("8 chips cannot run on 4 microbatches"),
            SwdnnError::InsufficientMicrobatches {
                microbatches: 4,
                chips: 8
            }
        ));
    }

    #[test]
    fn gradients_are_bit_identical_across_chip_counts() {
        let (x, y) = task(32, 5);
        let mut reference: Option<Vec<f64>> = None;
        for chips in [1usize, 2, 4, 8] {
            let mut t = trainer(chips, 8);
            for _ in 0..3 {
                t.step(&x, &y).unwrap();
            }
            let params = t.parameters();
            match &reference {
                None => reference = Some(params),
                Some(want) => assert_eq!(
                    &params, want,
                    "parameters diverged at {chips} chips — fixed-order reduction broken"
                ),
            }
        }
    }

    #[test]
    fn training_still_learns_under_data_parallelism() {
        let (x, y) = task(32, 6);
        let mut t = trainer(4, 8);
        let first = t.step(&x, &y).unwrap().loss;
        let mut last = first;
        for _ in 0..40 {
            last = t.step(&x, &y).unwrap().loss;
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn more_chips_cut_compute_time_but_pay_allreduce() {
        let (x, y) = task(32, 7);
        let mut one = trainer(1, 8);
        let mut eight = trainer(8, 8);
        let r1 = one.step(&x, &y).unwrap();
        let r8 = eight.step(&x, &y).unwrap();
        assert!((r1.compute_us - 8.0 * r8.compute_us).abs() < 1e-9);
        assert_eq!(r1.allreduce.time_us, 0.0, "single chip pays no wire time");
        assert!(r8.allreduce.time_us > 0.0);
        assert!(r8.step_us < r1.step_us, "scaling must still win overall");
    }

    #[test]
    fn bucketized_overlap_beats_serial_comm_and_keeps_numerics() {
        let (x, y) = task(32, 5);
        let overlap_cfg = TrainConfig {
            chips: 4,
            microbatches: 8,
            bucket_params: Some(100),
            overlap: true,
            ..TrainConfig::default()
        };
        let serial_cfg = TrainConfig {
            overlap: false,
            ..overlap_cfg
        };
        let mut mono = trainer(4, 8);
        let mut over = trainer_cfg(overlap_cfg);
        let mut serial = trainer_cfg(serial_cfg);
        let (mut ro, mut rs) = (None, None);
        for _ in 0..3 {
            mono.step(&x, &y).unwrap();
            ro = Some(over.step(&x, &y).unwrap());
            rs = Some(serial.step(&x, &y).unwrap());
        }
        let (ro, rs) = (ro.unwrap(), rs.unwrap());
        assert_eq!(over.parameters(), mono.parameters(), "buckets moved bits");
        assert_eq!(serial.parameters(), mono.parameters());
        assert!(ro.collective.buckets > 1);
        assert!(
            ro.step_us < rs.step_us,
            "overlap {} must beat serial {}",
            ro.step_us,
            rs.step_us
        );
        assert!(ro.collective.overlap_permille > 0);
        assert_eq!(rs.collective.overlap_permille, 0);
    }

    #[test]
    fn chip_failure_reshards_without_moving_parameters() {
        let (x, y) = task(32, 5);
        let mut healthy = trainer(4, 8);
        let mut faulty = trainer_cfg(TrainConfig {
            chips: 4,
            microbatches: 8,
            fault: FaultPlan::none(7).with_chip_fail_rate(1.0),
            ..TrainConfig::default()
        });
        let rh = healthy.step(&x, &y).unwrap();
        let rf = faulty.step(&x, &y).unwrap();
        // Rate 1.0 fails the first active chip; its 2 microbatches
        // recompute on survivors and the step costs more time.
        assert_eq!(rf.failed_chip, Some(0));
        assert_eq!(rf.resharded_microbatches, 2);
        assert!(rf.step_us > rh.step_us);
        assert_eq!(rf.loss, rh.loss);
        assert_eq!(healthy.parameters(), faulty.parameters());
        // The chip stays down: next step fails the next-lowest id.
        assert_eq!(faulty.active_chips(), vec![1, 2, 3]);
        let rf2 = faulty.step(&x, &y).unwrap();
        assert_eq!(rf2.failed_chip, Some(1));
        assert_eq!(healthy.step(&x, &y).unwrap().loss, rf2.loss);
        assert_eq!(healthy.parameters(), faulty.parameters());
        // Restore brings the chip back into the assignment.
        faulty.restore_chip(0);
        assert_eq!(faulty.active_chips(), vec![0, 2, 3]);
        // A lone survivor never self-fails: drain down to one chip.
        let rf3 = faulty.step(&x, &y).unwrap(); // fails 0 again
        assert_eq!(rf3.failed_chip, Some(0));
        let rf4 = faulty.step(&x, &y).unwrap(); // fails 2
        assert_eq!(rf4.failed_chip, Some(2));
        let rf5 = faulty.step(&x, &y).unwrap(); // 3 alone: no failure
        assert_eq!(rf5.failed_chip, None);
        assert_eq!(faulty.active_chips(), vec![3]);
    }

    #[test]
    fn counters_and_trace_cover_every_chip() {
        let (x, y) = task(32, 8);
        let net = lenet_12(4, 1, 2, Engine::Host, 42).unwrap();
        let mut t = DataParallelTrainer::new(
            net,
            Optimizer::sgd(0.1),
            TrainConfig {
                chips: 4,
                microbatches: 8,
                trace: true,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        t.step(&x, &y).unwrap();
        for chip in 0..4 {
            assert_eq!(t.tags.get(&chip_tag(chip, "microbatches")), 2);
            assert!(t.tags.get(&link_tag(&format!("tx-{chip}"), "bytes")) > 0);
            assert!(t.tags.get(&link_tag(&format!("rx-{chip}"), "bytes")) > 0);
        }
        let trace = t.take_trace();
        let pids: std::collections::BTreeSet<u64> = trace.events.iter().map(|e| e.pid).collect();
        assert_eq!(pids.len(), 4, "one track per chip");
        assert!(trace.category_dur_us("train") > 0.0);
        assert!(trace.category_dur_us("comm") > 0.0, "comm spans recorded");
    }

    /// The two-class task `tests/cluster.rs` pins its parameter digest on.
    fn pinned_task(batch: usize, seed: u64) -> (Tensor4<f64>, Vec<usize>) {
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// FNV-1a over the parameters' bit patterns, as `tests/cluster.rs`.
    fn params_digest(bits: &[u64]) -> u64 {
        bits.iter()
            .flat_map(|b| b.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn every_lane_count_gives_the_same_bits() {
        // 3 steps on 4 chips: chip 0 fails in step 0, chip 1 in step 1,
        // chip 0 is restored and fails again in step 2. Neither 16 nor 8
        // microbatches divide among 3 lanes; 8 microbatches reproduce the
        // 1-chip digest `host_training_parameters_are_pinned` holds.
        let (x, y) = pinned_task(32, 0xD474);
        for (microbatches, digest) in [(16, None), (8, Some(0x85bd_b5f7_cd70_25da))] {
            let run = |threads: usize| {
                sw_runtime::with_threads(threads, || {
                    let mut t = trainer_cfg(TrainConfig {
                        chips: 4,
                        microbatches,
                        fault: FaultPlan::none(7).with_chip_fail_rate(1.0),
                        ..TrainConfig::default()
                    });
                    let mut losses = Vec::new();
                    let mut failed = Vec::new();
                    for step in 0..3 {
                        if step == 2 {
                            t.restore_chip(0);
                        }
                        let r = t.step(&x, &y).unwrap();
                        losses.push(r.loss);
                        failed.push(r.failed_chip);
                    }
                    assert_eq!(t.replicas.len(), threads.min(microbatches));
                    assert_eq!(failed, [Some(0), Some(1), Some(0)]);
                    (bits(&t.parameters()), bits(&losses))
                })
            };
            let want = run(1);
            if let Some(digest) = digest {
                assert_eq!(params_digest(&want.0), digest, "{microbatches}");
            }
            for threads in [2, 3, 8] {
                assert_eq!(run(threads), want, "{microbatches} x {threads} lanes");
            }
        }
    }

    /// A pass-through layer whose `backward` fails on the microbatches
    /// whose first input value is listed in `fail_on`.
    #[derive(Clone)]
    struct FailOn {
        fail_on: std::sync::Arc<Mutex<Vec<usize>>>,
        first: f64,
    }

    impl Layer for FailOn {
        fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
            self.first = input.data()[0];
            Ok(input.clone())
        }
        fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
            let i = self.first as usize;
            if self.fail_on.lock().unwrap().contains(&i) {
                return Err(SwdnnError::Numeric {
                    context: format!("microbatch {i}"),
                    detail: "injected".into(),
                });
            }
            Ok(d_out.clone())
        }
        fn name(&self) -> &'static str {
            "fail_on"
        }
        fn replica(&self) -> Option<Box<dyn Layer + Send>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn a_failed_step_returns_the_lowest_error_and_changes_nothing() {
        // 16 microbatches of 2; each one's first pixel holds its index.
        let (mut x, y) = task(32, 5);
        for i in 0..16 {
            x.set(2 * i, 0, 0, 0, i as f64);
        }
        let build = |fail_on: &std::sync::Arc<Mutex<Vec<usize>>>| {
            let mut net = lenet_12(2, 1, 2, Engine::Host, 42).unwrap();
            let first = FailOn {
                fail_on: fail_on.clone(),
                first: 0.0,
            };
            net.layers.insert(0, Box::new(first));
            let cfg = TrainConfig {
                chips: 4,
                microbatches: 16,
                ..TrainConfig::default()
            };
            DataParallelTrainer::new(net, Optimizer::adam(0.01), cfg).unwrap()
        };
        for threads in [1, 2, 3, 8] {
            sw_runtime::with_threads(threads, || {
                let fail_on = std::sync::Arc::default();
                let mut clean = build(&std::sync::Arc::default());
                let mut t = build(&fail_on);
                clean.step(&x, &y).unwrap();
                t.step(&x, &y).unwrap();
                // Backward of every lenet layer runs before the first
                // layer's fails, so the failing replicas hold gradients.
                *fail_on.lock().unwrap() = vec![11, 5, 14];
                let (params, opt_steps, now) = (t.parameters(), t.opt.steps(), t.now_us());
                match t.step(&x, &y) {
                    Err(SwdnnError::Numeric { context, .. }) => {
                        assert_eq!(context, "microbatch 5", "{threads} lanes")
                    }
                    other => {
                        panic!("{threads} lanes: expected microbatch 5's error, got {other:?}")
                    }
                }
                assert_eq!(bits(&t.parameters()), bits(&params), "{threads} lanes");
                assert_eq!((t.opt.steps(), t.now_us()), (opt_steps, now));
                fail_on.lock().unwrap().clear();
                for _ in 0..2 {
                    let (want, got) = (clean.step(&x, &y).unwrap(), t.step(&x, &y).unwrap());
                    assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{threads} lanes");
                    assert_eq!(bits(&t.parameters()), bits(&clean.parameters()));
                }
            });
        }
    }

    #[test]
    fn a_layer_without_a_replica_is_refused_by_name() {
        use crate::layers::{Conv2dLayer, Dropout};
        use std::cell::RefCell;
        use std::rc::Rc;
        use sw_tensor::ConvShape;
        let shared = Conv2dLayer::new(ConvShape::new(4, 6, 8, 3, 3, 3, 3), Engine::Host, 43);
        let mut net = lenet_12(4, 1, 2, Engine::Host, 42).unwrap();
        net.layers[3] = Box::new(Rc::new(RefCell::new(shared.unwrap())));
        let err = DataParallelTrainer::new(net, Optimizer::sgd(0.1), TrainConfig::default());
        assert_eq!(
            err.err(),
            Some(SwdnnError::NotReplicable {
                index: 3,
                layer: "conv2d"
            })
        );
        let mut net = lenet_12(4, 1, 2, Engine::Host, 42).unwrap();
        net.layers.insert(2, Box::new(Dropout::new(0.5, 1)));
        let err = DataParallelTrainer::new(net, Optimizer::sgd(0.1), TrainConfig::default());
        assert_eq!(
            err.err(),
            Some(SwdnnError::NotReplicable {
                index: 2,
                layer: "dropout"
            })
        );
    }

    #[test]
    fn step_rejects_mismatched_batches() {
        let (x, y) = task(30, 9); // 30 not divisible by 8
        let mut t = trainer(2, 8);
        assert!(t.step(&x, &y).is_err());
    }
}
