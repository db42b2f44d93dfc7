//! `fleet_train` — an 8-chip `DataParallelTrainer` on `lenet_12`:
//! 16 microbatches × 4 samples per step, 100-parameter gradient buckets,
//! overlap on, the grouped `sw_supernode` topology. One pass trains a
//! fresh model for 50 steps; chip 3 dies half-way through step 25 and
//! returns at step 30. `cluster::collective` and
//! `perfmodel::NetworkModel::execute` do the work — there is no mesh
//! simulation at all (per-microbatch compute is a modelled constant).

use super::{Checks, Laps, Layers, Outcome, SimClock, Workload};
use crate::gen::train_task;
use crate::probes;
use crate::span;
use crate::spans::Recorder;
use crate::stats::median;
use std::hint::black_box;
use sw_perfmodel::{InterconnectSpec, LinkOccupancy, NetworkModel, Topology};
use sw_sim::FaultPlan;
use sw_tensor::Tensor4;
use swdnn::cluster::{
    reduce_bucketized, run_collective, BucketPlan, DataParallelTrainer, StepReport, TrainConfig,
};
use swdnn::layers::Engine;
use swdnn::optim::Optimizer;
use swdnn::SwdnnError;

const CHIPS: usize = 8;
const MICROBATCHES: usize = 16;
const MICROBATCH: usize = 4;
const SAMPLES: usize = MICROBATCHES * MICROBATCH;
const BUCKET_PARAMS: usize = 100;
const STEPS: usize = 50;
const FAIL_STEP: u64 = 25;
const FAIL_CHIP: usize = 3;
const RESTORE_STEP: usize = 30;
const LR: f64 = 0.05;

/// A fault plan under which, over one pass, exactly one chip fails:
/// `FAIL_CHIP`, at `FAIL_STEP`, with the first of its two microbatches
/// done. Chip failures are a pure function of `(seed, chip, step)`, so
/// the plan is found by trying seeds derived from `seed` — the scenario
/// (and with it every simulated time) is the same for every `--seed`,
/// only the decision stream that produces it differs.
fn one_failure_plan(seed: u64) -> FaultPlan {
    (0u64..)
        .map(|k| {
            FaultPlan::none(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9)))
                .with_chip_fail_rate(1.0 / 256.0)
        })
        .find(|plan| {
            let mut down = [false; CHIPS];
            let mut failures = Vec::new();
            for step in 0..STEPS as u64 {
                if step as usize == RESTORE_STEP {
                    down = [false; CHIPS];
                }
                // The trainer fails the first active chip that rolls.
                if let Some(chip) = (0..CHIPS).find(|&c| !down[c] && plan.chip_fails(c, step)) {
                    down[chip] = true;
                    failures.push((chip, step));
                }
            }
            failures == [(FAIL_CHIP, FAIL_STEP)]
                && (0.5..1.0).contains(&plan.chip_fail_progress(FAIL_CHIP, FAIL_STEP))
        })
        .expect("an unbounded seed search ends")
}

fn config(chips: usize, fault: FaultPlan) -> TrainConfig {
    TrainConfig {
        chips,
        microbatches: MICROBATCHES,
        bucket_params: Some(BUCKET_PARAMS),
        overlap: true,
        topology: Topology::sw_supernode(),
        fault,
        ..TrainConfig::default()
    }
}

fn trainer(seed: u64, chips: usize, fault: FaultPlan) -> Result<DataParallelTrainer, SwdnnError> {
    let net = swdnn::zoo::lenet_12(MICROBATCH, 1, 2, Engine::Host, seed)?;
    DataParallelTrainer::new(net, Optimizer::sgd(LR), config(chips, fault))
}

pub struct FleetTrain {
    seed: u64,
    steps: usize,
    x: Tensor4<f64>,
    y: Vec<usize>,
    fault: FaultPlan,
    /// The most recent pass: its step reports and final parameters.
    reports: Vec<StepReport>,
    params: Vec<f64>,
    errors: u64,
}

impl FleetTrain {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let (x, y) = train_task(seed, SAMPLES, 1, 12, 2);
        let mut w = Self {
            seed,
            // A smoke pass still has to contain the failure and the return.
            steps: if smoke { RESTORE_STEP + 2 } else { STEPS },
            x,
            y,
            fault: one_failure_plan(seed),
            reports: Vec::new(),
            params: Vec::new(),
            errors: 0,
        };
        w.pass(&mut Recorder::new(false));
        w
    }

    fn train(
        &mut self,
        chips: usize,
        fault: FaultPlan,
        rec: &mut Recorder,
    ) -> Result<(Vec<StepReport>, Vec<f64>), SwdnnError> {
        let mut t = span!(
            rec,
            "cluster",
            "DataParallelTrainer::new",
            0,
            trainer(self.seed, chips, fault)
        )?;
        let mut reports = Vec::with_capacity(self.steps);
        for step in 0..self.steps {
            if step == RESTORE_STEP {
                span!(
                    rec,
                    "cluster",
                    "restore_chip",
                    step,
                    t.restore_chip(FAIL_CHIP)
                );
            }
            reports.push(span!(
                rec,
                "cluster",
                "step",
                step,
                t.step(&self.x, &self.y)
            )?);
        }
        Ok((reports, t.parameters()))
    }
}

impl Workload for FleetTrain {
    fn ops(&self) -> u64 {
        (self.steps * SAMPLES) as u64
    }

    fn pass(&mut self, rec: &mut Recorder) -> Vec<f64> {
        let mut laps = Laps::start();
        match self.train(CHIPS, self.fault, rec) {
            Ok((reports, params)) => {
                self.reports = reports;
                self.params = params;
            }
            Err(_) => self.errors += 1,
        }
        laps.lap();
        laps.done()
    }

    fn finish(&mut self) -> Outcome {
        let mut checks = Checks::default();
        let samples = self.ops();
        checks.check_n(samples, if self.errors > 0 { samples } else { 0 }, || {
            format!("{} training passes returned an error", self.errors)
        });
        let failures: Vec<(usize, usize)> = self
            .reports
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.failed_chip.map(|c| (c, i)))
            .collect();
        checks.check(failures == [(FAIL_CHIP, FAIL_STEP as usize)], || {
            format!("expected chip {FAIL_CHIP} to fail at step {FAIL_STEP} only, saw {failures:?}")
        });
        let losses: Vec<f64> = self.reports.iter().map(|r| r.loss).collect();
        checks.check(losses.len() >= 2 && losses.last() < losses.first(), || {
            format!(
                "loss did not decrease: first {:?}, last {:?}",
                losses.first(),
                losses.last()
            )
        });
        // The plain single-worker baseline: a healthy 1-chip run of the
        // same task must end with bit-identical parameters and losses.
        match self.train(1, FaultPlan::none(0), &mut Recorder::new(false)) {
            Ok((single, params)) => {
                let same = |a: &[f64], b: &[f64]| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                };
                checks.check(same(&params, &self.params), || {
                    "8-chip parameters differ from the healthy 1-chip run".into()
                });
                let single_losses: Vec<f64> = single.iter().map(|r| r.loss).collect();
                checks.check(same(&single_losses, &losses), || {
                    "8-chip losses differ from the healthy 1-chip run".into()
                });
            }
            Err(e) => checks.check(false, || format!("1-chip baseline failed: {e}")),
        }
        let op_us = self.reports.iter().map(|r| r.step_us).collect();
        Outcome {
            sim: SimClock::closed_loop(op_us, SAMPLES as f64),
            checks,
            notes: vec![format!(
                "loss {:?} -> {:?}; step {} us_sim healthy, {} us_sim with the failure",
                losses.first(),
                losses.last(),
                self.reports.first().map_or(0.0, |r| r.step_us),
                self.reports
                    .get(FAIL_STEP as usize)
                    .map_or(0.0, |r| r.step_us),
            )],
        }
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) {
        let step_us: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.layer == "cluster" && s.name == "step")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        out.insert("cluster.train_step_host_us", median(&step_us));
        if let Some(healthy) = self.reports.first() {
            out.insert("cluster.comm_us", healthy.collective.comm_us);
            out.insert("cluster.hidden_us", healthy.collective.hidden_us);
            out.insert(
                "cluster.overlap_permille",
                healthy.collective.overlap_permille as f64,
            );
            out.insert(
                "cluster.wire_bytes_per_chip",
                healthy.allreduce.wire_bytes_per_chip as f64,
            );
        }

        // The two halves of a step's communication, called directly: the
        // numeric reduce over 16 microbatch gradients, and the modelled
        // bucketized collective over 8 chips.
        let params = self.params.len();
        let plan = BucketPlan::fixed_size(params, BUCKET_PARAMS);
        let grads: Vec<Vec<f64>> = (0..MICROBATCHES)
            .map(|m| (0..params).map(|i| ((i + m) % 17) as f64 * 0.125).collect())
            .collect();
        let secs = probes::per_call(7, 50, || {
            black_box(reduce_bucketized(black_box(&grads), &plan));
        });
        out.insert("cluster.reduce_us", secs * 1e6);
        let model = NetworkModel::new(InterconnectSpec::sw_cluster(), Topology::sw_supernode());
        let members: Vec<usize> = (0..CHIPS).collect();
        let ready: Vec<f64> = (0..plan.len()).map(|b| 1_000.0 - 50.0 * b as f64).collect();
        let secs = probes::per_call(7, 50, || {
            let mut occ = LinkOccupancy::new();
            black_box(run_collective(
                &model, &mut occ, &members, &plan, &ready, 1_000.0,
            ));
        });
        out.insert("cluster.collective_us", secs * 1e6);
        probes::collective(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_gets_the_same_scenario_from_its_own_fault_stream() {
        let (a, b) = (one_failure_plan(1), one_failure_plan(2));
        assert_ne!(a.seed, b.seed);
        assert_eq!(one_failure_plan(1).seed, a.seed);
        for plan in [a, b] {
            let failing: Vec<(usize, u64)> = (0..STEPS as u64)
                .flat_map(|step| (0..CHIPS).map(move |chip| (chip, step)))
                .filter(|&(chip, step)| plan.chip_fails(chip, step))
                .collect();
            assert_eq!(failing.first(), Some(&(FAIL_CHIP, FAIL_STEP)));
            // The victim has two of the 16 microbatches; it dies after one.
            let done = (plan.chip_fail_progress(FAIL_CHIP, FAIL_STEP) * 2.0).floor();
            assert_eq!(done, 1.0);
        }
    }
}
