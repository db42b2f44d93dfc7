//! The six workloads. Each one is set up from a seed, runs timed passes,
//! then (outside any timed region) checks its outputs and reports what it
//! saw on the simulated clock.

pub mod conv_paper;
pub mod fleet_serve;
pub mod fleet_train;
pub mod openloop;
pub mod serve_zipf;
pub mod train_sim;
pub mod tune_search;

use crate::spans::Recorder;
use crate::stats::percentile_sorted;
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated cycles → simulated µs at the SW26010's clock.
pub fn cycles_to_us(cycles: u64) -> f64 {
    sw_perfmodel::ChipSpec::sw26010().cycles_to_seconds(cycles) * 1e6
}

/// Output checks: how many were attempted, how many failed, and why.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// One check covering one op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check_n(1, u64::from(!ok), what);
    }

    /// One check covering `n` ops of which `bad` failed.
    pub fn check_n(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.notes.push(what());
        }
    }
}

/// What the workload saw on the simulated (logical) clock. A pure
/// function of the code and the seed — never of host speed or of how many
/// timed passes fitted into the run.
#[derive(Clone, Debug)]
pub struct SimClock {
    pub sim_ms_per_op: f64,
    /// Per-op latency population, simulated µs, sorted ascending.
    pub latencies_us: Vec<f64>,
    pub max_rate_under_slo: f64,
    pub goodput_frac: f64,
}

impl SimClock {
    /// A closed loop (one caller, ops back to back): latency is service
    /// time, the sustainable rate is its reciprocal, nothing is refused.
    pub fn closed_loop(mut op_us: Vec<f64>, ops_per_sample: f64) -> Self {
        op_us.sort_by(f64::total_cmp);
        let total_us: f64 = op_us.iter().sum();
        let ops = op_us.len() as f64 * ops_per_sample;
        Self {
            sim_ms_per_op: total_us / ops / 1e3,
            max_rate_under_slo: ops / (total_us / 1e6),
            latencies_us: op_us,
            goodput_frac: 1.0,
        }
    }

    pub fn percentile(&self, pct: f64) -> f64 {
        percentile_sorted(&self.latencies_us, pct)
    }
}

/// Lap timer for [`Workload::pass`].
pub struct Laps {
    last: Instant,
    secs: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    pub fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    pub fn done(self) -> Vec<f64> {
        self.secs
    }
}

/// Per-layer metric values by catalog name.
pub type Layers = BTreeMap<&'static str, f64>;

pub struct Outcome {
    pub sim: SimClock,
    pub checks: Checks,
    /// Human-readable extras for the report (ladder rungs, loss curve).
    pub notes: Vec<String>,
}

pub trait Workload {
    /// Ops one pass completes.
    fn ops(&self) -> u64;

    /// One timed pass, returned as the host seconds of each of its laps
    /// (a conv, a search, a rung — the same laps every pass). The harness
    /// takes each lap's median over the passes and adds the medians up, so
    /// a scheduler burst that lands on one lap of one pass drops out. With
    /// an enabled recorder the pass also records a span around every call
    /// it makes into a layer.
    fn pass(&mut self, rec: &mut Recorder) -> Vec<f64>;

    /// Untimed: reference runs on the simulated clock plus output checks.
    fn finish(&mut self) -> Outcome;

    /// Untimed, traced runs only: this workload's per-layer metrics — its
    /// own counters, numbers read off the traced pass, and the probes of
    /// the layers it leans on.
    fn layers(&mut self, rec: &Recorder, out: &mut Layers);
}

/// Generate inputs from `seed`, construct the system, run the warm-up.
/// `smoke` shrinks request counts tenfold.
pub fn setup(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "conv_paper" => Box::new(conv_paper::ConvPaper::setup(seed, smoke)),
        "train_sim" => Box::new(train_sim::TrainSim::setup(seed, smoke)),
        "tune_search" => Box::new(tune_search::TuneSearch::setup(seed, smoke)),
        "serve_zipf" => Box::new(serve_zipf::ServeZipf::setup(seed, smoke)),
        "fleet_serve" => Box::new(fleet_serve::FleetServe::setup(seed, smoke)),
        "fleet_train" => Box::new(fleet_train::FleetTrain::setup(seed, smoke)),
        _ => return None,
    })
}
