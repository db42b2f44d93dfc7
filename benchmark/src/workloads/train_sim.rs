//! `train_sim` — SGD steps (B = 32) of
//! conv(8→16, 16×16) → ReLU → pool → conv(16→32, 6×6) → ReLU → FC with the
//! convolutions on the simulated chip (`Engine::Simulated`). The same
//! `plans`/`swsim` code as `conv_paper` used the other way: full functional
//! runs, the backward-filter plan and the lowered backward-data pass, on
//! tiles so small that superstep and handoff overhead beat the
//! microkernel — plus the host `network`/`tensor` layers around them.

use super::{cycles_to_us, Checks, Laps, Layers, Outcome, SimClock, Workload};
use crate::gen::{lattice_tensor, train_task};
use crate::probes;
use crate::span;
use crate::spans::Recorder;
use std::cell::Cell;
use std::rc::Rc;
use sw_perfmodel::Blocking;
use sw_tensor::{conv2d_bwd_filter_ref, ConvShape, Layout, Tensor4};
use swdnn::layers::{Conv2dLayer, Engine, Layer, Linear, MaxPool2, ReLU};
use swdnn::network::Sequential;
use swdnn::optim::Optimizer;
use swdnn::plans::{BwdFilterPlan, ConvPlan, ImageAwarePlan};
use swdnn::SwdnnError;

pub const BATCH: usize = 32;
const CLASSES: usize = 4;
const LR: f64 = 0.05;

fn conv1() -> ConvShape {
    ConvShape::new(BATCH, 8, 16, 16, 16, 3, 3)
}

fn conv2() -> ConvShape {
    ConvShape::new(BATCH, 16, 32, 6, 6, 3, 3)
}

/// A conv layer that mirrors its simulated-cycle counter somewhere the
/// harness can read it once the layer is boxed inside a `Sequential`.
struct Metered {
    inner: Conv2dLayer,
    cycles: Rc<Cell<u64>>,
}

impl Layer for Metered {
    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let out = self.inner.forward(input);
        self.cycles.set(self.inner.simulated_cycles);
        out
    }
    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let out = self.inner.backward(d_out);
        self.cycles.set(self.inner.simulated_cycles);
        out
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.inner.visit_params(f)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

fn build(engine: Engine, seed: u64) -> (Sequential, Vec<Rc<Cell<u64>>>) {
    let meters: Vec<Rc<Cell<u64>>> = (0..2).map(|_| Rc::new(Cell::new(0))).collect();
    let conv = |shape, k: usize| -> Box<dyn Layer> {
        Box::new(Metered {
            inner: Conv2dLayer::new(shape, engine, seed.wrapping_add(k as u64))
                .expect("valid conv shape"),
            cycles: meters[k].clone(),
        })
    };
    let net = Sequential::new(vec![
        conv(conv1(), 0),
        Box::new(ReLU::new()),
        Box::new(MaxPool2::new()),
        conv(conv2(), 1),
        Box::new(ReLU::new()),
        Box::new(Linear::new(32 * 6 * 6, CLASSES, seed.wrapping_add(2))),
    ]);
    (net, meters)
}

fn span_name(layer: &'static str, forward: bool) -> &'static str {
    match (layer, forward) {
        ("conv2d", true) => "conv2d.forward",
        ("conv2d", false) => "conv2d.backward",
        (_, true) => "host_layer.forward",
        (_, false) => "host_layer.backward",
    }
}

pub struct TrainSim {
    seed: u64,
    x: Tensor4<f64>,
    y: Vec<usize>,
    net: Sequential,
    opt: Optimizer,
    meters: Vec<Rc<Cell<u64>>>,
    /// Loss before each update, one per step taken (warm-up included).
    losses: Vec<f64>,
    /// Simulated conv cycles charged by each step.
    step_cycles: Vec<u64>,
    handoffs: u64,
    errors: u64,
}

impl TrainSim {
    pub fn setup(seed: u64, _smoke: bool) -> Self {
        let (x, y) = train_task(seed, BATCH, 8, 18, CLASSES);
        let (net, meters) = build(Engine::Simulated, seed);
        let mut w = Self {
            seed,
            x,
            y,
            net,
            opt: Optimizer::sgd(LR),
            meters,
            losses: Vec::new(),
            step_cycles: Vec::new(),
            handoffs: 0,
            errors: 0,
        };
        w.pass(&mut Recorder::new(false));
        w
    }

    fn cycles(&self) -> u64 {
        self.meters.iter().map(|m| m.get()).sum()
    }

    /// `Sequential::train_step_opt`, call by call, one span per layer.
    fn traced_step(&mut self, rec: &mut Recorder) -> Result<f64, SwdnnError> {
        let op = self.losses.len();
        let mut act = self.x.clone();
        for layer in &mut self.net.layers {
            let name = span_name(layer.name(), true);
            act = span!(rec, "network", name, op, layer.forward(&act))?;
        }
        let loss = span!(
            rec,
            "network",
            "loss.forward",
            op,
            self.net.loss.forward(&act, &self.y)
        )?;
        let mut grad = span!(
            rec,
            "network",
            "loss.backward",
            op,
            self.net.loss.backward(&self.y)
        )?;
        for layer in self.net.layers.iter_mut().rev() {
            let name = span_name(layer.name(), false);
            grad = span!(rec, "network", name, op, layer.backward(&grad))?;
        }
        span!(
            rec,
            "network",
            "optimizer.step",
            op,
            self.opt.step(&mut self.net.layers)
        );
        Ok(loss)
    }
}

impl Workload for TrainSim {
    fn ops(&self) -> u64 {
        BATCH as u64
    }

    fn pass(&mut self, rec: &mut Recorder) -> Vec<f64> {
        let mut laps = Laps::start();
        let rt = sw_runtime::global();
        let (cycles, handoffs) = (self.cycles(), rt.pool_handoffs());
        let step = if rec.enabled() {
            self.traced_step(rec)
        } else {
            self.net.train_step_opt(&self.x, &self.y, &mut self.opt)
        };
        match step {
            Ok(loss) => {
                self.losses.push(loss);
                self.step_cycles.push(self.cycles() - cycles);
                self.handoffs = rt.pool_handoffs() - handoffs;
            }
            Err(_) => self.errors += 1,
        }
        laps.lap();
        laps.done()
    }

    fn finish(&mut self) -> Outcome {
        let mut checks = Checks::default();
        let steps = self.losses.len() as u64;
        checks.check_n(
            (steps + self.errors) * BATCH as u64,
            self.errors * BATCH as u64,
            || format!("{} training steps returned an error", self.errors),
        );
        // The plain baseline: the same task on the host engine must give
        // the same loss curve, and the curve must go down.
        let (mut host, _) = build(Engine::Host, self.seed);
        let mut opt = Optimizer::sgd(LR);
        for (i, &sim_loss) in self.losses.iter().enumerate() {
            let host_loss = host
                .train_step_opt(&self.x, &self.y, &mut opt)
                .unwrap_or(f64::NAN);
            checks.check((host_loss - sim_loss).abs() <= 1e-12, || {
                format!("step {i}: simulated loss {sim_loss} vs host {host_loss}")
            });
        }
        checks.check(
            self.losses.len() >= 2 && self.losses.last() < self.losses.first(),
            || format!("loss did not decrease: {:?}", self.losses),
        );
        checks.check(self.meters.iter().all(|m| m.get() > 0), || {
            "a conv layer charged no simulated cycles".into()
        });
        let per_step = self.step_cycles.first().copied().unwrap_or(0);
        checks.check(
            per_step > 0 && self.step_cycles.iter().all(|&c| c == per_step),
            || format!("simulated cycles vary step to step: {:?}", self.step_cycles),
        );
        // The plan kind only this workload runs functionally.
        let s = probes::small_shape();
        let x = lattice_tensor(s.input_shape(), Layout::Nchw, self.seed, 30);
        let dy = lattice_tensor(s.output_shape(), Layout::Nchw, self.seed, 31);
        let same = BwdFilterPlan::auto(&s)
            .run(&s, &x, &dy)
            .is_ok_and(|(dw, _)| dw.to_layout(Layout::Nchw) == conv2d_bwd_filter_ref(s, &x, &dy));
        checks.check(same, || {
            "bwd_filter differs from conv2d_bwd_filter_ref".into()
        });
        Outcome {
            sim: SimClock::closed_loop(vec![cycles_to_us(per_step)], BATCH as f64),
            checks,
            notes: vec![format!("loss per step: {:?}", self.losses)],
        }
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) {
        let per_step = self.step_cycles.last().copied().unwrap_or(0);
        out.insert("network.sim_cycles_per_step", per_step as f64);
        out.insert(
            "runtime.pool_handoffs_per_op",
            self.handoffs as f64 / BATCH as f64,
        );

        let ms = |name| rec.total("network", name).0 as f64 / 1e6;
        out.insert("network.conv_fwd_ms", ms("conv2d.forward"));
        out.insert("network.conv_bwd_ms", ms("conv2d.backward"));
        out.insert(
            "network.host_layers_ms",
            ms("host_layer.forward")
                + ms("host_layer.backward")
                + ms("loss.forward")
                + ms("loss.backward"),
        );
        out.insert("network.optim_step_us", ms("optimizer.step") * 1e3);

        let (mut host, _) = build(Engine::Host, self.seed);
        let mut opt = Optimizer::sgd(LR);
        let secs = probes::per_call(3, 1, || {
            let _ = std::hint::black_box(host.train_step_opt(&self.x, &self.y, &mut opt));
        });
        out.insert("network.host_engine_step_ms", secs * 1e3);

        let s = conv1();
        let bwd = BwdFilterPlan::auto(&s);
        probes::plan_timing(out, "plans.bwd_filter", || {
            bwd.time_full_shape(&s)
                .expect("conv1 is mesh-eligible")
                .cycles
        });
        let x = lattice_tensor(s.input_shape(), Layout::Nchw, self.seed, 32);
        let w = lattice_tensor(s.filter_shape(), Layout::Nchw, self.seed, 33);
        let dy = lattice_tensor(s.output_shape(), Layout::Nchw, self.seed, 34);
        let img = ImageAwarePlan::new(Blocking { b_b: 32, b_co: 8 });
        let secs = probes::per_call(3, 1, || {
            std::hint::black_box(img.run(&s, &x, &w).expect("image-aware run"));
        });
        out.insert("plans.image_aware.run_ms", secs * 1e3);
        let secs = probes::per_call(3, 1, || {
            std::hint::black_box(bwd.run(&s, &x, &dy).expect("bwd-filter run"));
        });
        out.insert("plans.bwd_filter.run_ms", secs * 1e3);

        probes::tensor(out);
        probes::swsim_overheads(out);
        probes::runtime(out);
        probes::gemm_small(out);
    }
}
