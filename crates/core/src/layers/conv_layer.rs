//! Trainable convolution layer.

use super::Layer;
use crate::conv::Conv2d;
use crate::error::SwdnnError;
use crate::plans::check_operands;
use sw_tensor::{init::xavier_filter, ConvShape, Layout, Tensor4};

/// Where the convolution's three passes execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Host loops (fast for unit tests and training demos).
    #[default]
    Host,
    /// The simulated SW26010 core group: the selected forward plan, then
    /// [`crate::plans::BwdDataPlan`] and [`crate::plans::BwdFilterPlan`],
    /// each falling back to the host loops on a shape the mesh cannot tile.
    Simulated,
}

/// Simulated cycles each pass of a layer has charged (all 0 for host runs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PassCycles {
    pub forward: u64,
    pub bwd_data: u64,
    pub bwd_filter: u64,
}

/// `Conv2d` with trainable filters and per-output-channel bias.
#[derive(Clone)]
pub struct Conv2dLayer {
    pub conv: Conv2d,
    pub engine: Engine,
    pub weights: Tensor4<f64>,
    pub bias: Vec<f64>,
    d_weights: Tensor4<f64>,
    d_bias: Vec<f64>,
    cached_input: Option<Tensor4<f64>>,
    /// Cycles charged by the simulated engine so far (0 for host runs):
    /// the sum of `pass_cycles`.
    pub simulated_cycles: u64,
    pub pass_cycles: PassCycles,
}

impl Conv2dLayer {
    pub fn new(shape: ConvShape, engine: Engine, seed: u64) -> Result<Self, SwdnnError> {
        let conv = Conv2d::new(shape)?;
        Ok(Self {
            conv,
            engine,
            weights: xavier_filter(shape.filter_shape(), Layout::Nchw, seed),
            bias: vec![0.0; shape.no],
            d_weights: Tensor4::zeros(shape.filter_shape(), Layout::Nchw),
            d_bias: vec![0.0; shape.no],
            cached_input: None,
            simulated_cycles: 0,
            pass_cycles: PassCycles::default(),
        })
    }

    /// Add `cycles` to one pass's counter and to the total.
    fn charge(&mut self, pass: fn(&mut PassCycles) -> &mut u64, cycles: u64) {
        *pass(&mut self.pass_cycles) += cycles;
        self.simulated_cycles += cycles;
    }
}

impl Layer for Conv2dLayer {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn replica(&self) -> Option<Box<dyn Layer + Send>> {
        Some(Box::new(self.clone()))
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let shape = self.conv.shape;
        check_operands([(input, shape.input_shape())])?;
        let mut out = match self.engine {
            Engine::Host => sw_tensor::conv2d_ref(shape, input, &self.weights),
            Engine::Simulated => {
                let run = self.conv.forward(input, &self.weights)?;
                self.charge(|p| &mut p.forward, run.timing.cycles);
                run.output.to_layout(Layout::Nchw)
            }
        };
        // Bias, one NCHW output plane per `(b, no)`.
        for (plane, ys) in out.data_mut().chunks_mut(shape.ro * shape.co).enumerate() {
            let bias = self.bias[plane % shape.no];
            ys.iter_mut().for_each(|y| *y += bias);
        }
        match &mut self.cached_input {
            Some(cached) => cached.clone_from(input),
            None => self.cached_input = Some(input.clone()),
        }
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| SwdnnError::ShapeMismatch {
                expected: "forward before backward".into(),
                got: "no cached input".into(),
            })?;
        let shape = self.conv.shape;
        // Filter gradient: on the simulated chip when the mesh supports the
        // shape (the dedicated BwdFilterPlan), host reference otherwise.
        let dw = match self.engine {
            Engine::Simulated => match self.conv.backward_filter_on_chip(input, d_out) {
                Ok((dw, timing)) => {
                    self.charge(|p| &mut p.bwd_filter, timing.cycles);
                    dw
                }
                Err(SwdnnError::Unsupported { .. }) => self.conv.backward_filter(input, d_out)?,
                Err(e) => return Err(e),
            },
            Engine::Host => self.conv.backward_filter(input, d_out)?,
        };
        for (acc, g) in self.d_weights.data_mut().iter_mut().zip(dw.data()) {
            *acc += g;
        }
        // `d_bias[no]` sums its planes in `(b, ro, co)` order.
        let d_out_rows = d_out.as_nchw();
        for (plane, gs) in d_out_rows.data().chunks(shape.ro * shape.co).enumerate() {
            let acc = &mut self.d_bias[plane % shape.no];
            gs.iter().for_each(|g| *acc += g);
        }
        // Data gradient: likewise (the dedicated BwdDataPlan).
        if self.engine == Engine::Simulated {
            match self.conv.backward_data_on_chip(d_out, &self.weights) {
                Ok(run) => {
                    self.charge(|p| &mut p.bwd_data, run.timing.cycles);
                    return Ok(run.output.to_layout(Layout::Nchw));
                }
                Err(SwdnnError::Unsupported { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.conv.backward_data(d_out, &self.weights)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(self.weights.data_mut(), self.d_weights.data_mut());
        f(&mut self.bias, &mut self.d_bias);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::init::seeded_tensor;
    use sw_tensor::Shape4;

    fn layer_shape() -> ConvShape {
        ConvShape::new(2, 3, 4, 4, 4, 3, 3)
    }

    #[test]
    fn forward_adds_bias() {
        let shape = layer_shape();
        let mut layer = Conv2dLayer::new(shape, Engine::Host, 1).unwrap();
        let x = seeded_tensor(shape.input_shape(), Layout::Nchw, 2);
        let y0 = layer.forward(&x).unwrap();
        layer.bias[1] = 5.0;
        let y1 = layer.forward(&x).unwrap();
        assert!((y1.get(0, 1, 0, 0) - y0.get(0, 1, 0, 0) - 5.0).abs() < 1e-12);
        assert_eq!(y1.get(0, 0, 0, 0), y0.get(0, 0, 0, 0));
    }

    #[test]
    fn misfit_input_is_a_shape_mismatch_on_both_engines() {
        let shape = layer_shape();
        let misfit = seeded_tensor(Shape4::new(2, 3, 5, 6), Layout::Nchw, 2);
        for engine in [Engine::Host, Engine::Simulated] {
            let mut layer = Conv2dLayer::new(shape, engine, 1).unwrap();
            assert!(
                matches!(
                    layer.forward(&misfit),
                    Err(SwdnnError::ShapeMismatch { .. })
                ),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn gradient_check_weights_and_bias() {
        let shape = ConvShape::new(1, 2, 2, 3, 3, 2, 2);
        let mut layer = Conv2dLayer::new(shape, Engine::Host, 3).unwrap();
        let x = seeded_tensor(shape.input_shape(), Layout::Nchw, 4);
        // Loss = sum(output).
        let _ = layer.forward(&x).unwrap();
        let ones = Tensor4::full(shape.output_shape(), Layout::Nchw, 1.0);
        let _ = layer.backward(&ones).unwrap();

        let eps = 1e-6;
        let base: f64 = layer.forward(&x).unwrap().sum_f64();
        // Weight (0,0,0,0).
        let analytic = layer.d_weights.get(0, 0, 0, 0);
        layer
            .weights
            .set(0, 0, 0, 0, layer.weights.get(0, 0, 0, 0) + eps);
        let bumped = layer.forward(&x).unwrap().sum_f64();
        let fd = (bumped - base) / eps;
        assert!(
            (fd - analytic).abs() < 1e-4,
            "weight grad fd {fd} vs {analytic}"
        );
        // Bias 0 gradient is the number of output positions.
        assert!((layer.d_bias[0] - (shape.batch * shape.ro * shape.co) as f64).abs() < 1e-9);
    }

    #[test]
    fn simulated_engine_matches_host_engine() {
        let shape = ConvShape::new(16, 8, 8, 4, 8, 3, 3);
        let x = seeded_tensor(shape.input_shape(), Layout::Nchw, 5);
        let mut host = Conv2dLayer::new(shape, Engine::Host, 7).unwrap();
        let mut sim = Conv2dLayer::new(shape, Engine::Simulated, 7).unwrap();
        let yh = host.forward(&x).unwrap();
        let ys = sim.forward(&x).unwrap();
        assert!(ys.approx_eq(&yh, 1e-10));
        assert!(sim.simulated_cycles > 0);
        assert_eq!(host.simulated_cycles, 0);
    }

    #[test]
    fn simulated_backward_matches_host_backward() {
        // A mesh-eligible layer trained one step with each engine must end
        // with identical parameters (all three passes run on the chip).
        let shape = ConvShape::new(32, 8, 8, 4, 8, 3, 3);
        let x = seeded_tensor(shape.input_shape(), Layout::Nchw, 11);
        let dy = seeded_tensor(shape.output_shape(), Layout::Nchw, 12);
        let mut host = Conv2dLayer::new(shape, Engine::Host, 13).unwrap();
        let mut sim = Conv2dLayer::new(shape, Engine::Simulated, 13).unwrap();
        let _ = host.forward(&x).unwrap();
        let _ = sim.forward(&x).unwrap();
        let dxh = host.backward(&dy).unwrap();
        let dxs = sim.backward(&dy).unwrap();
        assert!(dxs.approx_eq(&dxh, 1e-9));
        host.sgd_step(0.1);
        sim.sgd_step(0.1);
        assert!(sim.weights.approx_eq(&host.weights, 1e-9));
        assert!(sim.simulated_cycles > 0);
    }

    #[test]
    fn sgd_step_moves_weights_and_clears_grads() {
        let shape = layer_shape();
        let mut layer = Conv2dLayer::new(shape, Engine::Host, 9).unwrap();
        let x = seeded_tensor(shape.input_shape(), Layout::Nchw, 10);
        let _ = layer.forward(&x).unwrap();
        let ones = Tensor4::full(shape.output_shape(), Layout::Nchw, 1.0);
        let _ = layer.backward(&ones).unwrap();
        let before = layer.weights.get(0, 0, 0, 0);
        let grad = layer.d_weights.get(0, 0, 0, 0);
        layer.sgd_step(0.1);
        assert!((layer.weights.get(0, 0, 0, 0) - (before - 0.1 * grad)).abs() < 1e-12);
        assert_eq!(layer.d_weights.get(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn param_count_is_filters_plus_bias() {
        let shape = layer_shape();
        let layer = Conv2dLayer::new(shape, Engine::Host, 1).unwrap();
        assert_eq!(layer.param_count(), 4 * 3 * 3 * 3 + 4);
    }
}
