//! Trainable convolution layer with general geometry (padding + stride).
//!
//! The mesh plans cover the paper's dense stride-1 case; this layer brings
//! the general form (AlexNet stems, "same"-padded networks) into the layer
//! stack using the host reference kernels — when the geometry degenerates
//! to the dense case it routes through [`super::Conv2dLayer`]'s machinery
//! implicitly by producing identical results.

use super::{check_grad_shape, Layer};
use crate::error::SwdnnError;
use sw_tensor::conv_general::{
    conv2d_general, conv2d_general_bwd_data, conv2d_general_bwd_filter, ConvGeometry,
};
use sw_tensor::{init::xavier_filter, Layout, Shape4, Tensor4};

/// Convolution with arbitrary padding and stride.
pub struct ConvGeneralLayer {
    pub geom: ConvGeometry,
    pub in_channels: usize,
    pub out_channels: usize,
    pub weights: Tensor4<f64>,
    pub bias: Vec<f64>,
    d_weights: Tensor4<f64>,
    d_bias: Vec<f64>,
    cached_input: Option<Tensor4<f64>>,
}

impl ConvGeneralLayer {
    pub fn new(geom: ConvGeometry, in_channels: usize, out_channels: usize, seed: u64) -> Self {
        let w_shape = Shape4::new(out_channels, in_channels, geom.kr, geom.kc);
        Self {
            geom,
            in_channels,
            out_channels,
            weights: xavier_filter(w_shape, Layout::Nchw, seed),
            bias: vec![0.0; out_channels],
            d_weights: Tensor4::zeros(w_shape, Layout::Nchw),
            d_bias: vec![0.0; out_channels],
            cached_input: None,
        }
    }
}

impl Layer for ConvGeneralLayer {
    fn name(&self) -> &'static str {
        "conv_general"
    }

    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let s = input.shape();
        if s.d1 != self.in_channels {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("{} in channels", self.in_channels),
                got: format!("{:?}", s),
            });
        }
        if self.geom.output_extent(s.d2, s.d3).is_none() {
            return Err(SwdnnError::ShapeMismatch {
                expected: "input at least as large as the padded filter".into(),
                got: format!("{:?}", s),
            });
        }
        let mut out = conv2d_general(&self.geom, input, &self.weights);
        let o = out.shape();
        for b in 0..o.d0 {
            for no in 0..o.d1 {
                for r in 0..o.d2 {
                    for c in 0..o.d3 {
                        out[(b, no, r, c)] += self.bias[no];
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
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
        let s = input.shape();
        let (ro, co) = self.geom.output_extent(s.d2, s.d3).unwrap_or((0, 0));
        check_grad_shape(Shape4::new(s.d0, self.out_channels, ro, co), d_out)?;
        let dw = conv2d_general_bwd_filter(&self.geom, input, d_out);
        for i in 0..dw.data().len() {
            self.d_weights.data_mut()[i] += dw.data()[i];
        }
        let o = d_out.shape();
        for b in 0..o.d0 {
            for no in 0..o.d1 {
                for r in 0..o.d2 {
                    for c in 0..o.d3 {
                        self.d_bias[no] += d_out.get(b, no, r, c);
                    }
                }
            }
        }
        Ok(conv2d_general_bwd_data(
            &self.geom,
            input.shape(),
            d_out,
            &self.weights,
        ))
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
    use crate::layers::conv_layer::{Conv2dLayer, Engine};
    use sw_tensor::init::seeded_tensor;
    use sw_tensor::ConvShape;

    #[test]
    fn dense_geometry_matches_conv2d_layer() {
        let shape = ConvShape::new(2, 3, 4, 4, 4, 3, 3);
        let x = seeded_tensor(shape.input_shape(), Layout::Nchw, 1);
        let mut dense = Conv2dLayer::new(shape, Engine::Host, 9).unwrap();
        let mut general = ConvGeneralLayer::new(ConvGeometry::valid(3, 3), 3, 4, 9);
        // Same seed -> same xavier weights.
        let yd = dense.forward(&x).unwrap();
        let yg = general.forward(&x).unwrap();
        assert_eq!(yg.max_abs_diff(&yd), 0.0);
    }

    #[test]
    fn same_padding_keeps_spatial_size() {
        let mut layer = ConvGeneralLayer::new(ConvGeometry::same(3, 3), 2, 5, 10);
        let x = seeded_tensor(Shape4::new(1, 2, 7, 7), Layout::Nchw, 2);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), Shape4::new(1, 5, 7, 7));
    }

    #[test]
    fn strided_gradient_descends() {
        // loss = sum(out); one SGD step must reduce it.
        let geom = ConvGeometry::same(3, 3).with_stride(2, 2);
        let mut layer = ConvGeneralLayer::new(geom, 1, 2, 11);
        let x = seeded_tensor(Shape4::new(2, 1, 6, 6), Layout::Nchw, 3);
        let y0 = layer.forward(&x).unwrap();
        let dy = Tensor4::full(y0.shape(), Layout::Nchw, 1.0);
        let _ = layer.backward(&dy).unwrap();
        layer.sgd_step(0.01);
        let y1 = layer.forward(&x).unwrap();
        assert!(y1.sum_f64() < y0.sum_f64());
    }

    #[test]
    fn rejects_wrong_channels_and_tiny_inputs() {
        let mut layer = ConvGeneralLayer::new(ConvGeometry::valid(5, 5), 2, 2, 12);
        let wrong_ch = seeded_tensor(Shape4::new(1, 3, 8, 8), Layout::Nchw, 4);
        assert!(layer.forward(&wrong_ch).is_err());
        let tiny = seeded_tensor(Shape4::new(1, 2, 3, 3), Layout::Nchw, 5);
        assert!(layer.forward(&tiny).is_err());
    }
}
