//! General convolution geometry: zero padding and striding.
//!
//! The paper's kernels cover the dense "valid" convolution (stride 1, no
//! padding) that dominates training time; a usable library also needs the
//! general form for real network architectures (AlexNet's stride-4 stem,
//! "same" padding everywhere). This module provides the reference
//! implementation — forward and both backward passes — against which any
//! future optimized general plan can be checked, together with the
//! geometry algebra.
//!
//! With input `Ri×Ci`, filter `Kr×Kc`, padding `(pr, pc)` and stride
//! `(sr, sc)`:  `Ro = (Ri + 2·pr − Kr)/sr + 1` (and likewise for columns).

use crate::shape::Shape4;
use crate::tensor::{Scalar, Tensor4};

/// Convolution geometry: filter extent, padding, stride and dilation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConvGeometry {
    pub kr: usize,
    pub kc: usize,
    pub pad_r: usize,
    pub pad_c: usize,
    pub stride_r: usize,
    pub stride_c: usize,
    /// Row dilation: tap `kr` lands `kr · dil_r` rows into the window.
    pub dil_r: usize,
    /// Column dilation.
    pub dil_c: usize,
}

impl ConvGeometry {
    /// Dense "valid" geometry (the paper's case).
    pub const fn valid(kr: usize, kc: usize) -> Self {
        Self {
            kr,
            kc,
            pad_r: 0,
            pad_c: 0,
            stride_r: 1,
            stride_c: 1,
            dil_r: 1,
            dil_c: 1,
        }
    }

    /// "Same" padding for odd filters at stride 1.
    pub const fn same(kr: usize, kc: usize) -> Self {
        Self {
            kr,
            kc,
            pad_r: (kr - 1) / 2,
            pad_c: (kc - 1) / 2,
            stride_r: 1,
            stride_c: 1,
            dil_r: 1,
            dil_c: 1,
        }
    }

    pub const fn with_stride(mut self, sr: usize, sc: usize) -> Self {
        self.stride_r = sr;
        self.stride_c = sc;
        self
    }

    pub const fn with_dilation(mut self, dr: usize, dc: usize) -> Self {
        self.dil_r = dr;
        self.dil_c = dc;
        self
    }

    /// Effective (dilated) filter height: `(Kr − 1) · dil_r + 1`.
    pub const fn kr_eff(&self) -> usize {
        (self.kr - 1) * self.dil_r + 1
    }

    /// Effective (dilated) filter width.
    pub const fn kc_eff(&self) -> usize {
        (self.kc - 1) * self.dil_c + 1
    }

    /// Output spatial extent for a given input extent, or `None` if the
    /// geometry does not fit.
    pub fn output_extent(&self, ri: usize, ci: usize) -> Option<(usize, usize)> {
        let er = ri + 2 * self.pad_r;
        let ec = ci + 2 * self.pad_c;
        if er < self.kr_eff() || ec < self.kc_eff() {
            return None;
        }
        Some((
            (er - self.kr_eff()) / self.stride_r + 1,
            (ec - self.kc_eff()) / self.stride_c + 1,
        ))
    }
}

/// Padded, strided forward convolution.
///
/// `input: (B, Ni, Ri, Ci)`, `filter: (No, Ni, Kr, Kc)` →
/// `(B, No, Ro, Co)` with the extents from [`ConvGeometry::output_extent`].
pub fn conv2d_general<T: Scalar>(
    geom: &ConvGeometry,
    input: &Tensor4<T>,
    filter: &Tensor4<T>,
) -> Tensor4<T> {
    let s = input.shape();
    let f = filter.shape();
    assert_eq!(s.d1, f.d1, "input channels");
    assert_eq!(f.d2, geom.kr);
    assert_eq!(f.d3, geom.kc);
    let (ro, co) = geom.output_extent(s.d2, s.d3).expect("geometry fits input");
    let mut out = Tensor4::zeros(Shape4::new(s.d0, f.d0, ro, co), crate::Layout::Nchw);
    for b in 0..s.d0 {
        for no in 0..f.d0 {
            for orow in 0..ro {
                for ocol in 0..co {
                    let mut acc = T::ZERO;
                    for ni in 0..s.d1 {
                        for kr in 0..geom.kr {
                            for kc in 0..geom.kc {
                                let ir = orow * geom.stride_r + kr * geom.dil_r;
                                let ic = ocol * geom.stride_c + kc * geom.dil_c;
                                // Padded coordinates: subtract the pad and
                                // skip out-of-image taps.
                                if ir < geom.pad_r || ic < geom.pad_c {
                                    continue;
                                }
                                let (ir, ic) = (ir - geom.pad_r, ic - geom.pad_c);
                                if ir >= s.d2 || ic >= s.d3 {
                                    continue;
                                }
                                acc += input.get(b, ni, ir, ic) * filter.get(no, ni, kr, kc);
                            }
                        }
                    }
                    out.set(b, no, orow, ocol, acc);
                }
            }
        }
    }
    out
}

/// Gradient w.r.t. the input for the general geometry.
pub fn conv2d_general_bwd_data<T: Scalar>(
    geom: &ConvGeometry,
    input_shape: Shape4,
    d_out: &Tensor4<T>,
    filter: &Tensor4<T>,
) -> Tensor4<T> {
    let s = input_shape;
    let f = filter.shape();
    let o = d_out.shape();
    let mut d_in = Tensor4::zeros(s, crate::Layout::Nchw);
    for b in 0..o.d0 {
        for no in 0..o.d1 {
            for orow in 0..o.d2 {
                for ocol in 0..o.d3 {
                    let g = d_out.get(b, no, orow, ocol);
                    for ni in 0..s.d1 {
                        for kr in 0..geom.kr {
                            for kc in 0..geom.kc {
                                let ir = orow * geom.stride_r + kr * geom.dil_r;
                                let ic = ocol * geom.stride_c + kc * geom.dil_c;
                                if ir < geom.pad_r || ic < geom.pad_c {
                                    continue;
                                }
                                let (ir, ic) = (ir - geom.pad_r, ic - geom.pad_c);
                                if ir >= s.d2 || ic >= s.d3 {
                                    continue;
                                }
                                let cur = d_in.get(b, ni, ir, ic);
                                d_in.set(b, ni, ir, ic, cur + g * filter.get(no, ni, kr, kc));
                            }
                        }
                    }
                    let _ = f;
                }
            }
        }
    }
    d_in
}

/// Gradient w.r.t. the filters for the general geometry.
pub fn conv2d_general_bwd_filter<T: Scalar>(
    geom: &ConvGeometry,
    input: &Tensor4<T>,
    d_out: &Tensor4<T>,
) -> Tensor4<T> {
    let s = input.shape();
    let o = d_out.shape();
    let mut d_w = Tensor4::zeros(
        Shape4::new(o.d1, s.d1, geom.kr, geom.kc),
        crate::Layout::Nchw,
    );
    for b in 0..o.d0 {
        for no in 0..o.d1 {
            for orow in 0..o.d2 {
                for ocol in 0..o.d3 {
                    let g = d_out.get(b, no, orow, ocol);
                    for ni in 0..s.d1 {
                        for kr in 0..geom.kr {
                            for kc in 0..geom.kc {
                                let ir = orow * geom.stride_r + kr * geom.dil_r;
                                let ic = ocol * geom.stride_c + kc * geom.dil_c;
                                if ir < geom.pad_r || ic < geom.pad_c {
                                    continue;
                                }
                                let (ir, ic) = (ir - geom.pad_r, ic - geom.pad_c);
                                if ir >= s.d2 || ic >= s.d3 {
                                    continue;
                                }
                                let cur = d_w.get(no, ni, kr, kc);
                                d_w.set(no, ni, kr, kc, cur + g * input.get(b, ni, ir, ic));
                            }
                        }
                    }
                }
            }
        }
    }
    d_w
}

/// Flop count of one general forward pass (2 per multiply-add, counting
/// padded taps as skipped).
pub fn general_flops(geom: &ConvGeometry, input_shape: Shape4, no: usize) -> u64 {
    let (ro, co) = geom
        .output_extent(input_shape.d2, input_shape.d3)
        .unwrap_or((0, 0));
    2 * (input_shape.d0 * no * ro * co * input_shape.d1 * geom.kr * geom.kc) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_ref::conv2d_ref;
    use crate::init::seeded_tensor;
    use crate::shape::ConvShape;
    use crate::Layout;

    #[test]
    fn valid_geometry_matches_dense_reference() {
        let geom = ConvGeometry::valid(3, 2);
        let shape = ConvShape::new(2, 3, 4, 4, 5, 3, 2);
        let input = seeded_tensor::<f64>(shape.input_shape(), Layout::Nchw, 1);
        let filter = seeded_tensor::<f64>(shape.filter_shape(), Layout::Nchw, 2);
        let dense = conv2d_ref(shape, &input, &filter);
        let general = conv2d_general(&geom, &input, &filter);
        assert_eq!(general.max_abs_diff(&dense), 0.0);
    }

    #[test]
    fn same_padding_preserves_extent() {
        let geom = ConvGeometry::same(3, 3);
        assert_eq!(geom.output_extent(7, 9), Some((7, 9)));
        let input = seeded_tensor::<f64>(Shape4::new(1, 2, 7, 9), Layout::Nchw, 3);
        let filter = seeded_tensor::<f64>(Shape4::new(4, 2, 3, 3), Layout::Nchw, 4);
        let out = conv2d_general(&geom, &input, &filter);
        assert_eq!(out.shape(), Shape4::new(1, 4, 7, 9));
    }

    #[test]
    fn stride_downsamples() {
        let geom = ConvGeometry::valid(3, 3).with_stride(2, 2);
        assert_eq!(geom.output_extent(7, 7), Some((3, 3)));
        // AlexNet-style stem: 11x11 stride 4.
        let stem = ConvGeometry::valid(11, 11).with_stride(4, 4);
        assert_eq!(stem.output_extent(227, 227), Some((55, 55)));
    }

    #[test]
    fn padding_taps_are_zero() {
        // A 1-pixel image, 3x3 same padding: only the center tap can hit.
        let geom = ConvGeometry::same(3, 3);
        let input = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![2.0]);
        let filter = seeded_tensor::<f64>(Shape4::new(1, 1, 3, 3), Layout::Nchw, 5);
        let out = conv2d_general(&geom, &input, &filter);
        assert!((out.get(0, 0, 0, 0) - 2.0 * filter.get(0, 0, 1, 1)).abs() < 1e-12);
    }

    #[test]
    fn bwd_data_matches_finite_difference() {
        let geom = ConvGeometry::same(3, 3).with_stride(2, 2);
        let in_shape = Shape4::new(1, 2, 5, 5);
        let input = seeded_tensor::<f64>(in_shape, Layout::Nchw, 6);
        let filter = seeded_tensor::<f64>(Shape4::new(2, 2, 3, 3), Layout::Nchw, 7);
        let out = conv2d_general(&geom, &input, &filter);
        let d_out = Tensor4::full(out.shape(), Layout::Nchw, 1.0);
        let d_in = conv2d_general_bwd_data(&geom, in_shape, &d_out, &filter);

        let eps = 1e-6;
        let base = out.sum_f64();
        for probe in [(0, 0, 0, 0), (0, 1, 2, 2), (0, 0, 4, 4)] {
            let mut bumped = input.clone();
            bumped[probe] += eps;
            let fd = (conv2d_general(&geom, &bumped, &filter).sum_f64() - base) / eps;
            let an = d_in[probe];
            assert!((fd - an).abs() < 1e-4, "{probe:?}: fd {fd} vs {an}");
        }
    }

    #[test]
    fn bwd_filter_matches_finite_difference() {
        let geom = ConvGeometry {
            pad_r: 1,
            ..ConvGeometry::valid(2, 2).with_stride(2, 1)
        };
        let in_shape = Shape4::new(2, 1, 4, 4);
        let input = seeded_tensor::<f64>(in_shape, Layout::Nchw, 8);
        let filter = seeded_tensor::<f64>(Shape4::new(2, 1, 2, 2), Layout::Nchw, 9);
        let out = conv2d_general(&geom, &input, &filter);
        let d_out = Tensor4::full(out.shape(), Layout::Nchw, 1.0);
        let d_w = conv2d_general_bwd_filter(&geom, &input, &d_out);

        let eps = 1e-6;
        let base = out.sum_f64();
        for probe in [(0, 0, 0, 0), (1, 0, 1, 1)] {
            let mut bumped = filter.clone();
            bumped[probe] += eps;
            let fd = (conv2d_general(&geom, &input, &bumped).sum_f64() - base) / eps;
            let an = d_w[probe];
            assert!((fd - an).abs() < 1e-4, "{probe:?}: fd {fd} vs {an}");
        }
    }

    #[test]
    fn too_small_inputs_are_rejected() {
        assert_eq!(ConvGeometry::valid(5, 5).output_extent(3, 3), None);
    }

    #[test]
    fn dilation_widens_the_receptive_field() {
        // A dilated 3x3 at rate 2 spans 5x5: extents match the 5x5 dense
        // filter, and the taps read every other pixel.
        let geom = ConvGeometry::valid(3, 3).with_dilation(2, 2);
        assert_eq!(geom.kr_eff(), 5);
        assert_eq!(geom.output_extent(7, 7), Some((3, 3)));
        assert_eq!(geom.output_extent(4, 4), None);

        // Equivalence: dilated conv == dense conv with a zero-stuffed filter.
        let input = seeded_tensor::<f64>(Shape4::new(1, 2, 7, 7), Layout::Nchw, 13);
        let filter = seeded_tensor::<f64>(Shape4::new(3, 2, 3, 3), Layout::Nchw, 14);
        let mut stuffed = Tensor4::zeros(Shape4::new(3, 2, 5, 5), Layout::Nchw);
        for no in 0..3 {
            for ni in 0..2 {
                for kr in 0..3 {
                    for kc in 0..3 {
                        stuffed.set(no, ni, 2 * kr, 2 * kc, filter.get(no, ni, kr, kc));
                    }
                }
            }
        }
        let dilated = conv2d_general(&geom, &input, &filter);
        let dense = conv2d_general(&ConvGeometry::valid(5, 5), &input, &stuffed);
        assert!(dilated.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn dilated_bwd_filter_matches_finite_difference() {
        let geom = ConvGeometry::valid(2, 2).with_dilation(2, 3);
        let in_shape = Shape4::new(1, 1, 5, 6);
        let input = seeded_tensor::<f64>(in_shape, Layout::Nchw, 15);
        let filter = seeded_tensor::<f64>(Shape4::new(1, 1, 2, 2), Layout::Nchw, 16);
        let out = conv2d_general(&geom, &input, &filter);
        let d_out = Tensor4::full(out.shape(), Layout::Nchw, 1.0);
        let d_w = conv2d_general_bwd_filter(&geom, &input, &d_out);

        let eps = 1e-6;
        let base = out.sum_f64();
        for probe in [(0, 0, 0, 0), (0, 0, 1, 1)] {
            let mut bumped = filter.clone();
            bumped[probe] += eps;
            let fd = (conv2d_general(&geom, &input, &bumped).sum_f64() - base) / eps;
            let an = d_w[probe];
            assert!((fd - an).abs() < 1e-4, "{probe:?}: fd {fd} vs {an}");
        }
    }
}
