//! Naive reference convolution — Listing 1 of the paper.
//!
//! The seven-loop direct form is the semantic specification every optimized
//! plan must match bit-for-bit (the optimized plans reorder the same f64
//! additions per output element in the same `(ni, kr, kc)` order, so results
//! are expected to be *exactly* equal, not merely close; the test suites
//! rely on this).
//!
//! Also provides the reference backward passes (gradients w.r.t. input and
//! filters) used as the training-path oracle.

use crate::shape::ConvShape;
use crate::tensor::{Scalar, Tensor4};

/// Forward convolution: `out[b][no][ro][co] += Σ in[b][ni][ro+kr][co+kc] * w[no][ni][kr][kc]`.
///
/// Allocates the output tensor in the input's layout family (`Nchw`).
pub fn conv2d_ref<T: Scalar>(
    shape: ConvShape,
    input: &Tensor4<T>,
    filter: &Tensor4<T>,
) -> Tensor4<T> {
    let mut out = Tensor4::zeros(shape.output_shape(), crate::Layout::Nchw);
    conv2d_ref_into(shape, input, filter, &mut out);
    out
}

/// Forward convolution accumulating into an existing (pre-zeroed) output.
///
/// # Panics
/// If tensor shapes disagree with `shape`.
fn conv2d_ref_into<T: Scalar>(
    shape: ConvShape,
    input: &Tensor4<T>,
    filter: &Tensor4<T>,
    out: &mut Tensor4<T>,
) {
    assert_eq!(input.shape(), shape.input_shape(), "input shape");
    assert_eq!(filter.shape(), shape.filter_shape(), "filter shape");
    assert_eq!(out.shape(), shape.output_shape(), "output shape");
    for b in 0..shape.batch {
        for no in 0..shape.no {
            for ro in 0..shape.ro {
                for co in 0..shape.co {
                    let mut acc = out.get(b, no, ro, co);
                    for ni in 0..shape.ni {
                        for kr in 0..shape.kr {
                            for kc in 0..shape.kc {
                                acc +=
                                    input.get(b, ni, ro + kr, co + kc) * filter.get(no, ni, kr, kc);
                            }
                        }
                    }
                    out.set(b, no, ro, co, acc);
                }
            }
        }
    }
}

/// Reference gradient w.r.t. the input ("backward data").
///
/// `d_in[b][ni][ri][ci] = Σ_{no,kr,kc : 0<=ri-kr<Ro, 0<=ci-kc<Co}
///     d_out[b][no][ri-kr][ci-kc] * w[no][ni][kr][kc]`
pub fn conv2d_bwd_data_ref<T: Scalar>(
    shape: ConvShape,
    d_out: &Tensor4<T>,
    filter: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(d_out.shape(), shape.output_shape(), "d_out shape");
    assert_eq!(filter.shape(), shape.filter_shape(), "filter shape");
    let mut d_in = Tensor4::zeros(shape.input_shape(), crate::Layout::Nchw);
    for b in 0..shape.batch {
        for no in 0..shape.no {
            for ro in 0..shape.ro {
                for co in 0..shape.co {
                    let g = d_out.get(b, no, ro, co);
                    for ni in 0..shape.ni {
                        for kr in 0..shape.kr {
                            for kc in 0..shape.kc {
                                let cur = d_in.get(b, ni, ro + kr, co + kc);
                                d_in.set(
                                    b,
                                    ni,
                                    ro + kr,
                                    co + kc,
                                    cur + g * filter.get(no, ni, kr, kc),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    d_in
}

/// Reference gradient w.r.t. the filters ("backward filter").
///
/// `d_w[no][ni][kr][kc] = Σ_{b,ro,co} in[b][ni][ro+kr][co+kc] * d_out[b][no][ro][co]`
pub fn conv2d_bwd_filter_ref<T: Scalar>(
    shape: ConvShape,
    input: &Tensor4<T>,
    d_out: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(input.shape(), shape.input_shape(), "input shape");
    assert_eq!(d_out.shape(), shape.output_shape(), "d_out shape");
    let mut d_w = Tensor4::zeros(shape.filter_shape(), crate::Layout::Nchw);
    for no in 0..shape.no {
        for ni in 0..shape.ni {
            for kr in 0..shape.kr {
                for kc in 0..shape.kc {
                    let mut acc = T::ZERO;
                    for b in 0..shape.batch {
                        for ro in 0..shape.ro {
                            for co in 0..shape.co {
                                acc +=
                                    input.get(b, ni, ro + kr, co + kc) * d_out.get(b, no, ro, co);
                            }
                        }
                    }
                    d_w.set(no, ni, kr, kc, acc);
                }
            }
        }
    }
    d_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_tensor;
    use crate::Layout;

    #[test]
    fn identity_filter_copies_input() {
        // 1x1 filter of value 1 with Ni=No=1 is the identity map.
        let shape = ConvShape::new(2, 1, 1, 4, 4, 1, 1);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 1);
        let filter = Tensor4::full(shape.filter_shape(), Layout::Nchw, 1.0);
        let out = conv2d_ref(shape, &input, &filter);
        assert_eq!(out.max_abs_diff(&input), 0.0);
    }

    #[test]
    fn box_filter_sums_window() {
        let shape = ConvShape::new(1, 1, 1, 2, 2, 2, 2);
        let input = Tensor4::from_fn(shape.input_shape(), Layout::Nchw, |_, _, r, c| {
            (r * 3 + c) as f64
        });
        let filter = Tensor4::full(shape.filter_shape(), Layout::Nchw, 1.0);
        let out = conv2d_ref(shape, &input, &filter);
        // window sums of [[0,1,2],[3,4,5],[6,7,8]]
        assert_eq!(out.get(0, 0, 0, 0), 0.0 + 1.0 + 3.0 + 4.0);
        assert_eq!(out.get(0, 0, 1, 1), 4.0 + 5.0 + 7.0 + 8.0);
    }

    #[test]
    fn multi_channel_accumulates_over_ni() {
        let shape = ConvShape::new(1, 3, 1, 1, 1, 1, 1);
        let input = Tensor4::from_fn(shape.input_shape(), Layout::Nchw, |_, ni, _, _| {
            (ni + 1) as f64
        });
        let filter = Tensor4::full(shape.filter_shape(), Layout::Nchw, 2.0);
        let out = conv2d_ref(shape, &input, &filter);
        assert_eq!(out.get(0, 0, 0, 0), 2.0 * (1.0 + 2.0 + 3.0));
    }

    #[test]
    fn bwd_data_matches_finite_difference() {
        let shape = ConvShape::new(1, 2, 2, 3, 3, 2, 2);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 7);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 8);
        // Loss = sum(out); then dL/dx = bwd_data with d_out = 1.
        let d_out = Tensor4::full(shape.output_shape(), Layout::Nchw, 1.0);
        let d_in = conv2d_bwd_data_ref(shape, &d_out, &filter);

        let eps = 1e-5;
        let base = conv2d_ref(shape, &input, &filter).sum_f64();
        for (i0, i1, i2, i3) in [(0, 0, 0, 0), (0, 1, 2, 2), (0, 0, 3, 3)] {
            let mut bumped = input.clone();
            bumped.set(i0, i1, i2, i3, bumped.get(i0, i1, i2, i3) + eps);
            let fd = (conv2d_ref(shape, &bumped, &filter).sum_f64() - base) / eps;
            assert!(
                (fd - d_in.get(i0, i1, i2, i3)).abs() < 1e-5,
                "fd {fd} vs analytic {}",
                d_in.get(i0, i1, i2, i3)
            );
        }
    }

    #[test]
    fn bwd_filter_matches_finite_difference() {
        let shape = ConvShape::new(2, 2, 2, 3, 3, 2, 2);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 9);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 10);
        let d_out = Tensor4::full(shape.output_shape(), Layout::Nchw, 1.0);
        let d_w = conv2d_bwd_filter_ref(shape, &input, &d_out);

        let eps = 1e-5;
        let base = conv2d_ref(shape, &input, &filter).sum_f64();
        for (i0, i1, i2, i3) in [(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 0, 1)] {
            let mut bumped = filter.clone();
            bumped.set(i0, i1, i2, i3, bumped.get(i0, i1, i2, i3) + eps);
            let fd = (conv2d_ref(shape, &input, &bumped).sum_f64() - base) / eps;
            assert!(
                (fd - d_w.get(i0, i1, i2, i3)).abs() < 1e-4,
                "fd {fd} vs analytic {}",
                d_w.get(i0, i1, i2, i3)
            );
        }
    }
}
