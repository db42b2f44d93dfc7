//! Reference convolution — Listing 1 of the paper.
//!
//! Listing 1's seven-loop direct form is the semantic specification every
//! optimized plan must match bit-for-bit (the optimized plans reorder the
//! same f64 additions per output element in the same `(ni, kr, kc)` order,
//! so results are expected to be *exactly* equal, not merely close; the
//! test suites rely on this).
//!
//! Also provides the reference backward passes (gradients w.r.t. input and
//! filters) used as the training-path oracle.
//!
//! The three kernels walk contiguous NCHW rows rather than indexing one
//! element at a time, and each gives every output element the same
//! additions in the same order as Listing 1's loops, so their bits are
//! Listing 1's (the `#[cfg(test)]` seven-loop forms below hold them to it):
//!
//! * forward — per `(b, no, ro)`, one output row of `Co` accumulators, each
//!   summing over `(ni, kr, kc)` ascending;
//! * backward-data — `b, no, ro, ni, kr`, then `kc` *descending*, then the
//!   `co` row, so each input element `(ri, ci)` still receives its terms
//!   with `(no, ro, co)` ascending (`co = ci - kc` rises as `kc` falls);
//! * backward-filter — `Kc` independent accumulators per `(no, ni, kr)`,
//!   each summing over `(b, ro, co)` ascending from zero.
//!
//! An operand in another layout is converted once by
//! [`Tensor4::to_layout`], an exact copy; an NCHW operand is borrowed.

use crate::shape::ConvShape;
use crate::tensor::{Scalar, Tensor4};
use crate::Layout;

/// Forward convolution: `out[b][no][ro][co] += Σ in[b][ni][ro+kr][co+kc] * w[no][ni][kr][kc]`.
///
/// Allocates the output tensor in [`Layout::Nchw`].
///
/// # Panics
/// If tensor shapes disagree with `shape`.
pub fn conv2d_ref<T: Scalar>(
    shape: ConvShape,
    input: &Tensor4<T>,
    filter: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(input.shape(), shape.input_shape(), "input shape");
    assert_eq!(filter.shape(), shape.filter_shape(), "filter shape");
    let mut out = Tensor4::zeros(shape.output_shape(), Layout::Nchw);
    // A zero extent leaves no term to add (and no row width to chunk by).
    if out.is_empty() || filter.is_empty() {
        return out;
    }
    let (input, filter) = (input.as_nchw(), filter.as_nchw());
    let (x, w) = (input.data(), filter.data());
    let rows = Rows::of(shape);
    for (row, out_row) in out.data_mut().chunks_exact_mut(shape.co).enumerate() {
        let (bn, ro) = (row / shape.ro, row % shape.ro);
        let (b, no) = (bn / shape.no, bn % shape.no);
        for ni in 0..shape.ni {
            let taps = rows.taps(w, no, ni);
            for (kr, taps_row) in taps.chunks_exact(shape.kc).enumerate() {
                let x_row = rows.input(x, b, ni, ro + kr);
                for (kc, &wv) in taps_row.iter().enumerate() {
                    for (o, &xv) in out_row.iter_mut().zip(&x_row[kc..]) {
                        *o += xv * wv;
                    }
                }
            }
        }
    }
    out
}

/// Reference gradient w.r.t. the input ("backward data").
///
/// `d_in[b][ni][ri][ci] = Σ_{no,kr,kc : 0<=ri-kr<Ro, 0<=ci-kc<Co}
///     d_out[b][no][ri-kr][ci-kc] * w[no][ni][kr][kc]`
///
/// # Panics
/// If tensor shapes disagree with `shape`.
pub fn conv2d_bwd_data_ref<T: Scalar>(
    shape: ConvShape,
    d_out: &Tensor4<T>,
    filter: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(d_out.shape(), shape.output_shape(), "d_out shape");
    assert_eq!(filter.shape(), shape.filter_shape(), "filter shape");
    let mut d_in = Tensor4::zeros(shape.input_shape(), Layout::Nchw);
    // A zero extent leaves no term to add (and no row width to chunk by).
    if d_out.is_empty() || filter.is_empty() {
        return d_in;
    }
    let (d_out, filter) = (d_out.as_nchw(), filter.as_nchw());
    let (g, w) = (d_out.data(), filter.data());
    let rows = Rows::of(shape);
    let dx = d_in.data_mut();
    for (row, g_row) in g.chunks_exact(shape.co).enumerate() {
        let (bn, ro) = (row / shape.ro, row % shape.ro);
        let (b, no) = (bn / shape.no, bn % shape.no);
        for ni in 0..shape.ni {
            let taps = rows.taps(w, no, ni);
            for (kr, taps_row) in taps.chunks_exact(shape.kc).enumerate() {
                let dx_row = rows.input_mut(dx, b, ni, ro + kr);
                // `kc` descending: input column `ci` then sees `co = ci - kc`
                // rising, Listing 1's order.
                for (kc, &wv) in taps_row.iter().enumerate().rev() {
                    for (d, &gv) in dx_row[kc..].iter_mut().zip(g_row) {
                        *d += gv * wv;
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
///
/// # Panics
/// If tensor shapes disagree with `shape`.
pub fn conv2d_bwd_filter_ref<T: Scalar>(
    shape: ConvShape,
    input: &Tensor4<T>,
    d_out: &Tensor4<T>,
) -> Tensor4<T> {
    assert_eq!(input.shape(), shape.input_shape(), "input shape");
    assert_eq!(d_out.shape(), shape.output_shape(), "d_out shape");
    let mut d_w = Tensor4::zeros(shape.filter_shape(), Layout::Nchw);
    // A zero extent leaves no term to add (and no row width to chunk by).
    if d_w.is_empty() || d_out.is_empty() {
        return d_w;
    }
    let (input, d_out) = (input.as_nchw(), d_out.as_nchw());
    let (x, g) = (input.data(), d_out.data());
    let rows = Rows::of(shape);
    // One row of `Kc` accumulators per `(no, ni, kr)`, each from zero.
    for (row, acc) in d_w.data_mut().chunks_exact_mut(shape.kc).enumerate() {
        let (nn, kr) = (row / shape.kr, row % shape.kr);
        let (no, ni) = (nn / shape.ni, nn % shape.ni);
        for b in 0..shape.batch {
            for ro in 0..shape.ro {
                let x_row = rows.input(x, b, ni, ro + kr);
                let g_row = rows.output(g, b, no, ro);
                for (co, &gv) in g_row.iter().enumerate() {
                    for (a, &xv) in acc.iter_mut().zip(&x_row[co..]) {
                        *a += xv * gv;
                    }
                }
            }
        }
    }
    d_w
}

/// Row addressing of `shape`'s three NCHW operands.
#[derive(Clone, Copy)]
struct Rows {
    shape: ConvShape,
    ri: usize,
    ci: usize,
}

impl Rows {
    fn of(shape: ConvShape) -> Self {
        Self {
            shape,
            ri: shape.ri(),
            ci: shape.ci(),
        }
    }

    fn input_at(&self, b: usize, ni: usize, ri: usize) -> usize {
        ((b * self.shape.ni + ni) * self.ri + ri) * self.ci
    }

    /// Input row `(b, ni, ri)`: `Ci` elements.
    fn input<'a, T>(&self, x: &'a [T], b: usize, ni: usize, ri: usize) -> &'a [T] {
        &x[self.input_at(b, ni, ri)..][..self.ci]
    }

    fn input_mut<'a, T>(&self, x: &'a mut [T], b: usize, ni: usize, ri: usize) -> &'a mut [T] {
        &mut x[self.input_at(b, ni, ri)..][..self.ci]
    }

    /// Output row `(b, no, ro)`: `Co` elements.
    fn output<'a, T>(&self, y: &'a [T], b: usize, no: usize, ro: usize) -> &'a [T] {
        let s = self.shape;
        &y[((b * s.no + no) * s.ro + ro) * s.co..][..s.co]
    }

    /// Filter taps `(no, ni)`: `Kr × Kc` elements, row-major.
    fn taps<'a, T>(&self, w: &'a [T], no: usize, ni: usize) -> &'a [T] {
        let s = self.shape;
        let k = s.kr * s.kc;
        &w[(no * s.ni + ni) * k..][..k]
    }
}

/// Listing 1's seven-loop forms, element by element through
/// [`Tensor4::get`]: the oracles the row kernels above are held to.
#[cfg(test)]
mod listing1 {
    use super::*;

    pub fn forward<T: Scalar>(s: ConvShape, input: &Tensor4<T>, filter: &Tensor4<T>) -> Tensor4<T> {
        let mut out = Tensor4::zeros(s.output_shape(), Layout::Nchw);
        for b in 0..s.batch {
            for no in 0..s.no {
                for ro in 0..s.ro {
                    for co in 0..s.co {
                        let mut acc = out.get(b, no, ro, co);
                        for ni in 0..s.ni {
                            for kr in 0..s.kr {
                                for kc in 0..s.kc {
                                    acc += input.get(b, ni, ro + kr, co + kc)
                                        * filter.get(no, ni, kr, kc);
                                }
                            }
                        }
                        out.set(b, no, ro, co, acc);
                    }
                }
            }
        }
        out
    }

    pub fn bwd_data<T: Scalar>(
        s: ConvShape,
        d_out: &Tensor4<T>,
        filter: &Tensor4<T>,
    ) -> Tensor4<T> {
        let mut d_in = Tensor4::zeros(s.input_shape(), Layout::Nchw);
        for b in 0..s.batch {
            for no in 0..s.no {
                for ro in 0..s.ro {
                    for co in 0..s.co {
                        let g = d_out.get(b, no, ro, co);
                        for ni in 0..s.ni {
                            for kr in 0..s.kr {
                                for kc in 0..s.kc {
                                    let cur = d_in.get(b, ni, ro + kr, co + kc);
                                    let v = cur + g * filter.get(no, ni, kr, kc);
                                    d_in.set(b, ni, ro + kr, co + kc, v);
                                }
                            }
                        }
                    }
                }
            }
        }
        d_in
    }

    pub fn bwd_filter<T: Scalar>(
        s: ConvShape,
        input: &Tensor4<T>,
        d_out: &Tensor4<T>,
    ) -> Tensor4<T> {
        let mut d_w = Tensor4::zeros(s.filter_shape(), Layout::Nchw);
        for no in 0..s.no {
            for ni in 0..s.ni {
                for kr in 0..s.kr {
                    for kc in 0..s.kc {
                        let mut acc = T::ZERO;
                        for b in 0..s.batch {
                            for ro in 0..s.ro {
                                for co in 0..s.co {
                                    acc += input.get(b, ni, ro + kr, co + kc)
                                        * d_out.get(b, no, ro, co);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_tensor;

    fn bits<T: Scalar>(t: &Tensor4<T>) -> Vec<u64> {
        assert_eq!(t.layout(), Layout::Nchw);
        t.data().iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// Every pass of every generated case against Listing 1, bit for bit.
    /// `seeded_tensor` data, not `lattice_tensor`: on dyadic values any
    /// summation order gives the same bits, so reordering would pass.
    fn rows_match_listing1<T: Scalar>() -> usize {
        let mut cases = 0;
        for batch in [1, 3, 5] {
            for (ni, no) in [(1, 1), (1, 2), (3, 1), (3, 2)] {
                for (ro, co) in [(1, 1), (1, 4), (3, 1), (2, 5)] {
                    for (kr, kc) in [(1, 1), (2, 3), (3, 2), (3, 3)] {
                        let s = ConvShape::new(batch, ni, no, ro, co, kr, kc);
                        let seed = cases as u64;
                        for la in Layout::ALL {
                            for lb in Layout::ALL {
                                let x = seeded_tensor::<T>(s.input_shape(), la, seed);
                                let w = seeded_tensor::<T>(s.filter_shape(), lb, seed + 1);
                                let g = seeded_tensor::<T>(s.output_shape(), la, seed + 2);
                                let w_g = seeded_tensor::<T>(s.filter_shape(), lb, seed + 3);
                                let x_w = seeded_tensor::<T>(s.input_shape(), lb, seed + 4);
                                let at = format!("{s:?} {la:?}/{lb:?}");
                                assert_eq!(
                                    bits(&conv2d_ref(s, &x, &w)),
                                    bits(&listing1::forward(s, &x, &w)),
                                    "forward {at}"
                                );
                                assert_eq!(
                                    bits(&conv2d_bwd_data_ref(s, &g, &w_g)),
                                    bits(&listing1::bwd_data(s, &g, &w_g)),
                                    "backward-data {at}"
                                );
                                assert_eq!(
                                    bits(&conv2d_bwd_filter_ref(s, &x_w, &g)),
                                    bits(&listing1::bwd_filter(s, &x_w, &g)),
                                    "backward-filter {at}"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn row_kernels_are_listing1_bit_for_bit() {
        assert_eq!(rows_match_listing1::<f64>(), 1728);
        assert_eq!(rows_match_listing1::<f32>(), 1728);
    }

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
