//! im2col lowering + GEMM — the "lowering the convolutions into a matrix
//! multiplication" path of §III-C that cuDNN popularized.
//!
//! `im2col` unrolls every receptive field into a column of a
//! `(Ni·Kr·Kc) × (B·Ro·Co)` matrix; the convolution is then one GEMM with
//! the `(No) × (Ni·Kr·Kc)` filter matrix. This is both the functional core
//! of the GPU baseline and an independent correctness oracle for the mesh
//! plans (it reassociates the sum differently from the naive loops).

use rayon::prelude::*;
use sw_tensor::{ConvShape, Layout, Tensor4};

/// Build the im2col matrix, row-major `(Ni·Kr·Kc) × (B·Ro·Co)`.
///
/// Row index = `(ni·Kr + kr)·Kc + kc`; column index = `(b·Ro + ro)·Co + co`.
fn im2col_matrix(shape: &ConvShape, input: &Tensor4<f64>) -> Vec<f64> {
    assert_eq!(input.shape(), shape.input_shape(), "input shape");
    let rows = shape.ni * shape.kr * shape.kc;
    let cols = shape.batch * shape.ro * shape.co;
    let mut m = vec![0.0f64; rows * cols];
    m.par_chunks_mut(cols).enumerate().for_each(|(row, out)| {
        let kc = row % shape.kc;
        let kr = (row / shape.kc) % shape.kr;
        let ni = row / (shape.kc * shape.kr);
        let mut col = 0;
        for b in 0..shape.batch {
            for ro in 0..shape.ro {
                for co in 0..shape.co {
                    out[col] = input.get(b, ni, ro + kr, co + kc);
                    col += 1;
                }
            }
        }
        debug_assert_eq!(col, cols);
    });
    m
}

/// Forward convolution via im2col + GEMM.
pub fn conv2d_im2col(
    shape: &ConvShape,
    input: &Tensor4<f64>,
    filter: &Tensor4<f64>,
) -> Tensor4<f64> {
    assert_eq!(filter.shape(), shape.filter_shape(), "filter shape");
    let rows = shape.ni * shape.kr * shape.kc;
    let cols = shape.batch * shape.ro * shape.co;
    let lowered = im2col_matrix(shape, input);

    // Filter matrix (No x rows), row-major; same (ni, kr, kc) row order.
    let mut w = vec![0.0f64; shape.no * rows];
    for no in 0..shape.no {
        for ni in 0..shape.ni {
            for kr in 0..shape.kr {
                for kc in 0..shape.kc {
                    w[no * rows + (ni * shape.kr + kr) * shape.kc + kc] =
                        filter.get(no, ni, kr, kc);
                }
            }
        }
    }

    // out (No x cols) = w (No x rows) * lowered (rows x cols)
    let mut out_m = vec![0.0f64; shape.no * cols];
    out_m
        .par_chunks_mut(cols)
        .enumerate()
        .for_each(|(no, out)| {
            for r in 0..rows {
                let wv = w[no * rows + r];
                if wv == 0.0 {
                    continue;
                }
                let src = &lowered[r * cols..(r + 1) * cols];
                for (o, &s) in out.iter_mut().zip(src) {
                    *o += wv * s;
                }
            }
        });

    // Scatter back to (B, No, Ro, Co).
    let mut out = Tensor4::zeros(shape.output_shape(), Layout::Nchw);
    for no in 0..shape.no {
        let mut col = 0;
        for b in 0..shape.batch {
            for ro in 0..shape.ro {
                for co in 0..shape.co {
                    out.set(b, no, ro, co, out_m[no * cols + col]);
                    col += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_tensor::conv2d_ref;
    use sw_tensor::init::{lattice_tensor, seeded_tensor};

    #[test]
    fn matrix_has_receptive_fields_as_columns() {
        let shape = ConvShape::new(1, 1, 1, 2, 2, 2, 2);
        let input = Tensor4::from_fn(shape.input_shape(), Layout::Nchw, |_, _, r, c| {
            (r * 3 + c) as f64
        });
        let m = im2col_matrix(&shape, &input);
        // rows = 4 (kr,kc), cols = 4 (ro,co). Column 0 = field at (0,0):
        // values [0,1,3,4] down the rows.
        let cols = 4;
        assert_eq!(m[0], 0.0);
        assert_eq!(m[cols], 1.0);
        assert_eq!(m[2 * cols], 3.0);
        assert_eq!(m[3 * cols], 4.0);
    }

    #[test]
    fn im2col_conv_matches_reference_exactly_on_lattice() {
        let shape = ConvShape::new(3, 4, 5, 4, 6, 3, 2);
        let input = lattice_tensor(shape.input_shape(), Layout::Nchw, 61);
        let filter = lattice_tensor(shape.filter_shape(), Layout::Nchw, 62);
        let a = conv2d_ref(shape, &input, &filter);
        let b = conv2d_im2col(&shape, &input, &filter);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn im2col_conv_matches_reference_on_random_data() {
        let shape = ConvShape::new(2, 3, 4, 5, 5, 3, 3);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 63);
        let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, 64);
        let a = conv2d_ref(shape, &input, &filter);
        let b = conv2d_im2col(&shape, &input, &filter);
        assert!(a.approx_eq(&b, 1e-10));
    }

    #[test]
    fn one_by_one_filter_is_channel_mix() {
        let shape = ConvShape::new(1, 2, 1, 2, 2, 1, 1);
        let input = seeded_tensor(shape.input_shape(), Layout::Nchw, 65);
        let filter = Tensor4::from_fn(shape.filter_shape(), Layout::Nchw, |_, ni, _, _| {
            (ni + 1) as f64
        });
        let out = conv2d_im2col(&shape, &input, &filter);
        let expect = input.get(0, 0, 1, 1) + 2.0 * input.get(0, 1, 1, 1);
        assert!((out.get(0, 0, 1, 1) - expect).abs() < 1e-12);
    }
}
