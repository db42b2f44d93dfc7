//! Deterministic tensor initializers.
//!
//! Reproducible experiments need reproducible data: every generator here is
//! seeded, so two runs of a benchmark see identical operands.

use crate::layout::Layout;
use crate::shape::Shape4;
use crate::tensor::{Scalar, Tensor4};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Uniform values in `[-1, 1)` from a fixed seed.
pub fn seeded_tensor<T: Scalar>(shape: Shape4, layout: Layout, seed: u64) -> Tensor4<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(-1.0f64, 1.0);
    Tensor4::from_fn(shape, layout, |_, _, _, _| {
        T::from_f64(dist.sample(&mut rng))
    })
}

/// Xavier/Glorot-style uniform initialization for filters:
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`,
/// `fan_in = d1*d2*d3`, `fan_out = d0*d2*d3`.
pub fn xavier_filter<T: Scalar>(shape: Shape4, layout: Layout, seed: u64) -> Tensor4<T> {
    let fan_in = (shape.d1 * shape.d2 * shape.d3) as f64;
    let fan_out = (shape.d0 * shape.d2 * shape.d3) as f64;
    let a = (6.0 / (fan_in + fan_out)).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(-a, a);
    Tensor4::from_fn(shape, layout, |_, _, _, _| {
        T::from_f64(dist.sample(&mut rng))
    })
}

/// A small-integer-valued tensor (values in `{-4..4}` scaled by 0.25).
///
/// All optimized convolution plans are *exactly* equal to the reference on
/// such inputs regardless of summation order, which makes bit-exact
/// assertions robust even if a plan reassociates additions.
pub fn lattice_tensor<T: Scalar>(shape: Shape4, layout: Layout, seed: u64) -> Tensor4<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(-4i32, 5);
    Tensor4::from_fn(shape, layout, |_, _, _, _| {
        T::from_f64(f64::from(dist.sample(&mut rng)) * 0.25)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let s = Shape4::new(2, 3, 4, 5);
        let a = seeded_tensor::<f64>(s, Layout::Nchw, 42);
        let b = seeded_tensor::<f64>(s, Layout::Nchw, 42);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let c = seeded_tensor::<f64>(s, Layout::Nchw, 43);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn seeded_values_in_range() {
        let s = Shape4::new(4, 4, 4, 4);
        let t = seeded_tensor::<f64>(s, Layout::Nchw, 1);
        for v in t.data() {
            assert!((-1.0..1.0).contains(v));
        }
    }

    #[test]
    fn xavier_bound_scales_with_fanin() {
        let small = Shape4::new(4, 4, 3, 3);
        let big = Shape4::new(256, 256, 3, 3);
        let a = xavier_filter::<f64>(small, Layout::Nchw, 5);
        let b = xavier_filter::<f64>(big, Layout::Nchw, 5);
        let max_a = a.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let max_b = b.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_a > max_b, "larger fan-in must shrink the bound");
    }

    #[test]
    fn lattice_values_are_quarter_integers() {
        let t = lattice_tensor::<f64>(Shape4::new(3, 3, 3, 3), Layout::Nchw, 2);
        for v in t.data() {
            let q = v * 4.0;
            assert_eq!(q, q.round());
            assert!(v.abs() <= 1.0);
        }
    }
}
