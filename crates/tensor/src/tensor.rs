//! Owned dense 4-D tensors.

use crate::layout::Layout;
use crate::shape::Shape4;
use std::borrow::Cow;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Floating-point element types supported by the library.
///
/// The paper evaluates exclusively in double precision (the SW26010's
/// arithmetic units do not run faster in single precision, §VII), so `f64`
/// is the primary instantiation; `f32` is provided for library completeness.
pub trait Scalar:
    Copy
    + Default
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    /// Size of one element in bytes (used by bandwidth accounting).
    const BYTES: usize;
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn abs(self) -> Self;
    fn exp(self) -> Self;
    fn max(self, other: Self) -> Self;
    fn ln(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn ln(self) -> Self {
        f32::ln(self)
    }
}

/// An owned dense 4-D tensor with an explicit physical [`Layout`].
///
/// Logical indexing is always `(d0, d1, d2, d3)` in the order of
/// [`Shape4`]; the layout maps logical indices to positions in the flat
/// buffer. Plans that DMA sub-blocks address the buffer directly through
/// [`Tensor4::data`] using offsets computed from the layout.
#[derive(PartialEq)]
pub struct Tensor4<T: Scalar = f64> {
    shape: Shape4,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Scalar> Tensor4<T> {
    /// Zero-filled tensor.
    pub fn zeros(shape: Shape4, layout: Layout) -> Self {
        let padded = layout.buffer_len(shape);
        Self {
            shape,
            layout,
            data: vec![T::ZERO; padded],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: Shape4, layout: Layout, v: T) -> Self {
        let padded = layout.buffer_len(shape);
        Self {
            shape,
            layout,
            data: vec![v; padded],
        }
    }

    /// Build from a closure of logical indices.
    pub fn from_fn(
        shape: Shape4,
        layout: Layout,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> Self {
        let mut t = Self::zeros(shape, layout);
        for i0 in 0..shape.d0 {
            for i1 in 0..shape.d1 {
                for i2 in 0..shape.d2 {
                    for i3 in 0..shape.d3 {
                        t[(i0, i1, i2, i3)] = f(i0, i1, i2, i3);
                    }
                }
            }
        }
        t
    }

    /// Wrap an existing buffer laid out row-major ([`Layout::Nchw`]).
    ///
    /// # Panics
    /// If `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<T>) -> Self {
        assert_eq!(data.len(), shape.len(), "buffer length must match shape");
        Self {
            shape,
            layout: Layout::Nchw,
            data,
        }
    }

    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The flat backing buffer (layout order, possibly vector-padded).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Number of logical elements (excludes layout padding).
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Logical element read.
    #[inline]
    pub fn get(&self, i0: usize, i1: usize, i2: usize, i3: usize) -> T {
        self.data[self.layout.offset(self.shape, i0, i1, i2, i3)]
    }

    /// Logical element write.
    #[inline]
    pub fn set(&mut self, i0: usize, i1: usize, i2: usize, i3: usize, v: T) {
        let off = self.layout.offset(self.shape, i0, i1, i2, i3);
        self.data[off] = v;
    }

    /// This tensor in [`Layout::Nchw`]: borrowed when it already is, else
    /// one [`Tensor4::to_layout`] copy.
    pub fn as_nchw(&self) -> Cow<'_, Self> {
        match self.layout {
            Layout::Nchw => Cow::Borrowed(self),
            _ => Cow::Owned(self.to_layout(Layout::Nchw)),
        }
    }

    /// Convert this tensor to another layout, preserving logical content.
    pub fn to_layout(&self, layout: Layout) -> Self {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Self::zeros(self.shape, layout);
        let s = self.shape;
        for i0 in 0..s.d0 {
            for i1 in 0..s.d1 {
                for i2 in 0..s.d2 {
                    for i3 in 0..s.d3 {
                        out[(i0, i1, i2, i3)] = self.get(i0, i1, i2, i3);
                    }
                }
            }
        }
        out
    }

    /// Max absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        let mut m = 0.0f64;
        let s = self.shape;
        for i0 in 0..s.d0 {
            for i1 in 0..s.d1 {
                for i2 in 0..s.d2 {
                    for i3 in 0..s.d3 {
                        let d = (self.get(i0, i1, i2, i3).to_f64()
                            - other.get(i0, i1, i2, i3).to_f64())
                        .abs();
                        if d > m {
                            m = d;
                        }
                    }
                }
            }
        }
        m
    }

    /// `true` when every element matches `other` within `tol` absolutely.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }

    /// Sum of all logical elements in f64.
    pub fn sum_f64(&self) -> f64 {
        let s = self.shape;
        let mut acc = 0.0;
        for i0 in 0..s.d0 {
            for i1 in 0..s.d1 {
                for i2 in 0..s.d2 {
                    for i3 in 0..s.d3 {
                        acc += self.get(i0, i1, i2, i3).to_f64();
                    }
                }
            }
        }
        acc
    }

    /// Set every logical element to zero (padding included).
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = T::ZERO);
    }
}

impl<T: Scalar> Clone for Tensor4<T> {
    fn clone(&self) -> Self {
        Self {
            shape: self.shape,
            layout: self.layout,
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s buffer when it is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.shape = source.shape;
        self.layout = source.layout;
        self.data.clone_from(&source.data);
    }
}

impl<T: Scalar> Index<(usize, usize, usize, usize)> for Tensor4<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i0, i1, i2, i3): (usize, usize, usize, usize)) -> &T {
        &self.data[self.layout.offset(self.shape, i0, i1, i2, i3)]
    }
}

impl<T: Scalar> IndexMut<(usize, usize, usize, usize)> for Tensor4<T> {
    #[inline]
    fn index_mut(&mut self, (i0, i1, i2, i3): (usize, usize, usize, usize)) -> &mut T {
        let off = self.layout.offset(self.shape, i0, i1, i2, i3);
        &mut self.data[off]
    }
}

impl<T: Scalar> fmt::Debug for Tensor4<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor4{:?}@{:?}", self.shape, self.layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let s = Shape4::new(2, 3, 4, 5);
        let mut t = Tensor4::<f64>::zeros(s, Layout::Nchw);
        assert_eq!(t.len(), 120);
        assert_eq!(t.get(1, 2, 3, 4), 0.0);
        t.set(1, 2, 3, 4, 7.5);
        assert_eq!(t[(1, 2, 3, 4)], 7.5);
    }

    #[test]
    fn from_fn_matches_closure() {
        let s = Shape4::new(2, 2, 2, 2);
        let t = Tensor4::<f64>::from_fn(s, Layout::Nchw, |a, b, c, d| {
            (a * 1000 + b * 100 + c * 10 + d) as f64
        });
        assert_eq!(t.get(1, 0, 1, 0), 1010.0);
    }

    #[test]
    fn layout_round_trip_preserves_content() {
        let s = Shape4::new(8, 3, 5, 6);
        let t = Tensor4::<f64>::from_fn(s, Layout::Nchw, |a, b, c, d| {
            (a * 7919 + b * 104729 + c * 13 + d) as f64
        });
        for lay in [Layout::ImageAware, Layout::BatchAware] {
            let u = t.to_layout(lay);
            let back = u.to_layout(Layout::Nchw);
            assert_eq!(back.max_abs_diff(&t), 0.0, "layout {lay:?}");
        }
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let s = Shape4::new(1, 1, 2, 2);
        let a = Tensor4::<f64>::full(s, Layout::Nchw, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1, 1, 1.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
        assert!(!a.approx_eq(&b, 0.25));
        assert!(a.approx_eq(&b, 0.75));
    }

    #[test]
    fn f32_scalar_ops() {
        let x: f32 = Scalar::from_f64(2.0);
        assert_eq!(x.to_f64(), 2.0);
        assert_eq!(f32::BYTES, 4);
        assert_eq!((-x).abs(), 2.0);
    }

    #[test]
    fn sum_and_zero() {
        let s = Shape4::new(2, 2, 2, 2);
        let mut t = Tensor4::<f64>::full(s, Layout::BatchAware, 2.0);
        assert_eq!(t.sum_f64(), 32.0);
        t.zero();
        assert_eq!(t.sum_f64(), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_checked() {
        let _ = Tensor4::<f64>::from_vec(Shape4::new(2, 2, 2, 2), vec![0.0; 3]);
    }
}
