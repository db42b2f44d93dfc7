//! Dimension bookkeeping for 4-D tensors and convolutional layers.

use crate::VECTOR_WIDTH;
use std::fmt;

/// Shape of a dense 4-D tensor, in logical `(d0, d1, d2, d3)` order.
///
/// For activations the logical order is `(batch, channel, row, col)`;
/// for filters it is `(out_channel, in_channel, kr, kc)`. Physical element
/// order is a property of [`crate::Layout`], not of the shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape4 {
    pub d0: usize,
    pub d1: usize,
    pub d2: usize,
    pub d3: usize,
}

impl Shape4 {
    pub const fn new(d0: usize, d1: usize, d2: usize, d3: usize) -> Self {
        Self { d0, d1, d2, d3 }
    }

    /// Total number of elements.
    pub const fn len(&self) -> usize {
        self.d0 * self.d1 * self.d2 * self.d3
    }

    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major linear index of `(i0, i1, i2, i3)`.
    #[inline]
    pub fn index(&self, i0: usize, i1: usize, i2: usize, i3: usize) -> usize {
        debug_assert!(i0 < self.d0 && i1 < self.d1 && i2 < self.d2 && i3 < self.d3);
        ((i0 * self.d1 + i1) * self.d2 + i2) * self.d3 + i3
    }
}

impl fmt::Debug for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}x{}x{}x{}]", self.d0, self.d1, self.d2, self.d3)
    }
}

impl From<(usize, usize, usize, usize)> for Shape4 {
    fn from(t: (usize, usize, usize, usize)) -> Self {
        Shape4::new(t.0, t.1, t.2, t.3)
    }
}

/// Parameters of a convolutional layer, Table I of the paper.
///
/// The paper's "valid" convolution relates input and output extents as
/// `Ri = Ro + Kr - 1` and `Ci = Co + Kc - 1`; no padding or striding is
/// modelled (the paper's evaluation uses none).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConvShape {
    /// Batch size `B`.
    pub batch: usize,
    /// Number of input feature maps `Ni`.
    pub ni: usize,
    /// Number of output feature maps `No`.
    pub no: usize,
    /// Output image height `Ro`.
    pub ro: usize,
    /// Output image width `Co`.
    pub co: usize,
    /// Filter height `Kr`.
    pub kr: usize,
    /// Filter width `Kc`.
    pub kc: usize,
}

impl ConvShape {
    pub const fn new(
        batch: usize,
        ni: usize,
        no: usize,
        ro: usize,
        co: usize,
        kr: usize,
        kc: usize,
    ) -> Self {
        Self {
            batch,
            ni,
            no,
            ro,
            co,
            kr,
            kc,
        }
    }

    /// Input image height `Ri = Ro + Kr - 1`.
    pub const fn ri(&self) -> usize {
        self.ro + self.kr - 1
    }

    /// Input image width `Ci = Co + Kc - 1`.
    pub const fn ci(&self) -> usize {
        self.co + self.kc - 1
    }

    /// Shape of the input activation tensor `(B, Ni, Ri, Ci)`.
    pub const fn input_shape(&self) -> Shape4 {
        Shape4::new(self.batch, self.ni, self.ri(), self.ci())
    }

    /// Shape of the filter tensor `(No, Ni, Kr, Kc)`.
    pub const fn filter_shape(&self) -> Shape4 {
        Shape4::new(self.no, self.ni, self.kr, self.kc)
    }

    /// Shape of the output activation tensor `(B, No, Ro, Co)`.
    pub const fn output_shape(&self) -> Shape4 {
        Shape4::new(self.batch, self.no, self.ro, self.co)
    }

    /// Total floating-point operations of one forward pass.
    ///
    /// Each output element accumulates `Ni*Kr*Kc` multiply-adds; following
    /// the paper (and cuDNN) each multiply-add counts as 2 flops.
    pub const fn flops(&self) -> u64 {
        2 * (self.batch * self.no * self.ro * self.co * self.ni * self.kr * self.kc) as u64
    }

    /// Bytes touched in main memory for one pass with no reuse
    /// (input + filters + output), double precision.
    pub const fn min_bytes_f64(&self) -> u64 {
        8 * (self.input_shape().len() + self.filter_shape().len() + self.output_shape().len())
            as u64
    }

    /// `true` when all extents are positive and every count taken of the
    /// shape fits: the input, filter and output buffers together — each
    /// with its `d0` padded to the vector width, as the vectorized layouts
    /// store it — in at most `isize::MAX` bytes, the most one allocation can
    /// hold, and [`Self::flops`] in a `u64`.
    pub fn is_valid(&self) -> bool {
        let extents = [
            self.batch, self.ni, self.no, self.ro, self.co, self.kr, self.kc,
        ];
        extents.iter().all(|&d| d > 0) && self.counts_fit(extents)
    }

    /// The count half of [`Self::is_valid`], for positive `extents`.
    fn counts_fit(&self, extents: [usize; 7]) -> bool {
        let (Some(ri), Some(ci)) = (
            self.ro.checked_add(self.kr - 1),
            self.co.checked_add(self.kc - 1),
        ) else {
            return false;
        };
        // Bytes of a `(d0, d1, d2, d3)` buffer with `d0` padded to a whole
        // vector.
        let bytes = |d: [usize; 4]| {
            [VECTOR_WIDTH * 8, d[1], d[2], d[3]]
                .into_iter()
                .try_fold(d[0].div_ceil(VECTOR_WIDTH), usize::checked_mul)
        };
        let buffers = [
            [self.batch, self.ni, ri, ci],
            [self.no, self.ni, self.kr, self.kc],
            [self.batch, self.no, self.ro, self.co],
        ]
        .into_iter()
        .try_fold(0usize, |sum, d| sum.checked_add(bytes(d)?));
        let flops = extents
            .into_iter()
            .try_fold(2u64, |acc, d| acc.checked_mul(d as u64));
        buffers.is_some_and(|b| b <= isize::MAX as usize) && flops.is_some()
    }
}

impl fmt::Display for ConvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "B={} Ni={} No={} out={}x{} K={}x{}",
            self.batch, self.ni, self.no, self.ro, self.co, self.kr, self.kc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_len_and_index() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.len(), 120);
        assert_eq!(s.index(0, 0, 0, 0), 0);
        assert_eq!(s.index(1, 2, 3, 4), 119);
        assert_eq!(s.index(0, 1, 0, 0), 20);
    }

    #[test]
    fn shape_from_tuple_round_trips() {
        let s: Shape4 = (7, 1, 2, 9).into();
        assert_eq!((s.d0, s.d1, s.d2, s.d3), (7, 1, 2, 9));
    }

    #[test]
    fn conv_shape_extents() {
        // The paper's canonical config: B=128, 64x64 output, 3x3 filters.
        let c = ConvShape::new(128, 64, 64, 64, 64, 3, 3);
        assert_eq!(c.ri(), 66);
        assert_eq!(c.ci(), 66);
        assert_eq!(c.input_shape(), Shape4::new(128, 64, 66, 66));
        assert_eq!(c.filter_shape(), Shape4::new(64, 64, 3, 3));
        assert_eq!(c.output_shape(), Shape4::new(128, 64, 64, 64));
    }

    #[test]
    fn conv_shape_flops_matches_hand_count() {
        let c = ConvShape::new(2, 3, 5, 4, 4, 3, 3);
        // 2*B*No*Ro*Co*Ni*Kr*Kc
        assert_eq!(c.flops(), 2 * 2 * 5 * 4 * 4 * 3 * 3 * 3);
    }

    #[test]
    fn conv_shape_validity() {
        assert!(ConvShape::new(1, 1, 1, 1, 1, 1, 1).is_valid());
        assert!(!ConvShape::new(0, 1, 1, 1, 1, 1, 1).is_valid());
        assert!(!ConvShape::new(1, 1, 1, 1, 1, 0, 1).is_valid());
    }

    #[test]
    fn shapes_whose_counts_overflow_are_invalid() {
        let huge = [
            // Every element count overflows.
            ConvShape::new(1 << 22, 1 << 22, 1 << 22, 1 << 22, 1, 1, 1),
            // The tensors fit; `flops` does not.
            ConvShape::new(1 << 16, 1 << 16, 1 << 16, 64, 64, 3, 3),
            // The input fits unpadded; padded to a whole vector it does not.
            ConvShape::new(1, 1, 1, 1, 1, usize::MAX / 2, 1),
            // `Ri = Ro + Kr - 1` itself overflows.
            ConvShape::new(1, 1, 1, usize::MAX, 1, 2, 1),
        ];
        for s in huge {
            assert!(!s.is_valid(), "{s}");
        }
        // The largest paper-scale shapes stay valid.
        assert!(ConvShape::new(128, 384, 384, 64, 64, 21, 21).is_valid());
    }

    #[test]
    fn min_bytes_counts_all_three_operands() {
        let c = ConvShape::new(1, 1, 1, 1, 1, 1, 1);
        // input 1x1x1x1, filter 1x1x1x1, output 1x1x1x1 => 3 doubles.
        assert_eq!(c.min_bytes_f64(), 24);
    }
}
