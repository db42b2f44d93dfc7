//! Physical data layouts (§V-C of the paper).
//!
//! The SW26010's DMA engine only approaches peak bandwidth when each CPE
//! transfers contiguous blocks of ≥256 bytes aligned to 128 bytes (Table II),
//! and its 256-bit SIMD unit wants 4 doubles contiguous in memory. swDNN
//! therefore reorganizes the 4-D operands so that 4 elements of the
//! *vectorized* dimension sit innermost:
//!
//! * [`Layout::ImageAware`] — `(4, C, R, N, B/4)` reading inner→outer:
//!   used by the image-size-aware plan (Algorithm 1). The contiguous run per
//!   `(batch-quad, channel, row)` is `C*4` elements, so wide images give
//!   large DMA blocks.
//! * [`Layout::BatchAware`] — `(4, B/4, C, R, N)` inner→outer: used by the
//!   batch-size-aware plan (Algorithm 2). The contiguous run per pixel is
//!   `B` elements, so large batches give large DMA blocks.
//! * [`Layout::Nchw`] — plain row-major, the interchange format and what the
//!   naive reference and the GPU baseline use.

use crate::shape::Shape4;
use crate::VECTOR_WIDTH;

/// Physical element order of a [`crate::Tensor4`] buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Layout {
    /// Row-major `(d0, d1, d2, d3)`, e.g. NCHW for activations.
    #[default]
    Nchw,
    /// swDNN image-size-aware vectorized layout `(4, d3, d2, d1, d0/4)`.
    /// The vector lane runs over `d0` (the batch for activations).
    ImageAware,
    /// swDNN batch-size-aware vectorized layout `(4, d0/4, d3, d2, d1)`.
    /// The vector lane runs over `d0` (the batch for activations).
    BatchAware,
}

#[inline]
const fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

impl Layout {
    /// All layouts, for exhaustive tests.
    pub const ALL: [Layout; 3] = [Layout::Nchw, Layout::ImageAware, Layout::BatchAware];

    /// Length of the flat buffer needed to store `shape` in this layout.
    ///
    /// The vectorized layouts pad `d0` up to a multiple of the vector width
    /// so every quad is complete.
    pub fn buffer_len(self, shape: Shape4) -> usize {
        match self {
            Layout::Nchw => shape.len(),
            Layout::ImageAware | Layout::BatchAware => {
                ceil_div(shape.d0, VECTOR_WIDTH) * VECTOR_WIDTH * shape.d1 * shape.d2 * shape.d3
            }
        }
    }

    /// Flat buffer offset of logical index `(i0, i1, i2, i3)`.
    #[inline]
    pub fn offset(self, s: Shape4, i0: usize, i1: usize, i2: usize, i3: usize) -> usize {
        debug_assert!(i0 < s.d0 && i1 < s.d1 && i2 < s.d2 && i3 < s.d3);
        match self {
            Layout::Nchw => ((i0 * s.d1 + i1) * s.d2 + i2) * s.d3 + i3,
            Layout::ImageAware => {
                // outer→inner: d0/4, d1, d2, d3, lane
                let (q, lane) = (i0 / VECTOR_WIDTH, i0 % VECTOR_WIDTH);
                (((q * s.d1 + i1) * s.d2 + i2) * s.d3 + i3) * VECTOR_WIDTH + lane
            }
            Layout::BatchAware => {
                // outer→inner: d1, d2, d3, d0/4, lane
                let (q, lane) = (i0 / VECTOR_WIDTH, i0 % VECTOR_WIDTH);
                let quads = ceil_div(s.d0, VECTOR_WIDTH);
                (((i1 * s.d2 + i2) * s.d3 + i3) * quads + q) * VECTOR_WIDTH + lane
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nchw_offset_is_row_major() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(Layout::Nchw.offset(s, 0, 0, 0, 0), 0);
        assert_eq!(Layout::Nchw.offset(s, 0, 0, 0, 1), 1);
        assert_eq!(Layout::Nchw.offset(s, 1, 2, 3, 4), 119);
    }

    #[test]
    fn image_aware_lane_is_innermost() {
        let s = Shape4::new(8, 2, 2, 4);
        let base = Layout::ImageAware.offset(s, 0, 1, 1, 2);
        for lane in 1..4 {
            assert_eq!(Layout::ImageAware.offset(s, lane, 1, 1, 2), base + lane);
        }
        // next column is VECTOR_WIDTH away
        assert_eq!(Layout::ImageAware.offset(s, 0, 1, 1, 3), base + 4);
    }

    #[test]
    fn batch_aware_batch_is_contiguous_per_pixel() {
        let s = Shape4::new(16, 2, 2, 2);
        let base = Layout::BatchAware.offset(s, 0, 1, 0, 1);
        for b in 1..16 {
            assert_eq!(Layout::BatchAware.offset(s, b, 1, 0, 1), base + b);
        }
    }

    #[test]
    fn offsets_are_unique_and_in_bounds() {
        let s = Shape4::new(6, 3, 2, 5); // d0 not a multiple of 4 on purpose
        for lay in Layout::ALL {
            let cap = lay.buffer_len(s);
            let mut seen = vec![false; cap];
            for i0 in 0..s.d0 {
                for i1 in 0..s.d1 {
                    for i2 in 0..s.d2 {
                        for i3 in 0..s.d3 {
                            let o = lay.offset(s, i0, i1, i2, i3);
                            assert!(o < cap, "{lay:?} offset out of bounds");
                            assert!(!seen[o], "{lay:?} offset collision at {o}");
                            seen[o] = true;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn buffer_len_pads_vector_layouts() {
        let s = Shape4::new(5, 1, 1, 1);
        assert_eq!(Layout::Nchw.buffer_len(s), 5);
        assert_eq!(Layout::ImageAware.buffer_len(s), 8);
        assert_eq!(Layout::BatchAware.buffer_len(s), 8);
    }
}
