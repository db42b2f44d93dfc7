//! The per-CPE Local Directive Memory (LDM / scratch-pad), §III-B.
//!
//! Each CPE has 64 KB of software-managed fast memory and *no* data cache.
//! Kernels must place every operand tile here explicitly; exceeding the
//! capacity is a hard failure. The allocator is a bump allocator (tiles are
//! allocated once at plan setup and live for the whole kernel, so nothing
//! fancier is needed) with 32-byte alignment so every buffer can serve
//! 256-bit vector loads.
//!
//! The capacity is a number: allocation, overflow and the high water are
//! bookkeeping over it alone. The doubles behind it exist only once
//! [`Ldm::back`] is called — on a functional mesh at a CPE's first
//! allocation, on a cost-only mesh, which reads no LDM, never.

use std::fmt;

/// Handle to an allocated LDM region, in doubles. The default is the empty
/// region at offset 0, what a CPE's state holds before its first allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LdmBuf {
    pub offset: usize,
    pub len: usize,
}

impl LdmBuf {
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// Allocation failure: the plan asked for more scratchpad than exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LdmOverflow {
    pub requested_doubles: usize,
    pub used_doubles: usize,
    pub capacity_doubles: usize,
}

impl fmt::Display for LdmOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LDM overflow: requested {} doubles with {}/{} in use",
            self.requested_doubles, self.used_doubles, self.capacity_doubles
        )
    }
}

impl std::error::Error for LdmOverflow {}

/// One CPE's scratchpad.
#[derive(Clone, Debug)]
pub struct Ldm {
    /// The contents: empty until [`Self::back`], then `capacity` doubles.
    data: Vec<f64>,
    capacity: usize,
    top: usize,
    high_water: usize,
}

/// Alignment of every allocation, in doubles (32 B = one vector register).
const ALIGN_DOUBLES: usize = 4;

/// Doubles an allocation of `len` takes: `len` rounded up to the
/// allocator's vector alignment. [`Ldm::alloc`] bumps by exactly this, so
/// a plan that sums it over its buffers states its high water.
pub const fn padded_len(len: usize) -> usize {
    len.div_ceil(ALIGN_DOUBLES) * ALIGN_DOUBLES
}

impl Ldm {
    /// A scratchpad of `capacity_bytes` (64 KB on SW26010), not yet backed.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            data: Vec::new(),
            capacity: capacity_bytes / 8,
            top: 0,
            high_water: 0,
        }
    }

    /// Back the scratchpad with its capacity of zeroed doubles, once; the
    /// buffer views below read and write this backing.
    pub fn back(&mut self) {
        if self.data.len() != self.capacity {
            self.data = vec![0.0; self.capacity];
        }
    }

    pub fn capacity_doubles(&self) -> usize {
        self.capacity
    }

    pub fn used_doubles(&self) -> usize {
        self.top
    }

    /// Peak usage over the lifetime of this LDM.
    pub fn high_water_doubles(&self) -> usize {
        self.high_water
    }

    /// Allocate `len` doubles (rounded up to vector alignment). Bookkeeping
    /// only: it does not back the scratchpad.
    pub fn alloc(&mut self, len: usize) -> Result<LdmBuf, LdmOverflow> {
        let padded = padded_len(len);
        if self.top + padded > self.capacity {
            return Err(LdmOverflow {
                requested_doubles: padded,
                used_doubles: self.top,
                capacity_doubles: self.capacity,
            });
        }
        let buf = LdmBuf {
            offset: self.top,
            len,
        };
        self.top += padded;
        self.high_water = self.high_water.max(self.top);
        Ok(buf)
    }

    /// Release everything (between independent kernel launches).
    pub fn reset(&mut self) {
        self.top = 0;
    }

    /// Read-only view of a buffer.
    #[inline]
    pub fn buf(&self, b: LdmBuf) -> &[f64] {
        &self.data[b.range()]
    }

    /// Mutable view of a buffer.
    #[inline]
    pub fn buf_mut(&mut self, b: LdmBuf) -> &mut [f64] {
        &mut self.data[b.range()]
    }

    /// The whole scratchpad, mutable — inner kernels index across several
    /// disjoint buffers at once and a single borrow is the idiomatic way to
    /// do so without split-borrow gymnastics.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_bump() {
        let mut ldm = Ldm::new(64 * 1024);
        let a = ldm.alloc(5).unwrap();
        let b = ldm.alloc(3).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 8, "5 doubles round up to 8 (32B alignment)");
        assert_eq!(ldm.used_doubles(), 12);
    }

    #[test]
    fn overflow_is_reported_with_context() {
        let mut ldm = Ldm::new(256); // 32 doubles
        assert!(ldm.alloc(16).is_ok());
        let err = ldm.alloc(32).unwrap_err();
        assert_eq!(err.used_doubles, 16);
        assert_eq!(err.capacity_doubles, 32);
        assert!(err.to_string().contains("LDM overflow"));
    }

    #[test]
    fn capacity_matches_sw26010() {
        let ldm = Ldm::new(64 * 1024);
        assert_eq!(ldm.capacity_doubles(), 8192);
    }

    #[test]
    fn allocation_is_bookkeeping_until_backed() {
        let mut ldm = Ldm::new(64 * 1024);
        let a = ldm.alloc(101).unwrap();
        assert!(ldm.alloc(8192).is_err());
        assert_eq!((ldm.high_water_doubles(), ldm.data.len()), (104, 0));
        ldm.back();
        assert_eq!(ldm.buf(a), &[0.0; 101][..]);
        ldm.buf_mut(a)[0] = 1.0;
        ldm.back();
        assert_eq!(ldm.buf(a)[0], 1.0, "backing twice keeps the contents");
    }

    #[test]
    fn double_buffer_pair_is_disjoint() {
        let mut ldm = Ldm::new(64 * 1024);
        let (a, b) = (ldm.alloc(100).unwrap(), ldm.alloc(100).unwrap());
        assert!(a.range().end <= b.range().start);
    }

    #[test]
    fn reset_reclaims_but_high_water_persists() {
        let mut ldm = Ldm::new(64 * 1024);
        ldm.alloc(4000).unwrap();
        ldm.reset();
        assert_eq!(ldm.used_doubles(), 0);
        assert_eq!(ldm.high_water_doubles(), 4000);
        assert!(ldm.alloc(8000).is_ok());
    }

    #[test]
    fn buffers_read_back_written_values() {
        let mut ldm = Ldm::new(1024);
        let b = ldm.alloc(8).unwrap();
        ldm.back();
        ldm.buf_mut(b)
            .copy_from_slice(&[1., 2., 3., 4., 5., 6., 7., 8.]);
        assert_eq!(ldm.buf(b)[3], 4.0);
    }
}
