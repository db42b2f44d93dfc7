//! The main-memory map: per-CG private segments and the chip-wide shared
//! segment (§III-B).
//!
//! "Each CG connects to its own 8GB DDR3 memory ... Users can explicitly
//! set the size of each CG's private memory space, and the size of the
//! memory space shared among the four CGs."
//!
//! swDNN's §III-D strategy allocates every convolution operand in the
//! *private* segment of the CG that processes it (output-row
//! partitioning), so no transfer ever crosses the NoC. This module models
//! the memory map itself: segment layout, an allocator over each segment,
//! and classification of an access (local / remote / shared).

use std::fmt;

/// A region of one CG's DDR3 or of the shared window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segment {
    /// Private to core group `cg`.
    Private { cg: usize },
    /// Visible to all CGs through the NoC.
    Shared,
}

/// A chip memory map: how much of each CG's 8 GB is private vs contributed
/// to the shared window.
#[derive(Clone, Debug)]
pub struct MemoryMap {
    /// Bytes of private space per CG.
    pub private_bytes: Vec<u64>,
    /// Bytes of the shared window.
    pub shared_bytes: u64,
    // Bump cursors.
    private_used: Vec<u64>,
    shared_used: u64,
}

/// An allocated block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemBlock {
    pub segment: Segment,
    pub offset: u64,
    pub bytes: u64,
}

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemExhausted {
    pub segment: Segment,
    pub requested: u64,
    pub available: u64,
}

impl fmt::Display for MemExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} exhausted: requested {} bytes, {} available",
            self.segment, self.requested, self.available
        )
    }
}

impl std::error::Error for MemExhausted {}

impl MemoryMap {
    /// The paper's default: 8 GB per CG, all private (the swDNN layout),
    /// `cgs` core groups.
    pub fn all_private(cgs: usize) -> Self {
        Self {
            private_bytes: vec![8 << 30; cgs],
            shared_bytes: 0,
            private_used: vec![0; cgs],
            shared_used: 0,
        }
    }

    /// Split each CG's memory: `shared_per_cg` bytes contributed to the
    /// shared window, the rest private.
    pub fn with_shared(cgs: usize, shared_per_cg: u64) -> Self {
        assert!(shared_per_cg <= 8 << 30);
        Self {
            private_bytes: vec![(8 << 30) - shared_per_cg; cgs],
            shared_bytes: shared_per_cg * cgs as u64,
            private_used: vec![0; cgs],
            shared_used: 0,
        }
    }

    /// Allocate `bytes` in a segment (bump allocation, 128-byte aligned —
    /// the DMA alignment sweet spot of Table II).
    pub fn alloc(&mut self, segment: Segment, bytes: u64) -> Result<MemBlock, MemExhausted> {
        let aligned = bytes.div_ceil(128) * 128;
        let (cap, used) = match segment {
            Segment::Private { cg } => (self.private_bytes[cg], &mut self.private_used[cg]),
            Segment::Shared => (self.shared_bytes, &mut self.shared_used),
        };
        if *used + aligned > cap {
            return Err(MemExhausted {
                segment,
                requested: aligned,
                available: cap - *used,
            });
        }
        let offset = *used;
        *used += aligned;
        Ok(MemBlock {
            segment,
            offset,
            bytes,
        })
    }

    /// Is an access by core group `cg` to this block local, remote-private,
    /// or shared?
    pub fn classify(&self, cg: usize, block: &MemBlock) -> AccessClass {
        match block.segment {
            Segment::Private { cg: owner } if owner == cg => AccessClass::Local,
            Segment::Private { .. } => AccessClass::RemotePrivate,
            Segment::Shared => AccessClass::Shared,
        }
    }

    /// Free bytes remaining in a segment.
    pub fn free_bytes(&self, segment: Segment) -> u64 {
        match segment {
            Segment::Private { cg } => self.private_bytes[cg] - self.private_used[cg],
            Segment::Shared => self.shared_bytes - self.shared_used,
        }
    }
}

/// How an access relates to the accessing CG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessClass {
    /// Own memory controller: DDR3 peak applies.
    Local,
    /// Another CG's private memory: architecturally invalid for DMA — the
    /// data must be staged through the shared window.
    RemotePrivate,
    /// The shared window: NoC bandwidth applies.
    Shared,
}

/// The §III-D operand placement: every tensor of CG `cg`'s output-row
/// slice goes into that CG's private segment. Returns one block per CG.
pub fn partition_private(
    map: &mut MemoryMap,
    bytes_per_cg: u64,
) -> Result<Vec<MemBlock>, MemExhausted> {
    (0..map.private_bytes.len())
        .map(|cg| map.alloc(Segment::Private { cg }, bytes_per_cg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_private_map_has_no_shared_space() {
        let mut map = MemoryMap::all_private(4);
        assert_eq!(map.shared_bytes, 0);
        assert!(map.alloc(Segment::Shared, 1).is_err());
        assert!(map.alloc(Segment::Private { cg: 2 }, 1 << 20).is_ok());
    }

    #[test]
    fn shared_window_pools_contributions() {
        let map = MemoryMap::with_shared(4, 1 << 30);
        assert_eq!(map.shared_bytes, 4 << 30);
        assert_eq!(map.private_bytes[0], (8u64 << 30) - (1 << 30));
    }

    #[test]
    fn allocation_is_aligned_and_bounded() {
        let mut map = MemoryMap::with_shared(2, 1 << 20);
        let a = map.alloc(Segment::Shared, 100).unwrap();
        let b = map.alloc(Segment::Shared, 100).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 128, "128-byte alignment");
        let err = map.alloc(Segment::Shared, 4 << 20).unwrap_err();
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn classification_matches_ownership() {
        let mut map = MemoryMap::with_shared(4, 1 << 20);
        let own = map.alloc(Segment::Private { cg: 1 }, 64).unwrap();
        let shared = map.alloc(Segment::Shared, 64).unwrap();
        assert_eq!(map.classify(1, &own), AccessClass::Local);
        assert_eq!(map.classify(0, &own), AccessClass::RemotePrivate);
        assert_eq!(map.classify(3, &shared), AccessClass::Shared);
    }

    #[test]
    fn paper_partitioning_gives_every_cg_local_data() {
        let mut map = MemoryMap::all_private(4);
        let blocks = partition_private(&mut map, 100 << 20).unwrap();
        assert_eq!(blocks.len(), 4);
        for (cg, block) in blocks.iter().enumerate() {
            assert_eq!(map.classify(cg, block), AccessClass::Local);
        }
    }

    #[test]
    fn exhaustion_reports_availability() {
        let mut map = MemoryMap::with_shared(1, 8 << 30); // everything shared
        assert_eq!(map.free_bytes(Segment::Private { cg: 0 }), 0);
        let err = map.alloc(Segment::Private { cg: 0 }, 1).unwrap_err();
        assert_eq!(err.available, 0);
    }
}
