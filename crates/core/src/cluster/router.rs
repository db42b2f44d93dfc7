//! Deterministic request routing across chips: consistent hashing by
//! shape with a least-loaded fallback.
//!
//! The primary assignment is a consistent-hash ring over virtual nodes
//! (`vnodes` per chip) keyed by a [`ConvShape`] hash, so each hot shape
//! pins to one chip — that chip's [`super::super::serve::PlanCache`]
//! stays hot for it, and adding or removing a chip remaps only the
//! shapes whose ring arcs move (the classic 1/N reshuffle, not a full
//! rehash). The fallback walks the ring past down or saturated chips,
//! and when the whole ring is saturated it picks the least-loaded
//! healthy chip outright.
//!
//! Everything here is a pure function of `(shape, loads, down)` — no
//! RNG, no wall clock — so a routing trace replays bit-for-bit and the
//! cluster tests fingerprint it.

use sw_sim::fault::splitmix64;
use sw_tensor::ConvShape;

/// Consistent-hash router over `chips` peers.
#[derive(Clone, Debug)]
pub struct ShapeRouter {
    /// `(hash, chip)` ring points, sorted by hash.
    ring: Vec<(u64, usize)>,
    chips: usize,
}

impl ShapeRouter {
    /// A ring with `vnodes` virtual nodes per chip. More vnodes smooth
    /// the arc distribution; 16 keeps a 4-shape serving mix within one
    /// request of balanced at 8 chips.
    pub fn new(chips: usize, vnodes: usize) -> Self {
        assert!(chips >= 1, "a cluster has at least one chip");
        let vnodes = vnodes.max(1);
        let mut ring = Vec::with_capacity(chips * vnodes);
        for chip in 0..chips {
            for v in 0..vnodes {
                let h = splitmix64(((chip as u64) << 20) ^ v as u64 ^ 0xC1A5_7E12);
                ring.push((h, chip));
            }
        }
        ring.sort_unstable();
        Self { ring, chips }
    }

    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Stable hash of a shape's identity fields.
    fn hash_shape(shape: &ConvShape) -> u64 {
        let mut h = 0x5EED_0000_0000_0001u64;
        for field in [
            shape.batch,
            shape.ni,
            shape.no,
            shape.ro,
            shape.co,
            shape.kr,
            shape.kc,
        ] {
            h = splitmix64(h ^ field as u64);
        }
        h
    }

    /// Ring position of `shape`'s primary chip, ignoring health/load.
    pub fn primary(&self, shape: &ConvShape) -> usize {
        let h = Self::hash_shape(shape);
        let idx = self
            .ring
            .partition_point(|&(point, _)| point < h)
            .checked_rem(self.ring.len())
            .unwrap_or(0);
        self.ring[idx].1
    }

    /// Route one request. A chip is eligible when it is not `down` and
    /// its queue depth is under `threshold`. The primary wins when
    /// eligible; otherwise the walk continues clockwise around the ring
    /// to the next eligible chip; if every chip is at or over threshold
    /// the least-loaded healthy chip (lowest index on ties) takes it.
    /// Returns `None` only when every chip is down.
    pub fn route(
        &self,
        shape: &ConvShape,
        loads: &[usize],
        down: &[bool],
        threshold: usize,
    ) -> Option<usize> {
        assert_eq!(loads.len(), self.chips);
        assert_eq!(down.len(), self.chips);
        let h = Self::hash_shape(shape);
        let start = self
            .ring
            .partition_point(|&(point, _)| point < h)
            .checked_rem(self.ring.len())
            .unwrap_or(0);
        for i in 0..self.ring.len() {
            let (_, chip) = self.ring[(start + i) % self.ring.len()];
            if !down[chip] && loads[chip] < threshold {
                return Some(chip);
            }
        }
        // Every eligible arc is saturated: shed load evenly instead of
        // hammering the hash-preferred chip.
        (0..self.chips)
            .filter(|&c| !down[c])
            .min_by_key(|&c| (loads[c], c))
    }

    /// Fold a routing decision into a running fingerprint — the cluster
    /// determinism tests compare this digest across thread counts.
    pub fn fold_fingerprint(acc: u64, shape: &ConvShape, chip: usize) -> u64 {
        splitmix64(acc ^ Self::hash_shape(shape) ^ ((chip as u64) << 48))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<ConvShape> {
        crate::zoo::serving_mix()
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    }

    #[test]
    fn primary_is_stable_and_in_range() {
        let r = ShapeRouter::new(8, 16);
        for s in shapes() {
            let p = r.primary(&s);
            assert!(p < 8);
            assert_eq!(p, r.primary(&s), "routing is a pure function");
        }
    }

    #[test]
    fn adding_a_chip_remaps_only_some_shapes() {
        // Consistent hashing: growing the ring must not reshuffle every
        // assignment. With few shapes assert stability as "most stay".
        let small = ShapeRouter::new(4, 64);
        let big = ShapeRouter::new(5, 64);
        let mut moved = 0;
        let mut total = 0;
        // A spread of synthetic shapes for statistical coverage.
        for b in 1..64usize {
            let s = ConvShape::new(b, 8, 8, 8, 8, 3, 3);
            total += 1;
            let p = small.primary(&s);
            if big.primary(&s) != p {
                moved += 1;
            }
        }
        assert!(moved > 0, "the new chip must take some arcs");
        assert!(
            moved < total / 2,
            "only ~1/5 of shapes should move, moved {moved}/{total}"
        );
    }

    #[test]
    fn down_chips_are_never_routed_to() {
        let r = ShapeRouter::new(4, 16);
        let loads = [0usize; 4];
        for s in shapes() {
            let p = r.primary(&s);
            let mut down = [false; 4];
            down[p] = true;
            let got = r.route(&s, &loads, &down, 100).unwrap();
            assert_ne!(got, p, "down primary must be skipped");
        }
        assert_eq!(
            r.route(&shapes()[0], &loads, &[true; 4], 100),
            None,
            "all chips down"
        );
    }

    #[test]
    fn saturated_primary_falls_back_then_least_loaded() {
        let r = ShapeRouter::new(4, 16);
        let s = shapes()[0];
        let p = r.primary(&s);
        // Saturate the primary only: the request walks to another chip.
        let mut loads = [0usize; 4];
        loads[p] = 10;
        let next = r.route(&s, &loads, &[false; 4], 10).unwrap();
        assert_ne!(next, p);
        // Saturate everyone: least-loaded healthy chip wins.
        let loads = [10usize, 3, 10, 10];
        assert_eq!(r.route(&s, &loads, &[false; 4], 10), Some(1));
    }

    #[test]
    fn ring_spreads_a_shape_sweep_across_all_chips() {
        let r = ShapeRouter::new(8, 16);
        let mut hit = [false; 8];
        for b in 1..256usize {
            hit[r.primary(&ConvShape::new(b, 8, 8, 8, 8, 3, 3))] = true;
        }
        assert!(hit.iter().all(|&h| h), "every chip owns some arc: {hit:?}");
    }

    #[test]
    fn fingerprint_reflects_decisions() {
        let s = shapes()[0];
        let a = ShapeRouter::fold_fingerprint(0, &s, 1);
        let b = ShapeRouter::fold_fingerprint(0, &s, 2);
        assert_ne!(a, b, "different chip, different digest");
        assert_eq!(a, ShapeRouter::fold_fingerprint(0, &s, 1));
    }
}
