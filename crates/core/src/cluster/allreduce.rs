//! Fixed-order gradient allreduce: schedule-independent numerics with
//! schedule-dependent timing.
//!
//! Floating-point addition is not associative, so a literal ring
//! reduce-scatter — where each segment's partial sums accumulate in ring
//! order starting from a different chip — produces gradients that drift
//! with the chip count. swDNN's whole verification story (golden
//! digests, zero-drift chaos gates) rests on bit-identical numerics, so
//! the cluster fixes the *reduction order by microbatch index*: the
//! reduced gradient is defined as
//!
//! ```text
//! g = (g_0 + g_1 + … + g_{M-1}) · (1/M)     — left to right, always
//! ```
//!
//! regardless of which chip owns which microbatch and which collective
//! schedule moves the bytes. The interconnect schedule (ring for big
//! tensors, tree for small — [`sw_perfmodel::InterconnectSpec`]) decides
//! only the simulated *time* and the per-link *wire bytes*; the sum
//! itself is replayed in index order. That is exactly the trade a real
//! deterministic-training deployment makes (sacrifice the in-network
//! reduction, keep the schedule's bandwidth pattern), and it is what
//! lets `tests/cluster.rs` assert gradient bit-identity at 1/2/4/8
//! chips.

use crate::layers::Layer;
use sw_perfmodel::AllreduceKind;

/// One allreduce's modeled cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllreduceReport {
    pub kind: AllreduceKind,
    /// Gradient payload, bytes (8 bytes per parameter).
    pub tensor_bytes: u64,
    /// Simulated collective time, µs.
    pub time_us: f64,
    /// Bytes each chip put on the wire under the chosen schedule.
    pub wire_bytes_per_chip: u64,
}

/// Sum per-microbatch gradient vectors strictly left to right. All
/// inputs must be the same length (one flattened gradient per
/// microbatch, in the stable `visit_params` walk order).
#[cfg(test)]
pub(crate) fn reduce_fixed_order(per_microbatch: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = per_microbatch.first() else {
        return Vec::new();
    };
    let mut acc = vec![0.0f64; first.len()];
    for g in per_microbatch {
        assert_eq!(g.len(), acc.len(), "gradient shards must agree in length");
        for (a, v) in acc.iter_mut().zip(g) {
            *a += v;
        }
    }
    acc
}

/// Flatten every layer's gradients into one vector (stable
/// `visit_params` order) and zero the in-layer gradients so the next
/// microbatch's backward starts from scratch.
pub fn take_gradients<L: Layer + ?Sized>(layers: &mut [Box<L>]) -> Vec<f64> {
    let mut flat = Vec::new();
    for layer in layers {
        layer.visit_params(&mut |_, g| {
            flat.extend_from_slice(g);
            g.fill(0.0);
        });
    }
    flat
}

/// Write a flattened gradient back into the layers' gradient slots (the
/// inverse walk of [`take_gradients`]), so the optimizer applies the
/// reduced gradient exactly as if one device had computed it.
pub fn load_gradients(layers: &mut [Box<dyn Layer>], flat: &[f64]) {
    let mut off = 0usize;
    for layer in layers {
        layer.visit_params(&mut |_, g| {
            g.copy_from_slice(&flat[off..off + g.len()]);
            off += g.len();
        });
    }
    assert_eq!(off, flat.len(), "gradient vector must match the network");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;

    #[test]
    fn fixed_order_sum_is_left_to_right() {
        // Values whose rounding depends on order: (0.1 + 0.2) + 0.3
        // rounds to 0.6000000000000001 while (0.3 + 0.2) + 0.1 rounds
        // to 0.6 — the classic f64 non-associativity.
        let shards = vec![vec![0.1f64], vec![0.2], vec![0.3]];
        let fwd = reduce_fixed_order(&shards)[0];
        assert_eq!(fwd, (0.1 + 0.2) + 0.3);
        let rev: Vec<Vec<f64>> = shards.iter().rev().cloned().collect();
        assert_ne!(
            fwd,
            reduce_fixed_order(&rev)[0],
            "order must matter for this data, or the test proves nothing"
        );
    }

    #[test]
    fn take_and_load_round_trip() {
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Linear::new(3, 2, 1)),
            Box::new(Linear::new(2, 2, 2)),
        ];
        // Paint distinguishable gradients.
        let mut v = 0.5f64;
        for l in &mut layers {
            l.visit_params(&mut |_, g| {
                for gi in g.iter_mut() {
                    *gi = v;
                    v += 1.0;
                }
            });
        }
        let flat = take_gradients(&mut layers);
        assert_eq!(flat.len(), 3 * 2 + 2 + 2 * 2 + 2);
        assert_eq!(flat[0], 0.5);
        // take_gradients must have zeroed the slots.
        let mut cleared = true;
        for l in &mut layers {
            l.visit_params(&mut |_, g| cleared &= g.iter().all(|&x| x == 0.0));
        }
        assert!(cleared);
        load_gradients(&mut layers, &flat);
        let back = take_gradients(&mut layers);
        assert_eq!(back, flat, "load/take round-trips bit-exactly");
    }
}
