//! Deterministic, seeded fault injection for the simulated SW26010.
//!
//! A [`FaultPlan`] describes *which* hardware misbehaviors to inject and at
//! *what rate*; the mesh consults it at well-defined points (DMA request
//! issue, bus-message delivery, superstep entry). Every decision is a pure
//! hash of `(seed, stream, actor, sequence)` — never of wall-clock time or
//! thread scheduling — so a given plan replays the identical fault pattern
//! on every run regardless of how the worker pool schedules the 64 CPE
//! closures.
//!
//! Fault classes:
//!
//! * **DMA failures** — a transfer aborts and must be re-issued. The mesh
//!   retries up to [`RetryPolicy::max_retries`] times with exponential
//!   backoff *in cycles*; both the wasted transfer time and the backoff are
//!   charged into the request's completion time, so retries visibly consume
//!   the slack that double buffering (§IV-A) otherwise hides. Exhausted
//!   retries surface as [`crate::SimError::DmaFault`].
//! * **DMA stalls** — a transfer completes but takes
//!   [`FaultPlan::dma_stall_cycles`] longer (e.g. DMA-engine contention).
//! * **Message drops** — a register-communication payload vanishes between
//!   sender and receiver transfer buffer. The receiver's later `recv` hits
//!   [`crate::SimError::EmptyInbox`], exactly like the hardware deadlock.
//! * **CPE stalls** — a core loses [`FaultPlan::cpe_stall_cycles`] at the
//!   start of a superstep (OS noise, thermal throttle).
//! * **Dead CPEs** — cores in [`FaultPlan::dead_mask`] never execute;
//!   every superstep reports [`crate::SimError::CpeOffline`] so the caller
//!   can re-plan on a degraded mesh.

/// How the mesh retries failed DMA transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-issues after the first failure; 0 disables retrying.
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_backoff_cycles << k`.
    pub base_backoff_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff_cycles: 256,
        }
    }
}

/// Seeded description of the faults to inject into one [`crate::Mesh`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed; all injection decisions derive from it.
    pub seed: u64,
    /// Probability that one DMA attempt aborts and needs a re-issue.
    pub dma_fail_rate: f64,
    /// Probability that a DMA transfer is slowed by `dma_stall_cycles`.
    pub dma_stall_rate: f64,
    /// Extra cycles added to a stalled DMA transfer.
    pub dma_stall_cycles: u64,
    /// Probability that a delivered bus message is dropped.
    pub msg_drop_rate: f64,
    /// Probability that a CPE stalls at the start of a superstep.
    pub cpe_stall_rate: f64,
    /// Extra cycles a stalled CPE loses.
    pub cpe_stall_cycles: u64,
    /// Bitmask of permanently-offline CPEs; bit `row * 8 + col`.
    pub dead_mask: u64,
    /// Probability that a whole *chip* (one node of a multi-chip cluster)
    /// fails during a training step. Consulted by the cluster layer, not
    /// the mesh: a chip failure kills all 4 CGs at once, so it is decided
    /// at chip grain rather than per CPE.
    pub chip_fail_rate: f64,
    /// DMA retry policy applied inside the mesh.
    pub retry: RetryPolicy,
}

/// Independent decision streams: keeps e.g. the DMA-failure pattern stable
/// when an unrelated rate (message drops) is toggled on the same seed.
#[derive(Clone, Copy, Debug)]
#[repr(u64)]
enum Stream {
    DmaFail = 1,
    DmaStall = 2,
    MsgDrop = 3,
    CpeStall = 4,
    ChipFail = 5,
    ChipFailPoint = 6,
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's mixing permutation: the one hash behind every seeded
/// decision in the workspace — fault streams, router placement, the chaos
/// and cluster trace generators.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next value of the SplitMix64 stream at `state`, which it advances.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    out
}

impl FaultPlan {
    /// A plan injecting nothing — useful as a builder base.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            dma_fail_rate: 0.0,
            dma_stall_rate: 0.0,
            dma_stall_cycles: 0,
            msg_drop_rate: 0.0,
            cpe_stall_rate: 0.0,
            cpe_stall_cycles: 0,
            dead_mask: 0,
            chip_fail_rate: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    pub fn with_dma_fail_rate(mut self, rate: f64) -> Self {
        self.dma_fail_rate = rate;
        self
    }

    pub fn with_dma_stalls(mut self, rate: f64, cycles: u64) -> Self {
        self.dma_stall_rate = rate;
        self.dma_stall_cycles = cycles;
        self
    }

    pub fn with_msg_drop_rate(mut self, rate: f64) -> Self {
        self.msg_drop_rate = rate;
        self
    }

    pub fn with_cpe_stalls(mut self, rate: f64, cycles: u64) -> Self {
        self.cpe_stall_rate = rate;
        self.cpe_stall_cycles = cycles;
        self
    }

    /// Mark CPE `(row, col)` permanently offline.
    pub fn with_dead_cpe(mut self, row: usize, col: usize) -> Self {
        self.dead_mask |= 1u64 << (row * 8 + col);
        self
    }

    /// Probability that a chip drops out of a training step.
    pub fn with_chip_fail_rate(mut self, rate: f64) -> Self {
        self.chip_fail_rate = rate;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Same fault rates, different random pattern. Used by resilient
    /// executors re-running a failed attempt: replaying the *same* seed
    /// would deterministically reproduce the exact failure.
    pub fn reseed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when any injection can actually occur.
    pub fn is_active(&self) -> bool {
        self.dma_fail_rate > 0.0
            || self.dma_stall_rate > 0.0
            || self.msg_drop_rate > 0.0
            || self.cpe_stall_rate > 0.0
            || self.dead_mask != 0
            || self.chip_fail_rate > 0.0
    }

    /// True when an injection can land in a superstep that issues no DMA —
    /// a dropped message, a CPE stall or a dead CPE. DMA faults cannot: a
    /// register-communication rotation is such a superstep.
    pub fn touches_dma_free_steps(&self) -> bool {
        self.msg_drop_rate > 0.0 || self.cpe_stall_rate > 0.0 || self.dead_mask != 0
    }

    /// Uniform draw in `[0, 1)` for `(stream, actor, seq)` — pure in the
    /// plan seed, independent of evaluation order.
    fn roll(&self, stream: Stream, actor: u64, seq: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ (stream as u64).wrapping_mul(SPLITMIX_GAMMA));
        h = splitmix64(h ^ actor);
        h = splitmix64(h ^ seq);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does attempt `attempt` of DMA request `seq` on CPE `cpe_id` abort?
    pub fn dma_attempt_fails(&self, cpe_id: usize, seq: u64, attempt: u32) -> bool {
        self.dma_fail_rate > 0.0
            && self.roll(
                Stream::DmaFail,
                cpe_id as u64,
                seq.wrapping_mul(64) + attempt as u64,
            ) < self.dma_fail_rate
    }

    /// Extra cycles injected into DMA request `seq` on CPE `cpe_id`.
    pub fn dma_stall(&self, cpe_id: usize, seq: u64) -> u64 {
        if self.dma_stall_rate > 0.0
            && self.roll(Stream::DmaStall, cpe_id as u64, seq) < self.dma_stall_rate
        {
            self.dma_stall_cycles
        } else {
            0
        }
    }

    /// Is delivery `seq` (a mesh-global delivery counter) dropped on the
    /// link `sender → receiver`?
    pub fn msg_dropped(&self, sender_id: usize, receiver_id: usize, seq: u64) -> bool {
        self.msg_drop_rate > 0.0
            && self.roll(
                Stream::MsgDrop,
                (sender_id as u64) << 32 | receiver_id as u64,
                seq,
            ) < self.msg_drop_rate
    }

    /// Cycles CPE `cpe_id` loses at the start of superstep `superstep`.
    pub fn cpe_stall(&self, cpe_id: usize, superstep: u64) -> u64 {
        if self.cpe_stall_rate > 0.0
            && self.roll(Stream::CpeStall, cpe_id as u64, superstep) < self.cpe_stall_rate
        {
            self.cpe_stall_cycles
        } else {
            0
        }
    }

    /// Is CPE `(row, col)` permanently offline?
    pub fn cpe_dead(&self, row: usize, col: usize) -> bool {
        self.dead_mask & (1u64 << (row * 8 + col)) != 0
    }

    /// Does chip `chip` fail during training step `step`? Pure in the
    /// seed — the same plan replays the identical failure pattern across
    /// runs and worker-pool thread counts, which is what lets the elastic
    /// trainer's reshard protocol be asserted bit-for-bit.
    pub fn chip_fails(&self, chip: usize, step: u64) -> bool {
        self.chip_fail_rate > 0.0
            && self.roll(Stream::ChipFail, chip as u64, step) < self.chip_fail_rate
    }

    /// Where in the step chip `chip` dies, as a fraction in `[0, 1)` of
    /// its assigned microbatches completed before the failure. Drawn from
    /// an independent stream so retuning the failure *rate* never moves
    /// the failure *point* of a step that fails either way.
    pub fn chip_fail_progress(&self, chip: usize, step: u64) -> f64 {
        self.roll(Stream::ChipFailPoint, chip as u64, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let p = FaultPlan::none(42)
            .with_dma_fail_rate(0.3)
            .with_msg_drop_rate(0.2);
        let q = FaultPlan::none(42)
            .with_dma_fail_rate(0.3)
            .with_msg_drop_rate(0.2);
        for id in 0..64 {
            for seq in 0..100 {
                assert_eq!(
                    p.dma_attempt_fails(id, seq, 0),
                    q.dma_attempt_fails(id, seq, 0)
                );
                assert_eq!(
                    p.msg_dropped(id, 63 - id, seq),
                    q.msg_dropped(id, 63 - id, seq)
                );
            }
        }
    }

    #[test]
    fn reseed_changes_the_pattern_but_not_the_rates() {
        let p = FaultPlan::none(1).with_dma_fail_rate(0.5);
        let q = p.reseed(2);
        assert_eq!(p.dma_fail_rate, q.dma_fail_rate);
        let differs =
            (0..200).any(|seq| p.dma_attempt_fails(0, seq, 0) != q.dma_attempt_fails(0, seq, 0));
        assert!(differs, "reseeding must change the injected pattern");
    }

    #[test]
    fn rates_are_statistically_respected() {
        let p = FaultPlan::none(7).with_dma_fail_rate(0.1);
        let n = 100_000;
        let hits = (0..n).filter(|&seq| p.dma_attempt_fails(3, seq, 0)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn streams_are_independent() {
        // Toggling the message-drop rate must not change the DMA pattern.
        let p = FaultPlan::none(11).with_dma_fail_rate(0.2);
        let q = p.with_msg_drop_rate(0.9);
        for seq in 0..500 {
            assert_eq!(
                p.dma_attempt_fails(5, seq, 0),
                q.dma_attempt_fails(5, seq, 0)
            );
        }
    }

    #[test]
    fn zero_rate_plan_injects_nothing() {
        let p = FaultPlan::none(99);
        assert!(!p.is_active());
        for seq in 0..1000 {
            assert!(!p.dma_attempt_fails(0, seq, 0));
            assert_eq!(p.dma_stall(0, seq), 0);
            assert!(!p.msg_dropped(0, 1, seq));
            assert_eq!(p.cpe_stall(0, seq), 0);
        }
    }

    #[test]
    fn chip_failures_are_deterministic_and_rate_independent_of_point() {
        let p = FaultPlan::none(3).with_chip_fail_rate(0.25);
        let q = FaultPlan::none(3).with_chip_fail_rate(0.25);
        assert!(p.is_active());
        let mut any = false;
        for chip in 0..8 {
            for step in 0..64 {
                assert_eq!(p.chip_fails(chip, step), q.chip_fails(chip, step));
                any |= p.chip_fails(chip, step);
                let prog = p.chip_fail_progress(chip, step);
                assert!((0.0..1.0).contains(&prog));
            }
        }
        assert!(any, "a 25% rate over 512 draws must hit");
        // Retuning the rate leaves the failure point of a given (chip,
        // step) untouched — independent streams.
        let r = FaultPlan::none(3).with_chip_fail_rate(0.9);
        assert_eq!(p.chip_fail_progress(2, 7), r.chip_fail_progress(2, 7));
        // Rate 0 never fails.
        let z = FaultPlan::none(3);
        assert!((0..64).all(|s| !z.chip_fails(0, s)));
    }

    #[test]
    fn dead_mask_marks_exact_cpes() {
        let p = FaultPlan::none(0).with_dead_cpe(2, 3).with_dead_cpe(7, 7);
        assert!(p.cpe_dead(2, 3));
        assert!(p.cpe_dead(7, 7));
        assert!(!p.cpe_dead(3, 2));
        assert!(p.is_active());
    }
}
