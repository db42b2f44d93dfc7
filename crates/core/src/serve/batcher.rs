//! Dynamic micro-batching with priority tiers, per-request dispatch
//! deadlines, and admission control.
//!
//! Requests for the same convolution shape are coalesced into one batch so
//! the per-batch costs (kernel launch, plan lookup, DMA ramp) amortize.
//! Two triggers release a batch, whichever fires first:
//!
//! * **cap** — `max_batch` same-shape requests are queued;
//! * **deadline** — the oldest queued request has waited `deadline_us` of
//!   simulated time (bounding the latency a quiet shape can accumulate).
//!
//! Requests carry a [`Priority`] tier and the batcher keeps one FIFO per
//! tier. Releases prefer the high tier: the batch seed (the request whose
//! shape and age drive the triggers) is the oldest *high*-priority request
//! when any is queued, and same-shape low-priority requests only fill the
//! slots high traffic leaves free. When every request is high priority
//! (the default class) this degenerates to exactly the single-FIFO
//! behavior the closed-loop serve bench gates.
//!
//! The queue is bounded, and the bound is where admission control lives:
//!
//! * a **low**-priority push at the limit is rejected with
//!   [`SwdnnError::Overloaded`] carrying the queue depth and a
//!   retry-after hint: the time until the next deadline release *in the
//!   rejected request's own tier* (a shed Low request must not be told
//!   to retry on the High tier's sooner schedule);
//! * a **high**-priority push at the limit first tries to *evict the
//!   newest low-priority request* — shedding hits the low tier first, and
//!   the evicted request is returned to the caller so it can be accounted
//!   as shed, never silently lost. Only when the queue is wall-to-wall
//!   high-priority work is the high push itself rejected.
//!
//! Requests may also carry an absolute *dispatch deadline*
//! ([`QueuedRequest::expires_us`]): [`MicroBatcher::expire`] removes
//! requests that are still queued strictly after their deadline and hands
//! them back for timeout accounting (they are never silently dropped, and
//! never folded into a batch).
//!
//! All time is the caller's logical clock (microseconds of simulated
//! time); the batcher imposes no clock of its own, which keeps the whole
//! serving engine deterministic and testable.

use crate::error::SwdnnError;
use std::collections::VecDeque;
use sw_tensor::ConvShape;

/// Request priority tier. Admission control sheds [`Priority::Low`]
/// first; batch releases seed from the high tier first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    #[default]
    High,
    Low,
}

impl Priority {
    pub fn name(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

/// When a batch is released.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Release as soon as this many same-shape requests are queued.
    pub max_batch: usize,
    /// Release once the oldest queued request has waited this long (µs of
    /// simulated time).
    pub deadline_us: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            deadline_us: 2_000,
        }
    }
}

/// One queued inference request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedRequest {
    pub id: u64,
    pub shape: ConvShape,
    /// Simulated arrival time, µs.
    pub arrival_us: u64,
    pub priority: Priority,
    /// Tenant tag for per-tenant accounting.
    pub tenant: u32,
    /// Absolute dispatch deadline: the request may be dispatched at any
    /// `now ≤ expires_us` and times out strictly after. `None` never
    /// expires.
    pub expires_us: Option<u64>,
}

impl QueuedRequest {
    /// A default-class request (high priority, tenant 0, no deadline) —
    /// the legacy closed-loop traffic shape.
    pub fn basic(id: u64, shape: ConvShape, arrival_us: u64) -> Self {
        Self {
            id,
            shape,
            arrival_us,
            priority: Priority::High,
            tenant: 0,
            expires_us: None,
        }
    }
}

/// A coalesced batch, ready for dispatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    pub shape: ConvShape,
    pub requests: Vec<QueuedRequest>,
    /// Why the batch was released (observability).
    pub trigger: BatchTrigger,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchTrigger {
    Cap,
    Deadline,
    /// Explicit flush (engine drain).
    Flush,
}

/// Priority FIFOs + coalescing + admission control.
///
/// Every operation works on the two tier queues in place: once the queues
/// have grown to their working depth, only the request vector of a
/// released batch (or of the expired / evacuated set) is allocated.
#[derive(Debug)]
pub struct MicroBatcher {
    policy: BatchPolicy,
    limit: usize,
    /// One FIFO per [`Priority`] tier, high first.
    tiers: [VecDeque<QueuedRequest>; 2],
    /// Queued requests that carry a dispatch deadline. While it is zero
    /// (all default-class traffic), [`MicroBatcher::expire`] and
    /// [`MicroBatcher::next_expiry_us`] return without scanning.
    with_expiry: usize,
}

impl MicroBatcher {
    /// A batcher releasing by `policy` with at most `queue_limit` queued
    /// requests. A zero cap or limit is clamped to 1, so every released
    /// batch holds at least one request.
    pub fn new(policy: BatchPolicy, queue_limit: usize) -> Self {
        Self {
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                ..policy
            },
            limit: queue_limit.max(1),
            tiers: [VecDeque::new(), VecDeque::new()],
            with_expiry: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.tiers.iter().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.tiers.iter().all(VecDeque::is_empty)
    }

    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    fn tier(&self, p: Priority) -> &VecDeque<QueuedRequest> {
        &self.tiers[p as usize]
    }

    /// Enqueue under admission control.
    ///
    /// * `Ok(None)` — accepted, nothing displaced.
    /// * `Ok(Some(victim))` — accepted; the newest low-priority request
    ///   was evicted to make room for a high-priority push. The caller
    ///   must account the victim as shed.
    /// * `Err(Overloaded { .. })` — rejected with the queue depth and a
    ///   retry-after hint.
    pub fn push(&mut self, req: QueuedRequest) -> Result<Option<QueuedRequest>, SwdnnError> {
        if self.len() < self.limit {
            self.enqueue(req);
            return Ok(None);
        }
        // Full queue: a high push may displace the newest low request so
        // shedding lands on the low tier first.
        if req.priority == Priority::High {
            if let Some(victim) = self.tiers[Priority::Low as usize].pop_back() {
                self.with_expiry -= usize::from(victim.expires_us.is_some());
                self.enqueue(req);
                return Ok(Some(victim));
            }
        }
        Err(SwdnnError::Overloaded {
            depth: self.len(),
            limit: self.limit,
            retry_after_us: self.retry_after_us(req.priority, req.arrival_us),
        })
    }

    fn enqueue(&mut self, req: QueuedRequest) {
        self.with_expiry += usize::from(req.expires_us.is_some());
        self.tiers[req.priority as usize].push_back(req);
    }

    /// Suggested retry delay at `now_us` for a rejected request of the
    /// given tier: the time until the *rejected tier's own* front hits
    /// its deadline release. A shed Low request must not advertise the
    /// High tier's (typically sooner) release — Low retried on a High
    /// schedule just gets shed again. When the rejected tier is empty
    /// the hint falls back to one full batching deadline; in all cases
    /// it is at least 1 µs so "retry now" is never suggested while the
    /// queue is full.
    fn retry_after_us(&self, priority: Priority, now_us: u64) -> u64 {
        self.tier(priority)
            .front()
            .map(|r| (r.arrival_us + self.policy.deadline_us).saturating_sub(now_us))
            .unwrap_or(self.policy.deadline_us)
            .max(1)
    }

    /// Remove every request whose dispatch deadline has passed (strictly:
    /// `now_us > expires_us`) and return them, oldest first within each
    /// tier (low tier first — it times out first under pressure). The
    /// caller records them as timed out; they never reach a batch.
    pub fn expire(&mut self, now_us: u64) -> Vec<QueuedRequest> {
        let mut expired = Vec::new();
        if self.with_expiry == 0 {
            return expired;
        }
        for tier in [Priority::Low, Priority::High] {
            // `retain` visits in queue order, so `expired` comes out
            // oldest first within the tier.
            self.tiers[tier as usize].retain(|r| match r.expires_us {
                Some(e) if now_us > e => {
                    expired.push(*r);
                    false
                }
                _ => true,
            });
        }
        self.with_expiry -= expired.len();
        expired
    }

    /// Release the next batch if either trigger fires at `now_us`.
    ///
    /// Tiers are consulted high-first: the seed request is the front of
    /// the highest non-empty tier whose cap or deadline trigger is ready
    /// (so ready low-priority work still releases when the high tier has
    /// nothing to do). The batch coalesces up to `max_batch` same-shape
    /// requests — high tier first, FIFO within each tier; other shapes
    /// keep their queue positions. A deadline release ships however many
    /// same-shape requests are present (possibly one).
    pub fn pop_batch(&mut self, now_us: u64) -> Option<Batch> {
        for tier in [Priority::High, Priority::Low] {
            let Some(seed) = self.tier(tier).front() else {
                continue;
            };
            let shape = seed.shape;
            let same_shape = self.count_shape(shape);
            let deadline_hit = now_us.saturating_sub(seed.arrival_us) >= self.policy.deadline_us;
            let trigger = if same_shape >= self.policy.max_batch {
                BatchTrigger::Cap
            } else if deadline_hit {
                BatchTrigger::Deadline
            } else {
                continue;
            };
            return Some(self.take_batch(shape, trigger, same_shape));
        }
        None
    }

    /// Unconditionally release the oldest request's batch (drain path),
    /// high tier first.
    pub fn flush(&mut self) -> Option<Batch> {
        let shape = self.tiers.iter().find_map(|q| q.front()).map(|r| r.shape)?;
        Some(self.take_batch(shape, BatchTrigger::Flush, self.count_shape(shape)))
    }

    /// Queued requests of `shape`, across both tiers.
    fn count_shape(&self, shape: ConvShape) -> usize {
        self.tiers
            .iter()
            .map(|q| q.iter().filter(|r| r.shape == shape).count())
            .sum()
    }

    /// Earliest batching deadline among tier fronts — when the caller's
    /// clock should next wake the batcher if no cap release happens first.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.tiers
            .iter()
            .filter_map(|q| q.front())
            .map(|r| r.arrival_us + self.policy.deadline_us)
            .min()
    }

    /// Earliest dispatch-deadline expiry among queued requests, for
    /// callers that want to fire timeouts eagerly while idle.
    pub fn next_expiry_us(&self) -> Option<u64> {
        if self.with_expiry == 0 {
            return None;
        }
        self.tiers
            .iter()
            .flat_map(|q| q.iter())
            .filter_map(|r| r.expires_us)
            .min()
    }

    /// Drain every queued request — high tier first, FIFO within each
    /// tier. This is the chip-evacuation path: when a cluster marks a
    /// chip down, its queued work is pulled out wholesale and rerouted,
    /// never silently dropped.
    pub fn take_all(&mut self) -> Vec<QueuedRequest> {
        let mut all = Vec::with_capacity(self.len());
        for tier in [Priority::High, Priority::Low] {
            all.extend(self.tiers[tier as usize].drain(..));
        }
        self.with_expiry = 0;
        all
    }

    /// Remove the first `max_batch` of the `same_shape` queued requests of
    /// `shape` — high tier first, FIFO within each tier — leaving every
    /// other request in its place.
    fn take_batch(&mut self, shape: ConvShape, trigger: BatchTrigger, same_shape: usize) -> Batch {
        let take = same_shape.min(self.policy.max_batch);
        let mut requests = Vec::with_capacity(take);
        for tier in [Priority::High, Priority::Low] {
            self.tiers[tier as usize].retain(|r| {
                let taken = r.shape == shape && requests.len() < take;
                if taken {
                    requests.push(*r);
                }
                !taken
            });
        }
        self.with_expiry -= requests.iter().filter(|r| r.expires_us.is_some()).count();
        Batch {
            shape,
            requests,
            trigger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_a() -> ConvShape {
        ConvShape::new(32, 16, 16, 8, 8, 3, 3)
    }

    fn shape_b() -> ConvShape {
        ConvShape::new(64, 16, 16, 8, 8, 3, 3)
    }

    fn req(id: u64, shape: ConvShape, at: u64) -> QueuedRequest {
        QueuedRequest::basic(id, shape, at)
    }

    fn low(id: u64, shape: ConvShape, at: u64) -> QueuedRequest {
        QueuedRequest {
            priority: Priority::Low,
            ..QueuedRequest::basic(id, shape, at)
        }
    }

    #[test]
    fn cap_releases_exactly_max_batch() {
        let mut b = MicroBatcher::new(
            BatchPolicy {
                max_batch: 3,
                deadline_us: 1_000,
            },
            64,
        );
        for i in 0..4 {
            b.push(req(i, shape_a(), 0)).unwrap();
        }
        let batch = b.pop_batch(0).expect("cap trigger");
        assert_eq!(batch.trigger, BatchTrigger::Cap);
        assert_eq!(batch.requests.len(), 3);
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "FIFO within the shape"
        );
        assert_eq!(b.len(), 1, "overflow request stays queued");
    }

    #[test]
    fn zero_cap_is_clamped_and_never_releases_an_empty_batch() {
        let mut b = MicroBatcher::new(
            BatchPolicy {
                max_batch: 0,
                deadline_us: 1_000,
            },
            64,
        );
        assert_eq!(b.policy().max_batch, 1);
        b.push(req(0, shape_a(), 0)).unwrap();
        let batch = b.pop_batch(0).expect("a cap of 1 fires at once");
        assert_eq!(batch.trigger, BatchTrigger::Cap);
        assert_eq!(batch.requests.len(), 1);
        assert!(b.is_empty());
        assert_eq!(b.pop_batch(0), None, "nothing queued, nothing released");
    }

    #[test]
    fn deadline_releases_a_partial_batch() {
        let mut b = MicroBatcher::new(
            BatchPolicy {
                max_batch: 8,
                deadline_us: 500,
            },
            64,
        );
        b.push(req(1, shape_a(), 100)).unwrap();
        assert!(b.pop_batch(100).is_none(), "neither trigger at arrival");
        assert!(b.pop_batch(599).is_none(), "1µs before the deadline");
        let batch = b.pop_batch(600).expect("deadline trigger");
        assert_eq!(batch.trigger, BatchTrigger::Deadline);
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(b.next_deadline_us(), None);
    }

    #[test]
    fn mixed_shapes_keep_fifo_order() {
        let mut b = MicroBatcher::new(
            BatchPolicy {
                max_batch: 2,
                deadline_us: 1_000,
            },
            64,
        );
        b.push(req(1, shape_a(), 0)).unwrap();
        b.push(req(2, shape_b(), 0)).unwrap();
        b.push(req(3, shape_a(), 0)).unwrap();
        let batch = b.pop_batch(0).expect("shape A hits the cap");
        assert_eq!(batch.shape, shape_a());
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 3]
        );
        // Shape B is now the oldest and releases on its deadline.
        let batch = b.pop_batch(1_000).expect("deadline for B");
        assert_eq!(batch.shape, shape_b());
        assert!(b.is_empty());
    }

    #[test]
    fn bounded_queue_rejects_with_structured_overloaded() {
        let mut b = MicroBatcher::new(BatchPolicy::default(), 2);
        b.push(req(1, shape_a(), 0)).unwrap();
        b.push(req(2, shape_a(), 0)).unwrap();
        let err = b.push(req(3, shape_a(), 100)).unwrap_err();
        match err {
            SwdnnError::Overloaded {
                depth,
                limit,
                retry_after_us,
            } => {
                assert_eq!((depth, limit), (2, 2));
                // Oldest arrived at 0, batch deadline 2000, now 100.
                assert_eq!(retry_after_us, 1_900);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        // Draining makes room again.
        b.flush().unwrap();
        b.push(req(3, shape_a(), 0)).unwrap();
    }

    #[test]
    fn retry_hint_tracks_the_rejected_tier_not_the_global_front() {
        // Queue of 2: a High request at t=0 and a Low request at t=500.
        let mut b = MicroBatcher::new(BatchPolicy::default(), 2);
        b.push(req(1, shape_a(), 0)).unwrap();
        b.push(low(2, shape_a(), 500)).unwrap();
        // A shed Low request backs off to the *Low* front's release
        // (500 + 2000 − 600), not the High front's sooner 0 + 2000.
        match b.push(low(3, shape_a(), 600)).unwrap_err() {
            SwdnnError::Overloaded { retry_after_us, .. } => {
                assert_eq!(retry_after_us, 1_900);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        // With no Low work queued at all, a shed Low request gets the
        // default one-deadline hint instead of High-tier timing.
        let mut b = MicroBatcher::new(BatchPolicy::default(), 2);
        b.push(req(1, shape_a(), 0)).unwrap();
        b.push(req(2, shape_a(), 0)).unwrap();
        match b.push(low(3, shape_a(), 100)).unwrap_err() {
            SwdnnError::Overloaded { retry_after_us, .. } => {
                assert_eq!(
                    retry_after_us,
                    BatchPolicy::default().deadline_us,
                    "empty low tier falls back to one full deadline"
                );
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn take_all_drains_high_first_fifo_within_tier() {
        let mut b = MicroBatcher::new(BatchPolicy::default(), 64);
        b.push(low(1, shape_a(), 0)).unwrap();
        b.push(req(2, shape_b(), 1)).unwrap();
        b.push(req(3, shape_a(), 2)).unwrap();
        b.push(low(4, shape_b(), 3)).unwrap();
        let all = b.take_all();
        assert_eq!(
            all.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![2, 3, 1, 4]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn high_push_evicts_the_newest_low_request_first() {
        let mut b = MicroBatcher::new(BatchPolicy::default(), 3);
        b.push(low(1, shape_a(), 0)).unwrap();
        b.push(req(2, shape_a(), 0)).unwrap();
        b.push(low(3, shape_a(), 10)).unwrap();
        // Queue full. A low push is rejected outright…
        assert!(matches!(
            b.push(low(4, shape_a(), 20)),
            Err(SwdnnError::Overloaded { .. })
        ));
        // …a high push displaces the newest low request.
        let victim = b
            .push(req(5, shape_a(), 20))
            .unwrap()
            .expect("eviction victim");
        assert_eq!(victim.id, 3, "newest low request is shed first");
        assert_eq!(b.len(), 3);
        // A fully high-priority queue rejects even high pushes.
        let victim = b
            .push(req(6, shape_a(), 30))
            .unwrap()
            .expect("one low left");
        assert_eq!(victim.id, 1);
        assert!(matches!(
            b.push(req(7, shape_a(), 40)),
            Err(SwdnnError::Overloaded { .. })
        ));
    }

    #[test]
    fn batches_fill_high_tier_first() {
        let mut b = MicroBatcher::new(
            BatchPolicy {
                max_batch: 3,
                deadline_us: 1_000,
            },
            64,
        );
        b.push(low(1, shape_a(), 0)).unwrap();
        b.push(low(2, shape_a(), 0)).unwrap();
        b.push(req(3, shape_a(), 5)).unwrap();
        let batch = b.pop_batch(5).expect("cap across tiers");
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![3, 1, 2],
            "high request leads, low requests fill"
        );
    }

    #[test]
    fn ready_low_work_releases_when_high_tier_is_quiet() {
        let mut b = MicroBatcher::new(
            BatchPolicy {
                max_batch: 8,
                deadline_us: 500,
            },
            64,
        );
        b.push(low(1, shape_a(), 0)).unwrap();
        b.push(req(2, shape_b(), 400)).unwrap();
        // At t=500 the low request's deadline fired; the younger high
        // request has no trigger yet and must not starve the release.
        let batch = b.pop_batch(500).expect("low deadline release");
        assert_eq!(batch.shape, shape_a());
        assert_eq!(batch.requests[0].id, 1);
    }

    #[test]
    fn expire_removes_only_overdue_requests() {
        let mut b = MicroBatcher::new(BatchPolicy::default(), 64);
        b.push(QueuedRequest {
            expires_us: Some(100),
            ..low(1, shape_a(), 0)
        })
        .unwrap();
        b.push(QueuedRequest {
            expires_us: Some(500),
            ..req(2, shape_a(), 0)
        })
        .unwrap();
        b.push(req(3, shape_a(), 0)).unwrap();
        assert!(
            b.expire(100).is_empty(),
            "deadline instant still dispatchable"
        );
        let expired = b.expire(101);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.next_expiry_us(), Some(500));
        let expired = b.expire(10_000);
        assert_eq!(expired.len(), 1, "the deadline-free request never expires");
        assert_eq!(expired[0].id, 2);
    }

    /// The rebuild-based `expire`, `take_batch` and `next_expiry_us` the
    /// in-place versions replaced, kept as the oracle they are checked
    /// against. They touch only the tier queues.
    mod rebuild {
        use super::*;

        pub fn expire(b: &mut MicroBatcher, now_us: u64) -> Vec<QueuedRequest> {
            let mut expired = Vec::new();
            for tier in [Priority::Low, Priority::High] {
                let q = &mut b.tiers[tier as usize];
                let mut keep = VecDeque::with_capacity(q.len());
                for r in q.drain(..) {
                    match r.expires_us {
                        Some(e) if now_us > e => expired.push(r),
                        _ => keep.push_back(r),
                    }
                }
                b.tiers[tier as usize] = keep;
            }
            expired
        }

        fn take_batch(b: &mut MicroBatcher, shape: ConvShape, trigger: BatchTrigger) -> Batch {
            let mut requests = Vec::new();
            for tier in [Priority::High, Priority::Low] {
                let q = &mut b.tiers[tier as usize];
                let mut rest = VecDeque::with_capacity(q.len());
                for r in q.drain(..) {
                    if r.shape == shape && requests.len() < b.policy.max_batch {
                        requests.push(r);
                    } else {
                        rest.push_back(r);
                    }
                }
                b.tiers[tier as usize] = rest;
            }
            Batch {
                shape,
                requests,
                trigger,
            }
        }

        pub fn pop_batch(b: &mut MicroBatcher, now_us: u64) -> Option<Batch> {
            for tier in [Priority::High, Priority::Low] {
                let Some(seed) = b.tier(tier).front() else {
                    continue;
                };
                let shape = seed.shape;
                let same_shape: usize = b
                    .tiers
                    .iter()
                    .map(|q| q.iter().filter(|r| r.shape == shape).count())
                    .sum();
                let deadline_hit = now_us.saturating_sub(seed.arrival_us) >= b.policy.deadline_us;
                let trigger = if same_shape >= b.policy.max_batch {
                    BatchTrigger::Cap
                } else if deadline_hit {
                    BatchTrigger::Deadline
                } else {
                    continue;
                };
                return Some(take_batch(b, shape, trigger));
            }
            None
        }

        pub fn flush(b: &mut MicroBatcher) -> Option<Batch> {
            let shape = b.tiers.iter().find_map(|q| q.front()).map(|r| r.shape)?;
            Some(take_batch(b, shape, BatchTrigger::Flush))
        }

        pub fn next_expiry_us(b: &MicroBatcher) -> Option<u64> {
            b.tiers
                .iter()
                .flat_map(|q| q.iter())
                .filter_map(|r| r.expires_us)
                .min()
        }
    }

    #[test]
    fn in_place_batcher_matches_the_rebuild_oracle() {
        let shapes = [shape_a(), shape_b(), ConvShape::new(16, 16, 16, 8, 8, 3, 3)];
        for seed in 0..64u64 {
            let mut state = seed;
            let mut draw = |n: u64| {
                state = sw_sim::fault::splitmix64(state);
                state % n
            };
            let policy = BatchPolicy {
                max_batch: 1 + draw(6) as usize,
                deadline_us: 1 + draw(400),
            };
            let limit = 1 + draw(16) as usize;
            let mut fast = MicroBatcher::new(policy, limit);
            let mut oracle = MicroBatcher::new(policy, limit);
            let (mut now, mut id) = (0u64, 0u64);
            for step in 0..400 {
                now += draw(60);
                match draw(10) {
                    0..=4 => {
                        let req = QueuedRequest {
                            priority: if draw(3) == 0 {
                                Priority::Low
                            } else {
                                Priority::High
                            },
                            tenant: draw(3) as u32,
                            expires_us: (draw(2) == 0).then(|| now + draw(300)),
                            ..QueuedRequest::basic(id, shapes[draw(3) as usize], now)
                        };
                        id += 1;
                        // `push` itself is shared; its result must agree.
                        let got = fast.push(req).map_err(|e| e.to_string());
                        assert_eq!(got, oracle.push(req).map_err(|e| e.to_string()));
                    }
                    5 | 6 => assert_eq!(
                        fast.expire(now),
                        rebuild::expire(&mut oracle, now),
                        "seed {seed} step {step}: expire"
                    ),
                    7 => assert_eq!(
                        fast.pop_batch(now),
                        rebuild::pop_batch(&mut oracle, now),
                        "seed {seed} step {step}: pop_batch"
                    ),
                    8 => assert_eq!(fast.flush(), rebuild::flush(&mut oracle)),
                    _ if draw(8) == 0 => assert_eq!(fast.take_all(), oracle.take_all()),
                    _ => {}
                }
                assert_eq!(fast.tiers, oracle.tiers, "seed {seed} step {step}: queues");
                assert_eq!(fast.next_expiry_us(), rebuild::next_expiry_us(&oracle));
                assert_eq!(fast.next_deadline_us(), oracle.next_deadline_us());
            }
        }
    }

    #[test]
    fn flush_drains_regardless_of_triggers() {
        let mut b = MicroBatcher::new(
            BatchPolicy {
                max_batch: 100,
                deadline_us: u64::MAX,
            },
            64,
        );
        b.push(req(1, shape_a(), 0)).unwrap();
        assert!(b.pop_batch(u64::MAX - 1).is_none());
        let batch = b.flush().expect("flush always releases");
        assert_eq!(batch.trigger, BatchTrigger::Flush);
        assert!(b.flush().is_none());
    }
}
