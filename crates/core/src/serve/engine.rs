//! The closed-loop serving engine: submit → queue → batch → sharded
//! dispatch → completion accounting, all under one deterministic logical
//! clock of simulated microseconds.
//!
//! Per-request latency is `completion − arrival` in simulated time; queue
//! depth, batch fill, rejections, and cache hit-rate feed the
//! observability layer as counters, and every dispatched batch emits a
//! Chrome-trace span (category `"serve"`) when tracing is enabled.
//!
//! ## Fault-aware dispatch
//!
//! With a [`ChaosConfig`] the engine serves *through* injected hardware
//! faults instead of assuming a clean chip:
//!
//! * every accounted batch samples the seeded [`sw_sim::FaultPlan`]
//!   decision streams per CG ([`super::dispatch::sample_slice_faults`]),
//!   charging DMA backoff/stall cycles into the batch's wall time;
//! * per-CG circuit breakers ([`super::health::HealthBoard`]) trip failing
//!   CGs into cooldown; the batch is re-dispatched (reseeded, its wasted
//!   wall time charged) on whatever subset of CGs stays healthy, at the
//!   widest row split that still divides the shape
//!   ([`super::dispatch::effective_cgs`]);
//! * when no CG is routable (or the re-dispatch budget is spent) the batch
//!   walks the `resilient.rs` fallback chain: the degraded 4×4 mesh, then
//!   the host reference — which touches no mesh and never fails, so an
//!   admitted request always completes ([`ServePath`] records which path
//!   served it);
//! * requests carry a [`Priority`] tier, tenant tag, and optional dispatch
//!   deadline; admission control and deadline timeouts hit low-priority
//!   traffic first, and every shed/evicted/timed-out request is recorded
//!   in a [`DropRecord`] — accounted separately from completion latency,
//!   never silently lost.
//!
//! Fault sampling, routing, and breaker transitions are pure functions of
//! the fault seed, the batch sequence number, and the logical clock, so a
//! chaos run replays number-for-number at any worker-pool thread count.

use super::batcher::{Batch, BatchPolicy, MicroBatcher, Priority, QueuedRequest};
use super::dispatch::{effective_cgs, sample_slice_faults, BatchTiming, ShardedDispatcher};
use super::health::{BreakerPolicy, CgHealthStats, CgSet, HealthBoard};
use super::plan_cache::{CacheStats, PlanCache};
use crate::error::SwdnnError;
use crate::plans::{ConvPlan, ReferencePlan};
use crate::resilient::{reseeded, ResilientExecutor};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use sw_obs::{Counter, Histogram, Recorder, TagCounters};
use sw_perfmodel::ChipSpec;
use sw_sim::chip::LAUNCH_OVERHEAD_CYCLES;
use sw_sim::FaultPlan;
use sw_tensor::ConvShape;

/// Fault-injection configuration for the serving path.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seeded fault rates injected into every CG's accounted dispatch.
    pub fault: FaultPlan,
    /// The CG that owns `fault.dead_mask`: dead CPEs are a per-CG failure
    /// in serving (the other CGs keep their meshes), so the mask is pinned
    /// to one core group instead of killing all four.
    pub dead_cg: usize,
    /// Per-CG circuit-breaker tuning.
    pub breaker: BreakerPolicy,
    /// Whole-batch re-dispatches (reseeded, wasted time charged) after a
    /// slice failure before the batch takes the fallback chain.
    pub dispatch_retries: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            fault: FaultPlan::none(0),
            dead_cg: 0,
            breaker: BreakerPolicy::default(),
            dispatch_retries: 2,
        }
    }
}

impl ChaosConfig {
    /// A chaos engine over `cgs` core groups needs its breakers to fit a
    /// [`CgSet`] and its dead CPEs pinned to a CG that exists: with
    /// `dead_cg` outside the shard width every CG would clear the mask,
    /// and the dead CPE would silently vanish.
    fn check(&self, cgs: usize) -> Result<(), SwdnnError> {
        if cgs > CgSet::CAPACITY {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("at most {} core groups under chaos", CgSet::CAPACITY),
                got: format!("{cgs} core groups"),
            });
        }
        if self.fault.dead_mask != 0 && self.dead_cg >= cgs {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("a dead_cg below {cgs} core groups"),
                got: format!("dead_cg = {}", self.dead_cg),
            });
        }
        Ok(())
    }
}

/// Engine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    pub chip: ChipSpec,
    /// Core groups each batch shards across.
    pub cgs: usize,
    pub policy: BatchPolicy,
    /// Bounded queue depth; submissions beyond it are rejected with
    /// [`SwdnnError::Overloaded`].
    pub queue_limit: usize,
    /// Record Chrome-trace spans per dispatched batch.
    pub trace: bool,
    /// Fault injection + breaker policy; `None` serves on a clean chip
    /// with byte-identical behavior to the pre-chaos engine.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let chip = ChipSpec::sw26010();
        Self {
            chip,
            cgs: chip.core_groups,
            policy: BatchPolicy::default(),
            queue_limit: 64,
            trace: false,
            chaos: None,
        }
    }
}

/// Per-request class: priority tier, tenant tag, and optional dispatch
/// deadline relative to arrival. The default (high priority, tenant 0, no
/// deadline) is the legacy closed-loop traffic class.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestClass {
    pub priority: Priority,
    pub tenant: u32,
    /// Must be dispatched within this many logical µs of arrival; `None`
    /// never times out.
    pub deadline_us: Option<u64>,
}

/// Which execution path served a completed request's batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServePath {
    /// Row-sharded across `cgs` healthy core groups (the normal path; a
    /// value below the configured width means the batch was rerouted
    /// around tripped CGs).
    Sharded { cgs: usize },
    /// All CGs unavailable: re-planned on the degraded 4×4 mesh.
    Degraded,
    /// Even the degraded mesh failed: host-reference execution on the MPE
    /// (never fails).
    HostReference,
}

impl ServePath {
    pub fn name(&self) -> &'static str {
        match self {
            ServePath::Sharded { .. } => "sharded",
            ServePath::Degraded => "degraded",
            ServePath::HostReference => "host_reference",
        }
    }
}

/// One finished request: only what its readers use (48 bytes, pinned by
/// a test, so a new field is a deliberate choice).
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    pub id: u64,
    pub arrival_us: u64,
    pub completion_us: u64,
    pub priority: Priority,
    pub tenant: u32,
    pub path: ServePath,
}

impl Completion {
    pub fn latency_us(&self) -> u64 {
        self.completion_us - self.arrival_us
    }
}

/// Why a request was dropped instead of served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropKind {
    /// Rejected at admission with [`SwdnnError::Overloaded`] (the caller
    /// got the structured error; the engine records the event).
    ShedAtAdmission,
    /// Accepted earlier, then displaced by a higher-priority admission.
    Evicted,
    /// Still queued strictly past its dispatch deadline.
    DeadlineExceeded,
}

impl DropKind {
    const ALL: [DropKind; 3] = [
        DropKind::ShedAtAdmission,
        DropKind::Evicted,
        DropKind::DeadlineExceeded,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            DropKind::ShedAtAdmission => "shed",
            DropKind::Evicted => "evicted",
            DropKind::DeadlineExceeded => "timed_out",
        }
    }
}

/// One tenant's registered tag handles: `tenant/N/served` and one
/// `tenant/N/<kind>` per [`DropKind`], in [`DropKind::ALL`] order.
#[derive(Debug)]
struct TenantTags {
    served: Arc<Counter>,
    dropped: [Arc<Counter>; 3],
}

impl TenantTags {
    fn register(tags: &TagCounters, tenant: u32) -> Self {
        Self {
            served: tags.register(&format!("tenant/{tenant}/served")),
            dropped: DropKind::ALL.map(|k| tags.register(&format!("tenant/{tenant}/{}", k.name()))),
        }
    }
}

/// One CG's registered breaker tags: `cg/N/success`, `cg/N/failure`
/// and `cg/N/trip`.
#[derive(Debug)]
struct CgTags {
    success: Arc<Counter>,
    failure: Arc<Counter>,
    trip: Arc<Counter>,
}

impl CgTags {
    fn register(tags: &TagCounters, cg: usize) -> Self {
        let tag = |metric: &str| tags.register(&format!("cg/{cg}/{metric}"));
        Self {
            success: tag("success"),
            failure: tag("failure"),
            trip: tag("trip"),
        }
    }
}

/// One dropped request (40 bytes, pinned by a test). Drop waits fill
/// their own histogram ([`ServeSummary::shed_p99_wait_us`]): they are
/// *never* folded into — or silently omitted from — the completed-request
/// latency percentiles.
#[derive(Clone, Copy, Debug)]
pub struct DropRecord {
    /// `None` for admission-time sheds (no id was ever assigned).
    pub id: Option<u64>,
    pub priority: Priority,
    pub tenant: u32,
    pub arrival_us: u64,
    pub drop_us: u64,
    pub kind: DropKind,
}

impl DropRecord {
    /// How long the request waited before being dropped.
    fn waited_us(&self) -> u64 {
        self.drop_us - self.arrival_us
    }
}

/// Monotonic serving counters (all relaxed-atomic, snapshot-safe at any
/// quiescent point).
#[derive(Debug, Default)]
pub struct ServeCounters {
    pub submitted: Counter,
    pub rejected: Counter,
    pub served: Counter,
    pub batches: Counter,
    /// Sum of batch fills; fill ratio = batch_fill_sum / (batches · cap).
    pub batch_fill_sum: Counter,
    /// Busy chip time accumulated over dispatched batches, µs.
    pub busy_us: Counter,
    /// Busy chip time in simulated cycles.
    pub busy_cycles: Counter,
    /// Total flops dispatched.
    pub flops: Counter,
    /// Low-priority requests displaced by high-priority admissions.
    pub evicted: Counter,
    /// Requests dropped past their dispatch deadline.
    pub timed_out: Counter,
    /// Per-CG slice failures observed during chaos dispatch.
    pub cg_failures: Counter,
    /// Whole-batch re-dispatches after a slice failure.
    pub redispatches: Counter,
    /// Batches served on the degraded 4×4 mesh.
    pub degraded_batches: Counter,
    /// Batches served by the host reference.
    pub host_batches: Counter,
    /// Cycles charged for fault backoff/stalls and wasted dispatches.
    pub fault_extra_cycles: Counter,
    /// Sampled DMA re-issues that eventually succeeded.
    pub fault_dma_retries: Counter,
}

/// End-of-run summary for benches and snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    pub served: u64,
    pub rejected: u64,
    pub batches: u64,
    /// Mean batch fill as a fraction of the cap.
    pub batch_fill: f64,
    /// Exact nearest-rank p50 of completion latency.
    pub p50_latency_us: u64,
    /// Exact nearest-rank p99 of completion latency.
    pub p99_latency_us: u64,
    /// Chip-level Gflops over busy time.
    pub gflops_chip: f64,
    pub plan_cache_hit_rate: f64,
    pub evicted: u64,
    pub timed_out: u64,
    /// Exact nearest-rank p99 over *high-priority* completions only (the
    /// chaos SLO metric).
    pub high_p99_latency_us: u64,
    /// Exact nearest-rank p99 queue wait of dropped requests — a separate
    /// histogram from the completion percentiles above.
    pub shed_p99_wait_us: u64,
    pub breaker_trips: u64,
    pub degraded_batches: u64,
    pub host_batches: u64,
}

/// The deterministic batch-serving engine.
pub struct ServeEngine {
    config: ServeConfig,
    dispatcher: ShardedDispatcher,
    batcher: MicroBatcher,
    cache: PlanCache,
    recorder: Recorder,
    /// Per-CG breakers (present iff `config.chaos` is).
    health: Option<HealthBoard>,
    /// Logical clock, µs of simulated time.
    clock_us: u64,
    next_id: u64,
    /// Monotonic dispatch sequence — the fault-sampling key.
    batch_seq: u64,
    pub counters: ServeCounters,
    /// Per-tenant / per-CG keyed counters.
    pub tags: TagCounters,
    /// Handles into `tags` per tenant, registered on a tenant's first
    /// submission.
    tenant_tags: BTreeMap<u32, TenantTags>,
    /// Handles into `tags` per CG, registered up front under chaos
    /// (empty otherwise).
    cg_tags: Vec<CgTags>,
    completions: Vec<Completion>,
    drops: Vec<DropRecord>,
}

impl ServeEngine {
    /// An idle engine. [`SwdnnError::ShapeMismatch`] for a shard width
    /// outside the chip, a zero batch cap (its batches would hold no
    /// request, and `run_until` and `drain` would spin on them), or a
    /// chaos configuration that fails its check.
    pub fn new(config: ServeConfig) -> Result<Self, SwdnnError> {
        let dispatcher = ShardedDispatcher::new(config.chip, config.cgs)?;
        if config.policy.max_batch == 0 {
            return Err(SwdnnError::ShapeMismatch {
                expected: "a batch cap of at least 1".into(),
                got: "max_batch = 0".into(),
            });
        }
        let tags = TagCounters::new();
        let mut cg_tags = Vec::new();
        if let Some(chaos) = config.chaos {
            chaos.check(config.cgs)?;
            cg_tags = (0..config.cgs)
                .map(|cg| CgTags::register(&tags, cg))
                .collect();
        }
        Ok(Self {
            dispatcher,
            batcher: MicroBatcher::new(config.policy, config.queue_limit),
            cache: PlanCache::new(),
            recorder: if config.trace {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            },
            health: config
                .chaos
                .map(|c| HealthBoard::new(config.cgs, c.breaker)),
            config,
            clock_us: 0,
            next_id: 0,
            batch_seq: 0,
            counters: ServeCounters::default(),
            tags,
            tenant_tags: BTreeMap::new(),
            cg_tags,
            completions: Vec::new(),
            drops: Vec::new(),
        })
    }

    /// Run every dispatched batch (and the warmup simulations behind the
    /// plan cache) on an explicit [`sw_runtime::ExecutionContext`] instead
    /// of the process-wide pool.
    pub fn on_runtime(mut self, rt: &'static sw_runtime::ExecutionContext) -> Self {
        self.dispatcher = self.dispatcher.on_runtime(rt);
        self
    }

    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    pub fn queue_depth(&self) -> usize {
        self.batcher.len()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Advance the logical clock (idle time between arrivals).
    pub fn advance_us(&mut self, us: u64) {
        self.clock_us += us;
    }

    /// Submit one default-class request (high priority, tenant 0, no
    /// deadline) at the current clock. Returns its id, or
    /// [`SwdnnError::Overloaded`] when the bounded queue is full — the
    /// request is dropped, nothing grows.
    pub fn submit(&mut self, shape: ConvShape) -> Result<u64, SwdnnError> {
        self.submit_with(shape, RequestClass::default())
    }

    /// [`ServeEngine::submit`] with an explicit [`RequestClass`]. A
    /// high-priority submission into a full queue evicts the newest
    /// low-priority request (recorded as `DropKind::Evicted`) before it
    /// is itself rejected; a rejected request is recorded as
    /// `DropKind::ShedAtAdmission` and the returned
    /// [`SwdnnError::Overloaded`] carries the queue depth and retry-after
    /// hint.
    pub fn submit_with(
        &mut self,
        shape: ConvShape,
        class: RequestClass,
    ) -> Result<u64, SwdnnError> {
        self.counters.submitted.inc();
        if !self.tenant_tags.contains_key(&class.tenant) {
            let tags = TenantTags::register(&self.tags, class.tenant);
            self.tenant_tags.insert(class.tenant, tags);
        }
        let id = self.next_id;
        let req = QueuedRequest {
            id,
            shape,
            arrival_us: self.clock_us,
            priority: class.priority,
            tenant: class.tenant,
            expires_us: class.deadline_us.map(|d| self.clock_us + d),
        };
        match self.batcher.push(req) {
            Ok(victim) => {
                self.next_id += 1;
                if let Some(v) = victim {
                    self.drop_request(v, DropKind::Evicted);
                }
                Ok(id)
            }
            Err(e) => {
                self.drop_request(req, DropKind::ShedAtAdmission);
                Err(e)
            }
        }
    }

    /// Submit with an explicit arrival time at or after the current
    /// clock — the cluster front door uses this to charge ingress link
    /// time: a request leaves the router at `t` and lands on this chip
    /// at `t + transfer_us`. The engine first advances to `arrival_us`
    /// (dispatching anything due on the way, exactly like
    /// [`ServeEngine::run_until`]) so the queue state the request meets
    /// is the state at its true arrival instant. An `arrival_us` in the
    /// past submits at the current clock.
    pub fn submit_arriving(
        &mut self,
        shape: ConvShape,
        class: RequestClass,
        arrival_us: u64,
    ) -> Result<u64, SwdnnError> {
        if arrival_us > self.clock_us {
            self.run_until(arrival_us)?;
        }
        self.submit_with(shape, class)
    }

    /// Pull every queued (not-yet-dispatched) request out of the batcher
    /// — the cluster's chip-failure path. The returned requests keep
    /// their ids, priorities, and arrival times; the caller owns
    /// rerouting them, so nothing is recorded as dropped here. In-flight
    /// completions and counters are untouched.
    pub fn evacuate(&mut self) -> Vec<QueuedRequest> {
        self.batcher.take_all()
    }

    fn drop_request(&mut self, req: QueuedRequest, kind: DropKind) {
        match kind {
            DropKind::ShedAtAdmission => self.counters.rejected.inc(),
            DropKind::Evicted => self.counters.evicted.inc(),
            DropKind::DeadlineExceeded => self.counters.timed_out.inc(),
        }
        // Every request passed `submit_with`, which registered its tenant.
        self.tenant_tags[&req.tenant].dropped[kind as usize].inc();
        self.drops.push(DropRecord {
            // A shed request never got its id assigned.
            id: (kind != DropKind::ShedAtAdmission).then_some(req.id),
            priority: req.priority,
            tenant: req.tenant,
            arrival_us: req.arrival_us,
            drop_us: self.clock_us,
            kind,
        });
    }

    /// Fire deadline timeouts for requests still queued past their
    /// dispatch deadline at the current clock.
    fn fire_expiries(&mut self) {
        for req in self.batcher.expire(self.clock_us) {
            self.drop_request(req, DropKind::DeadlineExceeded);
        }
    }

    /// Dispatch at most one batch if a trigger fires at the current clock.
    /// Returns the number of requests served (0 = nothing ready).
    pub fn poll(&mut self) -> Result<usize, SwdnnError> {
        self.fire_expiries();
        let Some(batch) = self.batcher.pop_batch(self.clock_us) else {
            return Ok(0);
        };
        self.execute(batch)
    }

    /// Run the queue dry: fire deadline releases by jumping the clock to
    /// the next deadline whenever no trigger is ready, then flush leftovers.
    pub fn drain(&mut self) -> Result<usize, SwdnnError> {
        let mut served = 0;
        loop {
            self.fire_expiries();
            if self.batcher.is_empty() {
                break;
            }
            served += match self.batcher.pop_batch(self.clock_us) {
                Some(batch) => self.execute(batch)?,
                None => match self.batcher.next_deadline_us() {
                    Some(deadline) if deadline > self.clock_us => {
                        self.clock_us = deadline;
                        0
                    }
                    _ => match self.batcher.flush() {
                        Some(batch) => self.execute(batch)?,
                        None => 0,
                    },
                },
            };
        }
        Ok(served)
    }

    /// Advance the logical clock to `target_us`, dispatching every batch
    /// whose trigger fires on the way and firing deadline timeouts as they
    /// come due — the open-loop driver's "let simulated time pass" step.
    /// Work in flight when the target is reached still completes (the
    /// clock ends at `max(target, last dispatch end)`); queued work whose
    /// trigger hasn't fired stays queued.
    pub fn run_until(&mut self, target_us: u64) -> Result<usize, SwdnnError> {
        let mut served = 0;
        loop {
            self.fire_expiries();
            if let Some(batch) = self.batcher.pop_batch(self.clock_us) {
                served += self.execute(batch)?;
                continue;
            }
            let next_event = [
                self.batcher.next_deadline_us(),
                // A request expires strictly *after* its deadline instant.
                self.batcher.next_expiry_us().map(|e| e + 1),
            ]
            .into_iter()
            .flatten()
            .filter(|&t| t > self.clock_us)
            .min();
            match next_event {
                Some(t) if t <= target_us => self.clock_us = t,
                _ => break,
            }
        }
        if self.clock_us < target_us {
            self.clock_us = target_us;
        }
        Ok(served)
    }

    fn execute(&mut self, batch: Batch) -> Result<usize, SwdnnError> {
        let n = batch.requests.len();
        let seq = self.batch_seq;
        self.batch_seq += 1;
        let (timing, path) = match self.config.chaos {
            Some(chaos) => self.account_chaos_batch(&batch, seq, &chaos)?,
            None => {
                let (cgs, chip) = (self.config.cgs, self.config.chip);
                let (timing, _) =
                    self.dispatcher
                        .time_batch(&self.cache, &batch.shape, n, cgs, chip)?;
                (timing, ServePath::Sharded { cgs })
            }
        };
        let start_us = self.clock_us;
        self.clock_us += timing.wall_us;
        self.counters.batches.inc();
        self.counters.batch_fill_sum.add(n as u64);
        self.counters.served.add(n as u64);
        self.counters.busy_us.add(timing.wall_us);
        self.counters.busy_cycles.add(timing.wall_cycles);
        self.counters.flops.add(timing.total_flops);
        match path {
            ServePath::Degraded => self.counters.degraded_batches.inc(),
            ServePath::HostReference => self.counters.host_batches.inc(),
            ServePath::Sharded { .. } => {}
        }
        for r in &batch.requests {
            self.tenant_tags[&r.tenant].served.inc();
            self.completions.push(Completion {
                id: r.id,
                arrival_us: r.arrival_us,
                completion_us: self.clock_us,
                priority: r.priority,
                tenant: r.tenant,
                path,
            });
        }
        if self.recorder.is_enabled() {
            self.recorder.span_cat(
                &format!("batch {}", batch.shape),
                "serve",
                0,
                0,
                start_us as f64,
                timing.wall_us as f64,
                vec![
                    ("requests".into(), Value::from(n as u64)),
                    (
                        "trigger".into(),
                        Value::from(format!("{:?}", batch.trigger)),
                    ),
                    ("queue_depth".into(), Value::from(self.batcher.len() as u64)),
                    ("wall_cycles".into(), Value::from(timing.wall_cycles)),
                    ("path".into(), Value::from(path.name())),
                ],
            );
        }
        Ok(n)
    }

    /// The per-CG fault plan: the shared rates, with `dead_mask` pinned to
    /// the configured CG and the seed re-derived per re-dispatch round
    /// (replaying the identical seed would reproduce the failure).
    fn cg_fault(chaos: &ChaosConfig, cg: usize, round: u32) -> FaultPlan {
        let mut f = chaos.fault;
        if cg != chaos.dead_cg {
            f.dead_mask = 0;
        }
        reseeded(f, round)
    }

    /// Account one batch under fault injection: route on the health board,
    /// sample per-CG fault outcomes, charge backoff/stall cycles, trip and
    /// probe breakers, re-dispatch on failure, and fall back to the
    /// degraded mesh / host reference when the mesh path is exhausted.
    fn account_chaos_batch(
        &mut self,
        batch: &Batch,
        seq: u64,
        chaos: &ChaosConfig,
    ) -> Result<(BatchTiming, ServePath), SwdnnError> {
        let n = batch.requests.len();
        // Cycles charged for dispatch attempts that failed and were thrown
        // away — the retry tax, exactly like PR 1's executor retries.
        let mut wasted_cycles: u64 = 0;
        let mut round: u32 = 0;
        loop {
            let health = self.health.as_mut().expect("chaos implies a health board");
            let route = health.route(self.clock_us);
            let k = effective_cgs(&batch.shape, route.cgs.len());
            if k == 0 {
                break; // every breaker open → fallback chain
            }
            let active = route.cgs.first(k);
            // Probes excluded by the row split must be re-admittable.
            health.cancel_probes(route.probes.without(active));

            let (timing, cached) =
                self.dispatcher
                    .time_batch(&self.cache, &batch.shape, n, k, self.config.chip)?;
            let transfers = cached.timing.stats.totals.dma_requests.max(1) * n as u64;

            // Slices run concurrently: wall time extends by the slowest.
            let mut extra_max = 0u64;
            let mut failed = CgSet::default();
            for cg in active.iter() {
                let fault = Self::cg_fault(chaos, cg, round);
                let out = sample_slice_faults(&fault, cg, seq, transfers);
                extra_max = extra_max.max(out.extra_cycles);
                self.counters.fault_dma_retries.add(out.dma_retries);
                if out.failed() {
                    failed.insert(cg);
                }
            }
            for cg in active.iter() {
                let ok = !failed.contains(cg);
                let tripped = self.health.as_mut().unwrap().record(cg, ok, self.clock_us);
                let tags = &self.cg_tags[cg];
                if ok {
                    tags.success.inc();
                } else {
                    tags.failure.inc();
                    self.counters.cg_failures.inc();
                }
                if tripped {
                    tags.trip.inc();
                }
                if !self.recorder.is_enabled() {
                    continue;
                }
                if tripped {
                    self.recorder.instant(
                        "breaker_open",
                        "health",
                        2,
                        cg as u64,
                        self.clock_us as f64,
                        vec![
                            ("cg".into(), Value::from(cg as u64)),
                            ("batch_seq".into(), Value::from(seq)),
                        ],
                    );
                } else if ok && route.probes.contains(cg) {
                    self.recorder.instant(
                        "breaker_close",
                        "health",
                        2,
                        cg as u64,
                        self.clock_us as f64,
                        vec![("cg".into(), Value::from(cg as u64))],
                    );
                }
            }
            self.counters.fault_extra_cycles.add(extra_max);
            if failed.is_empty() {
                let mut t = timing;
                t.wall_cycles += extra_max + wasted_cycles;
                t.wall_us = self.cycles_to_us(t.wall_cycles);
                return Ok((t, ServePath::Sharded { cgs: k }));
            }
            // The attempt's wall time was spent and is thrown away.
            wasted_cycles += timing.wall_cycles + extra_max;
            self.counters.fault_extra_cycles.add(timing.wall_cycles);
            self.counters.redispatches.inc();
            round += 1;
            if round > chaos.dispatch_retries {
                break;
            }
        }

        // Fallback 1: the degraded 4×4 mesh (faults still apply — its DMA
        // engines misbehave like everyone else's — but dead CPEs are
        // masked by the re-planning, per resilient.rs).
        let degraded = ResilientExecutor::degraded_chip(self.config.chip);
        if let Ok((timing, _)) =
            self.dispatcher
                .time_batch(&self.cache, &batch.shape, n, 1, degraded)
        {
            let mut fault = chaos.fault;
            fault.dead_mask = 0;
            // Actor 64 is off-mesh: an independent decision stream from
            // the four CGs'.
            let out = sample_slice_faults(&fault, 64, seq, timing.wall_cycles.max(1) / 64);
            self.counters.fault_dma_retries.add(out.dma_retries);
            self.counters.fault_extra_cycles.add(out.extra_cycles);
            if !out.failed() {
                let mut t = timing;
                t.wall_cycles += out.extra_cycles + wasted_cycles;
                t.wall_us = self.cycles_to_us(t.wall_cycles);
                return Ok((t, ServePath::Degraded));
            }
            wasted_cycles += timing.wall_cycles + out.extra_cycles;
            self.counters.fault_extra_cycles.add(timing.wall_cycles);
        }

        // Fallback 2: the host reference touches no mesh and never fails.
        let ref_timing = ReferencePlan {
            chip: self.config.chip,
        }
        .time_full_shape(&batch.shape)?;
        let wall_cycles = n as u64 * ref_timing.cycles + LAUNCH_OVERHEAD_CYCLES + wasted_cycles;
        Ok((
            BatchTiming {
                requests: n,
                wall_cycles,
                wall_us: self.cycles_to_us(wall_cycles),
                total_flops: n as u64 * batch.shape.flops(),
            },
            ServePath::HostReference,
        ))
    }

    fn cycles_to_us(&self, cycles: u64) -> u64 {
        (self.config.chip.cycles_to_seconds(cycles) * 1e6).ceil() as u64
    }

    /// All completions so far, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// All dropped requests (shed / evicted / timed out), in drop order.
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// Per-CG breaker snapshot (`None` without a [`ChaosConfig`]).
    pub fn health_snapshot(&self) -> Option<Vec<(&'static str, CgHealthStats)>> {
        self.health.as_ref().map(|h| h.snapshot())
    }

    /// Aggregate breaker stats (zeros without a [`ChaosConfig`]).
    fn health_totals(&self) -> CgHealthStats {
        self.health.as_ref().map(|h| h.totals()).unwrap_or_default()
    }

    /// Reset measurement state (completions + drops + counters + cache
    /// counters + tags) after a warmup phase, keeping caches, breaker
    /// state, and the clock hot.
    pub fn reset_measurements(&mut self) {
        self.completions.clear();
        self.drops.clear();
        self.counters = ServeCounters::default();
        self.cache.reset_counters();
        self.tags.reset();
    }

    /// Take the recorded Chrome trace (empty when tracing is off).
    pub fn take_trace(&mut self) -> sw_obs::ChromeTrace {
        self.recorder.take()
    }

    /// Counters, rates and exact percentiles of the measured window, all
    /// read from one buffer: the completion latencies, then the drops'
    /// queue waits, a histogram kept apart so shedding can never flatter
    /// the reported latency.
    pub fn summary(&self) -> ServeSummary {
        let mut h = Histogram::with_capacity(self.completions.len().max(self.drops.len()));
        let (p50, p99, high_p99) = latency_percentiles(&mut h, || self.completions.iter());
        h.clear();
        h.extend(self.drops.iter().map(DropRecord::waited_us));
        let batches = self.counters.batches.get();
        let busy_secs = self.counters.busy_us.get() as f64 / 1e6;
        ServeSummary {
            served: self.counters.served.get(),
            rejected: self.counters.rejected.get(),
            batches,
            batch_fill: if batches == 0 {
                0.0
            } else {
                self.counters.batch_fill_sum.get() as f64
                    / (batches * self.config.policy.max_batch as u64) as f64
            },
            p50_latency_us: p50,
            p99_latency_us: p99,
            gflops_chip: if busy_secs > 0.0 {
                self.counters.flops.get() as f64 / busy_secs / 1e9
            } else {
                0.0
            },
            plan_cache_hit_rate: self.cache.stats().plan_hit_rate(),
            evicted: self.counters.evicted.get(),
            timed_out: self.counters.timed_out.get(),
            high_p99_latency_us: high_p99,
            shed_p99_wait_us: h.quantile(99.0),
            breaker_trips: self.health_totals().trips,
            degraded_batches: self.counters.degraded_batches.get(),
            host_batches: self.counters.host_batches.get(),
        }
    }
}

/// Exact p50, p99 and high-tier p99 of the latencies of `completions`
/// (called once per fill), read from `h`. The high tier refills `h` only
/// when a low completion exists; otherwise its p99 is the p99.
pub(crate) fn latency_percentiles<'a, I: Iterator<Item = &'a Completion>>(
    h: &mut Histogram,
    completions: impl Fn() -> I,
) -> (u64, u64, u64) {
    h.extend(completions().map(Completion::latency_us));
    let (p50, p99) = (h.quantile(50.0), h.quantile(99.0));
    if completions().all(|c| c.priority == Priority::High) {
        return (p50, p99, p99);
    }
    h.clear();
    h.extend(
        completions()
            .filter(|c| c.priority == Priority::High)
            .map(Completion::latency_us),
    );
    (p50, p99, h.quantile(99.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        // ro = 8 splits over 4 CGs.
        ConvShape::new(16, 8, 8, 8, 8, 3, 3)
    }

    fn engine(max_batch: usize, queue_limit: usize) -> ServeEngine {
        ServeEngine::new(ServeConfig {
            policy: BatchPolicy {
                max_batch,
                deadline_us: 1_000,
            },
            queue_limit,
            trace: true,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn chaos_engine(chaos: ChaosConfig, max_batch: usize, queue_limit: usize) -> ServeEngine {
        ServeEngine::new(ServeConfig {
            policy: BatchPolicy {
                max_batch,
                deadline_us: 1_000,
            },
            queue_limit,
            chaos: Some(chaos),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn closed_loop_serves_everything_and_caches_plans() {
        let mut e = engine(4, 64);
        for _ in 0..16 {
            e.submit(shape()).unwrap();
        }
        let served = e.drain().unwrap();
        assert_eq!(served, 16);
        let s = e.summary();
        assert_eq!(s.served, 16);
        assert_eq!(s.batches, 4, "cap releases of 4");
        assert_eq!(s.batch_fill, 1.0);
        assert!(s.p99_latency_us >= s.p50_latency_us);
        assert!(s.gflops_chip > 0.0);
        // One slice-shape miss, every later batch hits.
        let cs = e.cache_stats();
        assert_eq!(cs.plan_misses, 1);
        assert_eq!(cs.plan_hits, 3);
    }

    #[test]
    fn overload_rejects_gracefully_and_recovers() {
        let mut e = engine(4, 8);
        let mut rejected = 0;
        for _ in 0..80 {
            match e.submit(shape()) {
                Ok(_) => {}
                Err(SwdnnError::Overloaded { .. }) => rejected += 1,
                Err(e) => panic!("only Overloaded expected, got {e}"),
            }
        }
        assert_eq!(rejected, 72, "queue of 8 sheds the 10x overload");
        assert_eq!(e.queue_depth(), 8);
        e.drain().unwrap();
        assert_eq!(e.queue_depth(), 0);
        // After draining, submissions succeed again.
        e.submit(shape()).unwrap();
        assert_eq!(e.summary().rejected, 72);
        // Every shed request is in the drop log, none has an id.
        assert_eq!(e.drops().len(), 72);
        assert!(e.drops().iter().all(|d| d.id.is_none()));
    }

    #[test]
    fn deadline_fires_for_a_lone_request() {
        let mut e = engine(8, 64);
        e.submit(shape()).unwrap();
        assert_eq!(e.poll().unwrap(), 0, "no trigger yet");
        e.advance_us(1_000);
        assert_eq!(e.poll().unwrap(), 1, "deadline release");
        let c = e.completions()[0];
        assert!(c.latency_us() >= 1_000, "waited out the deadline");
    }

    #[test]
    fn trace_records_one_span_per_batch() {
        let mut e = engine(2, 64);
        for _ in 0..4 {
            e.submit(shape()).unwrap();
        }
        e.drain().unwrap();
        let trace = e.take_trace();
        let spans: Vec<_> = trace.events.iter().filter(|ev| ev.cat == "serve").collect();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.ph == 'X' && s.dur_us > 0.0));
    }

    #[test]
    fn reset_measurements_keeps_the_cache_hot() {
        let mut e = engine(4, 64);
        for _ in 0..8 {
            e.submit(shape()).unwrap();
        }
        e.drain().unwrap();
        e.reset_measurements();
        for _ in 0..8 {
            e.submit(shape()).unwrap();
        }
        e.drain().unwrap();
        let cs = e.cache_stats();
        assert_eq!(cs.plan_misses, 0, "warmup already populated the cache");
        assert_eq!(cs.plan_hit_rate(), 1.0);
        assert_eq!(e.summary().served, 8, "only the measured window counts");
    }

    #[test]
    fn zero_rate_chaos_is_identical_to_fault_free_serving() {
        let run = |chaos: Option<ChaosConfig>| {
            let mut e = ServeEngine::new(ServeConfig {
                policy: BatchPolicy {
                    max_batch: 4,
                    deadline_us: 1_000,
                },
                queue_limit: 64,
                chaos,
                ..ServeConfig::default()
            })
            .unwrap();
            for _ in 0..12 {
                e.submit(shape()).unwrap();
            }
            e.drain().unwrap();
            let s = e.summary();
            (s.served, s.batches, s.p50_latency_us, s.p99_latency_us)
        };
        assert_eq!(
            run(None),
            run(Some(ChaosConfig::default())),
            "inert fault plan must not change a single number"
        );
    }

    #[test]
    fn dead_cg_trips_its_breaker_and_requests_still_complete() {
        let chaos = ChaosConfig {
            fault: FaultPlan::none(3).with_dead_cpe(2, 2),
            dead_cg: 1,
            breaker: BreakerPolicy {
                trip_after: 3,
                cooldown_us: 50_000,
            },
            dispatch_retries: 2,
        };
        let mut e = chaos_engine(chaos, 4, 64);
        for _ in 0..32 {
            e.submit(shape()).unwrap();
        }
        e.drain().unwrap();
        let s = e.summary();
        assert_eq!(s.served, 32, "a dead CG must never lose requests");
        assert!(s.breaker_trips >= 1, "CG 1 must trip");
        assert!(
            e.completions()
                .iter()
                .any(|c| c.path != ServePath::Sharded { cgs: 4 }),
            "traffic must have been rerouted or fallen back"
        );
        // Once CG 1 is tripped, batches shard over 2 of the 3 healthy CGs
        // (the widest split dividing ro = 8).
        assert!(e
            .completions()
            .iter()
            .any(|c| c.path == ServePath::Sharded { cgs: 2 }));
        let snap = e.health_snapshot().unwrap();
        assert!(snap[1].1.failures > 0);
        assert_eq!(snap[0].1.failures, 0, "healthy CGs never fail");
        assert!(e.tags.get("cg/1/trip") >= 1);
    }

    #[test]
    fn per_request_records_stay_small() {
        // Every request keeps one of these alive until the measurement
        // window resets; a new field must move these pins on purpose.
        assert!(std::mem::size_of::<Completion>() <= 48);
        assert!(std::mem::size_of::<DropRecord>() <= 40);
    }

    #[test]
    fn zero_batch_cap_is_rejected_not_spun_on() {
        // A zero cap made every `pop_batch` a Cap release of no requests,
        // so `run_until` and `drain` (and a fleet of such engines) spun.
        let serve = ServeConfig {
            policy: BatchPolicy {
                max_batch: 0,
                deadline_us: 1_000,
            },
            ..ServeConfig::default()
        };
        assert!(matches!(
            ServeEngine::new(serve),
            Err(SwdnnError::ShapeMismatch { .. })
        ));
        let fleet = crate::cluster::Cluster::new(crate::cluster::ClusterConfig {
            serve,
            ..crate::cluster::ClusterConfig::default()
        });
        assert!(matches!(fleet, Err(SwdnnError::ShapeMismatch { .. })));
    }

    #[test]
    fn dead_cg_outside_the_shard_width_is_rejected() {
        let config = |cgs: usize, dead_cg: usize, fault: FaultPlan| ServeConfig {
            cgs,
            chaos: Some(ChaosConfig {
                fault,
                dead_cg,
                ..ChaosConfig::default()
            }),
            ..ServeConfig::default()
        };
        let dead = FaultPlan::none(3).with_dead_cpe(2, 2);
        // Every CG would clear the mask: the dead CPE would vanish.
        for (cgs, dead_cg) in [(4, 4), (2, 2), (2, 3)] {
            assert!(
                matches!(
                    ServeEngine::new(config(cgs, dead_cg, dead)),
                    Err(SwdnnError::ShapeMismatch { .. })
                ),
                "dead_cg {dead_cg} on {cgs} CGs"
            );
        }
        assert!(ServeEngine::new(config(2, 1, dead)).is_ok());
        // Without a dead CPE, `dead_cg` pins nothing.
        assert!(ServeEngine::new(config(2, 3, FaultPlan::none(3))).is_ok());
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            let chaos = ChaosConfig {
                fault: FaultPlan::none(17).with_dma_fail_rate(5e-3),
                ..ChaosConfig::default()
            };
            let mut e = chaos_engine(chaos, 4, 64);
            for _ in 0..24 {
                e.submit(shape()).unwrap();
            }
            e.drain().unwrap();
            let s = e.summary();
            (
                s.served,
                s.p99_latency_us,
                s.breaker_trips,
                e.counters.fault_extra_cycles.get(),
                e.counters.cg_failures.get(),
            )
        };
        assert_eq!(run(), run(), "same seed, same chaos numbers");
    }

    #[test]
    fn faults_cost_time_never_lose_requests() {
        let chaos = ChaosConfig {
            fault: FaultPlan::none(9)
                .with_dma_fail_rate(2e-3)
                .with_dma_stalls(1e-2, 512),
            ..ChaosConfig::default()
        };
        let mut clean = engine(4, 64);
        let mut noisy = chaos_engine(chaos, 4, 64);
        for _ in 0..24 {
            clean.submit(shape()).unwrap();
            noisy.submit(shape()).unwrap();
        }
        clean.drain().unwrap();
        noisy.drain().unwrap();
        assert_eq!(noisy.summary().served, 24);
        assert!(
            noisy.counters.busy_cycles.get() > clean.counters.busy_cycles.get(),
            "stall/backoff cycles must be charged into wall time"
        );
    }

    #[test]
    fn low_priority_is_shed_and_timed_out_first() {
        let mut e = engine(4, 8);
        let low = RequestClass {
            priority: Priority::Low,
            tenant: 7,
            deadline_us: Some(500),
        };
        for _ in 0..8 {
            e.submit_with(shape(), low).unwrap();
        }
        // Queue full of low traffic: high submissions evict, never fail.
        for _ in 0..4 {
            e.submit(shape()).unwrap();
        }
        assert_eq!(e.summary().evicted, 4);
        // Past the dispatch deadline the remaining low requests time out;
        // the high tier is unaffected.
        e.advance_us(2_000);
        e.drain().unwrap();
        let s = e.summary();
        assert_eq!(s.timed_out, 4);
        assert_eq!(s.served, 4, "all high-priority requests complete");
        assert!(e.completions().iter().all(|c| c.priority == Priority::High));
        assert!(e
            .drops()
            .iter()
            .all(|d| d.priority == Priority::Low && d.tenant == 7));
        assert_eq!(e.tags.get("tenant/7/evicted"), 4);
        assert_eq!(e.tags.get("tenant/7/timed_out"), 4);
        assert_eq!(e.tags.get("tenant/0/served"), 4);
    }

    #[test]
    fn run_until_dispatches_on_the_way_and_lands_on_target() {
        let mut e = engine(8, 64);
        e.submit(shape()).unwrap();
        // Target far past the straggler deadline: the deadline release
        // fires mid-flight, not at the end.
        let served = e.run_until(50_000).unwrap();
        assert_eq!(served, 1);
        assert_eq!(e.now_us(), 50_000);
        let c = e.completions()[0];
        assert!(c.completion_us < 50_000, "released at its deadline");
    }

    #[test]
    fn submit_arriving_advances_the_clock_first() {
        let mut e = engine(8, 64);
        e.submit(shape()).unwrap();
        // The new request arrives after the first one's deadline release:
        // the engine must dispatch the first batch on the way.
        e.submit_arriving(shape(), RequestClass::default(), 5_000)
            .unwrap();
        assert_eq!(e.now_us(), 5_000);
        assert_eq!(e.completions().len(), 1, "first request released en route");
        assert_eq!(e.queue_depth(), 1, "second request queued at arrival");
        // A past arrival submits at the current clock, never rewinds.
        e.submit_arriving(shape(), RequestClass::default(), 0)
            .unwrap();
        assert_eq!(e.now_us(), 5_000);
    }

    #[test]
    fn evacuate_returns_queued_work_without_recording_drops() {
        let mut e = engine(8, 64);
        let a = e.submit(shape()).unwrap();
        let b = e
            .submit_with(
                shape(),
                RequestClass {
                    priority: Priority::Low,
                    ..RequestClass::default()
                },
            )
            .unwrap();
        let evacuated = e.evacuate();
        assert_eq!(
            evacuated.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![a, b],
            "high tier first, ids preserved"
        );
        assert_eq!(e.queue_depth(), 0);
        assert!(e.drops().is_empty(), "evacuation is not a drop");
    }

    #[test]
    fn drop_histogram_is_separate_from_completion_latency() {
        let mut e = engine(4, 64);
        // Two served requests with real latency.
        e.submit(shape()).unwrap();
        e.submit(shape()).unwrap();
        e.drain().unwrap();
        let p99_before = e.summary().p99_latency_us;
        // A long-waiting low request that times out must not appear in the
        // completion percentiles.
        let doomed = RequestClass {
            priority: Priority::Low,
            tenant: 1,
            deadline_us: Some(10),
        };
        e.submit_with(shape(), doomed).unwrap();
        e.advance_us(100_000);
        e.poll().unwrap();
        let s = e.summary();
        assert_eq!(s.timed_out, 1);
        assert_eq!(
            s.p99_latency_us, p99_before,
            "a timed-out request must not change completion latency"
        );
        assert!(
            s.shed_p99_wait_us >= 100_000,
            "its wait lives in the shed histogram: {}",
            s.shed_p99_wait_us
        );
    }
}
