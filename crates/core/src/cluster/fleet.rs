//! The fleet: N serving chips behind one front door.
//!
//! Each chip is a full [`ServeEngine`] — its own plan cache, micro
//! batcher, circuit breakers, logical clock, and (optionally) its own
//! [`sw_runtime::ExecutionContext`] worker pool. The [`Cluster`] front
//! door routes every request through the [`super::router::ShapeRouter`]
//! (consistent-hash primary, least-loaded spill), charges the ingress
//! link's latency + wire time from the modeled
//! [`sw_perfmodel::InterconnectSpec`] into the request's arrival time,
//! and hands it to the chosen chip's engine — so cross-chip transfers
//! live on the same deterministic logical clock as everything else.
//!
//! Chip failure is first-class: [`Cluster::fail_chip`] marks a chip
//! down, evacuates its queued requests, and reroutes them (one more
//! link charge — moving work is not free) to surviving chips. High
//! priority work is never lost: it either completes on another chip or
//! is accounted as shed by that chip's own admission control.

use super::router::ShapeRouter;
use crate::error::SwdnnError;
use crate::serve::engine::latency_percentiles;
use crate::serve::{Completion, RequestClass, ServeConfig, ServeCounters, ServeEngine};
use std::sync::Arc;
use sw_obs::{chip_tag, link_tag, ChromeTrace, Counter, Histogram, TagCounters};
use sw_perfmodel::{InterconnectSpec, Topology};
use sw_tensor::ConvShape;

/// Cluster construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Simulated chips in the fleet.
    pub chips: usize,
    /// Per-chip serving configuration (every chip gets an identical
    /// engine; their states diverge only through the traffic they see).
    pub serve: ServeConfig,
    pub interconnect: InterconnectSpec,
    /// Switch-group structure. On a grouped topology every ingress
    /// transfer into a group rides that group's shared downlink, so
    /// simultaneous deliveries into one board serialize instead of
    /// enjoying imaginary dedicated wires. [`Topology::flat`] (the
    /// default) keeps the PR 7 behavior exactly.
    pub topology: Topology,
    /// Virtual nodes per chip on the consistent-hash ring.
    pub vnodes: usize,
    /// Queue depth at which the router spills a shape off its primary
    /// chip to the next ring arc instead of letting admission shed it.
    /// `None` tracks `serve.queue_limit` so overrides of the per-chip
    /// queue bound reshape the spill point too.
    pub route_spill_depth: Option<usize>,
    /// Give every chip its own (leaked, process-lifetime)
    /// [`sw_runtime::ExecutionContext`] instead of sharing the global
    /// pool. Worker pools are a host resource — the default shares one
    /// pool across chips; dedicated pools model hard isolation.
    pub dedicated_runtimes: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            chips: 4,
            serve: ServeConfig::default(),
            interconnect: InterconnectSpec::sw_cluster(),
            topology: Topology::flat(),
            vnodes: 16,
            route_spill_depth: None,
            dedicated_runtimes: false,
        }
    }
}

/// One chip's registered fleet tags (`chip/N/…` and `link/ingress-N/…`),
/// plus its switch group's shared uplink tags on a grouped topology.
struct ChipTags {
    routed: Arc<Counter>,
    spill_in: Arc<Counter>,
    rerouted_in: Arc<Counter>,
    shed: Arc<Counter>,
    failed: Arc<Counter>,
    recovered: Arc<Counter>,
    ingress_bytes: Arc<Counter>,
    ingress_busy_us: Arc<Counter>,
    /// `link/uplink-G-0/{bytes,busy_us}` of the chip's group `G`.
    uplink: Option<(usize, Arc<Counter>, Arc<Counter>)>,
}

impl ChipTags {
    fn register(tags: &TagCounters, chip: usize, group: Option<usize>) -> Self {
        let chip_metric = |metric| tags.register(&chip_tag(chip, metric));
        let ingress = format!("ingress-{chip}");
        Self {
            routed: chip_metric("routed"),
            spill_in: chip_metric("spill_in"),
            rerouted_in: chip_metric("rerouted_in"),
            shed: chip_metric("shed"),
            failed: chip_metric("failed"),
            recovered: chip_metric("recovered"),
            ingress_bytes: tags.register(&link_tag(&ingress, "bytes")),
            ingress_busy_us: tags.register(&link_tag(&ingress, "busy_us")),
            uplink: group.map(|g| {
                let uplink = format!("uplink-{g}-0");
                (
                    g,
                    tags.register(&link_tag(&uplink, "bytes")),
                    tags.register(&link_tag(&uplink, "busy_us")),
                )
            }),
        }
    }
}

/// Fleet-level aggregates over every chip's counters and completions
/// (the fleet's counterpart of [`crate::serve::ServeSummary`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterSummary {
    pub chips: usize,
    pub served: u64,
    pub rejected: u64,
    pub evicted: u64,
    pub timed_out: u64,
    /// Requests that spilled off their consistent-hash primary.
    pub spilled: u64,
    /// Requests rerouted by chip failure.
    pub rerouted: u64,
    /// Exact nearest-rank p50 of completion latency over every chip.
    pub p50_latency_us: u64,
    /// Exact nearest-rank p99 of completion latency over every chip.
    pub p99_latency_us: u64,
    /// Exact nearest-rank p99 over every chip's high-priority completions.
    pub high_p99_latency_us: u64,
    /// Total bytes charged to ingress links.
    pub ingress_bytes: u64,
}

/// N chips + router + modeled interconnect under one logical clock.
pub struct Cluster {
    cfg: ClusterConfig,
    router: ShapeRouter,
    engines: Vec<ServeEngine>,
    /// Per-chip down flags — the router's `down` argument, as stored.
    down: Vec<bool>,
    /// Per-chip queue depths, refreshed in place before every routing
    /// decision — the router's `loads` argument.
    loads: Vec<usize>,
    chip_tags: Vec<ChipTags>,
    /// Front-door clock: the latest departure time seen, µs.
    clock_us: u64,
    /// Running digest of every routing decision, for determinism tests.
    fingerprint: u64,
    spilled: u64,
    rerouted: u64,
    /// Per-group ingress downlink occupancy, µs — the grouped-topology
    /// serialization point (empty on a flat topology).
    ingress_busy_until: std::collections::BTreeMap<usize, u64>,
    /// Fleet-level keyed counters: `chip/N/…`, `link/ingress-N/…`,
    /// `link/uplink-G-0/…` on grouped topologies.
    pub tags: TagCounters,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Result<Self, SwdnnError> {
        if cfg.chips == 0 {
            return Err(SwdnnError::ShapeMismatch {
                expected: "at least one chip".into(),
                got: "chips=0".into(),
            });
        }
        let mut engines = Vec::with_capacity(cfg.chips);
        for _ in 0..cfg.chips {
            let mut engine = ServeEngine::new(cfg.serve)?;
            if cfg.dedicated_runtimes {
                let rt: &'static sw_runtime::ExecutionContext =
                    Box::leak(Box::new(sw_runtime::ExecutionContext::new()));
                engine = engine.on_runtime(rt);
            }
            engines.push(engine);
        }
        let tags = TagCounters::new();
        let chip_tags = (0..cfg.chips)
            .map(|chip| ChipTags::register(&tags, chip, cfg.topology.group_of(chip)))
            .collect();
        Ok(Self {
            router: ShapeRouter::new(cfg.chips, cfg.vnodes),
            cfg,
            engines,
            down: vec![false; cfg.chips],
            loads: vec![0; cfg.chips],
            chip_tags,
            clock_us: 0,
            fingerprint: 0,
            spilled: 0,
            rerouted: 0,
            ingress_busy_until: std::collections::BTreeMap::new(),
            tags,
        })
    }

    pub fn chips(&self) -> usize {
        self.engines.len()
    }

    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// The routing-decision digest so far — identical across runs (and
    /// worker-pool thread counts) for identical traffic.
    pub fn route_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub fn engine(&self, chip: usize) -> &ServeEngine {
        &self.engines[chip]
    }

    pub fn is_down(&self, chip: usize) -> bool {
        self.down[chip]
    }

    /// Route `shape` on the current queue depths and down flags and fold
    /// the decision into the fingerprint.
    fn route(&mut self, shape: &ConvShape) -> Result<usize, SwdnnError> {
        for (load, engine) in self.loads.iter_mut().zip(&self.engines) {
            *load = engine.queue_depth();
        }
        let spill_depth = self
            .cfg
            .route_spill_depth
            .unwrap_or(self.cfg.serve.queue_limit);
        let chip = self
            .router
            .route(shape, &self.loads, &self.down, spill_depth)
            .ok_or(SwdnnError::ClusterUnavailable {
                chips: self.engines.len(),
            })?;
        self.fingerprint = ShapeRouter::fold_fingerprint(self.fingerprint, shape, chip);
        Ok(chip)
    }

    /// Route one request departing the front door at `depart_us` and
    /// deliver it over the ingress link (latency + wire time for the
    /// input tensor) to the chosen chip. Returns `(chip, request id)`.
    /// [`SwdnnError::Overloaded`] propagates from the chip's admission
    /// control; [`SwdnnError::ClusterUnavailable`] means every chip is
    /// down.
    pub fn submit_at(
        &mut self,
        shape: ConvShape,
        class: RequestClass,
        depart_us: u64,
    ) -> Result<(usize, u64), SwdnnError> {
        self.clock_us = self.clock_us.max(depart_us);
        let chip = self.route(&shape)?;
        if chip != self.router.primary(&shape) {
            self.spilled += 1;
            self.chip_tags[chip].spill_in.inc();
        }
        self.deliver(chip, shape, class, depart_us)
    }

    /// Charge the ingress link and submit to `chip`'s engine.
    fn deliver(
        &mut self,
        chip: usize,
        shape: ConvShape,
        class: RequestClass,
        depart_us: u64,
    ) -> Result<(usize, u64), SwdnnError> {
        let bytes = (shape.input_shape().len() * 8) as u64;
        let transfer_us = self.cfg.interconnect.transfer_us(bytes).ceil() as u64;
        let tags = &self.chip_tags[chip];
        let mut start_us = depart_us;
        if let Some((group, bytes_tag, busy_tag)) = &tags.uplink {
            // The board's shared downlink: wait for whatever is already
            // in flight into this group, then hold it for the transfer.
            let busy = self.ingress_busy_until.entry(*group).or_insert(0);
            start_us = start_us.max(*busy);
            *busy = start_us + transfer_us;
            bytes_tag.add(bytes);
            busy_tag.add(transfer_us);
        }
        let arrival_us = start_us + transfer_us;
        tags.ingress_bytes.add(bytes);
        tags.ingress_busy_us.add(transfer_us);
        tags.routed.inc();
        match self.engines[chip].submit_arriving(shape, class, arrival_us) {
            Ok(id) => Ok((chip, id)),
            Err(e) => {
                if matches!(e, SwdnnError::Overloaded { .. }) {
                    self.chip_tags[chip].shed.inc();
                }
                Err(e)
            }
        }
    }

    /// Advance every chip's clock to `target_us`, dispatching whatever
    /// comes due. Returns total requests served this call.
    pub fn run_until(&mut self, target_us: u64) -> Result<usize, SwdnnError> {
        self.clock_us = self.clock_us.max(target_us);
        let mut served = 0;
        for (engine, &down) in self.engines.iter_mut().zip(&self.down) {
            if !down {
                served += engine.run_until(target_us)?;
            }
        }
        Ok(served)
    }

    /// Drain every chip's queue dry.
    pub fn drain(&mut self) -> Result<usize, SwdnnError> {
        let mut served = 0;
        for (engine, &down) in self.engines.iter_mut().zip(&self.down) {
            if !down {
                served += engine.drain()?;
            }
        }
        Ok(served)
    }

    /// Mark `chip` down and reroute its queued work to the survivors.
    /// Each evacuated request pays one more link transfer (departing at
    /// the failed chip's clock) and re-enters admission on its new chip
    /// — so it either completes elsewhere or is *accounted* as shed
    /// there, never silently lost. Returns `(rerouted, shed)` counts; a
    /// `chip` outside the fleet is a [`SwdnnError::ShapeMismatch`].
    pub fn fail_chip(&mut self, chip: usize) -> Result<(usize, usize), SwdnnError> {
        let chips = self.engines.len();
        if chip >= chips {
            return Err(SwdnnError::ShapeMismatch {
                expected: format!("a chip index below {chips}"),
                got: format!("chip {chip}"),
            });
        }
        if self.down[chip] {
            return Ok((0, 0));
        }
        self.down[chip] = true;
        self.chip_tags[chip].failed.inc();
        let depart_us = self.engines[chip].now_us().max(self.clock_us);
        let evacuated = self.engines[chip].evacuate();
        let mut moved = 0;
        let mut shed = 0;
        for req in evacuated {
            let class = RequestClass {
                priority: req.priority,
                tenant: req.tenant,
                // Preserve the absolute dispatch deadline across the move.
                deadline_us: req.expires_us.map(|e| e.saturating_sub(depart_us)),
            };
            let target = self.route(&req.shape)?;
            self.chip_tags[target].rerouted_in.inc();
            match self.deliver(target, req.shape, class, depart_us) {
                Ok(_) => moved += 1,
                Err(SwdnnError::Overloaded { .. }) => shed += 1,
                Err(e) => return Err(e),
            }
        }
        self.rerouted += moved as u64;
        Ok((moved, shed))
    }

    /// Bring a failed chip back into rotation (its breakers and caches
    /// kept whatever state they had). A chip that is not down, or not in
    /// the fleet, is left as it is.
    pub fn recover_chip(&mut self, chip: usize) {
        if self.down.get(chip) == Some(&true) {
            self.down[chip] = false;
            self.chip_tags[chip].recovered.inc();
        }
    }

    /// All completions across chips as `(chip, completion)` pairs.
    pub fn completions(&self) -> Vec<(usize, Completion)> {
        let mut all = Vec::new();
        for (i, engine) in self.engines.iter().enumerate() {
            all.extend(engine.completions().iter().map(|&c| (i, c)));
        }
        all
    }

    /// Fleet-level aggregate. Counters are summed over the chips; the
    /// latency percentiles are exact over every chip's completions merged
    /// into one buffer, not averaged per chip.
    pub fn summary(&self) -> ClusterSummary {
        let mut h =
            Histogram::with_capacity(self.engines.iter().map(|e| e.completions().len()).sum());
        let (p50, p99, high_p99) = latency_percentiles(&mut h, || {
            self.engines.iter().flat_map(ServeEngine::completions)
        });
        let sum = |counter: fn(&ServeCounters) -> &Counter| -> u64 {
            self.engines
                .iter()
                .map(|e| counter(&e.counters).get())
                .sum()
        };
        ClusterSummary {
            chips: self.engines.len(),
            served: sum(|c| &c.served),
            rejected: sum(|c| &c.rejected),
            evicted: sum(|c| &c.evicted),
            timed_out: sum(|c| &c.timed_out),
            spilled: self.spilled,
            rerouted: self.rerouted,
            p50_latency_us: p50,
            p99_latency_us: p99,
            high_p99_latency_us: high_p99,
            ingress_bytes: self.chip_tags.iter().map(|t| t.ingress_bytes.get()).sum(),
        }
    }

    /// Reset every chip's measurement window (post-warmup), keeping
    /// caches, breaker state, and clocks hot.
    pub fn reset_measurements(&mut self) {
        for engine in &mut self.engines {
            engine.reset_measurements();
        }
        self.tags.reset();
        self.spilled = 0;
        self.rerouted = 0;
    }

    /// Merge every chip's Chrome trace into one fleet timeline, one
    /// `pid` (process track) per chip.
    pub fn take_trace(&mut self) -> ChromeTrace {
        let per_chip: Vec<ChromeTrace> = self
            .engines
            .iter_mut()
            .map(ServeEngine::take_trace)
            .collect();
        ChromeTrace::merge_per_chip(per_chip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::BatchPolicy;
    use crate::zoo::serving_mix;

    fn cluster(chips: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            chips,
            serve: ServeConfig {
                policy: BatchPolicy {
                    max_batch: 4,
                    deadline_us: 1_000,
                },
                queue_limit: 16,
                trace: true,
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        })
        .unwrap()
    }

    fn mix_traffic(c: &mut Cluster, n: usize) {
        let shapes = serving_mix();
        for i in 0..n {
            let (_, shape) = shapes[i % shapes.len()];
            c.submit_at(shape, RequestClass::default(), (i as u64) * 50)
                .unwrap();
        }
    }

    #[test]
    fn fleet_serves_everything_and_spreads_shapes() {
        let mut c = cluster(4);
        mix_traffic(&mut c, 64);
        c.drain().unwrap();
        let s = c.summary();
        assert_eq!(s.served, 64);
        assert_eq!(s.rejected, 0);
        assert!(s.ingress_bytes > 0, "ingress links must be charged");
        // Each of the 4 mix shapes pins to its primary chip; the mix
        // must not all land on one chip.
        let routed: Vec<u64> = (0..4).map(|i| c.tags.get(&chip_tag(i, "routed"))).collect();
        assert!(
            routed.iter().filter(|&&r| r > 0).count() >= 2,
            "consistent hashing must use multiple chips: {routed:?}"
        );
    }

    #[test]
    fn link_time_is_charged_into_latency() {
        // One request through a cluster vs. one straight into an engine:
        // the cluster's completion must arrive later by the link time.
        let shape = serving_mix()[0].1;
        let mut c = cluster(1);
        c.submit_at(shape, RequestClass::default(), 0).unwrap();
        c.drain().unwrap();
        let cluster_latency = c.completions()[0].1.latency_us();

        let mut e = ServeEngine::new(ServeConfig {
            policy: BatchPolicy {
                max_batch: 4,
                deadline_us: 1_000,
            },
            queue_limit: 16,
            ..ServeConfig::default()
        })
        .unwrap();
        e.submit(shape).unwrap();
        e.drain().unwrap();
        let direct_latency = e.completions()[0].latency_us();
        // Latency is measured from chip arrival, so the numbers agree —
        // but the cluster's completion *timestamp* includes the link.
        assert_eq!(cluster_latency, direct_latency);
        let transfer = InterconnectSpec::sw_cluster()
            .transfer_us((shape.input_shape().len() * 8) as u64)
            .ceil() as u64;
        assert_eq!(
            c.completions()[0].1.completion_us,
            e.completions()[0].completion_us + transfer,
            "cluster completion is shifted by exactly the ingress transfer"
        );
    }

    #[test]
    fn routing_is_deterministic() {
        let run = || {
            let mut c = cluster(4);
            mix_traffic(&mut c, 48);
            c.drain().unwrap();
            (c.route_fingerprint(), c.summary().p99_latency_us)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chip_failure_reroutes_queued_work_without_losing_high_priority() {
        let mut c = cluster(4);
        let shapes = serving_mix();
        // Queue work everywhere without letting anything dispatch.
        let mut victim = None;
        for i in 0..16 {
            let (_, shape) = shapes[i % shapes.len()];
            let (chip, _) = c.submit_at(shape, RequestClass::default(), 0).unwrap();
            victim.get_or_insert(chip);
        }
        let victim = victim.unwrap();
        let queued_on_victim = c.engine(victim).queue_depth();
        assert!(queued_on_victim > 0);
        let (moved, shed) = c.fail_chip(victim).unwrap();
        assert_eq!(moved, queued_on_victim, "every queued request moves");
        assert_eq!(shed, 0);
        assert_eq!(c.engine(victim).queue_depth(), 0);
        c.drain().unwrap();
        let s = c.summary();
        assert_eq!(s.served, 16, "zero lost work across the failure");
        assert_eq!(s.rerouted as usize, moved);
        // Down chip takes no new traffic.
        for i in 0..8 {
            let (_, shape) = shapes[i % shapes.len()];
            let (chip, _) = c
                .submit_at(shape, RequestClass::default(), c.now_us())
                .unwrap();
            assert_ne!(chip, victim);
        }
        // Recovery puts it back in rotation.
        c.recover_chip(victim);
        assert!(!c.is_down(victim));
    }

    #[test]
    fn all_chips_down_is_a_structured_error() {
        let mut c = cluster(2);
        c.fail_chip(0).unwrap();
        c.fail_chip(1).unwrap();
        let err = c
            .submit_at(serving_mix()[0].1, RequestClass::default(), 0)
            .unwrap_err();
        assert!(matches!(err, SwdnnError::ClusterUnavailable { chips: 2 }));
    }

    #[test]
    fn failing_or_recovering_a_chip_outside_the_fleet_changes_nothing() {
        let mut c = cluster(2);
        mix_traffic(&mut c, 8);
        let before = (c.tags.snapshot(), c.route_fingerprint());
        let err = c.fail_chip(2).unwrap_err();
        assert!(
            matches!(&err, SwdnnError::ShapeMismatch { got, .. } if got == "chip 2"),
            "{err}"
        );
        assert!(c.fail_chip(usize::MAX).is_err());
        c.recover_chip(2);
        c.recover_chip(usize::MAX);
        assert_eq!((c.tags.snapshot(), c.route_fingerprint()), before);
        assert!(!c.is_down(0) && !c.is_down(1));
        c.drain().unwrap();
        assert_eq!(c.summary().served, 8);
    }

    #[test]
    fn saturated_primary_spills_instead_of_shedding() {
        let mut c = Cluster::new(ClusterConfig {
            chips: 2,
            serve: ServeConfig {
                policy: BatchPolicy {
                    max_batch: 4,
                    deadline_us: 1_000_000,
                },
                queue_limit: 4,
                ..ServeConfig::default()
            },
            route_spill_depth: Some(4),
            ..ClusterConfig::default()
        })
        .unwrap();
        let shape = serving_mix()[0].1;
        // 8 same-shape requests, queue limit 4: the second half must
        // spill to the other chip instead of being shed.
        for _ in 0..8 {
            c.submit_at(shape, RequestClass::default(), 0).unwrap();
        }
        let s = c.summary();
        assert_eq!(s.rejected, 0);
        assert_eq!(s.spilled, 4, "half the traffic spilled");
        c.drain().unwrap();
        assert_eq!(c.summary().served, 8);
    }

    #[test]
    fn grouped_topology_serializes_ingress_on_the_board_downlink() {
        let grouped_cfg = ClusterConfig {
            chips: 1,
            serve: ServeConfig {
                policy: BatchPolicy {
                    max_batch: 4,
                    deadline_us: 1_000,
                },
                queue_limit: 16,
                ..ServeConfig::default()
            },
            topology: Topology::sw_supernode(),
            ..ClusterConfig::default()
        };
        let shape = serving_mix()[0].1;
        let transfer = InterconnectSpec::sw_cluster()
            .transfer_us((shape.input_shape().len() * 8) as u64)
            .ceil() as u64;
        let mut grouped = Cluster::new(grouped_cfg).unwrap();
        let mut flat = Cluster::new(ClusterConfig {
            topology: Topology::flat(),
            ..grouped_cfg
        })
        .unwrap();
        // Two simultaneous departures into the same board: the flat
        // model gives each its own wire, the grouped model makes the
        // second wait for the shared downlink.
        for c in [&mut grouped, &mut flat] {
            c.submit_at(shape, RequestClass::default(), 0).unwrap();
            c.submit_at(shape, RequestClass::default(), 0).unwrap();
            c.drain().unwrap();
        }
        assert_eq!(grouped.summary().served, 2);
        let uplink_busy = grouped.tags.get(&link_tag("uplink-0-0", "busy_us"));
        assert_eq!(uplink_busy, 2 * transfer, "both transfers charged");
        assert_eq!(flat.tags.get(&link_tag("uplink-0-0", "bytes")), 0);
        // Latency is measured from chip arrival and both requests share
        // one batch's completion time, so serialized arrivals show up as
        // a latency spread of exactly one transfer; the flat model's
        // simultaneous arrivals show none.
        let spread = |c: &Cluster| {
            let lat: Vec<u64> = c
                .completions()
                .iter()
                .map(|(_, d)| d.latency_us())
                .collect();
            lat.iter().max().unwrap() - lat.iter().min().unwrap()
        };
        assert_eq!(spread(&flat), 0, "flat: both arrive together");
        assert_eq!(
            spread(&grouped),
            transfer,
            "grouped: second arrival waits out one transfer on the downlink"
        );
    }

    #[test]
    fn fleet_trace_has_one_track_per_chip() {
        let mut c = cluster(4);
        mix_traffic(&mut c, 32);
        c.drain().unwrap();
        let trace = c.take_trace();
        let pids: std::collections::BTreeSet<u64> = trace
            .events
            .iter()
            .filter(|e| e.cat == "serve")
            .map(|e| e.pid)
            .collect();
        assert!(pids.len() >= 2, "serve spans on multiple chip tracks");
        assert!(pids.iter().all(|&p| p < 4));
    }
}
