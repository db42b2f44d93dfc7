//! `fleet_serve` — a 4-chip `Cluster` serving the eight small
//! `zoo::serving_mix` × {1, 2}-batch shapes. One pass replays an
//! under-capacity rung and an over-capacity rung (spill + structured
//! shedding), each with chip 1 failed half-way through and recovered at
//! three quarters. The same `serve` layer as `serve_zipf` used the other
//! way: plan-cache misses are negligible and per-request routing,
//! accounting and shedding dominate the host time.

use super::openloop::{max_rate_under_slo, Rung};
use super::{Checks, Laps, Layers, Outcome, SimClock, Workload};
use crate::gen::{poisson_trace, Arrival};
use crate::probes;
use crate::span;
use crate::spans::Recorder;
use std::time::Instant;
use sw_tensor::ConvShape;
use swdnn::cluster::{Cluster, ClusterConfig};
use swdnn::serve::{BatchPolicy, RequestClass, ServeConfig, ServeEngine};
use swdnn::SwdnnError;

const CHIPS: usize = 4;
const FAILED_CHIP: usize = 1;
const UNDER_RATE: f64 = 8_000.0;
const OVER_RATE: f64 = 20_000.0;
const UNDER_REQUESTS: usize = 200_000;
const OVER_REQUESTS: usize = 40_000;
/// p99 must stay within 10 ms of logical time.
pub const LIMIT_US: f64 = 10_000.0;

fn serve_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            deadline_us: 2_000,
        },
        queue_limit: 48,
        ..ServeConfig::default()
    }
}

pub fn mix() -> Vec<ConvShape> {
    swdnn::zoo::serving_mix()
        .into_iter()
        .flat_map(|(_, s)| {
            [
                s,
                ConvShape::new(s.batch * 2, s.ni, s.no, s.ro, s.co, s.kr, s.kc),
            ]
        })
        .collect()
}

fn cluster() -> Result<Cluster, SwdnnError> {
    Cluster::new(ClusterConfig {
        chips: CHIPS,
        serve: serve_config(),
        ..ClusterConfig::default()
    })
}

/// One rung replayed to completion, plus what only the fleet knows.
#[derive(Clone, Debug, Default)]
pub struct FleetRung {
    pub rung: Rung,
    pub fingerprint: u64,
    pub spilled: u64,
    pub rerouted: u64,
    /// Sheds the harness saw itself (`Overloaded` from `submit_at` plus
    /// the evacuation sheds `fail_chip` reported).
    pub shed_seen: u64,
}

pub fn replay(menu: &[ConvShape], trace: &[Arrival], rate: f64, rec: &mut Recorder) -> FleetRung {
    let mut out = FleetRung {
        rung: Rung {
            rate,
            offered: trace.len() as u64,
            ..Rung::default()
        },
        ..FleetRung::default()
    };
    let Ok(mut fleet) = span!(rec, "cluster", "Cluster::new", 0, cluster()) else {
        out.rung.errors = out.rung.offered;
        return out;
    };
    // (request id on its chip → due time), per chip, ids ascending.
    let mut due_of: Vec<Vec<(u64, u64)>> = vec![Vec::new(); CHIPS];
    let (fail_at, recover_at) = (trace.len() / 2, trace.len() * 3 / 4);
    for (op, a) in trace.iter().enumerate() {
        if op == fail_at {
            match span!(
                rec,
                "cluster",
                "fail_chip",
                op,
                fleet.fail_chip(FAILED_CHIP)
            ) {
                Ok((_, shed)) => out.shed_seen += shed as u64,
                Err(_) => out.rung.errors += 1,
            }
        }
        if op == recover_at {
            span!(
                rec,
                "cluster",
                "recover_chip",
                op,
                fleet.recover_chip(FAILED_CHIP)
            );
        }
        let submitted = span!(
            rec,
            "cluster",
            "submit_at",
            op,
            fleet.submit_at(menu[a.item], RequestClass::default(), a.due_us)
        );
        match submitted {
            Ok((chip, id)) => due_of[chip].push((id, a.due_us)),
            Err(SwdnnError::Overloaded { .. }) => out.shed_seen += 1,
            Err(_) => out.rung.errors += 1,
        }
    }
    if span!(rec, "cluster", "drain", trace.len(), fleet.drain()).is_err() {
        out.rung.errors += 1;
    }
    let summary = span!(rec, "cluster", "summary", trace.len(), fleet.summary());
    let rung = &mut out.rung;
    for (chip, c) in fleet.completions() {
        // A request evacuated from the failed chip re-enters another
        // chip under an id the harness never saw; it is timed from its
        // re-arrival there.
        let due = due_of[chip]
            .binary_search_by_key(&c.id, |&(id, _)| id)
            .map_or(c.arrival_us, |i| due_of[chip][i].1);
        rung.latencies_us
            .push(c.completion_us.saturating_sub(due) as f64);
    }
    rung.latencies_us.sort_by(f64::total_cmp);
    rung.served = summary.served;
    rung.shed = summary.rejected;
    rung.dropped = summary.timed_out + summary.evicted;
    let end_us = (0..CHIPS)
        .map(|c| fleet.engine(c).now_us())
        .max()
        .unwrap_or(0);
    rung.busy_us = (0..CHIPS)
        .map(|c| fleet.engine(c).counters.busy_us.get())
        .sum();
    rung.drain_tail_us = end_us.saturating_sub(trace.last().map_or(0, |a| a.due_us));
    rung.makespan_us = end_us.saturating_sub(trace.first().map_or(0, |a| a.due_us));
    out.fingerprint = fleet.route_fingerprint();
    out.spilled = summary.spilled;
    out.rerouted = summary.rerouted;
    out
}

pub struct FleetServe {
    menu: Vec<ConvShape>,
    under_trace: Vec<Arrival>,
    over_trace: Vec<Arrival>,
    /// Results of the most recent pass.
    under: FleetRung,
    over: FleetRung,
}

impl FleetServe {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let menu = mix();
        let scale = if smoke { 10 } else { 1 };
        let pick = |r: &mut crate::gen::Rng| r.below(8);
        let w = Self {
            under_trace: poisson_trace(seed, UNDER_REQUESTS / scale, UNDER_RATE, pick),
            over_trace: poisson_trace(seed ^ 0x0FE2, OVER_REQUESTS / scale, OVER_RATE, pick),
            menu,
            under: FleetRung::default(),
            over: FleetRung::default(),
        };
        // Warm-up: a tenth of each rung fills every chip's plan cache.
        let mut off = Recorder::new(false);
        replay(
            &w.menu,
            &w.under_trace[..w.under_trace.len() / 10],
            UNDER_RATE,
            &mut off,
        );
        replay(
            &w.menu,
            &w.over_trace[..w.over_trace.len() / 10],
            OVER_RATE,
            &mut off,
        );
        w
    }
}

impl Workload for FleetServe {
    fn ops(&self) -> u64 {
        (self.under_trace.len() + self.over_trace.len()) as u64
    }

    fn pass(&mut self, rec: &mut Recorder) -> Vec<f64> {
        let mut laps = Laps::start();
        self.under = replay(&self.menu, &self.under_trace, UNDER_RATE, rec);
        laps.lap();
        self.over = replay(&self.menu, &self.over_trace, OVER_RATE, rec);
        laps.lap();
        laps.done()
    }

    fn finish(&mut self) -> Outcome {
        let mut checks = Checks::default();
        let under = &self.under.rung;
        // Under capacity nothing may be refused, even across the failure.
        checks.check_n(under.offered, under.lost(), || {
            format!(
                "under rung: {} of {} offered not served ({} shed, {} dropped, {} errors)",
                under.lost(),
                under.offered,
                under.shed,
                under.dropped,
                under.errors
            )
        });
        // Over capacity shedding is the designed answer — but every shed
        // must be a structured, accounted one.
        let over = &self.over.rung;
        checks.check_n(over.offered, over.errors + over.dropped, || {
            format!(
                "over rung: {} errors, {} dropped after admission",
                over.errors, over.dropped
            )
        });
        for (name, r) in [("under", &self.under), ("over", &self.over)] {
            checks.check(r.rung.conserves(), || {
                format!(
                    "{name} rung loses requests: served {} + shed {} + dropped {} + errors {} != offered {}",
                    r.rung.served, r.rung.shed, r.rung.dropped, r.rung.errors, r.rung.offered
                )
            });
            checks.check(r.shed_seen == r.rung.shed, || {
                format!(
                    "{name} rung: harness saw {} sheds, fleet accounts {}",
                    r.shed_seen, r.rung.shed
                )
            });
        }
        checks.check(over.shed > 0, || "over-capacity rung shed nothing".into());
        // Routing is a pure function of the trace.
        let again = replay(
            &self.menu,
            &self.under_trace,
            UNDER_RATE,
            &mut Recorder::new(false),
        );
        checks.check(
            again.fingerprint == self.under.fingerprint
                && again.rung.latencies_us == under.latencies_us,
            || "replaying the under rung changed the route fingerprint or the latencies".into(),
        );

        let ladder = [under.clone(), over.clone()];
        Outcome {
            sim: SimClock {
                sim_ms_per_op: under.busy_us as f64 / under.served.max(1) as f64 / 1e3,
                latencies_us: under.latencies_us.clone(),
                max_rate_under_slo: max_rate_under_slo(&ladder, LIMIT_US),
                goodput_frac: over.goodput(LIMIT_US),
            },
            checks,
            notes: ladder.iter().map(|r| r.describe(LIMIT_US)).collect(),
        }
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) {
        let (submit_ns, submits) = rec.total("cluster", "submit_at");
        out.insert(
            "cluster.submit_ns_per_req",
            submit_ns as f64 / submits.max(1) as f64,
        );
        let (fail_ns, fails) = rec.total("cluster", "fail_chip");
        out.insert(
            "cluster.fail_chip_us",
            fail_ns as f64 / fails.max(1) as f64 / 1e3,
        );
        out.insert(
            "cluster.spill_frac",
            self.over.spilled as f64 / self.over.rung.offered.max(1) as f64,
        );
        out.insert(
            "cluster.rerouted",
            (self.under.rerouted + self.over.rerouted) as f64,
        );

        // A bare warm engine on the same mix: what a request costs without
        // the fleet around it.
        let mut off = Recorder::new(false);
        let trace = &self.under_trace[..self.under_trace.len() / 4];
        let mut engine = ServeEngine::new(serve_config()).expect("engine");
        super::serve_zipf::replay(
            &mut engine,
            &self.menu,
            trace,
            UNDER_RATE / CHIPS as f64,
            &mut off,
        );
        engine.reset_measurements();
        let t = Instant::now();
        super::serve_zipf::replay(
            &mut engine,
            &self.menu,
            trace,
            UNDER_RATE / CHIPS as f64,
            &mut off,
        );
        let warm_ns = t.elapsed().as_secs_f64() * 1e9 / trace.len() as f64;
        out.insert("serve.warm_ns_per_req", warm_ns);

        // Host cost of a shed request: what the over rung costs beyond
        // serving its served requests at the under rung's per-request cost.
        let time = |trace: &[Arrival], rate| {
            let t = Instant::now();
            let r = replay(&self.menu, trace, rate, &mut Recorder::new(false));
            (t.elapsed().as_secs_f64() * 1e9, r)
        };
        let (under_ns, under) = time(&self.under_trace, UNDER_RATE);
        let (over_ns, over) = time(&self.over_trace, OVER_RATE);
        let per_served = under_ns / under.rung.served.max(1) as f64;
        out.insert(
            "serve.shed_ns_per_req",
            (over_ns - per_served * over.rung.served as f64) / over.rung.shed.max(1) as f64,
        );

        probes::batcher(out);
        probes::router(out, &self.menu);
        probes::obs(out);
    }
}
