//! `serve_zipf` — open-loop serving of 24 paper-scale shapes (the Fig. 7
//! diagonal plus three off-diagonal shapes) with Zipf(1.1) popularity and
//! Poisson arrivals on the logical clock, `max_batch 8 / deadline 50 ms /
//! queue 64`. Each timed pass replays the 6 req/sim-s rung on a *fresh*
//! engine, so the host cost is plan-cache misses (one sampled simulation
//! per shape) and almost nothing else; the logical latency is batching
//! plus simulated cycles. The 4–8 req/sim-s ladder replays on the warm
//! engine the last pass left behind.

use super::conv_paper::{diagonal, paper_shape};
use super::openloop::{max_rate_under_slo, Rung};
use super::{Checks, Laps, Layers, Outcome, SimClock, Workload};
use crate::gen::{poisson_trace, rescale, Arrival, Zipf};
use crate::probes;
use crate::span;
use crate::spans::Recorder;
use std::time::Instant;
use sw_tensor::ConvShape;
use swdnn::serve::{BatchPolicy, RequestClass, ServeConfig, ServeEngine};
use swdnn::SwdnnError;

const REQUESTS: usize = 300_000;
/// The rung the timed passes and the latency percentiles use.
const BASE_RATE: f64 = 6.0;
const LADDER: [f64; 5] = [4.0, 5.0, 6.0, 7.0, 8.0];
/// p99 must stay within 3 s of logical time.
pub const LIMIT_US: f64 = 4e6;

fn config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            deadline_us: 50_000,
        },
        queue_limit: 64,
        ..ServeConfig::default()
    }
}

/// Rank 0 (hottest) is the cheapest diagonal shape; the off-diagonal
/// Table III shapes sit mid-menu.
fn menu() -> Vec<ConvShape> {
    let mut m = diagonal();
    m.insert(8, paper_shape(128, 256));
    m.insert(12, paper_shape(128, 384));
    m.insert(16, paper_shape(64, 128));
    m
}

/// Replay `trace` (due times offset by the engine's current clock) and
/// drain. Latencies run from each request's due time, not from whenever
/// the busy engine got round to admitting it.
pub fn replay(
    engine: &mut ServeEngine,
    menu: &[ConvShape],
    trace: &[Arrival],
    rate: f64,
    rec: &mut Recorder,
) -> Rung {
    let offset = engine.now_us();
    let mut rung = Rung {
        rate,
        offered: trace.len() as u64,
        ..Rung::default()
    };
    // Ids are handed out to accepted requests in submission order, so the
    // k-th accepted request of this replay has id `first_id + k`.
    let mut first_id = None;
    let mut due_of: Vec<u64> = Vec::with_capacity(trace.len());
    for (op, a) in trace.iter().enumerate() {
        let due = offset + a.due_us;
        let submitted = span!(
            rec,
            "serve",
            "submit_arriving",
            op,
            engine.submit_arriving(menu[a.item], RequestClass::default(), due)
        );
        match submitted {
            Ok(id) => {
                first_id.get_or_insert(id);
                due_of.push(due);
            }
            Err(SwdnnError::Overloaded { .. }) => rung.shed += 1,
            Err(_) => rung.errors += 1,
        }
    }
    if span!(rec, "serve", "drain", trace.len(), engine.drain()).is_err() {
        rung.errors += 1;
    }
    let first_id = first_id.unwrap_or(0);
    rung.latencies_us = engine
        .completions()
        .iter()
        .filter_map(|c| {
            let due = due_of.get(c.id.checked_sub(first_id)? as usize)?;
            Some((c.completion_us - due) as f64)
        })
        .collect();
    rung.latencies_us.sort_by(f64::total_cmp);
    rung.served = engine.counters.served.get();
    rung.dropped = engine.counters.timed_out.get() + engine.counters.evicted.get();
    rung.busy_us = engine.counters.busy_us.get();
    let last_due = offset + trace.last().map_or(0, |a| a.due_us);
    rung.drain_tail_us = engine.now_us().saturating_sub(last_due);
    rung.makespan_us = engine.now_us() - offset - trace.first().map_or(0, |a| a.due_us);
    rung
}

pub struct ServeZipf {
    seed: u64,
    menu: Vec<ConvShape>,
    trace: Vec<Arrival>,
    /// The engine and result of the most recent cold pass.
    engine: Option<ServeEngine>,
    base: Rung,
    errors: u64,
}

impl ServeZipf {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let menu = menu();
        let zipf = Zipf::new(menu.len(), 1.1);
        let n = if smoke { REQUESTS / 10 } else { REQUESTS };
        let trace = poisson_trace(seed, n, BASE_RATE, |r| zipf.sample(r));
        let mut w = Self {
            seed,
            menu,
            trace,
            engine: None,
            base: Rung::default(),
            errors: 0,
        };
        // Warm-up: one cold pass pays the process-wide first-use costs
        // (tile-cost cache, scratch arenas); the engine's own plan cache
        // is per pass by design.
        w.pass(&mut Recorder::new(false));
        w
    }
}

impl Workload for ServeZipf {
    fn ops(&self) -> u64 {
        self.trace.len() as u64
    }

    fn pass(&mut self, rec: &mut Recorder) -> Vec<f64> {
        let mut laps = Laps::start();
        // The last pass's engine (and its 300 000 completions) goes first,
        // so two engines never sit in memory at once.
        self.engine = None;
        match span!(
            rec,
            "serve",
            "ServeEngine::new",
            0,
            ServeEngine::new(config())
        ) {
            Ok(mut engine) => {
                self.base = replay(&mut engine, &self.menu, &self.trace, BASE_RATE, rec);
                let _ = span!(rec, "serve", "summary", self.trace.len(), engine.summary());
                self.engine = Some(engine);
            }
            Err(_) => self.errors += 1,
        }
        laps.lap();
        laps.done()
    }

    fn finish(&mut self) -> Outcome {
        let mut checks = Checks::default();
        let base = &self.base;
        // Under capacity: every request must come back, none refused.
        checks.check_n(base.offered, base.lost() + self.errors, || {
            format!(
                "rung {BASE_RATE}: {} of {} offered not served ({} shed, {} dropped, {} errors)",
                base.lost(),
                base.offered,
                base.shed,
                base.dropped,
                base.errors
            )
        });
        checks.check(base.conserves(), || {
            format!("rung {BASE_RATE} does not conserve requests")
        });

        let mut ladder = Vec::new();
        if let Some(engine) = self.engine.as_mut() {
            let mut off = Recorder::new(false);
            for rate in LADDER {
                engine.reset_measurements();
                let trace = rescale(&self.trace, BASE_RATE, rate);
                ladder.push(replay(engine, &self.menu, &trace, rate, &mut off));
            }
        }
        for r in &ladder {
            checks.check(r.conserves() && r.errors == 0, || {
                format!(
                    "rung {}: served {} + shed {} + dropped {} != offered {}",
                    r.rate, r.served, r.shed, r.dropped, r.offered
                )
            });
        }
        // The warm replay of the base rung must tell the same story as the
        // cold pass: the plan cache moves host time, never logical time.
        let replayed = ladder.iter().find(|r| r.rate == BASE_RATE);
        checks.check(
            replayed.is_some_and(|r| r.latencies_us == base.latencies_us),
            || "warm replay of the base rung changed logical latencies".into(),
        );

        let top = ladder.last().cloned().unwrap_or_default();
        Outcome {
            sim: SimClock {
                sim_ms_per_op: base.busy_us as f64 / base.served.max(1) as f64 / 1e3,
                latencies_us: base.latencies_us.clone(),
                max_rate_under_slo: max_rate_under_slo(&ladder, LIMIT_US),
                goodput_frac: top.goodput(LIMIT_US),
            },
            checks,
            notes: ladder.iter().map(|r| r.describe(LIMIT_US)).collect(),
        }
    }

    fn layers(&mut self, _rec: &Recorder, out: &mut Layers) {
        let mut off = Recorder::new(false);
        // Cold vs warm host cost of the same trace: the difference is the
        // plan-cache misses.
        let t = Instant::now();
        let mut engine = ServeEngine::new(config()).expect("engine");
        let cold_rung = replay(&mut engine, &self.menu, &self.trace, BASE_RATE, &mut off);
        let cold = t.elapsed().as_secs_f64();
        let stats = engine.cache_stats();
        let t = Instant::now();
        out.insert("serve.batch_fill", engine.summary().batch_fill);
        out.insert("serve.summary_ms", t.elapsed().as_secs_f64() * 1e3);
        engine.reset_measurements();
        let t = Instant::now();
        replay(&mut engine, &self.menu, &self.trace, BASE_RATE, &mut off);
        let warm = t.elapsed().as_secs_f64();
        out.insert("serve.plan_misses", stats.plan_misses as f64);
        out.insert("serve.plan_hit_rate", stats.plan_hit_rate());
        out.insert(
            "serve.miss_ms",
            (cold - warm) * 1e3 / stats.plan_misses.max(1) as f64,
        );
        out.insert(
            "serve.busy_frac",
            cold_rung.busy_us as f64 / cold_rung.makespan_us.max(1) as f64,
        );
        probes::dispatch_run(out, self.seed);
    }
}
