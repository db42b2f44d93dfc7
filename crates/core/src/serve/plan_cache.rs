//! Shape-keyed memoization of plan selection, timing, and autotuning.
//!
//! Every `Conv2d::new` walks model selection and every `autotune` re-times
//! each candidate from scratch — fine for one-shot benches, hostile to a
//! serving path that sees the same handful of shapes on every request. The
//! cache keys on `(shape, forced kind, schedule)` and stores everything
//! the executor needs to *account* a request without re-simulating it:
//! the resolved plan's identity, its executed blocking, the sampled
//! full-shape timing, and the analytic model estimate. Hit/miss counters
//! ride on the underlying [`ShardedMap`]s.
//!
//! ## Cache-key audit for the schedule dimension
//!
//! The schedule search ([`crate::tune`]) introduced a third way to arrive
//! at a plan besides "automatic" and "forced kind": an explicit
//! [`Schedule`]. Two schedules of the *same kind* (say, image-size-aware
//! with `b_co = 16` vs `b_co = 8`) are different plans with different
//! timings — under the old `(shape, forced, mesh_dim)` key a forced-kind
//! entry cached before a search ran would shadow a better searched
//! schedule of that kind forever. The key therefore carries the schedule,
//! and [`PlanCache::install_searched`] explicitly *replaces* the
//! automatic entry with the search winner. The process-wide
//! `kernel_cost` tile cache needs no such widening: its `(n, reordered)`
//! key prices the inner kernel by tile shape only, which every schedule
//! maps through — see `tile_cache_key_is_schedule_independent` below.

use super::sharded_map::ShardedMap;
use crate::conv::Conv2d;
use crate::error::SwdnnError;
use crate::plans::{lower_schedule, ConvPlan, LowerCtx, PlanTiming, Schedule};
use crate::tune::{autotune_on, TuneReport};
use std::sync::Arc;
use sw_perfmodel::{Blocking, ChipSpec, ConvPerfModel, PerfEstimate, PlanKind};
use sw_tensor::ConvShape;

/// Cache key: the shape, any forced plan kind (forcing changes the
/// resolved plan, so it must not share an entry with automatic selection),
/// the chip's mesh dimension — the fault-tolerant dispatcher re-plans
/// on the degraded 4×4 mesh, and a degraded-chip timing must never be
/// served where a full 8×8 timing was asked for (or vice versa) — and
/// the explicit schedule when the entry came from the schedule search
/// rather than from plan resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub shape: ConvShape,
    pub forced: Option<PlanKind>,
    pub mesh_dim: usize,
    pub schedule: Option<Schedule>,
}

/// Key for memoized autotune sweeps. The sweep simulates candidates on a
/// concrete mesh, so (like plan entries) a degraded 4×4 report must not
/// answer for the full 8×8 chip — keying on the shape alone did exactly
/// that.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TuneKey {
    pub shape: ConvShape,
    pub mesh_dim: usize,
}

/// Everything memoized about one resolved plan.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    pub kind: PlanKind,
    /// The blocking the plan actually executes with
    /// ([`crate::plans::ConvPlan::blocking`]).
    pub blocking: Blocking,
    pub plan_name: String,
    /// The schedule this entry lowers, when it came from the search.
    pub schedule: Option<Schedule>,
    /// Sampled full-shape timing on one CG.
    pub timing: PlanTiming,
    /// Analytic model estimate for the executed (kind, blocking).
    pub model: PerfEstimate,
}

/// Aggregate cache observability, flattened for counters/logs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_entries: usize,
    pub tune_hits: u64,
    pub tune_misses: u64,
    /// Process-wide tile-profile cache ([`crate::kernel_cost`]).
    pub tile_hits: u64,
    pub tile_misses: u64,
}

impl CacheStats {
    /// Plan-cache hit rate (the serving SLO metric).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            return 0.0;
        }
        self.plan_hits as f64 / total as f64
    }
}

/// The concurrent plan/tune cache one serving engine owns.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: ShardedMap<PlanKey, Arc<CachedPlan>>,
    tunes: ShardedMap<TuneKey, Arc<TuneReport>>,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (and time) the plan for `shape` on `chip`, memoized.
    ///
    /// The first call per key pays plan resolution plus the sampled
    /// full-shape timing; every later call is a map lookup.
    pub fn plan(
        &self,
        chip: &ChipSpec,
        shape: &ConvShape,
        forced: Option<PlanKind>,
    ) -> Result<Arc<CachedPlan>, SwdnnError> {
        self.plan_on(sw_runtime::global(), chip, shape, forced)
    }

    /// [`PlanCache::plan`] with the warmup simulation pinned to an explicit
    /// execution context (the dispatcher passes its shared pool here).
    pub fn plan_on(
        &self,
        rt: &'static sw_runtime::ExecutionContext,
        chip: &ChipSpec,
        shape: &ConvShape,
        forced: Option<PlanKind>,
    ) -> Result<Arc<CachedPlan>, SwdnnError> {
        let key = PlanKey {
            shape: *shape,
            forced,
            mesh_dim: chip.mesh_dim,
            schedule: None,
        };
        self.fill(key, || {
            let mut conv = Conv2d::new(*shape)?.on(LowerCtx::on_chip(*chip).on_runtime(rt));
            if let Some(kind) = forced {
                conv = conv.with_plan(kind);
            }
            let plan = conv.plan();
            plan.supports(shape)?;
            Ok(plan)
        })
    }

    /// Resolve (and time) an explicit searched schedule, memoized under
    /// its own key — distinct from automatic and forced-kind entries, so
    /// a pre-existing forced entry of the same kind can never shadow it.
    pub fn plan_scheduled(
        &self,
        rt: &'static sw_runtime::ExecutionContext,
        chip: &ChipSpec,
        shape: &ConvShape,
        schedule: &Schedule,
    ) -> Result<Arc<CachedPlan>, SwdnnError> {
        let key = PlanKey {
            shape: *shape,
            forced: None,
            mesh_dim: chip.mesh_dim,
            schedule: Some(*schedule),
        };
        self.fill(key, || {
            lower_schedule(schedule, shape, &LowerCtx::on_chip(*chip).on_runtime(rt))
        })
    }

    /// The entry under `key`, or — on a miss — the plan `resolve` builds,
    /// timed for the key's shape and stored with its model estimate.
    fn fill(
        &self,
        key: PlanKey,
        resolve: impl FnOnce() -> Result<Box<dyn ConvPlan>, SwdnnError>,
    ) -> Result<Arc<CachedPlan>, SwdnnError> {
        self.plans.get_or_insert_with(&key, || {
            let plan = resolve()?;
            let shape = &key.shape;
            let timing = plan.time_full_shape(shape)?;
            let kind = plan.kind();
            let blocking = plan.blocking(shape);
            let model = ConvPerfModel::default().estimate(
                kind,
                blocking,
                shape.batch,
                shape.ni,
                shape.no,
                shape.kc,
            );
            Ok(Arc::new(CachedPlan {
                kind,
                blocking,
                plan_name: plan.name().to_string(),
                schedule: key.schedule,
                timing,
                model,
            }))
        })
    }

    /// Promote a search winner to the automatic entry for its shape: the
    /// entry `plan()` serves with `forced = None` is *replaced* by the
    /// searched schedule's plan. Without this, an automatic (or stale)
    /// entry cached before the search ran would keep shadowing the
    /// better searched schedule on every subsequent request.
    pub fn install_searched(
        &self,
        rt: &'static sw_runtime::ExecutionContext,
        chip: &ChipSpec,
        shape: &ConvShape,
        report: &TuneReport,
    ) -> Result<Arc<CachedPlan>, SwdnnError> {
        let best = report.best().schedule;
        let winner = self.plan_scheduled(rt, chip, shape, &best)?;
        let auto_key = PlanKey {
            shape: *shape,
            forced: None,
            mesh_dim: chip.mesh_dim,
            schedule: None,
        };
        self.plans.insert(auto_key, Arc::clone(&winner));
        Ok(winner)
    }

    /// Memoized [`autotune_on`]: the full candidate sweep runs once per
    /// `(shape, mesh_dim)`.
    pub fn autotune(
        &self,
        chip: &ChipSpec,
        shape: &ConvShape,
    ) -> Result<Arc<TuneReport>, SwdnnError> {
        let key = TuneKey {
            shape: *shape,
            mesh_dim: chip.mesh_dim,
        };
        self.tunes
            .get_or_insert_with(&key, || Ok(Arc::new(autotune_on(chip, shape)?)))
    }

    pub fn stats(&self) -> CacheStats {
        let (tile_hits, tile_misses) = crate::kernel_cost::tile_cache_stats();
        CacheStats {
            plan_hits: self.plans.hits(),
            plan_misses: self.plans.misses(),
            plan_entries: self.plans.len(),
            tune_hits: self.tunes.hits(),
            tune_misses: self.tunes.misses(),
            tile_hits,
            tile_misses,
        }
    }

    /// Zero hit/miss counters (post-warmup measurement windows) while
    /// keeping the cached entries hot.
    pub fn reset_counters(&self) {
        self.plans.reset_counters();
        self.tunes.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(32, 16, 16, 8, 8, 3, 3)
    }

    #[test]
    fn repeated_plan_lookups_hit_and_are_identical() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let a = cache.plan(&chip, &shape(), None).unwrap();
        let b = cache.plan(&chip, &shape(), None).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must return the entry");
        assert_eq!(a.timing.cycles, b.timing.cycles);
        let s = cache.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (1, 1));
        assert_eq!(s.plan_entries, 1);
        assert_eq!(s.plan_hit_rate(), 0.5);
    }

    #[test]
    fn forced_kind_gets_its_own_entry() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let auto = cache.plan(&chip, &shape(), None).unwrap();
        let forced = cache
            .plan(&chip, &shape(), Some(PlanKind::BatchSizeAware))
            .unwrap();
        assert_eq!(forced.kind, PlanKind::BatchSizeAware);
        assert_eq!(cache.stats().plan_entries, 2);
        assert_eq!(forced.blocking.b_b, shape().batch);
        // The auto entry must be untouched by the forced lookup.
        assert_eq!(
            auto.timing.cycles,
            cache.plan(&chip, &shape(), None).unwrap().timing.cycles
        );
    }

    #[test]
    fn unsupported_forced_plans_error_and_are_not_cached() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        // Channels not a multiple of 8: mesh plans refuse.
        let bad = ConvShape::new(32, 7, 7, 8, 8, 3, 3);
        let err = cache.plan(&chip, &bad, Some(PlanKind::ImageSizeAware));
        assert!(err.is_err());
        assert_eq!(cache.stats().plan_entries, 0);
    }

    #[test]
    fn degraded_mesh_entries_do_not_collide_with_full_mesh() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let degraded = crate::resilient::ResilientExecutor::degraded_chip(chip);
        let full = cache.plan(&chip, &shape(), None).unwrap();
        let masked = cache.plan(&degraded, &shape(), None).unwrap();
        assert_eq!(
            cache.stats().plan_entries,
            2,
            "mesh_dim must be part of the key"
        );
        assert!(!Arc::ptr_eq(&full, &masked));
        assert_ne!(
            full.timing.cycles, masked.timing.cycles,
            "a 16-CPE timing served for the 64-CPE mesh would corrupt accounting"
        );
    }

    #[test]
    fn forced_entry_does_not_shadow_a_searched_schedule() {
        // The shadowing bug the schedule key dimension fixes: a forced
        // image-size-aware entry lands in the cache first; the search
        // then finds a *different* image-size-aware blocking. Under the
        // old `(shape, forced, mesh_dim)` key the searched plan had no
        // distinct slot, so the stale entry's blocking/timing answered
        // forever.
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let rt = sw_runtime::global();
        let forced = cache
            .plan(&chip, &shape(), Some(PlanKind::ImageSizeAware))
            .unwrap();
        let searched_sched = Schedule::image_aware(32, 4);
        assert_ne!(
            forced.blocking,
            Blocking { b_b: 32, b_co: 4 },
            "test needs the forced blocking to differ from the searched one"
        );
        let searched = cache
            .plan_scheduled(rt, &chip, &shape(), &searched_sched)
            .unwrap();
        assert_eq!(searched.blocking, Blocking { b_b: 32, b_co: 4 });
        assert_eq!(searched.schedule, Some(searched_sched));
        assert_eq!(
            cache.stats().plan_entries,
            2,
            "the searched schedule must own its own entry"
        );
        // And the forced entry is still served unchanged for forced asks.
        let again = cache
            .plan(&chip, &shape(), Some(PlanKind::ImageSizeAware))
            .unwrap();
        assert!(Arc::ptr_eq(&forced, &again));
    }

    #[test]
    fn install_searched_replaces_the_stale_automatic_entry() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let rt = sw_runtime::global();
        // An automatic entry cached before any search ran.
        let stale = cache.plan(&chip, &shape(), None).unwrap();
        let report = cache.autotune(&chip, &shape()).unwrap();
        let winner = cache
            .install_searched(rt, &chip, &shape(), &report)
            .unwrap();
        assert!(
            winner.timing.cycles <= stale.timing.cycles,
            "search winner ({}) must be no slower than the automatic pick ({})",
            winner.timing.cycles,
            stale.timing.cycles
        );
        // The automatic slot now serves the searched winner.
        let served = cache.plan(&chip, &shape(), None).unwrap();
        assert!(Arc::ptr_eq(&served, &winner));
        assert_eq!(served.schedule, Some(report.best().schedule));
    }

    #[test]
    fn autotune_is_memoized() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let a = cache.autotune(&chip, &shape()).unwrap();
        let b = cache.autotune(&chip, &shape()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.tune_hits, s.tune_misses), (1, 1));
    }

    #[test]
    fn tune_reports_key_on_the_mesh_dimension() {
        // The sweep simulates real meshes; a degraded 4×4 report served
        // for the full 8×8 chip would misrank every candidate. The old
        // shape-only key did exactly that.
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let degraded = crate::resilient::ResilientExecutor::degraded_chip(chip);
        let full = cache.autotune(&chip, &shape()).unwrap();
        let masked = cache.autotune(&degraded, &shape()).unwrap();
        assert!(!Arc::ptr_eq(&full, &masked), "distinct entries per mesh");
        assert_ne!(
            full.best().cycles,
            masked.best().cycles,
            "16-CPE sweep timings must not answer for the 64-CPE mesh"
        );
    }

    #[test]
    fn tile_cache_key_is_schedule_independent() {
        // Audit for the schedule dimension: the kernel_cost tile cache
        // keys on `(n, reordered)` — the inner-kernel trip count and
        // kernel flavor. Every schedule prices its GEMM through the same
        // per-tile profiles, so two different schedules that produce the
        // same tile shape must (and do) share one entry; the cache needs
        // no schedule key.
        let a = crate::kernel_cost::tile_profile(2, true);
        let (_, misses_before) = crate::kernel_cost::tile_cache_stats();
        let b = crate::kernel_cost::tile_profile(2, true);
        let (_, misses_after) = crate::kernel_cost::tile_cache_stats();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(
            misses_before, misses_after,
            "same tile shape must hit regardless of which schedule asked"
        );
    }

    #[test]
    fn reset_counters_keeps_entries_hot() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        cache.plan(&chip, &shape(), None).unwrap();
        cache.reset_counters();
        cache.plan(&chip, &shape(), None).unwrap();
        let s = cache.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (1, 0));
        assert_eq!(s.plan_hit_rate(), 1.0);
    }
}
