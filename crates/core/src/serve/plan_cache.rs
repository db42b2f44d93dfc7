//! Shape-keyed memoization of plan resolution and timing.
//!
//! Every `Conv2d::new` walks model selection and every timing re-walks
//! the mesh — fine for one-shot benches, hostile to a serving path that
//! sees the same handful of shapes on every request. The cache stores
//! everything the engine needs to *account* a request without
//! re-simulating it: the resolved plan's identity, its executed blocking,
//! the sampled full-shape timing, and the analytic model estimate.
//! Hit/miss counters ride on the underlying [`ShardedMap`].
//!
//! The key is [`PlanKey`] `(shape, mesh_dim)` and the one lookup is
//! [`PlanCache::plan_on`]. The mesh dimension is in the key because the
//! fault-tolerant engine re-plans batches on the degraded 4×4 mesh: a
//! 16-CPE timing served where a 64-CPE timing was asked for (or the
//! reverse) would corrupt every accounted batch.

use super::sharded_map::ShardedMap;
use crate::conv::Conv2d;
use crate::error::SwdnnError;
use crate::plans::{LowerCtx, PlanTiming};
use std::sync::Arc;
use sw_perfmodel::{Blocking, ChipSpec, ConvPerfModel, PerfEstimate, PlanKind};
use sw_tensor::ConvShape;

/// Cache key: the shape and the chip's mesh dimension (see the module
/// doc for why the mesh is in it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PlanKey {
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

/// The concurrent plan cache one serving engine owns.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: ShardedMap<PlanKey, Arc<CachedPlan>>,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (and time) the plan for `shape` on `chip`, memoized, with
    /// the miss's timing walk on `rt` (the dispatcher passes its pool).
    ///
    /// The first call per key pays plan resolution plus the sampled
    /// full-shape timing; every later call is a map lookup. A failed
    /// resolution is returned and not cached.
    pub fn plan_on(
        &self,
        rt: &'static sw_runtime::ExecutionContext,
        chip: &ChipSpec,
        shape: &ConvShape,
    ) -> Result<Arc<CachedPlan>, SwdnnError> {
        let key = PlanKey {
            shape: *shape,
            mesh_dim: chip.mesh_dim,
        };
        self.plans.get_or_insert_with(&key, || {
            let plan = Conv2d::new(*shape)?
                .on(LowerCtx::on_chip(*chip).on_runtime(rt))
                .plan();
            plan.supports(shape)?;
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
                timing,
                model,
            }))
        })
    }

    pub fn stats(&self) -> CacheStats {
        let (tile_hits, tile_misses) = crate::kernel_cost::tile_cache_stats();
        CacheStats {
            plan_hits: self.plans.hits(),
            plan_misses: self.plans.misses(),
            plan_entries: self.plans.len(),
            tile_hits,
            tile_misses,
        }
    }

    /// Zero hit/miss counters (post-warmup measurement windows) while
    /// keeping the cached entries hot.
    pub fn reset_counters(&self) {
        self.plans.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(32, 16, 16, 8, 8, 3, 3)
    }

    fn plan(cache: &PlanCache, chip: &ChipSpec, shape: &ConvShape) -> Arc<CachedPlan> {
        cache.plan_on(sw_runtime::global(), chip, shape).unwrap()
    }

    #[test]
    fn repeated_plan_lookups_hit_and_are_identical() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let a = plan(&cache, &chip, &shape());
        let b = plan(&cache, &chip, &shape());
        assert!(Arc::ptr_eq(&a, &b), "second lookup must return the entry");
        assert_eq!(a.timing.cycles, b.timing.cycles);
        let s = cache.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (1, 1));
        assert_eq!(s.plan_entries, 1);
        assert_eq!(s.plan_hit_rate(), 0.5);
    }

    #[test]
    fn failed_resolutions_error_and_are_not_cached() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        // A zero batch is no convolution: `Conv2d::new` refuses it.
        let bad = ConvShape::new(0, 16, 16, 8, 8, 3, 3);
        let rt = sw_runtime::global();
        assert!(matches!(
            cache.plan_on(rt, &chip, &bad),
            Err(SwdnnError::ShapeMismatch { .. })
        ));
        assert!(
            cache.plan_on(rt, &chip, &bad).is_err(),
            "retried, not cached"
        );
        let s = cache.stats();
        assert_eq!(s.plan_entries, 0);
        assert_eq!((s.plan_hits, s.plan_misses), (0, 2));
    }

    #[test]
    fn degraded_mesh_entries_do_not_collide_with_full_mesh() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        let degraded = crate::resilient::ResilientExecutor::degraded_chip(chip);
        let full = plan(&cache, &chip, &shape());
        let masked = plan(&cache, &degraded, &shape());
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
    fn reset_counters_keeps_entries_hot() {
        let cache = PlanCache::new();
        let chip = ChipSpec::sw26010();
        plan(&cache, &chip, &shape());
        cache.reset_counters();
        plan(&cache, &chip, &shape());
        let s = cache.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (1, 0));
        assert_eq!(s.plan_hit_rate(), 1.0);
    }
}
