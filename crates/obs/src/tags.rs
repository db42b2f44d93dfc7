//! Keyed monotonic counters for low-cardinality tag dimensions.
//!
//! [`Counter`] covers the fixed, compile-time-known metrics (cycles,
//! bytes, batches). The serving layer also needs counters keyed by small
//! *runtime* dimensions — tenant id, chip, core-group index, link — whose
//! value sets are only known once traffic arrives. [`TagCounters`] is that
//! map.
//!
//! Tag bumps happen once or more per *request* on the serving front door
//! (routed, ingress bytes and busy time, served or shed per tenant), so a
//! hot caller does not bump by name: it [`register`](TagCounters::register)s
//! each key once and keeps the returned handle, a shared [`Counter`] whose
//! bump is one relaxed atomic add — no lock, no key formatting, no
//! allocation. The string-keyed [`add`](TagCounters::add) stays for cold
//! callers (the data-parallel trainer's per-step totals); it takes the map
//! lock and allocates only the first time it sees a key.
//!
//! Registration creates a key at zero, and a zero-valued key is invisible:
//! [`get`](TagCounters::get) reads 0, and [`len`](TagCounters::len) and
//! [`snapshot`](TagCounters::snapshot) skip it. So pre-registering every
//! key a component might bump changes nothing a reader sees, and
//! [`reset`](TagCounters::reset) — which zeroes every counter in place so
//! handles stay valid — reads as empty again. The keys live in a
//! `BTreeMap`, which keeps `snapshot()` deterministically sorted: the
//! property the chaos bench relies on when it prints and gates per-tenant
//! totals.

use crate::Counter;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Tag key for a per-chip metric (`chip/3/served`). The fleet layer keys
/// every chip-scoped counter through this so the naming stays greppable
/// and the sorted snapshot groups chips together.
pub fn chip_tag(chip: usize, metric: &str) -> String {
    format!("chip/{chip}/{metric}")
}

/// Tag key for a per-link metric (`link/tx-2/bytes`). Links are named
/// by the network resource they meter:
///
/// * `ingress-N` — the serving front-door→chip hop,
/// * `tx-N` / `rx-N` — chip N's collective send / receive port
///   (`sw_perfmodel::NetworkModel` occupancy names),
/// * `uplink-G-K` — uplink K of switch group G, the shared resource
///   cross-group traffic serializes on.
///
/// Common metrics are `bytes` (payload carried) and `busy_us`
/// (occupancy time) so the sorted snapshot reads as a per-link
/// utilization table.
pub fn link_tag(link: &str, metric: &str) -> String {
    format!("link/{link}/{metric}")
}

/// A set of named monotonic counters, created on registration or first
/// use.
#[derive(Debug, Default)]
pub struct TagCounters {
    inner: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl TagCounters {
    pub fn new() -> Self {
        Self::default()
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Counter>>> {
        // Every update under the lock is a single insert of a fresh zero
        // counter, so the map is valid even if a holder panicked.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter behind `key`, created at zero if needed. Bumping the
    /// returned handle is what [`TagCounters::add`] does, without the
    /// lock or the lookup; it stays valid across [`TagCounters::reset`].
    pub fn register(&self, key: &str) -> Arc<Counter> {
        let mut m = self.map();
        if let Some(c) = m.get(key) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        m.insert(key.to_string(), Arc::clone(&c));
        c
    }

    /// Add `n` to `key`, creating it at zero first if needed. Allocates
    /// only when `key` is new.
    pub fn add(&self, key: &str, n: u64) {
        if n != 0 {
            self.register(key).add(n);
        }
    }

    /// Increment `key` by one.
    pub fn inc(&self, key: &str) {
        self.add(key, 1);
    }

    /// Current value of `key` (0 when never bumped).
    pub fn get(&self, key: &str) -> u64 {
        self.map().get(key).map_or(0, |c| c.get())
    }

    /// All `(key, value)` pairs with a nonzero value, in sorted key order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.map()
            .iter()
            .map(|(k, c)| (k, c.get()))
            .filter(|&(_, v)| v != 0)
            .map(|(k, v)| (k.clone(), v))
            .collect()
    }

    /// Number of keys with a nonzero value.
    pub fn len(&self) -> usize {
        self.map().values().filter(|c| c.get() != 0).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zero every key (post-warmup measurement windows). Keys and the
    /// handles registered for them survive.
    pub fn reset(&self) {
        for c in self.map().values() {
            c.reset();
        }
    }
}

impl Clone for TagCounters {
    /// Cloning snapshots the current values into an independent set
    /// (handles registered on the original do not bump the clone).
    fn clone(&self) -> Self {
        let m = self
            .map()
            .iter()
            .map(|(k, c)| (k.clone(), Arc::new(Counter::from(c.get()))))
            .collect();
        Self {
            inner: Mutex::new(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_appear_on_first_bump() {
        let t = TagCounters::new();
        assert_eq!(t.get("cg/0/trips"), 0);
        t.inc("cg/0/trips");
        t.add("cg/0/trips", 2);
        t.add("cg/0/trips", 0); // no-op, must not create churn
        assert_eq!(t.get("cg/0/trips"), 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let t = TagCounters::new();
        t.inc("tenant/2/shed");
        t.inc("tenant/0/served");
        t.add("tenant/1/served", 5);
        assert_eq!(
            t.snapshot(),
            vec![
                ("tenant/0/served".to_string(), 1),
                ("tenant/1/served".to_string(), 5),
                ("tenant/2/shed".to_string(), 1),
            ]
        );
        t.reset();
        assert!(t.is_empty());
    }

    #[test]
    fn chip_and_link_tags_sort_by_index() {
        let t = TagCounters::new();
        t.add(&chip_tag(1, "served"), 4);
        t.add(&chip_tag(0, "served"), 2);
        t.add(&link_tag("ingress-0", "bytes"), 100);
        assert_eq!(t.get("chip/0/served"), 2);
        assert_eq!(t.get("chip/1/served"), 4);
        assert_eq!(t.get("link/ingress-0/bytes"), 100);
    }

    #[test]
    fn link_classes_group_in_the_snapshot() {
        // The collective layer's resource names (tx/rx ports, group
        // uplinks) must land under the same `link/` prefix so one sorted
        // snapshot shows the whole network's utilization together.
        let t = TagCounters::new();
        t.add(&link_tag("tx-0", "bytes"), 10);
        t.add(&link_tag("rx-0", "busy_us"), 7);
        t.add(&link_tag("uplink-1-0", "bytes"), 3);
        let keys: Vec<String> = t.snapshot().into_iter().map(|(k, _)| k).collect();
        assert!(keys.iter().all(|k| k.starts_with("link/")));
        assert_eq!(t.get("link/uplink-1-0/bytes"), 3);
    }

    #[test]
    fn totals_are_thread_schedule_independent() {
        let t = std::sync::Arc::new(TagCounters::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        t.inc(&format!("worker/{}", i % 2));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.get("worker/0") + t.get("worker/1"), 2000);
    }

    #[test]
    fn handles_bump_the_named_key_and_survive_reset() {
        let t = TagCounters::new();
        let served = t.register("tenant/0/served");
        served.inc();
        t.inc("tenant/0/served");
        served.add(3);
        assert_eq!(t.get("tenant/0/served"), 5);
        assert!(
            Arc::ptr_eq(&served, &t.register("tenant/0/served")),
            "registering twice hands out the same counter"
        );
        t.reset();
        assert!(t.is_empty());
        served.add(2);
        assert_eq!(
            t.get("tenant/0/served"),
            2,
            "the handle still feeds the key"
        );
        assert_eq!(t.snapshot(), vec![("tenant/0/served".to_string(), 2)]);
    }

    #[test]
    fn zero_valued_keys_stay_invisible() {
        let t = TagCounters::new();
        let idle = t.register("chip/3/shed");
        t.register("chip/0/routed").inc();
        t.add("chip/1/routed", 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.snapshot(), vec![("chip/0/routed".to_string(), 1)]);
        assert_eq!(t.get("chip/3/shed"), 0);
        idle.inc();
        assert_eq!(t.len(), 2);
        let clone = t.clone();
        t.reset();
        assert_eq!((t.len(), t.snapshot()), (0, Vec::new()));
        assert_eq!(clone.len(), 2, "a clone is an independent snapshot");
        idle.inc();
        assert_eq!(clone.get("chip/3/shed"), 1);
    }

    #[test]
    fn handle_totals_are_thread_schedule_independent() {
        let t = TagCounters::new();
        let keys = [t.register("worker/0"), t.register("worker/1")];
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for i in 0..4 {
                let (t, keys, start) = (&t, &keys, &start);
                s.spawn(move || {
                    start.wait();
                    for n in 0..500 {
                        // Handle bumps race string-keyed bumps of the
                        // same keys and first-touch inserts of others.
                        if n % 2 == 0 {
                            keys[i % 2].inc();
                        } else {
                            t.inc(&format!("worker/{}", i % 2));
                        }
                        if n % 100 == 0 {
                            t.inc(&format!("late/{i}/{n}"));
                        }
                    }
                });
            }
        });
        assert_eq!(t.get("worker/0"), 1000);
        assert_eq!(t.get("worker/1"), 1000);
        assert_eq!(t.len(), 2 + 4 * 5);
    }
}
