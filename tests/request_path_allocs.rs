//! The warm serving request path allocates nothing per request.
//!
//! A counting global allocator wraps the system one, and a warm 4-chip
//! fleet takes 12 000 more requests through `Cluster::submit_at`, served,
//! shed at admission and evicted. Per dispatched batch one allocation is
//! expected: the batch's request vector. Beyond that, only the
//! completion and drop logs may grow, by doubling, so the allowance is
//! logarithmic in the request count. Whatever a request costs besides —
//! a tag key, a routing buffer, a trace name — shows up here as at least
//! one allocation per request.
//!
//! The allocator counts every thread, so worker-pool threads cannot hide
//! an allocation; CI runs this file under a 2-thread pool as well. The
//! file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use swdnn::cluster::{Cluster, ClusterConfig};
use swdnn::serve::{BatchPolicy, Priority, RequestClass, ServeConfig};
use swdnn::zoo::serving_mix;
use swdnn::SwdnnError;

/// Allocations (including reallocations) made so far, by any thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the only addition
// is a relaxed counter bump, which neither allocates nor touches memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CHIPS: usize = 4;

/// Offer requests `from..to` of a fixed trace: the serving mix in turn,
/// one request every 40 µs (over the fleet's capacity, so chip 0's
/// queue fills and sheds), every third one low priority from tenant 1.
/// No request carries a dispatch deadline. Returns how many were shed.
fn offer(c: &mut Cluster, from: usize, to: usize) -> u64 {
    let shapes = serving_mix();
    let mut shed = 0;
    for i in from..to {
        let (_, shape) = shapes[i % shapes.len()];
        let class = if i % 3 == 0 {
            RequestClass {
                priority: Priority::Low,
                tenant: 1,
                deadline_us: None,
            }
        } else {
            RequestClass::default()
        };
        match c.submit_at(shape, class, i as u64 * 40) {
            Ok(_) => {}
            Err(SwdnnError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("request {i}: {e}"),
        }
    }
    shed
}

fn batches(c: &Cluster) -> u64 {
    (0..CHIPS).map(|i| c.engine(i).counters.batches.get()).sum()
}

fn evicted(c: &Cluster) -> u64 {
    (0..CHIPS).map(|i| c.engine(i).counters.evicted.get()).sum()
}

#[test]
fn warm_requests_allocate_only_their_batches() {
    let mut c = Cluster::new(ClusterConfig {
        chips: CHIPS,
        serve: ServeConfig {
            policy: BatchPolicy {
                max_batch: 4,
                deadline_us: 1_000,
            },
            queue_limit: 8,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("build cluster");
    // Warm-up: every plan cached, both tenants seen, queues at depth.
    let warm = 2_000;
    offer(&mut c, 0, warm);

    let measured = 12_000;
    let (batches_before, evicted_before) = (batches(&c), evicted(&c));
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let shed = offer(&mut c, warm, warm + measured);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let dispatched = batches(&c) - batches_before;

    assert!(shed > 0, "the trace must shed at admission");
    assert!(evicted(&c) > evicted_before, "the trace must evict");
    assert!(dispatched > 0, "the trace must serve");
    // Each chip's completion and drop logs double at most once per
    // power of two of the requests they hold.
    let growth = 2 * CHIPS as u64 * u64::from(usize::BITS - (warm + measured).leading_zeros());
    assert!(
        allocs <= dispatched + growth,
        "{allocs} allocations over {measured} requests, {dispatched} batches \
         (allowance {dispatched} + {growth})"
    );
}
