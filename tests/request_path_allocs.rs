//! The warm serving request path allocates nothing per request.
//!
//! A counting global allocator wraps the system one. A warm 4-chip fleet
//! takes 12 000 more requests through `Cluster::submit_at`, served, shed
//! at admission and evicted; then a warm 4-CG engine under the default
//! `ChaosConfig` serves 1 000 more batches through the fault-aware
//! accounting path (breaker routing, fault sampling, per-CG tags). Per
//! dispatched batch one allocation is expected: the batch's request
//! vector. Beyond that, only the completion and drop logs may grow, by
//! doubling, so the allowance is logarithmic in the request count.
//! Whatever a request or a batch costs besides — a tag key, a routing
//! buffer, a trace name — shows up here as at least one allocation per
//! request or batch.
//!
//! A warm `ServeEngine::summary()` or `Cluster::summary()` reads all its
//! percentiles from one sample buffer, so either may allocate once.
//!
//! The allocator counts every thread, so worker-pool threads cannot hide
//! an allocation; CI runs this file under a 2-thread pool as well. The
//! file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use sw_tensor::ConvShape;
use swdnn::cluster::{Cluster, ClusterConfig};
use swdnn::serve::{BatchPolicy, ChaosConfig, Priority, RequestClass, ServeConfig, ServeEngine};
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

/// Log growth allowance: the completion and drop logs of `logs` holders
/// double at most once per power of two of the `requests` they hold.
fn log_growth(logs: usize, requests: usize) -> u64 {
    2 * logs as u64 * u64::from(usize::BITS - requests.leading_zeros())
}

/// Serve `batches` full batches of one shape on a chaos engine, one cap
/// release per four submissions. Returns the requests served.
fn serve_batches(e: &mut ServeEngine, batches: usize) -> usize {
    // ro = 8 splits over all four CGs.
    let shape = ConvShape::new(16, 8, 8, 8, 8, 3, 3);
    let mut served = 0;
    for _ in 0..batches {
        for _ in 0..4 {
            e.submit(shape).expect("the queue has room");
        }
        served += e.poll().expect("chaos dispatch");
    }
    served
}

/// Allocations made by the second of two calls of `f`.
fn warm_allocs<T>(f: impl Fn() -> T) -> u64 {
    std::hint::black_box(f());
    let before = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCS.load(Ordering::Relaxed) - before
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
    let growth = log_growth(CHIPS, warm + measured);
    assert!(
        allocs <= dispatched + growth,
        "{allocs} allocations over {measured} requests, {dispatched} batches \
         (allowance {dispatched} + {growth})"
    );

    // A chip whose summary fills every percentile: its completions mix
    // both tiers and it has dropped requests.
    let chip = (0..CHIPS)
        .find(|&i| {
            let e = c.engine(i);
            !e.drops().is_empty() && e.completions().iter().any(|x| x.priority == Priority::Low)
        })
        .expect("a chip that served low-priority work and dropped some");
    let chip_allocs = warm_allocs(|| c.engine(chip).summary());
    assert!(
        chip_allocs <= 1,
        "chip {chip} summary: {chip_allocs} allocations"
    );
    let fleet_allocs = warm_allocs(|| c.summary());
    assert!(
        fleet_allocs <= 1,
        "fleet summary: {fleet_allocs} allocations"
    );

    // The chaos accounting path: same gate, one engine, inert faults.
    let mut e = ServeEngine::new(ServeConfig {
        policy: BatchPolicy {
            max_batch: 4,
            deadline_us: 1_000,
        },
        chaos: Some(ChaosConfig::default()),
        ..ServeConfig::default()
    })
    .expect("build chaos engine");
    let (warm, measured) = (100, 1_000);
    serve_batches(&mut e, warm);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let served = serve_batches(&mut e, measured);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(
        served,
        4 * measured,
        "every batch must be a full cap release"
    );
    let dispatched = measured as u64;
    let growth = log_growth(1, 4 * (warm + measured));
    assert!(
        allocs <= dispatched + growth,
        "chaos engine: {allocs} allocations over {dispatched} batches \
         (allowance {dispatched} + {growth})"
    );
    let summary_allocs = warm_allocs(|| e.summary());
    assert!(
        summary_allocs <= 1,
        "chaos engine summary: {summary_allocs} allocations"
    );
}
