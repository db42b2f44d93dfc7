//! A warm Table III timing allocates O(1), whatever the shape's size.
//!
//! A counting global allocator wraps the system one. Each of the four
//! Table III rows is timed with its published plan and blocking until the
//! run context's scratch arena holds everything a timing leases (the zero
//! operands, the GEMM scratch, a cost-only mesh's put buffers); one more
//! `time_full_shape` of each row may then allocate at most
//! [`WARM_ALLOWANCE`] times. What is left is the two sample meshes' CPE
//! vectors. A cost-only mesh that backs its LDM (one 64 KB allocation per
//! CPE) or regrows a put buffer by doubling shows up here as hundreds.
//!
//! The allocator counts every thread, so worker-pool threads cannot hide
//! an allocation; CI runs this file under a 2-thread pool as well. The
//! file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use sw_bench::configs::{paper_shape, table3_configs};
use sw_perfmodel::Blocking;
use swdnn::plans::{BatchAwarePlan, ConvPlan, ImageAwarePlan};

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

/// Allocations one warm timing may make: two sample meshes' CPE vectors,
/// with room for two more.
const WARM_ALLOWANCE: u64 = 4;

#[test]
fn a_warm_table3_timing_allocates_a_fixed_few_times() {
    let rows: Vec<_> = table3_configs()
        .into_iter()
        .map(|(plan, b_b, b_co, ni, no)| {
            let shape = paper_shape(ni, no);
            let plan: Box<dyn ConvPlan> = match plan {
                "img" => Box::new(ImageAwarePlan::new(Blocking { b_b, b_co })),
                _ => Box::new(BatchAwarePlan::auto(&shape)),
            };
            (shape, plan)
        })
        .collect();
    // Every row once: the arena's buffers then fit the largest row's walk.
    for (shape, plan) in &rows {
        plan.time_full_shape(shape)
            .expect("Table III row is supported");
    }
    for (shape, plan) in &rows {
        let before = ALLOCS.load(Ordering::Relaxed);
        let timing = plan.time_full_shape(shape).expect("warm timing");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(timing.cycles > 0, "{shape}");
        assert!(
            allocs <= WARM_ALLOWANCE,
            "{} on {shape}: {allocs} allocations in one warm timing (allowance {WARM_ALLOWANCE})",
            plan.name()
        );
    }
}
