//! A warm Table III timing allocates O(1), whatever the shape's size, and
//! no timing holds memory that grows with its operands.
//!
//! A counting global allocator wraps the system one. Each of the four
//! Table III rows is timed with its published plan and blocking and with
//! patch-GEMM; patch-GEMM's general entry times tune_search's stride-2 and
//! same-padded geometries; both backward plans (`auto`) time train_sim's
//! two convolutions and a 128×128 paper layer. Every row runs until the run
//! context's scratch arena holds everything a timing leases (the GEMM
//! scratch, a cost-only mesh's put counts and records); one more timing of
//! each may then allocate at most [`WARM_ALLOWANCE`] times. What is left is
//! the sample meshes' CPE vectors. A cost-only mesh that backs its LDM (one
//! 64 KB allocation per CPE), regrows a put buffer by doubling or a loop
//! nest that allocates per walk or per step shows up here. A cost-only walk
//! reads its operands' lengths, not their data, and keeps only the puts its
//! drain can report: no allocation of any timing, the first included, may
//! exceed [`LARGEST_ALLOWANCE`] bytes, where an operand buffer of these
//! shapes is 16–40 MB.
//!
//! The allocator counts every thread, so worker-pool threads cannot hide
//! an allocation; CI runs this file under a 2-thread pool as well. The
//! file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use sw_bench::configs::{paper_shape, table3_configs};
use sw_perfmodel::Blocking;
use sw_tensor::{ConvGeometry, ConvShape, Shape4};
use swdnn::plans::{
    BatchAwarePlan, BwdDataPlan, BwdFilterPlan, ConvPlan, ImageAwarePlan, LowerCtx, PatchGemmPlan,
    PlanTiming,
};

/// Allocations (including reallocations) made so far, by any thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The largest allocation (or reallocation) in bytes since it was last
/// reset, by any thread.
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the only addition
// is a relaxed counter bump, which neither allocates nor touches memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Bytes one allocation of any timing may take: a cost-only mesh's put
/// records (16 bytes per put that ends past every earlier one; ≤ 512 KiB
/// on these rows), with room for one doubling.
const LARGEST_ALLOWANCE: u64 = 1 << 20;

#[test]
fn a_warm_table3_timing_allocates_a_fixed_few_times() {
    let mut rows: Vec<(String, Box<dyn Fn() -> PlanTiming>)> = vec![];
    for (plan, b_b, b_co, ni, no) in table3_configs() {
        let shape = paper_shape(ni, no);
        let plan: Box<dyn ConvPlan> = match plan {
            "img" => Box::new(ImageAwarePlan::new(Blocking { b_b, b_co })),
            _ => Box::new(BatchAwarePlan::auto(&shape)),
        };
        let what = format!("{} on {shape}", plan.name());
        rows.push((
            what,
            Box::new(move || plan.time_full_shape(&shape).unwrap()),
        ));
        // Patch-GEMM on the same row: no test covers its timing path else.
        let patch = PatchGemmPlan::auto(LowerCtx::default(), &shape);
        let what = format!("patch_gemm b_P {} on {shape}", patch.b_p);
        rows.push((
            what,
            Box::new(move || patch.time_full_shape(&shape).unwrap()),
        ));
    }
    // Patch-GEMM's general entry on tune_search's stride-2 and same-padded
    // geometries.
    let general = [
        (
            ConvGeometry::valid(3, 3).with_stride(2, 2),
            Shape4::new(32, 128, 35, 35),
            128,
        ),
        (ConvGeometry::same(3, 3), Shape4::new(32, 64, 16, 16), 64),
    ];
    for (geom, input, no) in general {
        let patch = PatchGemmPlan::auto_for(LowerCtx::default(), input.d1, no);
        let what = format!("patch_gemm b_P {} general {input:?} No {no}", patch.b_p);
        let time = move || patch.time_general(&geom, input, no).unwrap();
        rows.push((what, Box::new(time)));
    }
    // Both backward passes on train_sim's conv1 and conv2 and a paper layer.
    let backward = [
        ConvShape::new(32, 8, 16, 16, 16, 3, 3),
        ConvShape::new(32, 16, 32, 6, 6, 3, 3),
        paper_shape(128, 128),
    ];
    for shape in backward {
        let filter = BwdFilterPlan::auto(&shape);
        let what = format!("bwd_filter b_co {} on {shape}", filter.b_co);
        let time = move || filter.time_full_shape(&shape).unwrap();
        rows.push((what, Box::new(time)));
        let data = BwdDataPlan::auto(&shape);
        let what = format!("bwd_data b_co {} b_Ni {} on {shape}", data.b_co, data.b_ni);
        let time = move || data.time_full_shape(&shape).unwrap();
        rows.push((what, Box::new(time)));
    }
    // Every row once: the arena's buffers then fit the largest row's walk.
    for (what, time) in &rows {
        LARGEST.store(0, Ordering::Relaxed);
        time();
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= LARGEST_ALLOWANCE,
            "{what}: a {largest}-byte allocation in its first timing (allowance {LARGEST_ALLOWANCE})"
        );
    }
    for (what, time) in &rows {
        let before = ALLOCS.load(Ordering::Relaxed);
        let timing = time();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(timing.cycles > 0, "{what}");
        assert!(
            allocs <= WARM_ALLOWANCE,
            "{what}: {allocs} allocations in one warm timing (allowance {WARM_ALLOWANCE})"
        );
    }
}
