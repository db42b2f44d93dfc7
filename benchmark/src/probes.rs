//! Per-layer probes: each one times calls into one layer's public
//! functions from outside, on a fixed input, and reports a host median (or
//! an exact count). A workload's traced run calls the probes of the layers
//! it leans on; `catalog::PER_LAYER` says which.

use crate::catalog;
use crate::gen::lattice_tensor;
use crate::stats::median;
use crate::workloads::conv_paper::paper_shape;
use crate::workloads::Layers;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use sw_perfmodel::{
    select_plan, Blocking, ChipSpec, CollectiveSchedule, ConvPerfModel, InterconnectSpec,
    LinkOccupancy, NetworkModel, PlanKind, Topology,
};
use sw_sim::{CgStats, LdmBuf, Mesh};
use sw_tensor::{conv2d_ref, ConvShape, Layout};
use swdnn::plans::gemm_mesh::{regcomm_gemm_with, zero_c, GemmBlock, GemmScratch};
use swdnn::plans::{lower_schedule, ConvPlan, LowerCtx, Schedule};

/// The catalog's `&'static` spelling of a metric name built at run time;
/// a name the catalog does not list is a bug in the harness.
pub fn key(name: &str) -> &'static str {
    catalog::per_layer(name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalog"))
        .name
}

/// Median seconds per call over `reps` batches of `calls` calls each.
pub fn per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

/// A small convolution every functional probe shares: mesh-eligible for
/// the image-aware, batch-aware and backward-filter plans alike.
pub fn small_shape() -> ConvShape {
    ConvShape::new(32, 16, 16, 8, 8, 3, 3)
}

pub fn tensor(out: &mut Layers) {
    let s = ConvShape::new(32, 8, 16, 16, 16, 3, 3);
    let x = lattice_tensor(s.input_shape(), Layout::Nchw, 1, 20);
    let w = lattice_tensor(s.filter_shape(), Layout::Nchw, 1, 21);
    let secs = per_call(5, 1, || {
        black_box(conv2d_ref(s, black_box(&x), black_box(&w)));
    });
    out.insert("tensor.conv2d_ref_mflops", s.flops() as f64 / secs / 1e6);
    let secs = per_call(5, 4, || {
        black_box(
            black_box(&x)
                .to_layout(Layout::ImageAware)
                .to_layout(Layout::Nchw),
        );
    });
    out.insert("tensor.to_layout_us", secs * 1e6 / 2.0);
}

pub fn swisa(out: &mut Layers) {
    use sw_isa::{reordered_gemm_kernel, DualPipe, KernelSpec};
    let cycles = |n: usize| {
        DualPipe::default()
            .run(&reordered_gemm_kernel(KernelSpec::new(n)))
            .cycles
    };
    out.insert(
        "swisa.cycles_per_iter",
        (cycles(32) - cycles(16)) as f64 / 16.0,
    );
    let secs = per_call(7, 20, || {
        black_box(cycles(black_box(16)));
    });
    out.insert("swisa.kernel_sim_us", secs * 1e6);
}

pub fn select_plan_cost(out: &mut Layers) {
    let chip = ChipSpec::sw26010();
    let shape = paper_shape(128, 128);
    let secs = per_call(7, 20, || {
        black_box(select_plan(black_box(&shape), &chip));
    });
    out.insert("perfmodel.select_plan_us", secs * 1e6);
}

pub fn estimate_cost(out: &mut Layers) {
    let model = ConvPerfModel::default();
    let blk = Blocking { b_b: 32, b_co: 16 };
    let secs = per_call(7, 2_000, || {
        black_box(model.estimate(PlanKind::ImageSizeAware, black_box(blk), 128, 128, 128, 3));
    });
    out.insert("perfmodel.estimate_ns", secs * 1e9);
}

struct GemmState {
    a: Vec<f64>,
    b: Vec<f64>,
    c: LdmBuf,
}

/// Build a mesh holding an `m8×n8` C block per CPE and return a closure
/// running one full 8-round register-communication GEMM rotation on it.
fn gemm_rotation(m8: usize, n8: usize, k8: usize) -> (Mesh<GemmState>, GemmScratch, GemmBlock) {
    let mut mesh = Mesh::new(ChipSpec::sw26010(), |r, c| GemmState {
        a: (0..k8 * m8).map(|i| ((i + r) % 7) as f64 * 0.25).collect(),
        b: (0..k8 * n8).map(|i| ((i + c) % 5) as f64 * 0.25).collect(),
        c: LdmBuf { offset: 0, len: 0 },
    });
    mesh.superstep(|ctx, s| {
        s.c = ctx.ldm_alloc(m8 * n8)?;
        Ok(())
    })
    .expect("C block fits the LDM");
    zero_c(&mut mesh, |s: &GemmState| s.c).expect("zero C");
    let scratch = GemmScratch::new(mesh.chip.mesh_dim);
    (mesh, scratch, GemmBlock::dense(m8, n8, k8, true))
}

fn rotate(mesh: &mut Mesh<GemmState>, scratch: &mut GemmScratch, blk: GemmBlock) {
    regcomm_gemm_with(
        mesh,
        blk,
        scratch,
        |_, s: &GemmState, dst: &mut Vec<f64>| dst.extend_from_slice(&s.a),
        |_, s: &GemmState, dst: &mut Vec<f64>| dst.extend_from_slice(&s.b),
        |s| (s.c, 0),
    )
    .expect("gemm rotation");
}

/// Real flops per host second of the register-communication GEMM on a
/// paper-scale block (`No/8 = 16`, 128 pixels, `Ni/8 = 16`).
pub fn gemm_large(out: &mut Layers) {
    let (m8, n8, k8) = (16, 128, 16);
    let (mut mesh, mut scratch, blk) = gemm_rotation(m8, n8, k8);
    rotate(&mut mesh, &mut scratch, blk);
    let secs = per_call(5, 2, || rotate(&mut mesh, &mut scratch, blk));
    // 64 CPEs × 8 rounds × one m8×n8×k8 block update each.
    let flops = 64.0 * 8.0 * 2.0 * (m8 * n8 * k8) as f64;
    out.insert("plans.gemm_host_gflops", flops / secs / 1e9);
}

/// One rotation on a training-sized block, where the call is all
/// overhead; also counts fresh broadcast-payload allocations once warm.
pub fn gemm_small(out: &mut Layers) {
    let (mut mesh, mut scratch, blk) = gemm_rotation(2, 4, 2);
    rotate(&mut mesh, &mut scratch, blk);
    rotate(&mut mesh, &mut scratch, blk);
    let warm = scratch.payload_pool().fresh_allocs();
    let secs = per_call(7, 10, || rotate(&mut mesh, &mut scratch, blk));
    out.insert("plans.gemm_call_us", secs * 1e6);
    out.insert(
        "runtime.payload_fresh_allocs",
        (scratch.payload_pool().fresh_allocs() - warm) as f64,
    );
}

/// `{prefix}.time_ms` (host median) and `{prefix}.cycles` (exact) of one
/// sampled timing; `time` returns the simulated cycles.
pub fn plan_timing(out: &mut Layers, prefix: &str, mut time: impl FnMut() -> u64) {
    let mut cycles = 0;
    let secs = per_call(3, 1, || cycles = time());
    out.insert(key(&format!("{prefix}.time_ms")), secs * 1e3);
    out.insert(key(&format!("{prefix}.cycles")), cycles as f64);
}

/// [`plan_timing`] for anything behind the `ConvPlan` trait.
pub fn conv_plan_timing(out: &mut Layers, prefix: &str, shape: &ConvShape, plan: &dyn ConvPlan) {
    plan_timing(out, prefix, || {
        plan.time_full_shape(shape)
            .expect("probe shape is supported")
            .cycles
    });
}

pub fn executor(out: &mut Layers) {
    let shape = paper_shape(128, 128);
    let secs = per_call(5, 1, || {
        black_box(
            swdnn::Executor::new()
                .run_config(&shape)
                .expect("paper shape runs"),
        );
    });
    out.insert("executor.run_config_ms", secs * 1e3);

    // Zero-fault cost of the resilient wrapper over the plain operator.
    let s = small_shape();
    let x = lattice_tensor(s.input_shape(), Layout::Nchw, 1, 22);
    let w = lattice_tensor(s.filter_shape(), Layout::Nchw, 1, 23);
    let conv = swdnn::Conv2d::new(s).expect("valid shape");
    let plain = per_call(5, 2, || {
        black_box(conv.forward(&x, &w).expect("forward"));
    });
    let resilient = swdnn::ResilientExecutor::new();
    let guarded = per_call(5, 2, || {
        black_box(resilient.run(&s, &x, &w).expect("resilient run"));
    });
    out.insert("executor.resilient_zero_fault_ratio", guarded / plain);
}

/// Chip-level speed-up over the K40m model on every fourth point of the
/// Fig. 7 diagonal, and the host speed of the im2col oracle.
pub fn gpuref(out: &mut Layers, seed: u64) {
    let exec = swdnn::Executor::new();
    let gpu = sw_gpuref::K40m::default();
    let speedups: Vec<f64> = (0..6)
        .map(|i| {
            let shape = paper_shape(64 + 64 * i, 64 + 64 * i);
            let chip = exec
                .run_multi_cg(&shape, 4)
                .expect("paper shape splits over 4 CGs");
            chip.gflops_chip / gpu.conv_gflops(&shape)
        })
        .collect();
    out.insert(
        "gpuref.speedup_min",
        speedups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.insert(
        "gpuref.speedup_max",
        speedups.iter().copied().fold(0.0, f64::max),
    );

    let s = small_shape();
    let x = lattice_tensor(s.input_shape(), Layout::Nchw, seed, 24);
    let w = lattice_tensor(s.filter_shape(), Layout::Nchw, seed, 25);
    let secs = per_call(5, 2, || {
        black_box(sw_gpuref::conv2d_im2col(&s, &x, &w));
    });
    out.insert("gpuref.im2col_mflops", s.flops() as f64 / secs / 1e6);
}

/// What an empty superstep and an empty 4-CG fan-out cost on the host:
/// the floor under every small-tile simulation.
pub fn swsim_overheads(out: &mut Layers) {
    let mut mesh = Mesh::new(ChipSpec::sw26010(), |_, _| ());
    let secs = per_call(7, 200, || {
        mesh.superstep(|_, _| Ok(())).expect("empty superstep")
    });
    out.insert("swsim.superstep_us", secs * 1e6);
    let rt = sw_runtime::global();
    let secs = per_call(7, 200, || {
        black_box(sw_sim::run_multi_cg_on(rt, 4, |_| (CgStats::default(), ())));
    });
    out.insert("swsim.multi_cg_us", secs * 1e6);
}

pub fn runtime(out: &mut Layers) {
    let rt = sw_runtime::global();
    let sink = AtomicU64::new(0);
    let secs = per_call(7, 500, || {
        rt.run(2, |i| {
            sink.fetch_add(i as u64, Ordering::Relaxed);
        })
    });
    out.insert("runtime.handoff_us", secs * 1e6);
    let steps = 64;
    let secs = per_call(7, 20, || {
        rt.run_stepped(
            steps,
            |_| 2,
            |_, slot| {
                sink.fetch_add(slot as u64, Ordering::Relaxed);
            },
            |_| true,
        )
    });
    out.insert("runtime.stepped_step_us", secs * 1e6 / steps as f64);
    let secs = per_call(7, 2_000, || {
        black_box(rt.scratch(0xBE4C, Vec::<f64>::new).len());
    });
    out.insert("runtime.scratch_lease_ns", secs * 1e9);
}

pub fn obs(out: &mut Layers) {
    let counter = sw_obs::Counter::default();
    let secs = per_call(7, 100_000, || black_box(&counter).inc());
    out.insert("obs.counter_inc_ns", secs * 1e9);

    let events = 20_000;
    let mut rec = sw_obs::Recorder::enabled();
    let t = Instant::now();
    for i in 0..events {
        rec.span_cat("batch", "serve", 0, 0, i as f64, 1.0, Vec::new());
    }
    out.insert(
        "obs.span_ns",
        t.elapsed().as_secs_f64() * 1e9 / events as f64,
    );
    let trace = rec.take();
    let secs = per_call(3, 1, || {
        black_box(trace.to_json_string().len());
    });
    out.insert("obs.trace_export_ms", secs * 1e3);
}

/// Host cost of pricing one ring allreduce over 8 chips on the grouped
/// topology — the inner loop of every bucketized collective.
pub fn collective(out: &mut Layers) {
    let net = NetworkModel::new(InterconnectSpec::sw_cluster(), Topology::sw_supernode());
    let members: Vec<usize> = (0..8).collect();
    let sched = CollectiveSchedule::ring(&members, 800);
    let secs = per_call(7, 200, || {
        let mut occ = LinkOccupancy::new();
        black_box(net.execute(&mut occ, black_box(&sched), 0.0));
    });
    out.insert("perfmodel.collective_execute_us", secs * 1e6);
}

/// The dense schedule space the search enumerates for a paper shape:
/// how long one lowering (legality check + plan construction) takes and
/// what share of the space it rejects.
pub fn lowering(out: &mut Layers) {
    let shape = paper_shape(128, 128);
    let ctx = LowerCtx::default();
    let mut space = Vec::new();
    for b_co in [16, 8, 4, 2, 1] {
        space.push(Schedule::batch_aware(b_co));
    }
    for b_b in [8, 16, 32, 64, 128] {
        for b_co in [32, 16, 8, 4, 2, 1] {
            space.push(Schedule::image_aware(b_b, b_co));
        }
    }
    let rejected = space
        .iter()
        .filter(|s| lower_schedule(s, &shape, &ctx).is_err())
        .count();
    out.insert("plans.reject_frac", rejected as f64 / space.len() as f64);
    let secs = per_call(7, 20, || {
        for s in &space {
            black_box(lower_schedule(s, &shape, &ctx).is_ok());
        }
    });
    out.insert("plans.lower_schedule_us", secs * 1e6 / space.len() as f64);
}

pub fn batcher(out: &mut Layers) {
    use swdnn::serve::{BatchPolicy, MicroBatcher, QueuedRequest};
    let shape = ConvShape::new(16, 8, 8, 8, 8, 3, 3);
    let policy = BatchPolicy {
        max_batch: 8,
        deadline_us: 2_000,
    };
    let secs = per_call(7, 200, || {
        let mut b = MicroBatcher::new(policy, 64);
        for id in 0..8 {
            let _ = b.push(QueuedRequest::basic(id, shape, id));
        }
        black_box(b.pop_batch(8));
    });
    out.insert("serve.batcher_ns", secs * 1e9 / 8.0);
}

/// One functional convolution row-sharded over the four core groups.
pub fn dispatch_run(out: &mut Layers, seed: u64) {
    let shape = ConvShape::new(16, 8, 8, 8, 8, 3, 3);
    let x = lattice_tensor(shape.input_shape(), Layout::Nchw, seed, 26);
    let w = lattice_tensor(shape.filter_shape(), Layout::Nchw, seed, 27);
    let dispatcher = swdnn::serve::ShardedDispatcher::new(ChipSpec::sw26010(), 4).expect("4 CGs");
    let secs = per_call(5, 1, || {
        black_box(dispatcher.run(&shape, &x, &w).expect("row-sharded run"));
    });
    out.insert("serve.dispatch_run_ms", secs * 1e3);
}

pub fn router(out: &mut Layers, menu: &[ConvShape]) {
    let router = swdnn::cluster::ShapeRouter::new(4, 16);
    let loads = [3usize, 0, 7, 1];
    let down = [false; 4];
    let secs = per_call(7, 1_000, || {
        for s in menu {
            black_box(router.route(black_box(s), &loads, &down, 48));
        }
    });
    out.insert("cluster.route_ns", secs * 1e9 / menu.len() as f64);
}
