//! The names. `BENCHMARK.json` is the contract the driver reads; this file
//! is the same contract as the harness uses it, plus what the JSON has no
//! key for: which end-to-end metric, on which workload, each per-layer
//! metric is expected to move. `cargo test` checks the two agree.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// What one "op" of `ops_per_host_s` is.
    pub op: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "conv_paper",
        op: "conv",
        why: "the paper's own evaluation (Table III rows + Fig. 7 diagonal): swsim, plans and runtime do all the work, serve/cluster/network none",
    },
    WorkloadDef {
        name: "train_sim",
        op: "sample",
        why: "SGD steps with convs on the simulated chip: full functional runs on small tiles, where superstep and handoff overhead beat the microkernel",
    },
    WorkloadDef {
        name: "tune_search",
        op: "search",
        why: "autotune over the schedule space: the only place perfmodel pricing, lower_schedule legality and patch_gemm dominate",
    },
    WorkloadDef {
        name: "serve_zipf",
        op: "request",
        why: "open-loop Zipf traffic over 24 paper-scale shapes on a cold engine: host cost is plan-cache misses, logical latency is batching plus simulated cycles",
    },
    WorkloadDef {
        name: "fleet_serve",
        op: "request",
        why: "4-chip fleet, small shapes, chip failure, under- and over-capacity rungs: misses negligible, per-request routing, accounting and shedding dominate",
    },
    WorkloadDef {
        name: "fleet_train",
        op: "sample",
        why: "8-chip data-parallel training with bucketized overlapped collectives and one chip failure: cluster::collective and the network model, no mesh simulation",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Simulated/logical clock: a pure function of code + seed, so two
    /// runs must agree to the bit (`--selfcheck` enforces it).
    pub exact: bool,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "host: input generation + construction + warm-up pass, median of 3 set-ups",
    },
    EndToEnd {
        name: "ops_per_host_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        what: "host: ops per pass / median timed-pass seconds",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "host: VmHWM of the workload's process",
    },
    EndToEnd {
        name: "sim_ms_per_op",
        unit: "ms_sim",
        better: Better::Lower,
        bound: 0.02,
        exact: true,
        what: "simulated: machine time spent per op (cycles at 1.45 GHz, or logical busy time)",
    },
    EndToEnd {
        name: "lat_p50",
        unit: "us_sim",
        better: Better::Lower,
        bound: 0.06,
        exact: true,
        what: "simulated: median op latency, timed from the scheduled arrival",
    },
    EndToEnd {
        name: "lat_p99",
        unit: "us_sim",
        better: Better::Lower,
        bound: 0.12,
        exact: true,
        what: "simulated: nearest-rank p99 op latency",
    },
    EndToEnd {
        name: "lat_p999",
        unit: "us_sim",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
        what: "simulated: nearest-rank p99.9 op latency",
    },
    EndToEnd {
        name: "max_rate_under_slo",
        unit: "op/s_sim",
        better: Better::Higher,
        bound: 0.05,
        exact: true,
        what: "simulated: highest offered rate meeting the latency limit with no sheds and no growing backlog (closed loop: saturation rate)",
    },
    EndToEnd {
        name: "goodput_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        exact: true,
        what: "simulated: ops finished correctly within the limit / ops offered, on the top rung",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated value or count (bit-equal between runs) vs host median.
    pub exact: bool,
    /// `(end-to-end metric, workload)` pairs this metric should move; the
    /// workloads listed are also the ones whose traced run measures it
    /// (it reads 0 elsewhere).
    pub moves: &'static [(&'static str, &'static str)],
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const OPS: &str = "ops_per_host_s";
const SETUP: &str = "setup_s";
const SIM: &str = "sim_ms_per_op";
const P99: &str = "lat_p99";
const RATE: &str = "max_rate_under_slo";
const GOOD: &str = "goodput_frac";

const CP: &str = "conv_paper";
const TS: &str = "train_sim";
const TU: &str = "tune_search";
const SZ: &str = "serve_zipf";
const FS: &str = "fleet_serve";
const FT: &str = "fleet_train";

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // tensor — reference loops and layout transforms
    pl("tensor.conv2d_ref_mflops", "Mflop/s", H, false, &[(SETUP, CP), (OPS, TS)]),
    pl("tensor.to_layout_us", "us", L, false, &[(SETUP, CP), (OPS, TS)]),
    // swisa — the dual-issue pipeline model that prices every tile
    pl("swisa.kernel_sim_us", "us", L, false, &[(OPS, TU), (OPS, CP)]),
    pl("swisa.cycles_per_iter", "cycle", L, true, &[(SIM, CP), (SIM, TU)]),
    // perfmodel — analytic pricing, plan selection, network model
    pl("perfmodel.estimate_ns", "ns", L, false, &[(OPS, TU)]),
    pl("perfmodel.select_plan_us", "us", L, false, &[(OPS, TU), (OPS, CP)]),
    pl("perfmodel.model_over_measured_min", "ratio", H, true, &[(SIM, CP), (SIM, TU)]),
    pl("perfmodel.model_over_measured_max", "ratio", L, true, &[(SIM, CP), (SIM, TU)]),
    pl("perfmodel.model_ratio_err", "ratio", L, true, &[(SIM, CP), (SIM, TU)]),
    pl("perfmodel.paper_gflops_err", "ratio", L, true, &[(SIM, CP), (SIM, TU)]),
    pl("perfmodel.model_pick_frac_of_best", "ratio", H, true, &[(SIM, TU)]),
    pl("perfmodel.comm_optimal_permille_min", "permille", H, true, &[(SIM, CP)]),
    pl("perfmodel.collective_execute_us", "us", L, false, &[(OPS, FT)]),
    pl("perfmodel.trace_self_ms", "ms", L, false, &[(OPS, CP)]),
    // swsim — the mesh simulator
    pl("swsim.superstep_us", "us", L, false, &[(OPS, TS)]),
    pl("swsim.multi_cg_us", "us", L, false, &[(OPS, TS)]),
    pl("swsim.sim_gflop_per_host_s", "Gflop/s", H, false, &[(OPS, CP)]),
    pl("swsim.gflops_cg", "Gflop/s", H, true, &[(SIM, CP), (SIM, TU)]),
    pl("swsim.compute_frac", "ratio", H, true, &[(SIM, CP)]),
    pl("swsim.dma_stall_frac", "ratio", L, true, &[(SIM, CP)]),
    pl("swsim.unattributed_frac", "ratio", L, true, &[(SIM, CP)]),
    pl("swsim.dma_get_gbytes", "GB", L, true, &[(SIM, CP)]),
    pl("swsim.bus_vectors", "count", L, true, &[(SIM, CP)]),
    pl("swsim.p0_util", "ratio", H, true, &[(SIM, CP)]),
    pl("swsim.ldm_high_water_frac", "ratio", L, true, &[(SIM, CP)]),
    // runtime — the worker pool under every superstep
    pl("runtime.handoff_us", "us", L, false, &[(OPS, TS)]),
    pl("runtime.stepped_step_us", "us", L, false, &[(OPS, TS)]),
    pl("runtime.scratch_lease_ns", "ns", L, false, &[(OPS, TS)]),
    pl("runtime.pool_handoffs_per_op", "count", L, true, &[(OPS, CP), (OPS, TS)]),
    pl("runtime.payload_fresh_allocs", "count", L, true, &[(OPS, TS)]),
    // obs — counters and the library's own trace recorder
    pl("obs.counter_inc_ns", "ns", L, false, &[(OPS, FS)]),
    pl("obs.span_ns", "ns", L, false, &[(OPS, FS)]),
    pl("obs.trace_export_ms", "ms", L, false, &[(OPS, FS)]),
    // plans — the convolution mappings and the register-communication GEMM
    pl("plans.gemm_host_gflops", "Gflop/s", H, false, &[(OPS, CP), (OPS, TU)]),
    pl("plans.gemm_call_us", "us", L, false, &[(OPS, TS)]),
    pl("plans.image_aware.time_ms", "ms", L, false, &[(OPS, CP)]),
    pl("plans.image_aware.cycles", "cycle", L, true, &[(SIM, CP)]),
    pl("plans.batch_aware.time_ms", "ms", L, false, &[(OPS, CP)]),
    pl("plans.batch_aware.cycles", "cycle", L, true, &[(SIM, CP)]),
    pl("plans.patch_gemm.time_ms", "ms", L, false, &[(OPS, TU)]),
    pl("plans.patch_gemm.cycles", "cycle", L, true, &[(SIM, TU)]),
    pl("plans.bwd_filter.time_ms", "ms", L, false, &[(OPS, TS)]),
    pl("plans.bwd_filter.cycles", "cycle", L, true, &[(SIM, TS)]),
    pl("plans.image_aware.run_ms", "ms", L, false, &[(OPS, TS)]),
    pl("plans.bwd_filter.run_ms", "ms", L, false, &[(OPS, TS)]),
    pl("plans.lower_schedule_us", "us", L, false, &[(OPS, TU)]),
    pl("plans.reject_frac", "ratio", L, true, &[(OPS, TU)]),
    pl("plans.trace_self_ms", "ms", L, false, &[(OPS, CP)]),
    // tune — model-guided search
    pl("tune.search_ms", "ms", L, false, &[(OPS, TU)]),
    pl("tune.simulated_per_search", "count", L, true, &[(OPS, TU)]),
    pl("tune.pruned_frac", "ratio", H, true, &[(OPS, TU)]),
    pl("tune.best_over_hand", "ratio", L, true, &[(SIM, TU)]),
    pl("tune.tile_cache_hit_rate", "ratio", H, true, &[(OPS, TU)]),
    pl("tune.trace_self_ms", "ms", L, false, &[(OPS, TU)]),
    // executor — run_config and its resilient twin
    pl("executor.run_config_ms", "ms", L, false, &[(OPS, CP)]),
    pl("executor.overhead_frac", "ratio", L, false, &[(OPS, CP)]),
    pl("executor.resilient_zero_fault_ratio", "ratio", L, false, &[(OPS, CP)]),
    pl("executor.trace_self_ms", "ms", L, false, &[(OPS, CP)]),
    // network — layers, optimiser, the training step
    pl("network.conv_fwd_ms", "ms", L, false, &[(OPS, TS)]),
    pl("network.conv_bwd_ms", "ms", L, false, &[(OPS, TS)]),
    pl("network.host_layers_ms", "ms", L, false, &[(OPS, TS)]),
    pl("network.optim_step_us", "us", L, false, &[(OPS, TS)]),
    pl("network.host_engine_step_ms", "ms", L, false, &[(OPS, TS)]),
    pl("network.sim_cycles_per_step", "cycle", L, true, &[(SIM, TS)]),
    pl("network.trace_self_ms", "ms", L, false, &[(OPS, TS)]),
    // serve — plan cache, batcher, dispatch, accounting
    pl("serve.miss_ms", "ms", L, false, &[(OPS, SZ)]),
    pl("serve.plan_misses", "count", L, true, &[(OPS, SZ)]),
    pl("serve.plan_hit_rate", "ratio", H, true, &[(OPS, SZ)]),
    pl("serve.summary_ms", "ms", L, false, &[(OPS, SZ)]),
    pl("serve.warm_ns_per_req", "ns", L, false, &[(OPS, FS)]),
    pl("serve.shed_ns_per_req", "ns", L, false, &[(OPS, FS)]),
    pl("serve.batcher_ns", "ns", L, false, &[(OPS, FS)]),
    pl("serve.batch_fill", "ratio", H, true, &[(P99, SZ), (RATE, SZ)]),
    pl("serve.busy_frac", "ratio", L, true, &[(P99, SZ), (RATE, SZ)]),
    pl("serve.dispatch_run_ms", "ms", L, false, &[(OPS, SZ)]),
    pl("serve.trace_self_ms", "ms", L, false, &[(OPS, SZ)]),
    // cluster — router, fleet, data-parallel trainer, collectives
    pl("cluster.route_ns", "ns", L, false, &[(OPS, FS)]),
    pl("cluster.submit_ns_per_req", "ns", L, false, &[(OPS, FS)]),
    pl("cluster.fail_chip_us", "us", L, false, &[(OPS, FS)]),
    pl("cluster.spill_frac", "ratio", L, true, &[(GOOD, FS)]),
    pl("cluster.rerouted", "count", L, true, &[(GOOD, FS)]),
    pl("cluster.train_step_host_us", "us", L, false, &[(OPS, FT)]),
    pl("cluster.collective_us", "us", L, false, &[(OPS, FT)]),
    pl("cluster.reduce_us", "us", L, false, &[(OPS, FT)]),
    pl("cluster.comm_us", "us_sim", L, true, &[(SIM, FT)]),
    pl("cluster.hidden_us", "us_sim", H, true, &[(SIM, FT)]),
    pl("cluster.overlap_permille", "permille", H, true, &[(SIM, FT)]),
    pl("cluster.wire_bytes_per_chip", "B", L, true, &[(SIM, FT)]),
    pl("cluster.trace_self_ms", "ms", L, false, &[(OPS, FS), (OPS, FT)]),
    // gpuref — the K40m comparison of Fig. 7
    pl("gpuref.speedup_min", "ratio", H, true, &[(SIM, CP)]),
    pl("gpuref.speedup_max", "ratio", H, true, &[(SIM, CP)]),
    pl("gpuref.im2col_mflops", "Mflop/s", H, false, &[(SETUP, CP)]),
    // trace — what the instrument itself costs and misses
    pl("trace.overhead_frac", "ratio", L, false,
        &[(OPS, CP), (OPS, TS), (OPS, TU), (OPS, SZ), (OPS, FS), (OPS, FT)]),
    pl("trace.residual_frac", "ratio", L, false,
        &[(OPS, CP), (OPS, TS), (OPS, TU), (OPS, SZ), (OPS, FS), (OPS, FT)]),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("string key {key}"))
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let j = benchmark_json();
        let mut k = keys(&j);
        k.sort_unstable();
        assert_eq!(
            k,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let secs = j.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
        let command = j.get("command").and_then(Value::as_array).unwrap();
        assert!(!command.is_empty() && command.len() <= 32);
        for c in command {
            let c = c.as_str().unwrap();
            assert!(c.len() <= 200 && !c.starts_with('/') && !c.contains(".."));
        }
        let paths = j.get("paths").and_then(Value::as_array).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }

    #[test]
    fn workloads_match_the_catalog() {
        let j = benchmark_json();
        let ws = j.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(ws.len(), 6);
        assert_eq!(ws.len(), WORKLOADS.len());
        for (w, def) in ws.iter().zip(WORKLOADS) {
            assert_eq!(keys(w), ["name", "why"]);
            assert_eq!(str_of(w, "name"), def.name);
            assert_eq!(str_of(w, "why"), def.why);
            assert!(name_ok(def.name));
            assert!(
                def.why.len() <= 200 && !def.why.contains('\n'),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn end_to_end_metrics_match_the_catalog() {
        let j = benchmark_json();
        let ms = j.get("end_to_end").and_then(Value::as_array).unwrap();
        assert!(ms.len() <= 16);
        assert_eq!(ms.len(), END_TO_END.len());
        for (m, def) in ms.iter().zip(END_TO_END) {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            assert_eq!(str_of(m, "name"), def.name);
            assert_eq!(str_of(m, "unit"), def.unit);
            assert_eq!(str_of(m, "better"), def.better.as_str());
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert_eq!(bound, def.bound);
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(name_ok(def.name) && unit_ok(def.unit), "{}", def.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn per_layer_metrics_match_the_catalog_and_name_what_they_move() {
        let j = benchmark_json();
        let ms = j.get("per_layer").and_then(Value::as_array).unwrap();
        assert!(ms.len() <= 128);
        assert_eq!(ms.len(), PER_LAYER.len());
        for (m, def) in ms.iter().zip(PER_LAYER) {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            assert_eq!(str_of(m, "name"), def.name);
            assert_eq!(str_of(m, "unit"), def.unit);
            assert_eq!(str_of(m, "better"), def.better.as_str());
            assert!(name_ok(def.name) && unit_ok(def.unit), "{}", def.name);
            assert!(def.name.contains('.'), "{} is not layer.metric", def.name);
            assert!(!def.moves.is_empty(), "{} moves nothing", def.name);
            for (e2e, wl) in def.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *e2e),
                    "{}: unknown end-to-end metric {e2e}",
                    def.name
                );
                assert!(
                    workload(wl).is_some(),
                    "{}: unknown workload {wl}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn every_name_is_used_once() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
