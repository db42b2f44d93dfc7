//! One workload, one process: set up (three times, timed), run timed
//! passes for `--seconds`, check outputs outside any timed region, print
//! every metric by name, and end with the one-line JSON result.

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, peak_rss_mb, samples_beyond, summarize, Summary};
use crate::workloads::{self, Layers, Outcome, Workload};
use crate::Args;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed-trace passes a traced run compares its traced pass against.
const UNTRACED_PASSES: usize = 3;
/// Layers the harness calls into directly, so a traced pass can give
/// their self time.
const TRACED_LAYERS: [&str; 7] = [
    "executor",
    "perfmodel",
    "plans",
    "network",
    "tune",
    "serve",
    "cluster",
];

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn header(name: &str, args: &Args) {
    let def = catalog::workload(name).expect("checked by main");
    println!(
        "# workload {name} (op = {}) seed {} seconds {} trace {} smoke {}",
        def.op,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    println!("# why: {}", def.why);
    println!(
        "# nproc {} | threads {} | {} | commit {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sw_runtime::thread_policy(),
        env_or("SWDNN_BENCH_RUSTC", "rustc unknown"),
        env_or("SWDNN_BENCH_COMMIT", "unknown"),
    );
}

fn line(name: &str, unit: &str, value: f64, detail: &str) {
    println!("{name:<40} {value:>22} {unit:<9} {detail}");
}

fn host_detail(s: &Summary) -> String {
    format!(
        "n={} median={:.6} q1={:.6} q3={:.6} spread={:.4}",
        s.n,
        s.median,
        s.q1,
        s.q3,
        s.spread()
    )
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the last line
/// of standard output. Values print with every digit `f64` has.
fn result_json(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            assert!(v.is_finite(), "{name} is {v}: not a measurement");
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        body.join(",")
    )
}

fn report_checks(outcome: &Outcome) {
    let c = &outcome.checks;
    println!(
        "# checks: attempted {} failed {} failed_frac {}",
        c.attempted,
        c.failed,
        c.failed as f64 / c.attempted.max(1) as f64
    );
    for note in &c.notes {
        println!("# FAILED: {note}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
}

fn timed_setup(name: &str, args: &Args) -> (Box<dyn Workload>, f64) {
    let t = Instant::now();
    let w = workloads::setup(name, args.seed, args.smoke).expect("checked by main");
    (w, t.elapsed().as_secs_f64())
}

/// Each lap's median across `passes`; their sum is the steady estimate of
/// one pass's host seconds.
fn lap_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let laps = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..laps)
        .map(|l| median(&passes.iter().map(|p| p[l]).collect::<Vec<_>>()))
        .collect()
}

fn pass_seconds(passes: &[Vec<f64>]) -> f64 {
    lap_medians(passes).iter().sum()
}

pub fn one(name: &str, args: &Args) -> ExitCode {
    header(name, args);
    sw_runtime::global().prewarm();
    if args.trace {
        traced(name, args)
    } else {
        untraced(name, args)
    }
}

fn untraced(name: &str, args: &Args) -> ExitCode {
    let mut setups = Vec::with_capacity(SETUPS);
    let (mut w, secs) = timed_setup(name, args);
    setups.push(secs);
    for _ in 1..SETUPS {
        drop(w);
        let (again, secs) = timed_setup(name, args);
        w = again;
        setups.push(secs);
    }

    let mut off = Recorder::new(false);
    let mut passes = Vec::new();
    let enough = if args.smoke { 1 } else { 3 };
    let budget = Instant::now();
    while passes.len() < enough || (!args.smoke && budget.elapsed().as_secs_f64() < args.seconds) {
        passes.push(w.pass(&mut off));
    }
    let ops = w.ops();
    let outcome = w.finish();

    let setup = summarize(&setups);
    let pass = summarize(&passes.iter().map(|p| p.iter().sum()).collect::<Vec<f64>>());
    let pass_s = pass_seconds(&passes);
    let sim = &outcome.sim;
    let n = sim.latencies_us.len();
    let values: Vec<(f64, String)> = vec![
        (setup.median, host_detail(&setup)),
        (
            ops as f64 / pass_s,
            format!(
                "ops/pass={ops} pass_s={pass_s:.6} whole passes: {}",
                host_detail(&pass)
            ),
        ),
        (peak_rss_mb(), "VmHWM".into()),
        (sim.sim_ms_per_op, "exact".into()),
        (sim.percentile(50.0), format!("exact n={n}")),
        (
            sim.percentile(99.0),
            format!("exact n={n} beyond={}", samples_beyond(n, 99.0)),
        ),
        (
            sim.percentile(99.9),
            format!("exact n={n} beyond={}", samples_beyond(n, 99.9)),
        ),
        (sim.max_rate_under_slo, "exact".into()),
        (sim.goodput_frac, "exact".into()),
    ];
    assert_eq!(
        values.len(),
        END_TO_END.len(),
        "one value per end-to-end metric"
    );
    let mut metrics = Vec::new();
    for (def, (value, detail)) in END_TO_END.iter().zip(&values) {
        line(
            def.name,
            def.unit,
            *value,
            &format!("{detail} | {}", def.what),
        );
        metrics.push((def.name, def.unit, *value));
    }
    let laps: Vec<String> = lap_medians(&passes)
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    println!("# lap medians (s): {}", laps.join(" "));
    let fastest: f64 = (0..laps.len())
        .map(|l| passes.iter().map(|p| p[l]).fold(f64::INFINITY, f64::min))
        .sum();
    println!(
        "# fastest laps would give {} ops/host-s",
        ops as f64 / fastest
    );
    println!("# generator lateness: 0 us (arrivals are scheduled on the logical clock)");
    report_checks(&outcome);
    println!("{}", result_json(&outcome, &metrics));
    ExitCode::SUCCESS
}

fn traced(name: &str, args: &Args) -> ExitCode {
    let (mut w, _) = timed_setup(name, args);
    let mut off = Recorder::new(false);
    let untraced: Vec<Vec<f64>> = (0..if args.smoke { 1 } else { UNTRACED_PASSES })
        .map(|_| w.pass(&mut off))
        .collect();
    let mut rec = Recorder::new(true);
    let root = rec.enter("harness", "pass", 0);
    let traced_secs: f64 = w.pass(&mut rec).iter().sum();
    rec.exit(root);
    let outcome = w.finish();

    let mut out = Layers::new();
    w.layers(&rec, &mut out);
    let self_ns = rec.self_time_by_layer();
    for layer in TRACED_LAYERS {
        let metric = catalog::per_layer(&format!("{layer}.trace_self_ms"))
            .expect("every traced layer has a trace_self_ms metric");
        if metric.moves.iter().any(|(_, wl)| *wl == name) {
            let ns = self_ns.get(layer).copied().unwrap_or(0);
            out.insert(metric.name, ns as f64 / 1e6);
        }
    }
    let root_ns = rec.spans().first().map_or(1, |s| s.dur_ns()).max(1);
    out.insert(
        "trace.residual_frac",
        self_ns.get("harness").copied().unwrap_or(0) as f64 / root_ns as f64,
    );
    let base = pass_seconds(&untraced);
    out.insert("trace.overhead_frac", (traced_secs - base) / base);

    let path = args.out_dir.join(format!("{name}.trace.json"));
    match rec.write_chrome_trace(&path, 50_000) {
        Ok(written) => println!(
            "# trace: {} of {} spans written to {}",
            written,
            rec.spans().len(),
            path.display()
        ),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("# traced pass self time by layer (ms):");
    for (layer, ns) in &self_ns {
        println!("#   {layer:<10} {:>12.3}", *ns as f64 / 1e6);
    }

    let mut metrics = Vec::new();
    for def in PER_LAYER {
        let here = def.moves.iter().any(|(_, wl)| *wl == name);
        let value = match (out.get(def.name), here) {
            (Some(v), true) => *v,
            (None, false) => 0.0,
            (None, true) => panic!("{name} must measure {} and did not", def.name),
            (Some(_), false) => panic!(
                "{name} measured {} but the catalog does not say so",
                def.name
            ),
        };
        let detail = match (here, def.exact) {
            (false, _) => "not exercised here",
            (true, true) => "exact",
            (true, false) => "host",
        };
        line(def.name, def.unit, value, detail);
        metrics.push((def.name, def.unit, value));
    }
    report_checks(&outcome);
    println!("{}", result_json(&outcome, &metrics));
    ExitCode::SUCCESS
}
