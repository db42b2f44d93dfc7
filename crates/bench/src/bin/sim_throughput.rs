//! `sim_throughput` — host wall-clock throughput of the simulator over the
//! Table III shapes plus the serve-engine closed loop, the artifact the CI
//! bench-regression job gates host-side performance with.
//!
//! ```sh
//! # Measure (min wall-clock of 5 reps per conv shape) and write
//! # SIM_THROUGHPUT.json into $SWDNN_RESULTS_DIR (default: results/).
//! cargo run --release -p sw-bench --bin sim_throughput
//!
//! # Three reps per shape (min-of-reps) — the quick CI configuration.
//! cargo run --release -p sw-bench --bin sim_throughput -- --smoke
//!
//! # Measure and gate against the committed baseline: exit 1 when host
//! # wall-clock regresses >15% (or any simulated metric drifts >2%).
//! cargo run --release -p sw-bench --bin sim_throughput -- --smoke \
//!     --check results/SIM_THROUGHPUT.baseline.json
//! ```
//!
//! The simulated side of every row is deterministic; only the `host`
//! blocks depend on the machine. Regenerate the baseline when the bench
//! hardware changes (see CONTRIBUTING.md):
//!
//! ```sh
//! cargo run --release -p sw-bench --bin sim_throughput
//! cp results/SIM_THROUGHPUT.json results/SIM_THROUGHPUT.baseline.json
//! ```

use std::path::{Path, PathBuf};
use std::process::exit;
use sw_bench::serve_load::{check_serve_slo, SERVE_REPORT_CONFIG};
use sw_bench::sim_throughput::{compare_with_host_retry, measure_suite};
use sw_obs::{Snapshot, Tolerances};

fn usage() -> ! {
    eprintln!(
        "usage: sim_throughput [--smoke] [--check <baseline>]\n\
         \u{20}  --smoke            three reps per conv shape instead of five\n\
         \u{20}  --check <baseline> exit 1 on regression vs the saved snapshot"
    );
    exit(2);
}

fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("SWDNN_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    // host_secs is min-of-reps (see `measure_conv`). The 15% gate sits
    // close to shared-runner scheduling noise, so even the smoke mode
    // takes three samples; a couple of descheduled reps can't fail it.
    let reps = if smoke { 3 } else { 5 };

    // Spawn the worker pool before the timed region so no rep pays thread
    // start-up, and record which policy sized it — host numbers are only
    // comparable across runs with the same thread policy.
    sw_runtime::global().prewarm();
    println!("threads: {}", sw_runtime::thread_policy());

    let mut current = measure_suite(reps);
    for r in &current.reports {
        let h = r.host.expect("sim_throughput rows carry a host block");
        println!(
            "{:<55} {:>8.3} s host   {:>9.2} sim-GF/host-s",
            r.key(),
            h.host_secs,
            h.sim_gflops_per_host_sec
        );
    }

    match check {
        Some(baseline_path) => {
            let baseline = Snapshot::load(Path::new(&baseline_path)).unwrap_or_else(|e| {
                eprintln!("cannot load baseline: {e}");
                exit(2);
            });
            // One automatic re-measure absorbs whole-window scheduler
            // bursts on shared runners; a real host regression (or any
            // simulated drift) fails both passes.
            let report =
                compare_with_host_retry(&baseline, &mut current, &Tolerances::default(), || {
                    measure_suite(reps)
                });
            print!("{}", report.summary());
            // The serve row additionally carries hard SLOs (absolute
            // floor/ceiling, not relative-to-baseline): evaluate on the
            // post-retry snapshot so a single scheduler burst can't fail
            // the throughput floor spuriously.
            let slo_ok = gate_serve_slo(&current);
            exit(if report.is_ok() && slo_ok { 0 } else { 1 });
        }
        None => {
            gate_serve_slo(&current);
            let dir = results_dir();
            std::fs::create_dir_all(&dir).expect("create results dir");
            let path = dir.join("SIM_THROUGHPUT.json");
            current.save(&path).expect("write SIM_THROUGHPUT.json");
            println!("wrote {}", path.display());
        }
    }
}

/// Print (and return) the serve row's hard-SLO verdict.
fn gate_serve_slo(snapshot: &Snapshot) -> bool {
    let row = snapshot
        .reports
        .iter()
        .find(|r| r.config == SERVE_REPORT_CONFIG)
        .expect("sim_throughput suite always contains the serve row");
    match check_serve_slo(row) {
        Ok(line) => {
            println!("{line}");
            true
        }
        Err(violation) => {
            eprintln!("SLO VIOLATION: {violation}");
            false
        }
    }
}
