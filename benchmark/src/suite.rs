//! The whole suite: every workload in a process of its own (fresh pool,
//! fresh caches, fresh peak-RSS), optionally followed by its traced run;
//! `--selfcheck` runs the suite twice and holds the two against each
//! other.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// `BENCHMARK.json`, generated from the catalog so the two cannot drift.
pub fn benchmark_json() -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": 10,\n  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                esc(w.why)
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// One child run's parsed result line.
struct RunResult {
    failed: u64,
    attempted: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process, pass its report through, and
/// parse the JSON on its last line.
fn child(name: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name} printed nothing"))?;
    let v = serde_json::from_str(last).map_err(|e| format!("{name}: bad result line: {e:?}"))?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("{name}: no {key}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or(format!("{name}: no metrics"))?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        failed: num("failed")?,
        attempted: num("attempted")?,
        metrics,
    })
}

/// `workload/metric` → value for one pass over the suite.
type SuiteResult = BTreeMap<String, f64>;

fn run_suite(args: &Args) -> Result<(SuiteResult, u64), String> {
    let mut all = SuiteResult::new();
    let mut failed = 0;
    for w in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            println!();
            let r = child(w.name, args, trace)?;
            failed += r.failed;
            all.insert(
                format!("{}/failed_frac", w.name),
                r.failed as f64 / r.attempted.max(1) as f64,
            );
            for (k, v) in r.metrics {
                all.insert(format!("{}/{k}", w.name), v);
            }
        }
    }
    Ok((all, failed))
}

pub fn all(args: &Args) -> ExitCode {
    match run_suite(args) {
        Ok((_, 0)) => ExitCode::SUCCESS,
        Ok((_, failed)) => {
            eprintln!("{failed} ops failed their output checks");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `(exact, better, bound)` of a metric by name; host per-layer metrics
/// carry no bound and are only shown.
fn rule(metric: &str) -> (bool, Better, Option<f64>) {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == metric) {
        (m.exact, m.better, Some(m.bound))
    } else if let Some(m) = PER_LAYER.iter().find(|m| m.name == metric) {
        (m.exact, m.better, None)
    } else {
        (true, Better::Lower, None)
    }
}

pub fn selfcheck(args: &Args) -> ExitCode {
    let runs: Result<Vec<_>, _> = (0..2).map(|_| run_suite(args)).collect();
    let runs = match runs {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (a, b) = (&runs[0].0, &runs[1].0);
    let mut bad = runs[0].1 + runs[1].1;
    println!("\n# selfcheck: the same code, the same seed, twice");
    println!(
        "{:<58} {:>22} {:>22}  verdict",
        "workload/metric", "first", "second"
    );
    for (key, &x) in a {
        let y = b.get(key).copied().unwrap_or(f64::NAN);
        let metric = key.split_once('/').map_or(key.as_str(), |(_, m)| m);
        let (exact, better, bound) = rule(metric);
        let verdict = if exact {
            if x.to_bits() == y.to_bits() {
                "bit-equal"
            } else {
                "DIFFERS (exact metric)"
            }
        } else if let Some(bound) = bound {
            // `setup_s` and friends: the second run may not be worse than
            // the first by more than the metric's bound.
            let worse = match better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            if worse <= bound {
                "within bound"
            } else {
                "OUTSIDE BOUND"
            }
        } else {
            "host (shown only)"
        };
        if verdict.chars().next().is_some_and(char::is_uppercase) {
            bad += 1;
        }
        println!("{key:<58} {x:>22?} {y:>22?}  {verdict}");
    }
    if bad == 0 {
        println!("# selfcheck passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("selfcheck: {bad} disagreements or failed ops");
        ExitCode::FAILURE
    }
}
