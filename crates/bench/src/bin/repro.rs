//! `repro <artifact>|all|list` — regenerate one artifact (or all of them,
//! in-process, in registry order): print its tables and, when
//! `SWDNN_RESULTS_DIR` is set, write their CSVs there.
//!
//! ```sh
//! cargo run --release -p sw-bench --bin repro -- list
//! cargo run --release -p sw-bench --bin repro -- table3_model
//! SWDNN_RESULTS_DIR=results cargo run --release -p sw-bench --bin repro -- all
//! git diff --exit-code results/      # the baseline gate
//! ```
//!
//! It prints and writes and never judges: the committed `results/*.csv`
//! are the expectation, and thresholds live in `sw-bench`'s unit tests.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sw_bench::{Artifact, ARTIFACTS};

fn run(artifact: &Artifact, dir: Option<&Path>) -> std::io::Result<()> {
    let started = Instant::now();
    for table in artifact.tables() {
        table.print();
        if let Some(dir) = dir {
            println!("(csv written to {})", table.write_csv(dir)?.display());
        }
    }
    println!(
        "## {} finished in {:.1}s",
        artifact.name,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Artifact> = match args.as_slice() {
        [word] if word == "all" => ARTIFACTS.iter().collect(),
        [word] if word == "list" => {
            for a in ARTIFACTS {
                println!("{:<18} -> {}", a.name, a.csvs.join(".csv, ") + ".csv");
            }
            return ExitCode::SUCCESS;
        }
        [word] => ARTIFACTS.iter().filter(|a| a.name == word).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: repro <artifact>|all|list");
        return ExitCode::from(2);
    }
    let dir = std::env::var_os("SWDNN_RESULTS_DIR").map(PathBuf::from);
    for artifact in selected {
        if let Err(e) = run(artifact, dir.as_deref()) {
            eprintln!("cannot write the CSVs of {}: {e}", artifact.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
