//! The byte gate on `results/`, tier-1 sized: every artifact that
//! regenerates within 15 s in a debug build is rendered in-process and
//! compared byte for byte with its committed CSV, and the registry and the
//! directory must name exactly the same files. CI's `results` job runs the
//! whole registry in release (`repro all`, then `git diff --exit-code`).

use std::collections::BTreeSet;
use std::path::PathBuf;
use sw_bench::ARTIFACTS;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Render `name` in-process and compare with its committed CSVs.
fn regenerates(name: &str) {
    let artifact = ARTIFACTS
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("{name} is not registered"));
    for table in artifact.tables() {
        let path = results_dir().join(format!("{}.csv", table.name()));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            table.to_csv(),
            committed,
            "{} drifted from `repro {name}`; regenerate and commit the diff",
            path.display()
        );
    }
}

// One test per artifact so they run side by side. Debug-build render times
// on a 2-core box, now that timings walk a cost-only mesh: `table3_model`
// 0.1 s, `ablation_ldm` 0.2 s, `training_pass` 0.4 s, `model_vs_autotune`
// 1.9 s, `autotune` 1.6 s, `perf_counters` 0.1 s, `fig7_channels` 3.3 s.
// Not rendered here: `fig9_filters` (22 s unoptimized), `fault_campaign`
// (functional runs, over five minutes unoptimized) and
// `fault_campaign_dead_cpe` (three functional runs on the 4×4 mesh, 58 s
// unoptimized).

#[test]
fn table2_dma_regenerates_byte_for_byte() {
    regenerates("table2_dma");
}

#[test]
fn fig2_model_regenerates_byte_for_byte() {
    regenerates("fig2_model");
}

#[test]
fn fig6_reorder_regenerates_byte_for_byte() {
    regenerates("fig6_reorder");
}

#[test]
fn scaling_cgs_regenerates_byte_for_byte() {
    regenerates("scaling_cgs");
}

#[test]
fn ablation_regblock_regenerates_byte_for_byte() {
    regenerates("ablation_regblock");
}

#[test]
fn table3_model_regenerates_byte_for_byte() {
    regenerates("table3_model");
}

#[test]
fn ablation_ldm_regenerates_byte_for_byte() {
    regenerates("ablation_ldm");
}

#[test]
fn training_pass_regenerates_byte_for_byte() {
    regenerates("training_pass");
}

#[test]
fn model_vs_autotune_regenerates_byte_for_byte() {
    regenerates("model_vs_autotune");
}

#[test]
fn autotune_regenerates_byte_for_byte() {
    regenerates("autotune");
}

#[test]
fn perf_counters_regenerates_byte_for_byte() {
    regenerates("perf_counters");
}

#[test]
fn fig7_channels_regenerates_byte_for_byte() {
    regenerates("fig7_channels");
}

#[test]
fn serve_regenerates_byte_for_byte() {
    regenerates("serve");
}

#[test]
fn chaos_regenerates_byte_for_byte() {
    regenerates("chaos");
}

#[test]
fn cluster_regenerates_byte_for_byte() {
    regenerates("cluster");
}

#[test]
fn registry_and_results_dir_name_the_same_csvs() {
    let registered: BTreeSet<String> = ARTIFACTS
        .iter()
        .flat_map(|a| a.csvs)
        .map(|stem| format!("{stem}.csv"))
        .collect();
    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    assert_eq!(registered, committed);
}
