//! The byte gate on `results/` in tier-1: every registered artifact is
//! rendered in-process and compared byte for byte with its committed CSVs,
//! and the registry and the directory must name exactly the same files.
//! CI's `results` job also runs the whole registry in release (`repro all`,
//! then `git diff --exit-code`).

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

// One test per artifact so they run side by side. The test profile is
// optimised (`opt-level = 2`); the slowest renders are `fault_campaign`'s
// and `fault_campaign_dead_cpe`'s functional runs.

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
fn fig9_filters_regenerates_byte_for_byte() {
    regenerates("fig9_filters");
}

#[test]
fn fault_campaign_regenerates_byte_for_byte() {
    regenerates("fault_campaign");
}

#[test]
fn fault_campaign_dead_cpe_regenerates_byte_for_byte() {
    regenerates("fault_campaign_dead_cpe");
}

#[test]
fn every_artifact_has_a_byte_gate_here() {
    let source = include_str!("results.rs");
    for artifact in ARTIFACTS {
        let test = format!("fn {}_regenerates_byte_for_byte()", artifact.name);
        assert!(source.contains(&test), "no `{test}` in results.rs");
    }
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
