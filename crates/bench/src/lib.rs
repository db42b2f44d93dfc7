//! The reproducer: every table and figure of the swDNN paper (IPDPS'17)
//! and of this repository's extensions, regenerated deterministically on
//! the simulated SW26010.
//!
//! Each artifact is a function returning its `Table`s, registered once in
//! [`ARTIFACTS`]; the `repro` binary runs one or all of them and writes the
//! CSVs committed under `results/`. Those CSVs are the only baseline:
//! regenerate, `git diff results/`, and commit an intentional change with
//! the reason. Thresholds (SLOs, scaling floors, chaos gates) live in this
//! crate's unit tests, not in the binary.
//!
//! | artifact            | what it regenerates |
//! |---------------------|---------------------|
//! | `table2_dma`        | Table II — DMA bandwidth vs block size |
//! | `fig2_model`        | Fig. 2 — direct-gload vs REG-LDM-MEM paths |
//! | `fig6_reorder`      | Fig. 6 / §VI — 26 → 17 cycles per iteration |
//! | `table3_model`      | Table III — model vs measured |
//! | `scaling_cgs`       | §III-D — 4-CG near-linear scaling |
//! | `ablation_regblock` | §V-B/C Eqs. 3–5 — register blocking sweep |
//! | `ablation_ldm`      | §IV-A — LDM blocking / kernel reordering / double buffering |
//! | `training_pass`     | extension — forward + both backward passes at paper scale |
//! | `model_vs_autotune` | §VII — model guidance vs exhaustive autotuning, paper scale and B = 32 |
//! | `autotune`          | extension — schedule search vs hand presets, stride-2 coverage |
//! | `perf_counters`     | exact cycles and counters of the Table III shapes |
//! | `fig7_channels`     | Fig. 7 — 101 (Ni, No) configs vs K40m |
//! | `fig9_filters`      | Fig. 9 — filter sizes 3×3 … 21×21 vs K40m |
//! | `fault_campaign`    | extension — DMA fault-rate sweep |
//! | `fault_campaign_dead_cpe` | extension — one dead CPE, degraded-mesh re-plan |
//! | `serve`             | extension — closed-loop batch serving over paper shapes |
//! | `chaos`             | extension — open-loop serving, fault × traffic sweep |
//! | `cluster`           | extension — 1→8 chip weak- and strong-scaling curves |
//!
//! [`configs`] holds the Fig. 8 configuration-generator scripts.

pub mod ablations;
mod autotune;
mod chaos_load;
mod cluster_scale;
pub mod configs;
mod fault_campaign;
mod paper;
mod report;
mod serve_load;

use report::Table;

/// One reproducible artifact: `repro <name>` runs it.
pub struct Artifact {
    pub name: &'static str,
    /// Stems of the `results/*.csv` it writes — the names of the tables
    /// `run` returns, in order.
    pub csvs: &'static [&'static str],
    run: fn() -> Vec<Table>,
}

const fn artifact(
    name: &'static str,
    csvs: &'static [&'static str],
    run: fn() -> Vec<Table>,
) -> Artifact {
    Artifact { name, csvs, run }
}

/// Every artifact, in `repro all` order.
#[rustfmt::skip]
pub const ARTIFACTS: &[Artifact] = &[
    artifact("table2_dma", &["table2_dma"], paper::table2_dma),
    artifact("fig2_model", &["fig2_model"], paper::fig2_model),
    artifact("fig6_reorder", &["fig6_reorder"], paper::fig6_reorder),
    artifact("table3_model", &["table3_model"], paper::table3_model),
    artifact("scaling_cgs", &["scaling_cgs"], paper::scaling_cgs),
    artifact("ablation_regblock", &["ablation_regblock", "ablation_regblock_spatial"], ablations::ablation_regblock),
    artifact("ablation_ldm", &["ablation_ldm_blocking", "ablation_kernel_reorder", "ablation_double_buffer"], ablations::ablation_ldm),
    artifact("training_pass", &["training_pass"], ablations::training_pass),
    artifact("model_vs_autotune", &["model_vs_autotune", "model_vs_autotune_small"], ablations::model_vs_autotune),
    artifact("autotune", &["autotune_search"], autotune::autotune),
    artifact("perf_counters", &["perf_counters"], ablations::perf_counters),
    artifact("fig7_channels", &["fig7_channels"], paper::fig7_channels),
    artifact("fig9_filters", &["fig9_filters"], paper::fig9_filters),
    artifact("fault_campaign", &["fault_campaign"], fault_campaign::fault_campaign),
    artifact("fault_campaign_dead_cpe", &["fault_campaign_dead_cpe"], fault_campaign::dead_cpe),
    artifact("serve", &["serve_bench"], serve_load::serve),
    artifact("chaos", &["chaos_serve"], chaos_load::chaos),
    artifact("cluster", &["cluster_serve_scaling", "cluster_train_scaling", "cluster_train_strong_scaling"], cluster_scale::cluster),
];

impl Artifact {
    /// Run the artifact, checking it produced the tables it registered.
    pub fn tables(&self) -> Vec<Table> {
        let tables = (self.run)();
        let names: Vec<&str> = tables.iter().map(Table::name).collect();
        assert_eq!(
            names, self.csvs,
            "{} returned unregistered tables",
            self.name
        );
        tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique_and_match_the_module_doc_table() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(
            names.iter().collect::<BTreeSet<_>>().len(),
            names.len(),
            "duplicate artifact name"
        );
        let csvs: Vec<&str> = ARTIFACTS.iter().flat_map(|a| a.csvs).copied().collect();
        assert_eq!(
            csvs.iter().collect::<BTreeSet<_>>().len(),
            csvs.len(),
            "two artifacts write the same CSV"
        );
        // Rows of the table above: "//! | `name` | ... |".
        let documented: Vec<&str> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .filter_map(|l| l.split('`').next())
            .collect();
        assert_eq!(documented, names, "lib.rs doc table vs ARTIFACTS");
    }
}
