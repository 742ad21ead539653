//! One function per figure: it runs its experiment once, keeps every
//! assertion and console line of the paper's shape, and returns the
//! files it makes instead of writing them.

mod ablation_collectives;
mod fig3_strong_scaling;
mod fig4_nbody_regions;
mod fig6_scaling_individual;
mod fig7_scaling_together;
mod scaling_band_workloads;
mod sequential_cache;
mod table1_case_study;
mod table2_machines;
mod twolevel_model;
mod validate_strong_scaling;

/// One file a figure makes: its name under `bench_results/` and its
/// bytes.
pub type Artifact = (&'static str, String);

/// A figure: runs its experiment once and returns the files it makes.
pub type Figure = fn() -> Vec<Artifact>;

/// Every figure, by name, in paper order. `psse-bench` writes what each
/// returns; `tests/figures.rs` compares it with the committed file.
pub const FIGURES: [(&str, Figure); 11] = [
    ("fig3_strong_scaling", fig3_strong_scaling::run),
    ("fig4_nbody_regions", fig4_nbody_regions::run),
    ("fig6_scaling_individual", fig6_scaling_individual::run),
    ("fig7_scaling_together", fig7_scaling_together::run),
    ("table1_case_study", table1_case_study::run),
    ("table2_machines", table2_machines::run),
    ("validate_strong_scaling", validate_strong_scaling::run),
    ("ablation_collectives", ablation_collectives::run),
    ("sequential_cache", sequential_cache::run),
    ("twolevel_model", twolevel_model::run),
    ("scaling_band_workloads", scaling_band_workloads::run),
];
