//! # psse-bench — the paper's figures and tables, regenerated
//!
//! One function per table, figure and study of the paper
//! ([`figures::FIGURES`]). Each runs its experiment once, asserts the
//! paper's shapes, prints the rows/series and a quick ASCII view to
//! stdout, and returns the CSV/SVG files it makes.
//! `cargo run --release -p psse-bench` writes them into
//! `bench_results/`; `cargo test -p psse-bench` compares every committed
//! file with them byte for byte. Every number here is virtual time or
//! energy; host seconds are measured in one place, `psse-ledger`
//! (`BENCHMARK.json`).
//!
//! | figure | regenerates |
//! |---|---|
//! | `fig3_strong_scaling` | Fig. 3 — limits of communication strong scaling |
//! | `fig4_nbody_regions` | Fig. 4(a–c) — n-body energy/time/power regions |
//! | `fig6_scaling_individual` | Fig. 6 — scaling γe, βe, δe independently |
//! | `fig7_scaling_together` | Fig. 7 — scaling them together |
//! | `table1_case_study` | Table I — case-study machine + model predictions |
//! | `table2_machines` | Table II — processor efficiency comparison |
//! | `validate_strong_scaling` | our end-to-end check of the headline theorem |
//! | `ablation_collectives` | the collective-algorithm choices behind the cost models |
//! | `sequential_cache` | Fig. 1(a), Eqs. 3–4 — the sequential two-level machine |
//! | `twolevel_model` | Fig. 2, Eqs. 12/17 — the two-level parallel machine |
//! | `scaling_band_workloads` | the scaling band of a stencil and a sample sort |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;

/// `bench_results/` at the workspace root, fixed when this crate is
/// compiled.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
