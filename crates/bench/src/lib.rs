//! # psse-bench — figure/table regeneration harness
//!
//! One bench target per table and figure of the paper (see the
//! `[[bench]]` sections in `Cargo.toml`). Each figure bench prints the
//! paper's rows/series to stdout, renders a quick ASCII view, and writes
//! CSVs under `bench_results/` for external plotting. Every number here
//! is virtual time or energy; host seconds are measured in one place,
//! `psse-ledger` (`BENCHMARK.json`).
//!
//! | target | regenerates |
//! |---|---|
//! | `fig3_strong_scaling` | Fig. 3 — limits of communication strong scaling |
//! | `fig4_nbody_regions` | Fig. 4(a–c) — n-body energy/time/power regions |
//! | `fig6_scaling_individual` | Fig. 6 — scaling γe, βe, δe independently |
//! | `fig7_scaling_together` | Fig. 7 — scaling them together |
//! | `table1_case_study` | Table I — case-study machine + model predictions |
//! | `table2_machines` | Table II — processor efficiency comparison |
//! | `validate_strong_scaling` | our end-to-end check of the headline theorem |

#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN alongside non-positive values;
// `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod report;
