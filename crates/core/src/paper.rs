//! Paper-to-code map: where every equation, section, table and figure of
//! *"Perfect Strong Scaling Using No Additional Energy"* (Demmel,
//! Gearhart, Lipshitz, Schwartz; IPDPS 2013) lives in this workspace.
//!
//! # Equations
//!
//! | paper | meaning | implementation |
//! |---|---|---|
//! | Eq. 1 | `T = γt·F + βt·W + αt·S` | [`crate::params::MachineParams::time`]; executable: `psse-sim` virtual clocks |
//! | Eq. 2 | `E = p·(γe·F + βe·W + αe·S + δe·M·T + εe·T)` | [`crate::params::MachineParams::energy`]; over measured counters: [`crate::summary::ExecutionSummary::price`] |
//! | Eq. 3 | sequential word bound `Ω(max(I+O, F/√M))` | [`crate::bounds::sequential_word_lower_bound`] |
//! | Eq. 4 | sequential message bound | [`crate::bounds::sequential_message_lower_bound`] |
//! | Eq. 5 | parallel word bound `Ω(max(0, F/√M − (I+O)))` | [`crate::bounds::parallel_word_lower_bound`] |
//! | Eq. 6 | 2.5D memory range `n²/p ≤ M ≤ n²/p^(2/3)` | [`crate::costs::Algorithm::min_memory`] / [`crate::costs::Algorithm::max_useful_memory`] on [`crate::costs::ClassicalMatMul`] |
//! | Eq. 7 | 2.5D costs `W = O(n²/√(cp))`, `S = O(√(p/c³) + log c)` | [`crate::costs::Algorithm::costs`] on [`crate::costs::ClassicalMatMul`]; executable: `psse-algos::mm25d` |
//! | Eq. 8 | classical matmul `(F, W, S)` | [`crate::costs::ClassicalMatMul`] |
//! | Eq. 9 | `T` of 2.5D matmul | [`crate::time::t_matmul_25d`] |
//! | Eq. 10 | `E` of 2.5D matmul (p-independent!) | [`crate::energy::e_matmul_25d`] |
//! | Eq. 11 | `E` of 3D matmul | [`crate::energy::e_matmul_3d`] |
//! | Eq. 12 | two-level matmul `T`, `E` | [`crate::twolevel::TwoLevelParams::matmul_point`] (see module docs for the re-derivation note) |
//! | Eq. 13 | Strassen "FLM" energy | [`crate::energy::e_matmul_fast_lm`] |
//! | Eq. 14 | Strassen "FUM" energy | [`crate::energy::e_matmul_fast_um`] (with the `n⁵ → n^(2+ω)` exponent fix, documented there) |
//! | Eq. 15 | `T` of replicating n-body | [`crate::time::t_nbody`] |
//! | Eq. 16 | `E` of replicating n-body | [`crate::energy::e_nbody`] |
//! | Eq. 17 | two-level n-body `T`, `E` | [`crate::twolevel::TwoLevelParams::nbody_point`] (matches the printed equation term by term) |
//! | Eq. 18 | minimum n-body energy `E*` | [`crate::costs::Algorithm::energy_optimum`] of [`crate::costs::DirectNBody`] |
//! | Eq. 19 | total-power cap on `p` | [`crate::costs::DirectNBody::max_p_given_total_power`] |
//! | Eq. 20 | per-proc-power cap on `M` | [`crate::costs::DirectNBody::max_memory_given_proc_power`] (sign-corrected; see its docs) |
//!
//! # Sections
//!
//! | paper | implementation |
//! |---|---|
//! | §II machine model | [`crate::params`] (distributed), [`crate::sequential`] (Fig. 1a), [`crate::twolevel`] (Fig. 2), executable: `psse-sim` |
//! | §III communication avoidance | [`crate::bounds`]; executable 2D/2.5D/3D: `psse-algos::{cannon, summa, mm25d}` |
//! | §III's wider factorization family | Cholesky: [`crate::costs::Cholesky25d`] + `psse-algos::cholesky2d`; QR: `psse-kernels::qr` + `psse-algos::tsqr` (TSQR, incl. least squares); BLAS2: [`crate::costs::MatVec`] + `psse-algos::matvec` |
//! | §IV LU | [`crate::costs::Lu25d`]; executable 2D factor+solve: `psse-algos::lu2d` |
//! | §IV FFT | [`crate::costs::FftTree`] / [`crate::costs::FftAllToAll`]; executable: `psse-algos::fft` |
//! | §V A–F optimization | [`crate::optimize::nbody`] (closed form); §V.A for matmul: [`crate::costs::ClassicalMatMul`] and [`crate::costs::StrassenMatMul`] `energy_optimum` over [`crate::optimize::matmul::m0`] and [`crate::optimize::strassen::m0`]; any model: [`crate::optimize::numeric`] |
//! | §VI case study | [`crate::machines::jaketown`], [`crate::tech_scaling`] |
//! | §VII observations & open problems | [`crate::machines::table2`] + `table2_machines` figure; "minimize average power" solved at [`crate::costs::DirectNBody::min_average_power`] |
//!
//! # Tables and figures
//!
//! Every table and figure is one function in `psse-bench`
//! (`cargo run --release -p psse-bench` writes them all):
//! `fig3_strong_scaling`, `fig4_nbody_regions`,
//! `fig6_scaling_individual`, `fig7_scaling_together`,
//! `table1_case_study`, `table2_machines`, plus the end-to-end
//! `validate_strong_scaling` and the extensions `ablation_collectives`,
//! `sequential_cache`, `twolevel_model`, `scaling_band_workloads`.
//! Outcomes are recorded in the repository's `EXPERIMENTS.md`.
