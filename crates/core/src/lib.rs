//! # psse-core — energy and time models for communication-avoiding algorithms
//!
//! This crate implements the analytical heart of Demmel, Gearhart, Lipshitz
//! and Schwartz, *"Perfect Strong Scaling Using No Additional Energy"*
//! (IPDPS 2013):
//!
//! * the **machine model** — a homogeneous distributed machine whose links
//!   are priced per message (`αt`, `αe`), per word (`βt`, `βe`) and whose
//!   processors are priced per flop (`γt`, `γe`), per stored word-second
//!   (`δe`) and per second of leakage (`εe`) — see [`params::MachineParams`];
//! * the **time model** (paper Eq. 1): `T = γt·F + βt·W + αt·S` — see
//!   [`time`];
//! * the **energy model** (paper Eq. 2):
//!   `E = p·(γe·F + βe·W + αe·S + δe·M·T + εe·T)` — see [`energy`];
//! * per-processor **computation/communication cost models** `(F, W, S)`
//!   for classical and Strassen matrix multiplication, LU, the direct
//!   n-body problem and the FFT (paper §IV) — see [`costs`];
//! * **communication lower bounds** and the limits of perfect strong
//!   scaling (paper §III and Fig. 3) — see [`bounds`];
//! * the **energy optimization suite** of paper §V (minimum-energy memory
//!   `M0`, energy/time/power-constrained optima, GFLOPS/W targets) — see
//!   [`optimize`];
//! * the **two-level machine model** of paper Fig. 2 with the matmul and
//!   n-body energy expressions (paper Eqs. 12 and 17) — see [`twolevel`];
//! * the §VI **case study**: the dual-socket Sandy Bridge ("Jaketown")
//!   parameters of Table I, the processor database of Table II, and the
//!   technology-scaling sweeps of Figs. 6–7 — see [`machines`] and
//!   [`tech_scaling`].
//!
//! The crate is pure analysis: it has no dependencies and performs no
//! simulation. The sibling crates `psse-sim` and `psse-algos` *execute*
//! the algorithms on a virtual-time distributed machine; their measured
//! counter profiles can be evaluated against this crate's models through
//! [`summary::ExecutionSummary`].
//!
//! ## Quick example
//!
//! ```
//! use psse_core::prelude::*;
//!
//! // The paper's Table I machine (one socket = one "processor").
//! let machine = jaketown();
//!
//! // Costs of 2.5D classical matrix multiplication at n = 8192 with one
//! // copy of the data spread over p = 64 processors (M = n²/p).
//! let n = 8192;
//! let p = 64;
//! let m = ClassicalMatMul.min_memory(n, p);
//! let costs = ClassicalMatMul.costs(n, p, m, &machine).unwrap();
//! let t = machine.time(&costs);
//! let e = machine.energy(p, &costs, m, t);
//! assert!(t > 0.0 && e > 0.0);
//!
//! // Inside the perfect strong scaling range, doubling p at fixed M
//! // halves T and leaves E unchanged.
//! let costs2 = ClassicalMatMul.costs(n, 2 * p, m, &machine).unwrap();
//! let t2 = machine.time(&costs2);
//! let e2 = machine.energy(2 * p, &costs2, m, t2);
//! assert!((t2 / t - 0.5).abs() < 1e-12);
//! assert!((e2 / e - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN alongside non-positive values;
// `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod bounds;
pub mod costs;
pub mod energy;
pub mod error;
pub mod machines;
pub mod optimize;
pub mod paper;
pub mod params;
pub mod sequential;
pub mod summary;
pub mod tech_scaling;
pub mod time;
pub mod twolevel;

/// Scalar type used throughout the models (SI units; seconds, joules,
/// words, flops).
pub type Real = f64;

/// Strassen's exponent `ω0 = log2(7)`, the canonical "fast matrix
/// multiplication" exponent used throughout the paper's examples.
pub const STRASSEN_OMEGA: Real = 2.807354922057604; // log2(7)

/// One-stop imports for typical users of the crate.
pub mod prelude {
    pub use crate::bounds::{
        fig3_series, memory_independent_word_bound, parallel_word_lower_bound,
        sequential_word_lower_bound, ScalingRange,
    };
    pub use crate::costs::{
        Algorithm, AlgorithmCosts, Cholesky25d, ClassicalMatMul, DirectNBody, FftAllToAll, FftTree,
        HaloStencilModel, Lu25d, MatVec, SampleSortModel, StrassenMatMul,
    };
    pub use crate::error::CoreError;
    pub use crate::machines::{jaketown, table2, MachineSpec};
    pub use crate::optimize::resilience::{
        daly_optimal_interval, overhead_fraction, resilience_energy,
    };
    pub use crate::params::MachineParams;
    pub use crate::summary::{ExecutionSummary, Measured};
    pub use crate::twolevel::TwoLevelParams;
    pub use crate::{Real, STRASSEN_OMEGA};
}
