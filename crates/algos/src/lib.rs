//! # psse-algos — communication-avoiding algorithms on the simulated
//! machine
//!
//! Executable implementations of every algorithm the paper analyses,
//! running on the `psse-sim` virtual-time distributed machine with real
//! data and verified numerics:
//!
//! | paper §IV algorithm | module | notes |
//! |---|---|---|
//! | 2D classical matmul (baseline) | [`cannon`], [`summa`] | `q×q` grids; Cannon is 2.5D at `c = 1` |
//! | 2.5D classical matmul | [`mm25d`] | `q×q×c` grid, replication factor `c` |
//! | 3D classical matmul | [`mm25d::matmul_3d`] | 2.5D at `c = q` |
//! | CAPS Strassen | [`strassen_dist`] | BFS over `7^k` ranks (see module docs for the simplification vs. full CAPS) |
//! | 2.5D LU | [`lu2d`] | executed as 2D right-looking LU (no pivoting); 2.5D latency analysis stays in `psse-core` |
//! | direct n-body (1D baseline) | [`nbody`] | ring algorithm: [`nbody::nbody_replicated`] at `c = 1` |
//! | data-replicating n-body | [`nbody::nbody_replicated`] | `pr × c` layout (Driscoll et al.) |
//! | parallel FFT | [`fft`] | transpose algorithm; naive and hypercube all-to-all |
//! | distributed sample sort | [`samplesort`] | regular sampling + pairwise all-to-all (Scquizzato–Silvestri bound family) |
//! | iterated halo stencil | [`stencil`] | periodic box stencil, 1-D/2-D blocks, configurable halo width |
//!
//! [`table`] maps each algorithm's name to its cost model and its
//! simulator; the CLI and the lab look names up there and nowhere else.
//!
//! Every entry point takes global inputs, distributes them logically
//! (initial layout is free, matching the paper's cost models, which
//! assume data already resides in place), runs the ranks, gathers and
//! **numerically verifies** nothing itself but returns both the
//! mathematical result and the [`psse_sim::Profile`] of counters, which
//! [`bridge`] converts into `psse-core`'s `ExecutionSummary` for pricing
//! with the paper's time/energy models.

#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN alongside non-positive values;
// `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Index-based loops are kept where the index participates in the math
// (grid coordinates, butterfly strides); iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod abft;
pub mod bridge;
pub mod cannon;
pub mod cholesky2d;
pub mod fft;
pub mod lu2d;
pub mod matvec;
pub mod mm25d;
pub mod nbody;
pub mod samplesort;
pub mod seq_matmul;
pub mod stencil;
pub mod strassen_dist;
pub mod summa;
pub mod table;
pub mod tsqr;

/// One-stop imports.
pub mod prelude {
    pub use crate::abft::{matmul_25d_abft, summa_matmul_abft, verify_matmul, ABFT_REL_TOL};
    pub use crate::bridge::{
        export_eq_terms, measure, measure_into, measure_two_level, sim_config_from,
        sim_config_two_level, summarize,
    };
    pub use crate::cannon::cannon_matmul;
    pub use crate::cholesky2d::cholesky_2d;
    pub use crate::fft::{distributed_fft, AllToAllKind};
    pub use crate::lu2d::{lu_2d, solve_2d, triangular_solve_2d};
    pub use crate::matvec::matvec_1d;
    pub use crate::mm25d::{matmul_25d, matmul_25d_opts, matmul_3d, FiberCollectives};
    pub use crate::nbody::{nbody_replicated, nbody_simulate};
    pub use crate::samplesort::{random_keys, sample_sort};
    pub use crate::seq_matmul::{choose_tile, instrumented_matmul, SeqVariant};
    pub use crate::stencil::{
        halo_stencil, random_grid, serial_stencil, stencil_flops_per_cell, Decomp,
    };
    pub use crate::strassen_dist::strassen_distributed;
    pub use crate::summa::summa_matmul;
    pub use crate::tsqr::tsqr;
}
