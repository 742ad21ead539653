//! # psse — Perfect Strong Scaling Using No Additional Energy
//!
//! A Rust reproduction of Demmel, Gearhart, Lipshitz and Schwartz,
//! *"Perfect Strong Scaling Using No Additional Energy"* (IPDPS 2013).
//!
//! This facade crate re-exports the member crates of the workspace:
//!
//! * [`core`] (`psse-core`) — the paper's analytical models: time/energy
//!   models, communication lower bounds, strong-scaling analysis, the §V
//!   optimization suite, the §VI case study and machine database.
//! * [`sim`] (`psse-sim`) — a deterministic virtual-time distributed
//!   machine simulator with per-rank flop/word/message/memory counters,
//!   run by a thread per rank or by the discrete-event executor
//!   ([`sim::event`]: `p = 10^5`–`10^6` ranks in one process,
//!   byte-identical to the threads).
//! * [`kernels`] (`psse-kernels`) — local dense kernels (GEMM, Strassen,
//!   LU, FFT, n-body forces).
//! * [`algos`] (`psse-algos`) — the distributed algorithms executed on
//!   the simulator: Cannon, SUMMA, 2.5D/3D matmul, CAPS Strassen,
//!   distributed LU, replicated n-body, parallel FFT.
//! * [`trace`] (`psse-trace`) — event-trace recording, deterministic
//!   DAG replay and re-pricing for arbitrary machine parameters,
//!   critical-path analysis, and Chrome trace-event export.
//! * [`faults`] (`psse-faults`) — deterministic fault schedules
//!   (crash/drop/corrupt/duplicate/delay) and recovery policies
//!   (retry, checkpoint/restart) injected through `SimConfig::faults`.
//! * [`hbl`] (`psse-hbl`) — automatic communication lower bounds for
//!   arbitrary affine loop nests: a kernel DSL, the
//!   Hölder–Brascamp–Lieb rank-condition linear program solved by an
//!   exact-rational simplex, and a bridge pricing the derived bound
//!   through the Eq. 1/2 models and §V optimizers.
//! * [`lab`] (`psse-lab`) — the parallel batch experiment engine:
//!   declarative sweep specs, an order-preserving worker pool,
//!   content-addressed result caching, and Pareto-frontier /
//!   strong-scaling-range analysis.
//! * [`metrics`] (`psse-metrics`) — zero-dependency structured
//!   metrics: counters, gauges, mergeable log-linear histograms, and a
//!   registry with canonical text/JSON snapshots; powers the lab
//!   self-profile and the simulator's Eq. 1/2 term export.
//!
//! See the repository `README.md` for a tour, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.

pub use psse_algos as algos;
pub use psse_core as core;
pub use psse_faults as faults;
pub use psse_hbl as hbl;
pub use psse_kernels as kernels;
pub use psse_lab as lab;
pub use psse_metrics as metrics;
pub use psse_sim as sim;
pub use psse_trace as trace;

/// Convenience prelude: the core model prelude plus the most common
/// simulator and algorithm entry points.
pub mod prelude {
    // `psse_faults`'s types arrive via `psse_sim::prelude` (re-exported
    // there so simulator users see one coherent surface).
    pub use psse_algos::prelude::*;
    pub use psse_core::prelude::*;
    pub use psse_hbl::prelude::*;
    pub use psse_lab::prelude::*;
    pub use psse_sim::prelude::*;
    pub use psse_trace::prelude::*;
}
