//! # psse-event — a deterministic discrete-event backend for
//! `p = 10^5`–`10^6` simulated ranks
//!
//! The thread-per-rank machine in `psse-sim` is the repo's ground
//! truth, but one OS thread per rank caps it around `p ≈ 10^4`. This
//! crate removes the thread: each rank is a resumable
//! [`RankProgram`] — the description layer (steps, programs, the
//! [`programs::Phases`] descriptions and their stepper, the built-in
//! programs) lives in `psse-sim` and is re-exported here at its old
//! paths — and one process runs all of them from a **FIFO worklist** of
//! runnable ranks: pop a rank, run it until it blocks in a receive,
//! deliver its sends, push whoever that woke. Virtual time lives in the
//! ranks' clocks, not in the scheduler — every priced number is a pure
//! function of the message DAG, so the host order in which ranks take
//! their turns cannot change one byte (see [`exec`]).
//!
//! The contract is bit-identity, and pricing cannot break it: every
//! rank here is a [`psse_sim::Meter`], the pricing core
//! `psse_sim::Rank` wraps. This crate adds transport and matching (one
//! shared wire slab, per-`(src, tag)` FIFO delivery), so both backends
//! produce byte-identical profiles, traces and fault counters. Pick a
//! backend with [`psse_sim::SimConfig::backend`] and [`run_programs`]:
//! on threads each program runs through `psse_sim::Rank::run_program` —
//! the executor the native collectives run their own descriptions
//! through — and here the same steps are priced at `p = 10^5`–`10^6`
//! in one process, with counted (allocation-free) payloads.
//!
//! Deadlocks are *proven*, not timed out: sends are eager, so when no
//! rank is runnable and some are live, every live rank is blocked on a
//! `(src, tag)` queue no future send can fill, and the executor
//! reports the full blocked set as [`psse_sim::SimError::Deadlock`] in
//! zero wall-clock time.
//!
//! ## The mega-scale hot path
//!
//! At `p = 10^6` host cost is bytes touched per rank, so a rank costs
//! what it uses: programs run in the `Vec` they were built into, a
//! rank's executor state is one fixed-size slot, and the undelivered
//! wires of all ranks share **one recycling slab** owned by the run.
//! An **analytic fast path** (`fastpath`) prices every built-in counted
//! program in closed form on an untraced, flat, fault-free machine, and
//! the binomial allreduce under a fault plan or a hierarchy as well:
//! each rank's program is constructed, asked for its claim and dropped,
//! and the program is priced straight into the profile — no world is
//! built, and [`EventOutcome::programs`] is empty — with byte-identical
//! profiles, enforced by differential tests against
//! [`EventMachine::run_general`], which always schedules. Every
//! `p`-sized allocation is a fallible reservation, so a world the host
//! cannot hold is a [`psse_sim::SimError::InvalidConfig`], not an
//! abort. Engine health counters ([`ExecStats`]) ride on every outcome,
//! per run; `tests/bytes_per_rank.rs` holds the per-rank budget under a
//! counting allocator.
//!
//! ## Example
//!
//! ```
//! use psse_event::{run_programs, BinomialAllreduce};
//! use psse_sim::{Backend, SimConfig, Tag};
//!
//! let cfg = SimConfig {
//!     backend: Backend::Events,
//!     ..SimConfig::default()
//! };
//! // A real allreduce over 10_000 ranks, in-process, no threads.
//! let out = run_programs(10_000, &cfg, BinomialAllreduce::counted(Tag(0), 8)).unwrap();
//! let t = BinomialAllreduce::expected_totals(10_000, 8, 1 << 16);
//! assert_eq!(out.profile.total_msgs_sent(), t.msgs);
//! assert_eq!(out.profile.total_words_sent(), t.words);
//! assert_eq!(out.profile.total_flops(), t.flops);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod exec;
mod fastpath;
mod slab;

pub use psse_sim::{program, programs};

/// The continuation vocabulary of a rank program, defined in
/// [`psse_sim::program`].
pub mod step {
    pub use psse_sim::program::{Delivered, Payload, Step};
}

pub use bridge::run_programs;
pub use exec::{EventMachine, EventOutcome, ExecStats};
pub use program::{AnalyticOp, RankProgram};
pub use programs::{
    BinomialAllreduce, Matmul25D, OpTotals, RecursiveDoublingAllreduce, RingAllreduce, SampleSort,
    Stencil1D,
};
pub use step::{Delivered, Payload, Step};

/// One-stop imports.
pub mod prelude {
    pub use crate::bridge::run_programs;
    pub use crate::exec::{EventMachine, EventOutcome, ExecStats};
    pub use crate::program::{AnalyticOp, RankProgram};
    pub use crate::programs::{
        BinomialAllreduce, Matmul25D, OpTotals, RecursiveDoublingAllreduce, RingAllreduce,
        SampleSort, Stencil1D,
    };
    pub use crate::step::{Delivered, Payload, Step};
    pub use psse_sim::{Backend, SimConfig, Tag};
}
