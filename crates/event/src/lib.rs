//! # psse-event — a deterministic discrete-event backend for
//! `p = 10^5`–`10^6` simulated ranks
//!
//! The thread-per-rank machine in `psse-sim` is the repo's ground
//! truth, but one OS thread per rank caps it around `p ≈ 10^4`. This
//! crate removes the thread: each rank becomes a **resumable state
//! machine** (a [`RankProgram`] returning explicit continuation
//! [`Step`]s — compute, send, receive, collective markers, done) and a
//! single process runs all of them from one **FIFO worklist** of
//! runnable ranks: pop a rank, run it until it blocks in a receive,
//! deliver its sends, push whoever that woke. Virtual time lives in the
//! ranks' clocks, not in the scheduler — every priced number is a pure
//! function of the message DAG, so the host order in which ranks take
//! their turns cannot change one byte (see [`exec`]).
//!
//! The contract is bit-identity, and pricing cannot break it: every
//! rank here is a [`psse_sim::Meter`], the same pricing core
//! `psse_sim::Rank` wraps — Eq. 1 chunked sends, postal-model receives,
//! fault injection with retries/backoff/checkpoints, trace recording.
//! What this crate adds is transport and matching (one shared wire
//! slab, per-`(src, tag)` FIFO delivery), and since profiles are pure
//! functions of the message DAG, both backends produce byte-identical
//! profiles, traces, and fault counters (the cross-backend tests here
//! and the repo-level `proptest_backends` property test pin the
//! matching). Pick a backend with
//! [`psse_sim::SimConfig::backend`] and [`run_programs`]; the thread
//! pool stays the oracle at small `p`, the event backend runs the real
//! algorithms — binomial/recursive-doubling/ring allreduce, the 2.5D
//! matmul skeleton, sample sort, the halo stencil — at
//! `p = 10^5`–`10^6` in one process, with counted (allocation-free)
//! payloads.
//!
//! Each program is defined once. The binomial allreduce is a
//! hand-written state machine that mirrors the native collective; every
//! other built-in is a bulk-synchronous [`programs::Phases`]
//! description — per phase, each rank's sends, receives and computes —
//! read by two interpreters: one stepper ([`programs::Phased`]) that
//! both executors run, and the closed-form pricer of the fast path
//! below.
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
//! what it uses. Programs run in the `Vec` they were built into; a
//! rank's executor state is one fixed-size slot; the undelivered wires
//! of all ranks share **one recycling slab** owned by the run, found
//! from the destination's slot by `(src, tag)` in FIFO order (steady
//! state allocates nothing, per rank or otherwise; a wire for a rank
//! parked on exactly that key skips the slab altogether). An
//! **analytic fast path** prices every built-in counted program — the
//! three allreduces, the stencil, the 2.5D skeleton, sample sort — in
//! closed form on an untraced, flat, fault-free machine, and the
//! binomial allreduce under a fault plan or a hierarchy as well, with
//! the scheduler's own [`psse_sim::Meter`] per rank as its lane: each
//! rank's program is constructed, asked for its claim and dropped, and
//! the program is priced straight into the profile — no world is built,
//! and [`EventOutcome::programs`] is empty — with byte-identical
//! profiles, enforced by differential tests against
//! [`EventMachine::run_general`], which always schedules. Every
//! `p`-sized allocation is a fallible reservation, so a world the host
//! cannot hold is a [`psse_sim::SimError::InvalidConfig`], not an
//! abort. Engine health counters ([`ExecStats`]) ride on every outcome,
//! per run; `tests/bytes_per_rank.rs` holds the per-rank budget under a
//! counting allocator. What the scheduler still runs at scale is what
//! the closed form refuses: a traced run, a faulted or hierarchical
//! program other than the binomial allreduce, a faulted run whose meter
//! fails (so the error is the scheduler's), data payloads, and
//! [`EventMachine::run_general`].
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
pub mod program;
pub mod programs;
mod slab;
pub mod step;

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
