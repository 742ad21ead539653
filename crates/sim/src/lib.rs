//! # psse-sim — a deterministic virtual-time distributed machine
//!
//! This crate is the executable substitute for the MPI clusters the paper
//! targets: a simulated distributed-memory machine whose `p` ranks run as
//! OS threads, exchange real data through tagged point-to-point messages
//! and collectives, and account their **virtual time** with exactly the
//! paper's cost model (Eq. 1):
//!
//! * `compute(f)` advances a rank's clock by `γt·f`;
//! * sending `k` words advances the sender by `⌈k/m⌉·αt + k·βt` (long
//!   transfers are split into messages of at most `m` words, matching the
//!   paper's `S = W/m` accounting);
//! * a receive completes no earlier than the message's departure time
//!   (`t_recv = max(t_local, t_depart)` — the no-overlap postal model).
//!
//! The makespan (max over ranks of final clocks) is therefore determined
//! **only by the message DAG**, never by OS scheduling: two runs of the
//! same program produce bit-identical profiles (tested). Per-rank
//! counters — flops, words/messages sent and received, memory high-water
//! mark — are exactly the `F`, `W`, `S`, `M` that the energy model
//! (Eq. 2) prices; `psse-algos` bridges a [`profile::Profile`] into
//! `psse-core`'s `ExecutionSummary`.
//!
//! ## Pricing core
//!
//! All of that accounting is one transport-free type, `meter::Meter`
//! (the per-chunk charge is written once, in [`meter::charge_chunks`]).
//! [`rank::Rank`] is a `Meter` plus the thread transport; the
//! [`event`] executor drives the same `Meter` from a worklist, and
//! `psse-trace` replay prices through the same primitives.
//!
//! ## Rank programs and phase descriptions
//!
//! A rank's algorithm can also be a resumable [`program::RankProgram`]
//! that returns one [`program::Step`] at a time. [`rank::Rank::run_program`]
//! runs one on a thread rank; [`event::EventMachine`] schedules the same
//! programs at `p = 10^5`–`10^6`, and [`run_programs`] picks between
//! the two by [`SimConfig::backend`]. Bulk-synchronous programs are
//! written once as [`phases::Phases`] descriptions and stepped by
//! [`phases::Phased`]: the built-in programs of [`programs`], and every
//! collective of [`collectives`] — each `Rank` collective is one
//! `run_program` of its description, and the binomial tree of
//! `broadcast`, `reduce_sum` and `allreduce_sum` is the event backend's
//! `BinomialAllreduce` too.
//!
//! ## Zero-copy transport
//!
//! Payloads cross the wire as shared [`message::SharedPayload`] buffers:
//! one envelope per transfer, chunk costs priced arithmetically, fan-out
//! by reference count. Besides [`rank::Rank::send`] there is a borrowing
//! [`rank::Rank::send_slice`] and a sharing [`rank::Rank::send_shared`] /
//! [`rank::Rank::recv_shared`] pair; all variants are bit-identical in
//! virtual time, counters, and traces (see `DESIGN.md`, "Zero-copy
//! transport"). Rank threads are pooled and reused across `Machine::run`
//! calls, and blocked receives wake by condvar, not by polling. There is
//! no receive timeout: a counter of parked ranks proves a deadlock the
//! instant it forms and the run returns [`SimError::Deadlock`] with the
//! blocked set.
//!
//! ## Trace recording (opt-in)
//!
//! Setting [`machine::SimConfig::record_trace`] makes every rank record
//! a typed [`record::TimedEvent`] log (compute, send, recv, alloc/free,
//! collective markers) returned via [`profile::Profile::events`]. The
//! `psse-trace` crate replays such logs to re-price a run under
//! different machine parameters without re-executing the algorithm.
//! The flag is **off by default**: recording costs one `Vec` push per
//! operation (payload data is never copied); with it off the only
//! overhead is one branch per operation.
//!
//! ## Fault injection (opt-in)
//!
//! Setting [`machine::SimConfig::faults`] to a `psse-faults`
//! [`FaultPlan`] injects deterministic, virtual-time-scheduled faults —
//! rank crashes and per-link drop/corrupt/duplicate/delay — and applies
//! the plan's recovery policy: acked sends with bounded exponential
//! backoff, and coordinated checkpoint/restart whose write volume is
//! charged through the same Eq. 1 link prices (the words land in
//! dedicated [`profile::RankOverheads`] resilience counters so the energy
//! model can price them). `None` (the default) keeps every run
//! bit-identical to the pre-fault-layer simulator.
//!
//! ## Example
//!
//! ```
//! use psse_sim::prelude::*;
//!
//! let cfg = SimConfig::default();
//! let outcome = Machine::run(4, cfg, |rank| {
//!     // Each rank computes, then everyone sums everyone's value.
//!     rank.compute(1000);
//!     let me = rank.rank() as f64;
//!     let sums = rank.allreduce_sum(Tag(7), vec![me])?;
//!     Ok(sums[0])
//! })
//! .unwrap();
//! assert!(outcome.results.iter().all(|&s| s == 6.0)); // 0+1+2+3
//! assert!(outcome.profile.makespan > 0.0);
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// scoped-job lifetime erasure in [`pool`] (see its module docs for the
// soundness argument); everything else stays unsafe-free.
#![deny(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN alongside non-positive values;
// `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Index-based loops are kept where the index participates in the math
// (grid coordinates, butterfly strides); iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod collectives;
pub mod error;
pub mod event;
pub mod grid;
pub mod machine;
mod mailbox;
pub mod message;
pub mod meter;
pub mod phases;
mod pool;
pub mod profile;
pub mod program;
pub mod programs;
pub mod rank;
pub mod record;
pub mod seqmem;

pub use error::SimError;
pub use event::{EventMachine, EventOutcome, ExecStats};
pub use machine::{run_programs, Backend, CancelFlag, Machine, SimConfig, SimOutcome};
pub use message::{SharedPayload, Tag};
pub use profile::{Profile, RankOverheads, RankStats};
pub use psse_faults::FaultPlan;
pub use rank::Rank;

/// One-stop imports.
pub mod prelude {
    pub use crate::collectives::Group;
    pub use crate::error::SimError;
    pub use crate::event::{EventMachine, EventOutcome, ExecStats};
    pub use crate::grid::{Grid2, Grid3};
    pub use crate::machine::{run_programs, Backend, CancelFlag, Machine, SimConfig, SimOutcome};
    pub use crate::message::{SharedPayload, Tag};
    pub use crate::profile::{Profile, RankOverheads, RankStats};
    pub use crate::program::{AnalyticOp, Delivered, Payload, RankProgram, Step};
    pub use crate::programs::{
        BinomialAllreduce, Matmul25D, OpTotals, RecursiveDoublingAllreduce, RingAllreduce,
        SampleSort, Stencil1D,
    };
    pub use crate::rank::Rank;
    pub use crate::record::{EventKind, TimedEvent};
    pub use crate::seqmem::{FastMemory, MemStats};
    pub use psse_faults::{
        CheckpointPolicy, CrashEvent, FaultPlan, FaultSpec, LinkFaultKind, RecoveryPolicy,
    };
}
