//! # psse-faults — deterministic fault schedules for the virtual machine
//!
//! The paper's perfect-strong-scaling band (Eq. 1/2) assumes every rank
//! and every message survives. This crate supplies the vocabulary for
//! asking what resilience costs when they don't: a [`FaultPlan`]
//! schedules rank crashes and link faults (drop / corrupt / duplicate /
//! delay) **entirely in virtual time** from a seeded splitmix64 hash, and
//! a [`RecoveryPolicy`] describes how the machine answers them — acked
//! sends with bounded exponential backoff, and coordinated
//! checkpoint/restart whose volume is priced through the paper's own
//! cost model.
//!
//! Design rules:
//!
//! - **No `std` RNG, no global state.** Every decision is a pure
//!   function of `(seed, link, transfer index, attempt)`, so a faulted
//!   run is bit-identical across repeats and independent of OS thread
//!   scheduling — traces recorded under faults stay replayable.
//! - **Leaf crate.** `psse-sim` depends on this crate, never the other
//!   way round; the types here know nothing about ranks or channels.
//!
//! See `psse-sim`'s `SimConfig::faults` for the injection hook and
//! DESIGN.md ("Fault model") for the semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod rng;

pub use plan::{
    CheckpointPolicy, CrashEvent, FaultPlan, FaultSpec, LinkFaultKind, RecoveryPolicy, MAX_RETRIES,
};
pub use rng::SplitMix64;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::plan::{
        CheckpointPolicy, CrashEvent, FaultPlan, FaultSpec, LinkFaultKind, RecoveryPolicy,
    };
    pub use crate::rng::SplitMix64;
}
