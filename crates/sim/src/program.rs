//! Rank programs: an algorithm as a resumable state machine, and the
//! continuation vocabulary it speaks.
//!
//! A rank program is called, not spawned: an executor calls
//! [`RankProgram::next`] and gets back one [`Step`] — the program's next
//! visible action. Everything between two steps is private program
//! state; everything the simulator prices or records is a step. This is
//! the explicit-continuation form of a closure run by
//! [`crate::Machine::run`]: instead of blocking inside `recv`, the
//! program *returns* `Step::Recv` and is resumed with the delivery.
//!
//! Two executors run the same program: [`crate::Rank::run_program`]
//! replays its steps through a rank of the thread machine, and
//! `psse-event`'s scheduler prices them from a worklist — byte-identical
//! profiles, six orders of magnitude more ranks per process.

use crate::error::SimError;
use crate::message::{SharedPayload, Tag};
use crate::programs::{Matmul25DPhases, SampleSortPhases, StencilPhases};
use std::sync::Arc;

/// What a send puts on the wire.
#[derive(Debug, Clone)]
pub enum Payload {
    /// `words` words, priced and counted but never materialized — the
    /// mega-scale mode (a million-rank run cannot afford real buffers).
    Counted(usize),
    /// Real words, shared zero-copy exactly like the thread backend's
    /// [`SharedPayload`] wire format.
    Data(SharedPayload),
}

impl Payload {
    /// Payload length in words.
    pub fn words(&self) -> usize {
        match self {
            Payload::Counted(w) => *w,
            Payload::Data(d) => d.len(),
        }
    }

    /// Materialize for the thread backend's wire (counted payloads
    /// become zero-filled buffers of the same length, so pricing and
    /// counters are unchanged).
    pub fn into_shared(self) -> SharedPayload {
        match self {
            Payload::Counted(w) => Arc::new(vec![0.0; w]),
            Payload::Data(d) => d,
        }
    }
}

/// A completed receive, handed to the program's next resumption.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Payload length in words.
    pub words: usize,
    /// The received buffer; `None` when the transfer was counted-only.
    pub data: Option<SharedPayload>,
}

impl Delivered {
    /// The received words, or an empty slice for counted transfers.
    pub fn values(&self) -> &[f64] {
        self.data.as_deref().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// One visible action of a rank program. Mirrors the [`crate::Rank`]
/// API one-to-one, so a program runs on either executor byte for byte.
#[derive(Debug, Clone)]
pub enum Step {
    /// Execute `flops` floating-point operations (`γt·flops` seconds).
    Compute {
        /// Operations charged.
        flops: u64,
    },
    /// Send `payload` to `dest` under `tag` (eager, never blocks).
    Send {
        /// Destination rank.
        dest: usize,
        /// Transfer tag.
        tag: Tag,
        /// The payload.
        payload: Payload,
    },
    /// Block until the transfer from `src` under `tag` arrives; the
    /// program is resumed with `Some(`[`Delivered`]`)`.
    Recv {
        /// Source rank.
        src: usize,
        /// Transfer tag.
        tag: Tag,
    },
    /// Trace marker: a collective began (no cost; recorded only when
    /// tracing, exactly like the built-in collectives' markers).
    CollBegin {
        /// Collective name, e.g. `"allreduce_sum"`.
        op: &'static str,
    },
    /// Trace marker: the matching collective completed.
    CollEnd {
        /// Collective name.
        op: &'static str,
    },
    /// The program finished; `next` will not be called again.
    Done,
    /// The program refuses to go on — a delivery it cannot use, such as
    /// a block of the wrong length — and the rank fails with this
    /// error, as a `Rank` method returning it would. `next` will not be
    /// called again.
    Fail(SimError),
}

/// A counted program whose per-rank step sequence is known in closed
/// form.
///
/// When every rank of a run reports the same `AnalyticOp` and the run is
/// not traced, the event executor prices the whole program analytically
/// instead of scheduling its messages one by one — any claim on a flat,
/// fault-free machine, and the binomial allreduce under a fault plan or
/// a hierarchy too, where its pricer drives one [`crate::Meter`] per
/// rank. The closed form walks the same per-rank sequence of Eq. 1/2
/// pricing operations through the same primitives, so profiles stay
/// byte-identical with the scheduled path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticOp {
    /// Binomial-tree reduce to rank 0 followed by binomial broadcast,
    /// `words` per edge (`programs::BinomialAllreduce`, counted mode).
    BinomialAllreduce {
        /// Payload words per tree edge.
        words: usize,
    },
    /// Recursive-doubling allreduce, `words` per exchange, `p` a power
    /// of two (`programs::RecursiveDoublingAllreduce`, counted mode).
    RecursiveDoublingAllreduce {
        /// Payload words per pairwise exchange.
        words: usize,
    },
    /// `p − 1` ring shifts with elementwise merge
    /// (`programs::RingAllreduce`, counted mode).
    RingAllreduce {
        /// Payload words per ring hop.
        words: usize,
    },
    /// Periodic halo sweeps in row slabs (`programs::Stencil1D`, counted
    /// mode), by the phase description the scheduler steps.
    Stencil1D(StencilPhases),
    /// The 2.5D matmul skeleton (`programs::Matmul25D`), likewise.
    Matmul25D(Matmul25DPhases),
    /// Sample sort in uniform buckets (`programs::SampleSort`, counted
    /// mode), likewise.
    SampleSort(SampleSortPhases),
}

/// A rank's algorithm as a resumable state machine.
///
/// An executor repeatedly calls [`RankProgram::next`]; the program
/// returns its next visible action as a [`Step`] and keeps whatever
/// private state it needs between calls. `delivered` is `Some` exactly
/// when the *previous* step was [`Step::Recv`] and carries that
/// transfer's payload; it is `None` otherwise.
///
/// The same program runs unchanged on the thread machine, through
/// [`crate::Rank::run_program`] (the bit-identity oracle), and on
/// `psse-event`'s executor, whose per-rank [`crate::Meter`] prices the
/// steps one runnable rank at a time.
///
/// Contract:
/// * `next` is called until it returns [`Step::Done`] or
///   [`Step::Fail`], never after;
/// * a program must consume every transfer it is sent (unreceived
///   transfers fail the debug-build balance check, like a closure);
/// * all sim-visible behavior must go through steps — a program that
///   does hidden work is still deterministic but prices nothing.
pub trait RankProgram {
    /// Produce the next step. See the trait docs for the `delivered`
    /// contract.
    fn next(&mut self, delivered: Option<Delivered>) -> Step;

    /// Declare this (not-yet-started) program as analytically priced.
    /// `None` (the default) always takes the general stepped path.
    /// Returning `Some` is a *claim* that the program's full step
    /// sequence is exactly the named program's — the executor
    /// cross-checks only that all ranks agree, and differential tests
    /// hold the two paths byte-equal.
    fn analytic(&self) -> Option<AnalyticOp> {
        None
    }
}

impl<T: RankProgram + ?Sized> RankProgram for Box<T> {
    fn next(&mut self, delivered: Option<Delivered>) -> Step {
        (**self).next(delivered)
    }

    fn analytic(&self) -> Option<AnalyticOp> {
        (**self).analytic()
    }
}
