//! The resumable rank-program trait, and the closed forms a counted
//! program can claim.

use crate::programs::{Matmul25DPhases, SampleSortPhases, StencilPhases};
use crate::step::{Delivered, Step};

/// A counted program whose per-rank step sequence is known in closed
/// form.
///
/// When every rank of a run reports the same `AnalyticOp` and the run is
/// not traced, the event executor prices the whole program analytically
/// instead of scheduling its messages one by one — any claim on a flat,
/// fault-free machine, and the binomial allreduce under a fault plan or
/// a hierarchy too, where its pricer drives one `psse_sim::Meter` per
/// rank. The fast path walks the same per-rank sequence of Eq. 1/2
/// pricing operations through the same primitives, so profiles stay
/// byte-identical with the general path; see `crate::fastpath`.
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
/// The executor repeatedly calls [`RankProgram::next`]; the program
/// returns its next visible action as a [`Step`] and keeps whatever
/// private state it needs between calls. `delivered` is `Some` exactly
/// when the *previous* step was [`Step::Recv`] and carries that
/// transfer's payload; it is `None` otherwise.
///
/// The same program runs unchanged on either backend via
/// [`crate::run_programs`]: on `Backend::Threads` each step is replayed
/// through a `psse_sim::Rank` on its own pooled thread (the bit-identity
/// oracle); on `Backend::Events` steps are priced by the event
/// executor's per-rank `psse_sim::Meter`, one runnable rank at a time —
/// byte-identical profiles, six orders of magnitude more ranks per
/// process.
///
/// Contract:
/// * `next` is called until it returns [`Step::Done`], never after;
/// * a program must consume every transfer it is sent (unreceived
///   transfers fail the debug-build balance check, like the thread
///   backend);
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
    /// cross-checks only that all ranks agree, and the
    /// `fastpath_identity` differential tests hold the two paths
    /// byte-equal.
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
