//! # psse-event — the event executor's old import path
//!
//! The discrete-event executor lives in `psse-sim`, as
//! [`psse_sim::event`], and [`psse_sim::run_programs`] dispatches to it.
//! This crate holds no code: it keeps the names `psse_event::prelude`
//! used to export, re-exported from `psse-sim`, for the one caller
//! still importing them from here — the performance ledger, whose
//! manifest and sources are frozen — plus [`prelude::RunParallel`], the
//! ledger's name for [`psse_sim::EventMachine::run`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// The old one-stop imports, re-exported from `psse-sim`.
pub mod prelude {
    use psse_sim::error::SimResult;
    pub use psse_sim::prelude::{
        run_programs, AnalyticOp, Backend, BinomialAllreduce, Delivered, EventMachine,
        EventOutcome, ExecStats, Matmul25D, OpTotals, Payload, RankProgram,
        RecursiveDoublingAllreduce, RingAllreduce, SampleSort, SimConfig, Stencil1D, Step, Tag,
    };

    /// `EventMachine::run_parallel`: the ledger calls the event
    /// executor by this name.
    pub trait RunParallel {
        /// Forwards to [`EventMachine::run`]; `workers` is ignored
        /// (there is one executor).
        fn run_parallel<P, F>(
            p: usize,
            cfg: &SimConfig,
            make: F,
            _workers: usize,
        ) -> SimResult<EventOutcome<P>>
        where
            P: RankProgram + Send,
            F: FnMut(usize, usize) -> P,
        {
            EventMachine::run(p, cfg, make)
        }
    }

    impl RunParallel for EventMachine {}
}
