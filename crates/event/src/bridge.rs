//! Backend dispatch: run the same rank programs on the thread-per-rank
//! machine (the bit-identity oracle) or the discrete-event executor.

use crate::exec::{EventMachine, EventOutcome, ExecStats};
use crate::program::RankProgram;
use psse_sim::error::SimResult;
use psse_sim::{Backend, Machine, SimConfig};

/// Run one program per rank on the backend selected by
/// [`SimConfig::backend`]:
///
/// * [`Backend::Threads`] — each program runs on its own pooled OS
///   thread through [`psse_sim::Rank::run_program`], which makes every
///   step the exact `Rank` call a closure would make — the call the
///   built-in collectives make for their own descriptions — so this is
///   the oracle the event backend is checked against.
/// * [`Backend::Events`] — [`EventMachine`] prices the same steps in
///   one process from a worklist of runnable ranks; byte-identical
///   profiles, traces, and fault counters, feasible to `p = 10^6`.
///
/// `make(rank, p)` constructs rank `rank`'s program.
pub fn run_programs<P, F>(p: usize, cfg: &SimConfig, make: F) -> SimResult<EventOutcome<P>>
where
    P: RankProgram + Send,
    F: Fn(usize, usize) -> P + Sync,
{
    match cfg.backend {
        Backend::Threads => {
            let outcome = Machine::run(p, cfg.clone(), |rank| {
                let mut program = make(rank.rank(), rank.size());
                rank.run_program(&mut program)?;
                Ok(program)
            })?;
            Ok(EventOutcome {
                programs: outcome.results,
                profile: outcome.profile,
                // Thread backend: nothing is scheduled or parked.
                stats: ExecStats::default(),
            })
        }
        Backend::Events => EventMachine::run(p, cfg, make),
    }
}
