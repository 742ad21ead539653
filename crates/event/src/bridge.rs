//! Backend dispatch: run the same rank programs on the thread-per-rank
//! machine (the bit-identity oracle) or the discrete-event executor.

use crate::exec::{EventMachine, EventOutcome, ExecStats};
use crate::program::RankProgram;
use crate::step::{Delivered, Step};
use psse_sim::error::SimResult;
use psse_sim::{Backend, Machine, SimConfig};

/// Run one program per rank on the backend selected by
/// [`SimConfig::backend`]:
///
/// * [`Backend::Threads`] — each program's steps are replayed through a
///   `psse_sim::Rank` on its own pooled OS thread. Every step maps to
///   the exact `Rank` call the closure API would make (`Compute` →
///   `compute`, `Send` → `send_shared`, `Recv` → `recv_shared`,
///   markers → `mark_collective_begin`/`end`), so this is the oracle
///   the event backend is checked against.
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
                let mut prog = make(rank.rank(), rank.size());
                let mut delivered: Option<Delivered> = None;
                loop {
                    match prog.next(delivered.take()) {
                        Step::Compute { flops } => rank.compute(flops),
                        Step::Send { dest, tag, payload } => {
                            rank.send_shared(dest, tag, payload.into_shared())?;
                        }
                        Step::Recv { src, tag } => {
                            let data = rank.recv_shared(src, tag)?;
                            delivered = Some(Delivered {
                                words: data.len(),
                                data: Some(data),
                            });
                        }
                        Step::CollBegin { op } => rank.mark_collective_begin(op),
                        Step::CollEnd { op } => rank.mark_collective_end(op),
                        Step::Done => break,
                    }
                }
                Ok(prog)
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
