//! Fold a recorded event DAG into collapsed-stack ("folded") format.
//!
//! Collapsed stacks are the lingua franca of flamegraph tooling — one
//! line per unique stack, semicolon-separated frames, a space, and an
//! integer count — consumable unmodified by `flamegraph.pl`,
//! speedscope, inferno and friends:
//!
//! ```text
//! rank0;allreduce_sum;send 125000
//! rank0;main;compute 1000000
//! rank1;main;recv-wait 125000
//! ```
//!
//! The three frames are `rank;phase;op`: the recording rank, the
//! enclosing collective (`main` outside any), and the operation kind.
//! Counts are the operation's *replayed* virtual time in integer
//! nanoseconds, so the same recording can be folded under any
//! [`ReplayParams`] — the flamegraph of
//! "this run on a 10× slower network" is one re-fold away, no
//! re-execution. Lines are sorted lexicographically, making the output
//! canonical for a given `(trace, params)` pair.

use std::collections::BTreeMap;

use psse_metrics::num::push_u64;
use psse_metrics::saturating_nanos;
use psse_sim::record::EventKind;

use crate::error::TraceResult;
use crate::replay::schedule;
use crate::trace::{ReplayParams, Trace};

impl Trace {
    /// Replay under `params` and fold every rank's timeline into
    /// collapsed-stack lines (`rank;phase;op count`), aggregated per
    /// unique stack and sorted. Zero-duration events (markers,
    /// alloc/free) fold away; receive waits appear as `recv-wait` so
    /// the graph shows where ranks blocked, not just where they
    /// worked.
    pub fn flame_folded(&self, params: &ReplayParams) -> TraceResult<String> {
        params.validate()?;
        let sched = schedule(self.p, &self.events, params)?;
        let mut stacks: Vec<(String, u64)> = Vec::new();
        for r in 0..self.p {
            let mut fold = RankFold::default();
            // Innermost enclosing collective; `main` at top level.
            let mut colls: Vec<&str> = Vec::new();
            let mut phase = fold.slot("main");
            for (i, e) in self.events[r].iter().enumerate() {
                let op = match &e.kind {
                    EventKind::CollBegin { op } => {
                        colls.push(op);
                        phase = fold.slot(op);
                        continue;
                    }
                    EventKind::CollEnd { .. } => {
                        colls.pop();
                        phase = fold.slot(colls.last().copied().unwrap_or("main"));
                        continue;
                    }
                    EventKind::Compute { .. } => 0,
                    EventKind::Send { .. } => 1,
                    EventKind::Recv { .. } => 2,
                    EventKind::Retry { .. } => 3,
                    EventKind::LinkDelay { .. } => 4,
                    EventKind::Checkpoint { .. } => 5,
                    EventKind::CrashRecovery { .. } => 6,
                    EventKind::Alloc { .. } | EventKind::Free { .. } => continue,
                };
                let ns = saturating_nanos(sched.ends[r][i] - sched.starts[r][i]);
                if ns > 0 {
                    *fold.totals[phase].1[op].get_or_insert(0) += ns;
                }
            }
            for (phase, ops) in &fold.totals {
                for (name, ns) in OPS.iter().zip(ops) {
                    if let Some(ns) = ns {
                        stacks.push((format!("rank{r};{phase};{name}"), *ns));
                    }
                }
            }
        }
        stacks.sort_unstable();
        let mut out = String::new();
        for (stack, ns) in &stacks {
            out.push_str(stack);
            out.push(' ');
            push_u64(&mut out, *ns);
            out.push('\n');
        }
        Ok(out)
    }
}

/// One rank's fold: its phases in first-seen order, each with the
/// nanoseconds of every op that took any.
#[derive(Default)]
struct RankFold<'a> {
    slot_of: BTreeMap<&'a str, usize>,
    totals: Vec<(&'a str, [Option<u64>; OPS.len()])>,
}

impl<'a> RankFold<'a> {
    /// The index of `phase` in `totals`, added if new.
    fn slot(&mut self, phase: &'a str) -> usize {
        let totals = &mut self.totals;
        *self.slot_of.entry(phase).or_insert_with(|| {
            totals.push((phase, [None; OPS.len()]));
            totals.len() - 1
        })
    }
}

/// The op frame of each event kind that takes time, by index.
const OPS: [&str; 7] = [
    "compute",
    "send",
    "recv-wait",
    "retry",
    "link-delay",
    "checkpoint",
    "crash-recovery",
];

#[cfg(test)]
mod tests {
    use super::*;
    use psse_sim::machine::{Machine, SimConfig};
    use psse_sim::message::Tag;

    fn record<F>(p: usize, cfg: SimConfig, f: F) -> Trace
    where
        F: Fn(&mut psse_sim::rank::Rank) -> Result<(), psse_sim::error::SimError> + Sync,
    {
        let cfg = SimConfig {
            record_trace: true,
            ..cfg
        };
        let out = Machine::run(p, cfg.clone(), f).unwrap();
        Trace::from_run(&cfg, &out.profile).unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-7,
            alpha_t: 1e-5,
            ..SimConfig::default()
        }
    }

    #[test]
    fn folded_lines_are_well_formed_and_sorted() {
        let tr = record(4, cfg(), |rank| {
            rank.compute(100_000);
            let v = rank.allreduce_sum(Tag(0), vec![rank.rank() as f64; 500])?;
            std::hint::black_box(v);
            Ok(())
        });
        let folded = tr.flame_folded(&tr.params).unwrap();
        assert!(!folded.is_empty());
        let mut prev = String::new();
        for line in folded.lines() {
            // `frames count` with exactly three semicolon-separated frames.
            let (stack, count) = line.rsplit_once(' ').expect("space before count");
            assert_eq!(stack.split(';').count(), 3, "bad stack `{stack}`");
            assert!(stack.starts_with("rank"), "bad root frame `{stack}`");
            let n: u64 = count.parse().expect("integer count");
            assert!(n > 0, "zero-count line `{line}`");
            assert!(
                prev.as_str() < line,
                "lines not sorted: `{prev}` >= `{line}`"
            );
            prev = line.to_string();
        }
        // Compute happened outside the collective; the allreduce's
        // constituent collectives (reduce + broadcast) frame the comm.
        assert!(folded.contains("rank0;main;compute "), "{folded}");
        assert!(folded.contains(";reduce_sum;"), "{folded}");
        assert!(folded.contains(";broadcast;"), "{folded}");
    }

    #[test]
    fn refolding_under_slower_network_grows_comm_counts() {
        let tr = record(2, cfg(), |rank| {
            rank.compute(10_000);
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0; 1000])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        });
        let count_of = |folded: &str, needle: &str| -> u64 {
            folded
                .lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.rsplit_once(' '))
                .and_then(|(_, c)| c.parse().ok())
                .unwrap_or(0)
        };
        let base = tr.flame_folded(&tr.params).unwrap();
        let mut slow = tr.params.clone();
        slow.beta_t *= 10.0;
        let refolded = tr.flame_folded(&slow).unwrap();
        let send_base = count_of(&base, "rank0;main;send ");
        let send_slow = count_of(&refolded, "rank0;main;send ");
        assert!(send_base > 0);
        assert!(send_slow > 5 * send_base, "{send_base} -> {send_slow}");
        // Compute is untouched by the network re-pricing.
        assert_eq!(
            count_of(&base, "rank0;main;compute "),
            count_of(&refolded, "rank0;main;compute ")
        );
    }

    #[test]
    fn folding_is_deterministic() {
        let tr = record(3, cfg(), |rank| {
            rank.compute(5_000);
            let v = rank.allreduce_sum(Tag(0), vec![1.0; 64])?;
            std::hint::black_box(v);
            Ok(())
        });
        assert_eq!(
            tr.flame_folded(&tr.params).unwrap(),
            tr.flame_folded(&tr.params).unwrap()
        );
    }
}
