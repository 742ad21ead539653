//! Simulator error type.

use std::fmt;

/// Errors surfaced by the simulated machine.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm,
/// so adding fault-related variants is not a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Configuration rejected before launch (zero ranks, bad parameters).
    InvalidConfig(String),
    /// A rank addressed a peer outside `0..p`.
    RankOutOfRange {
        /// The offending rank id.
        rank: usize,
        /// World size.
        size: usize,
    },
    /// A rank's tracked allocation exceeded the configured per-rank
    /// memory limit.
    MemoryLimitExceeded {
        /// Rank whose allocation failed.
        rank: usize,
        /// Words requested in total after the failing allocation.
        requested: u64,
        /// Configured limit.
        limit: u64,
    },
    /// More words freed than allocated — an accounting bug in the caller.
    MemoryUnderflow {
        /// Rank with broken accounting.
        rank: usize,
    },
    /// Another rank returned an error or panicked, poisoning the run.
    PeerFailed(String),
    /// The run's traffic did not balance: words sent across links and
    /// words received differ (a program left transfers unreceived, or
    /// counters were corrupted). Raised by `Profile::assert_balanced`.
    UnbalancedProfile {
        /// Total words sent across links.
        sent: u64,
        /// Total words received.
        recvd: u64,
    },
    /// An algorithm-level precondition failed (used by `psse-algos`).
    Algorithm(String),
    /// A rank hit its scheduled crash time with no checkpoint/restart
    /// policy to recover it (injected by `SimConfig::faults`).
    RankCrashed {
        /// The crashed rank.
        rank: usize,
        /// Virtual time of the crash, seconds.
        at: f64,
    },
    /// An integrity check (ABFT checksum, checked collective) caught a
    /// corrupted payload.
    CorruptPayload {
        /// Rank that detected the corruption.
        rank: usize,
        /// What was checked and how it failed.
        detail: String,
    },
    /// A transfer kept failing after exhausting the recovery policy's
    /// retry budget.
    RetriesExhausted {
        /// Sending rank.
        rank: usize,
        /// Destination rank.
        dest: usize,
        /// Attempts made (original send + retries).
        attempts: u32,
    },
    /// The run's [`crate::machine::CancelFlag`] was raised, or its
    /// deadline passed (e.g. a lab `--timeout` budget), before the run
    /// could complete.
    Cancelled,
    /// True deadlock, proven rather than timed out: every live rank is
    /// blocked in a receive and no blocked rank has a matching message
    /// queued, so no progress is possible. Raised on every run — by
    /// [`crate::Machine::run`] and by [`crate::EventMachine`] alike,
    /// with the same fields — and never after a wall-clock wait.
    Deadlock {
        /// The lowest blocked rank id (`blocked[0]`).
        rank: usize,
        /// Every blocked rank id, ascending.
        blocked: Vec<usize>,
    },
    /// The OS refused a thread [`crate::Machine::run`] needed. The ranks
    /// already started were released through the poison wake-up, so
    /// the run ends instead of waiting on ranks that never started.
    ThreadSpawn {
        /// World size of the refused run.
        p: usize,
        /// The OS error, as the OS words it.
        error: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(m) => write!(f, "invalid simulator config: {m}"),
            SimError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for world size {size}")
            }
            SimError::MemoryLimitExceeded {
                rank,
                requested,
                limit,
            } => write!(
                f,
                "rank {rank} exceeded memory limit: {requested} > {limit} words"
            ),
            SimError::MemoryUnderflow { rank } => {
                write!(f, "rank {rank} freed more words than it allocated")
            }
            SimError::PeerFailed(m) => write!(f, "peer rank failed: {m}"),
            SimError::UnbalancedProfile { sent, recvd } => write!(
                f,
                "unbalanced profile: {sent} words sent but {recvd} received"
            ),
            SimError::Algorithm(m) => write!(f, "algorithm error: {m}"),
            SimError::RankCrashed { rank, at } => {
                write!(
                    f,
                    "rank {rank} crashed at virtual time {at:.6}s with no checkpoint to restart from"
                )
            }
            SimError::CorruptPayload { rank, detail } => {
                write!(f, "rank {rank} detected a corrupt payload: {detail}")
            }
            SimError::RetriesExhausted {
                rank,
                dest,
                attempts,
            } => write!(
                f,
                "rank {rank} gave up sending to {dest} after {attempts} failed attempts"
            ),
            SimError::Cancelled => {
                write!(
                    f,
                    "run cancelled (flag raised or deadline passed) before completion"
                )
            }
            SimError::Deadlock { rank, blocked } => {
                write!(
                    f,
                    "deadlock proven at rank {rank}: ranks {blocked:?} are all blocked \
                     in recv with no matching message queued"
                )
            }
            SimError::ThreadSpawn { p, error } => {
                write!(
                    f,
                    "could not start a thread for a run of p = {p} ranks: {error}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(SimError, &str)> = vec![
            (SimError::InvalidConfig("p = 0".into()), "p = 0"),
            (SimError::RankOutOfRange { rank: 9, size: 4 }, "rank 9"),
            (
                SimError::MemoryLimitExceeded {
                    rank: 1,
                    requested: 100,
                    limit: 50,
                },
                "100 > 50",
            ),
            (SimError::MemoryUnderflow { rank: 2 }, "rank 2"),
            (SimError::PeerFailed("boom".into()), "boom"),
            (
                SimError::UnbalancedProfile {
                    sent: 70,
                    recvd: 30,
                },
                "70 words sent but 30 received",
            ),
            (SimError::Algorithm("bad grid".into()), "bad grid"),
            (SimError::RankCrashed { rank: 5, at: 1.25 }, "rank 5"),
            (
                SimError::CorruptPayload {
                    rank: 3,
                    detail: "checksum row mismatch".into(),
                },
                "checksum row mismatch",
            ),
            (
                SimError::RetriesExhausted {
                    rank: 1,
                    dest: 4,
                    attempts: 7,
                },
                "7 failed attempts",
            ),
            (
                SimError::Deadlock {
                    rank: 0,
                    blocked: vec![0, 1],
                },
                "[0, 1]",
            ),
            (SimError::Cancelled, "cancelled"),
            (
                SimError::ThreadSpawn {
                    p: 8,
                    error: "Resource temporarily unavailable".into(),
                },
                "p = 8 ranks: Resource temporarily unavailable",
            ),
        ];
        for (e, frag) in cases {
            assert!(e.to_string().contains(frag), "{e}");
        }
    }
}
