//! Trace-engine error type.

use std::fmt;

/// Errors surfaced by trace construction, replay and (de)serialisation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The run was executed without `SimConfig::record_trace`, so there
    /// is no event log to build a trace from.
    NotRecorded,
    /// Replay parameters rejected (negative or infinite price, zero
    /// message size, prices whose charges over this trace overflow).
    InvalidParams(String),
    /// A `Recv` event has no matching `Send` in the sender's log.
    UnmatchedRecv {
        /// Receiving rank.
        rank: usize,
        /// Index of the receive in that rank's event log.
        index: usize,
        /// Expected source rank.
        src: usize,
        /// Message tag.
        tag: u64,
    },
    /// A matched send/receive pair disagrees on the transfer size.
    WordsMismatch {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dest: usize,
        /// Message tag.
        tag: u64,
        /// Words according to the send event.
        sent: usize,
        /// Words according to the receive event.
        recvd: usize,
    },
    /// The event DAG contains a dependency cycle — replay cannot make
    /// progress. Impossible for traces recorded from a completed run.
    Stuck,
    /// The event log is internally inconsistent (e.g. a `Free` larger
    /// than the tracked allocation).
    Corrupt(String),
    /// Replaying the trace under its own recorded parameters did not
    /// reproduce the live profile.
    Inconsistent(String),
    /// A serialised trace failed to parse.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// Filesystem error while saving or loading.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NotRecorded => write!(
                f,
                "run was not recorded: set SimConfig::record_trace before running"
            ),
            TraceError::InvalidParams(m) => write!(f, "invalid replay parameters: {m}"),
            TraceError::UnmatchedRecv {
                rank,
                index,
                src,
                tag,
            } => write!(
                f,
                "recv event {index} on rank {rank} has no matching send from rank {src} with tag {tag}"
            ),
            TraceError::WordsMismatch {
                src,
                dest,
                tag,
                sent,
                recvd,
            } => write!(
                f,
                "transfer {src}->{dest} tag {tag}: send says {sent} words but recv says {recvd}"
            ),
            TraceError::Stuck => write!(f, "replay made no progress (cyclic event DAG)"),
            TraceError::Corrupt(m) => write!(f, "corrupt trace: {m}"),
            TraceError::Inconsistent(m) => write!(f, "replay does not reproduce the live run: {m}"),
            TraceError::Parse { line, msg } => write!(f, "trace parse error at line {line}: {msg}"),
            TraceError::Io(m) => write!(f, "trace i/o error: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Convenience alias used throughout the crate.
pub type TraceResult<T> = Result<T, TraceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(TraceError, &str)> = vec![
            (TraceError::NotRecorded, "record_trace"),
            (TraceError::InvalidParams("bad m".into()), "bad m"),
            (
                TraceError::UnmatchedRecv {
                    rank: 1,
                    index: 4,
                    src: 0,
                    tag: 7,
                },
                "tag 7",
            ),
            (
                TraceError::WordsMismatch {
                    src: 0,
                    dest: 1,
                    tag: 2,
                    sent: 10,
                    recvd: 9,
                },
                "10 words",
            ),
            (TraceError::Stuck, "no progress"),
            (TraceError::Corrupt("neg".into()), "neg"),
            (TraceError::Inconsistent("rank 0".into()), "rank 0"),
            (
                TraceError::Parse {
                    line: 3,
                    msg: "bad float".into(),
                },
                "line 3",
            ),
            (TraceError::Io("denied".into()), "denied"),
        ];
        for (e, frag) in cases {
            assert!(e.to_string().contains(frag), "{e}");
        }
    }
}
