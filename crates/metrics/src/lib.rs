//! # psse-metrics — zero-dependency structured metrics
//!
//! The observability layer for the psse workspace: counters, gauges
//! and mergeable log-linear histograms behind a [`Registry`] that
//! snapshots to canonical JSON, and [`num`], the one writer of
//! the numbers the workspace prints for machines (CSV, trace text,
//! JSON): the bytes of `{:?}` and `{}` without `core::fmt`.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic output.** Snapshots sort by metric name, and the
//!    JSON rendering is canonical — two registries holding the same
//!    recorded values serialize byte-for-byte identically, no matter
//!    what order threads touched them in. This is what lets `psse lab
//!    run --jobs 8` emit a self-profile whose *structure* is stable
//!    across reruns (only timing values vary).
//! 2. **Exact merges.** [`Histogram`] state is all integers (u64
//!    counts, u128 sum), so [`Histogram::merge`] is exactly
//!    associative and commutative. Per-worker shards reduce to the
//!    same result for any reduction-tree shape — verified by proptest.
//! 3. **Zero dependencies.** The crate sits below `psse-sim` and
//!    `psse-faults` in the dependency DAG, so it can pull in nothing;
//!    even JSON is the ~300-line [`json::Json`] value type, and float
//!    printing is [`num`]'s Ryu digits.
//!
//! ```
//! use psse_metrics::prelude::*;
//!
//! let reg = Registry::new();
//! reg.counter("lab.cache.hits").unwrap().add(3);
//! let wall = reg.histogram("lab.run.wall_ns").unwrap();
//! wall.record_secs(0.001);
//! wall.record_secs(0.004);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("lab.cache.hits"), Some(&SnapshotValue::Counter(3)));
//! let json = snap.to_json().to_string();
//! assert!(json.contains("\"lab.run.wall_ns\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod num;
pub mod registry;

pub use hist::{saturating_nanos, Histogram};
pub use json::Json;
pub use registry::{
    histogram_from_json, histogram_to_json, Counter, Gauge, HistogramHandle, Registry, Snapshot,
    SnapshotValue,
};

/// The usual imports for metrics users.
pub mod prelude {
    pub use crate::hist::{saturating_nanos, Histogram};
    pub use crate::json::Json;
    pub use crate::registry::{
        histogram_from_json, histogram_to_json, Counter, Gauge, HistogramHandle, Registry,
        Snapshot, SnapshotValue,
    };
}
