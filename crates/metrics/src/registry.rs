//! The metric registry: named counters, gauges and histograms with
//! canonical snapshots.
//!
//! A [`Registry`] is a concurrent map from metric name to metric.
//! Handles ([`Counter`], [`Gauge`], [`HistogramHandle`]) are cheap
//! clones that share state with the registry, so hot paths update
//! without re-hashing the name. [`Registry::snapshot`] freezes the
//! whole map into a [`Snapshot`] whose entries are sorted by name —
//! the JSON rendering is therefore canonical: two
//! registries with the same recorded values serialize byte-for-byte
//! identically, regardless of insertion or thread interleaving order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;
use crate::json::Json;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `v` to the counter.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `i64` gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared handle to a registered [`Histogram`].
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Record one `u64` sample (unit chosen by the caller).
    pub fn record(&self, v: u64) {
        self.0.lock().unwrap().record(v);
    }

    /// Record seconds as integer nanoseconds (see
    /// [`crate::hist::saturating_nanos`]).
    pub fn record_secs(&self, secs: f64) {
        self.0.lock().unwrap().record_secs(secs);
    }

    /// Merge a standalone histogram (e.g. a per-worker shard) into
    /// this one.
    pub fn merge(&self, other: &Histogram) {
        self.0.lock().unwrap().merge(other);
    }

    /// Clone out the current histogram state.
    pub fn load(&self) -> Histogram {
        self.0.lock().unwrap().clone()
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A concurrent, snapshot-able collection of named metrics.
///
/// Names are free-form; the workspace convention is dot-separated
/// namespaces (`lab.run.wall_ns`, `sim.rank.flops`, `faults.retries`).
/// Re-registering a name returns the existing metric; asking for the
/// same name with a different kind is an error rather than a silent
/// aliasing bug.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Result<Counter, String> {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => Ok(c.clone()),
            other => Err(kind_mismatch(name, "counter", other.kind())),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Result<Gauge, String> {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => Ok(g.clone()),
            other => Err(kind_mismatch(name, "gauge", other.kind())),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Result<HistogramHandle, String> {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(HistogramHandle::default()))
        {
            Metric::Histogram(h) => Ok(h.clone()),
            other => Err(kind_mismatch(name, "histogram", other.kind())),
        }
    }

    /// Freeze every metric into a sorted, immutable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().unwrap();
        Snapshot {
            entries: map
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                        Metric::Histogram(h) => SnapshotValue::Histogram(h.load()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

fn kind_mismatch(name: &str, wanted: &str, found: &str) -> String {
    format!("metric `{name}` is a {found}, not a {wanted}")
}

/// One frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram state.
    Histogram(Histogram),
}

/// A point-in-time copy of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, SnapshotValue)>,
}

impl Snapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Canonical JSON rendering: an object keyed by metric name (name
    /// order), each value tagged with its kind. Histograms serialize
    /// their full occupied-bucket list, so a snapshot round-trips
    /// losslessly through [`Json`].
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        SnapshotValue::Counter(c) => Json::obj(vec![
                            ("kind", Json::Str("counter".into())),
                            ("value", Json::Int(*c as i128)),
                        ]),
                        SnapshotValue::Gauge(g) => Json::obj(vec![
                            ("kind", Json::Str("gauge".into())),
                            ("value", Json::Int(*g as i128)),
                        ]),
                        SnapshotValue::Histogram(h) => histogram_to_json(h),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

/// Serialize a histogram as a tagged JSON object.
pub fn histogram_to_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("kind", Json::Str("histogram".into())),
        ("count", Json::Int(h.count() as i128)),
        ("sum", Json::Int(h.sum() as i128)),
        ("min", Json::Int(h.min().unwrap_or(0) as i128)),
        ("max", Json::Int(h.max().unwrap_or(0) as i128)),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(lo, hi, c)| {
                        Json::Arr(vec![
                            Json::Int(lo as i128),
                            Json::Int(hi as i128),
                            Json::Int(c as i128),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Rebuild a histogram from [`histogram_to_json`] output. The
/// reconstruction replays one synthetic sample per bucket count at the
/// bucket's low bound, then restores the exact `sum`/`min`/`max` — so
/// count, sum, min, max and the bucket occupancy all round-trip
/// exactly.
pub fn histogram_from_json(v: &Json) -> Result<Histogram, String> {
    let want_int = |k: &str| -> Result<i128, String> {
        v.get(k)
            .and_then(Json::as_int)
            .ok_or_else(|| format!("histogram JSON missing integer `{k}`"))
    };
    let buckets = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram JSON missing `buckets`")?;
    let mut h = Histogram::new();
    for b in buckets {
        let t = b.as_arr().ok_or("bucket is not an array")?;
        if t.len() != 3 {
            return Err("bucket is not a [lo, hi, count] triple".into());
        }
        let lo = t[0].as_u64().ok_or("bad bucket low bound")?;
        let c = t[2].as_u64().ok_or("bad bucket count")?;
        for _ in 0..c {
            h.record(lo);
        }
    }
    if h.count() != want_int("count")? as u64 {
        return Err("bucket counts disagree with `count`".into());
    }
    h.force_stats(
        u128::try_from(want_int("sum")?).map_err(|_| "negative sum".to_string())?,
        want_int("min")? as u64,
        want_int("max")? as u64,
    );
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("lab.cache.hits").unwrap();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying counter.
        assert_eq!(reg.counter("lab.cache.hits").unwrap().get(), 5);

        let g = reg.gauge("lab.jobs").unwrap();
        g.set(8);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let reg = Registry::new();
        reg.counter("x").unwrap();
        assert!(reg.gauge("x").is_err());
        assert!(reg.histogram("x").is_err());
        let err = reg.gauge("x").unwrap_err();
        assert!(err.contains("counter"), "{err}");
    }

    #[test]
    fn snapshot_is_sorted_and_canonical() {
        let reg = Registry::new();
        reg.gauge("z.last").unwrap().set(1);
        reg.counter("a.first").unwrap().add(2);
        let h = reg.histogram("m.mid").unwrap();
        h.record(100);
        h.record(200);

        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
        assert_eq!(snap.get("a.first"), Some(&SnapshotValue::Counter(2)));
        match snap.get("m.mid") {
            Some(SnapshotValue::Histogram(h)) => assert_eq!((h.count(), h.sum()), (2, 300)),
            other => panic!("{other:?}"),
        }

        // Same values registered in a different order → same bytes.
        let reg2 = Registry::new();
        let h2 = reg2.histogram("m.mid").unwrap();
        h2.record(200);
        h2.record(100);
        reg2.counter("a.first").unwrap().add(2);
        reg2.gauge("z.last").unwrap().set(1);
        assert_eq!(
            reg2.snapshot().to_json().to_string(),
            snap.to_json().to_string()
        );
    }

    #[test]
    fn snapshot_get_finds_entries() {
        let reg = Registry::new();
        reg.counter("hits").unwrap().add(3);
        let snap = reg.snapshot();
        assert_eq!(snap.get("hits"), Some(&SnapshotValue::Counter(3)));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new();
        for v in [1u64, 17, 17, 1_000_003, u64::MAX / 3] {
            h.record(v);
        }
        let back = histogram_from_json(&histogram_to_json(&h)).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.nonzero_buckets(), h.nonzero_buckets());
    }

    #[test]
    fn shards_merge_through_handles() {
        // Two "workers" each build a local shard; merging through the
        // registry handle gives the union.
        let reg = Registry::new();
        let handle = reg.histogram("wall_ns").unwrap();
        let mut shard_a = Histogram::new();
        shard_a.record(10);
        let mut shard_b = Histogram::new();
        shard_b.record(30);
        handle.merge(&shard_a);
        handle.merge(&shard_b);
        let h = handle.load();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 40);
    }
}
