//! The sweep self-profile: where the harness's own wall-clock went.
//!
//! A [`SweepProfile`] pairs the *host-side* timing of a sweep (per-key
//! wall-clock, per-worker busy/idle spans, cache temperature) with the
//! *virtual-cost* metrics exported during execution (Eq. 1/2 term
//! breakdowns, resilience counters) — one report answering both "which
//! keys were slow to evaluate" and "where did the modeled time/energy
//! go".
//!
//! The profile is a view of `Lab`'s one sweep loop, which reads the
//! clock and hands a run the registry only when a profile was asked for.
//!
//! Structure is deterministic: runs appear in spec order under their
//! [`RunKey`] labels and digests, workers in index
//! order, and the JSON rendering is canonical — reruns of the same
//! sweep differ only in the nanosecond values. One caveat, by design:
//! the `sim.*`/`faults.*` metric series are exported when a run
//! *executes*, so a warm cache yields fewer samples there than a cold
//! one. The `virt.*` series and everything else in the profile are
//! recorded per key occurrence, hit or miss, and are identical across
//! cache temperature and `--jobs` values.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use psse_metrics::{saturating_nanos, Json, Registry};

use crate::cache::CacheStats;
use crate::key::{Digest, RunKey};
use crate::result::RunResult;

/// Rows of the slowest-keys table in [`SweepProfile::render`].
const TOP_SLOWEST: usize = 5;

/// One worker's accounting over a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSpan {
    /// Nanoseconds spent running keys (busy; the rest of the sweep's
    /// wall clock was idle or contended).
    pub busy_ns: u64,
    /// Keys this worker completed.
    pub items: u64,
}

/// One run's entry in the self-profile, in spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProfile {
    /// Human-readable key label (`RunKey::label`).
    pub label: String,
    /// Content digest (`RunKey::digest`), linking the entry to its
    /// cache record.
    pub digest: String,
    /// Host wall-clock spent producing the result, nanoseconds
    /// (lookup time when cached, execution time when not).
    pub wall_ns: u64,
    /// True when the result came from the cache.
    pub cached: bool,
    /// True when the run succeeded.
    pub ok: bool,
}

/// The complete self-profile of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProfile {
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock of the whole sweep, nanoseconds.
    pub wall_ns: u64,
    /// Per-run host timing, spec order.
    pub runs: Vec<RunProfile>,
    /// Per-worker busy spans, worker-index order.
    pub workers: Vec<WorkerSpan>,
    /// Cache counters over the engine's lifetime at sweep end.
    pub cache: CacheStats,
    /// The metrics registry snapshot (canonical JSON): `virt.*` series
    /// recorded per key occurrence, `sim.*`/`faults.*` series exported
    /// by the runs that actually executed.
    pub metrics: Json,
}

impl SweepProfile {
    /// Indices of the `k` slowest runs, slowest first; ties break
    /// toward spec order so the ranking is deterministic.
    pub fn top_slowest(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.runs.len()).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(self.runs[i].wall_ns), i));
        idx.truncate(k);
        idx
    }

    /// Worker utilization in `[0, 1]`: busy nanoseconds over sweep
    /// wall-clock.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.workers
            .get(worker)
            .map_or(0.0, |w| w.busy_ns as f64 / self.wall_ns as f64)
    }

    /// Serialize to the canonical profile JSON (`version` 1). Field
    /// order is fixed, runs stay in spec order, so structure is
    /// byte-stable across reruns.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Int(1)),
            ("jobs", Json::Int(self.jobs as i128)),
            ("wall_ns", Json::Int(self.wall_ns as i128)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Int(self.cache.hits as i128)),
                    ("misses", Json::Int(self.cache.misses as i128)),
                    ("evictions", Json::Int(self.cache.evictions as i128)),
                    ("corrupt", Json::Int(self.cache.corrupt as i128)),
                    ("quarantined", Json::Int(self.cache.quarantined as i128)),
                ]),
            ),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("label", Json::Str(r.label.clone())),
                                ("digest", Json::Str(r.digest.clone())),
                                ("wall_ns", Json::Int(r.wall_ns as i128)),
                                ("cached", Json::Bool(r.cached)),
                                ("ok", Json::Bool(r.ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("busy_ns", Json::Int(w.busy_ns as i128)),
                                ("items", Json::Int(w.items as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }

    /// Parse a profile back from [`SweepProfile::to_json`] output.
    pub fn from_json(v: &Json) -> Result<SweepProfile, String> {
        let int = |obj: &Json, k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("profile JSON missing integer `{k}`"))
        };
        match v.get("version").and_then(Json::as_int) {
            Some(1) => {}
            other => return Err(format!("unsupported profile version {other:?}")),
        }
        let cache_v = v.get("cache").ok_or("profile JSON missing `cache`")?;
        let list = |k: &str| {
            let list = v.get(k).and_then(Json::as_arr);
            list.ok_or_else(|| format!("profile JSON missing `{k}`"))
        };
        let runs = list("runs")?
            .iter()
            .map(|r| {
                let text = |k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
                let flag = |k: &str| r.get(k).and_then(Json::as_bool);
                let missing = |k: &str| format!("run missing `{k}`");
                Ok(RunProfile {
                    label: text("label").ok_or_else(|| missing("label"))?,
                    digest: text("digest").ok_or_else(|| missing("digest"))?,
                    wall_ns: int(r, "wall_ns")?,
                    cached: flag("cached").ok_or_else(|| missing("cached"))?,
                    ok: flag("ok").ok_or_else(|| missing("ok"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let workers = list("workers")?
            .iter()
            .map(|w| {
                Ok(WorkerSpan {
                    busy_ns: int(w, "busy_ns")?,
                    items: int(w, "items")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SweepProfile {
            jobs: int(v, "jobs")? as usize,
            wall_ns: int(v, "wall_ns")?,
            runs,
            workers,
            cache: CacheStats {
                hits: int(cache_v, "hits")?,
                misses: int(cache_v, "misses")?,
                evictions: int(cache_v, "evictions")?,
                corrupt: int(cache_v, "corrupt")?,
                quarantined: int(cache_v, "quarantined")?,
            },
            metrics: v
                .get("metrics")
                .cloned()
                .ok_or("profile JSON missing `metrics`")?,
        })
    }

    /// Human-readable report: sweep summary, the five slowest keys,
    /// and per-worker utilization bars. Row *ordering* is
    /// deterministic; the timing columns are what vary between runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "self-profile: {} runs, jobs={}, wall {}, cache {} hits / {} misses\n",
            self.runs.len(),
            self.jobs,
            fmt_ns(self.wall_ns),
            self.cache.hits,
            self.cache.misses,
        ));
        let top = self.top_slowest(TOP_SLOWEST);
        if !top.is_empty() {
            out.push_str(&format!("top {} slowest keys:\n", top.len()));
            for i in top {
                let r = &self.runs[i];
                out.push_str(&format!(
                    "  {:>10}  {}{}\n",
                    fmt_ns(r.wall_ns),
                    r.label,
                    if r.cached { "  [cached]" } else { "" },
                ));
            }
        }
        if !self.workers.is_empty() {
            out.push_str("worker utilization:\n");
            for (w, span) in self.workers.iter().enumerate() {
                let u = self.utilization(w);
                let bars = (u * 20.0).round().clamp(0.0, 20.0) as usize;
                out.push_str(&format!(
                    "  w{w}: [{:<20}] {:>5.1}%  {} runs, {} busy\n",
                    "#".repeat(bars),
                    100.0 * u,
                    span.items,
                    fmt_ns(span.busy_ns),
                ));
            }
        }
        out
    }
}

/// `(index, digest, wall_ns, cached)` of a key a worker ran.
type Noted = (usize, Digest, u64, bool);

/// The sweep loop's record of a profiled sweep: the registry its runs
/// export into, when it started, and per worker the keys it ran.
pub(crate) struct Recorder {
    pub(crate) registry: Registry,
    started: Instant,
    logs: Vec<Mutex<Vec<Noted>>>,
}

impl Recorder {
    /// Start recording a sweep run by `jobs` workers.
    pub(crate) fn new(jobs: usize) -> Recorder {
        Recorder {
            registry: Registry::new(),
            started: Instant::now(),
            logs: (0..jobs).map(|_| Mutex::default()).collect(),
        }
    }

    /// Log a key `worker` ran.
    pub(crate) fn note(&self, worker: usize, run: Noted) {
        // Each log has one writer, its worker: the lock is uncontended.
        let log = self.logs[worker].lock();
        log.unwrap_or_else(PoisonError::into_inner).push(run);
    }

    /// The profile of the sweep that ran `keys` to `results` on the
    /// first `workers` of its workers (the ones the pool started), with
    /// the engine's cache counters at its end.
    pub(crate) fn finish(
        self,
        keys: &[RunKey],
        results: &[Result<RunResult, String>],
        workers: usize,
        cache: CacheStats,
    ) -> SweepProfile {
        let wall_ns = saturating_nanos(self.started.elapsed().as_secs_f64());
        // Virtual-cost attribution per key *occurrence*, recorded from
        // the results in spec order, so these series are identical
        // whatever the worker count or cache temperature (unlike the
        // execution-time `sim.*` exports; see the module docs).
        let histogram = |name| self.registry.histogram(name).expect("fresh registry");
        let counter = |name| self.registry.counter(name).expect("fresh registry");
        let (time, energy) = (histogram("virt.time_ns"), histogram("virt.energy_nj"));
        let retries = counter("virt.retries");
        let (words, msgs) = (
            counter("virt.resilience.words"),
            counter("virt.resilience.msgs"),
        );
        for r in results.iter().flatten() {
            time.record_secs(r.time);
            energy.record(saturating_nanos(r.energy));
            retries.add(r.retries);
            words.add(r.resilience_words);
            msgs.add(r.resilience_msgs);
        }
        // Cache-integrity incidents surface in the registry as well as
        // the summary line, so a service scraping profiles sees
        // quarantine events without parsing stderr.
        counter("cache.corrupt").add(cache.corrupt);
        counter("cache.quarantined").add(cache.quarantined);
        let metrics = self.registry.snapshot().to_json();

        let mut runs = Vec::with_capacity(keys.len());
        let workers: Vec<WorkerSpan> = (self.logs.into_iter().take(workers))
            .map(|log| {
                let log = log.into_inner().unwrap_or_else(PoisonError::into_inner);
                let busy_ns = log.iter().fold(0u64, |t, run| t.saturating_add(run.2));
                let items = log.len() as u64;
                runs.extend(log);
                WorkerSpan { busy_ns, items }
            })
            .collect();
        runs.sort_unstable_by_key(|run| run.0);
        SweepProfile {
            jobs: workers.len(),
            wall_ns,
            runs: (runs.into_iter())
                .map(|(i, digest, wall_ns, cached)| RunProfile {
                    label: keys[i].label(),
                    digest: digest.to_string(),
                    wall_ns,
                    // A repeated key is noted as cached before the
                    // outcome it copies is known; a failure is not.
                    cached: cached && results[i].is_ok(),
                    ok: results[i].is_ok(),
                })
                .collect(),
            workers,
            cache,
            metrics,
        }
    }
}

/// Render nanoseconds at a human scale (`1.234s`, `56.7ms`, `890us`).
fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{}us", ns / 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepProfile {
        SweepProfile {
            jobs: 2,
            wall_ns: 10_000_000,
            runs: vec![
                RunProfile {
                    label: "model:nbody n=1000 p=4 c=1".into(),
                    digest: "aa".into(),
                    wall_ns: 7_000_000,
                    cached: false,
                    ok: true,
                },
                RunProfile {
                    label: "model:nbody n=1000 p=8 c=1".into(),
                    digest: "bb".into(),
                    wall_ns: 9_000_000,
                    cached: true,
                    ok: true,
                },
            ],
            workers: vec![
                WorkerSpan {
                    busy_ns: 7_000_000,
                    items: 1,
                },
                WorkerSpan {
                    busy_ns: 9_000_000,
                    items: 1,
                },
            ],
            cache: CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                corrupt: 0,
                quarantined: 0,
            },
            metrics: Json::obj(vec![(
                "virt.time_ns",
                Json::obj(vec![("kind", Json::Str("histogram".into()))]),
            )]),
        }
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let text = p.to_json().to_string();
        let back = SweepProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn top_slowest_is_deterministic() {
        let p = sample();
        assert_eq!(p.top_slowest(1), vec![1]);
        assert_eq!(p.top_slowest(10), vec![1, 0]);
        // Equal times fall back to spec order.
        let mut q = p.clone();
        q.runs[0].wall_ns = q.runs[1].wall_ns;
        assert_eq!(q.top_slowest(2), vec![0, 1]);
    }

    #[test]
    fn render_names_every_section() {
        let text = sample().render();
        assert!(text.contains("self-profile: 2 runs, jobs=2"), "{text}");
        assert!(text.contains("top 2 slowest keys:"), "{text}");
        assert!(
            text.contains("model:nbody n=1000 p=8 c=1  [cached]"),
            "{text}"
        );
        assert!(text.contains("worker utilization:"), "{text}");
        assert!(text.contains("w0:"), "{text}");
        // 9ms / 10ms = 90% for worker 1.
        assert!(text.contains("90.0%"), "{text}");
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(SweepProfile::from_json(&Json::parse("{}").unwrap()).is_err());
        let bad = "{\"version\":2,\"jobs\":1}";
        assert!(SweepProfile::from_json(&Json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn utilization_is_bounded() {
        let p = sample();
        assert!((p.utilization(0) - 0.7).abs() < 1e-9);
        assert_eq!(p.utilization(99), 0.0);
        let empty = SweepProfile {
            wall_ns: 0,
            ..sample()
        };
        assert_eq!(empty.utilization(0), 0.0);
    }
}
