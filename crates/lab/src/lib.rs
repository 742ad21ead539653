//! # psse-lab — parallel batch experiment engine
//!
//! Every figure and table in the paper is a *sweep*: hundreds of
//! independent `(algorithm, n, p, M, machine)` evaluations. This crate
//! is the shared engine behind them, in four layers:
//!
//! 1. **Declarative sweep specs** ([`spec`]): a `key = value` text
//!    format parsed into a [`spec::SweepSpec`] and expanded into a
//!    deterministic ordered list of [`RunKey`]s.
//! 2. **Parallel executor** ([`pool`]): a fixed-size `std::thread`
//!    worker pool that runs independent evaluations concurrently and
//!    reassembles results in spec order — output is byte-identical for
//!    any `--jobs` value.
//! 3. **Content-addressed cache** ([`cache`]): each [`RunKey`] hashes
//!    (via the workspace's splitmix64 machinery) to a stable 128-bit
//!    digest; results are memoized in memory and optionally persisted
//!    as one-line records under `bench_results/.labcache/`, with
//!    hit/miss/evict counters surfaced in the run summary.
//! 4. **Analysis** ([`pareto`], [`csvout`]): (time, energy)
//!    Pareto-frontier extraction per problem size,
//!    perfect-strong-scaling-range detection cross-checked against the
//!    `psse-core` closed forms, and CSV emission compatible with
//!    `bench_results/`.
//!
//! ```
//! use psse_lab::prelude::*;
//!
//! let spec = SweepSpec::parse(
//!     "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:10\nmem = 2000\nf = 10\n",
//! )
//! .unwrap();
//! let lab = Lab::new(LabConfig { jobs: 2, ..LabConfig::default() });
//! let sweep = lab.run_spec(&spec);
//! assert_eq!(sweep.results.len(), 10);
//! let csv = sweep_csv(&sweep.keys, &sweep.results);
//! assert!(csv.starts_with("alg,kind,n,p,c,"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod csvout;
pub mod error;
pub mod journal;
pub mod key;
pub mod pareto;
pub mod pool;
pub mod result;
pub mod runner;
pub mod selfprof;
pub mod spec;
pub mod vocab;

use std::path::PathBuf;

use crate::cache::{CacheStats, ResultCache};
use crate::key::{Digest, RunKey};
use crate::result::RunResult;

/// Engine configuration. The default is all workers, no persistent
/// cache, no time budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabConfig {
    /// Worker threads. `0` means the machine's available parallelism.
    pub jobs: usize,
    /// Directory for the persistent cache (`None` = in-memory only).
    pub cache_dir: Option<PathBuf>,
    /// Per-run wall-clock budget for simulator runs, carried into the
    /// run as a [`psse_sim::CancelFlag::after`] deadline: a run that
    /// exceeds it is cancelled cooperatively and recorded as a
    /// deterministic `timeout: ...` failure while the rest of the sweep
    /// continues. `None` (the default) never cancels. Wall-clock only —
    /// the timeout is deliberately *not* part of the run identity, so
    /// it never perturbs cache digests.
    pub timeout: Option<std::time::Duration>,
}

/// A sweep's run list with every key digested exactly once. The digests
/// feed everything downstream that identifies a run — the journal's
/// spec digest, each cache probe, each journal line, the self-profile —
/// so a sweep pays one digest per key however many of those it uses.
#[derive(Debug, Clone)]
pub struct ExpandedSweep {
    keys: Vec<RunKey>,
    digests: Vec<Digest>,
}

impl ExpandedSweep {
    /// Digest each key of an expanded run list (spec order is kept).
    pub fn new(keys: Vec<RunKey>) -> ExpandedSweep {
        let digests = keys.iter().map(RunKey::digest_bits).collect();
        ExpandedSweep { keys, digests }
    }

    /// The run list, in spec order.
    pub fn keys(&self) -> &[RunKey] {
        &self.keys
    }

    /// The sweep's identity for [`journal::Journal::create`] and
    /// [`journal::Journal::open_resume`]: the same value as
    /// [`journal::spec_digest`] of [`ExpandedSweep::keys`], folded from
    /// the digests already computed.
    pub fn spec_digest(&self) -> String {
        journal::spec_digest_of(self.digests.len(), self.digests.iter().copied())
    }
}

/// A sweep's keys, per-run outcomes (spec order) and cache activity.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// The expanded run list, in spec order.
    pub keys: Vec<RunKey>,
    /// One outcome per key, same order.
    pub results: Vec<Result<RunResult, String>>,
    /// Cache counters accumulated over this engine's lifetime.
    pub stats: CacheStats,
}

impl SweepResults {
    /// Number of runs that failed.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// `(feasible, infeasible)` counts among successful runs.
    pub fn feasibility(&self) -> (usize, usize) {
        let feasible = self
            .results
            .iter()
            .filter(|r| matches!(r, Ok(x) if x.feasible))
            .count();
        let ok = self.results.iter().filter(|r| r.is_ok()).count();
        (feasible, ok - feasible)
    }
}

/// The batch engine: executes [`RunKey`]s through the worker pool with
/// content-addressed memoization.
pub struct Lab {
    config: LabConfig,
    cache: ResultCache,
    journal: Option<journal::Journal>,
}

/// In-memory cache capacity (records; FIFO eviction beyond it).
const CACHE_CAPACITY: usize = 65_536;

impl Lab {
    /// Build an engine with the given configuration.
    pub fn new(config: LabConfig) -> Lab {
        let cache = ResultCache::new(CACHE_CAPACITY, config.cache_dir.clone());
        Lab {
            config,
            cache,
            journal: None,
        }
    }

    /// Attach a sweep journal: every successful run (fresh or served
    /// from the cache) is recorded as a checksummed line unless the
    /// journal already holds one for it, so a killed process resumes via
    /// [`Lab::seed`] + [`journal::Journal::open_resume`] instead of
    /// restarting. Lines are written in groups, and every sweep method
    /// flushes the journal before it returns.
    pub fn set_journal(&mut self, journal: journal::Journal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any (for its
    /// [`appended`](journal::Journal::appended) count).
    pub fn journal(&self) -> Option<&journal::Journal> {
        self.journal.as_ref()
    }

    /// Pre-load `digest → result` pairs (typically a journal replay)
    /// into the cache, so the next sweep treats them as hits. Results
    /// round-trip bit-exactly, which is what keeps a resumed CSV
    /// byte-identical to an uninterrupted one.
    pub fn seed(&self, replayed: &std::collections::HashMap<Digest, RunResult>) {
        for (digest, result) in replayed {
            let _ = self.cache.put(digest, *result);
        }
    }

    /// The resolved worker count this engine will use.
    pub fn jobs(&self) -> usize {
        pool::resolve_jobs(self.config.jobs)
    }

    /// One key, end to end: cache lookup, watched execution with panic
    /// containment, cache fill, journal append — all under the digest
    /// the caller computed. Returns the outcome and whether it was
    /// served from cache.
    fn run_one(
        &self,
        key: &RunKey,
        digest: Digest,
        registry: Option<&psse_metrics::Registry>,
    ) -> (Result<RunResult, String>, bool) {
        if let Some(hit) = self.cache.get(&digest) {
            if let Some(j) = &self.journal {
                j.record(&digest, &hit);
            }
            return (Ok(hit), true);
        }
        // A panicking run fails alone: the payload becomes this key's
        // deterministic error string and the sweep carries on.
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Test-only failpoint so panic containment is testable
            // without depending on any real algorithm panicking.
            #[cfg(test)]
            if key.alg == "__panic" {
                panic!("injected failure for `__panic`");
            }
            runner::execute_watched(key, registry, self.config.timeout)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(format!("panic: {msg}"))
        });
        match executed {
            Ok(result) => {
                // Persistence problems are non-fatal: the run succeeded.
                let _ = self.cache.put(&digest, result);
                if let Some(j) = &self.journal {
                    j.record(&digest, &result);
                }
                (Ok(result), false)
            }
            Err(e) => (Err(e), false),
        }
    }

    /// Execute an explicit key list; results come back in input order
    /// regardless of worker count. Cache lookups happen per key, so
    /// duplicated keys within the list hit after their first execution
    /// (modulo benign races between workers — counters may vary, bytes
    /// never do).
    pub fn run_keys(&self, keys: &[RunKey]) -> Vec<Result<RunResult, String>> {
        let results = pool::run_ordered(self.jobs(), keys, |_, key| {
            self.run_one(key, key.digest_bits(), None).0
        });
        self.flush_journal();
        results
    }

    /// Write the journal's pending group: a sweep returns with its
    /// journal complete on disk.
    fn flush_journal(&self) {
        if let Some(j) = &self.journal {
            j.flush();
        }
    }

    /// [`Lab::run_keys`] plus a self-profile: host wall-clock per key,
    /// per-worker busy spans, and the metrics registry the runs
    /// exported into ([`runner::execute_into`]). Result bytes are
    /// identical to the unprofiled path; the profile is a pure
    /// side-channel.
    pub fn run_keys_profiled(
        &self,
        keys: &[RunKey],
    ) -> (Vec<Result<RunResult, String>>, selfprof::SweepProfile) {
        let digests: Vec<Digest> = keys.iter().map(RunKey::digest_bits).collect();
        self.run_digested_profiled(keys, &digests)
    }

    fn run_digested_profiled(
        &self,
        keys: &[RunKey],
        digests: &[Digest],
    ) -> (Vec<Result<RunResult, String>>, selfprof::SweepProfile) {
        let registry = psse_metrics::Registry::new();
        let (outcomes, pool_profile) = pool::run_ordered_timed(self.jobs(), keys, |i, key| {
            self.run_one(key, digests[i], Some(&registry))
        });
        self.flush_journal();
        let mut results = Vec::with_capacity(outcomes.len());
        let mut cached = Vec::with_capacity(outcomes.len());
        for (r, c) in outcomes {
            results.push(r);
            cached.push(c);
        }
        // Virtual-cost attribution per key *occurrence* — recorded from
        // the results in spec order, so these series are identical
        // whatever the worker count or cache temperature (unlike the
        // execution-time `sim.*` exports; see the `selfprof` docs).
        let h_time = registry.histogram("virt.time_ns").expect("fresh registry");
        let h_energy = registry
            .histogram("virt.energy_nj")
            .expect("fresh registry");
        let c_retries = registry.counter("virt.retries").expect("fresh registry");
        let c_res_words = registry
            .counter("virt.resilience.words")
            .expect("fresh registry");
        let c_res_msgs = registry
            .counter("virt.resilience.msgs")
            .expect("fresh registry");
        for r in results.iter().flatten() {
            h_time.record_secs(r.time);
            h_energy.record(psse_metrics::saturating_nanos(r.energy));
            c_retries.add(r.retries);
            c_res_words.add(r.resilience_words);
            c_res_msgs.add(r.resilience_msgs);
        }
        // Cache-integrity incidents surface in the metrics registry as
        // well as the summary line, so a service scraping profiles sees
        // quarantine events without parsing stderr.
        let cache_stats = self.cache.stats();
        registry
            .counter("cache.corrupt")
            .expect("fresh registry")
            .add(cache_stats.corrupt);
        registry
            .counter("cache.quarantined")
            .expect("fresh registry")
            .add(cache_stats.quarantined);
        let ok: Vec<bool> = results.iter().map(|r| r.is_ok()).collect();
        let labels = keys
            .iter()
            .zip(digests)
            .map(|(k, d)| (k.label(), d.to_string()))
            .collect();
        let profile = selfprof::SweepProfile::assemble(
            &pool_profile,
            labels,
            &cached,
            &ok,
            cache_stats,
            &registry.snapshot(),
        );
        (results, profile)
    }

    /// Execute an expanded sweep under the digests it already carries.
    pub fn run_sweep(&self, sweep: ExpandedSweep) -> SweepResults {
        let ExpandedSweep { keys, digests } = sweep;
        let results = pool::run_ordered(self.jobs(), &keys, |i, key| {
            self.run_one(key, digests[i], None).0
        });
        self.flush_journal();
        SweepResults {
            keys,
            results,
            stats: self.cache.stats(),
        }
    }

    /// [`Lab::run_sweep`] with a self-profile (see
    /// [`Lab::run_keys_profiled`]).
    pub fn run_sweep_profiled(
        &self,
        sweep: ExpandedSweep,
    ) -> (SweepResults, selfprof::SweepProfile) {
        let ExpandedSweep { keys, digests } = sweep;
        let (results, profile) = self.run_digested_profiled(&keys, &digests);
        (
            SweepResults {
                keys,
                results,
                stats: self.cache.stats(),
            },
            profile,
        )
    }

    /// Expand a spec and execute it.
    pub fn run_spec(&self, spec: &spec::SweepSpec) -> SweepResults {
        self.run_sweep(ExpandedSweep::new(spec.expand()))
    }

    /// Expand a spec and execute it with a self-profile.
    pub fn run_spec_profiled(
        &self,
        spec: &spec::SweepSpec,
    ) -> (SweepResults, selfprof::SweepProfile) {
        self.run_sweep_profiled(ExpandedSweep::new(spec.expand()))
    }

    /// Cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// The usual imports for lab users.
pub mod prelude {
    pub use crate::cache::{
        fsck_dir, gc_dir, CacheStats, FsckReport, GcConfig, GcReport, QUARANTINE_SUBDIR,
    };
    pub use crate::csvout::{pareto_csv, sweep_csv};
    pub use crate::error::LabError;
    pub use crate::journal::{spec_digest, Journal};
    pub use crate::key::{AsDigest, Digest, KernelModel, RunKey, RunKind};
    pub use crate::pareto::{
        detect_scaling_range, pareto_indices, pareto_indices_naive, DetectedRange,
    };
    pub use crate::result::{digest_f64s, line_checksum, RunResult};
    pub use crate::runner::{execute, execute_into, execute_watched};
    pub use crate::selfprof::{RunProfile, SweepProfile};
    pub use crate::spec::SweepSpec;
    pub use crate::{ExpandedSweep, Lab, LabConfig, SweepResults};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn run_keys_memoizes_duplicates() {
        use psse_core::machines::jaketown;
        let lab = Lab::new(LabConfig {
            jobs: 1,
            ..LabConfig::default()
        });
        let key = RunKey::model("nbody", 1000, 10, jaketown());
        let keys = vec![key.clone(), key.clone(), key];
        let results = lab.run_keys(&keys);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = lab.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn profiled_run_matches_plain_run_bitwise() {
        let spec = SweepSpec::parse(
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:8\nmem = 2000\nf = 10\n",
        )
        .unwrap();
        let plain = Lab::new(LabConfig {
            jobs: 1,
            ..LabConfig::default()
        })
        .run_spec(&spec);
        let lab = Lab::new(LabConfig {
            jobs: 4,
            ..LabConfig::default()
        });
        let (profiled, profile) = lab.run_spec_profiled(&spec);
        assert_eq!(plain.results, profiled.results);

        assert_eq!(profile.runs.len(), 8);
        assert_eq!(profile.workers.len(), 4);
        // Labels follow spec order and none of these fresh runs cached.
        for (run, key) in profile.runs.iter().zip(&profiled.keys) {
            assert_eq!(run.label, key.label());
            assert_eq!(run.digest, key.digest());
            assert!(!run.cached);
            assert!(run.ok);
        }
        // The virt.* series saw one sample per key occurrence.
        let virt = profile.metrics.get("virt.time_ns").expect("virt.time_ns");
        assert_eq!(virt.get("count").and_then(|v| v.as_u64()), Some(8));
        // Rerunning on the warm cache flips `cached` but keeps the key
        // set and the virt.* sample count identical.
        let (_, warm) = lab.run_spec_profiled(&spec);
        assert!(warm.runs.iter().all(|r| r.cached));
        let keys_cold: Vec<&str> = profile.runs.iter().map(|r| r.digest.as_str()).collect();
        let keys_warm: Vec<&str> = warm.runs.iter().map(|r| r.digest.as_str()).collect();
        assert_eq!(keys_cold, keys_warm);
        let virt_warm = warm.metrics.get("virt.time_ns").expect("virt.time_ns");
        assert_eq!(virt_warm.get("count").and_then(|v| v.as_u64()), Some(8));
    }

    #[test]
    fn journaled_sweep_resumes_to_identical_results() {
        let spec = SweepSpec::parse(
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:6\nmem = 2000\nf = 10\n",
        )
        .unwrap();
        let keys = spec.expand();
        let sd = spec_digest(&keys);
        let path =
            std::env::temp_dir().join(format!("psse-lab-resume-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference.
        let reference = Lab::new(LabConfig::default()).run_spec(&spec);

        // First attempt journals everything...
        let mut lab = Lab::new(LabConfig::default());
        lab.set_journal(Journal::create(&path, &sd).unwrap());
        let first = lab.run_spec(&spec);
        assert_eq!(first.results, reference.results);

        // ...then "crash" by truncating the journal mid-line and resume.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
        let (journal, replayed) = Journal::open_resume(&path, &sd).unwrap();
        assert!(!replayed.is_empty() && replayed.len() < keys.len());
        let mut lab2 = Lab::new(LabConfig::default());
        lab2.seed(&replayed);
        lab2.set_journal(journal);
        let resumed = lab2.run_spec(&spec);
        assert_eq!(resumed.results, reference.results, "byte-identical resume");
        // Replayed keys were served from the seeded cache.
        assert!(lab2.cache_stats().hits >= replayed.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_key_fails_alone() {
        use psse_core::machines::jaketown;
        // `__panic` trips the test-only failpoint inside `run_one`: the
        // injected panic must become *that key's* error string while
        // every sibling key completes normally, for any worker count.
        for jobs in [1, 3] {
            let lab = Lab::new(LabConfig {
                jobs,
                ..LabConfig::default()
            });
            let good = RunKey::model("nbody", 1000, 10, jaketown());
            let bad = RunKey::model("__panic", 1000, 10, jaketown());
            let keys = vec![good.clone(), bad, good];
            let results = lab.run_keys(&keys);
            assert!(results[0].is_ok(), "jobs={jobs}: {:?}", results[0]);
            assert!(results[2].is_ok(), "jobs={jobs}: {:?}", results[2]);
            let err = results[1].as_ref().unwrap_err();
            assert!(err.starts_with("panic:"), "jobs={jobs}: {err}");
            assert!(err.contains("injected failure"), "jobs={jobs}: {err}");
        }
    }

    #[test]
    fn run_spec_reports_feasibility_split() {
        let spec = SweepSpec::parse(
            // mem fixed: small p can't hold the problem → infeasible rows.
            "kind = model\nalg = nbody\nn = 10000\np = 2,4,1000\nmem = 100\nf = 10\n",
        )
        .unwrap();
        let lab = Lab::new(LabConfig::default());
        let sweep = lab.run_spec(&spec);
        assert_eq!(sweep.failures(), 0);
        let (feasible, infeasible) = sweep.feasibility();
        assert_eq!(feasible + infeasible, 3);
        assert!(infeasible >= 2); // p = 2 and p = 4 can't hold n/p words in 100
    }
}
