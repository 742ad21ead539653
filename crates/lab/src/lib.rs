//! # psse-lab — parallel batch experiment engine
//!
//! Every figure and table in the paper is a *sweep*: hundreds of
//! independent `(algorithm, n, p, M, machine)` evaluations. This crate
//! is the shared engine behind them, in four layers:
//!
//! 1. **Declarative sweep specs** ([`spec`]): a `key = value` text
//!    format parsed into a [`spec::SweepSpec`] and expanded into a
//!    deterministic ordered list of [`RunKey`]s.
//! 2. **One sweep loop** ([`Lab`] over a [`pool`]): every sweep method
//!    runs its keys through it, each distinct key once, results in spec
//!    order for any `--jobs`; a [`selfprof::SweepProfile`] is a view of
//!    that loop.
//! 3. **Content-addressed cache** ([`cache`]): each [`RunKey`] hashes
//!    (via the workspace's splitmix64 machinery) to a stable 128-bit
//!    digest; results are optionally persisted as one-line records
//!    under `bench_results/.labcache/` and read back, with a resumed
//!    journal's runs, as hits (a sweep keeps no in-memory memo), with
//!    hit/miss counters surfaced in the run summary.
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

#[cfg(test)]
mod oracle;

use std::path::PathBuf;
use std::time::Instant;

use psse_metrics::saturating_nanos;

use crate::cache::{CacheStats, ResultCache};
use crate::key::{Digest, DigestMap, RunKey};
use crate::result::RunResult;
use crate::selfprof::SweepProfile;

/// One outcome per key of a sweep, in spec order.
type Outcomes = Vec<Result<RunResult, String>>;

/// Engine configuration. The default is all workers, no persistent
/// cache, no time budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabConfig {
    /// Worker threads. `0` means the machine's available parallelism.
    pub jobs: usize,
    /// Directory for the persistent cache (`None`: nothing is kept
    /// between sweeps).
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
/// content-addressed deduplication.
///
/// Every entry point ([`Lab::run_keys`], [`Lab::run_keys_profiled`],
/// [`Lab::run_sweep`], [`Lab::run_sweep_profiled`], [`Lab::run_spec`])
/// runs the one sweep loop. Within a sweep, a key whose digest came
/// earlier in it is not run again: it copies that key's outcome and
/// counts as a cache hit, for any worker count. A sweep writes no
/// in-memory memo, so it holds each key and each result once, in its
/// outcome vector, and a second sweep on the same engine runs its keys
/// again. Hits across sweeps come from runs lent by [`Lab::seed`] and
/// from records in the cache directory.
pub struct Lab {
    config: LabConfig,
    cache: ResultCache,
    journal: Option<journal::Journal>,
}

impl Lab {
    /// Build an engine with the given configuration.
    pub fn new(config: LabConfig) -> Lab {
        // No sweep writes the memo, so the engine sizes its memo for none.
        let cache = ResultCache::new(0, config.cache_dir.clone());
        Lab {
            config,
            cache,
            journal: None,
        }
    }

    /// Attach a sweep journal: every successful run (fresh or served
    /// from the cache) is recorded as a checksummed line unless the
    /// journal already holds one for it, so a killed process resumes via
    /// [`journal::Journal::open_resume`] + [`Lab::seed`] instead of
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

    /// Lend the cache a journal's replayed runs, so every sweep treats
    /// them as hits. The map is shared, not copied, and every map lent
    /// is kept; with a cache directory, the replayed records it lacks
    /// are written to it and the ones it holds are left untouched.
    /// Results round-trip bit-exactly, which is what keeps a resumed CSV
    /// byte-identical to an uninterrupted one.
    pub fn seed(&mut self, replayed: &journal::Replayed) {
        self.cache.seed(replayed);
    }

    /// The resolved worker count this engine will use: an explicit
    /// `jobs >= 1` wins; `0` means the machine's available parallelism
    /// (1 if that cannot be determined).
    pub fn jobs(&self) -> usize {
        match self.config.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            jobs => jobs,
        }
    }

    /// One key, end to end: cache lookup, watched execution with panic
    /// containment, disk cache fill, journal append — all under the
    /// digest the caller computed. Returns the outcome and whether it
    /// was served from cache.
    fn run_one(
        &self,
        key: &RunKey,
        digest: Digest,
        registry: Option<&psse_metrics::Registry>,
    ) -> (Result<RunResult, String>, bool) {
        if let Some((hit, lent)) = self.cache.probe(digest) {
            // A hit from the journal's own replay map is a line the file
            // holds already; any other hit is journaled.
            match &self.journal {
                Some(j) if !lent.is_some_and(|map| j.replays(map)) => j.record(&digest, &hit),
                _ => {}
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
        if let Ok(result) = &executed {
            // Persistence problems are non-fatal: the run succeeded.
            let _ = self.cache.store(digest, result);
            if let Some(j) = &self.journal {
                j.record(&digest, result);
            }
        }
        (executed, false)
    }

    /// The one sweep loop: the first key of each digest runs through
    /// [`Lab::run_one`] on the worker pool under `digests[i]`; a later
    /// key of the same digest copies its outcome and counts as a hit (a
    /// miss when the outcome is a failure, which a rerun would repeat).
    /// Results come back in input order and the journal is complete on
    /// disk when it returns. With `profile` the loop also times each key
    /// and hands its run a metrics registry, and returns the profile,
    /// assembled once the digests are dropped; without, it reads no
    /// clock. Either way the results are the same values.
    fn sweep(
        &self,
        keys: &[RunKey],
        digests: Vec<Digest>,
        profile: bool,
    ) -> (Outcomes, Option<SweepProfile>) {
        let first = first_occurrences(&digests);
        if let Some(j) = &self.journal {
            let distinct = (0..first.len()).filter(|&i| first[i] as usize == i).count();
            j.reserve(distinct);
        }
        let run = |i: usize, key: &RunKey, registry: Option<&psse_metrics::Registry>| {
            if first[i] as usize == i {
                self.run_one(key, digests[i], registry)
            } else {
                // Filled in below, once the first occurrence has run.
                (Err(String::new()), true)
            }
        };
        // The pool's own clamp: the recorder keeps one log per worker.
        let jobs = self.jobs().min(keys.len()).max(1);
        let recorder = profile.then(|| selfprof::Recorder::new(jobs));
        let (mut results, workers) =
            pool::run_ordered(jobs, keys, Err(String::new()), |worker, i, key| {
                let Some(rec) = &recorder else {
                    return run(i, key, None).0;
                };
                let t0 = Instant::now();
                let (result, cached) = run(i, key, Some(&rec.registry));
                let wall_ns = saturating_nanos(t0.elapsed().as_secs_f64());
                rec.note(worker, (i, digests[i], wall_ns, cached));
                result
            });
        let (mut hits, mut misses) = (0, 0);
        for (i, &at) in first.iter().enumerate() {
            let at = at as usize;
            if at != i {
                let copy = results[at].clone();
                if copy.is_ok() {
                    hits += 1;
                } else {
                    misses += 1;
                }
                results[i] = copy;
            }
        }
        self.cache.count(hits, misses);
        if let Some(j) = &self.journal {
            j.flush();
        }
        drop((first, digests));
        let stats = self.cache.stats();
        let profile = recorder.map(|rec| rec.finish(keys, &results, workers, stats));
        (results, profile)
    }

    /// Execute an explicit key list; results come back in input order
    /// regardless of worker count. A duplicated key runs once and its
    /// repeats are cache hits.
    pub fn run_keys(&self, keys: &[RunKey]) -> Vec<Result<RunResult, String>> {
        let digests = keys.iter().map(RunKey::digest_bits).collect();
        self.sweep(keys, digests, false).0
    }

    /// [`Lab::run_keys`] plus its self-profile: host wall-clock per key,
    /// per-worker busy spans, and the metrics registry the runs
    /// exported into. The same loop produces the results either way;
    /// the profile is a view of it.
    pub fn run_keys_profiled(
        &self,
        keys: &[RunKey],
    ) -> (Vec<Result<RunResult, String>>, SweepProfile) {
        let digests = keys.iter().map(RunKey::digest_bits).collect();
        let (results, profile) = self.sweep(keys, digests, true);
        (results, profile.expect("asked for a profile"))
    }

    /// Execute an expanded sweep under the digests it already carries.
    pub fn run_sweep(&self, sweep: ExpandedSweep) -> SweepResults {
        let ExpandedSweep { keys, digests } = sweep;
        let results = self.sweep(&keys, digests, false).0;
        let stats = self.cache.stats();
        SweepResults {
            keys,
            results,
            stats,
        }
    }

    /// [`Lab::run_sweep`] with a self-profile (see
    /// [`Lab::run_keys_profiled`]).
    pub fn run_sweep_profiled(&self, sweep: ExpandedSweep) -> (SweepResults, SweepProfile) {
        let ExpandedSweep { keys, digests } = sweep;
        let (results, profile) = self.sweep(&keys, digests, true);
        let stats = self.cache.stats();
        let profile = profile.expect("asked for a profile");
        (
            SweepResults {
                keys,
                results,
                stats,
            },
            profile,
        )
    }

    /// Expand a spec and execute it.
    pub fn run_spec(&self, spec: &spec::SweepSpec) -> SweepResults {
        self.run_sweep(ExpandedSweep::new(spec.expand()))
    }

    /// Cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// For each digest, the index of its first occurrence in `digests` (its
/// own index when it is the first), found through one map built and
/// dropped before the sweep runs.
fn first_occurrences(digests: &[Digest]) -> Vec<u32> {
    let count = u32::try_from(digests.len()).expect("a sweep holds fewer than 2^32 keys");
    let mut first = DigestMap::with_capacity_and_hasher(digests.len(), Default::default());
    (0..count)
        .zip(digests)
        .map(|(i, &digest)| *first.entry(digest).or_insert(i))
        .collect()
}

/// The usual imports for lab users.
pub mod prelude {
    pub use crate::cache::{
        fsck_dir, gc_dir, CacheStats, FsckReport, GcConfig, GcReport, QUARANTINE_SUBDIR,
    };
    pub use crate::csvout::{pareto_csv, sweep_csv, write_pareto_csv, write_sweep_csv};
    pub use crate::error::LabError;
    pub use crate::journal::{spec_digest, Journal, Replayed};
    pub use crate::key::{AsDigest, Digest, KernelModel, RunKey, RunKind};
    pub use crate::pareto::{
        detect_scaling_range, pareto_indices, pareto_indices_naive, DetectedRange,
    };
    pub use crate::result::{digest_f64s, line_checksum, RunResult};
    pub use crate::runner::{execute, execute_watched};
    pub use crate::selfprof::{RunProfile, SweepProfile};
    pub use crate::spec::SweepSpec;
    pub use crate::{ExpandedSweep, Lab, LabConfig, SweepResults};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn explicit_jobs_win() {
        let lab = |jobs| {
            Lab::new(LabConfig {
                jobs,
                ..LabConfig::default()
            })
        };
        assert_eq!(lab(3).jobs(), 3);
        assert!(lab(0).jobs() >= 1);
    }

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
        let dir = std::env::temp_dir().join(format!("psse-lab-profiled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lab = || {
            Lab::new(LabConfig {
                jobs: 4,
                cache_dir: Some(dir.clone()),
                ..LabConfig::default()
            })
        };
        let (profiled, profile) = lab().run_sweep_profiled(ExpandedSweep::new(spec.expand()));
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
        // Rerunning on a fresh engine over the warm cache dir flips
        // `cached` but keeps the key set and the virt.* sample count
        // identical.
        let (_, warm) = lab().run_sweep_profiled(ExpandedSweep::new(spec.expand()));
        assert!(warm.runs.iter().all(|r| r.cached));
        let keys_cold: Vec<&str> = profile.runs.iter().map(|r| r.digest.as_str()).collect();
        let keys_warm: Vec<&str> = warm.runs.iter().map(|r| r.digest.as_str()).collect();
        assert_eq!(keys_cold, keys_warm);
        let virt_warm = warm.metrics.get("virt.time_ns").expect("virt.time_ns");
        assert_eq!(virt_warm.get("count").and_then(|v| v.as_u64()), Some(8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_sweep_on_one_engine_runs_its_keys_again() {
        use psse_core::machines::jaketown;
        let lab = Lab::new(LabConfig {
            jobs: 2,
            ..LabConfig::default()
        });
        // Five keys, three distinct.
        let keys: Vec<RunKey> = [10, 20, 10, 30, 20]
            .map(|p| RunKey::model("nbody", 1000, p, jaketown()))
            .to_vec();
        let first = lab.run_keys(&keys);
        let stats = lab.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 3));
        // Nothing was kept between the sweeps: every distinct key of the
        // second is a miss again, and the outcomes are the same.
        let second = lab.run_keys(&keys);
        let stats = lab.cache_stats();
        assert_eq!((stats.hits, stats.misses), (4, 6));
        assert_eq!(first, second);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn every_seeded_map_stays_a_hit() {
        use crate::key::DigestMap;
        use psse_core::machines::jaketown;
        use std::sync::Arc;
        let keys: Vec<RunKey> = (1..=6)
            .map(|p| RunKey::model("nbody", 1000, p, jaketown()))
            .collect();
        // Two journals' worth of replayed runs, three keys each, priced
        // so that a hit is told apart from a fresh run.
        let lent = |range: std::ops::Range<usize>| -> Replayed {
            let runs = range.map(|i| {
                let fake = RunResult::model(true, i as f64, 0.5, 7.0);
                (keys[i].digest_bits(), fake)
            });
            Arc::new(runs.collect::<DigestMap<RunResult>>())
        };
        let (a, b) = (lent(0..3), lent(3..6));
        let mut lab = Lab::new(LabConfig {
            jobs: 1,
            ..LabConfig::default()
        });
        lab.seed(&a);
        lab.seed(&b);
        for _ in 0..2 {
            let results = lab.run_keys(&keys);
            for (i, (result, key)) in results.iter().zip(&keys).enumerate() {
                let map = if i < 3 { &a } else { &b };
                assert_eq!(result.as_ref().ok(), map.get(&key.digest_bits()), "key {i}");
            }
        }
        let stats = lab.cache_stats();
        assert_eq!((stats.hits, stats.misses), (12, 0));
    }

    #[test]
    fn hits_from_other_maps_are_journaled_and_the_journals_own_are_not() {
        use crate::key::DigestMap;
        use psse_core::machines::jaketown;
        use std::sync::Arc;
        let keys: Vec<RunKey> = (1..=6)
            .map(|p| RunKey::model("nbody", 1000, p, jaketown()))
            .collect();
        let fake = |i: usize| RunResult::model(true, i as f64, 0.5, 7.0);
        let sd = spec_digest(&keys);
        let path = std::env::temp_dir().join(format!("psse-lab-own-map-{}", std::process::id()));
        {
            let journal = Journal::create(&path, &sd).unwrap();
            (0..3).for_each(|i| journal.record(&keys[i].digest_bits(), &fake(i)));
        }
        let (journal, own) = Journal::open_resume(&path, &sd).unwrap();
        // Another map lent first, overlapping the journal's own on key 2.
        let other: Replayed = Arc::new(
            (2..6)
                .map(|i| (keys[i].digest_bits(), fake(i)))
                .collect::<DigestMap<RunResult>>(),
        );
        let mut lab = Lab::new(LabConfig {
            jobs: 1,
            ..LabConfig::default()
        });
        lab.seed(&other);
        lab.seed(&own);
        lab.set_journal(journal);
        let results = lab.run_keys(&keys);
        assert!((0..6).all(|i| results[i] == Ok(fake(i))));
        assert_eq!(lab.cache_stats().hits, 6);
        // Keys 3..6 came from the other map: their lines are new. Key 2
        // did too, but the file holds its line already.
        assert_eq!(lab.journal().unwrap().appended(), 3);
        drop(lab);
        let (_journal, all) = Journal::open_resume(&path, &sd).unwrap();
        assert_eq!(all.len(), 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_profile_lists_only_the_workers_that_ran() {
        use psse_core::machines::jaketown;
        let keys: Vec<RunKey> = (1..=12)
            .map(|p| RunKey::model("nbody", 1000, p, jaketown()))
            .collect();
        let lab = Lab::new(LabConfig {
            jobs: 4,
            ..LabConfig::default()
        });
        let plain = lab.run_keys(&keys);
        // The pool asks for four workers; the OS refuses the third.
        crate::pool::failpoint::fail_spawn(2);
        let (results, profile) = lab.run_keys_profiled(&keys);
        assert_eq!(results, plain);
        assert_eq!((profile.jobs, profile.workers.len()), (2, 2));
        let items: u64 = profile.workers.iter().map(|w| w.items).sum();
        assert_eq!(items, keys.len() as u64);
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
    fn profile_accounts_every_key_to_one_worker() {
        use psse_core::machines::jaketown;
        let keys: Vec<RunKey> = (1..=40)
            .map(|p| RunKey::model("nbody", 1000, p, jaketown()))
            .collect();
        for (jobs, used) in [(1, 1), (3, 3), (64, 40)] {
            let lab = Lab::new(LabConfig {
                jobs,
                ..LabConfig::default()
            });
            let (results, profile) = lab.run_keys_profiled(&keys);
            assert_eq!(results, lab.run_keys(&keys), "jobs={jobs}");
            assert_eq!((profile.jobs, profile.workers.len()), (used, used));
            let items: u64 = profile.workers.iter().map(|w| w.items).sum();
            assert_eq!(items, keys.len() as u64, "jobs={jobs}");
            let busy: u64 = profile.workers.iter().map(|w| w.busy_ns).sum();
            let walls: u64 = profile.runs.iter().map(|r| r.wall_ns).sum();
            assert_eq!(busy, walls, "jobs={jobs}");
            for (run, key) in profile.runs.iter().zip(&keys) {
                assert_eq!((&run.label, &run.digest), (&key.label(), &key.digest()));
            }
        }
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
