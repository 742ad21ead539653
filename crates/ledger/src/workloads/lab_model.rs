//! `lab-model-cold` and `lab-model-warm`: the three generated
//! `kind = model` sweeps through `psse lab run --jobs 1`.
//!
//! * **cold** starts every sweep from nothing: spec parse and expand,
//!   per-key digest and pricing (closed forms, or an HBL re-derivation
//!   per key for the `kernel =` sweep), a fresh journal appended key by
//!   key, CSV + Pareto + scaling report written.
//! * **warm** resumes the same sweeps from the journals written in
//!   set-up: every key is replayed from the journal into the cache and
//!   served as a hit, so pricing and HBL do nothing. The journal is put
//!   back from a pristine copy before each iteration (untimed) because
//!   a resume re-appends every hit.
//!
//! The persistent `.rec` cache is *not* in the timed path: one file per
//! key makes the iteration an inode-allocation benchmark of the host
//! file system (see the README). It is measured by the per-layer probes
//! of the traced run instead.

use std::path::{Path, PathBuf};

use psse_lab::cache::ResultCache;
use psse_lab::prelude::*;

use crate::check::{Checks, Fnv};
use crate::gen::{lab_model_specs, write_kernels, write_specs, Scale, SpecFile};
use crate::host::{median_secs, timed};
use crate::span::Tracer;
use crate::workloads::{argv, psse, LabSweep, LayerMetrics, Workload};

/// Which side of the journal/cache layer the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fresh journal, everything computed.
    Cold,
    /// Resume from the journals written in set-up.
    Warm,
}

/// Worker threads of the timed `lab run`s. One, not the host's two: at
/// the baseline two workers are *slower* on these sweeps (`run_keys`
/// 0.10 s against 0.09 s: `lab.pool_speedup` 0.9) and the per-key
/// cross-core hand-off made run-to-run spread seven times wider (23 %
/// against 3 % on `lab-model-warm`). The pool is measured by the
/// per-layer probes (`lab.run_keys_j2_s`, `lab.pool_*`).
const JOBS: usize = 1;

/// One sweep's files beyond the shared ones.
struct Sweep {
    lab: LabSweep,
    pareto: PathBuf,
    journal: PathBuf,
    /// Journal as written by the cold run in set-up (warm mode).
    pristine: PathBuf,
}

/// The `lab-model-*` workloads.
pub struct LabModel {
    mode: Mode,
    specs: Vec<SpecFile>,
    sweeps: Vec<Sweep>,
    dir: PathBuf,
    /// CLI output (or error) per sweep of the last iteration.
    last: Vec<Result<String, String>>,
}

/// Per-key outcomes of one sweep, and the sweep's keys with them.
type Outcomes = Vec<Result<RunResult, String>>;
type SweepRun = (Vec<RunKey>, Outcomes);

/// `psse lab run` arguments: the cold form, plus `extra`.
fn lab_run_args(s: &Sweep, extra: &[&str]) -> Vec<String> {
    let mut argv = argv(&format!("lab run --jobs {JOBS} --scaling --profile off"));
    for (flag, path) in [
        ("--spec", &s.lab.spec_path),
        ("--journal", &s.journal),
        ("--out", &s.lab.csv),
        ("--pareto", &s.pareto),
    ] {
        argv.extend([flag.to_string(), path.display().to_string()]);
    }
    argv.extend(extra.iter().map(|e| e.to_string()));
    argv
}

impl LabModel {
    /// The workload for `seed` in the given mode.
    pub fn new(seed: u64, scale: Scale, mode: Mode) -> LabModel {
        LabModel {
            mode,
            specs: lab_model_specs(seed, scale),
            sweeps: Vec::new(),
            dir: PathBuf::new(),
            last: Vec::new(),
        }
    }

    fn keys(&self) -> usize {
        self.specs.iter().map(|s| s.keys).sum()
    }
}

impl Workload for LabModel {
    fn unit(&self) -> &'static str {
        "keys"
    }

    fn work_units(&self) -> u64 {
        self.keys() as u64
    }

    fn setup(&mut self, dir: &Path) -> Result<(), String> {
        let kernels = write_kernels(dir)?;
        let spec_paths = write_specs(dir, &self.specs, &kernels)?;
        self.dir = dir.to_path_buf();
        self.sweeps = self
            .specs
            .iter()
            .zip(spec_paths)
            .map(|(spec, spec_path)| {
                let file = |ext: &str| dir.join(format!("{}.{ext}", spec.stem));
                let mut s = Sweep {
                    lab: LabSweep {
                        spec: spec.clone(),
                        spec_path,
                        csv: file("csv"),
                        argv: Vec::new(),
                        reference_csv: None,
                    },
                    pareto: file("pareto.csv"),
                    journal: file("journal"),
                    pristine: file("journal.pristine"),
                };
                s.lab.argv = match self.mode {
                    Mode::Cold => lab_run_args(&s, &[]),
                    Mode::Warm => lab_run_args(&s, &["--resume"]),
                };
                s
            })
            .collect();
        if self.mode == Mode::Warm {
            // The cold run whose journals the iterations resume from;
            // its CSV is the reference every resumed run must reproduce.
            for s in &mut self.sweeps {
                let outcome = psse(&lab_run_args(s, &[]));
                if let Err(e) = &outcome {
                    return Err(format!("set-up run of {}: {e}", s.lab.spec.stem));
                }
                s.lab.verify(&outcome, &mut Checks::default());
                std::fs::copy(&s.journal, &s.pristine).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn restore(&mut self) -> Result<(), String> {
        if self.mode == Mode::Warm {
            for s in &self.sweeps {
                std::fs::copy(&s.pristine, &s.journal).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn iterate(&mut self, tr: &mut Tracer) {
        self.last = self
            .sweeps
            .iter()
            .map(|s| tr.span("cli.lab_run", |_| psse(&s.lab.argv)))
            .collect();
    }

    fn verify(&mut self, checks: &mut Checks) {
        for (s, outcome) in self.sweeps.iter_mut().zip(&self.last) {
            // Cold ≡ resumed ≡ every repetition, byte for byte.
            s.lab.verify(outcome, checks);
            if self.mode == Mode::Warm {
                let replayed = outcome.as_ref().is_ok_and(|o| o.contains("runs replayed"));
                checks.expect(replayed, || format!("{}: nothing resumed", s.lab.spec.stem));
            }
        }
    }

    fn stat_digest(&mut self) -> Result<String, String> {
        let mut h = Fnv::default();
        self.sweeps
            .iter()
            .try_for_each(|s| s.lab.digest_into(&mut h))?;
        Ok(h.hex())
    }

    fn layer_probes(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<LayerMetrics, String> {
        // Everything span-derived is a mean over the traced iterations.
        let reps = tr.count("iter").max(1);
        let cli_s = tr.self_times().get("cli.lab_run").copied().unwrap_or(0.0) / reps as f64;
        let n_keys = self.keys() as f64;
        let mut m: LayerMetrics = vec![("lab.keys", n_keys, "count")];

        // The same work as the traced iteration, made call by call into
        // the lab layer: what `psse_cli::run` spent beyond these calls
        // (argument parsing, summary text) is the CLI's residual.
        let mut all: Vec<SweepRun> = Vec::new();
        for _ in 0..reps {
            self.restore()?;
            all.clear();
            for s in &self.sweeps {
                all.push(tr.span("lab.decomposed", |tr| decomposed(tr, s, self.mode))?);
            }
        }
        let after = tr.self_times();
        let own = |name: &str| after.get(name).copied().unwrap_or(0.0) / reps as f64;
        let decomposed_s: f64 = after
            .keys()
            .filter(|k| k.starts_with("lab.") || k.starts_with("io."))
            .map(|k| own(k))
            .sum();
        m.push(("cli.residual_s", cli_s - decomposed_s, "s"));
        for ((keys, results), s) in all.iter().zip(&self.sweeps) {
            let same = s.lab.reference_csv.as_deref() == Some(sweep_csv(keys, results).as_str());
            checks.expect(same, || {
                format!(
                    "{}: decomposed CSV differs from `psse lab run`",
                    s.lab.spec.stem
                )
            });
        }
        let keys: Vec<RunKey> = all.iter().flat_map(|(k, _)| k.iter().cloned()).collect();
        let results: Outcomes = all.into_iter().flat_map(|(_, r)| r).collect();

        match self.mode {
            Mode::Cold => {
                m.extend([
                    ("lab.spec_parse_us", own("lab.spec_parse") * 1e6, "us"),
                    (
                        "lab.expand_ns_per_key",
                        own("lab.expand") * 1e9 / n_keys,
                        "ns",
                    ),
                    ("lab.spec_digest_ms", own("lab.spec_digest") * 1e3, "ms"),
                    ("lab.csv_ns_per_key", own("lab.csv") * 1e9 / n_keys, "ns"),
                    ("lab.pareto_ms", own("lab.pareto") * 1e3, "ms"),
                ]);
                self.cold_probes(tr, &keys, &results, &mut m)?;
            }
            Mode::Warm => {
                m.extend([
                    ("lab.resume_s", cli_s, "s"),
                    (
                        "lab.journal_resume_us_per_key",
                        own("lab.journal_resume") * 1e6 / n_keys,
                        "us",
                    ),
                ]);
                self.warm_probes(tr, &keys, &results, checks, &mut m)?;
            }
        }
        Ok(m)
    }
}

/// One sweep through direct lab-layer calls, mirroring `psse lab run
/// --journal [--resume] --out --pareto --scaling --profile off`.
fn decomposed(tr: &mut Tracer, s: &Sweep, mode: Mode) -> Result<SweepRun, String> {
    let text = tr
        .span("io.read_spec", |_| {
            std::fs::read_to_string(&s.lab.spec_path)
        })
        .map_err(|e| e.to_string())?;
    let spec = tr
        .span("lab.spec_parse", |_| SweepSpec::parse(&text))
        .map_err(|e| e.to_string())?;
    let keys = tr.span("lab.expand", |_| spec.expand());
    let sd = tr.span("lab.spec_digest", |_| spec_digest(&keys));
    let mut lab = Lab::new(LabConfig {
        jobs: JOBS,
        ..LabConfig::default()
    });
    let journal = match mode {
        Mode::Cold => tr.span("lab.journal_create", |_| Journal::create(&s.journal, &sd))?,
        Mode::Warm => {
            let (journal, replayed) = tr.span("lab.journal_resume", |_| {
                Journal::open_resume(&s.journal, &sd)
            })?;
            tr.span("lab.seed", |_| lab.seed(&replayed));
            journal
        }
    };
    lab.set_journal(journal);
    let results = tr.span("lab.run_keys", |_| lab.run_keys(&keys));
    tr.span("lab.scaling", |_| scaling_ranges(&keys, &results));
    let csv = tr.span("lab.csv", |_| sweep_csv(&keys, &results));
    tr.span("io.write_csv", |_| std::fs::write(&s.lab.csv, csv))
        .map_err(|e| e.to_string())?;
    let pareto = tr.span("lab.pareto", |_| pareto_csv(&keys, &results));
    tr.span("io.write_pareto", |_| std::fs::write(&s.pareto, pareto))
        .map_err(|e| e.to_string())?;
    Ok((keys, results))
}

/// The `--scaling` report's work: one `detect_scaling_range` call per
/// `(n, c, M)` ladder. Returns how many ladders scale perfectly.
fn scaling_ranges(keys: &[RunKey], results: &[Result<RunResult, String>]) -> usize {
    let mut groups: Vec<(u64, u64, u64)> = Vec::new();
    for k in keys {
        let g = (k.n, k.c, k.mem.to_bits());
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    groups
        .into_iter()
        .filter(|&(n, c, mem)| {
            let mut samples: Vec<(u64, f64, f64)> = keys
                .iter()
                .zip(results)
                .filter(|(k, _)| (k.n, k.c, k.mem.to_bits()) == (n, c, mem))
                .filter_map(|(k, r)| {
                    r.as_ref()
                        .ok()
                        .filter(|r| r.feasible)
                        .map(|r| (k.p, r.time, r.energy))
                })
                .collect();
            samples.sort_by_key(|s| s.0);
            samples.dedup_by_key(|s| s.0);
            detect_scaling_range(&samples, 1e-9).is_some()
        })
        .count()
}

impl LabModel {
    /// Write-side and compute-side probes (cold mode).
    fn cold_probes(
        &self,
        tr: &mut Tracer,
        keys: &[RunKey],
        results: &Outcomes,
        m: &mut LayerMetrics,
    ) -> Result<(), String> {
        let n = keys.len() as f64;
        let plain = |jobs| {
            Lab::new(LabConfig {
                jobs,
                ..LabConfig::default()
            })
        };

        // The per-key pieces of `run_keys`, isolated.
        let digest_s = tr.span("lab.probe_digest", |_| {
            median_secs(3, || {
                keys.iter()
                    .for_each(|k| drop(std::hint::black_box(k.digest())))
            })
        });
        // `run_keys` prices each distinct key once (repeats hit the
        // in-memory cache), so the isolated pricing loops do too.
        let mut seen = std::collections::HashSet::new();
        let (table, kernel): (Vec<&RunKey>, Vec<&RunKey>) = keys
            .iter()
            .filter(|k| seen.insert(k.digest()))
            .partition(|k| k.kernel.is_none());
        let exec = |ks: &[&RunKey]| {
            median_secs(3, || {
                ks.iter()
                    .for_each(|k| drop(std::hint::black_box(execute(k))))
            })
        };
        let table_s = tr.span("core.probe_model_eval", |_| exec(&table));
        let kernel_s = tr.span("hbl.probe_kernel_key", |_| exec(&kernel));
        let run_keys = |jobs| median_secs(3, || drop(plain(jobs).run_keys(keys)));
        let j1 = tr.span("lab.probe_run_keys_j1", |_| run_keys(1));
        let j2 = tr.span("lab.probe_run_keys_j2", |_| run_keys(2));
        m.extend([
            ("lab.digest_ns_per_key", digest_s * 1e9 / n, "ns"),
            (
                "core.model_eval_ns_per_key",
                table_s * 1e9 / table.len().max(1) as f64,
                "ns",
            ),
            (
                "hbl.kernel_key_us",
                kernel_s * 1e6 / kernel.len().max(1) as f64,
                "us",
            ),
            ("lab.run_keys_j1_s", j1, "s"),
            ("lab.run_keys_j2_s", j2, "s"),
            ("lab.pool_speedup", j1 / j2, "ratio"),
            // Share of two workers' time that is not one worker's work.
            ("lab.pool_overhead_frac", 1.0 - j1 / (2.0 * j2), "ratio"),
            // What `run_keys` spends beyond digesting and pricing:
            // memoization, panic containment, the pool.
            ("lab.residual_s", j1 - digest_s - table_s - kernel_s, "s"),
        ]);

        // Profiling priced against the plain path; its per-run `cached`
        // flags give the exact intra-sweep hit count on one worker.
        let (profiled, prof_s) = tr.span("metrics.probe_profiled", |_| {
            timed(|| plain(1).run_keys_profiled(keys).1)
        });
        let hits = profiled.runs.iter().filter(|r| r.cached).count();
        let hist_ns = tr.span("metrics.probe_hist", |_| {
            let mut h = psse_metrics::Histogram::new();
            let reps = 1_000_000u64;
            timed(|| (0..reps).for_each(|v| h.record(std::hint::black_box(v * 37)))).1 * 1e9
                / reps as f64
        });
        m.extend([
            ("metrics.profile_overhead_ratio", prof_s / j1, "ratio"),
            ("metrics.hist_record_ns", hist_ns, "ns"),
            ("lab.cache_hits_cold", hits as f64, "count"),
            ("lab.cache_misses_cold", (keys.len() - hits) as f64, "count"),
        ]);

        // Journal append and `.rec` write cost per key, and what they
        // leave on disk. One `.rec` file per distinct key: this is the
        // host file system's inode allocator as much as the lab.
        let pairs: Vec<(String, RunResult)> = keys
            .iter()
            .zip(results)
            .filter_map(|(k, r)| r.as_ref().ok().map(|r| (k.digest(), *r)))
            .collect();
        let jpath = self.dir.join("probe.journal");
        let append_s = tr.span("lab.probe_journal_append", |_| -> Result<f64, String> {
            let journal = Journal::create(&jpath, "0")?;
            Ok(timed(|| pairs.iter().for_each(|(d, r)| journal.record(d, r))).1)
        })?;
        let jbytes = std::fs::metadata(&jpath).map_or(0, |md| md.len());
        let cache_dir = self.dir.join("probe.cache");
        let put_s = tr.span("lab.probe_cache_put", |_| {
            let cache = ResultCache::new(pairs.len(), Some(cache_dir.clone()));
            timed(|| pairs.iter().for_each(|(d, r)| drop(cache.put(d, *r)))).1
        });
        let (files, bytes) = dir_usage(&cache_dir);
        m.extend([
            ("lab.journal_append_us_per_key", append_s * 1e6 / n, "us"),
            ("lab.journal_bytes_per_key", jbytes as f64 / n, "bytes"),
            ("lab.cache_put_us_per_key", put_s * 1e6 / n, "us"),
            ("lab.rec_files", files as f64, "count"),
            (
                "lab.rec_bytes_per_key",
                bytes as f64 / files.max(1) as f64,
                "bytes",
            ),
        ]);
        Ok(())
    }

    /// Read-side probes (warm mode).
    fn warm_probes(
        &self,
        tr: &mut Tracer,
        keys: &[RunKey],
        results: &Outcomes,
        checks: &mut Checks,
        m: &mut LayerMetrics,
    ) -> Result<(), String> {
        let n = keys.len() as f64;
        // Populate a persistent cache (untimed here; see the cold
        // probes), then probe it from a new cache object — every lookup
        // a disk read — and again from memory.
        let cache_dir = self.dir.join("probe.cache");
        let digests: Vec<String> = keys.iter().map(RunKey::digest).collect();
        let writer = ResultCache::new(keys.len(), Some(cache_dir.clone()));
        for (d, r) in digests.iter().zip(results) {
            writer.put(d, *r.as_ref().map_err(|e| e.to_string())?)?;
        }
        let reader = ResultCache::new(keys.len(), Some(cache_dir.clone()));
        let probe = |cache: &ResultCache| {
            timed(|| digests.iter().filter(|d| cache.get(d).is_some()).count())
        };
        let (disk_hits, disk_s) = tr.span("lab.probe_cache_get_disk", |_| probe(&reader));
        let (mem_hits, mem_s) = tr.span("lab.probe_cache_get_mem", |_| probe(&reader));
        checks.expect(disk_hits == keys.len() && mem_hits == keys.len(), || {
            format!(
                "cache probes hit {disk_hits} (disk) / {mem_hits} (memory) of {}",
                keys.len()
            )
        });
        // The warm-cache rerun a user sees: `psse lab run --cache DIR`
        // on the populated cache, CSV bytes as the cold run's.
        let mut warm_s = 0.0;
        for s in &self.sweeps {
            let mut argv = lab_run_args(s, &["--cache"]);
            argv.push(cache_dir.display().to_string());
            let (outcome, secs) = tr.span("cli.probe_warm_rerun", |_| timed(|| psse(&argv)));
            warm_s += secs;
            let all_hits = outcome.as_ref().is_ok_and(|o| o.contains("misses=0 "));
            let csv = std::fs::read_to_string(&s.lab.csv).unwrap_or_default();
            checks.expect(
                all_hits && s.lab.reference_csv.as_deref() == Some(csv.as_str()),
                || {
                    format!(
                        "{}: warm-cache rerun missed or changed CSV bytes",
                        s.lab.spec.stem
                    )
                },
            );
        }
        m.extend([
            ("lab.cache_get_disk_us_per_key", disk_s * 1e6 / n, "us"),
            ("lab.cache_get_mem_ns_per_key", mem_s * 1e9 / n, "ns"),
            ("lab.warm_rerun_s", warm_s, "s"),
        ]);
        Ok(())
    }
}

/// `(files, bytes)` of the `.rec` records directly under `dir`.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "rec"))
        .fold((0, 0), |(files, bytes), e| {
            (files + 1, bytes + e.metadata().map_or(0, |md| md.len()))
        })
}
