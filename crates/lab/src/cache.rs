//! Content-addressed result cache: in-memory memoization with optional
//! one-line-per-record persistence and self-healing integrity checks.
//!
//! Keys are [`RunKey`](crate::key::RunKey) digests, held as their two
//! words ([`Digest`]) in memory and spelled as 32 hex chars in file
//! names; values are [`RunResult`]s. A lookup tries up to three layers
//! in turn: the in-memory memo, a bounded map with FIFO eviction; the
//! runs each journal replayed, read in place from the maps the journals
//! built (see [`Replayed`]); and the optional disk layer, which stores
//! each record as a file named after its digest so concurrent writers
//! never interleave.
//!
//! Only the public [`ResultCache::put`] and a disk hit found by
//! [`ResultCache::get`] write the memo. A [`Lab`](crate::Lab) sweep
//! never does: it looks up the replay maps and the disk and stores to
//! the disk, so its results are held once, in its outcome vector.
//!
//! Every disk record carries a trailing splitmix64 checksum computed
//! over `"{digest} {v1-line}"` — binding the record to its *filename*
//! as well as its bytes, so a record copied under the wrong digest, a
//! torn write, or bit rot all fail verification. A record that fails is
//! **quarantined** (moved into a `quarantine/` subdirectory, never
//! deleted), counted in [`CacheStats::corrupt`], and the run is simply
//! recomputed; forensics survive, output bytes never change.
//!
//! Counters (hits / misses / evictions / corrupt) are for the
//! human-readable run summary only. Under a parallel pool two workers
//! may race on the same duplicated key and both miss, so counter values
//! can vary by ±ε with thread count — result *bytes* never do.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::journal::Replayed;
use crate::key::{AsDigest, Digest, DigestMap};
use crate::result::{push_checksum, split_checksum, LineBuf, LineChecksum, RunResult, V1_MAX};

/// Name of the subdirectory corrupt records are moved into (next to the
/// `.rec` files). Never garbage-collected, never deleted by the lab.
pub const QUARANTINE_SUBDIR: &str = "quarantine";

/// Snapshot of cache activity for the run summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that had to execute the run.
    pub misses: u64,
    /// In-memory records dropped to respect the capacity bound.
    pub evictions: u64,
    /// Disk records that failed checksum/parse verification on read.
    pub corrupt: u64,
    /// Corrupt records successfully moved into `quarantine/` (≤
    /// `corrupt`: the move can fail on a read-only directory).
    pub quarantined: u64,
}

impl CacheStats {
    /// Hit rate in percent (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

struct MemCache {
    map: DigestMap<RunResult>,
    order: std::collections::VecDeque<Digest>,
    capacity: usize,
}

/// Thread-safe content-addressed cache (see the module docs for its
/// layers and what enters the memo).
pub struct ResultCache {
    mem: Mutex<MemCache>,
    /// The journals' replay maps, lent by [`ResultCache::seed`].
    replayed: Vec<Replayed>,
    dir: Option<PathBuf>,
    /// The outcome of creating `dir`, tried once, by the first store.
    dir_made: OnceLock<Result<(), String>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
    /// Digests whose disk record was found corrupt (and possibly left
    /// in place because quarantining failed, e.g. read-only dir): never
    /// re-read, so a bad record is paid for exactly once.
    bad: Mutex<std::collections::HashSet<Digest>>,
    /// Set after the first failed disk write: the cache carries on
    /// without its disk layer instead of failing every run.
    disk_dead: AtomicBool,
}

/// Checksum binding a record to its filename: [`line_checksum`] of
/// `"{digest} {line}"`, folded from the two pieces.
///
/// [`line_checksum`]: crate::result::line_checksum
fn record_checksum(digest: Digest, line: &[u8]) -> u64 {
    let mut sum = LineChecksum::new(32 + 1 + line.len());
    sum.update(&digest.hex());
    sum.update(b" ");
    sum.update(line);
    sum.finish()
}

/// Encode a disk record: the `v1` result line plus a trailing checksum
/// over `"{digest} {line}"`, binding content to filename.
pub(crate) fn encode_record(digest: Digest, result: &RunResult) -> Vec<u8> {
    let mut record = LineBuf::<{ V1_MAX + 18 }>::new();
    result.encode(&mut record);
    let sum = record_checksum(digest, record.as_bytes());
    push_checksum(&mut record, sum);
    record.as_bytes().to_vec()
}

/// Decode and verify a disk record read from `{digest}.rec`. `None` on
/// any malformation: missing/short checksum, checksum mismatch (torn
/// write, bit rot, record under the wrong filename), or an unparseable
/// result line.
pub(crate) fn decode_record(digest: Digest, record: &[u8]) -> Option<RunResult> {
    let (line, sum) = split_checksum(record.trim_ascii_end())?;
    if sum != record_checksum(digest, line) {
        return None;
    }
    RunResult::from_line(line)
}

/// Move `{name}.rec` into `dir/quarantine/`, creating the subdirectory
/// on demand. Returns whether the move succeeded (it can fail on a
/// read-only directory; the record is then left in place).
fn quarantine_record(dir: &Path, name: &str) -> bool {
    let qdir = dir.join(QUARANTINE_SUBDIR);
    std::fs::create_dir_all(&qdir).is_ok()
        && std::fs::rename(
            dir.join(format!("{name}.rec")),
            qdir.join(format!("{name}.rec")),
        )
        .is_ok()
}

impl ResultCache {
    /// A cache holding up to `capacity` in-memory records, persisting to
    /// `dir` when given. The directory is created lazily on first store.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> ResultCache {
        ResultCache {
            mem: Mutex::new(MemCache {
                map: DigestMap::default(),
                order: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
            }),
            replayed: Vec::new(),
            dir,
            dir_made: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            bad: Mutex::new(std::collections::HashSet::new()),
            disk_dead: AtomicBool::new(false),
        }
    }

    fn record_path(dir: &Path, digest: Digest) -> PathBuf {
        dir.join(format!("{digest}.rec"))
    }

    /// Look up a digest; counts a hit or a miss. A record read from
    /// disk is kept in memory. A disk record that fails verification is
    /// quarantined on first sight (see the module docs) and the lookup
    /// is a miss — so the caller recomputes and output bytes are
    /// unaffected. Text that spells no digest (see [`AsDigest`]) is a
    /// miss.
    pub fn get<D: AsDigest + ?Sized>(&self, digest: &D) -> Option<RunResult> {
        let found = digest.as_digest().and_then(|d| {
            if let Some(r) = self.memo().map.get(&d) {
                return Some(*r);
            }
            let (result, lent) = self.lookup(d)?;
            if lent.is_none() {
                self.admit(&mut self.memo(), d, result);
            }
            Some(result)
        });
        self.counted(found)
    }

    /// [`ResultCache::get`] for a sweep: the memo is neither read nor
    /// written. A hit comes with the lent map that held it (`None`: the
    /// disk).
    pub(crate) fn probe(&self, digest: Digest) -> Option<(RunResult, Option<&Replayed>)> {
        let found = self.lookup(digest);
        self.count(found.is_some() as u64, found.is_none() as u64);
        found
    }

    /// Count a lookup's hit or miss.
    fn counted(&self, found: Option<RunResult>) -> Option<RunResult> {
        self.count(found.is_some() as u64, found.is_none() as u64);
        found
    }

    /// Add lookups answered without a probe (a sweep's duplicate keys).
    pub(crate) fn count(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// The memo, locked. A worker panic while holding the lock must not
    /// poison the whole sweep's memoization.
    fn memo(&self) -> MutexGuard<'_, MemCache> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The result under `digest` from the first layer below the memo
    /// that holds it, and the lent map it came from (`None`: the disk).
    fn lookup(&self, digest: Digest) -> Option<(RunResult, Option<&Replayed>)> {
        let lent = self
            .replayed
            .iter()
            .find_map(|map| Some((*map.get(&digest)?, Some(map))));
        if lent.is_some() {
            return lent;
        }
        let dir = self.dir.as_ref()?;
        let known_bad = self
            .bad
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&digest);
        if known_bad {
            return None;
        }
        let record = std::fs::read(Self::record_path(dir, digest)).ok()?;
        match decode_record(digest, &record) {
            Some(r) => Some((r, None)),
            None => {
                // Corrupt: quarantine once, remember the digest so it
                // is never re-read (the move can fail on a read-only
                // dir).
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                if quarantine_record(dir, &digest.to_string()) {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                self.bad
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(digest);
                None
            }
        }
    }

    /// Keep `result` in the memo, evicting its oldest record when full.
    fn admit(&self, mem: &mut MemCache, digest: Digest, result: RunResult) {
        if mem.map.contains_key(&digest) {
            return;
        }
        if mem.map.len() >= mem.capacity {
            if let Some(old) = mem.order.pop_front() {
                mem.map.remove(&old);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        mem.map.insert(digest, result);
        mem.order.push_back(digest);
    }

    /// Lend the cache a journal's replayed runs: lookups read them in
    /// place, as hits, after the maps lent before. With a disk layer, a
    /// replayed record the directory lacks is written; one it holds is
    /// left as it is.
    pub(crate) fn seed(&mut self, replayed: &Replayed) {
        self.replayed.push(Arc::clone(replayed));
        if let Some(dir) = &self.dir {
            for (&digest, result) in replayed.iter() {
                if !Self::record_path(dir, digest).exists() {
                    // Persistence problems are non-fatal, as in a sweep.
                    let _ = self.store(digest, result);
                }
            }
        }
    }

    /// Store a result under its digest (memory + disk when configured).
    ///
    /// Disk write failures are non-fatal: the first one prints a single
    /// warning to stderr and the cache carries on without its disk
    /// layer — the sweep's results are intact either way. The
    /// returned error reports that first failure so callers that *want*
    /// to surface it can. Text that spells no digest (see [`AsDigest`])
    /// is an error and stores nothing.
    pub fn put<D: AsDigest + ?Sized>(&self, digest: &D, result: RunResult) -> Result<(), String> {
        let digest = digest
            .as_digest()
            .ok_or("cache key is not a 32-hex run digest")?;
        self.admit(&mut self.memo(), digest, result);
        self.store(digest, &result)
    }

    /// [`ResultCache::put`]'s disk half: write the record when a disk
    /// layer is configured and still writable.
    pub(crate) fn store(&self, digest: Digest, result: &RunResult) -> Result<(), String> {
        if let Some(dir) = &self.dir {
            if self.disk_dead.load(Ordering::Relaxed) {
                return Ok(());
            }
            if let Err(e) = self.disk_put(dir, digest, result) {
                if !self.disk_dead.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: cache dir {} is unwritable ({e}); \
                         continuing without it",
                        dir.display()
                    );
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn disk_put(&self, dir: &Path, digest: Digest, result: &RunResult) -> Result<(), String> {
        self.dir_made
            .get_or_init(|| {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create cache dir {}: {e}", dir.display()))
            })
            .clone()?;
        let path = Self::record_path(dir, digest);
        // Write-then-rename so a concurrent reader never sees a
        // truncated record; names include the digest so two writers
        // of the same key write identical bytes anyway.
        let tmp = dir.join(format!("{digest}.tmp{}", std::process::id()));
        std::fs::write(&tmp, encode_record(digest, result))
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        Ok(())
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Bounds for [`gc_dir`]. `None` fields don't constrain; with both
/// `None` the sweep only reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcConfig {
    /// Keep at most this many bytes of `.rec` records (oldest evicted
    /// first until under the bound).
    pub max_bytes: Option<u64>,
    /// Evict records whose modification time is older than this many
    /// seconds.
    pub max_age_secs: Option<u64>,
    /// Report what would be evicted without deleting anything.
    pub dry_run: bool,
}

/// What a [`gc_dir`] sweep did (or, under `dry_run`, would do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Records found.
    pub scanned: u64,
    /// Records evicted (or marked for eviction under `dry_run`).
    pub evicted: u64,
    /// Total record bytes before the sweep.
    pub bytes_before: u64,
    /// Total record bytes after the sweep.
    pub bytes_after: u64,
    /// Records sitting in `quarantine/` — reported, never evicted.
    pub quarantined: u64,
    /// Total bytes held by quarantined records.
    pub quarantined_bytes: u64,
}

/// Size/age-bounded eviction over a persistent cache directory.
///
/// Scans `dir` for `*.rec` records, evicts everything older than
/// `max_age_secs`, then — if the survivors still exceed `max_bytes` —
/// keeps evicting oldest-first until under the bound. "Oldest" is by
/// modification time with the file name as a deterministic tie-break.
/// Concurrent writers are safe: a record that disappears mid-sweep is
/// skipped, and an evicted record is merely a future cache miss.
///
/// The `quarantine/` subdirectory is never swept — corrupt records are
/// evidence, not garbage — but its contents are counted in the report
/// so an operator sees them pile up.
pub fn gc_dir(dir: &Path, cfg: &GcConfig) -> Result<GcReport, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        // A missing directory holds zero records; nothing to do.
        Err(_) => return Ok(GcReport::default()),
    };
    let mut records: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().map(|e| e != "rec").unwrap_or(true) {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            records.push((path, meta.len(), mtime));
        }
    }
    // Oldest first; equal mtimes fall back to name order so the sweep
    // is deterministic.
    records.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));

    let bytes_before: u64 = records.iter().map(|r| r.1).sum();
    let now = std::time::SystemTime::now();
    let mut evict = vec![false; records.len()];
    if let Some(age) = cfg.max_age_secs {
        for (i, (_, _, mtime)) in records.iter().enumerate() {
            let old = now
                .duration_since(*mtime)
                .map(|d| d.as_secs() > age)
                .unwrap_or(false);
            if old {
                evict[i] = true;
            }
        }
    }
    if let Some(max) = cfg.max_bytes {
        let mut kept: u64 = records
            .iter()
            .zip(&evict)
            .filter(|(_, &e)| !e)
            .map(|(r, _)| r.1)
            .sum();
        for (i, (_, len, _)) in records.iter().enumerate() {
            if kept <= max {
                break;
            }
            if !evict[i] {
                evict[i] = true;
                kept -= len;
            }
        }
    }
    let mut report = GcReport {
        scanned: records.len() as u64,
        bytes_before,
        bytes_after: bytes_before,
        ..GcReport::default()
    };
    for ((path, len, _), &doomed) in records.iter().zip(&evict) {
        if !doomed {
            continue;
        }
        if cfg.dry_run || std::fs::remove_file(path).is_ok() {
            report.evicted += 1;
            report.bytes_after -= len;
        }
    }
    // Count (never touch) the quarantine.
    if let Ok(qentries) = std::fs::read_dir(dir.join(QUARANTINE_SUBDIR)) {
        for entry in qentries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    report.quarantined += 1;
                    report.quarantined_bytes += meta.len();
                }
            }
        }
    }
    Ok(report)
}

/// What an offline [`fsck_dir`] verification pass found (and, unless
/// `dry_run`, repaired by quarantining).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// `.rec` records examined.
    pub scanned: u64,
    /// Records whose checksum and result line verified.
    pub ok: u64,
    /// Records that failed verification.
    pub corrupt: u64,
    /// Corrupt records moved into `quarantine/` this pass (0 under
    /// `dry_run`; can trail `corrupt` if a move fails).
    pub quarantined: u64,
    /// Records already sitting in `quarantine/` before this pass.
    pub previously_quarantined: u64,
}

/// Offline cache verification: read every `*.rec` record in `dir`,
/// verify its trailing checksum against its filename digest and parse
/// the result line, and quarantine (never delete) everything that
/// fails. With `dry_run` the pass only reports. A missing directory is
/// an empty, successful pass.
///
/// The scan order is sorted by file name so reports are deterministic.
pub fn fsck_dir(dir: &Path, dry_run: bool) -> Result<FsckReport, String> {
    let mut report = FsckReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(report),
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().map(|e| e == "rec").unwrap_or(false))
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        report.scanned += 1;
        // A record whose name spells no digest cannot verify either.
        let good = name
            .as_digest()
            .zip(std::fs::read(&path).ok())
            .and_then(|(digest, record)| decode_record(digest, &record))
            .is_some();
        if good {
            report.ok += 1;
        } else {
            report.corrupt += 1;
            if !dry_run && quarantine_record(dir, name) {
                report.quarantined += 1;
            }
        }
    }
    if let Ok(qentries) = std::fs::read_dir(dir.join(QUARANTINE_SUBDIR)) {
        report.previously_quarantined = qentries
            .flatten()
            .filter(|e| e.metadata().map(|m| m.is_file()).unwrap_or(false))
            .count() as u64
            - report.quarantined;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(t: f64) -> RunResult {
        RunResult::model(true, t, 2.0 * t, 100.0)
    }

    /// A distinct digest per tag, and the record file it names.
    fn d(tag: u64) -> Digest {
        Digest([tag, !tag])
    }

    fn rec(tag: u64) -> String {
        format!("{}.rec", d(tag))
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = ResultCache::new(16, None);
        assert!(cache.get(&d(0xaa)).is_none());
        cache.put(&d(0xaa), r(1.0)).unwrap();
        assert_eq!(cache.get(&d(0xaa)), Some(r(1.0)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert!((s.hit_rate() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn evicts_fifo_at_capacity() {
        let cache = ResultCache::new(2, None);
        cache.put(&d(0xa), r(1.0)).unwrap();
        cache.put(&d(0xb), r(2.0)).unwrap();
        cache.put(&d(0xc), r(3.0)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&d(0xa)).is_none()); // oldest evicted
        assert!(cache.get(&d(0xb)).is_some());
        assert!(cache.get(&d(0xc)).is_some());
    }

    #[test]
    fn duplicate_put_does_not_grow() {
        let cache = ResultCache::new(2, None);
        cache.put(&d(0xa), r(1.0)).unwrap();
        cache.put(&d(0xa), r(1.0)).unwrap();
        cache.put(&d(0xb), r(2.0)).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.get(&d(0xa)).is_some());
    }

    /// Write a record and pin its mtime to `age_secs` seconds ago, so
    /// eviction order is under test control rather than timing luck.
    fn write_aged(dir: &Path, name: &str, bytes: usize, age_secs: u64) {
        let path = dir.join(format!("{name}.rec"));
        std::fs::write(&path, vec![b'x'; bytes]).unwrap();
        let mtime = std::time::SystemTime::now() - std::time::Duration::from_secs(age_secs);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(mtime))
            .unwrap();
    }

    #[test]
    fn gc_evicts_oldest_first_under_size_bound() {
        let dir = std::env::temp_dir().join(format!("psse-lab-gc-size-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Lexicographically *latest* name is the *oldest* record, so a
        // name-ordered sweep would get this wrong.
        write_aged(&dir, "zzzz", 100, 300);
        write_aged(&dir, "mmmm", 100, 200);
        write_aged(&dir, "aaaa", 100, 100);
        let report = gc_dir(
            &dir,
            &GcConfig {
                max_bytes: Some(150),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.bytes_before, 300);
        assert_eq!(report.bytes_after, 100);
        assert!(!dir.join("zzzz.rec").exists(), "oldest must go first");
        assert!(!dir.join("mmmm.rec").exists());
        assert!(dir.join("aaaa.rec").exists(), "newest survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_age_bound_and_dry_run() {
        let dir = std::env::temp_dir().join(format!("psse-lab-gc-age-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_aged(&dir, "old", 50, 3600);
        write_aged(&dir, "new", 50, 10);
        // Non-record files are never touched.
        std::fs::write(dir.join("notes.txt"), "keep me").unwrap();

        let dry = gc_dir(
            &dir,
            &GcConfig {
                max_age_secs: Some(600),
                dry_run: true,
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!((dry.scanned, dry.evicted), (2, 1));
        assert!(dir.join("old.rec").exists(), "dry run deletes nothing");

        let real = gc_dir(
            &dir,
            &GcConfig {
                max_age_secs: Some(600),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(real.evicted, 1);
        assert!(!dir.join("old.rec").exists());
        assert!(dir.join("new.rec").exists());
        assert!(dir.join("notes.txt").exists());
        // A missing directory is an empty sweep, not an error.
        let gone = gc_dir(&dir.join("nope"), &GcConfig::default()).unwrap();
        assert_eq!(gone, GcReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persists_and_reloads_from_disk() {
        let dir = std::env::temp_dir().join(format!("psse-lab-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::new(16, Some(dir.clone()));
            cache.put(&d(0xdead_beef), r(4.0)).unwrap();
        }
        // Fresh cache instance: memory empty, record comes from disk.
        let cache = ResultCache::new(16, Some(dir.clone()));
        assert_eq!(cache.get(&d(0xdead_beef)), Some(r(4.0)));
        assert_eq!(cache.stats().hits, 1);
        // Corrupt record reads as a miss and is quarantined, not deleted.
        std::fs::write(dir.join(rec(0xffff)), "garbage\n").unwrap();
        assert!(cache.get(&d(0xffff)).is_none());
        let s = cache.stats();
        assert_eq!((s.corrupt, s.quarantined), (1, 1));
        assert!(!dir.join(rec(0xffff)).exists(), "moved out of the cache");
        assert!(
            dir.join(QUARANTINE_SUBDIR).join(rec(0xffff)).exists(),
            "preserved for forensics"
        );
        // Second lookup: still a miss, but the record is not re-read
        // and the corrupt counter does not climb.
        assert!(cache.get(&d(0xffff)).is_none());
        assert_eq!(cache.stats().corrupt, 1);
        // The text spelling of a digest names the same slot; text that
        // spells no digest is a miss and cannot be stored under.
        assert_eq!(cache.get(&d(0xdead_beef).to_string()), Some(r(4.0)));
        assert!(cache.get("deadbeef").is_none());
        assert!(cache.put("deadbeef", r(4.0)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_bound_to_wrong_filename_is_quarantined() {
        // A bit-perfect record copied under a different digest must not
        // verify: the checksum covers the filename digest too.
        let dir = std::env::temp_dir().join(format!("psse-lab-cache-xname-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(16, Some(dir.clone()));
        cache.put(&d(0xaaaa), r(1.0)).unwrap();
        std::fs::copy(dir.join(rec(0xaaaa)), dir.join(rec(0xbbbb))).unwrap();
        let fresh = ResultCache::new(16, Some(dir.clone()));
        assert!(fresh.get(&d(0xbbbb)).is_none());
        assert_eq!(fresh.stats().corrupt, 1);
        assert!(dir.join(QUARANTINE_SUBDIR).join(rec(0xbbbb)).exists());
        // The genuine record still verifies.
        assert_eq!(fresh.get(&d(0xaaaa)), Some(r(1.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_reports_quarantine_without_touching_it() {
        let dir = std::env::temp_dir().join(format!("psse-lab-gc-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(QUARANTINE_SUBDIR)).unwrap();
        write_aged(&dir, "live", 40, 7200);
        std::fs::write(dir.join(QUARANTINE_SUBDIR).join("bad.rec"), "garbage\n").unwrap();
        // Evict everything evictable: the quarantined record must
        // survive and be reported separately.
        let report = gc_dir(
            &dir,
            &GcConfig {
                max_bytes: Some(0),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!((report.scanned, report.evicted), (1, 1));
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantined_bytes, 8);
        assert!(!dir.join("live.rec").exists());
        assert!(dir.join(QUARANTINE_SUBDIR).join("bad.rec").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_verifies_quarantines_and_reports() {
        let dir = std::env::temp_dir().join(format!("psse-lab-fsck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(16, Some(dir.clone()));
        let (good, torn) = (rec(1), rec(2));
        cache.put(&d(1), r(1.0)).unwrap();
        cache.put(&d(2), r(2.0)).unwrap();
        // Truncate one record mid-line, plant one unparseable one under
        // a name that is not even a digest.
        let bytes = std::fs::read(dir.join(&torn)).unwrap();
        std::fs::write(dir.join(&torn), &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(dir.join("junk.rec"), "not a record\n").unwrap();

        let dry = fsck_dir(&dir, true).unwrap();
        assert_eq!((dry.scanned, dry.ok, dry.corrupt), (3, 1, 2));
        assert_eq!(dry.quarantined, 0, "dry run moves nothing");
        assert!(dir.join("junk.rec").exists());

        let real = fsck_dir(&dir, false).unwrap();
        assert_eq!((real.scanned, real.ok, real.corrupt), (3, 1, 2));
        assert_eq!(real.quarantined, 2);
        assert!(dir.join(&good).exists());
        assert!(dir.join(QUARANTINE_SUBDIR).join(&torn).exists());
        assert!(dir.join(QUARANTINE_SUBDIR).join("junk.rec").exists());

        // A second pass sees a clean cache and the old quarantine.
        let again = fsck_dir(&dir, false).unwrap();
        assert_eq!((again.scanned, again.ok, again.corrupt), (1, 1, 0));
        assert_eq!(again.previously_quarantined, 2);
        // Missing directory: empty pass.
        assert_eq!(
            fsck_dir(&dir.join("nope"), false).unwrap(),
            FsckReport::default()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_to_memory_only() {
        // Point the disk layer at a path that cannot be a directory (a
        // regular file), so every write fails: the cache must keep
        // memoizing in memory and keep returning Ok after warning once.
        let base = std::env::temp_dir().join(format!("psse-lab-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let not_a_dir = base.join("file");
        std::fs::write(&not_a_dir, "occupied").unwrap();
        let cache = ResultCache::new(16, Some(not_a_dir.clone()));
        let first = cache.put(&d(0xaa), r(1.0));
        assert!(first.is_err(), "first failure is reported");
        assert!(cache.put(&d(0xbb), r(2.0)).is_ok(), "then degraded quietly");
        assert_eq!(
            cache.get(&d(0xaa)),
            Some(r(1.0)),
            "memory layer still works"
        );
        assert_eq!(cache.get(&d(0xbb)), Some(r(2.0)));
        let _ = std::fs::remove_dir_all(&base);
    }
}
