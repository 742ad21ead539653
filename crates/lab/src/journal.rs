//! Crash-safe sweep journal: one self-checksummed line per completed
//! run, so an interrupted sweep resumes instead of restarting.
//!
//! # Format
//!
//! A journal is a line-oriented text file:
//!
//! ```text
//! journal  = header run*
//! header   = "psse-lab-journal v1 " spec-digest " " checksum "\n"
//! run      = "run " key-digest " " v1-result-line " " checksum "\n"
//! checksum = 16 lowercase hex chars (splitmix64 of everything before it)
//! ```
//!
//! `spec-digest` hashes the sweep's ordered run-key digests, so a
//! journal can only resume the sweep it was recorded for. Every line
//! carries a trailing [`line_checksum`] over its own body: a crash mid
//! `write(2)` leaves a torn tail that fails either the newline or the
//! checksum test, and [`Journal::open_resume`] truncates the file back
//! to the last intact line before replaying it. Only *successful* runs
//! are journaled — failures re-execute on resume, which is exactly what
//! a crashed or timed-out key needs — and each digest at most once: a
//! run the file already holds a line for (replayed, or a duplicate key
//! of the sweep) is not appended again, so a resumed journal does not
//! grow.
//!
//! # Group commit and the crash contract
//!
//! Lines are committed in groups: [`Journal::record`] appends the line
//! to an in-memory buffer, and one `write(2)` hands the buffer to the
//! file once it holds 64 KiB or 10 ms have passed since the last write
//! (checked on each `record`). [`Journal::flush`] writes whatever is
//! left; the lab calls it before a sweep returns, and dropping the
//! journal calls it too. So:
//!
//! - when a sweep returns, its journal is complete on disk;
//! - mid-sweep, a `kill -9` loses at most the runs recorded less than
//!   10 ms after the last write (they wait for the next `record` or the
//!   final flush), and those runs re-execute on resume.
//!
//! A group is whole lines in record order, so the file is always an
//! intact prefix of the recorded lines plus, at worst, a torn tail: a
//! cut inside a group write is just a longer torn tail.
//!
//! The replayed runs are one shared map ([`Replayed`]): the journal
//! reads it to skip lines it already holds, and [`Lab::seed`] lends it
//! to the lab's cache, which serves each as a hit without copying it.
//! So the resumed sweep recomputes only what is missing and the final
//! CSV is byte-identical to an uninterrupted run (results round-trip
//! through the same exact-bits `v1` encoding the disk cache uses).
//!
//! [`Lab::seed`]: crate::Lab::seed

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::key::{AsDigest, Digest, DigestMap, DigestSet, RunKey};
use crate::result::{line_checksum, push_checksum, split_checksum, LineChecksum, RunResult};

const HEADER_PREFIX: &str = "psse-lab-journal v1";

/// A group is written once it holds this many bytes...
const GROUP_BYTES: usize = 64 << 10;

/// ...or once this long has passed since the last write.
const GROUP_AGE: Duration = Duration::from_millis(10);

/// The longest line [`Journal::open_resume`] reads. A `v1` run line is
/// at most 264 bytes; a longer one ends the intact prefix like any torn
/// tail, so a file without newlines is never read into one line.
const MAX_LINE: u64 = 512;

/// The most replayed runs [`Journal::open_resume`] sizes its map for up
/// front: the file length bounds the count only when the file is honest.
const MAX_PRESIZE: u64 = 1 << 16;

/// The runs [`Journal::open_resume`] replayed, `digest → result`: one
/// map, shared by the journal and (through [`Lab::seed`]) the lab's
/// cache, never copied.
///
/// [`Lab::seed`]: crate::Lab::seed
pub type Replayed = Arc<DigestMap<RunResult>>;

/// Digest of a sweep's identity: two salted splitmix64 chains over the
/// ordered run-key digests (the checksums of `"spec-hi <d0> <d1> ..."`
/// and `"spec-lo ..."`). Two sweeps share a journal iff they expand to
/// the same keys in the same order. Each key is digested once and its
/// hex folded straight into both chains — the joined string's length is
/// known from the key count, so the string itself is never built.
pub fn spec_digest(keys: &[RunKey]) -> String {
    spec_digest_of(keys.len(), keys.iter().map(RunKey::digest_bits))
}

/// [`spec_digest`] over `count` already-computed key digests.
pub(crate) fn spec_digest_of(count: usize, digests: impl Iterator<Item = Digest>) -> String {
    // "spec-?? " + count digests of 32 hex chars + the spaces between.
    let len = 8 + (33 * count).saturating_sub(1);
    let (mut hi, mut lo) = (LineChecksum::new(len), LineChecksum::new(len));
    hi.update(b"spec-hi ");
    lo.update(b"spec-lo ");
    for (i, digest) in digests.enumerate() {
        if i > 0 {
            hi.update(b" ");
            lo.update(b" ");
        }
        let hex = digest.hex();
        hi.update(&hex);
        lo.update(&hex);
    }
    Digest([hi.finish(), lo.finish()]).to_string()
}

fn header_line(spec: &str) -> String {
    let body = format!("{HEADER_PREFIX} {spec}");
    format!("{body} {:016x}\n", line_checksum(&body))
}

/// The body of a (newline-stripped) line whose trailing checksum
/// matches it; `None` otherwise — which is what a torn tail looks like.
fn checked_body(line: &[u8]) -> Option<&[u8]> {
    let (body, sum) = split_checksum(line)?;
    (sum == line_checksum(body)).then_some(body)
}

/// Parse a (newline-stripped) header line; returns the spec digest it
/// claims, `None` on any malformation.
fn parse_header(line: &[u8]) -> Option<&str> {
    let spec = checked_body(line)?
        .strip_prefix(HEADER_PREFIX.as_bytes())?
        .strip_prefix(b" ")?;
    std::str::from_utf8(spec).ok()
}

/// Parse a (newline-stripped) run line into `(key digest, result)`;
/// `None` on any malformation — including a torn tail, whose checksum
/// cannot match.
fn parse_run_line(line: &[u8]) -> Option<(Digest, RunResult)> {
    let rest = checked_body(line)?.strip_prefix(b"run ")?;
    let (digest, result_line) = rest.split_at_checked(32)?;
    let result = RunResult::from_line(result_line.strip_prefix(b" ")?)?;
    Some((Digest::from_hex(digest)?, result))
}

/// An append-only sweep journal (see the module docs for the format
/// and the crash contract). Thread-safe: workers record completions
/// concurrently into one group under a lock, and each group is written
/// with a single `write_all`.
pub struct Journal {
    path: PathBuf,
    /// The lines the file held when it was opened (empty for a fresh
    /// journal).
    replayed: Replayed,
    state: Mutex<State>,
    write_failed: AtomicBool,
}

/// What the lock guards: the file, the group of lines not yet written
/// (each assembled in place at its end), and the digests this handle
/// recorded.
struct State {
    file: std::fs::File,
    group: Vec<u8>,
    /// Lines in `group`.
    pending: u64,
    last_write: Instant,
    present: DigestSet,
    /// Lines that reached the file.
    appended: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    fn over(path: &Path, file: std::fs::File, replayed: Replayed) -> Journal {
        Journal {
            path: path.to_path_buf(),
            replayed,
            state: Mutex::new(State {
                file,
                group: Vec::with_capacity(GROUP_BYTES + MAX_LINE as usize),
                pending: 0,
                last_write: Instant::now(),
                present: DigestSet::default(),
                appended: 0,
            }),
            write_failed: AtomicBool::new(false),
        }
    }

    /// Start a fresh journal at `path` for the sweep identified by
    /// `spec` (see [`spec_digest`]): truncates whatever was there and
    /// writes the header.
    pub fn create(path: &Path, spec: &str) -> Result<Journal, String> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        file.write_all(header_line(spec).as_bytes())
            .map_err(|e| format!("cannot write journal header {}: {e}", path.display()))?;
        Ok(Journal::over(path, file, Replayed::default()))
    }

    /// Resume from an existing journal: validate the header against
    /// `spec`, replay every intact run line, truncate any torn tail,
    /// and reopen for appending. Returns the journal and the replayed
    /// `digest → result` map, which the journal keeps a share of.
    ///
    /// A missing file starts a fresh journal (so `--resume` works on
    /// the very first attempt too). A journal whose header names a
    /// *different* spec is a hard error — silently mixing sweeps would
    /// corrupt both. A journal whose header itself is torn is treated
    /// as empty and rewritten.
    pub fn open_resume(path: &Path, spec: &str) -> Result<(Journal, Replayed), String> {
        let unreadable = |e| format!("cannot read journal {}: {e}", path.display());
        let mut reader = match std::fs::File::open(path) {
            Ok(file) => BufReader::with_capacity(1 << 16, file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Journal::create(path, spec)?, Replayed::default()));
            }
            Err(e) => return Err(unreadable(e)),
        };
        let file_len = reader.get_ref().metadata().map_or(0, |m| m.len());
        // One line of at most `MAX_LINE` bytes at a time through one
        // buffer: resuming never holds the whole file, nor a whole tail
        // that has no newline.
        let mut line = Vec::with_capacity(MAX_LINE as usize);
        let mut read_line = |line: &mut Vec<u8>| {
            line.clear();
            (&mut reader).take(MAX_LINE).read_until(b'\n', line)
        };
        read_line(&mut line).map_err(unreadable)?;
        let header_ok = match &line[..] {
            [header @ .., b'\n'] => match parse_header(header) {
                Some(found) if found == spec => true,
                Some(found) => {
                    return Err(format!(
                        "journal {} belongs to a different sweep \
                         (spec digest {found}, this sweep is {spec}); \
                         refusing to resume",
                        path.display()
                    ));
                }
                None => false,
            },
            _ => false,
        };
        if !header_ok {
            // Torn or empty header: nothing trustworthy to replay.
            return Ok((Journal::create(path, spec)?, Replayed::default()));
        }
        let mut valid_bytes = line.len() as u64;
        // Sized from the file (a run line is at least 160 bytes), so the
        // map is allocated once instead of rehashed as it grows, but
        // never beyond `MAX_PRESIZE`: a sparse or padded file claims
        // any length.
        let presize = (file_len / 160).min(MAX_PRESIZE) as usize;
        let mut replayed = DigestMap::with_capacity_and_hasher(presize, Default::default());
        loop {
            read_line(&mut line).map_err(unreadable)?;
            // End of file, a line without its newline, or one whose
            // checksum fails: the intact prefix ends here.
            let [body @ .., b'\n'] = &line[..] else {
                break;
            };
            let Some((digest, result)) = parse_run_line(body) else {
                break;
            };
            replayed.insert(digest, result);
            valid_bytes += line.len() as u64;
        }
        // Drop the torn tail (if any), then append after the intact
        // prefix.
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        file.set_len(valid_bytes)
            .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        let replayed = Arc::new(replayed);
        Ok((Journal::over(path, file, Arc::clone(&replayed)), replayed))
    }

    /// Record one completed run — unless this journal already holds a
    /// line for `digest` (replayed by [`Journal::open_resume`], or
    /// recorded earlier for a duplicate key), so resuming a sweep never
    /// grows its journal. A digest spelled as text must be the 32 hex
    /// characters of [`RunKey::digest`]; anything else names no run and
    /// is ignored.
    ///
    /// The line `run <digest> <v1 line> <checksum>\n` is assembled at
    /// the end of the pending group under the journal's lock. The group
    /// is written with one `write_all` when it holds 64 KiB or when
    /// 10 ms have passed since the last write; otherwise the line waits
    /// for a later `record` or [`Journal::flush`]. So when `record`
    /// returns the line is *recorded*, not necessarily written: see the
    /// module docs for the crash contract.
    ///
    /// Best-effort: a write failure warns once on stderr and the sweep
    /// continues (the journal is a recovery aid, not a correctness
    /// dependency).
    pub fn record<D: AsDigest + ?Sized>(&self, digest: &D, result: &RunResult) {
        let Some(digest) = digest.as_digest() else {
            return;
        };
        if self.replayed.contains_key(&digest) {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.present.insert(digest) {
            return;
        }
        let group = &mut state.group;
        let start = group.len();
        group.extend_from_slice(b"run ");
        group.extend_from_slice(&digest.hex());
        group.push(b' ');
        result.write_line(group);
        let sum = line_checksum(&group[start..]);
        push_checksum(group, sum);
        state.pending += 1;
        if state.group.len() >= GROUP_BYTES || state.last_write.elapsed() >= GROUP_AGE {
            self.write_group(&mut state);
        }
    }

    /// Write every recorded line that has not reached the file yet. The
    /// lab calls it before a sweep returns, and dropping the journal
    /// calls it too.
    pub fn flush(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.pending > 0 {
            self.write_group(&mut state);
        }
    }

    /// Hand the pending group to the file in one `write_all`.
    fn write_group(&self, state: &mut State) {
        match state.file.write_all(&state.group) {
            Ok(()) => state.appended += state.pending,
            Err(e) => {
                if !self.write_failed.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: journal {} stopped accepting writes ({e}); \
                         a crash from here on will not be resumable",
                        self.path.display()
                    );
                }
            }
        }
        state.group.clear();
        state.pending = 0;
        state.last_write = Instant::now();
    }

    /// Lines this handle has written to the file since it was opened
    /// (replayed lines and skipped duplicates do not count). Asking
    /// writes the pending group first, so every line recorded so far is
    /// counted once it has reached the file.
    pub fn appended(&self) -> u64 {
        self.flush();
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .appended
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::machines::jaketown;

    fn keys() -> Vec<RunKey> {
        (1..=4)
            .map(|p| RunKey::model("nbody", 1000, p * 10, jaketown()))
            .collect()
    }

    fn r(t: f64) -> RunResult {
        RunResult::model(true, t, 2.0 * t, 100.0)
    }

    /// A distinct digest per tag.
    fn d(tag: u64) -> Digest {
        Digest([tag, !tag])
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psse-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn spec_digest_tracks_key_list_and_order() {
        let ks = keys();
        assert_eq!(spec_digest(&ks), spec_digest(&ks));
        assert_eq!(spec_digest(&ks).len(), 32);
        let mut rev = ks.clone();
        rev.reverse();
        assert_ne!(spec_digest(&ks), spec_digest(&rev), "order matters");
        assert_ne!(spec_digest(&ks), spec_digest(&ks[1..]), "set matters");
    }

    #[test]
    fn create_record_resume_round_trips() {
        let path = tmp("roundtrip");
        let spec = spec_digest(&keys());
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record(&d(0xa), &r(1.0));
            j.record(&d(0xb), &r(2.0));
        }
        let (_j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed.get(&d(0xa)), Some(&r(1.0)));
        assert_eq!(replayed.get(&d(0xb)), Some(&r(2.0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_replayed() {
        let path = tmp("torn");
        let spec = spec_digest(&keys());
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record(&d(0xa), &r(1.0));
            j.record(&d(0xb), &r(2.0));
        }
        // Simulate a crash mid-write: chop the file mid last line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        assert_eq!(replayed.len(), 1, "torn line dropped");
        assert_eq!(replayed.get(&d(0xa)), Some(&r(1.0)));
        // Appending after the truncation yields an intact journal again.
        j.record(&d(0xc), &r(3.0));
        drop(j);
        let (_j, again) = Journal::open_resume(&path, &spec).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.get(&d(0xc)), Some(&r(3.0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_spec_is_refused_and_torn_header_restarts() {
        let path = tmp("spec");
        let spec = spec_digest(&keys());
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record(&d(0xa), &r(1.0));
        }
        let other = spec_digest(&keys()[..2]);
        let err = Journal::open_resume(&path, &other).unwrap_err();
        assert!(err.contains("different sweep"), "{err}");
        // A torn header (no newline) is treated as an empty journal.
        std::fs::write(&path, "psse-lab-journal v1 garbage").unwrap();
        let (_j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        assert!(replayed.is_empty());
        // Missing file: fresh journal, empty replay.
        let missing = tmp("missing");
        let _ = std::fs::remove_file(&missing);
        let (_j, replayed) = Journal::open_resume(&missing, &spec).unwrap();
        assert!(replayed.is_empty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&missing);
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let path = tmp("bits");
        let spec = spec_digest(&keys());
        let exotic = RunResult {
            feasible: true,
            verified: false,
            time: 1.0 / 3.0,
            energy: f64::MIN_POSITIVE,
            flops: 6.02e23,
            words: -0.0,
            msgs: 7.0,
            mem_used: 1e9 + 0.5,
            retries: 3,
            checkpoint_words: 99,
            resilience_words: 1,
            resilience_msgs: 2,
            output_digest: 0xfeed_f00d_dead_beef,
        };
        {
            let j = Journal::create(&path, &spec).unwrap();
            j.record(&d(0xd), &exotic);
        }
        let (_j, replayed) = Journal::open_resume(&path, &spec).unwrap();
        let back = replayed.get(&d(0xd)).unwrap();
        assert_eq!(back.words.to_bits(), exotic.words.to_bits());
        assert_eq!(back, &exotic);
        let _ = std::fs::remove_file(&path);
    }
}
