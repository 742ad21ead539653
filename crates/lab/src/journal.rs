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
//! through the same exact-bits `v1` encoding the disk cache uses). A
//! hit the lab serves from this journal's own replay map is not
//! offered to [`Journal::record`] at all (the lab tells the maps apart
//! by pointer); a hit from a `.rec` directory or from another lent map
//! is recorded as usual.
//!
//! # Cost per line
//!
//! Replay reads each line in place from the reader's 64 KiB buffer
//! (only a line that straddles two fills is copied), finds its newline
//! (first at the previous line's length, so among equal-length lines
//! only the first is searched), starts the checksum, and decodes the
//! fields with one cursor, eight hex digits per step; the file is
//! opened once. Append assembles the line in one stack buffer and
//! copies it into the pending group once; a sweep reserves the set of
//! recorded digests up front. The checksum is the floor the format
//! sets: a serial splitmix64 chain over the line's ~24 words, about
//! 150 ns however it is computed (four lines folded side by side took
//! 100 ns a line against 130 for one: the multiplies, not the chain,
//! set the pace). On replay it runs alongside the decode; on append
//! nothing is left to overlap it with.
//!
//! Per key, from the traced ledger (`psse-ledger bench --seed 1
//! --trace 1`, 2-vCPU host, before → after, three pairs in
//! alternation): `lab.journal_resume_us_per_key` 0.83–0.88 → 0.40–0.43
//! µs; `lab.journal_append_us_per_key` 0.41–0.63 → 0.53–0.59 µs, inside
//! the probe's spread (one timed pass, its 64 KiB `write`s included).
//! Per line, in a scratch harness over a 16 640-line journal of model
//! runs (ns, median of four alternating processes' 10th percentiles;
//! "read" is the loop with every other step removed, each other row
//! what removing that one step saved — the steps overlap, so the rows
//! do not add up):
//!
//! | replay | before | after | | append | before | after |
//! |---|---:|---:|---|---|---:|---:|
//! | read | 48 | 84 | | assemble | 137 | 60 |
//! | checksum | 58 | 42 | | checksum | 181 | 172 |
//! | decode | 244 | 142 | | clock | ≈ 50 | ≈ 50 |
//! | insert | 122 | 24 | | set | 77 | 44 |
//! | **line** | **642** | **424** | | **line** | **511** | **478** |
//!
//! The "after" replay column predates the length hint, which the
//! ledger credits with a further ~10 % of `journal_resume`. The clock
//! is one `Instant::now`, kept on every `record` by the crash contract;
//! removing it moved the harness less than its noise, so its row is
//! the call's own cost.
//!
//! [`Lab::seed`]: crate::Lab::seed

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use psse_metrics::num::Sink;

use crate::key::{AsDigest, Digest, DigestMap, DigestSet, RunKey};
use crate::result::{
    line_checksum, push_checksum, split_checksum, Cursor, LineBuf, LineChecksum, RunResult, V1_MAX,
};

const HEADER_PREFIX: &str = "psse-lab-journal v1";

/// A group is written once it holds this many bytes...
const GROUP_BYTES: usize = 64 << 10;

/// ...or once this long has passed since the last write.
const GROUP_AGE: Duration = Duration::from_millis(10);

/// The longest line [`Journal::open_resume`] reads. A `v1` run line is
/// at most 264 bytes; a longer one ends the intact prefix like any torn
/// tail, so a file without newlines is never read into one line.
const MAX_LINE: usize = 512;

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

/// The longest run line: `run `, the digest, a space, the longest `v1`
/// line, the checksum trailer.
const RUN_LINE_MAX: usize = 4 + 32 + 1 + V1_MAX + 18;

/// The run line `run <digest> <v1 line> <checksum>\n`, assembled on the
/// stack.
pub(crate) fn run_line(digest: Digest, result: &RunResult) -> LineBuf<RUN_LINE_MAX> {
    let mut line = LineBuf::new();
    line.put(b"run ");
    line.put(&digest.hex());
    line.push(b' ');
    result.encode(&mut line);
    let sum = line_checksum(line.as_bytes());
    push_checksum(&mut line, sum);
    line
}

/// Decode the run line at the front of `bytes` (up to [`MAX_LINE`] bytes
/// of the file, which may run past the line): `(key digest, result,
/// length with the newline)`, or `None` on any malformation — including
/// a torn tail, whose checksum cannot match, and a line whose newline
/// lies beyond `bytes`.
///
/// `hint` is the length the line probably has: the previous line's.
/// When the byte it points at is a newline, the line is decoded up to
/// it without searching; that decode can only succeed if no newline
/// comes earlier (none fits in a field), and on failure the first
/// newline is searched for after all.
pub(crate) fn decode_run_line(bytes: &[u8], hint: usize) -> Option<(Digest, RunResult, usize)> {
    if hint > 0 && bytes.get(hint - 1) == Some(&b'\n') {
        if let Some(run) = decode_line_to(bytes, hint - 1) {
            return Some(run);
        }
    }
    decode_line_to(bytes, newline(bytes)?)
}

/// [`decode_run_line`] of the line that ends with the newline at `end`.
/// The line is read in place, and the checksum — a serial chain, the
/// longest step — starts before the fields are decoded: the two have
/// no data in common, so the CPU overlaps them.
fn decode_line_to(bytes: &[u8], end: usize) -> Option<(Digest, RunResult, usize)> {
    let (body, claimed) = split_checksum(&bytes[..end])?;
    let sum = line_checksum(body);
    let mut cursor = Cursor(body);
    cursor.lit(b"run ")?;
    let digest = cursor.digest()?;
    cursor.lit(b" ")?;
    let result = cursor.v1()?;
    (cursor.0.is_empty() && sum == claimed).then_some((digest, result, end + 1))
}

/// The index of the first `\n` in `bytes`, eight bytes at a time.
fn newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ (ONES * b'\n' as u64);
        // The lowest byte flagged here is the first zero byte of `w`:
        // a borrow only ever flags bytes above a zero one.
        let zero = w.wrapping_sub(ONES) & !w & (ONES << 7);
        if zero != 0 {
            return Some(8 * i + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(bytes.len() - tail.len() + at)
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
/// (each appended whole), and the digests this handle recorded.
struct State {
    file: File,
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
    fn over(path: &Path, file: File, replayed: Replayed) -> Journal {
        Journal {
            path: path.to_path_buf(),
            replayed,
            state: Mutex::new(State {
                file,
                group: Vec::with_capacity(GROUP_BYTES + RUN_LINE_MAX),
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
        let file = File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        Journal::start(path, file, spec)
    }

    /// Write the header into the empty `file` and journal after it.
    fn start(path: &Path, mut file: File, spec: &str) -> Result<Journal, String> {
        file.write_all(header_line(spec).as_bytes())
            .map_err(|e| format!("cannot write journal header {}: {e}", path.display()))?;
        Ok(Journal::over(path, file, Replayed::default()))
    }

    /// Resume from an existing journal: validate the header against
    /// `spec`, replay every intact run line, truncate any torn tail,
    /// and append after the intact prefix. Returns the journal and the
    /// replayed `digest → result` map, which the journal keeps a share
    /// of.
    ///
    /// A missing file starts a fresh journal (so `--resume` works on
    /// the very first attempt too). A journal whose header names a
    /// *different* spec is a hard error — silently mixing sweeps would
    /// corrupt both. A journal whose header itself is torn is treated
    /// as empty and rewritten.
    ///
    /// One handle, opened for reading and appending, does all three.
    /// Run lines are decoded in place from the reader's buffer; only a
    /// line that straddles two buffer fills is copied out first.
    pub fn open_resume(path: &Path, spec: &str) -> Result<(Journal, Replayed), String> {
        let file = match OpenOptions::new().read(true).append(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Ok((Journal::create(path, spec)?, Replayed::default()));
            }
            Err(e) => return Err(format!("cannot open journal {}: {e}", path.display())),
        };
        let unreadable = |e| format!("cannot read journal {}: {e}", path.display());
        let truncate = |file: &File, len| {
            file.set_len(len)
                .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))
        };
        let file_len = file.metadata().map_or(0, |m| m.len());
        let mut reader = BufReader::with_capacity(1 << 16, file);
        // At most `MAX_LINE` bytes at a time: resuming never holds the
        // whole file, nor a whole tail that has no newline.
        let mut line = Vec::with_capacity(MAX_LINE);
        let copy_line = |reader: &mut BufReader<File>, line: &mut Vec<u8>| {
            line.clear();
            reader.take(MAX_LINE as u64).read_until(b'\n', line)
        };
        copy_line(&mut reader, &mut line).map_err(unreadable)?;
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
            let file = reader.into_inner();
            truncate(&file, 0)?;
            return Ok((Journal::start(path, file, spec)?, Replayed::default()));
        }
        let mut valid_bytes = line.len() as u64;
        // Sized from the file (a run line is at least 160 bytes), so the
        // map is allocated once instead of rehashed as it grows, but
        // never beyond `MAX_PRESIZE`: a sparse or padded file claims
        // any length.
        let presize = (file_len / 160).min(MAX_PRESIZE) as usize;
        let mut replayed = DigestMap::with_capacity_and_hasher(presize, Default::default());
        // The length of the last line replayed.
        let mut last = 0;
        loop {
            let buffered = match reader.fill_buf() {
                Ok(buffered) => buffered,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(unreadable(e)),
            };
            let window = &buffered[..buffered.len().min(MAX_LINE)];
            let (digest, result, len) = match decode_run_line(window, last) {
                Some(run) => {
                    reader.consume(run.2);
                    run
                }
                // A line cut short by the end of the buffer, not by the
                // end of the file or by `MAX_LINE`: read it whole.
                None if !window.is_empty()
                    && window.len() < MAX_LINE
                    && !window.contains(&b'\n') =>
                {
                    copy_line(&mut reader, &mut line).map_err(unreadable)?;
                    match decode_run_line(&line, last) {
                        Some(run) => run,
                        None => break,
                    }
                }
                // End of file, a line without its newline, or one whose
                // checksum fails: the intact prefix ends here.
                None => break,
            };
            replayed.insert(digest, result);
            valid_bytes += len as u64;
            last = len;
        }
        // Drop the torn tail (if any); appends land after the intact
        // prefix.
        let file = reader.into_inner();
        truncate(&file, valid_bytes)?;
        let replayed = Arc::new(replayed);
        Ok((Journal::over(path, file, Arc::clone(&replayed)), replayed))
    }

    /// Make room to record `runs` runs, less those the file held when it
    /// was opened, so a sweep's records do not rehash the set of
    /// recorded digests as it grows.
    pub(crate) fn reserve(&self, runs: usize) {
        let new = runs.saturating_sub(self.replayed.len());
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.present.reserve(new);
    }

    /// Whether `map` is this journal's own replay map — the lines the
    /// file held when it was opened. A hit served from it needs no
    /// [`Journal::record`]: the file holds its line already.
    pub(crate) fn replays(&self, map: &Replayed) -> bool {
        Arc::ptr_eq(&self.replayed, map)
    }

    /// Record one completed run — unless this journal already holds a
    /// line for `digest` (replayed by [`Journal::open_resume`], or
    /// recorded earlier for a duplicate key), so resuming a sweep never
    /// grows its journal. A digest spelled as text must be the 32 hex
    /// characters of [`RunKey::digest`]; anything else names no run and
    /// is ignored.
    ///
    /// The line `run <digest> <v1 line> <checksum>\n` is assembled on
    /// the stack and appended to the pending group with one copy, under
    /// the journal's lock. The group is written with one `write_all`
    /// when it holds 64 KiB or when 10 ms have passed since the last
    /// write; otherwise the line waits for a later `record` or
    /// [`Journal::flush`]. So when `record` returns the line is
    /// *recorded*, not necessarily written: see the module docs for the
    /// crash contract.
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
        state
            .group
            .extend_from_slice(run_line(digest, result).as_bytes());
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
