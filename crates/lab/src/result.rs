//! Result of one run, with an exact-bits one-line disk encoding.
//!
//! The persistent cache stores each result as a single `v1 ...` line
//! keyed by the run digest. Floats are encoded as their raw IEEE-754
//! bit patterns (`{:016x}` of [`f64::to_bits`]) so a round trip through
//! the cache reproduces *bit-identical* values — a cached sweep must
//! emit the same CSV bytes as a cold one.
//!
//! The encoders append to a caller-owned byte buffer and the decoders
//! read byte slices, so the journal and the `.rec` cache assemble and
//! check whole lines without a per-field allocation.

use psse_faults::rng::{BytePacker, KeyHasher};
use psse_metrics::num::push_u64;

/// Everything a sweep can want to know about one completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Whether the requested memory was inside the algorithm's
    /// `[min_memory, max_useful_memory]` band (model runs; simulator
    /// runs are always feasible if they complete).
    pub feasible: bool,
    /// Whether numerical verification passed (simulator runs that
    /// verify; `true` for model runs).
    pub verified: bool,
    /// Wall-clock (virtual) time in seconds.
    pub time: f64,
    /// Total energy in joules.
    pub energy: f64,
    /// Total flops across ranks.
    pub flops: f64,
    /// Total words sent across ranks.
    pub words: f64,
    /// Total messages sent across ranks.
    pub msgs: f64,
    /// Memory per processor actually used/charged, in words.
    pub mem_used: f64,
    /// Message retries due to injected faults (0 when fault-free).
    pub retries: u64,
    /// Words written to checkpoints.
    pub checkpoint_words: u64,
    /// Extra words moved by resilience machinery (retransmits + ABFT).
    pub resilience_words: u64,
    /// Extra messages sent by resilience machinery.
    pub resilience_msgs: u64,
    /// splitmix64 digest of the output payload bits (0 when the run has
    /// no payload, e.g. model runs). Equal digests ⇒ bit-identical
    /// outputs, which is how fault sweeps check ABFT correctness.
    pub output_digest: u64,
}

impl RunResult {
    /// A model-run result: analytic time/energy at a feasible point.
    pub fn model(feasible: bool, time: f64, energy: f64, mem_used: f64) -> RunResult {
        RunResult {
            feasible,
            verified: true,
            time,
            energy,
            flops: 0.0,
            words: 0.0,
            msgs: 0.0,
            mem_used,
            retries: 0,
            checkpoint_words: 0,
            resilience_words: 0,
            resilience_msgs: 0,
            output_digest: 0,
        }
    }

    /// Append the one-line `v1` record to `out`: the flags, the six
    /// floats as 16-hex-digit bit patterns, the four counters in
    /// decimal, the output digest in hex, single-space separated. No
    /// allocation beyond `out`'s own growth, so a caller that reuses its
    /// buffer encodes for free.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"v1 ");
        out.push(b'0' + self.feasible as u8);
        out.push(b' ');
        out.push(b'0' + self.verified as u8);
        for v in [
            self.time,
            self.energy,
            self.flops,
            self.words,
            self.msgs,
            self.mem_used,
        ] {
            out.push(b' ');
            out.extend_from_slice(&hex16(v.to_bits()));
        }
        for v in [
            self.retries,
            self.checkpoint_words,
            self.resilience_words,
            self.resilience_msgs,
        ] {
            out.push(b' ');
            push_u64(out, v);
        }
        out.push(b' ');
        out.extend_from_slice(&hex16(self.output_digest));
    }

    /// Parse a `v1` record; `None` on any malformation (the cache
    /// treats unreadable records as misses, never as errors).
    pub fn from_line(line: impl AsRef<[u8]>) -> Option<RunResult> {
        let mut it = line.as_ref().split(|&b| b == b' ');
        if it.next()? != b"v1" {
            return None;
        }
        let mut flag = || match it.next()? {
            b"0" => Some(false),
            b"1" => Some(true),
            _ => None,
        };
        let feasible = flag()?;
        let verified = flag()?;
        let mut f64_bits = || Some(f64::from_bits(parse_hex(it.next()?)?));
        let time = f64_bits()?;
        let energy = f64_bits()?;
        let flops = f64_bits()?;
        let words = f64_bits()?;
        let msgs = f64_bits()?;
        let mem_used = f64_bits()?;
        let mut dec = || parse_dec(it.next()?);
        let retries = dec()?;
        let checkpoint_words = dec()?;
        let resilience_words = dec()?;
        let resilience_msgs = dec()?;
        let output_digest = parse_hex(it.next()?)?;
        if it.next().is_some() {
            return None;
        }
        Some(RunResult {
            feasible,
            verified,
            time,
            energy,
            flops,
            words,
            msgs,
            mem_used,
            retries,
            checkpoint_words,
            resilience_words,
            resilience_msgs,
            output_digest,
        })
    }

    /// Average power in watts (`E / T`); 0 for zero-time runs.
    pub fn power(&self) -> f64 {
        if self.time > 0.0 {
            self.energy / self.time
        } else {
            0.0
        }
    }
}

/// Digest an output payload's f64 bit patterns with splitmix64, so two
/// runs can be compared for bit-identical outputs without retaining the
/// payloads.
pub fn digest_f64s(values: &[f64]) -> u64 {
    let mut h = KeyHasher::new(0x6f75_7470_7574_6467);
    for v in values {
        h.push(v.to_bits());
    }
    h.finish()
}

/// splitmix64 checksum of a line's raw bytes: length word, then the
/// bytes packed into little-endian 8-byte chunks (the same packing the
/// run-key digest uses for strings, so `"ab" + "c"` and `"a" + "bc"`
/// cannot collide), folded word by word with no intermediate vector.
/// Shared by the self-checksummed cache records and the sweep journal's
/// torn-tail detection.
pub fn line_checksum(line: impl AsRef<[u8]>) -> u64 {
    let line = line.as_ref();
    let mut sum = LineChecksum::new(line.len());
    sum.update(line);
    sum.finish()
}

/// [`line_checksum`] of a line that arrives in pieces. The total length
/// is the first word of the fold, so it is declared up front; the pieces
/// then follow in order and the value equals the checksum of their
/// concatenation.
pub(crate) struct LineChecksum {
    fold: KeyHasher,
    packer: BytePacker,
}

impl LineChecksum {
    /// Start the checksum of a line of `len` bytes in total.
    pub(crate) fn new(len: usize) -> LineChecksum {
        let mut fold = KeyHasher::new(0x7265_6331_6373_756d); // "rec1csum"
        fold.push(len as u64);
        LineChecksum {
            fold,
            packer: BytePacker::default(),
        }
    }

    /// Fold the next piece of the line.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        self.packer.feed(bytes, |w| self.fold.push(w));
    }

    /// The checksum, once `len` bytes have been fed.
    pub(crate) fn finish(mut self) -> u64 {
        self.packer.finish(|w| self.fold.push(w));
        self.fold.finish()
    }
}

/// `v` as 16 lowercase hex digits (the bytes of `{:016x}`).
pub(crate) fn hex16(v: u64) -> [u8; 16] {
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    buf
}

/// Value of each ASCII hex digit (either case); `0xff` for any other
/// byte, so one OR over a field's values exposes a bad digit.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        table[b"0123456789ABCDEF"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Parse a field of 1 to 16 hex digits. Every line carries ten such
/// fields, so replaying a journal is mostly this loop: one table load
/// per digit and a single validity test at the end.
pub(crate) fn parse_hex(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    let (mut value, mut seen) = (0u64, 0u8);
    for &b in digits {
        let v = HEX_VALUE[b as usize];
        seen |= v;
        value = value << 4 | (v & 0xf) as u64;
    }
    (seen < 16).then_some(value)
}

/// Parse a decimal counter field.
fn parse_dec(digits: &[u8]) -> Option<u64> {
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Close a checksummed line: append `" <16 hex digits>\n"`.
pub(crate) fn push_checksum(out: &mut Vec<u8>, sum: u64) {
    out.push(b' ');
    out.extend_from_slice(&hex16(sum));
    out.push(b'\n');
}

/// Split a (newline-stripped) checksummed line into its body and the
/// checksum it claims; `None` when the 16-digit trailer is missing or
/// malformed. What the checksum must cover is the caller's format.
pub(crate) fn split_checksum(line: &[u8]) -> Option<(&[u8], u64)> {
    let at = line.iter().rposition(|&b| b == b' ')?;
    let sum_hex = &line[at + 1..];
    if sum_hex.len() != 16 {
        return None;
    }
    Some((&line[..at], parse_hex(sum_hex)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip_is_exact() {
        let r = RunResult {
            feasible: true,
            verified: false,
            time: 1.2345678901234567e-3,
            energy: 9.87e12,
            flops: 6.66e15,
            words: 1.0 / 3.0,
            msgs: f64::MIN_POSITIVE,
            mem_used: 1e9 + 0.5,
            retries: 7,
            checkpoint_words: 123_456,
            resilience_words: 42,
            resilience_msgs: 3,
            output_digest: 0xdead_beef_cafe_f00d,
        };
        let mut line = Vec::new();
        r.write_line(&mut line);
        let back = RunResult::from_line(&line).unwrap();
        assert_eq!(r, back);
        assert_eq!(r.time.to_bits(), back.time.to_bits());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(RunResult::from_line("").is_none());
        assert!(RunResult::from_line("v0 1 1").is_none());
        assert!(RunResult::from_line("v1 1 1 zzzz").is_none());
        let mut line = Vec::new();
        RunResult::model(true, 1.0, 2.0, 3.0).write_line(&mut line);
        line.extend_from_slice(b" extra");
        assert!(RunResult::from_line(&line).is_none());
        // Field parsers: either hex case, 1 to 16 digits, digits only;
        // decimal counters must fit a u64.
        assert_eq!(parse_hex(b"fF"), Some(0xff));
        assert_eq!(parse_hex(b"ffffffffffffffff"), Some(u64::MAX));
        for bad in [&b""[..], b"+f", b"fg", b" f", b"00000000000000000"] {
            assert_eq!(parse_hex(bad), None, "{bad:?}");
        }
        assert_eq!(parse_dec(b"18446744073709551615"), Some(u64::MAX));
        for bad in [&b""[..], b"18446744073709551616", b"1x"] {
            assert_eq!(parse_dec(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn line_checksum_is_length_prefixed_and_sensitive() {
        let a = line_checksum("v1 1 1");
        assert_eq!(a, line_checksum("v1 1 1"));
        assert_ne!(a, line_checksum("v1 1 0"));
        assert_ne!(a, line_checksum("v1 1 1 "));
        // Length-prefixed packing: moving a byte across a chunk
        // boundary changes the checksum.
        assert_ne!(line_checksum("abcdefgh i"), line_checksum("abcdefghi "));
    }

    #[test]
    fn digest_distinguishes_payloads() {
        let a = digest_f64s(&[1.0, 2.0, 3.0]);
        let b = digest_f64s(&[1.0, 2.0, 3.0 + 1e-15]);
        let c = digest_f64s(&[1.0, 2.0, 3.0]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        // -0.0 and +0.0 differ in bits, so they differ in digest.
        assert_ne!(digest_f64s(&[0.0]), digest_f64s(&[-0.0]));
        // Values of the `Vec<u64>` + `hash_key` implementation this
        // fold replaced.
        let thousand: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 0.125).collect();
        assert_eq!(digest_f64s(&[]), 0x56bc_05d6_d156_8146);
        assert_eq!(digest_f64s(&[1.5]), 0x9042_8323_fb77_2519);
        assert_eq!(digest_f64s(&thousand), 0xb293_1883_b8f8_8c5a);
    }
}
