//! Result of one run, with an exact-bits one-line disk encoding.
//!
//! The persistent cache stores each result as a single `v1 ...` line
//! keyed by the run digest. Floats are encoded as their raw IEEE-754
//! bit patterns (`{:016x}` of [`f64::to_bits`]) so a round trip through
//! the cache reproduces *bit-identical* values — a cached sweep must
//! emit the same CSV bytes as a cold one.
//!
//! One encoder (`RunResult::encode` into a stack `LineBuf`) and one
//! decoder (`Cursor`) serve every `v1` line: [`RunResult::write_line`]
//! and [`RunResult::from_line`], the journal's run lines and the `.rec`
//! records. Neither allocates; the decoder reads a line in place.

use psse_faults::rng::{BytePacker, KeyHasher};
use psse_metrics::num::{push_u64, Sink};

use crate::key::Digest;

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
    /// decimal, the output digest in hex, single-space separated. The
    /// line is assembled on the stack and appended with one copy, so a
    /// caller that reuses its buffer encodes without allocating.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        let mut line = LineBuf::<V1_MAX>::new();
        self.encode(&mut line);
        out.extend_from_slice(line.as_bytes());
    }

    /// The `v1` record, written at the end of `line` — the one encoder
    /// behind [`RunResult::write_line`], the journal's run lines and the
    /// `.rec` records.
    pub(crate) fn encode<const N: usize>(&self, line: &mut LineBuf<N>) {
        line.put(b"v1 ");
        line.push(b'0' + self.feasible as u8);
        line.push(b' ');
        line.push(b'0' + self.verified as u8);
        for v in [
            self.time,
            self.energy,
            self.flops,
            self.words,
            self.msgs,
            self.mem_used,
        ] {
            line.push(b' ');
            line.hex16(v.to_bits());
        }
        for v in [
            self.retries,
            self.checkpoint_words,
            self.resilience_words,
            self.resilience_msgs,
        ] {
            line.push(b' ');
            push_u64(line, v);
        }
        line.push(b' ');
        line.hex16(self.output_digest);
    }

    /// Parse a `v1` record; `None` on any malformation (the cache
    /// treats unreadable records as misses, never as errors).
    pub fn from_line(line: impl AsRef<[u8]>) -> Option<RunResult> {
        let mut cursor = Cursor(line.as_ref());
        let result = cursor.v1()?;
        cursor.0.is_empty().then_some(result)
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

/// The longest `v1` line: `v1`, the two flags, six 16-digit floats,
/// four 20-digit counters and the 16-digit output digest.
pub(crate) const V1_MAX: usize = 6 + 6 * 17 + 4 * 21 + 17;

/// A line assembled on the stack, `N` bytes at most: fields are written
/// at its end, and the finished line reaches its destination in one
/// copy. Writing past `N` bytes panics — every `N` is the longest line
/// of its format.
pub(crate) struct LineBuf<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> LineBuf<N> {
    pub(crate) fn new() -> LineBuf<N> {
        LineBuf {
            bytes: [0; N],
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }

    /// `v` as 16 lowercase hex digits.
    pub(crate) fn hex16(&mut self, v: u64) {
        self.put(&hex16(v));
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl<const N: usize> Sink for LineBuf<N> {
    fn put(&mut self, ascii: &[u8]) {
        self.bytes[self.len..self.len + ascii.len()].copy_from_slice(ascii);
        self.len += ascii.len();
    }
}

/// `v` as 16 lowercase hex digits (the bytes of `{:016x}`).
pub(crate) fn hex16(v: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&hex8((v >> 32) as u32));
    out[8..].copy_from_slice(&hex8(v as u32));
    out
}

/// `v` as 8 lowercase hex digits, all eight at once: each nibble is
/// spread into a byte of its own, then `'0'` is added to every byte and
/// `'a' - '0' - 10` more to the bytes above 9.
fn hex8(v: u32) -> [u8; 8] {
    let mut x = v as u64;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    // Nibble i now sits in byte i, so the most significant comes first
    // in big-endian order.
    let letters = ((x + 0x0606_0606_0606_0606) >> 4) & 0x0101_0101_0101_0101;
    (x + 0x3030_3030_3030_3030 + letters * 39).to_be_bytes()
}

/// Value of each ASCII hex digit (either case); `0xff` for any other
/// byte. Read by the digit-by-digit fold of a field shorter than 16.
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

/// The value of 16 hex digits (either case), or `None` unless every
/// byte is one: two independent [`hex8_value`]s. Zero — the flops,
/// words, messages and output digest of every model run — is two
/// compares.
#[inline]
fn hex16_value(digits: &[u8; 16]) -> Option<u64> {
    if digits == b"0000000000000000" {
        return Some(0);
    }
    let (hi, lo) = digits.split_at(8);
    let word = |half: &[u8]| u64::from_le_bytes(half.try_into().expect("8 bytes"));
    let (hi, lo) = (hex8_value(word(hi)), hex8_value(word(lo)));
    Some((hi? as u64) << 32 | lo? as u64)
}

/// The value of the 8 hex digits packed little-endian in `w` (first
/// digit in the low byte), all eight bytes at once: each byte is tested
/// against the digit range and, lower-cased, against the letter range,
/// then its nibble is folded into place. `None` unless every byte is a
/// hex digit of either case.
#[inline]
fn hex8_value(w: u64) -> Option<u32> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = ONES << 7;
    // A byte of 0x80 or more is no digit, and would carry in the sums
    // below.
    if w & HIGH != 0 {
        return None;
    }
    // Adding `0x80 - lo` to a byte below 0x80 sets its high bit iff the
    // byte is at least `lo`, and carries into no other byte.
    let at_least = |x: u64, lo: u8| x + ONES * (0x80 - lo) as u64;
    let digit = at_least(w, b'0') & !at_least(w, b'9' + 1);
    let lower = w | (ONES * 0x20);
    let letter = at_least(lower, b'a') & !at_least(lower, b'f' + 1);
    if (digit | letter) & HIGH != HIGH {
        return None;
    }
    // `0`..`9` keep their low nibble; `a`..`f` and `A`..`F` have 1..6
    // there and gain 9.
    let nibbles = (w & (ONES * 0xf)) + ((letter >> 7) & ONES) * 9;
    // First digit in the high byte, then pairs, quads and octets of
    // nibbles folded together.
    let mut x = nibbles.swap_bytes();
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    x = (x | x >> 16) & 0x0000_0000_ffff_ffff;
    Some(x as u32)
}

/// The one decoder of the `v1` formats: a cursor over the rest of a
/// line, whose methods each read one field (or literal) at the front
/// and step past it, or fail. A field is not searched for its end:
/// it stops at the first byte it cannot hold, and the separator the
/// caller reads next (a space, the end of the line) rejects a field
/// that ran on. So the cursor accepts exactly the fields the format's
/// space-split grammar accepts: flags `0`/`1`; hex fields of 1 to 16
/// digits in either case; counters as `u64::from_str` reads them (an
/// optional `+`, then decimal digits, leading zeros allowed, the value
/// at most `u64::MAX`).
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    /// Step over the bytes `lit`.
    #[inline]
    pub(crate) fn lit(&mut self, lit: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(lit)?;
        Some(())
    }

    /// Exactly 16 hex digits.
    #[inline]
    pub(crate) fn hex16(&mut self) -> Option<u64> {
        let (digits, rest) = self.0.split_first_chunk::<16>()?;
        let value = hex16_value(digits)?;
        self.0 = rest;
        Some(value)
    }

    /// A run digest: its two 16-digit halves.
    #[inline]
    pub(crate) fn digest(&mut self) -> Option<Digest> {
        Some(Digest([self.hex16()?, self.hex16()?]))
    }

    /// 1 to 16 hex digits. The writer always writes 16, which take the
    /// eight-at-a-time path of [`Cursor::hex16`]; a shorter field folds
    /// its digits one by one.
    #[inline]
    fn hex(&mut self) -> Option<u64> {
        if let Some(value) = self.hex16() {
            return Some(value);
        }
        let n = self
            .0
            .iter()
            .take_while(|&&b| HEX_VALUE[b as usize] < 16)
            .count();
        if n == 0 {
            return None;
        }
        let (digits, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(
            digits
                .iter()
                .fold(0, |value, &b| value << 4 | HEX_VALUE[b as usize] as u64),
        )
    }

    /// A `0`/`1` flag.
    #[inline]
    fn flag(&mut self) -> Option<bool> {
        let (&b, rest) = self.0.split_first()?;
        let flag = match b {
            b'0' => false,
            b'1' => true,
            _ => return None,
        };
        self.0 = rest;
        Some(flag)
    }

    /// A decimal counter.
    #[inline]
    fn dec(&mut self) -> Option<u64> {
        let rest = self.0.strip_prefix(b"+").unwrap_or(self.0);
        let n = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = rest.split_at(n);
        let digit = |b: &u8| (b - b'0') as u64;
        let value = match n {
            0 => return None,
            // Nineteen digits cannot overflow.
            1..=19 => digits.iter().fold(0, |v, b| v * 10 + digit(b)),
            _ => digits
                .iter()
                .try_fold(0u64, |v, b| v.checked_mul(10)?.checked_add(digit(b)))?,
        };
        self.0 = rest;
        Some(value)
    }

    /// A space, then a hex field.
    #[inline]
    fn then_hex(&mut self) -> Option<u64> {
        self.lit(b" ")?;
        self.hex()
    }

    /// A space, then a counter.
    #[inline]
    fn then_dec(&mut self) -> Option<u64> {
        self.lit(b" ")?;
        self.dec()
    }

    /// A `v1` record, up to the end of its output digest.
    pub(crate) fn v1(&mut self) -> Option<RunResult> {
        self.lit(b"v1 ")?;
        let feasible = self.flag()?;
        self.lit(b" ")?;
        let verified = self.flag()?;
        Some(RunResult {
            feasible,
            verified,
            time: f64::from_bits(self.then_hex()?),
            energy: f64::from_bits(self.then_hex()?),
            flops: f64::from_bits(self.then_hex()?),
            words: f64::from_bits(self.then_hex()?),
            msgs: f64::from_bits(self.then_hex()?),
            mem_used: f64::from_bits(self.then_hex()?),
            retries: self.then_dec()?,
            checkpoint_words: self.then_dec()?,
            resilience_words: self.then_dec()?,
            resilience_msgs: self.then_dec()?,
            output_digest: self.then_hex()?,
        })
    }
}

/// Close a checksummed line: append `" <16 hex digits>\n"`.
pub(crate) fn push_checksum<S: Sink + ?Sized>(out: &mut S, sum: u64) {
    let mut trailer = [b' '; 18];
    trailer[1..17].copy_from_slice(&hex16(sum));
    trailer[17] = b'\n';
    out.put(&trailer);
}

/// Split a (newline-stripped) checksummed line into its body and the
/// checksum it claims; `None` when the 16-digit trailer is missing or
/// malformed. What the checksum must cover is the caller's format.
pub(crate) fn split_checksum(line: &[u8]) -> Option<(&[u8], u64)> {
    let (body, trailer) = line.split_at_checked(line.len().checked_sub(17)?)?;
    let mut cursor = Cursor(trailer);
    cursor.lit(b" ")?;
    Some((body, cursor.hex16()?))
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
        // decimal counters must fit a u64. A field is whole when the
        // cursor stops at its end.
        let whole = |field: &[u8], read: fn(&mut Cursor) -> Option<u64>| {
            let mut cursor = Cursor(field);
            read(&mut cursor).filter(|_| cursor.0.is_empty())
        };
        let parse_hex = |field| whole(field, |cursor| cursor.hex());
        let parse_dec = |field| whole(field, |cursor| cursor.dec());
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
    fn hex_fields_match_the_digit_by_digit_definitions() {
        // Every byte value at every position of a 16-digit field.
        let fold = |digits: &[u8; 16]| {
            digits.iter().try_fold(0u64, |value, &b| {
                let v = HEX_VALUE[b as usize];
                (v < 16).then_some(value << 4 | v as u64)
            })
        };
        for at in 0..16 {
            for b in 0..=255u8 {
                let mut digits = *b"0123456789abcDEF";
                digits[at] = b;
                assert_eq!(hex16_value(&digits), fold(&digits), "{b:#x} at {at}");
            }
        }
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..10_000 {
            state = psse_faults::rng::mix64(state);
            let v = state >> (state % 64);
            assert_eq!(hex16(v), *format!("{v:016x}").as_bytes());
            assert_eq!(hex16_value(&hex16(v)), Some(v));
            let upper: [u8; 16] = format!("{v:016X}").into_bytes().try_into().unwrap();
            assert_eq!(hex16_value(&upper), Some(v));
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
