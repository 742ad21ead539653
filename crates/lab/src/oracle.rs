//! The `v1` line codec as it was before the one-cursor decoder and the
//! stack-buffer encoder: the result line split on spaces, each hex field
//! folded digit by digit, each counter through `str::parse`, the line
//! assembled field by field into a growing `Vec`. Kept as the reference
//! the codec in [`crate::result`] and [`crate::journal`] must agree with —
//! the same bytes out, the same value (or the same refusal) back — and
//! checked against it on seeded mutations of the recorded journals.
//!
//! The code is the old code unchanged, gathered from `result.rs`
//! (`write_line`, `from_line`, `parse_hex`, `parse_dec`,
//! `push_checksum`, `split_checksum`), `key.rs` (`Digest::from_hex`),
//! `journal.rs` (`checked_body`, `parse_run_line`, the line assembly of
//! `record` and the replay loop of `open_resume`) and `cache.rs`
//! (`encode_record`, `decode_record`). `record_checksum` is spelled as
//! its definition, [`line_checksum`] of `"{digest} {line}"`.

use std::io::{BufRead, Read};

use psse_metrics::num::push_u64;

use crate::key::Digest;
use crate::result::{line_checksum, RunResult};

pub(crate) fn write_line(r: &RunResult, out: &mut Vec<u8>) {
    out.extend_from_slice(b"v1 ");
    out.push(b'0' + r.feasible as u8);
    out.push(b' ');
    out.push(b'0' + r.verified as u8);
    for v in [r.time, r.energy, r.flops, r.words, r.msgs, r.mem_used] {
        out.push(b' ');
        out.extend_from_slice(&hex16(v.to_bits()));
    }
    for v in [
        r.retries,
        r.checkpoint_words,
        r.resilience_words,
        r.resilience_msgs,
    ] {
        out.push(b' ');
        push_u64(out, v);
    }
    out.push(b' ');
    out.extend_from_slice(&hex16(r.output_digest));
}

pub(crate) fn from_line(line: impl AsRef<[u8]>) -> Option<RunResult> {
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

fn hex16(v: u64) -> [u8; 16] {
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    buf
}

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

fn parse_dec(digits: &[u8]) -> Option<u64> {
    std::str::from_utf8(digits).ok()?.parse().ok()
}

pub(crate) fn split_checksum(line: &[u8]) -> Option<(&[u8], u64)> {
    let at = line.iter().rposition(|&b| b == b' ')?;
    let sum_hex = &line[at + 1..];
    if sum_hex.len() != 16 {
        return None;
    }
    Some((&line[..at], parse_hex(sum_hex)?))
}

pub(crate) fn digest_from_hex(hex: &[u8]) -> Option<Digest> {
    if hex.len() != 32 {
        return None;
    }
    Some(Digest([parse_hex(&hex[..16])?, parse_hex(&hex[16..])?]))
}

fn checked_body(line: &[u8]) -> Option<&[u8]> {
    let (body, sum) = split_checksum(line)?;
    (sum == line_checksum(body)).then_some(body)
}

pub(crate) fn parse_run_line(line: &[u8]) -> Option<(Digest, RunResult)> {
    let rest = checked_body(line)?.strip_prefix(b"run ")?;
    let (digest, result_line) = rest.split_at_checked(32)?;
    let result = from_line(result_line.strip_prefix(b" ")?)?;
    Some((digest_from_hex(digest)?, result))
}

fn push_checksum(out: &mut Vec<u8>, sum: u64) {
    out.push(b' ');
    out.extend_from_slice(&hex16(sum));
    out.push(b'\n');
}

/// The line `Journal::record` appended for `digest`.
pub(crate) fn run_line(digest: Digest, result: &RunResult) -> Vec<u8> {
    let mut group = Vec::new();
    group.extend_from_slice(b"run ");
    group.extend_from_slice(&digest.hex());
    group.push(b' ');
    write_line(result, &mut group);
    let sum = line_checksum(&group);
    push_checksum(&mut group, sum);
    group
}

fn record_checksum(digest: Digest, line: &[u8]) -> u64 {
    line_checksum([&digest.hex()[..], b" ", line].concat())
}

pub(crate) fn encode_record(digest: Digest, result: &RunResult) -> Vec<u8> {
    let mut record = Vec::with_capacity(224);
    write_line(result, &mut record);
    let sum = record_checksum(digest, &record);
    push_checksum(&mut record, sum);
    record
}

pub(crate) fn decode_record(digest: Digest, record: &[u8]) -> Option<RunResult> {
    let (line, sum) = split_checksum(record.trim_ascii_end())?;
    if sum != record_checksum(digest, line) {
        return None;
    }
    from_line(line)
}

/// The old `open_resume` over a journal's bytes, past a header it
/// accepted: the runs it replayed, in file order, and the length of the
/// intact prefix it kept (the header included).
pub(crate) fn replay(journal: &[u8]) -> (Vec<(Digest, RunResult)>, u64) {
    const MAX_LINE: u64 = 512;
    let mut reader = std::io::BufReader::new(journal);
    let mut line = Vec::new();
    let mut read_line = |line: &mut Vec<u8>| {
        line.clear();
        (&mut reader).take(MAX_LINE).read_until(b'\n', line)
    };
    read_line(&mut line).unwrap();
    let mut valid_bytes = line.len() as u64;
    let mut replayed = Vec::new();
    loop {
        read_line(&mut line).unwrap();
        let [body @ .., b'\n'] = &line[..] else {
            break;
        };
        let Some((digest, result)) = parse_run_line(body) else {
            break;
        };
        replayed.push((digest, result));
        valid_bytes += line.len() as u64;
    }
    (replayed, valid_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache;
    use crate::journal::{self, decode_run_line, Journal};
    use proptest::prelude::*;
    use psse_faults::rng::SplitMix64;

    struct Rng(SplitMix64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            (self.0.next_u64() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }
    }

    /// Every run line (newline stripped) of the recorded journals.
    fn fixture_lines() -> Vec<Vec<u8>> {
        let dir = format!("{}/../../tests/fixtures", env!("CARGO_MANIFEST_DIR"));
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.to_string_lossy().ends_with("_prepr.journal"))
            .collect();
        paths.sort();
        // Each journal's lines after its header.
        let lines: Vec<Vec<u8>> = paths
            .iter()
            .flat_map(|path| {
                let bytes = std::fs::read(path).unwrap();
                let lines: Vec<Vec<u8>> = bytes
                    .split(|&b| b == b'\n')
                    .skip(1)
                    .filter(|line| !line.is_empty())
                    .map(<[u8]>::to_vec)
                    .collect();
                lines
            })
            .collect();
        assert!(lines.len() > 200, "{} fixture run lines", lines.len());
        lines
    }

    /// A result's fields as bits, so NaNs compare by payload.
    fn bits(r: &RunResult) -> [u64; 13] {
        [
            r.feasible as u64,
            r.verified as u64,
            r.time.to_bits(),
            r.energy.to_bits(),
            r.flops.to_bits(),
            r.words.to_bits(),
            r.msgs.to_bits(),
            r.mem_used.to_bits(),
            r.retries,
            r.checkpoint_words,
            r.resilience_words,
            r.resilience_msgs,
            r.output_digest,
        ]
    }

    /// Bytes a single-byte edit puts in: every separator, sign and digit
    /// class the grammar tells apart, and a few it never allows.
    const BYTES: &[u8] = b" \n\t\r+-019afgAFGxv\0\xff";

    /// Counter spellings `u64::from_str` accepts or refuses for a reason.
    const COUNTERS: &[&str] = &[
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "00000000000000000000000000000000000000001",
        "+",
        "++1",
        "+-1",
        "-0",
        "-1",
        "",
        "0x1",
        "1_0",
        "٣",
    ];

    /// Field indices of a run line split on spaces: `run`, the digest,
    /// `v1`, two flags, six floats, four counters, the output digest.
    const HEX_FIELDS: [usize; 7] = [5, 6, 7, 8, 9, 10, 15];
    const COUNTER_FIELDS: [usize; 4] = [11, 12, 13, 14];

    /// One edit of a run line's body, given as its fields. An edit
    /// aimed at a field an earlier edit removed does nothing.
    fn mutate_fields(fields: &mut Vec<Vec<u8>>, rng: &mut Rng) {
        let field = |rng: &mut Rng, of: &[usize]| of[rng.below(of.len())];
        if fields.len() < 16 {
            return mutate_fields_anywhere(fields, rng);
        }
        match rng.below(8) {
            // A hex field of 1 to 15 digits: its low digits, or its
            // value without leading zeros.
            0 => {
                let i = field(rng, &HEX_FIELDS);
                let keep = 1 + rng.below(fields[i].len().clamp(2, 16) - 1);
                let at = fields[i].len().saturating_sub(keep);
                fields[i].drain(..at);
                if rng.one_in(2) {
                    while fields[i].len() > 1 && fields[i][0] == b'0' {
                        fields[i].remove(0);
                    }
                }
            }
            // Upper case: one hex field, or a digest half.
            1 => {
                let i = if rng.one_in(3) {
                    1
                } else {
                    field(rng, &HEX_FIELDS)
                };
                let (from, to) = if rng.one_in(2) {
                    (0, fields[i].len())
                } else {
                    (fields[i].len() / 2, fields[i].len())
                };
                fields[i][from..to].make_ascii_uppercase();
            }
            // A counter with a `+`, leading zeros, 20 digits, or a
            // spelling from the table.
            2 => {
                let i = field(rng, &COUNTER_FIELDS);
                fields[i] = match rng.below(5) {
                    0 => [b"+", &fields[i][..]].concat(),
                    1 => [vec![b'0'; 1 + rng.below(30)], fields[i].clone()].concat(),
                    2 => (10_000_000_000_000_000_000
                        + rng.0.next_u64() % 8_446_744_073_709_551_615)
                        .to_string()
                        .into_bytes(),
                    3 => rng.0.next_u64().to_string().into_bytes(),
                    _ => COUNTERS[rng.below(COUNTERS.len())].as_bytes().to_vec(),
                };
            }
            3 | 4 | 6 => mutate_fields_anywhere(fields, rng),
            // A flag out of range.
            5 => {
                let i = 3 + rng.below(2);
                fields[i] = [&b"2"[..], b"01", b"", b"+1", b"10"][rng.below(5)].to_vec();
            }
            // The digest one digit short or long.
            _ => {
                if rng.one_in(2) {
                    fields[1].pop();
                } else {
                    fields[1].push(b'0');
                }
            }
        }
    }

    /// The edits that need no particular field.
    fn mutate_fields_anywhere(fields: &mut Vec<Vec<u8>>, rng: &mut Rng) {
        match rng.below(3) {
            // An extra space: an empty field anywhere, leading or
            // trailing included.
            0 => {
                let at = rng.below(fields.len() + 1);
                fields.insert(at, Vec::new());
            }
            // A missing space: two fields run together.
            1 if fields.len() > 1 => {
                let at = 1 + rng.below(fields.len() - 1);
                let joined = fields.remove(at);
                fields[at - 1].extend(joined);
            }
            // A field dropped, or one too many.
            _ => {
                if rng.one_in(2) && fields.len() > 1 {
                    fields.remove(rng.below(fields.len()));
                } else {
                    let copy = fields[rng.below(fields.len())].clone();
                    fields.insert(rng.below(fields.len() + 1), copy);
                }
            }
        }
    }

    /// One edit of raw bytes: a byte flipped, inserted or deleted, or
    /// the bytes cut short.
    fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut Rng) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.below(bytes.len());
        let byte = if rng.one_in(4) {
            rng.0.next_u64() as u8
        } else {
            BYTES[rng.below(BYTES.len())]
        };
        match rng.below(4) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes[at] = byte,
            2 => bytes.insert(at, byte),
            _ => bytes.truncate(at),
        }
    }

    /// A mutant of a fixture run line (newline stripped): 1 to 3 edits
    /// of its body, which then mostly gets its checksum recomputed (in
    /// either case), so the decoder is exercised past the checksum.
    fn mutant(lines: &[Vec<u8>], rng: &mut Rng) -> Vec<u8> {
        let line = &lines[rng.below(lines.len())];
        let mut fields: Vec<Vec<u8>> = line.split(|&b| b == b' ').map(<[u8]>::to_vec).collect();
        let trailer = fields.pop().unwrap();
        for _ in 0..1 + rng.below(3) {
            if rng.one_in(4) {
                let mut body = fields.join(&b' ');
                mutate_bytes(&mut body, rng);
                fields = body.split(|&b| b == b' ').map(<[u8]>::to_vec).collect();
            } else {
                mutate_fields(&mut fields, rng);
            }
        }
        let body = fields.join(&b' ');
        let mut trailer = match rng.below(8) {
            0 => trailer,
            _ => hex16(line_checksum(&body)).to_vec(),
        };
        if rng.one_in(8) {
            trailer.make_ascii_uppercase();
        }
        let mut line = [&body[..], b" ", &trailer[..]].concat();
        if rng.one_in(10) {
            mutate_bytes(&mut line, rng);
        }
        line
    }

    /// The old reading of the window's first line: up to its newline,
    /// at most 512 bytes, then the old parser.
    fn old_decode(window: &[u8]) -> Option<(Digest, [u64; 13], usize)> {
        let end = window.iter().position(|&b| b == b'\n')?;
        let (digest, result) = parse_run_line(&window[..end])?;
        Some((digest, bits(&result), end + 1))
    }

    /// Decode `cases` mutants with the codec and the reference — as a
    /// journal line in a read window, as a `v1` line, as a digest, as a
    /// checksummed line and as a `.rec` record — and panic on the first
    /// disagreement.
    fn differential(seed: u64, cases: usize) {
        let lines = fixture_lines();
        let mut rng = Rng(SplitMix64::new(seed));
        let mut accepted = 0;
        for case in 0..cases {
            let line = mutant(&lines, &mut rng);
            let shown = || {
                format!(
                    "case {case} of seed {seed}: {:?}",
                    String::from_utf8_lossy(&line)
                )
            };
            // The window `open_resume` decodes in: the line, its newline
            // (unless the file ends first) and the start of the next.
            let mut window = line.clone();
            if !rng.one_in(16) {
                window.push(b'\n');
                window.extend_from_slice(&lines[rng.below(lines.len())]);
            }
            window.truncate(512);
            let want = old_decode(&window);
            // The length the decoder is told to try first: right,
            // wrong, or nonsense, it must not change the answer.
            let hint = match rng.below(4) {
                0 => line.len() + 1,
                1 => lines[rng.below(lines.len())].len() + 1,
                2 => rng.below(window.len() + 2),
                _ => 0,
            };
            let got = decode_run_line(&window, hint).map(|(d, r, len)| (d, bits(&r), len));
            assert_eq!(got, want, "{}", shown());
            accepted += got.is_some() as usize;

            let v1 = line.get(37..).unwrap_or(&line);
            let v1 = v1.get(..v1.len().saturating_sub(17)).unwrap_or(v1);
            assert_eq!(
                RunResult::from_line(v1).map(|r| bits(&r)),
                from_line(v1).map(|r| bits(&r)),
                "{}",
                shown()
            );
            let hex = line.get(4..36).unwrap_or(&line);
            assert_eq!(Digest::from_hex(hex), digest_from_hex(hex), "{}", shown());
            assert_eq!(
                crate::result::split_checksum(&line),
                split_checksum(&line),
                "{}",
                shown()
            );
            let digest = Digest([case as u64, seed]);
            let mut record = v1.to_vec();
            push_checksum(&mut record, record_checksum(digest, v1));
            if rng.one_in(4) {
                mutate_bytes(&mut record, &mut rng);
            }
            assert_eq!(
                cache::decode_record(digest, &record).map(|r| bits(&r)),
                decode_record(digest, &record).map(|r| bits(&r)),
                "{}",
                shown()
            );
        }
        // Both outcomes are exercised, not just one.
        assert!(
            cases / 20 < accepted && accepted < cases - cases / 20,
            "{accepted} of {cases} mutants decode"
        );
    }

    /// Replay `cases` journals — intact fixture lines, then (mostly) a
    /// mutant and more lines after it — with `Journal::open_resume` and
    /// with the old replay loop: the same runs, the same intact prefix.
    /// Journals of up to 600 lines span several 64 KiB buffer fills, so
    /// lines that straddle two fills are read too.
    fn replay_differential(seed: u64, cases: usize) {
        let lines = fixture_lines();
        let mut rng = Rng(SplitMix64::new(seed));
        let path = std::env::temp_dir().join(format!(
            "psse-lab-oracle-{seed}-{}.journal",
            std::process::id()
        ));
        let spec = "0123456789abcdef0123456789abcdef";
        let header = {
            let body = format!("psse-lab-journal v1 {spec}");
            format!("{body} {:016x}\n", line_checksum(&body)).into_bytes()
        };
        for case in 0..cases {
            let mut bytes = header.clone();
            let n = rng.below(600);
            let bad = rng.below(n + 1);
            for i in 0..n {
                let line = if i == bad && !rng.one_in(4) {
                    mutant(&lines, &mut rng)
                } else {
                    lines[rng.below(lines.len())].clone()
                };
                bytes.extend_from_slice(&line);
                bytes.push(b'\n');
            }
            if rng.one_in(4) {
                // A torn tail.
                let cut = bytes.len() - rng.below(300.min(bytes.len() - header.len()) + 1);
                bytes.truncate(cut);
            }
            std::fs::write(&path, &bytes).unwrap();
            let (want, kept) = replay(&bytes);
            let (journal, got) = Journal::open_resume(&path, spec).unwrap();
            drop(journal);
            let mut want_map = std::collections::BTreeMap::new();
            for (digest, result) in &want {
                want_map.insert(*digest, bits(result));
            }
            let got_map: std::collections::BTreeMap<_, _> = got
                .iter()
                .map(|(digest, result)| (*digest, bits(result)))
                .collect();
            assert_eq!(got_map, want_map, "case {case} of seed {seed}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes[..kept as usize],
                "case {case} of seed {seed}: intact prefix"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_codec_agrees_with_the_reference_on_mutated_journal_lines() {
        differential(1, 20_000);
        replay_differential(1, 100);
    }

    /// A million mutants and two thousand journals; run in release
    /// (`cargo test --release -p psse-lab -- --ignored`).
    #[test]
    #[ignore]
    fn the_codec_agrees_with_the_reference_on_a_million_mutants() {
        differential(2, 1_000_000);
        replay_differential(2, 2_000);
    }

    #[test]
    fn the_fixture_journals_replay_the_same() {
        for line in fixture_lines() {
            let mut window = line.clone();
            window.push(b'\n');
            let (digest, result, len) = decode_run_line(&window, 0).expect("fixture line decodes");
            assert_eq!(len, window.len());
            let (old_digest, old_result) = parse_run_line(&line).unwrap();
            assert_eq!((digest, bits(&result)), (old_digest, bits(&old_result)));
            // And the encoder writes the line back byte for byte.
            assert_eq!(journal::run_line(digest, &result).as_bytes(), &window[..]);
        }
    }

    /// A result from raw words, each field either its word or one of
    /// the encodings most likely to trip a codec, as `picks` selects.
    fn result_from(words: &[u64], picks: u64) -> RunResult {
        const EDGES: [u64; 12] = [
            u64::MAX,              // all ones: a counter's maximum, a NaN
            0x8000_0000_0000_0000, // -0.0
            0x7ff8_0000_0000_0001, // quiet NaN, payload 1
            0xfff4_0000_dead_beef, // signalling NaN, sign set
            1,                     // the least subnormal
            0x000f_ffff_ffff_ffff, // the greatest subnormal
            0,
            9_999_999_999_999_999_999, // the last 19-digit counter
            10_000_000_000_000_000_000,
            9,
            10,
            0x7ff0_0000_0000_0000, // infinity
        ];
        let field = |i: usize| match (picks >> (4 * i)) as usize & 0xf {
            pick @ 4.. => EDGES[pick - 4],
            _ => words[i],
        };
        RunResult {
            feasible: words[13] & 1 == 1,
            verified: words[13] & 2 == 2,
            time: f64::from_bits(field(0)),
            energy: f64::from_bits(field(1)),
            flops: f64::from_bits(field(2)),
            words: f64::from_bits(field(3)),
            msgs: f64::from_bits(field(4)),
            mem_used: f64::from_bits(field(5)),
            retries: field(6),
            checkpoint_words: field(7),
            resilience_words: field(8),
            resilience_msgs: field(9),
            output_digest: field(10),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The stack-buffer encoder writes the reference's bytes — `v1`
        /// line, journal run line, `.rec` record — for any bit patterns,
        /// and both decoders read every bit back.
        #[test]
        fn the_encoder_writes_the_reference_bytes(
            words in prop::collection::vec(any::<u64>(), 14..15),
            picks in any::<u64>(),
            digest in (any::<u64>(), any::<u64>()),
        ) {
            let r = result_from(&words, picks);
            let digest = Digest([digest.0, digest.1]);
            let (mut new, mut old) = (b"prefix ".to_vec(), b"prefix ".to_vec());
            r.write_line(&mut new);
            write_line(&r, &mut old);
            prop_assert_eq!(&new, &old);
            prop_assert_eq!(
                RunResult::from_line(&new[7..]).map(|r| bits(&r)),
                Some(bits(&r))
            );
            let line = run_line(digest, &r);
            let encoded = journal::run_line(digest, &r);
            prop_assert_eq!(encoded.as_bytes(), &line[..]);
            prop_assert_eq!(
                decode_run_line(&line, line.len()).map(|(d, r, len)| (d, bits(&r), len)),
                Some((digest, bits(&r), line.len()))
            );
            let record = encode_record(digest, &r);
            prop_assert_eq!(&cache::encode_record(digest, &r), &record);
            prop_assert_eq!(
                cache::decode_record(digest, &record).map(|r| bits(&r)),
                Some(bits(&r))
            );
            prop_assert_eq!(Digest::from_hex(&digest.hex()), Some(digest));
        }
    }
}
