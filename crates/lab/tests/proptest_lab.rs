//! Property-based tests: the fast Pareto extractor against the naive
//! O(n²) dominance reference (and permutation invariance), RunKey
//! digest injectivity over generated grids, the self-profile's JSON
//! round-trip, and the allocation-free line codecs / streaming digests
//! against the `format!`-and-word-vector definitions of the formats
//! (kept here as reference oracles).

use proptest::prelude::*;
use psse_core::machines::jaketown;
use psse_faults::rng::{hash_key, SplitMix64};
use psse_lab::cache::ResultCache;
use psse_lab::prelude::*;
use psse_lab::selfprof::WorkerSpan;
use psse_metrics::{Json, Registry};

/// Quantized coordinates: small integer lattices force plenty of exact
/// ties and duplicates, the hard cases for dominance logic.
fn to_points(raw: &[(u64, u64)]) -> Vec<(f64, f64)> {
    raw.iter()
        .map(|&(t, e)| (t as f64 / 4.0, e as f64 / 4.0))
        .collect()
}

/// Deterministic Fisher-Yates driven by the workspace splitmix64.
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Multiset of surviving points (bit-exact), independent of indices.
fn frontier_points(pts: &[(f64, f64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pareto_indices(pts)
        .into_iter()
        .map(|i| (pts[i].0.to_bits(), pts[i].1.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Reference oracle: the `v1` result line as the format defines it.
fn v1_line_oracle(r: &RunResult) -> String {
    format!(
        "v1 {} {} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {} {} {} {:016x}",
        r.feasible as u8,
        r.verified as u8,
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
    )
}

/// Reference oracle: the line checksum over a materialised word vector
/// (length, then zero-padded little-endian 8-byte chunks).
fn line_checksum_oracle(bytes: &[u8]) -> u64 {
    let mut words = vec![bytes.len() as u64];
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(w));
    }
    hash_key(0x7265_6331_6373_756d, &words)
}

/// Reference oracle: a line followed by the checksum of its body.
fn checksummed(body: &str) -> String {
    format!("{body} {:016x}\n", line_checksum_oracle(body.as_bytes()))
}

/// Reference oracle: one journal run line.
fn run_line_oracle(digest: &str, r: &RunResult) -> String {
    checksummed(&format!("run {digest} {}", v1_line_oracle(r)))
}

/// Reference oracle: a `.rec` file, checksummed over `"{digest} {line}"`.
fn record_oracle(digest: &str, r: &RunResult) -> String {
    let line = v1_line_oracle(r);
    let sum = line_checksum_oracle(format!("{digest} {line}").as_bytes());
    format!("{line} {sum:016x}\n")
}

/// Reference oracle: the spec digest over the joined digest string.
fn spec_digest_oracle(keys: &[RunKey]) -> String {
    let joined = keys
        .iter()
        .map(|k| k.digest())
        .collect::<Vec<_>>()
        .join(" ");
    let hi = line_checksum_oracle(format!("spec-hi {joined}").as_bytes());
    let lo = line_checksum_oracle(format!("spec-lo {joined}").as_bytes());
    format!("{hi:016x}{lo:016x}")
}

/// A result built from raw words, with the fields `edges` selects
/// replaced by the encodings most likely to trip a codec: all-ones
/// (`u64::MAX` counters, a NaN with a full payload), `-0.0`, a
/// signalling-NaN pattern, zero.
fn result_from_words(w: &[u64], edges: u64) -> RunResult {
    const EDGES: [u64; 4] = [
        u64::MAX,
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0001, // NaN, payload 1
        0,
    ];
    let field = |i: usize| {
        if edges >> i & 1 == 1 {
            EDGES[(edges >> (16 + 2 * i)) as usize & 3]
        } else {
            w[i]
        }
    };
    RunResult {
        feasible: w[11] & 1 == 1,
        verified: w[11] & 2 == 2,
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The buffer encoders emit exactly the bytes the formats define —
    /// `v1` line, journal run line, `.rec` record — and decoding them
    /// restores every bit (NaN payloads and `-0.0` included).
    #[test]
    fn codecs_emit_the_defined_bytes_and_round_trip_bit_exactly(
        words in prop::collection::vec(any::<u64>(), 12..13),
        edges in any::<u64>(),
        digest in (any::<u64>(), any::<u64>()),
    ) {
        let r = result_from_words(&words, edges);
        let digest = Digest([digest.0, digest.1]);
        let hex = digest.to_string();
        prop_assert_eq!(&hex, &format!("{:016x}{:016x}", digest.0[0], digest.0[1]));
        prop_assert_eq!(Digest::from_hex(hex.as_bytes()), Some(digest));

        let line = v1_line_oracle(&r);
        let mut buf = b"prefix ".to_vec();
        r.write_line(&mut buf);
        prop_assert_eq!(&buf[7..], line.as_bytes(), "write_line appends");
        let back = RunResult::from_line(&line).expect("own line parses");
        prop_assert_eq!(&v1_line_oracle(&back), &line, "bit-exact round trip");

        // Through the real files: a journal and a `.rec` cache.
        let dir = std::env::temp_dir().join(format!(
            "psse-lab-codec-{}-{hex}",
            std::process::id(),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("codec.journal");
        let journal = Journal::create(&jpath, "feedface").unwrap();
        journal.record(&digest, &r);
        journal.record(&hex, &r); // same run, spelled as text: not appended twice
        prop_assert_eq!(journal.appended(), 1);
        drop(journal);
        prop_assert_eq!(
            std::fs::read_to_string(&jpath).unwrap(),
            checksummed("psse-lab-journal v1 feedface") + &run_line_oracle(&hex, &r)
        );
        let (_, replayed) = Journal::open_resume(&jpath, "feedface").unwrap();
        prop_assert_eq!(replayed.len(), 1);
        prop_assert_eq!(&v1_line_oracle(&replayed[&digest]), &line);

        let cache = ResultCache::new(4, Some(dir.clone()));
        cache.put(&digest, r).unwrap();
        prop_assert_eq!(
            std::fs::read_to_string(dir.join(format!("{hex}.rec"))).unwrap(),
            record_oracle(&hex, &r)
        );
        let reread = ResultCache::new(4, Some(dir.clone())).get(&hex).expect("disk hit");
        prop_assert_eq!(&v1_line_oracle(&reread), &line);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The streaming checksum equals the word-vector definition for
    /// every tail length, and does not depend on how the line is cut.
    #[test]
    fn streaming_checksum_matches_the_word_vector_definition(
        bytes in prop::collection::vec(any::<u8>(), 0..65),
    ) {
        prop_assert_eq!(line_checksum(&bytes), line_checksum_oracle(&bytes));
    }

    /// The streamed spec digest equals the joined-string definition, from
    /// a key list and from the digests an `ExpandedSweep` already holds.
    #[test]
    fn streaming_spec_digest_matches_the_joined_string_definition(
        points in prop::collection::vec((2u64..5000, 1u64..300, 0u64..4), 0..12),
    ) {
        let algs = ["nbody", "matmul", "lu", "cholesky"];
        let keys: Vec<RunKey> = points
            .iter()
            .map(|&(n, p, a)| RunKey::model(algs[a as usize], n, p, jaketown()))
            .collect();
        let expect = spec_digest_oracle(&keys);
        prop_assert_eq!(&spec_digest(&keys), &expect);
        prop_assert_eq!(ExpandedSweep::new(keys).spec_digest(), expect);
    }

    /// The O(n log n) extractor agrees with the O(n²) reference.
    #[test]
    fn pareto_matches_naive_reference(raw in prop::collection::vec((0u64..32, 0u64..32), 0..80)) {
        let pts = to_points(&raw);
        prop_assert_eq!(pareto_indices(&pts), pareto_indices_naive(&pts));
    }

    /// The frontier (as a multiset of points) is invariant under any
    /// permutation of the input.
    #[test]
    fn pareto_is_permutation_invariant(
        raw in prop::collection::vec((0u64..32, 0u64..32), 1..60),
        seed in 0u64..10_000,
    ) {
        let pts = to_points(&raw);
        let perm = shuffled(&pts, seed);
        prop_assert_eq!(frontier_points(&pts), frontier_points(&perm));
    }

    /// Digests are injective across a generated (alg, n, p, c, mem, kind)
    /// grid: every distinct key gets a distinct digest.
    #[test]
    fn digests_are_injective_across_a_grid(
        nn in 1usize..4, np in 1usize..5, nm in 1usize..4, base in 1u64..64,
    ) {
        let machine = jaketown();
        let mut keys = Vec::new();
        for alg in ["nbody", "matmul", "lu"] {
            for ni in 0..nn {
                for pi in 0..np {
                    for mi in 0..nm {
                        for kind in [RunKind::Model, RunKind::Simulate] {
                            let mut k = RunKey::model(
                                alg,
                                base + 100 * ni as u64,
                                1 + pi as u64,
                                machine.clone(),
                            );
                            k.kind = kind;
                            k.mem = mi as f64 * 128.0;
                            keys.push(k);
                        }
                    }
                }
            }
        }
        let digests: std::collections::HashSet<String> =
            keys.iter().map(|k| k.digest()).collect();
        prop_assert_eq!(digests.len(), keys.len(), "digest collision in grid");
    }

    /// Digest stability: the digest is a pure function of the key, so
    /// re-digesting (even after a round trip through clone) never drifts
    /// within or across processes. (The cross-process pin lives in the
    /// crate's unit tests with a hardcoded value.)
    #[test]
    fn digest_is_reproducible(n in 2u64..10_000, p in 1u64..512, mem in 0u64..100_000) {
        let mut k = RunKey::model("cholesky", n, p, jaketown());
        k.mem = mem as f64;
        let d1 = k.digest();
        let d2 = k.clone().digest();
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(d1.len(), 32);
        prop_assert!(d1.chars().all(|c| c.is_ascii_hexdigit()));
    }

    /// The self-profile survives JSON emit → parse exactly, for any
    /// shape of run list, worker table, cache counters and attached
    /// metric series.
    #[test]
    fn sweep_profile_round_trips_through_json(
        jobs in 1u64..17,
        wall in any::<u64>(),
        runs_raw in prop::collection::vec((any::<u64>(), any::<bool>(), any::<bool>()), 0..12),
        workers_raw in prop::collection::vec((any::<u64>(), 0u64..1000), 0..8),
        cache_raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        metric_vals in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("virt.time_ns").unwrap();
        for &v in &metric_vals {
            h.record(v);
        }
        reg.counter("virt.retries").unwrap().add(metric_vals.len() as u64);
        let profile = SweepProfile {
            jobs: jobs as usize,
            wall_ns: wall,
            runs: runs_raw
                .iter()
                .enumerate()
                .map(|(i, &(wall_ns, cached, ok))| RunProfile {
                    label: format!("model nbody n={i} p=4"),
                    digest: format!("{i:032x}"),
                    wall_ns,
                    cached,
                    ok,
                })
                .collect(),
            workers: workers_raw
                .iter()
                .map(|&(busy_ns, items)| WorkerSpan { busy_ns, items })
                .collect(),
            cache: CacheStats {
                hits: cache_raw.0,
                misses: cache_raw.1,
                evictions: cache_raw.2,
                corrupt: cache_raw.3,
                quarantined: cache_raw.4,
            },
            metrics: reg.snapshot().to_json(),
        };
        let text = profile.to_json().to_string();
        let back = SweepProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &profile);
        // Emission is canonical: re-serializing reproduces the bytes.
        prop_assert_eq!(back.to_json().to_string(), text);
    }

    /// Kill-resume identity: truncate the journal at *any* byte offset
    /// — mid-header, mid-line, between lines — then resume, and the
    /// final results and CSV bytes must match an uninterrupted sweep,
    /// for any worker count.
    #[test]
    fn journal_resume_is_identical_for_any_cut(cut in 0.0f64..1.0, jobs in 1usize..5) {
        let spec = SweepSpec::parse(
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:8\nmem = 2000\nf = 10\n",
        )
        .unwrap();
        let keys = spec.expand();
        let sd = spec_digest(&keys);
        let path = std::env::temp_dir().join(format!(
            "psse-lab-cutpt-{}-{}-{:016x}",
            std::process::id(),
            jobs,
            cut.to_bits(),
        ));
        let _ = std::fs::remove_file(&path);

        let cfg = || LabConfig { jobs, ..LabConfig::default() };
        let reference = Lab::new(cfg()).run_spec(&spec);
        let ref_csv = sweep_csv(&reference.keys, &reference.results);

        // Journal a full sweep, then "kill" it at an arbitrary byte.
        let mut lab = Lab::new(cfg());
        lab.set_journal(Journal::create(&path, &sd).unwrap());
        let first = lab.run_spec(&spec);
        prop_assert_eq!(&first.results, &reference.results);
        drop(lab);
        let bytes = std::fs::read(&path).unwrap();
        let cut_at = ((bytes.len() as f64) * cut) as usize;
        std::fs::write(&path, &bytes[..cut_at.min(bytes.len())]).unwrap();

        // Resume: torn tails are truncated, torn headers start fresh.
        let (journal, replayed) = Journal::open_resume(&path, &sd).unwrap();
        let mut lab2 = Lab::new(cfg());
        lab2.seed(&replayed);
        lab2.set_journal(journal);
        let resumed = lab2.run_spec(&spec);
        prop_assert_eq!(&resumed.results, &reference.results);
        let resumed_csv = sweep_csv(&resumed.keys, &resumed.results);
        prop_assert_eq!(resumed_csv, ref_csv);

        // The journal is whole again: a second resume replays every
        // distinct key without re-running anything.
        let distinct: std::collections::HashSet<String> =
            keys.iter().map(|k| k.digest()).collect();
        let (_, replayed2) = Journal::open_resume(&path, &sd).unwrap();
        prop_assert_eq!(replayed2.len(), distinct.len());
        let _ = std::fs::remove_file(&path);
    }
}
