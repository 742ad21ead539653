//! The committed `tests/fixtures/*_prepr.trace` recordings, reproduced
//! byte for byte by `psse trace record` from inside `cargo test`, and
//! what the analysis commands print for them. Each was recorded before a
//! rewrite of the code it exercises (the 2.5D multiply before the
//! zero-copy transport; the other four before the collectives became
//! phase descriptions), so a mismatch is a change in what the run did,
//! not in how the trace is written.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn recordings_reproduce_their_fixtures() {
    let dir = std::env::temp_dir().join(format!("psse-trace-fixtures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&str, &[&str]); 5] = [
        (
            "mm25d_p32",
            &["--alg", "mm25d", "--n", "64", "--p", "32", "--c", "2"],
        ),
        ("lu_p16", &["--alg", "lu", "--n", "64", "--p", "16"]),
        (
            "nbody_p16",
            &["--alg", "nbody", "--n", "64", "--p", "16", "--c", "4"],
        ),
        (
            "samplesort_p16",
            &["--alg", "samplesort", "--n", "256", "--p", "16"],
        ),
        ("fft_p16", &["--alg", "fft", "--n", "256", "--p", "16"]),
    ];
    let mut bad = Vec::new();
    for (name, flags) in cases {
        let out = dir.join(format!("{name}.trace"));
        let mut argv: Vec<String> = ["trace", "record"].map(String::from).to_vec();
        argv.extend(flags.iter().map(|s| s.to_string()));
        argv.extend(["--out".to_string(), out.display().to_string()]);
        let mut report = String::new();
        psse_cli::run(&argv, &mut report).unwrap_or_else(|e| panic!("{name}: {e}"));
        let fixture = repo_root().join(format!("tests/fixtures/{name}_prepr.trace"));
        if std::fs::read(&out).unwrap() != std::fs::read(&fixture).unwrap() {
            bad.push(format!("{name}: `psse trace record {}`", flags.join(" ")));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        bad.is_empty(),
        "recordings differ from tests/fixtures:\n{}",
        bad.join("\n")
    );
}

/// FNV-1a, 64-bit: a digest that is the same on every host and build.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Chrome export of the 2.5D fixture, pinned by digest before the
/// number writer replaced `core::fmt` in the exporter, and the text
/// form of the parsed fixture, which must be the file itself.
#[test]
fn chrome_export_and_text_of_a_fixture_are_pinned() {
    let path = repo_root().join("tests/fixtures/mm25d_p32_prepr.trace");
    let trace = psse_trace::Trace::load(&path).unwrap();
    assert!(trace.to_text().into_bytes() == std::fs::read(&path).unwrap());
    let json = trace.to_chrome_json();
    assert_eq!(
        fnv(json.as_bytes()),
        0xdaaf_ffb4_43eb_8912,
        "Chrome JSON digest moved: {:#018x} ({} bytes)",
        fnv(json.as_bytes()),
        json.len()
    );
}

/// Run `psse` in process and return its stdout.
fn psse(argv: &str) -> String {
    let argv: Vec<String> = argv.split(' ').map(String::from).collect();
    let mut out = String::new();
    psse_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("psse {}: {e}", argv.join(" ")));
    out
}

/// What each analysis command prints for each fixture, at the recorded
/// prices and with `--beta-t 1e-8`, pinned by digest before the trace
/// parser, the send matcher and the flame fold were rewritten. The
/// columns are `trace replay` stdout, the replayed profile (every
/// counter and clock, as `{:?}` prints them), `trace critical-path
/// --top 5` stdout at the recorded prices and the report's `{:?}` at
/// `beta_t = 1e-8` (the command takes no price flags), and the `trace
/// flame` fold.
#[test]
fn analysis_outputs_of_the_fixtures_are_pinned() {
    #[rustfmt::skip]
    let pins: [(&str, [[u64; 4]; 2]); 5] = [
        ("mm25d_p32", [[0x7c49bae229f59aad, 0xd09e5290c1cef9f9, 0x53e3eee62106e973, 0x69f094488eda2966],
                       [0x8ea48f850ebfaa09, 0x9cdd384c1e471d44, 0x909a2605d1764fa1, 0x03d32224f5835832]]),
        ("lu_p16", [[0xad23fab8ca903a6b, 0xed68521756aeeb11, 0x7e1b42c5ebfa3750, 0x269892321eb178cd],
                    [0x59ce7c7c0170700d, 0x1461150c30a060cb, 0x94b70e68be1e033d, 0xc03359a9f88f1024]]),
        ("nbody_p16", [[0xa7ca00951c590926, 0xc99236b4d10c1f71, 0xc9374b83687cb511, 0xdefb5864be3893b9],
                       [0x4e1b599b048df475, 0xe0cb261c26a00698, 0x5c959680d31da719, 0x521d28232a06b98f]]),
        ("samplesort_p16", [[0x2a75ce9d34c3ecb8, 0x1f10999402075bcc, 0x18a227e21efb5146, 0x9472ff91e4a1a0b2],
                            [0x41486807c9b9b993, 0x3c66912f418f73a5, 0x7f9b246a2211cfd4, 0xca61b1ddaa9d1721]]),
        ("fft_p16", [[0x404a1cf4f937f659, 0x88ad19cdde573030, 0xbc02968d0717e8eb, 0x3ad8842bc7ab4a3f],
                     [0x496a2428a49c3587, 0xfea5bc75b2e5839b, 0x274a159c0b6c585b, 0x0b56d139cf6035c7]]),
    ];
    let mut bad = Vec::new();
    for (name, want) in pins {
        let path = repo_root().join(format!("tests/fixtures/{name}_prepr.trace"));
        let p = path.display();
        let trace = psse_trace::Trace::load(&path).unwrap();
        for (k, beta) in ["", " --beta-t 1e-8"].into_iter().enumerate() {
            let params = psse_trace::ReplayParams {
                beta_t: if beta.is_empty() {
                    trace.params.beta_t
                } else {
                    1e-8
                },
                ..trace.params.clone()
            };
            let critical = if beta.is_empty() {
                psse(&format!("trace critical-path --in {p} --top 5"))
            } else {
                format!("{:?}", trace.critical_path(&params).unwrap())
            };
            let got = [
                fnv(psse(&format!("trace replay --in {p}{beta}")).as_bytes()),
                fnv(format!("{:?}", trace.replay(&params).unwrap()).as_bytes()),
                fnv(critical.as_bytes()),
                fnv(psse(&format!("trace flame --in {p}{beta}")).as_bytes()),
            ];
            if got != want[k] {
                let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
                bad.push(format!("{name}{beta}: [{}]", hex.join(", ")));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "analysis digests moved:\n{}",
        bad.join("\n")
    );
}

/// The 2.5D fixture's fold is `tests/fixtures/mm25d_p32_prepr.folded`,
/// written before the fold was rewritten.
#[test]
fn flame_fold_of_the_2_5d_fixture_is_its_fixture() {
    let root = repo_root();
    let trace = root.join("tests/fixtures/mm25d_p32_prepr.trace");
    let folded = psse(&format!("trace flame --in {}", trace.display()));
    let fixture = std::fs::read(root.join("tests/fixtures/mm25d_p32_prepr.folded")).unwrap();
    assert!(
        folded.into_bytes() == fixture,
        "fold differs from its fixture"
    );
}

/// Parse `text`, then self-replay it: the error's Display, or `ok:` and
/// the trace's own text with `|` for each newline.
fn outcome(text: &str) -> String {
    match psse_trace::Trace::from_text(text) {
        Err(e) => e.to_string(),
        Ok(t) => match t.replay(&t.params) {
            Err(e) => e.to_string(),
            Ok(_) => format!("ok: {}", t.to_text().replace('\n', "|")),
        },
    }
}

/// Every refusal of a hand-written trace, by its exact message, and the
/// whitespace every accepted one may use. Pinned before the parser was
/// rewritten; a message or a line number that moved is a regression.
#[test]
fn trace_refusals_are_pinned() {
    const HEAD: &str = "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 16\n";
    // One rank with one event.
    let one = |ev: &str| format!("{HEAD}rank 0 1\n{ev}\n");
    let mut bad = Vec::new();
    let mut check = |text: String, want: &str| {
        let got = outcome(&text);
        if got != want {
            bad.push(format!("{text:?}\n  want {want:?}\n  got  {got:?}"));
        }
    };
    // Too few and too many fields, for every event kind.
    for (ev, want) in [
        ("C 0.0 1.0", "event \"C\" takes 3 fields, got 2"),
        ("C 0.0 1.0 5 6", "event \"C\" takes 3 fields, got 4"),
        (
            "C 0 1 2 3 4 5 6 7 8 9",
            "event \"C\" takes 3 fields, got 10",
        ),
        ("S 0.0 1.0 0 7", "event \"S\" takes 5 fields, got 4"),
        ("S 0.0 1.0 0 7 100 1", "event \"S\" takes 5 fields, got 6"),
        ("R 0.0 1.0 0 7 100", "event \"R\" takes 6 fields, got 5"),
        ("R 0.0 1.0 0 7 100 1 2", "event \"R\" takes 6 fields, got 7"),
        ("A 0.0 1.0", "event \"A\" takes 3 fields, got 2"),
        ("A 0.0 1.0 8 8", "event \"A\" takes 3 fields, got 4"),
        ("F", "event \"F\" takes 3 fields, got 0"),
        ("F 0.0 1.0 8 8", "event \"F\" takes 3 fields, got 4"),
        ("B 0.0", "event \"B\" takes 2 fields, got 1"),
        ("B 0.0 all reduce", "event \"B\" takes 2 fields, got 3"),
        ("E", "event \"E\" takes 2 fields, got 0"),
        (
            "E 0.0 a b c d e f g h i",
            "event \"E\" takes 2 fields, got 10",
        ),
        ("Y 0.0 1.0 0 7 1 100", "event \"Y\" takes 7 fields, got 6"),
        (
            "Y 0.0 1.0 0 7 1 100 0.0 9",
            "event \"Y\" takes 7 fields, got 8",
        ),
        (
            "Y 0 1 2 3 4 5 6 7 8 9 10 11",
            "event \"Y\" takes 7 fields, got 12",
        ),
        ("D 0.0 1.0", "event \"D\" takes 3 fields, got 2"),
        ("D 0.0 1.0 0.5 0.5", "event \"D\" takes 3 fields, got 4"),
        ("K 0.0", "event \"K\" takes 3 fields, got 1"),
        ("K 0.0 1.0 8 8", "event \"K\" takes 3 fields, got 4"),
        ("X 0.0 1.0 0.5", "event \"X\" takes 4 fields, got 3"),
        ("X 0.0 1.0 0.5 0.5 0.5", "event \"X\" takes 4 fields, got 5"),
        // The arity is checked before any field is parsed.
        ("C nan", "event \"C\" takes 3 fields, got 1"),
        ("Z 0.0 1.0 5", "unknown event kind \"Z\""),
        ("c 0.0 1.0 5", "unknown event kind \"c\""),
        ("CC 0.0 1.0 5", "unknown event kind \"CC\""),
        ("rank 0 1", "unknown event kind \"rank\""),
    ] {
        check(one(ev), &format!("trace parse error at line 6: {want}"));
    }
    // Fields: ints that are negative, signed or at least 2^64, and
    // floats that are not finite, non-negative times.
    for (ev, want) in [
        ("C 0.0 1.0 -5", "cannot parse \"-5\""),
        (
            "C 0.0 1.0 18446744073709551616",
            "cannot parse \"18446744073709551616\"",
        ),
        (
            "C 0.0 1.0 99999999999999999999999",
            "cannot parse \"99999999999999999999999\"",
        ),
        ("C 0.0 1.0 5.0", "cannot parse \"5.0\""),
        ("C 0.0 1.0 0x10", "cannot parse \"0x10\""),
        ("C 0.0 1.0 1_000", "cannot parse \"1_000\""),
        ("C 0.0 1.0 ", "event \"C\" takes 3 fields, got 2"),
        ("S 0.0 1.0 0 -7 100", "cannot parse \"-7\""),
        (
            "S 0.0 1.0 18446744073709551616 7 100",
            "cannot parse \"18446744073709551616\"",
        ),
        ("S 0.0 1.0 0 7 -0", "cannot parse \"-0\""),
        ("R 0.0 1.0 0 7 100 -1", "cannot parse \"-1\""),
        ("Y 0.0 1.0 0 7 -1 100 0.0", "cannot parse \"-1\""),
        ("C abc 1.0 5", "cannot parse \"abc\""),
        (
            "C 0.0 1e400 5",
            "\"1e400\" is not a finite, non-negative time",
        ),
        (
            "C 0.0 infinity 5",
            "\"infinity\" is not a finite, non-negative time",
        ),
        (
            "C -1e-300 0.0 5",
            "\"-1e-300\" is not a finite, non-negative time",
        ),
        ("C 0.0 0x1p3 5", "cannot parse \"0x1p3\""),
        ("C 0.0 1,5 5", "cannot parse \"1,5\""),
        ("C 1.0 0.5 5", "event ends at 0.5, before it starts at 1.0"),
        ("C 0.0 nan -5", "\"nan\" is not a finite, non-negative time"),
        ("C nan 0.0 -5", "\"nan\" is not a finite, non-negative time"),
        ("C 0.0 1.0 5é", "cannot parse \"5é\""),
        ("B 1.5 op\u{a0}name", "event \"B\" takes 2 fields, got 3"),
        (
            "Y 0.0 1.0 0 7 1 100 nan",
            "\"nan\" is not a finite, non-negative time",
        ),
        (
            "D 0.0 1.0 -0.5",
            "\"-0.5\" is not a finite, non-negative time",
        ),
        ("K 0.0 1.0 -8", "cannot parse \"-8\""),
        (
            "X 0.0 1.0 NaN 0.5",
            "\"NaN\" is not a finite, non-negative time",
        ),
    ] {
        check(one(ev), &format!("trace parse error at line 6: {want}"));
    }
    // Accepted spellings: each parses to the same canonical text.
    let canon = |ev: &str| format!("ok: {}", one(ev).replace('\n', "|"));
    for (ev, want) in [
        ("C\t0.0\t1.0\t5", "C 0.0 1.0 5"),
        ("C   0.0  1.0     5", "C 0.0 1.0 5"),
        ("C 0.0 1.0 5   \t ", "C 0.0 1.0 5"),
        ("  C 0.0 1.0 5", "C 0.0 1.0 5"),
        ("C\x0B0.0\x0B1.0 5", "C 0.0 1.0 5"),
        ("C\x0C0.0 1.0 5", "C 0.0 1.0 5"),
        ("C\u{a0}0.0 1.0\u{3000}5", "C 0.0 1.0 5"),
        ("C 0.0 1.0 5\u{3000}", "C 0.0 1.0 5"),
        ("C 0.0 1.0 5\r", "C 0.0 1.0 5"),
        ("C 0.0 1.0 +5", "C 0.0 1.0 5"),
        ("C 0.0 1.0 0005", "C 0.0 1.0 5"),
        (
            "C 0.0 1.0 18446744073709551615",
            "C 0.0 1.0 18446744073709551615",
        ),
        ("C +0.0 1. 5", "C 0.0 1.0 5"),
        ("C .5 5e-1 5", "C 0.5 0.5 5"),
        ("C -0.0 1E0 5", "C -0.0 1.0 5"),
        ("C 0 1 5", "C 0.0 1.0 5"),
        ("B 1.5 allréduce", "B 1.5 allréduce"),
        ("E 1.5 все_сразу", "E 1.5 все_сразу"),
        ("B 1.5 \u{3000}op", "B 1.5 op"),
        ("A 0.0 0.0 64", "A 0.0 0.0 64"),
    ] {
        check(one(ev), &canon(want));
    }
    // Whole-file whitespace: CRLF, blank lines, blank-looking lines.
    let crlf = format!("{HEAD}rank 0 1\nC 0.0 1.0 5\n").replace('\n', "\r\n");
    let clean = canon("C 0.0 1.0 5");
    check(crlf, &clean);
    check(format!("{HEAD}\n\nrank 0 1\n\nC 0.0 1.0 5\n\n"), &clean);
    check(format!("{HEAD}rank 0 1\n \t\nC 0.0 1.0 5\n"), &clean);
    check(format!("{HEAD}rank 0 1\n\x0B\nC 0.0 1.0 5\n"), &clean);
    check(
        format!("{HEAD}rank 0 1\n\u{a0}\u{3000}\nC 0.0 1.0 5\n"),
        &clean,
    );
    check(format!("{HEAD}rank 0 1\nC 0.0 1.0 5"), &clean);
    check(
        "psse-trace v1  \np\t1\nmakespan  0.0\nparams 0.0 0.0 0.0\x0B16\nrank\t0 1\nC 0.0 1.0 5\n"
            .into(),
        &clean,
    );
    check(format!("{HEAD}rank  0\u{a0}1\nC 0.0 1.0 5\n"), &clean);
    // Header, section and count lines.
    for (text, want) in [
        (
            String::new(),
            "line 0: unexpected end of input, expected header",
        ),
        (
            "psse-trace v2\n".into(),
            "line 1: bad header \"psse-trace v2\", expected \"psse-trace v1\"",
        ),
        (
            "psse-trace v1\n".into(),
            "line 0: unexpected end of input, expected p",
        ),
        (
            "psse-trace v1\np 1 2\n".into(),
            "line 2: p takes 1 fields, got 2",
        ),
        (
            "psse-trace v1\nq 1\n".into(),
            "line 2: expected \"p\" line, got \"q 1\"",
        ),
        (
            "psse-trace v1\np -1\n".into(),
            "line 2: cannot parse \"-1\"",
        ),
        (
            "psse-trace v1\np 1\nmakespan\n".into(),
            "line 3: makespan takes 1 fields, got 0",
        ),
        (
            "psse-trace v1\np 1\nmakespan -1.0\n".into(),
            "line 3: \"-1.0\" is not a finite, non-negative time",
        ),
        (
            "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0\n".into(),
            "line 4: params takes 4 fields, got 3",
        ),
        (
            "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 16 1\n".into(),
            "line 4: params takes 4 fields, got 5",
        ),
        (
            "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 -16\n".into(),
            "line 4: cannot parse \"-16\"",
        ),
        (
            "psse-trace v1\np 1\nmakespan 0.0\nparams x 0.0 0.0 16\n".into(),
            "line 4: cannot parse \"x\"",
        ),
        (format!("{HEAD}hier 2 0.0\n"), "line 5: hier takes 3 fields"),
        (
            format!("{HEAD}hier 2 0.0 0.0 0.0\n"),
            "line 5: hier takes 3 fields",
        ),
        (
            format!("{HEAD}hier -2 0.0 0.0\n"),
            "line 5: cannot parse \"-2\"",
        ),
        (format!("{HEAD}rank 0\n"), "line 5: rank takes 2 fields"),
        (format!("{HEAD}rank 0 0 0\n"), "line 5: rank takes 2 fields"),
        (
            format!("{HEAD}rank 1 0\n"),
            "line 5: rank 1 out of order, expected 0",
        ),
        (format!("{HEAD}rank -0 0\n"), "line 5: cannot parse \"-0\""),
        (format!("{HEAD}rank 0 -1\n"), "line 5: cannot parse \"-1\""),
        (
            format!("{HEAD}rank 0 2\nC 0.0 1.0 5\n"),
            "line 5: 2 events declared but only 1 lines follow",
        ),
        (
            format!("{HEAD}rank 0 1\n\n"),
            "line 5: 1 event lines missing",
        ),
        (
            format!("{HEAD}rank 0 0\nrank 1 0\n"),
            "line 2: 2 rank sections for p = 1",
        ),
        (HEAD.into(), "line 2: 0 rank sections for p = 1"),
        (
            format!("{HEAD}rank 0 1\nC 0.0 1.0 5\nC 0.0 1.0 5\n"),
            "line 7: unexpected keyword \"C\"",
        ),
        (format!("{HEAD}foo\n"), "line 5: unexpected keyword \"foo\""),
        (
            format!("{HEAD}rank\u{a0}0\u{a0}1\n"),
            "line 5: 1 events declared but only 0 lines follow",
        ),
        (
            "psse-trace v1\np 3\nmakespan 0.0\nparams 0.0 0.0 0.0 16\nrank 0 0\n".into(),
            "line 2: 1 rank sections for p = 3",
        ),
    ] {
        check(text, &format!("trace parse error at {want}"));
    }
    // Traces that parse but do not replay.
    let two = "psse-trace v1\np 2\nmakespan 0.0\nparams 0.0 0.0 0.0 16\n";
    for (text, want) in [
        (
            format!("{two}rank 0 1\nS 0.0 0.0 1 7 100\nrank 1 1\nR 0.0 0.0 0 8 100 1\n"),
            "recv event 0 on rank 1 has no matching send from rank 0 with tag 8",
        ),
        (
            format!("{two}rank 0 1\nS 0.0 0.0 1 7 100\nrank 1 2\nR 0.0 0.0 0 7 100 1\nR 0.0 0.0 0 7 100 1\n"),
            "recv event 1 on rank 1 has no matching send from rank 0 with tag 7",
        ),
        (
            format!("{two}rank 0 1\nS 0.0 0.0 1 7 100\nrank 1 1\nR 0.0 0.0 0 7 99 1\n"),
            "transfer 0->1 tag 7: send says 100 words but recv says 99",
        ),
        (
            format!("{two}rank 0 2\nS 0.0 0.0 1 7 100\nS 0.0 0.0 1 7 50\nrank 1 2\nR 0.0 0.0 0 7 100 1\nR 0.0 0.0 0 7 100 1\n"),
            "transfer 0->1 tag 7: send says 50 words but recv says 100",
        ),
        (
            format!("{two}rank 0 1\nR 0.0 0.0 1 3 5 1\nrank 1 1\nR 0.0 0.0 0 4 5 1\n"),
            "recv event 0 on rank 0 has no matching send from rank 1 with tag 3",
        ),
        (
            format!("{two}rank 0 1\nR 0.0 0.0 5 3 5 1\nrank 1 0\n"),
            "recv event 0 on rank 0 has no matching send from rank 5 with tag 3",
        ),
        (
            format!("{HEAD}rank 0 2\nR 0.0 0.0 0 7 100 1\nS 0.0 0.0 0 7 100\n"),
            "replay made no progress (cyclic event DAG)",
        ),
        (
            format!("{two}rank 0 2\nR 0.0 0.0 1 1 5 1\nS 0.0 0.0 1 2 5\nrank 1 2\nR 0.0 0.0 0 2 5 1\nS 0.0 0.0 0 1 5\n"),
            "replay made no progress (cyclic event DAG)",
        ),
        (
            format!("{HEAD}rank 0 2\nA 0.0 0.0 4\nF 0.0 0.0 5\n"),
            "corrupt trace: rank 0 frees 5 words with only 4 tracked",
        ),
    ] {
        check(text, want);
    }
    // Self-sends and pairs that do match replay.
    check(
        format!("{HEAD}rank 0 2\nS 0.0 0.0 0 7 100\nR 0.0 0.0 0 7 100 1\n"),
        "ok: psse-trace v1|p 1|makespan 0.0|params 0.0 0.0 0.0 16|rank 0 2|S 0.0 0.0 0 7 100|R 0.0 0.0 0 7 100 1|",
    );
    assert!(
        bad.is_empty(),
        "{} refusals moved:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
