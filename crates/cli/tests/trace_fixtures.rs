//! The committed `tests/fixtures/*_prepr.trace` recordings, reproduced
//! byte for byte by `psse trace record` from inside `cargo test`. CI's
//! perf-smoke job `cmp`s the same files against the release binary;
//! this test keeps them honest without CI. Each was recorded before a
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
