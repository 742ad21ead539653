//! Process-level exit-code audit: every failure path of the `psse`
//! binary must exit nonzero with a one-line `error: ...` reason on
//! stderr, and success paths must exit zero — scripts and CI gate on
//! these codes.

use std::path::Path;
use std::process::{Command, Output};

fn psse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psse"))
        .args(args)
        .output()
        .expect("spawn psse")
}

fn stderr_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).trim().to_string()
}

fn write_spec(dir: &Path, name: &str, body: &str) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, body).unwrap();
    p.display().to_string()
}

#[test]
fn success_paths_exit_zero() {
    let out = psse(&["help"]);
    assert!(out.status.success(), "{}", stderr_line(&out));
    let dir = std::env::temp_dir().join(format!("psse-exit0-{}", std::process::id()));
    let spec = write_spec(
        &dir,
        "ok.spec",
        "kind = model\nalg = nbody\nn = 1000\np = 2,4\n",
    );
    let out = psse(&["lab", "run", "--spec", &spec, "--profile", "off"]);
    assert!(out.status.success(), "{}", stderr_line(&out));
    assert!(stderr_line(&out).is_empty(), "{}", stderr_line(&out));
    std::fs::remove_dir_all(&dir).ok();
    // The sorting and stencil workloads simulate and self-verify on
    // both backends.
    for (alg, extra) in [
        ("samplesort", &[][..]),
        ("stencil", &["--halo", "2", "--iters", "2"][..]),
    ] {
        for backend in ["threads", "events"] {
            let mut args = vec![
                "simulate",
                "--alg",
                alg,
                "--n",
                "64",
                "--p",
                "4",
                "--backend",
                backend,
            ];
            args.extend_from_slice(extra);
            let out = psse(&args);
            assert!(
                out.status.success(),
                "{alg}/{backend}: {}",
                stderr_line(&out)
            );
            let stdout = String::from_utf8_lossy(&out.stdout).to_string();
            assert!(
                stdout.contains("verified against the sequential reference"),
                "{alg}/{backend}: {stdout}"
            );
        }
    }
}

#[test]
fn missing_spec_file_exits_nonzero_with_reason() {
    let out = psse(&["lab", "run", "--spec", "/nonexistent/sweep.spec"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("/nonexistent/sweep.spec"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line reason: {err}");
}

#[test]
fn malformed_spec_exits_nonzero_with_line_number() {
    let dir = std::env::temp_dir().join(format!("psse-exit-badspec-{}", std::process::id()));
    let spec = write_spec(&dir, "bad.spec", "kind = model\nalg = nbody\nbogus = 1\n");
    let out = psse(&["lab", "run", "--spec", &spec]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("line 3"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_run_keys_exit_nonzero_but_keep_outputs() {
    let dir = std::env::temp_dir().join(format!("psse-exit-failkeys-{}", std::process::id()));
    let spec = write_spec(
        &dir,
        "fail.spec",
        "kind = simulate\nalg = mm25d\nn = 8\np = 4,3\n",
    );
    let csv = dir.join("sweep.csv").display().to_string();
    let out = psse(&[
        "lab",
        "run",
        "--spec",
        &spec,
        "--out",
        &csv,
        "--profile",
        "off",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("1 of 2 runs failed"), "{err}");
    // stdout still carries the summary and the CSV was written.
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("runs      :"), "{stdout}");
    assert!(std::fs::metadata(dir.join("sweep.csv")).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Does `out` print an `inf` or a `NaN` anywhere?
fn prints_non_finite(out: &Output) -> bool {
    let text = [&out.stdout[..], &out.stderr[..]].concat();
    String::from_utf8_lossy(&text)
        .split(|c: char| !c.is_alphanumeric())
        .any(|word| word == "inf" || word == "NaN")
}

/// Finite prices too large for a run price its `T`, `E`, `M0` or `E*`
/// to infinity or NaN: each command refuses it by name, names the
/// prices, prints no `inf` or `NaN` and exits 1.
#[test]
fn overflowing_prices_exit_nonzero_and_name_them() {
    let kernel = format!(
        "{}/../../specs/kernels/matmul.kernel",
        env!("CARGO_MANIFEST_DIR")
    );
    let simulate = ["simulate", "--alg", "fft", "--n", "1024", "--p", "8"];
    let mm25d = [
        "simulate", "--alg", "mm25d", "--n", "16", "--p", "32", "--c", "2",
    ];
    let model = ["model", "--alg", "matmul", "--n", "8192", "--p", "64"];
    let optimize = ["optimize", "--n", "100000"];
    let bound = ["bound", "price", "--kernel", &kernel, "--n", "1000"];
    for (command, prices, quantity) in [
        (&simulate[..], &["--beta-t", "1e308"][..], "T"),
        (&mm25d[..], &["--alpha-t", "1e308"][..], "T"),
        (&model[..], &["--beta-t", "1e308"][..], "T"),
        (&model[..], &["--gamma-e", "1e308"][..], "E"),
        (&optimize[..], &["--beta-e", "1e308"][..], "M0"),
        (
            &optimize[..],
            &["--beta-t", "1e300", "--tmax", "1e300"][..],
            "E",
        ),
        (&bound[..], &["--beta-e", "1e308"][..], "E*"),
    ] {
        let out = psse(&[command, prices].concat());
        let what = format!("{} {prices:?}", command[0]);
        assert_eq!(out.status.code(), Some(1), "{what}");
        let err = stderr_line(&out);
        let named = format!("error: {quantity} overflows: ");
        assert!(err.starts_with(&named), "{what}: {err}");
        assert!(err.ends_with("are too large for this run"), "{what}: {err}");
        assert!(!prints_non_finite(&out), "{what}");
    }
}

/// The same prices in a lab spec fail the key, by name, for both kinds
/// of run; the CSV is written without the row, and the run exits 1.
#[test]
fn overflowing_prices_fail_their_lab_keys() {
    let dir = std::env::temp_dir().join(format!("psse-exit-overflow-{}", std::process::id()));
    for (kind, alg, label) in [
        ("simulate", "fft", "simulate:fft n=1024 p=8 c=1"),
        ("model", "matmul", "model:matmul n=1024 p=8 c=1"),
    ] {
        let body = format!("kind = {kind}\nalg = {alg}\nn = 1024\np = 8\nbeta-t = 1e308\n");
        let spec = write_spec(&dir, &format!("{kind}.spec"), &body);
        let csv = dir.join(format!("{kind}.csv"));
        let csv_arg = csv.display().to_string();
        let out = psse(&[
            "lab",
            "run",
            "--spec",
            &spec,
            "--out",
            &csv_arg,
            "--profile",
            "off",
        ]);
        assert_eq!(out.status.code(), Some(1), "{kind}");
        let err = stderr_line(&out);
        assert!(
            err.ends_with(&format!("1 of 1 runs failed: {label}")),
            "{err}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            stdout.contains("T overflows: gamma_t, beta_t and alpha_t"),
            "{stdout}"
        );
        assert!(!prints_non_finite(&out), "{kind}");
        let written = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(written.lines().count(), 1, "{kind}: header only: {written}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_exit_code_tracks_corruption() {
    let dir = std::env::temp_dir().join(format!("psse-exit-fsck-{}", std::process::id()));
    let spec = write_spec(
        &dir,
        "ok.spec",
        "kind = model\nalg = matmul\nn = 1024\np = 4\n",
    );
    let cache = dir.join("cache").display().to_string();
    let out = psse(&[
        "lab",
        "run",
        "--spec",
        &spec,
        "--cache",
        &cache,
        "--profile",
        "off",
    ]);
    assert!(out.status.success(), "{}", stderr_line(&out));

    let out = psse(&["lab", "fsck", "--cache", &cache]);
    assert!(out.status.success(), "clean cache: {}", stderr_line(&out));

    let rec = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "rec"))
        .unwrap();
    std::fs::write(&rec, "garbage\n").unwrap();
    let out = psse(&["lab", "fsck", "--cache", &cache]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_line(&out).contains("corrupt"),
        "{}",
        stderr_line(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_and_faults_failures_exit_nonzero() {
    let out = psse(&["trace", "replay", "--in", "/nonexistent/run.trace"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_line(&out).starts_with("error:"));
    let out = psse(&[
        "faults",
        "sweep",
        "--q",
        "2",
        "--c-list",
        "1",
        "--n",
        "16",
        "--drop-rate",
        "1.5",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_line(&out).starts_with("error:"));
    let out = psse(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_line(&out).contains("unknown subcommand"));
}

#[test]
fn hostile_trace_counts_exit_nonzero_with_line_number() {
    let dir = std::env::temp_dir().join(format!("psse-exit-badtrace-{}", std::process::id()));
    let head = "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 16\n";
    for (name, body, line) in [
        (
            "huge_p.trace",
            head.replace("p 1\n", "p 18446744073709551615\n") + "rank 0 0\n",
            "line 2",
        ),
        (
            "overflow_rank.trace",
            format!("{head}rank 0 18446744073709551615\n"),
            "line 5",
        ),
        (
            "oom_rank.trace",
            format!("{head}rank 0 400000000000\n"),
            "line 5",
        ),
    ] {
        let path = write_spec(&dir, name, &body);
        let out = psse(&["trace", "replay", "--in", &path]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = stderr_line(&out);
        assert!(err.starts_with("error:"), "{name}: {err}");
        assert!(err.contains(line), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        assert_eq!(err.lines().count(), 1, "one-line reason: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A recorded price no replay accepts, and a send to a rank the trace
/// lacks, fail every trace command that reads them the same way: exit
/// 1 naming the line, or the rank, event and destination. `export`
/// draws the recorded timeline and matches no messages, so it reads the
/// second trace as it is.
#[test]
fn refused_params_and_sends_fail_every_trace_command() {
    let dir = std::env::temp_dir().join(format!("psse-exit-params-{}", std::process::id()));
    let one = "rank 0 1\nC 0.0 1.0 5\n";
    let cases = [
        (
            "m0.trace",
            format!("psse-trace v1\np 1\nmakespan 1.0\nparams 0.0 0.0 0.0 0\n{one}"),
            "line 4: max_message_words must be at least 1",
        ),
        (
            "nan.trace",
            format!("psse-trace v1\np 1\nmakespan 1.0\nparams NaN 0.0 0.0 16\n{one}"),
            "line 4: gamma_t = NaN",
        ),
        (
            "hier.trace",
            format!("psse-trace v1\np 1\nmakespan 1.0\nparams 0.0 0.0 0.0 16\nhier 0 0.0 0.0\n{one}"),
            "line 5: hierarchy.cores_per_node must be at least 1",
        ),
        (
            "dest.trace",
            "psse-trace v1\np 1\nmakespan 1.0\nparams 0.0 0.0 0.0 16\nrank 0 1\nS 0.0 1.0 5 7 100\n".into(),
            "event 0 on rank 0 sends to rank 5, but the trace has 1 ranks",
        ),
    ];
    for (name, body, want) in cases {
        let path = write_spec(&dir, name, &body);
        let json = dir.join(format!("{name}.json")).display().to_string();
        for args in [
            &["trace", "replay", "--in", &path][..],
            &["trace", "critical-path", "--in", &path],
            &["trace", "flame", "--in", &path],
            &["trace", "export", "--in", &path, "--out", &json],
        ] {
            let out = psse(args);
            if name == "dest.trace" && args[1] == "export" {
                assert!(out.status.success(), "{name}: {}", stderr_line(&out));
                continue;
            }
            assert_eq!(out.status.code(), Some(1), "{name}: {args:?}");
            let err = stderr_line(&out);
            assert!(
                err.starts_with("error:") && err.contains(want),
                "{args:?}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn misspelled_subcommand_exits_nonzero_with_hint() {
    let out = psse(&["buond", "solve", "--kernel", "x.kernel"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("unknown subcommand `buond`"), "{err}");
    assert!(err.contains("did you mean `bound`?"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line reason: {err}");
}

#[test]
fn malformed_kernel_exits_nonzero_with_line_number() {
    let dir = std::env::temp_dir().join(format!("psse-exit-badkernel-{}", std::process::id()));
    let kernel = write_spec(
        &dir,
        "bad.kernel",
        "kernel = bad\nfor i in 0..n\nC[q] += A[i]\n",
    );
    let out = psse(&["bound", "solve", "--kernel", &kernel]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains("bad.kernel"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_memory_band_fails_its_keys_without_panicking() {
    // tensor.kernel at (n, p) = (16, 4) and (64, 4): one copy of the
    // data already exceeds the useful memory, so the band is empty.
    // Those keys fail with the typed range error; the sweep exits 1
    // and nothing panics.
    let dir = std::env::temp_dir().join(format!("psse-exit-tensor-{}", std::process::id()));
    let kernel = format!(
        "{}/../../specs/kernels/tensor.kernel",
        env!("CARGO_MANIFEST_DIR")
    );
    let spec = write_spec(
        &dir,
        "tensor.spec",
        &format!("kind = model\nkernel = {kernel}\nn = 16,64\np = 4,64\n"),
    );
    let out = psse(&["lab", "run", "--spec", &spec, "--profile", "off"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.starts_with("error: 2 of 4 runs failed"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line reason: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("runs      : 2 ok"), "{stdout}");
    let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("failed  :")).collect();
    assert_eq!(failed.len(), 2, "{stdout}");
    for line in failed {
        assert!(line.contains("outside valid range ["), "{line}");
        assert!(!line.contains("panic:"), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degenerate_sizes_exit_nonzero_naming_the_flag() {
    // Each of these used to print `inf`, `NaN` or a negative processor
    // count and exit 0.
    let kernel = format!(
        "{}/../../specs/kernels/matmul.kernel",
        env!("CARGO_MANIFEST_DIR")
    );
    let scaling = ["scaling", "--alg", "nbody", "--n", "1e6", "--mem"];
    let cases: [(Vec<&str>, &str); 5] = [
        ([&scaling[..], &["0"]].concat(), "--mem"),
        ([&scaling[..], &["-5"]].concat(), "--mem"),
        ([&scaling[..], &["nan"]].concat(), "--mem"),
        (
            vec![
                "bound", "range", "--kernel", &kernel, "--n", "8192", "--mem", "0",
            ],
            "--mem",
        ),
        (vec!["optimize", "--n", "0"], "--n"),
    ];
    for (args, flag) in cases {
        assert_refused_naming(&args, flag);
    }
}

/// `args` must exit 1 with a one-line reason that names `flag`, and
/// print nothing — in particular no number.
fn assert_refused_naming(args: &[&str], flag: &str) {
    let out = psse(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    let err = stderr_line(&out);
    assert!(err.starts_with("error:") && err.contains(flag), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line reason: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed a number");
}

#[test]
fn non_finite_prices_targets_and_caps_exit_nonzero_naming_the_flag() {
    // Each of these used to print `inf` or `NaN` (or a plan for a
    // negative target) and exit 0.
    let dir = std::env::temp_dir().join(format!("psse-nonfinite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.trace").display().to_string();
    let record = [
        "trace", "record", "--alg", "mm25d", "--n", "16", "--p", "8", "--c", "2", "--out", &trace,
    ];
    let out = psse(&record);
    assert!(out.status.success(), "{}", stderr_line(&out));
    let simulate = [
        "simulate", "--alg", "mm25d", "--n", "32", "--p", "8", "--c", "2",
    ];
    let replay = ["trace", "replay", "--in", &trace];
    let cases: [(Vec<&str>, &str); 9] = [
        // An infinite price is refused by the validators...
        ([&simulate[..], &["--beta-t", "inf"]].concat(), "beta_t"),
        ([&replay[..], &["--beta-t", "inf"]].concat(), "beta_t"),
        // ...and finite prices whose charges overflow, by the replay.
        (
            [&replay[..], &["--beta-t", "1e308", "--alpha-t", "1e308"]].concat(),
            "beta_t",
        ),
        (vec!["tech", "--target", "nan"], "--target"),
        (vec!["tech", "--target", "-1"], "--target"),
        (vec!["tech", "--target", "0"], "--target"),
        (
            vec!["optimize", "--n", "1e6", "--power-total", "nan"],
            "--power-total",
        ),
        (
            vec!["optimize", "--n", "1e6", "--power-total", "inf"],
            "--power-total",
        ),
        (
            vec!["optimize", "--n", "1e6", "--power-proc", "-3"],
            "--power-proc",
        ),
    ];
    for (args, flag) in cases {
        assert_refused_naming(&args, flag);
    }
    // The closed-form commands already refused it, in these words.
    let out = psse(&[
        "model",
        "--alg",
        "matmul",
        "--n",
        "8192",
        "--p",
        "64",
        "--gamma-t",
        "inf",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_line(&out),
        "error: --gamma-t must keep the machine valid: invalid machine parameter gamma_t = inf"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn optimize_reports_answers_that_are_not_runs() {
    // n < M0 (36 039.7 words on jaketown): §V.A's band is empty, so E*
    // is out of reach and the feasible minimum is one processor holding
    // the whole problem.
    let out = psse(&["optimize", "--n", "30000", "--tmax", "1"]);
    assert!(out.status.success(), "{}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("is not attainable at n = 30000"),
        "{stdout}"
    );
    assert!(stdout.contains("at p = 1, M = 30000"), "{stdout}");
    assert!(!stdout.contains("attainable for p in ["), "{stdout}");
    // The deadline is loose, so §V.B answers with the E* run — which
    // needs 0.69 of a processor here.
    assert!(stdout.contains("Tmax = 1.0000 s: infeasible"), "{stdout}");

    // A budget 1 300 times E*: the quadratic's root is past the end of
    // the 2-D boundary (p = n², M = 1), where the parent printed
    // p = 6.9872e18 and M = 3.7831e-5.
    let out = psse(&["optimize", "--n", "100000", "--emax", "1e5"]);
    assert!(out.status.success(), "{}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let line = stdout
        .lines()
        .find(|l| l.starts_with("fastest run within Emax"))
        .unwrap_or_else(|| panic!("no Emax line in: {stdout}"));
    assert!(line.contains("at p = 1.0000e10, M = 1.0000"), "{line}");
    assert!(line.contains("not binding"), "{line}");
}

#[test]
fn absurd_simulate_sizes_exit_nonzero_without_aborting() {
    // Both aborted (exit 134) at the parent: 70 000 rank threads ran the
    // process out of memory mappings, a 39 GB matrix out of memory.
    let cases: [(&[&str], &str); 4] = [
        (
            &["--alg", "tsqr", "--n", "560000", "--p", "70000"],
            "16384 ranks",
        ),
        (&["--alg", "matvec", "--n", "70000"], "--n is too large"),
        // The default SUMMA panel is n/√p: a panic (exit 101) at p = 0.
        (&["--alg", "summa", "--n", "16", "--p", "0"], "p = 0"),
        // n² words no longer fit a `usize`: refused by arithmetic alone.
        (
            &["--alg", "stencil", "--n", "5000000000"],
            "--n is too large",
        ),
    ];
    for (args, reason) in cases {
        let out = psse(&[&["simulate"], args].concat());
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr_line(&out);
        assert!(err.starts_with("error:") && err.contains(reason), "{err}");
        assert_eq!(err.lines().count(), 1, "no backtrace: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a measurement");
    }
}

#[test]
fn hostile_spec_lists_exit_nonzero_at_their_line_without_aborting() {
    // Each aborted (exit 134, "memory allocation of ... bytes failed")
    // at the parent: an unbounded range, a step that never moves `v`, a
    // ladder of 10^17 points, and a 10^10-run grid. The address space
    // is capped at 2 GB so a regression aborts fast instead of paging.
    let dir = std::env::temp_dir().join(format!("psse-exit-hostile-{}", std::process::id()));
    for (i, lists) in [
        "n = 4\np = 1..inf",
        "n = 4\np = 1e20..2e20..1",
        "n = 4\np = pow2:1:inf",
        "n = 4\np = geom:1:2:100000000000000000",
        "n = 1..100000\np = 1..100000",
    ]
    .iter()
    .enumerate()
    {
        let body = format!("kind = model\nalg = nbody\n{lists}\n");
        let spec = write_spec(&dir, &format!("h{i}.spec"), &body);
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 2000000 && exec \"$@\"", "sh"])
            .args([env!("CARGO_BIN_EXE_psse"), "lab", "run", "--spec", &spec])
            .args(["--profile", "off"])
            .output()
            .expect("spawn psse under sh");
        let err = stderr_line(&out);
        assert_eq!(out.status.code(), Some(1), "{lists}: {err}");
        assert!(err.starts_with("error:") && err.contains("line 4"), "{err}");
        assert_eq!(err.lines().count(), 1, "no backtrace: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_lab_row_cannot_name_a_machine_it_did_not_run_on() {
    // c = 3 does not divide p = 10. The parent ran the 3 x 3 layout on
    // nine ranks and wrote a `p = 10` row with exit 0.
    let dir = std::env::temp_dir().join(format!("psse-exit-nbody-{}", std::process::id()));
    let spec = write_spec(
        &dir,
        "nb.spec",
        "kind = simulate\nalg = nbody\nn = 60\np = 10\nc = 3\n",
    );
    let out = psse(&["lab", "run", "--spec", &spec, "--profile", "off"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.contains("1 of 1 runs failed"), "{err}");
    assert!(err.contains("nbody n=60 p=10 c=3"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("--c 3 must divide --p 10"), "{stdout}");

    // A misspelt `alg` is one line-numbered parse error, not one failed
    // run per expanded key.
    let spec = write_spec(
        &dir,
        "typo.spec",
        "kind = simulate\nalg = nbdy\nn = 60\np = 1..64\n",
    );
    let out = psse(&["lab", "run", "--spec", &spec, "--profile", "off"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(err.contains("line 2") && err.contains("`nbdy`"), "{err}");
    assert!(err.contains("|nbody|"), "accepted names listed: {err}");
    assert!(out.stdout.is_empty(), "no key ran");
    std::fs::remove_dir_all(&dir).ok();
}

/// The first number after `label` on the line of `text` that starts
/// with `head`.
fn printed(text: &str, head: &str, label: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.starts_with(head))
        .unwrap_or_else(|| panic!("no `{head}` line in: {text}"));
    let rest = &line[line.find(label).expect(label) + label.len()..];
    rest.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn every_simulate_name_is_sweepable_and_the_row_is_the_cli_measurement() {
    // The eight names a spec could not reach at the parent, Strassen at
    // both of its small rank counts, and the ABFT pair the CLI rejected.
    let dir = std::env::temp_dir().join(format!("psse-exit-sweepable-{}", std::process::id()));
    let cases = [
        ("strassen", "8", "7"),
        ("strassen", "28", "49"),
        ("mm3d", "8", "8"),
        ("lu", "32", "4"),
        ("solve", "32", "4"),
        ("cholesky", "32", "4"),
        ("tsqr", "64", "4"),
        ("fft", "256", "8"),
        ("matvec", "64", "4"),
        ("mm25d-abft", "16", "4"),
        ("summa-abft", "16", "4"),
    ];
    for (alg, n, p) in cases {
        // SUMMA's `c` is its panel in a spec; n/√p is the CLI's default.
        let c = if alg == "summa-abft" { "8" } else { "1" };
        let spec = write_spec(
            &dir,
            "one.spec",
            &format!("kind = simulate\nalg = {alg}\nn = {n}\np = {p}\nc = {c}\nseed = 9\n"),
        );
        let csv = dir.join("one.csv").display().to_string();
        let out = psse(&[
            "lab",
            "run",
            "--spec",
            &spec,
            "--out",
            &csv,
            "--profile",
            "off",
        ]);
        assert!(out.status.success(), "{alg}: {}", stderr_line(&out));
        let rows = std::fs::read_to_string(&csv).unwrap();
        let row: Vec<&str> = rows.lines().nth(1).expect("one row").split(',').collect();
        assert_eq!((row[0], row[2], row[3]), (alg, n, p), "{rows}");
        let (t, e): (f64, f64) = (row[7].parse().unwrap(), row[8].parse().unwrap());

        let out = psse(&["simulate", "--alg", alg, "--n", n, "--p", p, "--seed", "9"]);
        assert!(out.status.success(), "{alg}: {}", stderr_line(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains("verified against"), "{alg}: {stdout}");
        // `simulate` prints five significant digits of the same floats
        // (bit-equality is asserted in psse-lab's `algorithm_table`).
        for (cli, lab) in [
            (printed(&stdout, "measured runtime", "T = "), t),
            (printed(&stdout, "measured energy", "E = "), e),
        ] {
            assert!((cli - lab).abs() <= 1e-4 * lab, "{alg}: {cli} vs {lab}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// One run vocabulary (`psse_lab::vocab`): each invocation below printed
// a number — `inf`, a wrapped count, a dropped line, a zero sweep — or
// digested a coerced value, and exited 0 at the parent.

/// `args` must exit 1 naming `flag`, print nothing, and say no `inf`
/// or `NaN`.
fn assert_flag_refused(args: &[&str], flag: &str) {
    assert_refused_naming(args, flag);
    let err = stderr_line(&psse(args));
    assert!(!err.contains("inf") && !err.contains("NaN"), "{err}");
}

/// A spec whose line 5 is `line` must fail to parse, naming `key` and
/// the line, before any run is listed.
fn assert_spec_line_refused(line: &str, key: &str) {
    let dir = std::env::temp_dir().join(format!("psse-exit-vocab-{key}-{}", std::process::id()));
    let spec = write_spec(
        &dir,
        "v.spec",
        &format!("kind = simulate\nalg = mm25d-abft\nn = 32\np = 4\n{line}\n"),
    );
    let out = psse(&["lab", "expand", "--spec", &spec]);
    assert_eq!(out.status.code(), Some(1), "{line}");
    let err = stderr_line(&out);
    assert!(
        err.contains("line 5") && err.contains(&format!("`{key}`")),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "{line}: a run was listed");
    std::fs::remove_dir_all(&dir).ok();
}

const STENCIL_RANGE: [&str; 7] = ["scaling", "--alg", "stencil", "--n", "4096", "--mem", "1e6"];
const SWEEP: [&str; 8] = ["faults", "sweep", "--q", "2", "--c-list", "1", "--n", "16"];

#[test]
fn stencil_range_refuses_halo_zero() {
    assert_flag_refused(&[&STENCIL_RANGE[..], &["--halo", "0"]].concat(), "--halo");
}

#[test]
fn stencil_range_refuses_iters_zero() {
    assert_flag_refused(&[&STENCIL_RANGE[..], &["--iters", "0"]].concat(), "--iters");
}

#[test]
fn faults_sweep_refuses_a_non_numeric_mtbf() {
    assert_flag_refused(&[&SWEEP[..], &["--mtbf", "abc"]].concat(), "--mtbf");
}

#[test]
fn faults_sweep_refuses_a_negative_checkpoint_interval() {
    let args = [&SWEEP[..], &["--checkpoint-interval", "-1"]].concat();
    assert_flag_refused(&args, "--checkpoint-interval");
}

#[test]
fn faults_sweep_refuses_retries_beyond_u32() {
    assert_flag_refused(
        &[&SWEEP[..], &["--retries", "99999999999"]].concat(),
        "--retries",
    );
}

#[test]
fn faults_sweep_refuses_retries_whose_backoff_overflows() {
    // Retry 1024 waits `backoff · 2^1024`: `NaN` at the default backoff
    // of 0. At the parent every transfer retried until exhausted and the
    // run failed after printing the table header, naming no flag.
    let every_drop = ["--drop-rate", "1", "--corrupt-rate", "0"];
    let args = [&SWEEP[..], &every_drop, &["--retries", "1024"]].concat();
    assert_flag_refused(&args, "--retries");
}

#[test]
fn faults_sweep_refuses_an_empty_problem() {
    assert_flag_refused(
        &["faults", "sweep", "--q", "2", "--c-list", "1", "--n", "0"],
        "--n",
    );
}

#[test]
fn spec_refuses_a_negative_seed() {
    assert_spec_line_refused("seed = -3", "seed");
}

#[test]
fn spec_refuses_a_fractional_seed() {
    assert_spec_line_refused("seed = 2.7", "seed");
}

#[test]
fn spec_refuses_retries_beyond_u32() {
    assert_spec_line_refused("retries = 1e12", "retries");
}

#[test]
fn spec_refuses_a_negative_checkpoint_interval() {
    assert_spec_line_refused("checkpoint-interval = -1", "checkpoint-interval");
}

#[test]
fn spec_refuses_a_negative_fault_seed() {
    assert_spec_line_refused("fault-seed = -1", "fault-seed");
}

#[test]
fn spec_refuses_negative_checkpoint_words() {
    assert_spec_line_refused("checkpoint-words = -5", "checkpoint-words");
}

#[test]
fn spec_refuses_a_negative_flop_count_at_its_line() {
    assert_spec_line_refused("f = -1", "f");
}

#[test]
fn spec_refuses_a_zero_replication_factor_at_its_line() {
    assert_spec_line_refused("c = 1,0", "c");
}

#[test]
fn spec_refuses_an_empty_world_or_problem_at_its_line() {
    assert_spec_line_refused("p = 0", "p");
    assert_spec_line_refused("n = 32,0", "n");
}

#[test]
fn trace_flame_refuses_a_fractional_or_huge_message_size() {
    let dir = std::env::temp_dir().join(format!("psse-exit-flame-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.trace");
    let trace = trace.to_str().unwrap();
    let record = ["trace", "record", "--alg", "mm25d", "--n", "16", "--p", "8"];
    let out = psse(&[&record[..], &["--c", "2", "--out", trace]].concat());
    assert!(out.status.success(), "{}", stderr_line(&out));
    for m in ["2.5", "1e300"] {
        let flame = ["trace", "flame", "--in", trace, "--max-message", m];
        assert_flag_refused(&flame, "--max-message");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_preset_a_spec_names_is_a_machine_flag() {
    let out = psse(&[
        "model",
        "--alg",
        "lu",
        "--n",
        "16384",
        "--p",
        "1024",
        "--machine",
        "cloud-instance",
    ]);
    assert!(out.status.success(), "{}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("machine   : cloud-instance"), "{stdout}");
}

#[test]
fn an_empty_scaling_band_is_printed_as_no_range() {
    // p_min > p_max: at the parent each printed both ends as a range and
    // a headroom below one ("scale processors by 0.0082x").
    let kernels = format!("{}/../../specs/kernels", env!("CARGO_MANIFEST_DIR"));
    let (nbody, matmul) = (
        format!("{kernels}/nbody.kernel"),
        format!("{kernels}/matmul.kernel"),
    );
    let cases: [(Vec<&str>, &str, &str); 4] = [
        (
            vec!["scaling", "--alg", "nbody", "--n", "8192", "--mem", "1e6"],
            "p_min = 0.0082",
            "p_max = 6.7109e-5",
        ),
        (
            vec![
                "bound", "range", "--kernel", &nbody, "--n", "8192", "--mem", "1e6",
            ],
            "p_min = 0.0082",
            "p_max = 6.7109e-5",
        ),
        (
            vec![
                "scaling", "--alg", "stencil", "--n", "16", "--mem", "1", "--halo", "9",
            ],
            "p_min = 256.0000",
            "p_max = 0.7901",
        ),
        (
            vec![
                "bound", "range", "--kernel", &matmul, "--n", "2", "--mem", "1e300",
            ],
            "p_min = 4.0000e-300",
            "p_max = 0.",
        ),
    ];
    for (args, p_min, p_max) in cases {
        let out = psse(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr_line(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let line = stdout
            .lines()
            .find(|l| l.contains("no perfect strong scaling range exists"))
            .unwrap_or_else(|| panic!("{args:?}: no no-range line in {stdout}"));
        assert!(line.contains(p_min) && line.contains(p_max), "{line}");
        assert!(!stdout.contains("headroom"), "{args:?}: {stdout}");
    }
    // The CSV row is a compatibility surface: both ends, as before.
    let out = psse(&[
        "bound", "range", "--kernel", &matmul, "--n", "2", "--mem", "1e300", "--csv",
    ]);
    assert!(out.status.success(), "{}", stderr_line(&out));
    let row = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(
        row.starts_with("matmul,3/2,2,1000") && row.ends_with(",0"),
        "{row}"
    );
}

#[test]
fn an_empty_problem_is_refused_naming_the_flag() {
    // Each "verified against the sequential reference" (or saved the
    // trace of) an empty problem, or priced one, and exited 0 at the
    // parent.
    for alg in [
        "cholesky",
        "cannon",
        "summa",
        "summa-abft",
        "mm25d",
        "mm25d-abft",
        "lu",
        "solve",
        "matvec",
    ] {
        assert_refused_naming(&["simulate", "--alg", alg, "--n", "0", "--p", "4"], "--n");
    }
    let dir = std::env::temp_dir().join(format!("psse-exit-empty-{}", std::process::id()));
    let trace = dir.join("empty.trace");
    let record = [
        "trace",
        "record",
        "--alg",
        "mm25d",
        "--n",
        "0",
        "--p",
        "8",
        "--c",
        "2",
        "--out",
        trace.to_str().unwrap(),
    ];
    assert_refused_naming(&record, "--n");
    assert!(!trace.exists(), "no trace of an empty problem");
    let tsqr = ["simulate", "--alg", "tsqr", "--n", "64", "--cols", "0"];
    assert_refused_naming(&tsqr, "--cols");
    let kernel = format!(
        "{}/../../specs/kernels/matmul.kernel",
        env!("CARGO_MANIFEST_DIR")
    );
    assert_refused_naming(&["bound", "price", "--kernel", &kernel, "--n", "0"], "--n");
}

// One command table: every flag's shape is checked before the command
// body runs. Each invocation below exited 0 at the parent — no CSV, the
// `threads` backend, a dry run, a CSV row.

fn shipped(path: &str) -> String {
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn lab_run_refuses_an_out_flag_without_a_value() {
    let spec = shipped("specs/ci_smoke.spec");
    let args = ["lab", "run", "--spec", &spec, "--profile", "off", "--out"];
    assert_refused_naming(&args, "--out");
}

#[test]
fn simulate_refuses_a_backend_flag_without_a_value() {
    let args = [
        "simulate",
        "--alg",
        "fft",
        "--n",
        "64",
        "--p",
        "4",
        "--backend",
    ];
    assert_refused_naming(&args, "--backend");
}

#[test]
fn lab_gc_refuses_a_dry_run_switch_given_a_value() {
    let dir = std::env::temp_dir().join(format!("psse-exit-gc-shape-{}", std::process::id()));
    let cache = dir.display().to_string();
    let args = [
        "lab",
        "gc",
        "--cache",
        &cache,
        "--max-bytes",
        "0",
        "--dry-run",
        "no",
    ];
    assert_refused_naming(&args, "--dry-run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bound_range_refuses_a_csv_switch_given_a_value() {
    let kernel = shipped("specs/kernels/matmul.kernel");
    let args = [
        "bound", "range", "--kernel", &kernel, "--n", "8192", "--mem", "1e6", "--csv", "5",
    ];
    assert_refused_naming(&args, "--csv");
}

#[test]
fn a_misspelt_action_gets_a_hint() {
    let out = psse(&["trace", "replya", "--in", "x"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert!(
        err.starts_with("error: unknown trace action `replya`"),
        "{err}"
    );
    assert!(err.contains("did you mean `replay`?"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line reason: {err}");
}

#[test]
fn an_unknown_flag_names_the_full_command() {
    let out = psse(&[
        "trace", "record", "--alg", "mm25d", "--n", "16", "--p", "8", "--bogus", "1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_line(&out);
    assert_eq!(err, "error: unknown option --bogus for `trace record`");
}

#[test]
fn faults_sweep_reads_each_replication_factor_by_the_c_rule() {
    // At the parent `0` printed the table header, then failed inside the
    // run; `-1` was a "bad replication factor".
    for c in ["0", "-1"] {
        let args = ["faults", "sweep", "--q", "2", "--c-list", c, "--n", "16"];
        assert_refused_naming(&args, "--c-list");
        let err = stderr_line(&psse(&args));
        let want = format!("error: --c-list must be a positive integer, got `{c}`");
        assert_eq!(err, want);
    }
}
