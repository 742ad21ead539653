//! `psse lab run` end to end: the `--scaling` report's bytes, and a
//! `--resume` from a journal whose tail is far larger than any line.

use std::path::PathBuf;
use std::process::{Command, Output};

fn psse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psse"))
        .args(args)
        .output()
        .expect("spawn psse")
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psse-labrun-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Twelve `(n, c, M)` ladders, two of them per printed label (`c` is
/// not printed). Small `p` at `M = 200` is infeasible, `p = 25` is
/// repeated, and `delta-e` is so large that `M = 10¹²` prices `P` or `E`
/// to infinity from `p = 25` up: those keys fail, and `p = 6, 12` of the
/// same ladders stay.
const LADDERS: &str = "kind = model\nalg = nbody\nmachine = jaketown\n\
    gamma-t = 1e-9\nbeta-t = 2e-8\nalpha-t = 1e-6\ngamma-e = 1e-9\nbeta-e = 4e-6\n\
    alpha-e = 1e-4\ndelta-e = 1e295\nepsilon-e = 0\nmax-message = 100\nmem-words = 1e12\n\
    n = 10000,20000\np = 6,12,25,25,50,100,200\nmem = 200,2e3,1e12\nf = 10\nc = 1,2\n";

const LADDERS_REPORT: &str = "\
scaling   : n = 10000, M = 200.0000: perfect strong scaling for p ∈ [50, 200]
scaling   : n = 10000, M = 2000.0000: perfect strong scaling for p ∈ [6, 25]
scaling   : n = 10000, M = 1.0000e12: no perfect-strong-scaling range detected
scaling   : n = 10000, M = 200.0000: perfect strong scaling for p ∈ [50, 200]
scaling   : n = 10000, M = 2000.0000: perfect strong scaling for p ∈ [6, 25]
scaling   : n = 10000, M = 1.0000e12: no perfect-strong-scaling range detected
scaling   : n = 20000, M = 200.0000: perfect strong scaling for p ∈ [100, 200]
scaling   : n = 20000, M = 2000.0000: perfect strong scaling for p ∈ [12, 100]
scaling   : n = 20000, M = 1.0000e12: no perfect-strong-scaling range detected
scaling   : n = 20000, M = 200.0000: perfect strong scaling for p ∈ [100, 200]
scaling   : n = 20000, M = 2000.0000: perfect strong scaling for p ∈ [12, 100]
scaling   : n = 20000, M = 1.0000e12: no perfect-strong-scaling range detected
";

#[test]
fn scaling_report_is_pinned_across_ladders_failures_and_repeats() {
    let dir = work_dir("scaling");
    let spec = dir.join("ladders.spec");
    std::fs::write(&spec, LADDERS).unwrap();
    for jobs in ["1", "4"] {
        let out = psse(&[
            "lab",
            "run",
            "--spec",
            spec.to_str().unwrap(),
            "--scaling",
            "--profile",
            "off",
            "--jobs",
            jobs,
        ]);
        // The failed keys make the run exit 1 after the report.
        assert_eq!(out.status.code(), Some(1), "jobs = {jobs}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("runs      : 64 ok (28 feasible, 36 infeasible), 20 failed"),
            "{stdout}"
        );
        let report: String = stdout
            .lines()
            .filter(|l| l.starts_with("scaling   :"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(report, LADDERS_REPORT, "jobs = {jobs}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_a_sparse_oversized_journal_replays_the_prefix() {
    let dir = work_dir("sparse");
    let spec = dir.join("s.spec");
    std::fs::write(
        &spec,
        "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:8\nmem = 2000\nf = 10\n",
    )
    .unwrap();
    let journal = dir.join("s.journal");
    let (spec, journal_arg) = (spec.to_str().unwrap(), journal.to_str().unwrap());
    let run = |extra: &[&str]| {
        let mut args = vec![
            "lab",
            "run",
            "--spec",
            spec,
            "--journal",
            journal_arg,
            "--profile",
            "off",
        ];
        args.extend_from_slice(extra);
        psse(&args)
    };
    let cold = run(&[]);
    assert!(cold.status.success());
    let intact = std::fs::read(&journal).unwrap();
    // A valid prefix followed by a hole with no newline in it: 2 GiB,
    // then 1 TiB, a length no allocation sized from it could get.
    for len in [1u64 << 31, 1 << 40] {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .unwrap()
            .set_len(len)
            .unwrap();
        let resumed = run(&["--resume"]);
        let stdout = String::from_utf8_lossy(&resumed.stdout);
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert_eq!(resumed.status.code(), Some(0), "{len}: {stdout}\n{stderr}");
        assert!(stdout.contains("(8 runs replayed)"), "{len}: {stdout}");
        assert!(
            stdout.contains("appended  : 0 journal lines"),
            "{len}: {stdout}"
        );
        assert_eq!(
            std::fs::read(&journal).unwrap(),
            intact,
            "{len}: tail truncated"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(inode, mtime)` of every `.rec` record directly under `dir`, by name.
#[cfg(unix)]
fn records(
    dir: &std::path::Path,
) -> std::collections::BTreeMap<String, (u64, std::time::SystemTime)> {
    use std::os::unix::fs::MetadataExt;
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "rec"))
        .map(|e| {
            let meta = e.metadata().unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, (meta.ino(), meta.modified().unwrap()))
        })
        .collect()
}

/// A resume over a populated cache directory writes only the records the
/// directory lacks: every other `.rec` keeps its inode and mtime, and the
/// CSV bytes are the cold run's.
#[cfg(unix)]
#[test]
fn resume_over_a_populated_cache_leaves_its_records_untouched() {
    let dir = work_dir("backfill");
    std::fs::write(
        dir.join("b.spec"),
        "kind = model\nalg = nbody\nn = 10000,20000\np = geom:6:100:8\nmem = 2000,4000\nf = 10\n",
    )
    .unwrap();
    let cache = dir.join("cache");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |csv: &str, extra: &[&str]| {
        let (spec, cache, journal, csv) =
            (path("b.spec"), path("cache"), path("b.journal"), path(csv));
        let mut args = vec!["lab", "run", "--spec", &spec, "--cache", &cache];
        args.extend(["--journal", &journal, "--out", &csv, "--profile", "off"]);
        args.extend_from_slice(extra);
        let out = psse(&args);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    run("cold.csv", &[]);
    let mut before = records(&cache);
    assert_eq!(before.len(), 32);
    // Three records go missing; the resume writes those back.
    let missing: Vec<String> = before.keys().step_by(10).cloned().collect();
    for name in &missing {
        std::fs::remove_file(cache.join(name)).unwrap();
        before.remove(name);
    }
    let stdout = run("resumed.csv", &["--resume"]);
    assert!(stdout.contains("(32 runs replayed)"), "{stdout}");
    let after = records(&cache);
    for (name, stamp) in &before {
        assert_eq!(after.get(name), Some(stamp), "{name} was rewritten");
    }
    assert!(
        missing.iter().all(|name| after.contains_key(name)),
        "back-fill"
    );
    assert_eq!(
        std::fs::read(path("resumed.csv")).unwrap(),
        std::fs::read(path("cold.csv")).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
