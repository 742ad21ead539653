//! Group commit: the journal writes whole lines in record order, so the
//! file is always an intact prefix of what was recorded; a `record` made
//! 10 ms after the last write writes every pending line; and a sweep
//! returns with its journal complete on disk.

use std::path::{Path, PathBuf};
use std::time::Duration;

use psse_lab::prelude::*;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psse-lab-gc-{name}-{}", std::process::id()))
}

fn r(i: u64) -> RunResult {
    RunResult::model(
        !i.is_multiple_of(3),
        1.0 + i as f64,
        2.0 * i as f64,
        100.0 / (1 + i) as f64,
    )
}

fn d(i: u64) -> Digest {
    Digest([i.wrapping_mul(0x9e37_79b9_7f4a_7c15), !i])
}

/// The file's bytes split after each newline.
fn lines(path: &Path) -> Vec<Vec<u8>> {
    std::fs::read(path)
        .unwrap()
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect()
}

#[test]
fn a_forgotten_journal_leaves_an_intact_prefix_in_record_order() {
    // Enough lines for several 64 KiB groups.
    const N: u64 = 1200;
    let (full, cut) = (tmp("full"), tmp("forgotten"));
    {
        let j = Journal::create(&full, "feed").unwrap();
        (0..N).for_each(|i| j.record(&d(i), &r(i)));
    }
    let expected = lines(&full);
    assert_eq!(expected.len() as u64, 1 + N);

    let j = Journal::create(&cut, "feed").unwrap();
    (0..N).for_each(|i| j.record(&d(i), &r(i)));
    // A process killed mid-sweep: no flush, no drop.
    std::mem::forget(j);
    let written = lines(&cut);
    let k = written.len() - 1;
    assert!(k > 0, "at least one 64 KiB group reached the file");
    assert_eq!(written, expected[..=k], "whole lines, in record order");

    let (_j, replayed) = Journal::open_resume(&cut, "feed").unwrap();
    assert_eq!(replayed.len(), k);
    for i in 0..k as u64 {
        assert_eq!(replayed.get(&d(i)), Some(&r(i)), "line {i}");
    }
    for path in [full, cut] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_record_10_ms_after_the_last_write_writes_every_pending_line() {
    let path = tmp("age");
    let j = Journal::create(&path, "feed").unwrap();
    j.record(&d(1), &r(1));
    j.record(&d(2), &r(2));
    std::thread::sleep(Duration::from_millis(12));
    j.record(&d(3), &r(3));
    // Read with the journal still open: nothing is left pending.
    assert_eq!(lines(&path).len(), 1 + 3);
    drop(j);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_sweep_returns_with_its_journal_complete_and_counted() {
    let spec = SweepSpec::parse(
        "kind = model\nalg = nbody\nn = 10000,20000\np = geom:4:400:40\n\
         mem = geomf:2e2:2e4:5\nf = 10\n",
    )
    .unwrap();
    let sweep = ExpandedSweep::new(spec.expand());
    let distinct: std::collections::HashSet<Digest> =
        sweep.keys().iter().map(RunKey::digest_bits).collect();
    let sd = sweep.spec_digest();
    for jobs in [1, 3] {
        let path = tmp(&format!("sweep-j{jobs}"));
        let mut lab = Lab::new(LabConfig {
            jobs,
            ..LabConfig::default()
        });
        lab.set_journal(Journal::create(&path, &sd).unwrap());
        let results = lab.run_sweep(sweep.clone());
        assert_eq!(results.failures(), 0);
        // The lab (and its journal) is still alive.
        let on_disk = lines(&path).len() as u64 - 1;
        assert_eq!(on_disk, distinct.len() as u64, "jobs = {jobs}");
        assert_eq!(lab.journal().unwrap().appended(), on_disk, "jobs = {jobs}");
        let copy = tmp(&format!("sweep-j{jobs}-copy"));
        std::fs::copy(&path, &copy).unwrap();
        let (_j, replayed) = Journal::open_resume(&copy, &sd).unwrap();
        assert!(
            distinct.iter().all(|d| replayed.contains_key(d)),
            "jobs = {jobs}"
        );
        drop(lab);
        for p in [path, copy] {
            let _ = std::fs::remove_file(p);
        }
    }
}
