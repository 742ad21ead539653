//! Acceptance tests for journal growth and format compatibility: a
//! resumed sweep appends only the runs its journal lacks (none, when
//! the journal is complete), hits served from the `.rec` cache are still
//! journaled, and a journal written before the allocation-free codecs
//! replays under them byte for byte.

use std::path::{Path, PathBuf};

use psse_lab::prelude::*;

/// 2 × 6 × 3 model runs; the repeated `p = 8` makes six of them
/// duplicates, so 30 distinct keys.
const SPEC: &str = "kind = model\nalg = nbody\nn = 10000,20000\np = 4,8,8,16,32,64\n\
                    mem = geomf:2e2:2e4:3\nf = 10\n";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psse-lab-jr-{name}-{}", std::process::id()))
}

fn lab(cache_dir: Option<PathBuf>) -> Lab {
    Lab::new(LabConfig {
        jobs: 1,
        cache_dir,
        ..LabConfig::default()
    })
}

fn distinct(keys: &[RunKey]) -> usize {
    keys.iter()
        .map(RunKey::digest_bits)
        .collect::<std::collections::HashSet<_>>()
        .len()
}

/// `--resume` as the CLI does it. Returns the results, how many runs
/// were replayed and how many lines this pass appended.
fn resume(spec: &SweepSpec, journal: &Path) -> (SweepResults, usize, u64) {
    let sweep = ExpandedSweep::new(spec.expand());
    let (journal, replayed) = Journal::open_resume(journal, &sweep.spec_digest()).unwrap();
    let mut lab = lab(None);
    lab.seed(&replayed);
    lab.set_journal(journal);
    let results = lab.run_sweep(sweep);
    let appended = lab.journal().unwrap().appended();
    (results, replayed.len(), appended)
}

#[test]
fn complete_journal_does_not_grow_on_resume() {
    let spec = SweepSpec::parse(SPEC).unwrap();
    let path = tmp("complete");
    let sweep = ExpandedSweep::new(spec.expand());
    let runs = distinct(sweep.keys());
    assert_eq!((sweep.keys().len(), runs), (36, 30));

    let mut first = lab(None);
    first.set_journal(Journal::create(&path, &sweep.spec_digest()).unwrap());
    let cold = first.run_sweep(sweep);
    assert_eq!(cold.failures(), 0);
    // One line per distinct run: a duplicate key is not journaled twice.
    assert_eq!(first.journal().unwrap().appended(), runs as u64);
    drop(first);
    let written = std::fs::read(&path).unwrap();
    assert_eq!(written.iter().filter(|&&b| b == b'\n').count(), 1 + runs);

    for pass in 0..2 {
        let (resumed, replayed, appended) = resume(&spec, &path);
        assert_eq!(resumed.results, cold.results, "pass {pass}");
        assert_eq!((replayed, appended), (runs, 0), "pass {pass}");
        assert_eq!(std::fs::read(&path).unwrap(), written, "pass {pass}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_resume_appends_exactly_the_missing_runs() {
    let spec = SweepSpec::parse(SPEC).unwrap();
    let path = tmp("torn");
    let sweep = ExpandedSweep::new(spec.expand());
    let runs = distinct(sweep.keys());
    let mut first = lab(None);
    first.set_journal(Journal::create(&path, &sweep.spec_digest()).unwrap());
    let cold = first.run_sweep(sweep);
    drop(first);
    let written = std::fs::read(&path).unwrap();

    // Lose the last two lines and tear the one before them.
    let ends: Vec<usize> = (0..written.len())
        .filter(|&i| written[i] == b'\n')
        .collect();
    std::fs::write(&path, &written[..ends[runs - 3] + 40]).unwrap();
    let (resumed, replayed, appended) = resume(&spec, &path);
    assert_eq!(resumed.results, cold.results);
    assert_eq!((replayed, appended), (runs - 3, 3));
    // One worker journals in spec order, so the file is whole again.
    assert_eq!(std::fs::read(&path).unwrap(), written);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rec_cache_hits_are_journaled_so_the_journal_stays_self_sufficient() {
    let spec = SweepSpec::parse(SPEC).unwrap();
    let (dir, path) = (tmp("rec-dir"), tmp("rec-journal"));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = lab(Some(dir.clone())).run_spec(&spec);
    let runs = distinct(&cold.keys);

    // A new engine on the warm `.rec` cache with a fresh journal: every
    // run is a disk hit, and every run still gets its line.
    let sweep = ExpandedSweep::new(spec.expand());
    let mut warm = lab(Some(dir.clone()));
    warm.set_journal(Journal::create(&path, &sweep.spec_digest()).unwrap());
    let served = warm.run_sweep(sweep);
    assert_eq!(served.stats.misses, 0);
    assert_eq!(warm.journal().unwrap().appended(), runs as u64);
    drop(warm);

    // The journal alone now resumes the sweep.
    let (resumed, replayed, appended) = resume(&spec, &path);
    assert_eq!(resumed.results, cold.results);
    assert_eq!((replayed, appended), (runs, 0));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_written_before_the_buffer_codecs_replays_unchanged() {
    // `tests/fixtures/ci_smoke_prepr.journal` is `psse lab run --spec
    // specs/ci_smoke.spec --jobs 1 --journal …` at the commit before the
    // line codecs were rewritten (format!-built lines, hex digests).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("specs/ci_smoke.spec")).unwrap();
    let spec = SweepSpec::parse(&text).unwrap();
    let fixture = std::fs::read(root.join("tests/fixtures/ci_smoke_prepr.journal")).unwrap();
    let path = tmp("prepr");
    std::fs::write(&path, &fixture).unwrap();

    let fresh = lab(None).run_spec(&spec);
    let (resumed, replayed, appended) = resume(&spec, &path);
    assert_eq!(replayed, distinct(&fresh.keys), "every run replayed");
    assert_eq!(appended, 0);
    assert_eq!(resumed.stats.misses, 0, "nothing re-executed");
    assert_eq!(std::fs::read(&path).unwrap(), fixture, "journal untouched");
    assert_eq!(
        sweep_csv(&resumed.keys, &resumed.results),
        sweep_csv(&fresh.keys, &fresh.results)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fresh_journals_match_the_ones_written_before_their_kernels() {
    // Each fixture is `psse lab run --spec specs/<spec> --jobs 1
    // --journal …` at the commit before a kernel it runs was rewritten:
    // `stencil_sweep{,_threads}_prepr` before the serial reference and
    // the simulated sweep shared `psse_kernels::stencil::box_sweep`
    // (the threads one from the same spec with `backend = threads`);
    // `nbody_sweep_prepr` before the lane-blocked force kernel;
    // `samplesort_sweep_prepr` before `psse_kernels::sort::sort_total`.
    // The runner's in-run checks compare each kernel with itself or
    // check a tolerance; these bytes (output digest, time, energy,
    // counters) are what tie its arithmetic to the loops it replaced.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |spec: &str| std::fs::read_to_string(root.join("specs").join(spec)).unwrap();
    let events = read("stencil_sweep.spec");
    assert!(events.contains("backend = events"));
    let threads = events.replace("backend = events", "backend = threads");
    for (text, stem) in [
        (events, "stencil_sweep_prepr"),
        (threads, "stencil_sweep_threads_prepr"),
        (read("nbody_sweep.spec"), "nbody_sweep_prepr"),
        (read("samplesort_sweep.spec"), "samplesort_sweep_prepr"),
    ] {
        let fixture = std::fs::read(root.join(format!("tests/fixtures/{stem}.journal"))).unwrap();
        let sweep = ExpandedSweep::new(SweepSpec::parse(&text).unwrap().expand());
        let path = tmp(stem);
        let mut lab = lab(None);
        lab.set_journal(Journal::create(&path, &sweep.spec_digest()).unwrap());
        assert_eq!(lab.run_sweep(sweep).failures(), 0, "{stem}");
        drop(lab);
        let written = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written == fixture, "{stem}: journal bytes drifted");
    }
}
