//! Acceptance tests for the batch engine: a ≥200-run spec executes
//! through the worker pool with byte-identical output for any `--jobs`
//! value, and a warm persistent cache answers ≥95% of a rerun.

use psse_lab::prelude::*;

/// 15 × 15 = 225 model runs over the Fig. 4-style (p, M) plane.
const SPEC: &str = "\
kind = model
alg  = nbody
# contrived Fig. 4 machine
machine = jaketown
gamma-t = 1e-9
beta-t  = 2e-8
alpha-t = 1e-6
gamma-e = 1e-9
beta-e  = 4e-6
alpha-e = 1e-4
delta-e = 5e-4
epsilon-e = 0
max-message = 100
mem-words = 1e12
n    = 10000
p    = geom:6:100:15
mem  = geomf:2e2:1e6:15
f    = 10
";

fn lab(jobs: usize, dir: Option<std::path::PathBuf>) -> Lab {
    Lab::new(LabConfig {
        jobs,
        cache_dir: dir,
        ..LabConfig::default()
    })
}

#[test]
fn jobs_1_and_jobs_8_emit_identical_bytes() {
    let spec = SweepSpec::parse(SPEC).unwrap();
    assert!(spec.len() >= 200, "spec covers {} runs", spec.len());

    let s1 = lab(1, None).run_spec(&spec);
    let s8 = lab(8, None).run_spec(&spec);
    assert_eq!(s1.failures(), 0);
    assert_eq!(s8.failures(), 0);

    let csv1 = sweep_csv(&s1.keys, &s1.results);
    let csv8 = sweep_csv(&s8.keys, &s8.results);
    assert_eq!(csv1, csv8, "CSV must be byte-identical for any job count");
    assert_eq!(
        pareto_csv(&s1.keys, &s1.results),
        pareto_csv(&s8.keys, &s8.results)
    );
    // Sanity: the sweep actually covers feasible and infeasible cells.
    let (feasible, infeasible) = s1.feasibility();
    assert!(feasible > 0 && infeasible > 0);
}

#[test]
fn warm_cache_rerun_hits_95_percent_with_identical_bytes() {
    let dir = std::env::temp_dir().join(format!("psse-lab-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::parse(SPEC).unwrap();

    // Cold run populates the persistent cache.
    let cold = lab(8, Some(dir.clone()));
    let s_cold = cold.run_spec(&spec);
    let csv_cold = sweep_csv(&s_cold.keys, &s_cold.results);
    assert_eq!(s_cold.failures(), 0);

    // Fresh engine, same directory: everything answers from disk.
    let warm = lab(8, Some(dir.clone()));
    let s_warm = warm.run_spec(&spec);
    let csv_warm = sweep_csv(&s_warm.keys, &s_warm.results);

    let stats = warm.cache_stats();
    assert!(
        stats.hit_rate() >= 95.0,
        "warm cache hit rate {:.1}% (hits {}, misses {})",
        stats.hit_rate(),
        stats.hits,
        stats.misses
    );
    assert_eq!(csv_cold, csv_warm, "warm rerun must emit identical bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sabotaged_cache_records_never_alter_csv_bytes() {
    let dir = std::env::temp_dir().join(format!("psse-lab-sab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::parse(SPEC).unwrap();

    let cold = lab(4, Some(dir.clone()));
    let s_cold = cold.run_spec(&spec);
    let csv_cold = sweep_csv(&s_cold.keys, &s_cold.results);
    assert_eq!(s_cold.failures(), 0);

    // Sabotage four records four different ways: empty file, truncated
    // line, random garbage, and a valid record copied under the wrong
    // digest filename (content/filename mismatch).
    let mut recs: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rec"))
        .collect();
    recs.sort();
    assert!(recs.len() >= 4, "expected ≥4 records, got {}", recs.len());
    std::fs::write(&recs[0], "").unwrap();
    let half = std::fs::read(&recs[1]).unwrap();
    std::fs::write(&recs[1], &half[..half.len() / 2]).unwrap();
    let stolen = std::fs::read(&recs[2]).unwrap();
    std::fs::write(&recs[2], "not a record at all\n").unwrap();
    std::fs::write(&recs[3], &stolen).unwrap(); // recs[2]'s bytes under recs[3]'s name

    // A fresh engine re-reads the directory: every sabotaged record is
    // a miss (recomputed), quarantined, and the CSV bytes are unchanged.
    let warm = lab(4, Some(dir.clone()));
    let s_warm = warm.run_spec(&spec);
    assert_eq!(
        sweep_csv(&s_warm.keys, &s_warm.results),
        csv_cold,
        "sabotaged records must never alter CSV bytes"
    );
    let stats = warm.cache_stats();
    assert_eq!(stats.corrupt, 4, "{stats:?}");
    assert_eq!(stats.quarantined, 4, "{stats:?}");
    let qdir = dir.join(QUARANTINE_SUBDIR);
    assert_eq!(std::fs::read_dir(&qdir).unwrap().count(), 4);

    // The rewrite healed the cache: a third engine hits everything.
    let healed = lab(4, Some(dir.clone()));
    let s_healed = healed.run_spec(&spec);
    assert_eq!(sweep_csv(&s_healed.keys, &s_healed.results), csv_cold);
    assert_eq!(healed.cache_stats().corrupt, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_degrades_without_changing_bytes() {
    // A cache "directory" that is actually a file: every disk write
    // fails, the engine warns once and carries on without it, and the CSV
    // is byte-identical to the diskless run.
    let path = std::env::temp_dir().join(format!("psse-lab-notadir-{}", std::process::id()));
    std::fs::write(&path, "occupied").unwrap();
    let spec = SweepSpec::parse(SPEC).unwrap();
    let plain = lab(4, None).run_spec(&spec);
    let degraded = lab(4, Some(path.clone())).run_spec(&spec);
    assert_eq!(
        sweep_csv(&plain.keys, &plain.results),
        sweep_csv(&degraded.keys, &degraded.results),
    );
    assert_eq!(degraded.failures(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn simulator_sweep_is_order_stable_across_jobs() {
    use psse_core::machines::jaketown;
    let keys: Vec<RunKey> = (0..6)
        .map(|i| {
            let mut k = RunKey::simulate("mm25d", 24, 4, jaketown());
            k.seed = 1 + (i % 3) as u64; // duplicates → intra-sweep cache hits
            k
        })
        .collect();
    let l1 = lab(1, None);
    let r1 = l1.run_keys(&keys);
    let l8 = lab(8, None);
    let r8 = l8.run_keys(&keys);
    for (a, b) in r1.iter().zip(&r8) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    // Serial engine sees every duplicate as a hit.
    assert_eq!(l1.cache_stats().misses, 3);
    assert_eq!(l1.cache_stats().hits, 3);
}
