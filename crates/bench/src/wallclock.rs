//! Machinery of the `wallclock_transport` suite: best-of-N timing, the
//! `PSSE_WALLCLOCK_*` environment knobs, and the phase-merging JSON
//! writer behind `BENCH_sim.json` (and behind the committed
//! `BENCH_event.json`, whose suite the ledger's `event-mega` workload
//! replaced).
//!
//! A wall-clock suite is run twice — once on the code *before* an
//! optimisation (`PSSE_WALLCLOCK_PHASE=before`) and once after
//! (`=after`, the default) — and both phases merge into one JSON
//! document at the workspace root. When both phases are present the
//! writer recomputes `speedup_before_over_after` per entry, so the
//! committed file is the optimisation's receipt.

use psse_metrics::Json;
use std::path::PathBuf;
use std::time::Instant;

/// One timed suite entry: label plus best-of-`reps` milliseconds.
pub struct Entry {
    /// Entry label, e.g. `event/p100k`.
    pub name: String,
    /// Rank count of the timed run (for display/analysis; not written).
    pub p: usize,
    /// Best-of-N wall-clock milliseconds.
    pub millis: f64,
}

/// Time `f` `reps` times and keep the minimum (least-noise estimate).
pub fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The `PSSE_WALLCLOCK_QUICK=1` knob: reduced payloads, one repetition
/// (the CI perf-smoke setting).
pub fn quick() -> bool {
    std::env::var("PSSE_WALLCLOCK_QUICK").is_ok_and(|v| v == "1")
}

/// The `PSSE_WALLCLOCK_PHASE` knob (default `after`).
pub fn phase() -> String {
    std::env::var("PSSE_WALLCLOCK_PHASE").unwrap_or_else(|_| "after".into())
}

/// Resolve `file_name` at the workspace root (cargo bench sets cwd to
/// the package dir, so walk two levels up from `CARGO_MANIFEST_DIR`).
pub fn workspace_file(file_name: &str) -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let base = PathBuf::from(dir);
            base.parent()
                .and_then(|p| p.parent())
                .map(|ws| ws.join(file_name))
                .unwrap_or_else(|| base.join(file_name))
        }
        None => PathBuf::from(file_name),
    }
}

/// Merge `phase → entries` into `prior` (a previously written suite
/// document, if any) and recompute `speedup_before_over_after` for
/// every entry present in both phases. Pure function of its inputs —
/// the file plumbing lives in [`write_phase_json`].
pub fn merge_phase_doc(
    prior: Option<&Json>,
    suite: &str,
    phase: &str,
    entries: &[Entry],
    quick: bool,
) -> Json {
    let mut phases: Vec<(String, Json)> = Vec::new();
    if let Some(Json::Obj(pairs)) = prior.and_then(|p| p.get("phases")).cloned() {
        phases = pairs.into_iter().filter(|(k, _)| k != phase).collect();
    }
    let mine = Json::Obj(
        entries
            .iter()
            .map(|e| (e.name.clone(), Json::Float(e.millis)))
            .collect(),
    );
    phases.push((phase.to_string(), mine));
    phases.sort_by(|a, b| a.0.cmp(&b.0)); // "after" < "before": stable order
    let speedup = match (
        phases.iter().find(|(k, _)| k == "before"),
        phases.iter().find(|(k, _)| k == "after"),
    ) {
        (Some((_, Json::Obj(before))), Some((_, Json::Obj(after)))) => {
            let mut s: Vec<(String, Json)> = Vec::new();
            for (k, b) in before {
                if let (Some(bv), Some(av)) = (
                    b.as_f64(),
                    after
                        .iter()
                        .find(|(ak, _)| ak == k)
                        .and_then(|(_, v)| v.as_f64()),
                ) {
                    if av > 0.0 {
                        s.push((k.clone(), Json::Float((bv / av * 100.0).round() / 100.0)));
                    }
                }
            }
            Json::Obj(s)
        }
        _ => Json::Obj(Vec::new()),
    };
    Json::obj(vec![
        ("suite", Json::Str(suite.into())),
        (
            "units",
            Json::Str("milliseconds wall-clock, best of N repetitions".into()),
        ),
        ("quick", Json::Bool(quick)),
        ("phases", Json::Obj(phases)),
        ("speedup_before_over_after", speedup),
    ])
}

/// Merge `phase → entries` into the existing JSON document at
/// `<workspace>/<file_name>` (if any) and write it back.
pub fn write_phase_json(file_name: &str, suite: &str, phase: &str, entries: &[Entry], quick: bool) {
    let path = workspace_file(file_name);
    let prior = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let doc = merge_phase_doc(prior.as_ref(), suite, phase, entries, quick);
    std::fs::write(&path, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, ms: f64) -> Entry {
        Entry {
            name: name.into(),
            p: 4,
            millis: ms,
        }
    }

    #[test]
    fn phases_merge_and_speedups_recompute() {
        let before = merge_phase_doc(None, "s", "before", &[entry("a", 100.0)], false);
        assert!(before.get("phases").unwrap().get("before").is_some());
        let both = merge_phase_doc(
            Some(&before),
            "s",
            "after",
            &[entry("a", 20.0), entry("b", 1.0)],
            false,
        );
        let phases = both.get("phases").unwrap();
        assert!(phases.get("before").is_some());
        assert!(phases.get("after").is_some());
        let speedup = both.get("speedup_before_over_after").unwrap();
        assert_eq!(speedup.get("a").and_then(|v| v.as_f64()), Some(5.0));
        assert!(speedup.get("b").is_none(), "after-only entries are skipped");
    }

    #[test]
    fn rewriting_a_phase_replaces_it() {
        let v1 = merge_phase_doc(None, "s", "after", &[entry("a", 10.0)], true);
        let v2 = merge_phase_doc(Some(&v1), "s", "after", &[entry("a", 4.0)], true);
        let after = v2.get("phases").unwrap().get("after").unwrap();
        assert_eq!(after.get("a").and_then(|v| v.as_f64()), Some(4.0));
    }

    #[test]
    fn time_best_takes_minimum() {
        let mut calls = 0;
        let ms = time_best(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(ms >= 0.0 && ms.is_finite());
    }
}
