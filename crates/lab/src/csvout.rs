//! CSV emission for sweep results, compatible with the `bench_results/`
//! conventions (header row, comma-separated, one row per run).
//!
//! Floats are written with `{:?}` — Rust's shortest round-trip
//! representation — so the emitted bytes are a pure function of the
//! result bits. That is the property the CI determinism smoke leans on:
//! `--jobs 1` and `--jobs 8` must produce byte-identical files, and so
//! must a warm-cache rerun.

use std::fmt::Write;

use crate::key::RunKey;
use crate::pareto::pareto_indices;
use crate::result::RunResult;

/// Render the full sweep as CSV, one row per run in spec order.
/// Failed runs are skipped (they have no numbers to report); callers
/// surface failures separately.
pub fn sweep_csv(keys: &[RunKey], results: &[Result<RunResult, String>]) -> String {
    const HEADER: &str = "alg,kind,n,p,c,mem_words,feasible,time_s,energy_j,power_w\n";
    // Sized for the whole sweep up front (a row of a model sweep is
    // about a hundred bytes), so rows are written in place.
    let mut out = String::with_capacity(HEADER.len() + 128 * results.len());
    out.push_str(HEADER);
    for (key, res) in keys.iter().zip(results) {
        if let Ok(r) = res {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:?},{},{:?},{:?},{:?}",
                key.alg,
                key.kind.as_str(),
                key.n,
                key.p,
                key.c,
                r.mem_used,
                r.feasible as u8,
                r.time,
                r.energy,
                r.power(),
            );
        }
    }
    out
}

/// Render the per-`n` (time, energy) Pareto frontiers as CSV. Only
/// feasible, successful runs compete; rows keep spec order within each
/// frontier.
pub fn pareto_csv(keys: &[RunKey], results: &[Result<RunResult, String>]) -> String {
    const HEADER: &str = "n,p,c,mem_words,time_s,energy_j\n";
    // A frontier holds a small share of the sweep; one row is about
    // seventy bytes.
    let mut out = String::with_capacity(HEADER.len() + 8 * results.len());
    out.push_str(HEADER);
    // Group by n, preserving first-appearance order.
    let mut ns: Vec<u64> = Vec::new();
    for key in keys {
        if !ns.contains(&key.n) {
            ns.push(key.n);
        }
    }
    for n in ns {
        let idx: Vec<usize> = (0..keys.len())
            .filter(|&i| keys[i].n == n && matches!(&results[i], Ok(r) if r.feasible))
            .collect();
        let pts: Vec<(f64, f64)> = idx
            .iter()
            .map(|&i| {
                let r = results[i].as_ref().unwrap();
                (r.time, r.energy)
            })
            .collect();
        for fi in pareto_indices(&pts) {
            let i = idx[fi];
            let r = results[i].as_ref().unwrap();
            let _ = writeln!(
                out,
                "{},{},{},{:?},{:?},{:?}",
                n, keys[i].p, keys[i].c, r.mem_used, r.time, r.energy,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::machines::jaketown;

    fn fixture() -> (Vec<RunKey>, Vec<Result<RunResult, String>>) {
        let keys = vec![
            RunKey::model("nbody", 1000, 10, jaketown()),
            RunKey::model("nbody", 1000, 20, jaketown()),
            RunKey::model("nbody", 2000, 10, jaketown()),
        ];
        let results = vec![
            Ok(RunResult::model(true, 2.0, 5.0, 100.0)),
            Ok(RunResult::model(true, 1.0, 5.0, 100.0)),
            Err("boom".into()),
        ];
        (keys, results)
    }

    #[test]
    fn sweep_csv_has_header_and_skips_failures() {
        let (keys, results) = fixture();
        let csv = sweep_csv(&keys, &results);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 ok rows
        assert!(lines[0].starts_with("alg,kind,n,p,c,"));
        assert!(lines[1].starts_with("nbody,model,1000,10,1,"));
    }

    #[test]
    fn pareto_csv_groups_by_n_and_drops_dominated() {
        let (keys, results) = fixture();
        let csv = pareto_csv(&keys, &results);
        let lines: Vec<&str> = csv.lines().collect();
        // (1.0, 5.0) dominates (2.0, 5.0); n=2000 failed → no rows.
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("1000,20,1,"));
    }
}
