//! `psse-ledger compare A.json B.json`: per workload × end-to-end
//! metric, both medians, the ratio with its base, the bound, and a
//! verdict. `A` is the base (the parent commit, or the first of two
//! sets of the same code).

use crate::host::{iqr_share, median};
use crate::json::Json;
use crate::metrics::END_TO_END;

/// Verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `B` is no worse than `A` by more than the bound.
    Ok,
    /// `B` is worse than `A` by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot resolve a difference of that size.
    Unresolved,
}

/// Values of one end-to-end metric of one workload in a ledger file.
fn values(ledger: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let vals = ledger
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?;
    vals.as_arr()?.iter().map(Json::as_f64).collect()
}

fn failed(ledger: &Json, workload: &str) -> f64 {
    let w = ledger.get("workloads").and_then(|w| w.get(workload));
    let get = |k: &str| {
        w.and_then(|w| w.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    if get("attempted") > 0.0 {
        get("failed") / get("attempted")
    } else {
        0.0
    }
}

/// Judge one pairing. `worse_by` is how much worse `b` is than `a` as a
/// share of `a`, in the metric's own direction (negative = better).
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    // Quartiles of fewer than four runs are extrapolations: a side that
    // small cannot show that a difference is unresolved.
    let spread = |v: &[f64]| if v.len() >= 4 { iqr_share(v) } else { 0.0 };
    let spread = spread(a).max(spread(b));
    // Every run of B reads better than every run of A.
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_all_better = if higher_is_better {
        min(b) > max(a)
    } else {
        max(b) < min(a)
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread > bound && !b_all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare two ledger files; returns the report and whether any pairing
/// is worse or any workload's failure share rose.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no `workloads`")?;
    let mut report = format!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut bad = false;
    for (workload, _) in workloads {
        for (metric, unit, better, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (values(a, workload, metric), values(b, workload, metric))
            else {
                return Err(format!("{workload}/{metric} missing from one of the files"));
            };
            let (worse_by, verdict) = judge(&va, &vb, better == "higher", bound);
            bad |= verdict == Verdict::Worse;
            let verdict = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Worse => format!("worse ({:+.1} %)", worse_by * 100.0),
                Verdict::Unresolved => "unresolved (spread > bound)".to_string(),
            };
            report.push_str(&format!(
                "{workload:<16} {metric:<12} {:>14.6} {:>14.6} {:>9.4} {bound:>6.2}  {verdict} [{unit}, base A]\n",
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
            ));
        }
        let (fa, fb) = (failed(a, workload), failed(b, workload));
        if fb > fa {
            bad = true;
            report.push_str(&format!(
                "{workload:<16} fail_frac rose from {fa} to {fb}\n"
            ));
        }
    }
    Ok((report, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00];
        // Within the bound.
        assert_eq!(
            judge(&a, &[1.05, 1.04, 1.06, 1.05], false, 0.10).1,
            Verdict::Ok
        );
        // Slower by more than the bound; faster is never worse.
        assert_eq!(
            judge(&a, &[1.2, 1.21, 1.19, 1.2], false, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[0.5, 0.51, 0.49, 0.5], false, 0.10).1,
            Verdict::Ok
        );
        // For higher-is-better the direction flips.
        assert_eq!(
            judge(&a, &[0.8, 0.81, 0.79, 0.8], true, 0.10).1,
            Verdict::Worse
        );
        // A spread wider than the bound resolves nothing ...
        let noisy = [0.7, 1.3, 1.0, 0.8, 1.25];
        assert_eq!(judge(&a, &noisy, false, 0.10).1, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&a, &[0.2, 0.5, 0.35, 0.25, 0.45], false, 0.10).1,
            Verdict::Ok
        );
    }
}
