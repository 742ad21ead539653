//! Smoke test: a `--quick` traced set must emit every workload and every
//! metric `BENCHMARK.json` names — exactly once, with the unit named
//! there, finite — and the traced iteration's spans must account for
//! its whole wall time.

use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(section: &Json) -> Vec<(String, String)> {
    section
        .as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("metric without {k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_set_emits_every_named_metric_once_and_spans_add_up() {
    let out = std::env::temp_dir().join(format!("psse-ledger-smoke-{}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_psse-ledger"))
        .args(["run", "--quick", "--traced", "--seconds", "0.5", "--out"])
        .arg(&out)
        // The ledger must clear these itself.
        .env("PSSE_EVENT_WORKERS", "2")
        .status()
        .expect("spawn psse-ledger");
    assert!(
        status.success(),
        "quick set failed (wrong output, failed operation or stat drift)"
    );

    let benchmark = load(&repo_root().join("BENCHMARK.json"));
    let ledger = load(&out.join("ledger.json"));
    assert_eq!(
        ledger.get("claim"),
        Some(&Json::Null),
        "the ledger never claims a gain"
    );
    let (_, last) = ledger.as_obj().unwrap().last().unwrap().clone();
    assert_eq!(last, Json::Null, "the summary ends with the claim");

    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let emitted = ledger.get("workloads").and_then(Json::as_obj).unwrap();
    assert_eq!(
        emitted.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        workloads
    );

    for (workload, entry) in emitted {
        assert!(valid_name(workload), "{workload}");
        assert_eq!(
            entry.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        for section in ["end_to_end", "per_layer"] {
            let want = names(benchmark.get(section).unwrap());
            let got = entry
                .get(section)
                .and_then(Json::as_obj)
                .unwrap_or_else(|| panic!("{workload}/{section}"));
            // Same names, same order, so each is emitted exactly once.
            let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got_names, want_names, "{workload}/{section}");
            for ((name, unit), (_, metric)) in want.iter().zip(got) {
                assert!(valid_name(name), "{name}");
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{workload}/{name}"
                );
                let value = metric.get("median").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}/{name} = {value:?}"
                );
                if section == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{workload}/{name} must never be 0");
                }
            }
        }

        // Attributed spans + residuals == the traced iteration's wall.
        let trace = load(&out.join(format!("trace.{workload}.json")));
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
        let dur = |s: &Json| num(s, "end_s") - num(s, "start_s");
        let iter = spans
            .iter()
            .position(|s| s.get("name").and_then(Json::as_str) == Some("iter"))
            .unwrap();
        // Self time of every span in the iteration's subtree.
        let in_subtree = |mut i: usize| loop {
            if i == iter {
                return true;
            }
            match spans[i].get("parent").and_then(Json::as_f64) {
                Some(p) => i = p as usize,
                None => return false,
            }
        };
        let attributed: f64 = (0..spans.len())
            .filter(|&i| in_subtree(i))
            .map(|i| {
                let children: f64 = spans
                    .iter()
                    .filter(|c| c.get("parent").and_then(Json::as_f64) == Some(i as f64))
                    .map(&dur)
                    .sum();
                dur(&spans[i]) - children
            })
            .sum();
        let wall = dur(&spans[iter]);
        assert!(
            (attributed - wall).abs() <= 0.01 * wall,
            "{workload}: {attributed} vs {wall}"
        );
        assert!(
            spans.len() > 2,
            "{workload}: the traced iteration recorded no layer calls"
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn compare_accepts_a_set_against_itself_and_rejects_a_slower_one() {
    let dir = std::env::temp_dir().join(format!("psse-ledger-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = |wall: f64| {
        format!(
            "{{\"workloads\": {{\"w\": {{\"attempted\": 10, \"failed\": 0, \"end_to_end\": {{\
             \"setup_s\": {{\"values\": [1.0]}}, \"wall_s\": {{\"values\": [{wall}]}}, \
             \"work_per_s\": {{\"values\": [{}]}}, \"cpu_s\": {{\"values\": [1.0]}}, \
             \"peak_rss_mb\": {{\"values\": [10.0]}}}}}}}}, \"claim\": null}}",
            1.0 / wall
        )
    };
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&a, ledger(1.0)).unwrap();
    std::fs::write(&b, ledger(1.5)).unwrap();
    let run = |x: &Path, y: &Path| {
        Command::new(env!("CARGO_BIN_EXE_psse-ledger"))
            .arg("compare")
            .args([x, y])
            .output()
            .expect("spawn")
    };
    assert!(run(&a, &a).status.success());
    let slower = run(&a, &b);
    assert_eq!(slower.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&slower.stdout).contains("worse"));
    // Faster is never a regression.
    assert!(run(&b, &a).status.success());
    std::fs::remove_dir_all(&dir).ok();
}
