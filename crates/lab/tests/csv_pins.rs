//! Byte pins for what the lab writes: the `--out` and `--pareto` CSVs of
//! two shipped specs, and the canonical JSON of a self-profile. The
//! fixtures were written by `psse lab run` before the number writer
//! replaced `core::fmt` in these emitters, so a mismatch is a change in
//! the printed bytes, not in the sweep.

use std::path::PathBuf;

use psse_lab::prelude::*;
use psse_metrics::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// FNV-1a, 64-bit: a digest that is the same on every host and build.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn lab() -> Lab {
    Lab::new(LabConfig {
        jobs: 1,
        ..LabConfig::default()
    })
}

fn sweep_of(stem: &str) -> ExpandedSweep {
    let path = repo_root().join(format!("specs/{stem}.spec"));
    let spec = SweepSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    ExpandedSweep::new(spec.expand())
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(repo_root().join(format!("tests/fixtures/{name}_prepr.csv"))).unwrap()
}

#[test]
fn sweep_and_pareto_csvs_match_their_fixtures() {
    for stem in ["ci_smoke", "matmul_pareto"] {
        let sweep = lab().run_sweep(sweep_of(stem));
        assert_eq!(sweep.failures(), 0, "{stem}");
        let csv = sweep_csv(&sweep.keys, &sweep.results);
        assert!(csv == fixture(&format!("{stem}_sweep")), "{stem} --out");
        let front = pareto_csv(&sweep.keys, &sweep.results);
        assert!(
            front == fixture(&format!("{stem}_front")),
            "{stem} --pareto"
        );
    }
}

/// The self-profile of `ci_smoke` with its host timings zeroed, plus a
/// float row covering both layouts' edges (`Json::Float` prints the
/// bytes of `{}` with `.0` appended to a whole number).
#[test]
fn profile_json_is_pinned() {
    let (_, mut profile) = lab().run_sweep_profiled(sweep_of("ci_smoke"));
    profile.wall_ns = 0;
    profile.runs.iter_mut().for_each(|r| r.wall_ns = 0);
    profile.workers.iter_mut().for_each(|w| w.busy_ns = 0);
    let floats = [
        0.0,
        -0.0,
        1.0,
        0.1,
        -2.5,
        1e-7,
        1.5e300,
        123456789.125,
        f64::MIN_POSITIVE,
        5e-324,
        1e16,
        f64::MAX,
        2f64.powi(-25),
        f64::from_bits(0x4310_0000_0000_0001),
        1.0 / 3.0,
        f64::NAN,
        f64::NEG_INFINITY,
    ];
    let ints = [i128::MIN, -1, 0, 9, 10, u64::MAX as i128, i128::MAX];
    let Json::Obj(pairs) = &mut profile.metrics else {
        panic!("the metrics snapshot is an object")
    };
    pairs.push((
        "pin.floats".into(),
        Json::Arr(floats.map(Json::Float).into()),
    ));
    pairs.push(("pin.ints".into(), Json::Arr(ints.map(Json::Int).into())));
    let text = profile.to_json().to_string();
    assert_eq!(
        fnv(text.as_bytes()),
        0x099f_9a8c_6781_ce22,
        "profile JSON digest moved: {:#018x} ({} bytes)",
        fnv(text.as_bytes()),
        text.len()
    );
}
