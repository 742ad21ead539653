//! Golden-file contract for `psse bound`.
//!
//! The `--csv` row format and the `explain` report are compatibility
//! surfaces: this test diffs the shipped kernels against
//! `tests/fixtures/hbl_range_golden.csv` and the matmul report against
//! `tests/fixtures/hbl_explain_matmul.txt` from inside `cargo test`. If
//! an intentional format change lands, regenerate the fixtures with the
//! commands shown in each assertion message.

use std::fs;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run(argv: &[&str]) -> String {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    psse_cli::run(&argv, &mut out).expect("bound command failed");
    out
}

#[test]
fn range_csv_over_all_shipped_kernels_matches_the_golden_file() {
    let root = repo_root();
    let mut kernels: Vec<PathBuf> = fs::read_dir(root.join("specs/kernels"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "kernel"))
        .collect();
    kernels.sort();
    assert!(kernels.len() >= 5, "expected >= 5 shipped kernels");

    let mut csv = String::from("kernel,sigma,n,mem,p_min,p_max\n");
    for path in &kernels {
        csv.push_str(&run(&[
            "bound",
            "range",
            "--kernel",
            path.to_str().unwrap(),
            "--n",
            "8192",
            "--mem",
            "1000000",
            "--csv",
        ]));
    }
    let golden = fs::read_to_string(root.join("tests/fixtures/hbl_range_golden.csv")).unwrap();
    assert_eq!(
        csv, golden,
        "regenerate with: psse bound range --kernel specs/kernels/<k>.kernel \
         --n 8192 --mem 1000000 --csv"
    );
}

#[test]
fn explain_matmul_matches_the_golden_report() {
    let root = repo_root();
    let out = run(&[
        "bound",
        "explain",
        "--kernel",
        root.join("specs/kernels/matmul.kernel").to_str().unwrap(),
    ]);
    let golden = fs::read_to_string(root.join("tests/fixtures/hbl_explain_matmul.txt")).unwrap();
    assert_eq!(
        out, golden,
        "regenerate with: psse bound explain --kernel specs/kernels/matmul.kernel"
    );
}
