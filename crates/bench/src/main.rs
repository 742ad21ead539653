//! `cargo run --release -p psse-bench`: run every figure (each asserts
//! the paper's shapes) and write the files they make into
//! `bench_results/`. A rerun leaves `git status` clean.

use psse_bench::figures::FIGURES;
use psse_bench::RESULTS_DIR;
use std::path::Path;

fn main() {
    for (_, figure) in FIGURES {
        for (name, bytes) in figure() {
            let path = Path::new(RESULTS_DIR).join(name);
            std::fs::write(&path, bytes)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            println!("wrote bench_results/{name}");
        }
    }
}
