//! Every figure reproduces its committed `bench_results/` files byte for
//! byte, and every committed file there is written by a figure.

use psse_bench::figures::FIGURES;
use psse_bench::RESULTS_DIR;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Written by `psse faults sweep` (README "Fault injection"), not by a
/// figure.
const NOT_FROM_A_FIGURE: &str = "fault_overhead_sweep.csv";

/// The 1-based line of the first byte where `a` and `b` differ.
fn first_differing_line(a: &[u8], b: &[u8]) -> usize {
    let i = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    a[..i].iter().filter(|&&c| c == b'\n').count() + 1
}

#[test]
fn every_figure_reproduces_bench_results_byte_for_byte() {
    let dir = Path::new(RESULTS_DIR);
    let mut written = BTreeSet::new();
    let mut differ = Vec::new();
    for (figure, run) in FIGURES {
        for (name, bytes) in run() {
            assert!(written.insert(name), "{figure} writes {name} a second time");
            match fs::read(dir.join(name)) {
                Ok(committed) if committed == bytes.as_bytes() => {}
                Ok(committed) => differ.push(format!(
                    "{name} ({figure}): differs from line {}",
                    first_differing_line(&committed, bytes.as_bytes())
                )),
                Err(e) => differ.push(format!("{name} ({figure}): {e}")),
            }
        }
    }
    assert!(
        differ.is_empty(),
        "figures differ from bench_results/:\n{}",
        differ.join("\n")
    );

    let stray: Vec<String> = fs::read_dir(dir)
        .expect("bench_results/ is readable")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name != NOT_FROM_A_FIGURE && !written.contains(name.as_str()))
        .collect();
    assert!(
        stray.is_empty(),
        "bench_results/ holds files no figure writes: {stray:?}"
    );
}
