//! Acceptance test for the `kernel =` spec axis: a sweep whose cost
//! model is derived from `specs/kernels/matmul.kernel` must price every
//! point bit-for-bit identically to the hand-written `alg = matmul`
//! sweep — same feasibility flags, same time/energy/power bytes in the
//! CSV — while occupying distinct cache slots (the kernel text is part
//! of the run identity).

use psse_lab::prelude::*;

fn kernel_path() -> String {
    format!(
        "{}/../../specs/kernels/matmul.kernel",
        env!("CARGO_MANIFEST_DIR")
    )
}

const GRID: &str = "n = 1024\np = pow2:4:32\nmem = geomf:2e4:3e5:4\n";

#[test]
fn kernel_matmul_sweep_is_bit_identical_to_alg_matmul() {
    let by_kernel =
        SweepSpec::parse(&format!("kind = model\nkernel = {}\n{GRID}", kernel_path())).unwrap();
    let by_alg = SweepSpec::parse(&format!("kind = model\nalg = matmul\n{GRID}")).unwrap();
    assert_eq!(by_kernel.key.alg, "kernel:matmul");
    assert_eq!(by_kernel.len(), by_alg.len());

    // Distinct identities: every kernel-run digest differs from its
    // alg-run counterpart (and the kernel text is what separates them).
    let (ka, kb) = (by_kernel.expand(), by_alg.expand());
    for (a, b) in ka.iter().zip(&kb) {
        assert_ne!(a.digest(), b.digest());
        assert!(a.kernel.is_some() && b.kernel.is_none());
    }

    // Identical prices: the CSVs agree on every byte once the alg
    // label is normalized away.
    let lab = Lab::new(LabConfig::default());
    let ra = lab.run_spec(&by_kernel);
    let rb = lab.run_spec(&by_alg);
    let csv_a = sweep_csv(&ra.keys, &ra.results).replace("kernel:matmul", "matmul");
    let csv_b = sweep_csv(&rb.keys, &rb.results);
    assert_eq!(csv_a, csv_b);
    assert!(csv_a.lines().count() > by_kernel.len(), "no failed rows");
}

#[test]
fn kernel_sweep_minimal_memory_sentinel_matches_too() {
    // `mem` omitted: the 0.0 sentinel resolves to the algorithm's
    // minimal memory, which the derived model must reproduce exactly.
    let by_kernel = SweepSpec::parse(&format!(
        "kind = model\nkernel = {}\nn = 512\np = 4,9,16\n",
        kernel_path()
    ))
    .unwrap();
    let by_alg = SweepSpec::parse("kind = model\nalg = matmul\nn = 512\np = 4,9,16\n").unwrap();
    let lab = Lab::new(LabConfig::default());
    let ra = lab.run_spec(&by_kernel);
    let rb = lab.run_spec(&by_alg);
    for (a, b) in ra.results.iter().zip(&rb.results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.mem_used.to_bits(), b.mem_used.to_bits());
        assert_eq!(a.time.to_bits(), b.time.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.feasible, b.feasible);
    }
}

#[test]
fn kernel_model_rides_on_the_key_after_the_file_is_gone() {
    // The spec compiles the kernel file once; expansion and pricing
    // never go back to the path.
    let dir = std::env::temp_dir().join(format!("psse-kernel-gone-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let copy = dir.join("mm.kernel");
    std::fs::copy(kernel_path(), &copy).unwrap();
    let spec = SweepSpec::parse(&format!(
        "kind = model\nkernel = {}\n{GRID}",
        copy.display()
    ))
    .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let by_alg = SweepSpec::parse(&format!("kind = model\nalg = matmul\n{GRID}")).unwrap();
    let lab = Lab::new(LabConfig::default());
    let (ra, rb) = (lab.run_spec(&spec), lab.run_spec(&by_alg));
    assert_eq!(ra.failures(), 0);
    assert_eq!(ra.results, rb.results);
    // `execute` is a pure function of the key alone.
    assert_eq!(execute(&ra.keys[0]), ra.results[0]);
}

#[test]
fn empty_memory_band_is_a_typed_error_not_a_panic() {
    // tensor.kernel: one copy of the rank-3 operand needs n³/p words,
    // the replication limit is n^(8/3)/p^(2/3). At (16, 4) and (64, 4)
    // the first exceeds the second — an empty band; at (64, 64) they
    // are equal up to rounding (4096 vs 4095.9999999999977).
    let tensor = format!(
        "{}/../../specs/kernels/tensor.kernel",
        env!("CARGO_MANIFEST_DIR")
    );
    let spec = SweepSpec::parse(&format!(
        "kind = model\nkernel = {tensor}\nn = 16,64\np = 4,64\n"
    ))
    .unwrap();
    let sweep = Lab::new(LabConfig::default()).run_spec(&spec);
    let at = |n, p| {
        let i = sweep
            .keys
            .iter()
            .position(|k| (k.n, k.p) == (n, p))
            .unwrap();
        &sweep.results[i]
    };
    for (n, p) in [(16, 4), (64, 4)] {
        let err = at(n, p).as_ref().unwrap_err();
        assert!(err.contains("outside valid range ["), "({n}, {p}): {err}");
        assert!(!err.contains("panic"), "({n}, {p}): {err}");
    }
    assert_eq!(
        at(16, 4).as_ref().unwrap_err(),
        "memory per processor M = 1024 words outside valid range [1024, 645.0795775461748]"
    );
    assert!(at(16, 64).as_ref().unwrap().feasible);
    // Empty by rounding only: priced at the one admissible memory.
    let edge = at(64, 64).as_ref().unwrap();
    assert_eq!(edge.mem_used, 4096.0);
    assert!(edge.time > 0.0 && edge.energy > 0.0);

    // `clamp = true` meets the same bands and must not panic either.
    let clamped = SweepSpec::parse(&format!(
        "kind = model\nkernel = {tensor}\nn = 16,64\np = 4,64\nmem = 100\nclamp = true\n"
    ))
    .unwrap();
    let sweep = Lab::new(LabConfig::default()).run_spec(&clamped);
    assert_eq!(sweep.failures(), 2);
    assert!(sweep
        .results
        .iter()
        .all(|r| r.as_ref().map_or_else(|e| !e.contains("panic"), |_| true)));
}
