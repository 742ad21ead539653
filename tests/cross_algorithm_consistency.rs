//! Cross-algorithm consistency: every distributed implementation must
//! agree with its sequential reference and with each other.

use psse::kernels::fft::{fft, Complex64};
use psse::kernels::gemm::matmul;
use psse::kernels::lu::{lu_nopivot_inplace, split_lu};
use psse::kernels::nbody::{accumulate_forces, random_particles};
use psse::kernels::rng::XorShift64;
use psse::kernels::strassen::strassen;
use psse::kernels::Matrix;
use psse::prelude::*;
use psse::sim::machine::SimConfig;
use psse::sim::{programs::Stencil1D, run_programs};

#[test]
fn all_matmul_algorithms_agree() {
    let n = 16;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let cfg = SimConfig::counters_only;

    let reference = matmul(&a, &b);
    let seq_strassen = strassen(&a, &b);
    let (cannon, _) = cannon_matmul(&a, &b, 16, cfg()).unwrap();
    let (summa, _) = summa_matmul(&a, &b, 16, 4, cfg()).unwrap();
    let (mm25, _) = matmul_25d(&a, &b, 32, 2, cfg()).unwrap();
    let (mm3, _) = matmul_3d(&a, &b, 64, cfg()).unwrap();
    let (strd, _) = strassen_distributed(&a, &b, 7, cfg()).unwrap();

    for (name, m) in [
        ("sequential strassen", &seq_strassen),
        ("cannon", &cannon),
        ("summa", &summa),
        ("2.5d", &mm25),
        ("3d", &mm3),
        ("distributed strassen", &strd),
    ] {
        assert!(
            m.max_abs_diff(&reference) < 1e-9,
            "{name} disagrees with the reference product"
        );
    }
}

#[test]
fn distributed_lu_reconstructs_input() {
    let n = 32;
    let a = Matrix::random_diagonally_dominant(n, 4);
    let (packed, _) = lu_2d(&a, 16, SimConfig::counters_only()).unwrap();
    let (l, u) = split_lu(&packed);
    let recon = matmul(&l, &u);
    assert!(recon.relative_error(&a) < 1e-10);

    // And matches the sequential factorization elementwise.
    let mut seq = a.clone();
    lu_nopivot_inplace(&mut seq).unwrap();
    assert!(packed.max_abs_diff(&seq) < 1e-9);
}

#[test]
fn distributed_fft_variants_agree_with_kernel() {
    let n = 1024;
    let mut rng = XorShift64::new(6);
    let x: Vec<Complex64> = (0..n)
        .map(|_| Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
        .collect();
    let reference = fft(&x);
    for kind in [AllToAllKind::Pairwise, AllToAllKind::Hypercube] {
        let (spec, _) = distributed_fft(&x, 8, kind, SimConfig::counters_only()).unwrap();
        let err = spec
            .iter()
            .zip(&reference)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-8, "{kind:?}: max error {err}");
    }
}

#[test]
fn nbody_variants_agree_with_serial() {
    let ps = random_particles(64, 8);
    let mut serial = vec![[0.0; 3]; ps.len()];
    accumulate_forces(&ps, &ps, &mut serial);

    let (ring, _) = nbody_replicated(&ps, 8, 1, SimConfig::counters_only()).unwrap();
    let (repl, _) = nbody_replicated(&ps, 8, 4, SimConfig::counters_only()).unwrap();
    for i in 0..ps.len() {
        for d in 0..3 {
            assert!((ring[i][d] - serial[i][d]).abs() < 1e-9);
            assert!((repl[i][d] - serial[i][d]).abs() < 1e-9);
        }
    }
}

#[test]
fn stencil_implementations_agree_bit_for_bit() {
    // Serial, thread 1-D slabs, thread 2-D tiles and the event program
    // fill their halo-extended buffers four different ways and share one
    // sweep kernel: the same grid must come out, to the bit.
    let (n, h, iters) = (24usize, 2usize, 3usize);
    let grid = random_grid(n, 21);
    let cfg = SimConfig::counters_only;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let reference = bits(&serial_stencil(&grid, n, h, iters));

    for (decomp, p) in [
        (Decomp::OneD, 1),
        (Decomp::OneD, 4),
        (Decomp::TwoD, 1),
        (Decomp::TwoD, 9),
    ] {
        let (out, _) = halo_stencil(&grid, n, h, iters, decomp, p, cfg()).unwrap();
        assert_eq!(bits(&out), reference, "threads {decomp:?} p={p}");
    }
    for (p, backend) in [
        (1, Backend::Events),
        (6, Backend::Events),
        (6, Backend::Threads),
    ] {
        let cfg = SimConfig { backend, ..cfg() };
        let run = run_programs(p, &cfg, Stencil1D::with_data(grid.clone(), n, h, iters)).unwrap();
        let out: Vec<f64> = run
            .programs
            .iter()
            .flat_map(|prog| prog.result().expect("data mode").to_vec())
            .collect();
        assert_eq!(bits(&out), reference, "Stencil1D p={p} {backend:?}");
    }
}

#[test]
fn profiles_conserve_traffic() {
    // Every word sent over a link is received exactly once — across all
    // algorithm families.
    let a = Matrix::random(16, 16, 1);
    let b = Matrix::random(16, 16, 2);
    let (_, p1) = matmul_25d(&a, &b, 32, 2, SimConfig::counters_only()).unwrap();
    let ps = random_particles(32, 2);
    let (_, p2) = nbody_replicated(&ps, 8, 2, SimConfig::counters_only()).unwrap();
    let mut rng = XorShift64::new(1);
    let x: Vec<Complex64> = (0..256)
        .map(|_| Complex64::new(rng.next_f64(), rng.next_f64()))
        .collect();
    let (_, p3) =
        distributed_fft(&x, 4, AllToAllKind::Hypercube, SimConfig::counters_only()).unwrap();
    let adm = Matrix::random_diagonally_dominant(16, 3);
    let (_, p4) = lu_2d(&adm, 16, SimConfig::counters_only()).unwrap();
    for (name, profile) in [("2.5d", p1), ("nbody", p2), ("fft", p3), ("lu", p4)] {
        let (sent, recvd) = profile.words_balance();
        assert_eq!(sent, recvd, "{name}: sent {sent} != received {recvd}");
    }
}

#[test]
fn memory_limit_enforces_the_replication_tradeoff() {
    // Failure injection: a machine whose per-rank memory holds the 2D
    // working set but not the replicated one must run c = 1 and reject
    // c = 4 with a MemoryLimitExceeded error — the physical constraint
    // behind the paper's M ≤ n²/p^(2/3) ceiling.
    let n = 32;
    let a = Matrix::random(n, n, 11);
    let b = Matrix::random(n, n, 12);
    // q = 8 at c = 1: blocks of (n/8)² = 16 words, footprint 4·16 = 64.
    // q = 4 at c = 4 (same p = 64): blocks of 64 words, footprint 256.
    let cfg = |limit: u64| psse::sim::machine::SimConfig {
        mem_limit_words: Some(limit),
        ..psse::sim::machine::SimConfig::counters_only()
    };
    assert!(matmul_25d(&a, &b, 64, 1, cfg(100)).is_ok());
    let r = matmul_25d(&a, &b, 64, 4, cfg(100));
    assert!(
        matches!(r, Err(psse::sim::SimError::MemoryLimitExceeded { .. })),
        "replication must be rejected when memory does not allow it: {r:?}"
    );
    // With enough memory the replicated run goes through.
    assert!(matmul_25d(&a, &b, 64, 4, cfg(1000)).is_ok());
}

#[test]
fn deterministic_profiles_across_runs() {
    let a = Matrix::random(32, 32, 5);
    let b = Matrix::random(32, 32, 6);
    let run = || matmul_25d(&a, &b, 32, 2, SimConfig::default()).unwrap().1;
    let p1 = run();
    let p2 = run();
    assert_eq!(p1, p2, "simulator must be deterministic");
}
