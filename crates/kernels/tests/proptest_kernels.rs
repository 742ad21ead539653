//! Property-based tests of the local kernels: algebraic identities over
//! random inputs and shapes.

use proptest::prelude::*;
use psse_kernels::fft::{dft_naive, fft, fft_in_place, ifft, Complex64, Direction};
use psse_kernels::gemm::{matmul, matmul_naive};
use psse_kernels::lu::{
    apply_permutation, lu_partial_pivot_inplace, solve, solve_unit_lower, solve_upper, split_lu,
};
use psse_kernels::matrix::Matrix;
use psse_kernels::qr::householder_qr;
use psse_kernels::rng::XorShift64;
use psse_kernels::stencil::{box_sweep, extend_periodic};
use psse_kernels::strassen::{strassen_winograd, strassen_with_cutoff};

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|_| Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
        .collect()
}

/// The per-cell box sweep `box_sweep` replaced, kept as its oracle: one
/// scalar accumulator per cell, neighbours in ascending `(di, dj)`
/// order, periodic on a `rows × cols` torus (the wrap is widened to a
/// true modulus so that it stays defined for `h` beyond the grid).
fn per_cell_sweep(grid: &[f64], rows: usize, cols: usize, h: usize) -> Vec<f64> {
    let wrap = |x: usize, n: usize| (x + n - h % n) % n;
    let inv = 1.0 / ((2 * h + 1) * (2 * h + 1)) as f64;
    let mut out = vec![0.0; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0.0;
            for di in 0..=2 * h {
                let r = wrap(i + di, rows);
                for dj in 0..=2 * h {
                    let c = wrap(j + dj, cols);
                    acc += grid[r * cols + c];
                }
            }
            out[i * cols + j] = acc * inv;
        }
    }
    out
}

/// Grid values in `[-1, 1)` salted with the floats whose handling a
/// reordered or fused sum would give away.
fn awkward_grid(len: usize, seed: u64) -> Vec<f64> {
    const AWKWARD: [f64; 8] = [
        -0.0,
        0.0,
        5e-324,
        -2.5e-310,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
    ];
    let mut rng = XorShift64::new(seed);
    (0..len)
        .map(|_| {
            let x = rng.range_f64(-1.0, 1.0);
            match (x.abs() * 64.0) as usize {
                k if k < AWKWARD.len() => AWKWARD[k],
                _ => x,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Periodic extension + the row-innermost kernel reproduce the
    /// per-cell loop bit for bit: square and non-square tiles, a single
    /// cell, halos at and beyond the grid side, repeated sweeps.
    #[test]
    fn box_sweep_matches_the_per_cell_loop(
        rows in 1usize..10,
        cols in 1usize..10,
        h in 0usize..12,
        iters in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut fast = awkward_grid(rows * cols, seed);
        let mut slow = fast.clone();
        for sweep in 0..iters {
            let ext = extend_periodic(&fast, rows, cols, h, h);
            box_sweep(&ext, cols + 2 * h, rows, cols, h, &mut fast);
            slow = per_cell_sweep(&slow, rows, cols, h);
            for (cell, (a, b)) in fast.iter().zip(&slow).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{}×{} h={} sweep {} cell {}: {} vs {}", rows, cols, h, sweep, cell, a, b
                );
            }
        }
    }

    /// Blocked GEMM equals the naive triple loop on arbitrary shapes.
    #[test]
    fn gemm_matches_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-11);
    }

    /// Distributivity: A(B + C) = AB + AC.
    #[test]
    fn gemm_distributes(n in 1usize..24, seed in 0u64..1000) {
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 1);
        let c = Matrix::random(n, n, seed + 2);
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-11);
    }

    /// Transpose reverses products: (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn transpose_reverses_products(m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..1000) {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 7);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-11);
    }

    /// Both Strassen variants agree with the classical product for any
    /// square size and cutoff.
    #[test]
    fn strassen_variants_match(n in 1usize..48, cutoff in 1usize..16, seed in 0u64..1000) {
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 3);
        let reference = matmul_naive(&a, &b);
        prop_assert!(strassen_with_cutoff(&a, &b, cutoff).max_abs_diff(&reference) < 1e-9);
        prop_assert!(strassen_winograd(&a, &b, cutoff).max_abs_diff(&reference) < 1e-9);
    }

    /// Pivoted LU reconstructs P·A, and `solve` inverts it.
    #[test]
    fn lu_reconstructs_and_solves(n in 1usize..24, seed in 0u64..1000) {
        let a = Matrix::random(n, n, seed);
        let mut packed = a.clone();
        // Random matrices are almost surely nonsingular; skip the rare
        // failure rather than fail the property.
        let Ok(perm) = lu_partial_pivot_inplace(&mut packed) else {
            return Ok(());
        };
        let (l, u) = split_lu(&packed);
        let pa = apply_permutation(&a, &perm);
        prop_assert!(matmul(&l, &u).relative_error(&pa) < 1e-8);

        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        if let Ok(x) = solve(&a, &b) {
            // Verify the residual rather than x itself (the matrix may
            // be ill-conditioned).
            for i in 0..n {
                let ax: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
                prop_assert!((ax - b[i]).abs() < 1e-6 * (1.0 + b[i].abs()));
            }
        }
    }

    /// Triangular solves invert triangular products.
    #[test]
    fn triangular_solves_invert(n in 1usize..20, cols in 1usize..6, seed in 0u64..1000) {
        let mut l = Matrix::random(n, n, seed);
        for i in 0..n {
            l[(i, i)] = 1.0;
            for j in (i + 1)..n {
                l[(i, j)] = 0.0;
            }
        }
        let x = Matrix::random(n, cols, seed + 5);
        let b = matmul(&l, &x);
        prop_assert!(solve_unit_lower(&l, &b).max_abs_diff(&x) < 1e-8);

        let mut u = Matrix::random(n, n, seed + 9);
        for i in 0..n {
            u[(i, i)] = 2.0 + u[(i, i)].abs(); // well-conditioned diagonal
            for j in 0..i {
                u[(i, j)] = 0.0;
            }
        }
        let b = matmul(&u, &x);
        prop_assert!(solve_upper(&u, &b).unwrap().max_abs_diff(&x) < 1e-8);
    }

    /// FFT: inverse and naive-DFT agreement, linearity and time-shift.
    #[test]
    fn fft_identities(log_n in 1u32..9, seed in 0u64..1000) {
        let n = 1usize << log_n;
        let x = signal(n, seed);

        // Roundtrip.
        let back = ifft(&fft(&x));
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-10);
        }

        // Against the O(n²) oracle (small sizes only).
        if n <= 128 {
            let slow = dft_naive(&x, Direction::Forward);
            for (a, b) in fft(&x).iter().zip(&slow) {
                prop_assert!((*a - *b).abs() < 1e-8);
            }
        }

        // Time-shift theorem: rotating the input multiplies bin k by
        // e^(-2πik/n).
        let mut shifted = x.clone();
        shifted.rotate_left(1);
        let fs = fft(&shifted);
        let fx = fft(&x);
        for (k, (s, o)) in fs.iter().zip(&fx).enumerate() {
            let w = Complex64::from_polar(2.0 * std::f64::consts::PI * k as f64 / n as f64);
            prop_assert!((*s - *o * w).abs() < 1e-8, "bin {k}");
        }
    }

    /// Parseval for any power-of-two length.
    #[test]
    fn fft_parseval(log_n in 1u32..12, seed in 0u64..1000) {
        let n = 1usize << log_n;
        let mut x = signal(n, seed);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        fft_in_place(&mut x, Direction::Forward);
        let ey: f64 = x.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((ex - ey).abs() < 1e-9 * ex.max(1.0));
    }

    /// QR: reconstruction, orthonormality and triangularity for random
    /// tall shapes.
    #[test]
    fn qr_identities(m in 1usize..40, n_frac in 0.0..1.0f64, seed in 0u64..1000) {
        let n = 1 + ((m - 1) as f64 * n_frac) as usize; // 1 <= n <= m
        let a = Matrix::random(m, n, seed);
        let (q, r) = householder_qr(&a);
        prop_assert!(matmul(&q, &r).relative_error(&a) < 1e-9);
        let qtq = matmul(&q.transpose(), &q);
        prop_assert!(qtq.relative_error(&Matrix::identity(n)) < 1e-9);
        for i in 0..n {
            prop_assert!(r[(i, i)] >= 0.0);
            for j in 0..i {
                prop_assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    /// Matrix block extraction/insertion roundtrips for any geometry.
    #[test]
    fn block_roundtrip(
        rows in 1usize..30,
        cols in 1usize..30,
        seed in 0u64..1000,
        r0f in 0.0..1.0f64,
        c0f in 0.0..1.0f64,
    ) {
        let m = Matrix::random(rows, cols, seed);
        let r0 = ((rows - 1) as f64 * r0f) as usize;
        let c0 = ((cols - 1) as f64 * c0f) as usize;
        let br = rows - r0;
        let bc = cols - c0;
        let blk = m.block(r0, c0, br, bc);
        let mut back = Matrix::zeros(rows, cols);
        back.set_block(r0, c0, &blk);
        for i in 0..br {
            for j in 0..bc {
                prop_assert_eq!(back[(r0 + i, c0 + j)], m[(r0 + i, c0 + j)]);
            }
        }
    }
}
