//! Property-based tests of the local kernels: algebraic identities over
//! random inputs and shapes.

use proptest::prelude::*;
use psse_kernels::fft::{dft_naive, fft, fft_in_place, ifft, Complex64, Direction};
use psse_kernels::gemm::{matmul, matmul_naive};
use psse_kernels::lu::{
    apply_permutation, lu_partial_pivot_inplace, solve, solve_unit_lower, solve_upper, split_lu,
};
use psse_kernels::matrix::Matrix;
use psse_kernels::nbody::{accumulate_forces, Particle, SOFTENING};
use psse_kernels::qr::householder_qr;
use psse_kernels::rng::XorShift64;
use psse_kernels::sort::sort_total;
use psse_kernels::stencil::{box_sweep, extend_periodic};
use psse_kernels::strassen::strassen_with_cutoff;

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

/// The per-target force loop `accumulate_forces` replaced, kept
/// verbatim as its oracle.
fn per_target_forces(targets: &[Particle], sources: &[Particle], acc: &mut [[f64; 3]]) {
    assert_eq!(targets.len(), acc.len(), "one accumulator per target");
    for (t, a) in targets.iter().zip(acc.iter_mut()) {
        for s in sources {
            let dx = s.pos[0] - t.pos[0];
            let dy = s.pos[1] - t.pos[1];
            let dz = s.pos[2] - t.pos[2];
            let r2 = dx * dx + dy * dy + dz * dz + SOFTENING * SOFTENING;
            if r2 <= 2.0 * SOFTENING * SOFTENING {
                // Same position (self-interaction under block replication).
                continue;
            }
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r * inv_r * inv_r;
            let f = s.mass * inv_r3;
            a[0] += f * dx;
            a[1] += f * dy;
            a[2] += f * dz;
        }
    }
}

/// A quiet NaN carrying `payload`.
fn nan(payload: u64) -> f64 {
    f64::from_bits(f64::NAN.to_bits() | payload)
}

/// A signalling NaN: an add returns it quieted, so its bits change.
const SIGNALLING_NAN: f64 = f64::from_bits(0x7ff0_0000_0000_0001);

/// Particles in the unit cube salted with what a lane kernel could get
/// wrong: copies of an earlier particle (a coincident pair), copies
/// moved by up to two softening lengths along one axis (`|d|² ≤ S²`
/// and just past it, with two differences exactly zero), and masses
/// drawn from `masses`.
fn awkward_particles(n: usize, masses: &[f64], seed: u64) -> Vec<Particle> {
    let mut rng = XorShift64::new(seed);
    let mut ps: Vec<Particle> = Vec::with_capacity(n);
    for _ in 0..n {
        let pos = [(); 3].map(|_| rng.range_f64(0.0, 1.0));
        let mut p = Particle::at(pos, rng.range_f64(0.0, 1.0));
        match rng.below(6) {
            0 if !ps.is_empty() => p.pos = ps[rng.below(ps.len())].pos,
            1 if !ps.is_empty() => {
                p.pos = ps[rng.below(ps.len())].pos;
                p.pos[rng.below(3)] += rng.range_f64(-2.0, 2.0) * SOFTENING;
            }
            2 => p.mass = masses[rng.below(masses.len())],
            _ => {}
        }
        ps.push(p);
    }
    ps
}

/// Starting accumulators: `+0.0`, as every in-tree caller passes, with
/// a quarter of the words drawn from `salt`.
fn awkward_accumulators(n: usize, salt: &[f64], seed: u64) -> Vec<[f64; 3]> {
    let mut rng = XorShift64::new(seed ^ 0x5eed);
    let mut pick = || match rng.below(4) {
        0 if !salt.is_empty() => salt[rng.below(salt.len())],
        _ => 0.0,
    };
    (0..n).map(|_| [pick(), pick(), pick()]).collect()
}

/// Sort keys salted with every class `f64::total_cmp` orders: both
/// zeros, both infinities, NaNs of both signs with payloads (quiet and
/// signalling), subnormals, extremes, and duplicates of earlier keys.
fn awkward_keys(len: usize, seed: u64) -> Vec<f64> {
    let awkward = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        nan(0xabc),
        -nan(0x123),
        SIGNALLING_NAN,
        f64::from_bits(0xfff0_0000_0000_0002),
        5e-324,
        -5e-324,
        2.5e-310,
        -2.5e-310,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
    ];
    let mut rng = XorShift64::new(seed);
    let mut keys: Vec<f64> = Vec::with_capacity(len);
    for _ in 0..len {
        let key = match rng.below(3) {
            0 => awkward[rng.below(awkward.len())],
            1 if !keys.is_empty() => keys[rng.below(keys.len())],
            _ => rng.range_f64(-1.0, 1.0),
        };
        keys.push(key);
    }
    keys
}

/// The bits of every accumulator word.
fn acc_bits(acc: &[[f64; 3]]) -> Vec<u64> {
    acc.iter().flatten().map(|x| x.to_bits()).collect()
}

#[test]
fn a_skipped_pair_leaves_its_accumulator_bits_alone() {
    // Four coincident targets (one lane block), each its own only
    // source: every pair is skipped, so `-0.0` stays `-0.0`, a
    // signalling NaN stays signalling, and an infinite mass never meets
    // the `0` it would make NaN.
    let ps = vec![Particle::at([0.5; 3], f64::INFINITY); 4];
    for start in [-0.0, 0.0, SIGNALLING_NAN] {
        let mut fast = vec![[start; 3]; 4];
        let mut slow = fast.clone();
        accumulate_forces(&ps, &ps, &mut fast);
        per_target_forces(&ps, &ps, &mut slow);
        assert_eq!(acc_bits(&fast), acc_bits(&slow), "start {start:?}");
        assert_eq!(acc_bits(&fast), vec![start.to_bits(); 12]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The lane-blocked force kernel reproduces the per-target loop bit
    /// for bit: 0–9 targets and larger blocks (every lane remainder), a
    /// partial source block of the same cloud (self pairs included),
    /// coincident and near-coincident pairs, non-finite masses, and
    /// accumulators starting at `+0.0` or salted with `-0.0` and NaNs.
    ///
    /// An add of two different NaNs may return either (IEEE 754 leaves
    /// it open, and so does Rust: the operand order is the register
    /// allocator's), for the loop as much as for the lanes. So each
    /// `mode` lets one NaN pattern arise per word: finite masses with
    /// any accumulator; NaN masses of one payload; or infinite masses,
    /// whose `inf·0` and `inf − inf` make the host's default NaN, with
    /// that NaN as the NaN mass.
    #[test]
    fn accumulate_forces_matches_the_per_target_loop(
        few in 0usize..10,
        many in 10usize..70,
        wide in 0usize..2,
        from in 0usize..80,
        len in 0usize..80,
        mode in 0usize..3,
        salted in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let host_nan = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
        let (masses, salt) = match mode {
            0 => (vec![0.0], vec![-0.0, nan(7), SIGNALLING_NAN, f64::NEG_INFINITY, -1.5]),
            1 => (vec![nan(0x2a), 0.0], vec![-0.0, f64::INFINITY, 0.25]),
            _ => (vec![f64::INFINITY, f64::NEG_INFINITY, host_nan], vec![-0.0, host_nan]),
        };
        let salt = if salted == 1 { salt } else { Vec::new() };
        let nt = if wide == 1 { many } else { few };
        let cloud = awkward_particles(nt + 16, &masses, seed);
        let targets = &cloud[..nt];
        let from = from % cloud.len();
        let sources = &cloud[from..(from + len).min(cloud.len())];
        let mut fast = awkward_accumulators(nt, &salt, seed);
        let mut slow = fast.clone();
        accumulate_forces(targets, sources, &mut fast);
        per_target_forces(targets, sources, &mut slow);
        for (i, (a, b)) in fast.iter().flatten().zip(slow.iter().flatten()).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "mode {} {} targets, sources {}..+{}, word {}: {:?} vs {:?}",
                mode, nt, from, len, i, a, b
            );
        }
    }

    /// `sort_total` leaves the bits `sort_by(f64::total_cmp)` leaves.
    #[test]
    fn sort_total_matches_the_total_cmp_sort(len in 0usize..300, seed in 0u64..1_000_000) {
        let mut fast = awkward_keys(len, seed);
        let mut slow = fast.clone();
        sort_total(&mut fast);
        slow.sort_by(f64::total_cmp);
        let bits = |keys: &[f64]| keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

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

    /// Strassen agrees with the classical product for any square size
    /// and cutoff.
    #[test]
    fn strassen_matches_classical(n in 1usize..48, cutoff in 1usize..16, seed in 0u64..1000) {
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 3);
        let reference = matmul_naive(&a, &b);
        prop_assert!(strassen_with_cutoff(&a, &b, cutoff).max_abs_diff(&reference) < 1e-9);
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
