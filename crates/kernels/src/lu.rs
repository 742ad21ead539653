//! LU factorization and triangular solves.
//!
//! Provides the local kernels of the distributed LU algorithm
//! (`psse-algos::lu`): unpivoted in-place LU (used on diagonally dominant
//! blocks, where it is backward stable), partially pivoted LU (the
//! general-purpose sequential reference), and the triangular solves used
//! for panel updates and for verifying factorizations.

#[cfg(test)]
use crate::gemm;
use crate::matrix::Matrix;

/// Error type for singular or near-singular pivots.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularError {
    /// Index of the failing pivot.
    pub pivot: usize,
    /// Magnitude of the failing pivot.
    pub value: f64,
}

impl std::fmt::Display for SingularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular pivot {} at index {}", self.value, self.pivot)
    }
}

impl std::error::Error for SingularError {}

const PIVOT_TOL: f64 = 1e-300;

/// In-place unpivoted LU: on return `a` holds `U` in its upper triangle
/// (inclusive of the diagonal) and the strictly-lower part of `L`
/// (whose diagonal is implicitly 1). Safe for diagonally dominant or
/// otherwise well-conditioned inputs.
pub fn lu_nopivot_inplace(a: &mut Matrix) -> Result<(), SingularError> {
    assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
    let n = a.rows();
    for k in 0..n {
        let akk = a[(k, k)];
        if akk.abs() < PIVOT_TOL {
            return Err(SingularError {
                pivot: k,
                value: akk,
            });
        }
        for i in (k + 1)..n {
            let lik = a[(i, k)] / akk;
            a[(i, k)] = lik;
            for j in (k + 1)..n {
                let u = a[(k, j)];
                a[(i, j)] -= lik * u;
            }
        }
    }
    Ok(())
}

/// LU with partial (row) pivoting: returns the permutation as a vector
/// `perm` such that row `i` of the factored matrix corresponds to row
/// `perm[i]` of the input (i.e. `P·A = L·U` with `P` scattering by
/// `perm`).
pub fn lu_partial_pivot_inplace(a: &mut Matrix) -> Result<Vec<usize>, SingularError> {
    assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
    let n = a.rows();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Find the largest pivot in column k.
        let (mut best, mut best_val) = (k, a[(k, k)].abs());
        for i in (k + 1)..n {
            let v = a[(i, k)].abs();
            if v > best_val {
                best = i;
                best_val = v;
            }
        }
        if best_val < PIVOT_TOL {
            return Err(SingularError {
                pivot: k,
                value: best_val,
            });
        }
        if best != k {
            for j in 0..n {
                let tmp = a[(k, j)];
                a[(k, j)] = a[(best, j)];
                a[(best, j)] = tmp;
            }
            perm.swap(k, best);
        }
        let akk = a[(k, k)];
        for i in (k + 1)..n {
            let lik = a[(i, k)] / akk;
            a[(i, k)] = lik;
            for j in (k + 1)..n {
                let u = a[(k, j)];
                a[(i, j)] -= lik * u;
            }
        }
    }
    Ok(perm)
}

/// Split a packed LU result into explicit `(L, U)` factors.
pub fn split_lu(packed: &Matrix) -> (Matrix, Matrix) {
    let n = packed.rows();
    let mut l = Matrix::identity(n);
    let mut u = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i > j {
                l[(i, j)] = packed[(i, j)];
            } else {
                u[(i, j)] = packed[(i, j)];
            }
        }
    }
    (l, u)
}

/// Solve `L·X = B` where `L` is unit lower triangular (diagonal assumed
/// 1, strictly-lower part taken from `l`). `B` may have many columns.
pub fn solve_unit_lower(l: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(l.rows(), l.cols());
    assert_eq!(l.rows(), b.rows());
    let n = l.rows();
    let m = b.cols();
    let mut x = b.clone();
    for i in 0..n {
        for k in 0..i {
            let lik = l[(i, k)];
            if lik != 0.0 {
                for j in 0..m {
                    let xkj = x[(k, j)];
                    x[(i, j)] -= lik * xkj;
                }
            }
        }
    }
    x
}

/// Solve `U·X = B` where `U` is upper triangular (diagonal from `u`).
pub fn solve_upper(u: &Matrix, b: &Matrix) -> Result<Matrix, SingularError> {
    assert_eq!(u.rows(), u.cols());
    assert_eq!(u.rows(), b.rows());
    let n = u.rows();
    let m = b.cols();
    let mut x = b.clone();
    for i in (0..n).rev() {
        let uii = u[(i, i)];
        if uii.abs() < PIVOT_TOL {
            return Err(SingularError {
                pivot: i,
                value: uii,
            });
        }
        for k in (i + 1)..n {
            let uik = u[(i, k)];
            if uik != 0.0 {
                for j in 0..m {
                    let xkj = x[(k, j)];
                    x[(i, j)] -= uik * xkj;
                }
            }
        }
        for j in 0..m {
            x[(i, j)] /= uii;
        }
    }
    Ok(x)
}

/// Solve `X·U = B` for `X` (right-solve with upper triangular `U`);
/// used for the `L21 = A21·U11⁻¹` panel update of blocked/distributed LU.
pub fn solve_upper_right(b: &Matrix, u: &Matrix) -> Result<Matrix, SingularError> {
    // X·U = B  ⇔  Uᵀ·Xᵀ = Bᵀ with Uᵀ lower triangular (non-unit).
    assert_eq!(u.rows(), u.cols());
    assert_eq!(b.cols(), u.rows());
    let n = u.rows();
    let m = b.rows();
    let mut x = b.clone();
    for j in 0..n {
        let ujj = u[(j, j)];
        if ujj.abs() < PIVOT_TOL {
            return Err(SingularError {
                pivot: j,
                value: ujj,
            });
        }
        for i in 0..m {
            let mut s = x[(i, j)];
            for k in 0..j {
                s -= x[(i, k)] * u[(k, j)];
            }
            x[(i, j)] = s / ujj;
        }
    }
    Ok(x)
}

/// Solve `A·x = b` for a single right-hand side via partially pivoted LU.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SingularError> {
    assert_eq!(a.rows(), b.len());
    let mut packed = a.clone();
    let perm = lu_partial_pivot_inplace(&mut packed)?;
    let n = b.len();
    let pb = Matrix::from_fn(n, 1, |i, _| b[perm[i]]);
    let (l, u) = split_lu(&packed);
    let y = solve_unit_lower(&l, &pb);
    let x = solve_upper(&u, &y)?;
    Ok((0..n).map(|i| x[(i, 0)]).collect())
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix, in place: on return the lower triangle holds `L` and the
/// strict upper triangle is zeroed. The paper lists Cholesky among the
/// direct factorizations its bounds cover; its distributed cost shape is
/// LU's with half the flops.
pub fn cholesky_inplace(a: &mut Matrix) -> Result<(), SingularError> {
    assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
    let n = a.rows();
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            let ljk = a[(j, k)];
            d -= ljk * ljk;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(SingularError { pivot: j, value: d });
        }
        let ljj = d.sqrt();
        a[(j, j)] = ljj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)];
            }
            a[(i, j)] = s / ljj;
        }
    }
    // Zero the strict upper triangle so the result is exactly L.
    for i in 0..n {
        for j in (i + 1)..n {
            a[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// Flop count of Cholesky on an `n×n` matrix: `n³/3` to leading order.
pub fn cholesky_flops(n: u64) -> u64 {
    n * n * n / 3 + n * n / 2
}

/// Flop count of dense LU on an `n×n` matrix: `(2/3)·n³` to leading
/// order (exact: `n·(n−1)·(4n+1)/6`).
pub fn lu_flops(n: u64) -> u64 {
    n * (n - 1) * (4 * n + 1) / 6
}

/// Reconstruct `P·A` from a pivoted factorization for verification.
pub fn apply_permutation(a: &Matrix, perm: &[usize]) -> Matrix {
    assert_eq!(a.rows(), perm.len());
    Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(perm[i], j)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nopivot_reconstructs_diag_dominant() {
        let a = Matrix::random_diagonally_dominant(32, 1);
        let mut packed = a.clone();
        lu_nopivot_inplace(&mut packed).unwrap();
        let (l, u) = split_lu(&packed);
        let recon = gemm::matmul(&l, &u);
        assert!(recon.relative_error(&a) < 1e-12, "‖LU − A‖ too large");
    }

    #[test]
    fn partial_pivot_reconstructs_general() {
        let a = Matrix::random(40, 40, 2);
        let mut packed = a.clone();
        let perm = lu_partial_pivot_inplace(&mut packed).unwrap();
        let (l, u) = split_lu(&packed);
        let recon = gemm::matmul(&l, &u);
        let pa = apply_permutation(&a, &perm);
        assert!(recon.relative_error(&pa) < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let mut packed = a.clone();
        assert!(lu_nopivot_inplace(&mut packed.clone()).is_err());
        let perm = lu_partial_pivot_inplace(&mut packed).unwrap();
        assert_eq!(perm, vec![1, 0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0; // rank 1
        assert!(lu_partial_pivot_inplace(&mut a).is_err());
    }

    #[test]
    fn unit_lower_solve() {
        let l = Matrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 3.0, 4.0, 1.0]);
        let x_true = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = gemm::matmul(&l, &x_true);
        let x = solve_unit_lower(&l, &b);
        assert!(x.max_abs_diff(&x_true) < 1e-12);
    }

    #[test]
    fn upper_solve() {
        let u = Matrix::from_vec(3, 3, vec![2.0, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 6.0]);
        let x_true = Matrix::from_vec(3, 1, vec![1.0, -2.0, 0.5]);
        let b = gemm::matmul(&u, &x_true);
        let x = solve_upper(&u, &b).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-12);
    }

    #[test]
    fn upper_right_solve() {
        let u = Matrix::from_vec(3, 3, vec![2.0, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 6.0]);
        let x_true = Matrix::random(4, 3, 3);
        let b = gemm::matmul(&x_true, &u);
        let x = solve_upper_right(&b, &u).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-12);
    }

    #[test]
    fn full_solve_recovers_solution() {
        let a = Matrix::random(25, 25, 4);
        let x_true: Vec<f64> = (0..25).map(|i| (i as f64) - 12.0).collect();
        let b: Vec<f64> = (0..25)
            .map(|i| (0..25).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        let x = solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn cholesky_reconstructs_spd() {
        // Build an SPD matrix A = BᵀB + n·I.
        let n = 20;
        let b = Matrix::random(n, n, 5);
        let mut a = gemm::matmul(&b.transpose(), &b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let mut l = a.clone();
        cholesky_inplace(&mut l).unwrap();
        let recon = gemm::matmul(&l, &l.transpose());
        assert!(recon.relative_error(&a) < 1e-12);
        // Upper triangle is zeroed.
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = Matrix::identity(4);
        a[(2, 2)] = -1.0;
        assert!(cholesky_inplace(&mut a).is_err());
    }

    #[test]
    fn cholesky_flops_leading_order() {
        let n = 1000u64;
        let ratio = cholesky_flops(n) as f64 / ((n as f64).powi(3) / 3.0);
        assert!((ratio - 1.0).abs() < 0.01);
        // Cholesky is half of LU (to leading order).
        let half_ratio = 2.0 * cholesky_flops(n) as f64 / lu_flops(n) as f64;
        assert!((half_ratio - 1.0).abs() < 0.02, "ratio {half_ratio}");
    }

    #[test]
    fn lu_flops_leading_order() {
        let n = 1000u64;
        let exact = lu_flops(n) as f64;
        let asymptotic = 2.0 / 3.0 * (n as f64).powi(3);
        assert!((exact / asymptotic - 1.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn lu_rejects_rectangular() {
        let mut a = Matrix::zeros(3, 4);
        let _ = lu_nopivot_inplace(&mut a);
    }
}
