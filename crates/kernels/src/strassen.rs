//! Strassen's matrix multiplication (the `ω0 = log₂7` fast algorithm of
//! paper §IV) with a classical-GEMM cutoff.
//!
//! [`strassen_operands`] and [`strassen_combine`] are one step of the
//! recursion; the CAPS-style distributed algorithm in `psse-algos`
//! (`strassen_dist`) takes its BFS steps with them and multiplies its
//! leaves with classical [`gemm::matmul`].

use crate::gemm;
use crate::matrix::Matrix;

/// Below this edge length the recursion falls back to classical blocked
/// GEMM; Strassen's lower flop constant only pays off above it.
pub const DEFAULT_CUTOFF: usize = 64;

/// `C = A·B` via Strassen's algorithm. Handles arbitrary square sizes by
/// padding odd dimensions at each level (peeling); non-square inputs are
/// rejected.
pub fn strassen(a: &Matrix, b: &Matrix) -> Matrix {
    strassen_with_cutoff(a, b, DEFAULT_CUTOFF)
}

/// [`strassen`] with an explicit recursion cutoff (cutoff ≥ 1).
pub fn strassen_with_cutoff(a: &Matrix, b: &Matrix, cutoff: usize) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "Strassen requires square A");
    assert_eq!(b.rows(), b.cols(), "Strassen requires square B");
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert!(cutoff >= 1);
    let n = a.rows();
    if n <= cutoff {
        return gemm::matmul(a, b);
    }
    if n % 2 == 1 {
        // Pad by one row/column of zeros and strip afterwards.
        let mut ap = Matrix::zeros(n + 1, n + 1);
        ap.set_block(0, 0, a);
        let mut bp = Matrix::zeros(n + 1, n + 1);
        bp.set_block(0, 0, b);
        let cp = strassen_with_cutoff(&ap, &bp, cutoff);
        return cp.block(0, 0, n, n);
    }
    let products = strassen_operands(a, b).map(|(x, y)| strassen_with_cutoff(&x, &y, cutoff));
    strassen_combine(&products)
}

/// The seven quadrant products `M1..M7` of one Strassen step, computed
/// with a caller-supplied multiplier: [`strassen_with_cutoff`] recurses
/// on them, and the distributed CAPS algorithm forms the linear
/// combinations locally and delegates the products to remote subtrees.
pub fn strassen_operands(a: &Matrix, b: &Matrix) -> [(Matrix, Matrix); 7] {
    assert_eq!(a.rows(), a.cols());
    assert_eq!(b.rows(), b.cols());
    assert_eq!(a.rows() % 2, 0, "one Strassen step needs an even size");
    let h = a.rows() / 2;
    let a11 = a.block(0, 0, h, h);
    let a12 = a.block(0, h, h, h);
    let a21 = a.block(h, 0, h, h);
    let a22 = a.block(h, h, h, h);
    let b11 = b.block(0, 0, h, h);
    let b12 = b.block(0, h, h, h);
    let b21 = b.block(h, 0, h, h);
    let b22 = b.block(h, h, h, h);
    [
        (a11.add(&a22), b11.add(&b22)),
        (a21.add(&a22), b11.clone()),
        (a11.clone(), b12.sub(&b22)),
        (a22.clone(), b21.sub(&b11)),
        (a11.add(&a12), b22.clone()),
        (a21.sub(&a11), b11.add(&b12)),
        (a12.sub(&a22), b21.add(&b22)),
    ]
}

/// Reassemble `C` from the seven products of [`strassen_operands`].
pub fn strassen_combine(ms: &[Matrix; 7]) -> Matrix {
    let h = ms[0].rows();
    let c11 = ms[0].add(&ms[3]).sub(&ms[4]).add(&ms[6]);
    let c12 = ms[2].add(&ms[4]);
    let c21 = ms[1].add(&ms[3]);
    let c22 = ms[0].sub(&ms[1]).add(&ms[2]).add(&ms[5]);
    let mut c = Matrix::zeros(2 * h, 2 * h);
    c.set_block(0, 0, &c11);
    c.set_block(0, h, &c12);
    c.set_block(h, 0, &c21);
    c.set_block(h, h, &c22);
    c
}

/// Flop count of Strassen with the given cutoff on an `n×n` problem
/// (`n` a power of two times the cutoff): `7^k` leaf GEMMs of size
/// `n/2^k` plus `18·(n/2^level)²` additions per internal node.
pub fn strassen_flops(n: u64, cutoff: u64) -> u64 {
    if n <= cutoff {
        return 2 * n * n * n;
    }
    let h = n / 2;
    7 * strassen_flops(h, cutoff) + 18 * h * h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_naive;

    #[test]
    fn matches_naive_power_of_two() {
        let a = Matrix::random(128, 128, 1);
        let b = Matrix::random(128, 128, 2);
        let s = strassen_with_cutoff(&a, &b, 16);
        let c = matmul_naive(&a, &b);
        assert!(s.max_abs_diff(&c) < 1e-10);
    }

    #[test]
    fn matches_naive_odd_sizes() {
        for n in [1usize, 3, 17, 30, 65, 100] {
            let a = Matrix::random(n, n, n as u64);
            let b = Matrix::random(n, n, (n + 1) as u64);
            let s = strassen_with_cutoff(&a, &b, 8);
            let c = matmul_naive(&a, &b);
            assert!(s.max_abs_diff(&c) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn cutoff_one_still_correct() {
        let a = Matrix::random(32, 32, 5);
        let b = Matrix::random(32, 32, 6);
        let s = strassen_with_cutoff(&a, &b, 1);
        assert!(s.max_abs_diff(&matmul_naive(&a, &b)) < 1e-10);
    }

    #[test]
    fn operands_and_combine_equal_one_step() {
        let a = Matrix::random(64, 64, 7);
        let b = Matrix::random(64, 64, 8);
        let ops = strassen_operands(&a, &b);
        let ms: Vec<Matrix> = ops.iter().map(|(x, y)| matmul_naive(x, y)).collect();
        let ms: [Matrix; 7] = ms.try_into().unwrap();
        let c = strassen_combine(&ms);
        assert!(c.max_abs_diff(&matmul_naive(&a, &b)) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let a = Matrix::zeros(4, 6);
        let b = Matrix::zeros(6, 4);
        let _ = strassen(&a, &b);
    }

    #[test]
    fn flops_match_omega() {
        // strassen_flops(2n)/strassen_flops(n) → 7 as n grows.
        let r = strassen_flops(4096, 1) as f64 / strassen_flops(2048, 1) as f64;
        assert!((r - 7.0).abs() < 0.05, "ratio {r}");
        // And with cutoff = n it's exactly classical.
        assert_eq!(strassen_flops(64, 64), 2 * 64 * 64 * 64);
    }

    #[test]
    fn strassen_saves_flops_vs_classical() {
        let n = 1 << 12;
        assert!(strassen_flops(n, 64) < 2 * n * n * n);
    }
}
