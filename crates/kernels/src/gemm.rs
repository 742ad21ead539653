//! Cache-blocked dense matrix multiplication.
//!
//! The workhorse kernel of the distributed matmul algorithms. The blocked
//! `i-k-j` loop order keeps the innermost loop a unit-stride
//! multiply-accumulate over rows of `B` and `C`, which LLVM vectorizes.

use crate::matrix::Matrix;

/// Block edge used by [`matmul_add_into`]; 64×64 f64 panels (32 KiB per
/// operand) fit comfortably in L1/L2 on current hardware.
const BLOCK: usize = 64;

/// Reference implementation: naive triple loop, `C = A·B`. Used as the
/// test oracle for every other multiplication routine in the workspace.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for l in 0..k {
            let ail = a[(i, l)];
            for j in 0..n {
                c[(i, j)] += ail * b[(l, j)];
            }
        }
    }
    c
}

/// Register-tile width (columns of `C` held in registers across the
/// `l` loop) and height (rows per micro-kernel invocation).
const NR: usize = 4;
const MR: usize = 2;

/// Blocked `C += A·B` with an `MR×NR` register-tiled micro-kernel.
///
/// Inside each cache block the interior is walked in `MR = 2` row by
/// `NR = 4` column tiles whose `C` entries live in accumulator
/// registers across the whole `l` loop — one load and one store per
/// entry per block instead of one per `l`. The accumulators start from
/// `C`'s current values and receive one `+= a[i,l]·b[l,j]` per `l` in
/// ascending order, i.e. the *same* f64 operation sequence per `(i,j)`
/// as the plain loop — results are bit-identical to the scalar path
/// (asserted by the `register_tile_is_bit_identical_to_scalar` test),
/// which the deterministic-simulation layers above rely on.
pub fn matmul_add_into(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows(), "C rows must match A rows");
    assert_eq!(c.cols(), b.cols(), "C cols must match B cols");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let op = Operands {
        a: a.as_slice(),
        b: b.as_slice(),
        k,
        n,
    };
    let c_buf = c.as_mut_slice();
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for l0 in (0..k).step_by(BLOCK) {
            let l1 = (l0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                let mut i = i0;
                while i + MR <= i1 {
                    let mut j = j0;
                    while j + NR <= j1 {
                        op.microkernel(c_buf, i, j, l0, l1);
                        j += NR;
                    }
                    // Column remainder: plain scalar loop, row by row.
                    if j < j1 {
                        for r in i..i + MR {
                            op.scalar_tail(c_buf, r, j, j1, l0, l1);
                        }
                    }
                    i += MR;
                }
                // Row remainder.
                for r in i..i1 {
                    op.scalar_tail(c_buf, r, j0, j1, l0, l1);
                }
            }
        }
    }
}

/// Read-side operands of one multiply: `A` (`…×k`, row stride `k`) and
/// `B` (`k×n`, row stride `n`).
struct Operands<'m> {
    a: &'m [f64],
    b: &'m [f64],
    k: usize,
    n: usize,
}

impl Operands<'_> {
    /// `MR×NR` register tile: `C[i..i+MR, j..j+NR] += A[i..i+MR, l0..l1]
    /// · B[l0..l1, j..j+NR]`, accumulating in registers, adds in
    /// ascending `l` order.
    #[inline]
    fn microkernel(&self, c_buf: &mut [f64], i: usize, j: usize, l0: usize, l1: usize) {
        let n = self.n;
        let mut acc = [[0.0_f64; NR]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c_buf[(i + r) * n + j..(i + r) * n + j + NR]);
        }
        for l in l0..l1 {
            let b_row = &self.b[l * n + j..l * n + j + NR];
            for (r, row) in acc.iter_mut().enumerate() {
                let arl = self.a[(i + r) * self.k + l];
                for (acc_j, b_j) in row.iter_mut().zip(b_row) {
                    *acc_j += arl * b_j;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            c_buf[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(row);
        }
    }

    /// One row's remainder columns `[j, j1)`, plain scalar multiply-add
    /// in ascending `l` order (identical to the untiled inner loop).
    #[inline]
    fn scalar_tail(&self, c_buf: &mut [f64], i: usize, j: usize, j1: usize, l0: usize, l1: usize) {
        let n = self.n;
        for l in l0..l1 {
            let ail = self.a[i * self.k + l];
            let b_row = &self.b[l * n + j..l * n + j1];
            let c_row = &mut c_buf[i * n + j..i * n + j1];
            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                *cj += ail * bj;
            }
        }
    }
}

/// Blocked `C = A·B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_add_into(&mut c, a, b);
    c
}

/// Flop count of a dense `m×k · k×n` multiply-accumulate
/// (`2·m·k·n`: one multiply and one add per inner iteration).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_on_square() {
        let a = Matrix::random(33, 33, 1);
        let b = Matrix::random(33, 33, 2);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-12);
    }

    #[test]
    fn matches_naive_on_rectangular() {
        // Shapes straddling the block size in every dimension.
        for (m, k, n) in [
            (1, 1, 1),
            (5, 7, 3),
            (64, 64, 64),
            (65, 63, 130),
            (200, 1, 9),
        ] {
            let a = Matrix::random(m, k, 3);
            let b = Matrix::random(k, n, 4);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-12, "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn register_tile_is_bit_identical_to_scalar() {
        // Per (i,j), both the naive loop and the tiled kernel add the
        // products a[i,l]·b[l,j] in ascending l order starting from the
        // same value — so the results must match to the last bit, not
        // just to a tolerance. Shapes straddle MR, NR and BLOCK in every
        // dimension (including all-remainder and empty-ish edges).
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (2, 4, 4),
            (3, 5, 6),
            (1, 64, 3),
            (2, 64, 5),
            (5, 1, 4),
            (63, 65, 66),
            (64, 64, 64),
            (65, 67, 129),
            (130, 3, 67),
        ] {
            let a = Matrix::random(m, k, 17);
            let b = Matrix::random(k, n, 18);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            assert_eq!(
                fast.as_slice(),
                slow.as_slice(),
                "bitwise mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn accumulation_is_bit_identical_too() {
        // C += A·B from a non-zero C: the accumulators start from C's
        // current values, so repeated add_into must equal the naive
        // sequence bit for bit as well.
        let (m, k, n) = (33, 65, 34);
        let a = Matrix::random(m, k, 19);
        let b = Matrix::random(k, n, 20);
        let mut c_tiled = Matrix::random(m, n, 21);
        let mut c_ref = c_tiled.clone();
        matmul_add_into(&mut c_tiled, &a, &b);
        matmul_add_into(&mut c_tiled, &a, &b);
        for _ in 0..2 {
            for i in 0..m {
                for l in 0..k {
                    let ail = a[(i, l)];
                    for j in 0..n {
                        c_ref[(i, j)] += ail * b[(l, j)];
                    }
                }
            }
        }
        assert_eq!(c_tiled.as_slice(), c_ref.as_slice());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::random(50, 50, 9);
        let i = Matrix::identity(50);
        assert!(matmul(&a, &i).max_abs_diff(&a) < 1e-14);
        assert!(matmul(&i, &a).max_abs_diff(&a) < 1e-14);
    }

    #[test]
    fn add_into_accumulates() {
        let a = Matrix::random(20, 20, 5);
        let b = Matrix::random(20, 20, 6);
        let ab = matmul(&a, &b);
        let mut c = ab.clone();
        matmul_add_into(&mut c, &a, &b);
        assert!(c.max_abs_diff(&ab.add(&ab)) < 1e-12);
    }

    #[test]
    fn associativity_within_tolerance() {
        let a = Matrix::random(24, 24, 1);
        let b = Matrix::random(24, 24, 2);
        let c = Matrix::random(24, 24, 3);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.max_abs_diff(&right) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(100, 100, 100), 2_000_000);
    }
}
