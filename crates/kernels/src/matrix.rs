//! Dense row-major matrix storage with block access.
//!
//! [`Matrix`] is the unit of data in the distributed linear-algebra
//! algorithms: ranks hold local blocks, extract sub-blocks into `Vec<f64>`
//! payloads for messages, and paste received blocks back in.

use crate::rng::XorShift64;
use std::fmt;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(6);
        let show_c = self.cols.min(6);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            if show_c < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer (length must be `rows·cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix with entries in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = XorShift64::new(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.range_f64(-1.0, 1.0))
    }

    /// Deterministic random **diagonally dominant** matrix — safe input
    /// for LU without pivoting.
    pub fn random_diagonally_dominant(n: usize, seed: u64) -> Self {
        let mut m = Matrix::random(n, n, seed);
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = row_sum + 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying row-major buffer (for zero-copy
    /// message payloads).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy the `br × bc` block whose top-left corner is `(r0, c0)` into
    /// a fresh matrix.
    pub fn block(&self, r0: usize, c0: usize, br: usize, bc: usize) -> Matrix {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "block out of range"
        );
        let mut out = Matrix::zeros(br, bc);
        for i in 0..br {
            let src = &self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + bc];
            out.data[i * bc..(i + 1) * bc].copy_from_slice(src);
        }
        out
    }

    /// Paste `src` so its top-left corner lands at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "block out of range"
        );
        for i in 0..src.rows {
            let dst_off = (r0 + i) * self.cols + c0;
            self.data[dst_off..dst_off + src.cols]
                .copy_from_slice(&src.data[i * src.cols..(i + 1) * src.cols]);
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// `self + other`, element-wise.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// `self - other`, element-wise.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Relative Frobenius distance `‖self − other‖F / max(1, ‖other‖F)` —
    /// the standard residual check for our numerical tests.
    pub fn relative_error(&self, other: &Matrix) -> f64 {
        self.sub(other).frobenius_norm() / other.frobenius_norm().max(1.0)
    }

    /// Number of words (elements) stored.
    pub fn words(&self) -> usize {
        self.data.len()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 0)], 0.0);
        assert_eq!(i.frobenius_norm(), 3f64.sqrt());
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(2, 3, 3, 2);
        assert_eq!(b[(0, 0)], m[(2, 3)]);
        assert_eq!(b[(2, 1)], m[(4, 4)]);
        let mut back = Matrix::zeros(6, 6);
        back.set_block(2, 3, &b);
        assert_eq!(back[(4, 4)], m[(4, 4)]);
        assert_eq!(back[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn block_bounds_checked() {
        let m = Matrix::zeros(4, 4);
        let _ = m.block(2, 2, 3, 3);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(5, 7, 3);
        let t = m.transpose();
        assert_eq!(t.rows(), 7);
        assert_eq!(t.cols(), 5);
        assert_eq!(t[(6, 4)], m[(4, 6)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Matrix::random(4, 4, 1);
        let b = Matrix::random(4, 4, 2);
        assert_eq!(a.add(&b).sub(&b).max_abs_diff(&a), 0.0);
    }

    #[test]
    fn diagonally_dominant_is_dominant() {
        let m = Matrix::random_diagonally_dominant(16, 5);
        for i in 0..16 {
            let off: f64 = (0..16).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)].abs() > off);
        }
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(Matrix::random(8, 8, 77), Matrix::random(8, 8, 77));
        assert_ne!(Matrix::random(8, 8, 77), Matrix::random(8, 8, 78));
    }

    #[test]
    fn relative_error_of_equal_is_zero() {
        let a = Matrix::random(6, 6, 4);
        assert_eq!(a.relative_error(&a), 0.0);
        let b = a.add(&Matrix::from_fn(6, 6, |_, _| 1e-12));
        assert!(b.relative_error(&a) < 1e-10);
    }

    #[test]
    fn into_vec_roundtrip() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let v = m.clone().into_vec();
        assert_eq!(Matrix::from_vec(3, 3, v), m);
        assert_eq!(m.words(), 9);
    }

    #[test]
    fn debug_output_is_bounded() {
        let m = Matrix::random(100, 100, 1);
        let s = format!("{m:?}");
        assert!(
            s.len() < 2000,
            "debug output should truncate large matrices"
        );
        assert!(s.contains("Matrix 100x100"));
    }
}
