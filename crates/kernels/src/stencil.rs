//! The box-stencil sweep: every cell of a tile becomes the average of
//! its `(2h+1) × (2h+1)` neighbourhood, read from a halo-extended
//! buffer.
//!
//! [`box_sweep`] is the only box-sweep arithmetic in the workspace: the
//! serial reference, the thread-backend rank tiles and the event
//! program's data mode differ in how they *fill* the extended buffer
//! (a periodic copy, a halo exchange) and then all call it, so they
//! agree bit for bit by construction.
//!
//! The loops are interchanged so that the *row* is innermost: each
//! neighbour offset `(di, dj)` adds one unit-stride slice of the
//! extended buffer into the output row. A cell still receives
//! `0.0 + x₀ + x₁ + …` in ascending `(di, dj)` order followed by one
//! multiply by `1/(2h+1)²` — the operation sequence, hence the bits, of
//! a per-cell loop with one scalar accumulator — while neighbouring
//! cells, which are independent, fill the vector lanes.
//! Like [`crate::gemm`]'s register tile this vectorises *across*
//! outputs and never across a reduction; anything that would
//! reassociate a cell's sum (separable row/column passes, sliding
//! windows, FMA contraction, lane-wise partial sums) is out.

/// One sweep over a `rows × cols` tile. `ext` is row-major with row
/// stride `stride ≥ cols + 2h` and at least `rows + 2h` rows; output
/// cell `(i, j)` sits at `ext[(i + h)·stride + j + h]`. `out`
/// (`rows·cols` values) is overwritten.
pub fn box_sweep(ext: &[f64], stride: usize, rows: usize, cols: usize, h: usize, out: &mut [f64]) {
    let k = 2 * h + 1;
    assert!(
        stride >= cols + 2 * h,
        "box_sweep: row stride {stride} < cols + 2h"
    );
    assert_eq!(
        out.len(),
        rows * cols,
        "box_sweep: output must be rows·cols"
    );
    let inv = 1.0 / (k * k) as f64;
    for i in 0..rows {
        let out_row = &mut out[i * cols..(i + 1) * cols];
        out_row.fill(0.0);
        for di in 0..k {
            let base = (i + di) * stride;
            for dj in 0..k {
                let src = &ext[base + dj..base + dj + cols];
                for (acc, x) in out_row.iter_mut().zip(src) {
                    *acc += x;
                }
            }
        }
        for acc in out_row {
            *acc *= inv;
        }
    }
}

/// Periodic extension of a row-major `rows × cols` grid by `hr` rows
/// above and below and `hc` columns left and right (row stride
/// `cols + 2·hc`): `ext[r][c] = src[(r − hr) mod rows][(c − hc) mod
/// cols]`. The wrap is a true modulus, so a halo wider than the grid
/// wraps as often as it needs.
pub fn extend_periodic(src: &[f64], rows: usize, cols: usize, hr: usize, hc: usize) -> Vec<f64> {
    assert!(
        rows > 0 && cols > 0 && src.len() == rows * cols,
        "extend_periodic: a {rows}×{cols} grid holds {} > 0 values, got {}",
        rows * cols,
        src.len()
    );
    // `(x − h) mod n` without leaving `usize`.
    let wrap = |x: usize, h: usize, n: usize| (x + n - h % n) % n;
    let mut ext = Vec::with_capacity((rows + 2 * hr) * (cols + 2 * hc));
    for r in 0..rows + 2 * hr {
        let row = &src[wrap(r, hr, rows) * cols..][..cols];
        ext.extend((0..hc).map(|c| row[wrap(c, hc, cols)]));
        ext.extend_from_slice(row);
        ext.extend((0..hc).map(|c| row[c % cols]));
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_wraps_more_than_once() {
        // 2×3 grid, halo 4 rows / 5 columns: every index wraps at
        // least once.
        let src = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
        let (hr, hc) = (4usize, 5usize);
        let ext = extend_periodic(&src, 2, 3, hr, hc);
        let ec = 3 + 2 * hc;
        assert_eq!(ext.len(), (2 + 2 * hr) * ec);
        for r in 0..2 + 2 * hr {
            for c in 0..ec {
                let sr = (r as i64 - hr as i64).rem_euclid(2) as usize;
                let sc = (c as i64 - hc as i64).rem_euclid(3) as usize;
                assert_eq!(ext[r * ec + c], src[sr * 3 + sc], "({r}, {c})");
            }
        }
    }

    #[test]
    fn sweep_honours_a_wider_row_stride() {
        // A 1×2 tile inside a 3×6 buffer (stride 6 > cols + 2h = 4).
        let ext: Vec<f64> = (0..18).map(f64::from).collect();
        let mut out = [f64::NAN; 2];
        box_sweep(&ext, 6, 1, 2, 1, &mut out);
        let sum = |j: usize| -> f64 {
            let mut acc = 0.0;
            for di in 0..3 {
                for dj in 0..3 {
                    acc += ext[di * 6 + j + dj];
                }
            }
            acc * (1.0 / 9.0)
        };
        assert_eq!(out.map(f64::to_bits), [sum(0), sum(1)].map(f64::to_bits));
    }

    #[test]
    #[should_panic(expected = "row stride 4 < cols + 2h")]
    fn narrow_row_stride_is_rejected() {
        box_sweep(&[0.0; 25], 4, 3, 3, 1, &mut [0.0; 9]);
    }

    #[test]
    #[should_panic(expected = "a 3×3 grid holds 9 > 0 values, got 8")]
    fn short_grid_is_named() {
        extend_periodic(&[0.0; 8], 3, 3, 1, 1);
    }
}
