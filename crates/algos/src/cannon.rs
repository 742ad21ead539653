//! Cannon's algorithm: the classical 2D matrix multiplication baseline
//! (paper §III, "2D algorithms").
//!
//! Ranks form a `q × q` grid (`p = q²`); rank `(r, c)` owns the
//! `(n/q) × (n/q)` blocks `A_rc`, `B_rc` and computes `C_rc`. After an
//! initial skew (A shifted left by `r`, B up by `c`), `q` multiply-shift
//! steps walk the blocks around the torus.
//!
//! Per-processor costs: `F = 2n³/p`, `W ≈ 2n²/√p` (the `M = n²/p` point
//! of the 2.5D cost model), `S ≈ 2√p` block sends — the 2D baseline that
//! the data-replicating algorithms beat.

use crate::bridge::gather_blocks_2d;
use psse_kernels::gemm;
use psse_kernels::matrix::Matrix;
use psse_sim::prelude::*;

const TAG_SKEW_A: Tag = Tag(1);
const TAG_SKEW_B: Tag = Tag(2);
const TAG_SHIFT_BASE: u64 = 16;

/// Multiply `a · b` on a `q × q` simulated grid with `p = q²` ranks.
///
/// Requirements: `a`, `b` square `n × n` with `q | n`. Returns the
/// product and the execution profile.
pub fn cannon_matmul(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    let grid = Grid2::from_p(p)?;
    let q = grid.q();
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        return Err(SimError::Algorithm(format!(
            "cannon: need square n×n inputs, got A {}x{}, B {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    if !n.is_multiple_of(q) {
        return Err(SimError::Algorithm(format!(
            "cannon: grid edge q = {q} must divide n = {n}"
        )));
    }
    let bs = n / q;

    let out = Machine::run(p, cfg, |rank| {
        let (r, c) = grid.coords(rank.rank());
        // Resident blocks A, B, C plus one transient shift buffer.
        let block_words = (bs * bs) as u64;
        rank.alloc(4 * block_words)?;
        let mut la = a.block(r * bs, c * bs, bs, bs);
        let mut lb = b.block(r * bs, c * bs, bs, bs);
        let mut lc = Matrix::zeros(bs, bs);

        // Initial skew: A_rc ← A_{r,(c+r) mod q}; B_rc ← B_{(r+c) mod q,c}.
        if r > 0 {
            let to = grid.rank_of(r, (c + q - r) % q);
            let from = grid.rank_of(r, (c + r) % q);
            la = Matrix::from_vec(
                bs,
                bs,
                rank.sendrecv(to, TAG_SKEW_A, la.into_vec(), from, TAG_SKEW_A)?,
            );
        }
        if c > 0 {
            let to = grid.rank_of((r + q - c) % q, c);
            let from = grid.rank_of((r + c) % q, c);
            lb = Matrix::from_vec(
                bs,
                bs,
                rank.sendrecv(to, TAG_SKEW_B, lb.into_vec(), from, TAG_SKEW_B)?,
            );
        }

        for step in 0..q {
            gemm::matmul_add_into(&mut lc, &la, &lb);
            rank.compute(gemm::gemm_flops(bs, bs, bs));
            if step + 1 < q {
                // Shift A left and B up, one position each.
                let tag_a = Tag(TAG_SHIFT_BASE + 2 * step as u64);
                let tag_b = Tag(TAG_SHIFT_BASE + 2 * step as u64 + 1);
                let (to_a, from_a) = (
                    grid.rank_of(r, (c + q - 1) % q),
                    grid.rank_of(r, (c + 1) % q),
                );
                la = Matrix::from_vec(
                    bs,
                    bs,
                    rank.sendrecv(to_a, tag_a, la.into_vec(), from_a, tag_a)?,
                );
                let (to_b, from_b) = (
                    grid.rank_of((r + q - 1) % q, c),
                    grid.rank_of((r + 1) % q, c),
                );
                lb = Matrix::from_vec(
                    bs,
                    bs,
                    rank.sendrecv(to_b, tag_b, lb.into_vec(), from_b, tag_b)?,
                );
            }
        }
        rank.free(4 * block_words)?;
        Ok(lc.into_vec())
    })?;

    let c_mat = gather_blocks_2d(&out.results, n, q);
    Ok((c_mat, out.profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_kernels::gemm::matmul;

    #[test]
    fn matches_sequential_product() {
        for (n, p) in [(8usize, 4usize), (12, 9), (16, 16), (20, 1)] {
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let (c, _) = cannon_matmul(&a, &b, p, SimConfig::counters_only()).unwrap();
            let reference = matmul(&a, &b);
            assert!(c.max_abs_diff(&reference) < 1e-10, "n = {n}, p = {p}");
        }
    }

    #[test]
    fn flops_are_evenly_distributed() {
        let n = 16;
        let p = 16;
        let a = Matrix::random(n, n, 3);
        let b = Matrix::random(n, n, 4);
        let (_, profile) = cannon_matmul(&a, &b, p, SimConfig::counters_only()).unwrap();
        let per_rank = 2 * (n as u64).pow(3) / p as u64;
        for s in profile.per_rank() {
            assert_eq!(s.flops, per_rank);
        }
    }

    #[test]
    fn words_match_2d_cost_model_shape() {
        // W per rank ≤ skew + 2(q−1) block shifts ≤ 2q·b² = 2n²/√p.
        let n = 32;
        let p = 16; // q = 4, b = 8
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let (_, profile) = cannon_matmul(&a, &b, p, SimConfig::counters_only()).unwrap();
        let b2 = (n * n / p) as u64;
        let upper = 2 * 4 * b2; // 2q·b²
        for s in profile.per_rank() {
            assert!(s.words_sent <= upper, "{} > {upper}", s.words_sent);
        }
        // Interior ranks do the full 2(q−1) shifts plus both skews.
        let max = profile.max_words_sent();
        assert!(max >= 2 * 3 * b2, "max {max}");
    }

    #[test]
    fn bandwidth_scales_like_inverse_sqrt_p() {
        // Quadrupling p should halve per-rank words (W = Θ(n²/√p)).
        let n = 48;
        let a = Matrix::random(n, n, 7);
        let b = Matrix::random(n, n, 8);
        let (_, p4) = cannon_matmul(&a, &b, 4, SimConfig::counters_only()).unwrap();
        let (_, p16) = cannon_matmul(&a, &b, 16, SimConfig::counters_only()).unwrap();
        let ratio = p4.max_words_sent() as f64 / p16.max_words_sent() as f64;
        assert!((1.5..=3.0).contains(&ratio), "expected ~2x, got {ratio}");
    }

    #[test]
    fn memory_peak_is_four_blocks() {
        let n = 24;
        let p = 4;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let (_, profile) = cannon_matmul(&a, &b, p, SimConfig::counters_only()).unwrap();
        assert_eq!(profile.max_mem_peak(), 4 * (n * n / p) as u64);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::random(10, 10, 1);
        let b = Matrix::random(10, 10, 2);
        // q = 2 does not divide 9.
        let a9 = Matrix::random(9, 9, 1);
        let b9 = Matrix::random(9, 9, 2);
        assert!(cannon_matmul(&a9, &b9, 4, SimConfig::counters_only()).is_err());
        // Non-square p.
        assert!(cannon_matmul(&a, &b, 5, SimConfig::counters_only()).is_err());
        // Rectangular inputs.
        let rect = Matrix::random(10, 12, 3);
        assert!(cannon_matmul(&rect, &b, 4, SimConfig::counters_only()).is_err());
    }

    #[test]
    fn runtime_decreases_with_more_processors() {
        let n = 48;
        let a = Matrix::random(n, n, 9);
        let b = Matrix::random(n, n, 10);
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-10,
            alpha_t: 1e-8,
            ..SimConfig::default()
        };
        let (_, p1) = cannon_matmul(&a, &b, 1, cfg.clone()).unwrap();
        let (_, p16) = cannon_matmul(&a, &b, 16, cfg).unwrap();
        assert!(p16.makespan < p1.makespan);
    }
}
