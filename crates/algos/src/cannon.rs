//! Cannon's algorithm: the classical 2D matrix multiplication baseline
//! (paper §III, "2D algorithms").
//!
//! Ranks form a `q × q` grid (`p = q²`); rank `(r, c)` owns the
//! `(n/q) × (n/q)` blocks `A_rc`, `B_rc` and computes `C_rc`. After an
//! initial skew (A shifted left by `r`, B up by `c`), `q` multiply-shift
//! steps walk the blocks around the torus.
//!
//! That is the 2.5D algorithm with one layer (`c = 1`), and Cannon is
//! written as exactly that: [`matmul_25d`] at `c = 1` replicates and
//! reduces over fibers of one rank (no traffic) and skews layer 0 by
//! `(r, c)`, Cannon's skew.
//!
//! Per-processor costs: `F = 2n³/p`, `W ≈ 2n²/√p` (the `M = n²/p` point
//! of the 2.5D cost model), `S ≈ 2√p` block sends — the 2D baseline that
//! the data-replicating algorithms beat.

use crate::mm25d::matmul_25d;
use psse_kernels::matrix::Matrix;
use psse_sim::prelude::*;

/// Multiply `a · b` on a `q × q` simulated grid with `p = q²` ranks:
/// [`matmul_25d`] with one layer, whose fiber collectives are empty and
/// whose layer skew is Cannon's.
///
/// Requirements: `a`, `b` square `n × n` with `q | n`. Returns the
/// product and the execution profile.
pub fn cannon_matmul(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    matmul_25d(a, b, p, 1, cfg)
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
