//! Distributed Strassen multiplication over `7^k` ranks — the executable
//! counterpart of the paper's CAPS analysis (§IV, "Strassen's matrix
//! multiplication").
//!
//! ## What this implements (and how it relates to CAPS)
//!
//! This is the **BFS-replicated, unlimited-memory** variant: every rank
//! starts with full copies of `A` and `B` (`M = Θ(n²)` — the paper's
//! "FUM" regime taken to its endpoint), follows its own base-7 digit path
//! through `k` levels of Strassen's recursion *locally* (forming the
//! operand linear combinations for its digit at each level), computes one
//! of the `7^k` leaf products, and the products are then combined up the
//! recursion tree with 7-way gathers at subgroup leaders.
//!
//! Properties preserved from CAPS:
//! * the **flop distribution**: each rank executes exactly
//!   `Θ(n^(ω0))/p` of Strassen's arithmetic (leaf products of size
//!   `n/2^k`), so compute strong-scales perfectly in `p = 7^k`;
//! * the **leaf-level communication**: a leaf rank sends its
//!   `(n/2^k)² = n²/p^(2/ω0)` product — the memory-independent
//!   lower-bound volume per processor.
//!
//! Deviation from full CAPS (documented in `DESIGN.md`): the upward
//! combine funnels through subgroup leaders, so the *maximum* per-rank
//! traffic is `Θ(n²)` at the root leader rather than CAPS's
//! `Θ(n²/p^(2/ω0))`; full CAPS keeps every level's matrices distributed.
//! So `psse_bench::figures::fig3_strong_scaling` draws Strassen's
//! *communication* claims from the `psse-core` cost model
//! (`bounds::fig3_series`), and this executable version validates
//! numerics and flop scaling.

use psse_kernels::gemm;
use psse_kernels::matrix::Matrix;
use psse_kernels::strassen::{strassen_combine, strassen_operands};
use psse_sim::prelude::*;

/// Multiply `a · b` on `p = 7^k` ranks with `k` BFS Strassen levels.
///
/// Requirements: inputs square `n × n` with `2^k | n`. Returns the
/// product (assembled at rank 0) and the execution profile.
pub fn strassen_distributed(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    let k = levels_for(p).ok_or_else(|| {
        SimError::Algorithm(format!("distributed Strassen needs p = 7^k, got p = {p}"))
    })?;
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        return Err(SimError::Algorithm(format!(
            "strassen: need square n×n inputs, got A {}x{}, B {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    if !n.is_multiple_of(1 << k) {
        return Err(SimError::Algorithm(format!(
            "strassen: 2^k = {} must divide n = {n} for k = {k} BFS levels",
            1 << k
        )));
    }

    let out = Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        // Full replicated inputs (unlimited-memory regime).
        rank.alloc(2 * (n * n) as u64)?;
        let mut la = a.clone();
        let mut lb = b.clone();

        // Descend: at level j (0-based from the top), my digit selects
        // which of the 7 operand pairs this subtree computes.
        let mut pow = p / 7;
        for _level in 0..k {
            let digit = (me / pow) % 7;
            let ops = strassen_operands(&la, &lb);
            let h = la.rows() / 2;
            // Each operand pair costs at most 2 block additions per side.
            rank.compute(4 * (h * h) as u64);
            rank.alloc(2 * (h * h) as u64)?;
            let (na, nb) = ops.into_iter().nth(digit).expect("digit < 7");
            rank.free(2 * (la.rows() * la.rows()) as u64)?;
            la = na;
            lb = nb;
            pow /= 7;
        }

        // Leaf product.
        let leaf = la.rows();
        rank.compute(gemm::gemm_flops(leaf, leaf, leaf));
        rank.alloc((leaf * leaf) as u64)?;
        let mut c = gemm::matmul(&la, &lb);

        // Combine upward: at level j (deepest first), ranks whose digits
        // below j are zero participate; the 7 subgroup leaders gather at
        // the group leader (digit_j = 0).
        let mut stride = 1usize; // 7^(levels below current)
        for level in (0..k).rev() {
            if me % stride != 0 {
                break; // not a subgroup leader at this level
            }
            let digit = (me / stride) % 7;
            let leader = me - digit * stride;
            let tag = Tag(1000 + level as u64);
            if digit != 0 {
                rank.send(leader, tag, c.into_vec())?;
                c = Matrix::zeros(0, 0);
                break;
            }
            // Leader: gather the 7 products and combine.
            let h = c.rows();
            let mut ms: Vec<Matrix> = Vec::with_capacity(7);
            ms.push(c);
            rank.alloc(6 * (h * h) as u64 + 4 * (h * h) as u64)?;
            for d in 1..7 {
                let v = rank.recv(leader + d * stride, tag)?;
                ms.push(Matrix::from_vec(h, h, v));
            }
            let ms: [Matrix; 7] = ms.try_into().expect("exactly 7 products");
            // 8 block additions of h² elements each.
            rank.compute(8 * (h * h) as u64);
            c = strassen_combine(&ms);
            stride *= 7;
        }
        Ok(if me == 0 { c.into_vec() } else { Vec::new() })
    })?;

    let c_mat = Matrix::from_vec(n, n, out.results[0].clone());
    Ok((c_mat, out.profile))
}

/// `k` such that `7^k = p`, if any.
fn levels_for(p: usize) -> Option<usize> {
    let mut k = 0;
    let mut v = 1usize;
    while v < p {
        v = v.checked_mul(7)?;
        k += 1;
    }
    (v == p).then_some(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_kernels::gemm::matmul;
    use psse_kernels::strassen::strassen_flops;

    #[test]
    fn levels_detection() {
        assert_eq!(levels_for(1), Some(0));
        assert_eq!(levels_for(7), Some(1));
        assert_eq!(levels_for(49), Some(2));
        assert_eq!(levels_for(343), Some(3));
        assert_eq!(levels_for(8), None);
        assert_eq!(levels_for(14), None);
    }

    #[test]
    fn matches_sequential_product() {
        for (n, p) in [(8usize, 1usize), (8, 7), (16, 7), (16, 49)] {
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let (c, _) = strassen_distributed(&a, &b, p, SimConfig::counters_only()).unwrap();
            assert!(c.max_abs_diff(&matmul(&a, &b)) < 1e-9, "n = {n}, p = {p}");
        }
    }

    #[test]
    fn total_flops_match_strassen_not_classical() {
        // With k BFS levels and classical leaves, total multiply flops
        // are strassen_flops(n, n/2^k) — strictly fewer than classical
        // 2n³ once k ≥ 1 and n is large enough.
        let n = 32u64;
        let p = 49; // k = 2
        let a = Matrix::random(n as usize, n as usize, 3);
        let b = Matrix::random(n as usize, n as usize, 4);
        let (_, profile) = strassen_distributed(&a, &b, p, SimConfig::counters_only()).unwrap();
        let leaf = n / 4;
        let leaf_total = 49 * 2 * leaf * leaf * leaf;
        let total = profile.total_flops();
        assert!(total >= leaf_total);
        // Linear-combination adds are bounded: descent ≤ 4·(n/2)² per
        // rank per level; combine ≤ 8·h² per leader per level.
        assert!(
            total < leaf_total + 49 * 8 * (n * n),
            "unexpectedly many flops: {total}"
        );
        // Compare against the Strassen flop count with matching cutoff.
        let expected_mults = strassen_flops(n, leaf);
        assert!(leaf_total <= expected_mults);
    }

    #[test]
    fn per_rank_flops_strong_scale_steeply() {
        // p → 7p turns each rank's leaf product into 1/8 the multiply
        // flops (plus O(n²) local adds): the critical-path flop count
        // must fall by well over the 4x a classical algorithm would give
        // for 7x the processors... no wait — classical with 7x
        // processors gives exactly 7x; Strassen's leaf shrinks 8x. We
        // assert a ≥3.5x drop, which only the 8x leaf scaling explains
        // at this size (the O(n²) adds damp it below 8x).
        let n = 128;
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let (_, p7) = strassen_distributed(&a, &b, 7, SimConfig::counters_only()).unwrap();
        let (_, p49) = strassen_distributed(&a, &b, 49, SimConfig::counters_only()).unwrap();
        let ratio = p7.max_flops() as f64 / p49.max_flops() as f64;
        assert!(ratio > 3.5, "per-rank flop ratio {ratio}");
        // Leaf multiply totals shrink by 7/8 per level (Strassen's
        // saving); the measured totals sit above the pure-leaf counts
        // because the replicated descent repeats the operand additions
        // on every rank of a subtree (see module docs).
        let leaf7 = 7 * 2 * (n as u64 / 2).pow(3);
        let leaf49 = 49 * 2 * (n as u64 / 4).pow(3);
        assert!(leaf49 < leaf7);
        assert!(p7.total_flops() >= leaf7);
        assert!(p49.total_flops() >= leaf49);
    }

    #[test]
    fn leaf_send_volume_matches_fum_bound() {
        // A non-leader leaf rank sends exactly its (n/2^k)² product:
        // n²/p^(2/ω0) words — the memory-independent bound.
        let n = 16;
        let p = 49;
        let a = Matrix::random(n, n, 7);
        let b = Matrix::random(n, n, 8);
        let (_, profile) = strassen_distributed(&a, &b, p, SimConfig::counters_only()).unwrap();
        let leaf_words = (n / 4) * (n / 4); // k = 2
                                            // Rank 1 (digit path 0,1) is a deepest-level non-leader.
        assert_eq!(profile.per_rank()[1].words_sent as usize, leaf_words);
        assert_eq!(profile.per_rank()[1].msgs_sent, 1);
    }

    #[test]
    fn rejects_bad_configurations() {
        let a = Matrix::random(16, 16, 1);
        let b = Matrix::random(16, 16, 2);
        assert!(strassen_distributed(&a, &b, 8, SimConfig::counters_only()).is_err());
        // n = 10 not divisible by 2² (k = 2 levels for p = 49).
        let a10 = Matrix::random(10, 10, 1);
        let b10 = Matrix::random(10, 10, 2);
        let r = strassen_distributed(&a10, &b10, 49, SimConfig::counters_only());
        assert!(r.is_err());
        // Rectangular inputs.
        let rect = Matrix::random(8, 16, 1);
        let b16 = Matrix::random(16, 16, 2);
        assert!(strassen_distributed(&rect, &b16, 7, SimConfig::counters_only()).is_err());
    }
}
