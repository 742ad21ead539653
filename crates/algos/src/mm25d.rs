//! 2.5D matrix multiplication (Solomonik & Demmel; paper §III–IV) — the
//! data-replicating algorithm behind the headline theorem.
//!
//! Ranks form a `q × q × c` cuboid (`p = q²·c`, replication factor `c`,
//! `c | q`). Layer 0 owns the canonical 2D block layout; the algorithm:
//!
//! 1. **replicates** `A_rc` and `B_rc` along each `(r, c)` fiber
//!    (broadcast over the `c` layers) — this is the "use all available
//!    memory to replicate data" of the title;
//! 2. each layer `l` performs `q/c` Cannon-style multiply-shift steps,
//!    covering the contraction indices `k ∈ r+c+[l·q/c, (l+1)·q/c)`
//!    (mod `q`), after a layer-specific initial skew;
//! 3. partial `C` blocks are **sum-reduced** along fibers back to
//!    layer 0.
//!
//! Per-rank costs with `b = n/q` (so `M = Θ(b²) = Θ(c·n²/p)`):
//! `F = 2n³/p`, `W = Θ(b²·q/c) = Θ(n²/√(p·c))`, matching Eq. 7 — at
//! `c = 1` this is Cannon (2D); at `c = q` it is the 3D algorithm of
//! Agarwal et al. Both ends are written as calls of [`matmul_25d`]:
//! [`cannon_matmul`](crate::cannon::cannon_matmul) is `c = 1` and
//! [`matmul_3d`] is `c = p^(1/3)`. Perfect strong scaling: multiplying `p` by `c` while
//! keeping `M` fixed divides `T` by `c` and leaves `E` unchanged —
//! verified end-to-end in the integration tests and the
//! `psse_bench::figures::validate_strong_scaling` figure.

use crate::bridge::gather_blocks_2d;
use psse_kernels::gemm;
use psse_kernels::matrix::Matrix;
use psse_sim::collectives::TAG_WINDOW;
use psse_sim::prelude::*;

const TAG_REPL_A: Tag = Tag(0);
const TAG_REPL_B: Tag = Tag(TAG_WINDOW);
const TAG_SKEW_A: Tag = Tag(2 * TAG_WINDOW);
const TAG_SKEW_B: Tag = Tag(2 * TAG_WINDOW + 1);
const TAG_REDUCE_C: Tag = Tag(3 * TAG_WINDOW);
const TAG_SHIFT_BASE: u64 = 4 * TAG_WINDOW;

/// Collective strategy for the replication broadcast and the final
/// reduction along fibers — an ablation knob (see
/// `psse_bench::figures::ablation_collectives`): binomial trees cost
/// the root `Θ(b²·log c)` words; scatter+allgather (van de Geijn) costs
/// every rank `Θ(b²)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FiberCollectives {
    /// Binomial broadcast/reduce trees (latency-optimal).
    #[default]
    Binomial,
    /// Scatter+allgather broadcast and reduce-scatter+gather reduction
    /// (bandwidth-optimal for large blocks).
    ScatterAllgather,
}

/// Multiply `a · b` with the 2.5D algorithm on `p = q²·c` ranks with
/// replication factor `c` (binomial fiber collectives).
///
/// Requirements: `p/c` a perfect square `q²`, `c | q`, inputs square with
/// `q | n`. Returns the product and the execution profile.
pub fn matmul_25d(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    c: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    matmul_25d_opts(a, b, p, c, FiberCollectives::Binomial, cfg)
}

/// [`matmul_25d`] with an explicit [`FiberCollectives`] strategy.
pub fn matmul_25d_opts(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    c: usize,
    fiber_colls: FiberCollectives,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    let grid = Grid3::from_p(p, c)?;
    let q = grid.q();
    if c > 1 && q % c != 0 {
        return Err(SimError::Algorithm(format!(
            "2.5D: replication factor c = {c} must divide the grid edge q = {q}"
        )));
    }
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        return Err(SimError::Algorithm(format!(
            "2.5D: need square n×n inputs, got A {}x{}, B {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    if !n.is_multiple_of(q) {
        return Err(SimError::Algorithm(format!(
            "2.5D: grid edge q = {q} must divide n = {n}"
        )));
    }
    let bs = n / q;
    let steps = q / c;

    let out = Machine::run(p, cfg, |rank| {
        let (r, col, layer) = grid.coords(rank.rank());
        let block_words = (bs * bs) as u64;
        // A, B, C resident + one transient shift buffer.
        rank.alloc(4 * block_words)?;

        // 1. Replicate inputs along the fiber (layer 0 is the owner).
        let fiber = grid.fiber_group(r, col);
        let root = grid.rank_of(r, col, 0);
        let bcast = |rank: &mut Rank, tag: Tag, data: Option<Vec<f64>>| match fiber_colls {
            FiberCollectives::Binomial => rank.broadcast(tag, &fiber, root, data),
            FiberCollectives::ScatterAllgather => rank.broadcast_large(tag, &fiber, root, data),
        };
        let (mut la, mut lb) = if layer == 0 {
            let la = a.block(r * bs, col * bs, bs, bs);
            let lb = b.block(r * bs, col * bs, bs, bs);
            (
                Matrix::from_vec(bs, bs, bcast(rank, TAG_REPL_A, Some(la.into_vec()))?),
                Matrix::from_vec(bs, bs, bcast(rank, TAG_REPL_B, Some(lb.into_vec()))?),
            )
        } else {
            (
                Matrix::from_vec(bs, bs, bcast(rank, TAG_REPL_A, None)?),
                Matrix::from_vec(bs, bs, bcast(rank, TAG_REPL_B, None)?),
            )
        };

        // 2. Layer-specific skew. Layer l covers contraction offsets
        //    s ∈ [l·q/c, (l+1)·q/c): bring A_{r, r+col+s0} and
        //    B_{r+col+s0, col} into place (all mod q), where s0 = l·q/c.
        let s0 = layer * steps;
        let shift_a = (r + s0) % q; // A moves left by r + s0 within its row
        let shift_b = (col + s0) % q; // B moves up by col + s0 within its column
        if shift_a != 0 {
            let to = grid.rank_of(r, (col + q - shift_a) % q, layer);
            let from = grid.rank_of(r, (col + shift_a) % q, layer);
            la = Matrix::from_vec(
                bs,
                bs,
                rank.sendrecv(to, TAG_SKEW_A, la.into_vec(), from, TAG_SKEW_A)?,
            );
        }
        if shift_b != 0 {
            let to = grid.rank_of((r + q - shift_b) % q, col, layer);
            let from = grid.rank_of((r + shift_b) % q, col, layer);
            lb = Matrix::from_vec(
                bs,
                bs,
                rank.sendrecv(to, TAG_SKEW_B, lb.into_vec(), from, TAG_SKEW_B)?,
            );
        }

        // 3. q/c Cannon steps within the layer.
        let mut lc = Matrix::zeros(bs, bs);
        for step in 0..steps {
            gemm::matmul_add_into(&mut lc, &la, &lb);
            rank.compute(gemm::gemm_flops(bs, bs, bs));
            if step + 1 < steps {
                let tag_a = Tag(TAG_SHIFT_BASE + 2 * step as u64);
                let tag_b = Tag(TAG_SHIFT_BASE + 2 * step as u64 + 1);
                let (to_a, from_a) = (
                    grid.rank_of(r, (col + q - 1) % q, layer),
                    grid.rank_of(r, (col + 1) % q, layer),
                );
                la = Matrix::from_vec(
                    bs,
                    bs,
                    rank.sendrecv(to_a, tag_a, la.into_vec(), from_a, tag_a)?,
                );
                let (to_b, from_b) = (
                    grid.rank_of((r + q - 1) % q, col, layer),
                    grid.rank_of((r + 1) % q, col, layer),
                );
                lb = Matrix::from_vec(
                    bs,
                    bs,
                    rank.sendrecv(to_b, tag_b, lb.into_vec(), from_b, tag_b)?,
                );
            }
        }

        // 4. Reduce partial C blocks along the fiber to layer 0.
        let reduced = match fiber_colls {
            FiberCollectives::Binomial => {
                rank.reduce_sum(TAG_REDUCE_C, &fiber, root, lc.into_vec())?
            }
            FiberCollectives::ScatterAllgather => {
                rank.reduce_sum_large(TAG_REDUCE_C, &fiber, root, lc.into_vec())?
            }
        };
        rank.free(4 * block_words)?;
        Ok(reduced.unwrap_or_default())
    })?;

    // Layer-0 ranks (the first q² ids) hold the result blocks.
    let c_mat = gather_blocks_2d(&out.results[..q * q], n, q);
    Ok((c_mat, out.profile))
}

/// 3D matrix multiplication (Agarwal et al.): the `c = p^(1/3)` limit of
/// the 2.5D algorithm. `p` must be a perfect cube `q³` with `q | n`.
pub fn matmul_3d(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    let q = (p as f64).cbrt().round() as usize;
    if q * q * q != p {
        return Err(SimError::Algorithm(format!(
            "3D matmul needs a cubic rank count, got p = {p}"
        )));
    }
    matmul_25d(a, b, p, q, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_kernels::gemm::matmul;

    #[test]
    fn matches_sequential_product_across_c() {
        // p = q²c: (q=4, c=1) p=16; (q=4, c=2) p=32; (q=4, c=4) p=64;
        // (q=3, c=3) p=27 (3D); (q=2, c=2) p=8 (3D).
        for (n, p, c) in [
            (16usize, 16usize, 1usize),
            (16, 32, 2),
            (16, 64, 4),
            (12, 27, 3),
            (8, 8, 2),
        ] {
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let (cm, _) = matmul_25d(&a, &b, p, c, SimConfig::counters_only()).unwrap();
            assert!(
                cm.max_abs_diff(&matmul(&a, &b)) < 1e-10,
                "n={n}, p={p}, c={c}"
            );
        }
    }

    #[test]
    fn matmul_3d_is_the_cubic_limit() {
        let n = 16;
        let p = 64; // q = 4 = c
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let (c3, _) = matmul_3d(&a, &b, p, SimConfig::counters_only()).unwrap();
        assert!(c3.max_abs_diff(&matmul(&a, &b)) < 1e-10);
        assert!(matmul_3d(&a, &b, 10, SimConfig::counters_only()).is_err());
    }

    #[test]
    fn replication_reduces_critical_path_words() {
        // Same q (same M per rank is NOT held fixed here — this checks
        // the other axis: at fixed n and growing p = q²c, words per rank
        // fall as 1/c of the shift phase).
        // q = 8 both times so the shift phase dominates: c = 1 does
        // 2(q−1) block shifts, c = 4 only 2(q/c−1) plus replication
        // overhead.
        let n = 32;
        let a = Matrix::random(n, n, 7);
        let b = Matrix::random(n, n, 8);
        let (_, c1) = matmul_25d(&a, &b, 64, 1, SimConfig::counters_only()).unwrap();
        let (_, c4) = matmul_25d(&a, &b, 256, 4, SimConfig::counters_only()).unwrap();
        let w1 = c1.max_words_sent() as f64;
        let w4 = c4.max_words_sent() as f64;
        assert!(
            w4 < 0.65 * w1,
            "replication should cut critical-path words: c=1 {w1}, c=4 {w4}"
        );
    }

    #[test]
    fn flops_strong_scale_perfectly() {
        let n = 16;
        let a = Matrix::random(n, n, 9);
        let b = Matrix::random(n, n, 10);
        let (_, p16) = matmul_25d(&a, &b, 16, 1, SimConfig::counters_only()).unwrap();
        let (_, p64) = matmul_25d(&a, &b, 64, 4, SimConfig::counters_only()).unwrap();
        // GEMM flops per rank drop exactly 4x; reductions add O(b²·log c)
        // extra adds on some ranks, bounded by 2 blocks' worth here.
        let f16 = p16.max_flops() as f64;
        let f64_ = p64.max_flops() as f64;
        let ratio = f16 / f64_;
        assert!((3.0..=4.5).contains(&ratio), "flop ratio {ratio}");
    }

    #[test]
    fn total_flops_are_preserved_up_to_reduction_adds() {
        let n = 16;
        let p = 32;
        let c = 2;
        let a = Matrix::random(n, n, 11);
        let b = Matrix::random(n, n, 12);
        let (_, profile) = matmul_25d(&a, &b, p, c, SimConfig::counters_only()).unwrap();
        let gemm_total = 2 * (n as u64).pow(3);
        let total = profile.total_flops();
        assert!(total >= gemm_total);
        // Reduction adds: (c−1)·q²·b² = (c−1)·n² per layer pair.
        let max_extra = (c as u64 - 1) * (n as u64) * (n as u64);
        assert!(total <= gemm_total + max_extra, "{total}");
    }

    #[test]
    fn memory_per_rank_grows_with_c() {
        // M = Θ(c·n²/p): at fixed p... here fixed q, so block size is
        // constant and replication means each of the q²c ranks holds a
        // full block set — total memory grows by c.
        let n = 16;
        let a = Matrix::random(n, n, 13);
        let b = Matrix::random(n, n, 14);
        let (_, c1) = matmul_25d(&a, &b, 16, 1, SimConfig::counters_only()).unwrap();
        let (_, c4) = matmul_25d(&a, &b, 64, 4, SimConfig::counters_only()).unwrap();
        // Same per-rank peak (same q ⇒ same block size)...
        assert_eq!(c1.max_mem_peak(), c4.max_mem_peak());
        // ...but 4× the ranks ⇒ 4× the aggregate memory (replication).
        let agg1: u64 = c1.per_rank().iter().map(|s| s.mem_peak).sum();
        let agg4: u64 = c4.per_rank().iter().map(|s| s.mem_peak).sum();
        assert_eq!(agg4, 4 * agg1);
    }

    #[test]
    fn scatter_allgather_fiber_collectives_agree() {
        let n = 16;
        let a = Matrix::random(n, n, 21);
        let b = Matrix::random(n, n, 22);
        let reference = matmul(&a, &b);
        for (p, c) in [(32usize, 2usize), (64, 4)] {
            let (cm, _) = matmul_25d_opts(
                &a,
                &b,
                p,
                c,
                FiberCollectives::ScatterAllgather,
                SimConfig::counters_only(),
            )
            .unwrap();
            assert!(cm.max_abs_diff(&reference) < 1e-10, "p={p} c={c}");
        }
    }

    #[test]
    fn scatter_allgather_reduces_critical_path_traffic() {
        // In the 3D limit (q = c = 4) the fiber collectives dominate
        // communication: the binomial broadcast costs the root log₂c
        // block copies per input, scatter+allgather ~2·(c−1)/c.
        let n = 32;
        let a = Matrix::random(n, n, 23);
        let b = Matrix::random(n, n, 24);
        let (_, bin) = matmul_25d_opts(
            &a,
            &b,
            64,
            4,
            FiberCollectives::Binomial,
            SimConfig::counters_only(),
        )
        .unwrap();
        let (_, sag) = matmul_25d_opts(
            &a,
            &b,
            64,
            4,
            FiberCollectives::ScatterAllgather,
            SimConfig::counters_only(),
        )
        .unwrap();
        assert!(
            sag.max_words_sent() < bin.max_words_sent(),
            "scatter+allgather {} vs binomial {}",
            sag.max_words_sent(),
            bin.max_words_sent()
        );
    }

    #[test]
    fn rejects_invalid_configurations() {
        let a = Matrix::random(16, 16, 1);
        let b = Matrix::random(16, 16, 2);
        // c does not divide q: p = 18, c = 2 → q = 3.
        assert!(matmul_25d(&a, &b, 18, 2, SimConfig::counters_only()).is_err());
        // p/c not a square.
        assert!(matmul_25d(&a, &b, 24, 2, SimConfig::counters_only()).is_err());
        // q does not divide n.
        let a9 = Matrix::random(9, 9, 1);
        let b9 = Matrix::random(9, 9, 2);
        assert!(matmul_25d(&a9, &b9, 16, 1, SimConfig::counters_only()).is_err());
    }
}
