//! TSQR: communication-avoiding QR of a tall-skinny matrix.
//!
//! QR is on the paper's §III list of factorizations its bounds cover;
//! TSQR (Demmel, Grigori, Hoemmen, Langou) is the communication-optimal
//! algorithm for the `m ≫ n` case: each rank QRs its row block locally,
//! then the `p` small `R` factors are combined up a binary tree —
//! `log₂p` messages of `n(n+1)/2`-ish words each, versus the `Θ(n²·p)`
//! of a naive gather, and a critical path that is `log p` deep instead
//! of Householder-QR's `n`.
//!
//! This implementation returns the final `R` (the common use: least
//! squares via `R`, Gram–Schmidt basis construction, etc.), normalized
//! to a non-negative diagonal so it equals the sequential
//! [`psse_kernels::qr::householder_qr`] `R` of the full matrix.

use psse_kernels::matrix::Matrix;
use psse_kernels::qr::{householder_qr, qr_flops};
use psse_sim::prelude::*;

/// Compute the `R` factor of the thin QR of `a` (`m × n`, `m ≥ n·p`) on
/// `p` ranks (`p | m`). Returns `R` (with non-negative diagonal) and the
/// execution profile.
pub fn tsqr(a: &Matrix, p: usize, cfg: SimConfig) -> Result<(Matrix, Profile), SimError> {
    let m = a.rows();
    let n = a.cols();
    if p == 0 || !m.is_multiple_of(p) {
        return Err(SimError::Algorithm(format!(
            "tsqr: rank count p = {p} must divide m = {m}"
        )));
    }
    let rows = m / p;
    if rows < n {
        return Err(SimError::Algorithm(format!(
            "tsqr: each block must be tall (rows/block = {rows} < n = {n})"
        )));
    }

    let out = Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        rank.alloc((rows * n + 3 * n * n) as u64)?;
        // Local QR of my row block.
        let block = a.block(me * rows, 0, rows, n);
        let (_, mut r) = householder_qr(&block);
        rank.compute(qr_flops(rows as u64, n as u64));

        // Binary-tree combine: at level d, ranks with the (d+1) low bits
        // zero receive the partner's R, stack and re-factor.
        let mut d = 1usize;
        while d < rank.size() {
            let tag = Tag(d.trailing_zeros() as u64);
            if me % (2 * d) == 0 {
                let partner = me + d;
                if partner < rank.size() {
                    let incoming = rank.recv(partner, tag)?;
                    let r2 = Matrix::from_vec(n, n, incoming);
                    // Stack [R; R2] (2n × n) and QR it.
                    let mut stacked = Matrix::zeros(2 * n, n);
                    stacked.set_block(0, 0, &r);
                    stacked.set_block(n, 0, &r2);
                    let (_, combined) = householder_qr(&stacked);
                    rank.compute(qr_flops(2 * n as u64, n as u64));
                    r = combined;
                }
            } else if me % (2 * d) == d {
                rank.send(me - d, tag, r.clone().into_vec())?;
            }
            d *= 2;
        }
        rank.free((rows * n + 3 * n * n) as u64)?;
        Ok(if me == 0 { r.into_vec() } else { Vec::new() })
    })?;

    Ok((Matrix::from_vec(n, n, out.results[0].clone()), out.profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_kernels::gemm::matmul;

    #[test]
    fn r_matches_sequential_qr() {
        for (m, n, p) in [
            (32usize, 4usize, 4usize),
            (64, 8, 8),
            (48, 6, 3),
            (40, 5, 1),
            (60, 4, 5),
        ] {
            let a = Matrix::random(m, n, (m + n) as u64);
            let (r_dist, _) = tsqr(&a, p, SimConfig::counters_only()).unwrap();
            let (_, r_seq) = householder_qr(&a);
            assert!(
                r_dist.max_abs_diff(&r_seq) < 1e-8,
                "m={m} n={n} p={p}: max diff {}",
                r_dist.max_abs_diff(&r_seq)
            );
        }
    }

    #[test]
    fn gram_identity_holds() {
        // RᵀR = AᵀA — the defining property, independent of sign
        // conventions.
        let a = Matrix::random(96, 6, 3);
        let (r, _) = tsqr(&a, 8, SimConfig::counters_only()).unwrap();
        let rtr = matmul(&r.transpose(), &r);
        let ata = matmul(&a.transpose(), &a);
        assert!(rtr.relative_error(&ata) < 1e-9);
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        // Rank 0 receives exactly log₂p partner R factors.
        let n = 4;
        for p in [2usize, 4, 8, 16] {
            let a = Matrix::random(n * p, n, p as u64);
            let (_, profile) = tsqr(&a, p, SimConfig::counters_only()).unwrap();
            assert_eq!(
                profile.per_rank()[0].msgs_recvd,
                (p as f64).log2() as u64,
                "p = {p}"
            );
            // And every non-root sends exactly one R.
            for s in &profile.per_rank()[1..] {
                assert_eq!(s.msgs_sent, 1);
            }
        }
    }

    #[test]
    fn words_beat_a_naive_gather() {
        // The tree moves p−1 R factors total (n² words each), same as a
        // gather — but the *critical path* (root's received words) is
        // log p · n², not (p−1)·n².
        let n = 4;
        let p = 16;
        let a = Matrix::random(n * p, n, 7);
        let (_, profile) = tsqr(&a, p, SimConfig::counters_only()).unwrap();
        let root_recv = profile.per_rank()[0].words_recvd;
        assert_eq!(root_recv, (p as f64).log2() as u64 * (n * n) as u64);
        assert!(root_recv < ((p - 1) * n * n) as u64);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::random(30, 4, 1);
        assert!(tsqr(&a, 4, SimConfig::counters_only()).is_err()); // 4 ∤ 30
        let wide = Matrix::random(16, 8, 1);
        assert!(tsqr(&wide, 4, SimConfig::counters_only()).is_err()); // 4 < 8 rows/block
        assert!(tsqr(&a, 0, SimConfig::counters_only()).is_err());
    }

    #[test]
    fn non_power_of_two_ranks_work() {
        // The tree handles stragglers (partner >= p just passes through).
        for p in [3usize, 5, 6, 7] {
            let n = 3;
            let a = Matrix::random(n * p * 2, n, p as u64);
            let (r_dist, _) = tsqr(&a, p, SimConfig::counters_only()).unwrap();
            let (_, r_seq) = householder_qr(&a);
            assert!(r_dist.max_abs_diff(&r_seq) < 1e-8, "p = {p}");
        }
    }
}
