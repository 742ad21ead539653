//! Algorithm-based fault tolerance (ABFT) for the distributed matmuls.
//!
//! Huang–Abraham style checksum protection adapted to the simulator's
//! fault layer: corruption injected by a `FaultPlan` with no retry
//! policy silently perturbs one word of a transfer, and these wrappers
//! catch it at two levels:
//!
//! 1. **In-flight panel checksums** ([`summa_matmul_abft`]): every
//!    broadcast panel carries one extra word — the sender's sum of the
//!    panel — and every receiver re-sums the payload and compares. A
//!    single-element perturbation moves the panel sum by at least
//!    `1 + |x|` (the injector's corruption function), many orders of
//!    magnitude above the floating-point tolerance, so detection is
//!    deterministic.
//! 2. **End-to-end column-sum identity** ([`verify_matmul`],
//!    [`matmul_25d_abft`]): for `C = A·B` the identity
//!    `eᵀC = (eᵀA)·B` holds, so comparing the column sums of the
//!    gathered product against the `O(n²)` host-side evaluation of
//!    `(eᵀA)·B` catches corruption that slipped through (or runs whose
//!    algorithm carries no per-panel checksums, like the 2.5D shifts).
//!
//! Checksum arithmetic is priced: each rank pays one flop per summed
//! word via `Rank::compute`, so the resilience overhead of ABFT shows
//! up in the Eq. 1/Eq. 2 accounting like any other work.

use crate::mm25d::matmul_25d;
use crate::summa::{summa_with, Panels};
use psse_kernels::matrix::Matrix;
use psse_sim::error::SimResult;
use psse_sim::prelude::*;

/// Default relative tolerance for checksum comparisons: far above
/// round-off for the problem sizes the simulator runs, far below the
/// injector's `≥ 1.0` single-word perturbation.
pub const ABFT_REL_TOL: f64 = 1e-8;

/// Sum of a payload, the one-word checksum appended to protected panels.
fn checksum(data: &[f64]) -> f64 {
    data.iter().sum()
}

/// Magnitude scale for a tolerance comparison over `data`: never below
/// one, at least the total absolute mass of the payload.
fn mass(data: &[f64]) -> f64 {
    data.iter().map(|x| x.abs()).sum::<f64>().max(1.0)
}

/// Verify a received panel against its carried checksum; `what` names
/// the panel in the error detail.
fn verify_panel(
    rank: usize,
    what: &str,
    data: &[f64],
    carried: f64,
    rel_tol: f64,
) -> SimResult<()> {
    let local = checksum(data);
    let tol = rel_tol * mass(data).max(carried.abs());
    if !((local - carried).abs() <= tol) {
        return Err(SimError::CorruptPayload {
            rank,
            detail: format!("{what}: checksum {local:e} vs carried {carried:e} (tol {tol:e})"),
        });
    }
    Ok(())
}

/// Check the end-to-end column-sum identity `eᵀ(A·B) = (eᵀA)·B` on a
/// gathered product. Returns the list of violated columns in the error
/// string. Pure host-side arithmetic, `O(n²)`.
pub fn verify_matmul(a: &Matrix, b: &Matrix, c: &Matrix, rel_tol: f64) -> Result<(), String> {
    let n = a.rows();
    // eᵀA: column sums of A.
    let mut eta = vec![0.0_f64; n];
    for i in 0..n {
        for (j, v) in a.row(i).iter().enumerate() {
            eta[j] += v;
        }
    }
    // (eᵀA)·B and eᵀC.
    let mut expect = vec![0.0_f64; n];
    let mut got = vec![0.0_f64; n];
    for k in 0..n {
        let brow = b.row(k);
        for j in 0..n {
            expect[j] += eta[k] * brow[j];
        }
    }
    for i in 0..n {
        for (j, v) in c.row(i).iter().enumerate() {
            got[j] += v;
        }
    }
    // The identity sums n³ products; scale the tolerance by the mass of
    // the expected column sums.
    let scale = mass(&expect) * (n as f64).max(1.0);
    let bad: Vec<usize> = (0..n)
        .filter(|&j| !((got[j] - expect[j]).abs() <= rel_tol * scale))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "column-sum identity violated in {} of {n} columns (first: col {}, got {:e}, expected {:e})",
            bad.len(),
            bad[0],
            got[bad[0]],
            expect[bad[0]]
        ))
    }
}

/// Broadcast a panel with an appended checksum word; verify on receipt
/// and strip the checksum before use. Summing k words costs k flops on
/// the root (computing) and on every receiver (re-checking).
fn protected_broadcast(
    rank: &mut Rank,
    tag: Tag,
    group: &Group,
    root: usize,
    payload: Option<Vec<f64>>,
    what: &str,
) -> SimResult<Vec<f64>> {
    let payload = payload.map(|mut v| {
        let s = checksum(&v);
        rank.compute(v.len() as u64);
        v.push(s);
        v
    });
    let mut got = rank.broadcast(tag, group, root, payload)?;
    let carried = got
        .pop()
        .ok_or_else(|| SimError::Algorithm("summa-abft: empty protected panel".into()))?;
    if rank.rank() != root {
        rank.compute(got.len() as u64);
        verify_panel(rank.rank(), what, &got, carried, ABFT_REL_TOL)?;
    }
    Ok(got)
}

/// SUMMA matmul with checksum-protected panel broadcasts: the body of
/// [`crate::summa::summa_matmul`], but every broadcast payload carries a
/// trailing checksum word (one extra word of memory per in-flight
/// panel) verified by each receiver, and the gathered product is
/// re-verified end to end. Detected corruption fails the run with
/// [`SimError::CorruptPayload`].
pub fn summa_matmul_abft(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    panel: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    let protected = Panels {
        label: "summa-abft",
        extra_words: 1,
        broadcast: protected_broadcast,
    };
    let (c_mat, profile) = summa_with(a, b, p, panel, cfg, &protected)?;
    verify_matmul(a, b, &c_mat, ABFT_REL_TOL).map_err(|detail| SimError::CorruptPayload {
        rank: 0,
        detail: format!("summa-abft end-to-end check: {detail}"),
    })?;
    Ok((c_mat, profile))
}

/// 2.5D matmul with an end-to-end ABFT verification of the gathered
/// product (the column-sum identity). The in-simulator communication is
/// unchanged — corruption that the recovery policy does not catch is
/// detected here, after the gather, and fails the run with
/// [`SimError::CorruptPayload`] (reported against rank 0, where the
/// result is assembled).
pub fn matmul_25d_abft(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    c: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    let (c_mat, profile) = matmul_25d(a, b, p, c, cfg)?;
    verify_matmul(a, b, &c_mat, ABFT_REL_TOL).map_err(|detail| SimError::CorruptPayload {
        rank: 0,
        detail: format!("2.5D end-to-end check: {detail}"),
    })?;
    Ok((c_mat, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_kernels::gemm::matmul;

    fn fault_cfg(plan: FaultPlan) -> SimConfig {
        SimConfig {
            faults: Some(plan),
            ..SimConfig::counters_only()
        }
    }

    #[test]
    fn clean_run_matches_sequential_product() {
        for (n, p, panel) in [(8usize, 4usize, 4usize), (12, 9, 2)] {
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let (c, _) = summa_matmul_abft(&a, &b, p, panel, SimConfig::counters_only()).unwrap();
            assert!(
                c.max_abs_diff(&matmul(&a, &b)) < 1e-10,
                "n={n}, p={p}, panel={panel}"
            );
        }
    }

    #[test]
    fn checksums_cost_flops_but_same_numerics() {
        let n = 16;
        let a = Matrix::random(n, n, 3);
        let b = Matrix::random(n, n, 4);
        let (c0, plain) =
            crate::summa::summa_matmul(&a, &b, 4, 8, SimConfig::counters_only()).unwrap();
        let (c1, abft) = summa_matmul_abft(&a, &b, 4, 8, SimConfig::counters_only()).unwrap();
        assert_eq!(c0.as_slice(), c1.as_slice(), "identical arithmetic");
        assert!(abft.total_flops() > plain.total_flops(), "checksums priced");
        assert!(abft.total_words_sent() > plain.total_words_sent());
    }

    #[test]
    fn summa_abft_detects_injected_corruption() {
        let a = Matrix::random(16, 16, 5);
        let b = Matrix::random(16, 16, 6);
        // Silent corruption: no retries, so the perturbed word is
        // delivered and the panel checksum must catch it.
        let plan = FaultPlan {
            spec: FaultSpec {
                seed: 7,
                corrupt_rate: 1.0,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy::default(),
        };
        let err = summa_matmul_abft(&a, &b, 4, 8, fault_cfg(plan)).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::CorruptPayload { .. } | SimError::PeerFailed(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn verify_matmul_accepts_true_product_and_rejects_corruption() {
        let n = 12;
        let a = Matrix::random(n, n, 8);
        let b = Matrix::random(n, n, 9);
        let c = matmul(&a, &b);
        verify_matmul(&a, &b, &c, ABFT_REL_TOL).unwrap();
        for (i, j) in [(0usize, 0usize), (5, 7), (n - 1, n - 1)] {
            let mut bad = c.clone();
            let x = bad.row(i)[j];
            bad.as_mut_slice()[i * n + j] = x + 1.0 + x.abs();
            let msg = verify_matmul(&a, &b, &bad, ABFT_REL_TOL).unwrap_err();
            assert!(msg.contains(&format!("col {j}")), "{msg}");
        }
    }

    #[test]
    fn mm25d_abft_passes_clean_and_catches_silent_corruption() {
        let n = 16;
        let a = Matrix::random(n, n, 10);
        let b = Matrix::random(n, n, 11);
        let (c, _) = matmul_25d_abft(&a, &b, 8, 2, SimConfig::counters_only()).unwrap();
        assert!(c.max_abs_diff(&matmul(&a, &b)) < 1e-10);

        let plan = FaultPlan {
            spec: FaultSpec {
                seed: 3,
                corrupt_rate: 0.5,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy::default(),
        };
        let err = matmul_25d_abft(&a, &b, 8, 2, fault_cfg(plan)).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::CorruptPayload { .. } | SimError::PeerFailed(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn mm25d_abft_with_retry_recovers_clean_numerics() {
        let n = 16;
        let a = Matrix::random(n, n, 12);
        let b = Matrix::random(n, n, 13);
        let plan = FaultPlan {
            spec: FaultSpec {
                seed: 4,
                drop_rate: 0.2,
                corrupt_rate: 0.2,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 32,
                retry_backoff: 0.0,
                checkpoint: None,
            },
        };
        let (c, profile) = matmul_25d_abft(&a, &b, 8, 2, fault_cfg(plan)).unwrap();
        assert!(c.max_abs_diff(&matmul(&a, &b)) < 1e-10);
        assert!(profile.total_retries() > 0, "faults were actually injected");
    }
}
