//! SUMMA: the broadcast-based 2D matrix multiplication baseline
//! (van de Geijn & Watts; paper §III).
//!
//! Like Cannon, SUMMA is a `M = n²/p` "2D" algorithm, but it communicates
//! via row/column panel **broadcasts** instead of torus shifts, and its
//! panel width `w` exposes the latency/bandwidth trade-off: narrow panels
//! mean more, smaller messages (`S ∝ n/w`), wide panels fewer, larger
//! ones — a knob `psse_bench::figures::ablation_collectives` sweeps.

use crate::bridge::gather_blocks_2d;
use psse_kernels::gemm;
use psse_kernels::matrix::Matrix;
use psse_sim::collectives::TAG_WINDOW;
use psse_sim::error::SimResult;
use psse_sim::prelude::*;

/// A panel broadcast: `(rank, tag, group, root, the root's payload,
/// panel name for error details)` to every member's copy of the payload.
pub(crate) type PanelBroadcast =
    fn(&mut Rank, Tag, &Group, usize, Option<Vec<f64>>, &str) -> SimResult<Vec<f64>>;

/// How panels travel in one SUMMA variant.
pub(crate) struct Panels {
    /// Names the variant in error strings.
    pub label: &'static str,
    /// Words each in-flight panel holds on top of its payload.
    pub extra_words: u64,
    /// Moves one panel.
    pub broadcast: PanelBroadcast,
}

/// Multiply `a · b` with SUMMA on `p = q²` ranks using panels of width
/// `panel` (`panel | n/q` required; `panel = n/q` broadcasts whole
/// blocks).
pub fn summa_matmul(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    panel: usize,
    cfg: SimConfig,
) -> Result<(Matrix, Profile), SimError> {
    let plain = Panels {
        label: "summa",
        extra_words: 0,
        broadcast: |rank, tag, group, root, payload, _| rank.broadcast(tag, group, root, payload),
    };
    summa_with(a, b, p, panel, cfg, &plain)
}

/// The SUMMA body, with the panel transport left to `panels`.
pub(crate) fn summa_with(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    panel: usize,
    cfg: SimConfig,
    panels: &Panels,
) -> Result<(Matrix, Profile), SimError> {
    let label = panels.label;
    let grid = Grid2::from_p(p)?;
    let q = grid.q();
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        return Err(SimError::Algorithm(format!(
            "{label}: need square n×n inputs, got A {}x{}, B {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    if !n.is_multiple_of(q) {
        return Err(SimError::Algorithm(format!(
            "{label}: grid edge q = {q} must divide n = {n}"
        )));
    }
    let bs = n / q;
    if panel == 0 || !bs.is_multiple_of(panel) {
        return Err(SimError::Algorithm(format!(
            "{label}: panel width {panel} must divide the block size {bs}"
        )));
    }

    let out = Machine::run(p, cfg, |rank| {
        let (r, c) = grid.coords(rank.rank());
        let block_words = (bs * bs) as u64;
        let panel_words = (bs * panel) as u64;
        rank.alloc(3 * block_words + 2 * (panel_words + panels.extra_words))?;
        let la = a.block(r * bs, c * bs, bs, bs);
        let lb = b.block(r * bs, c * bs, bs, bs);
        let mut lc = Matrix::zeros(bs, bs);
        let row = grid.row_group(r);
        let col = grid.col_group(c);

        for k in 0..n / panel {
            let owner = k * panel / bs; // grid row/col owning this panel
            let offset = (k * panel) % bs; // offset within the owner block
            let base = 2 * TAG_WINDOW * k as u64;

            // A panel: columns [offset, offset+panel) of A_{r,owner},
            // broadcast along the row by the owner column.
            let a_panel = if owner == c {
                Some(la.block(0, offset, bs, panel).into_vec())
            } else {
                None
            };
            let a_panel = (panels.broadcast)(
                rank,
                Tag(base),
                &row,
                grid.rank_of(r, owner),
                a_panel,
                "A panel",
            )?;
            let a_panel = Matrix::from_vec(bs, panel, a_panel);

            // B panel: rows [offset, offset+panel) of B_{owner,c},
            // broadcast along the column by the owner row.
            let b_panel = if owner == r {
                Some(lb.block(offset, 0, panel, bs).into_vec())
            } else {
                None
            };
            let b_panel = (panels.broadcast)(
                rank,
                Tag(base + TAG_WINDOW),
                &col,
                grid.rank_of(owner, c),
                b_panel,
                "B panel",
            )?;
            let b_panel = Matrix::from_vec(panel, bs, b_panel);

            gemm::matmul_add_into(&mut lc, &a_panel, &b_panel);
            rank.compute(gemm::gemm_flops(bs, panel, bs));
        }
        rank.free(3 * block_words + 2 * (panel_words + panels.extra_words))?;
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
        for (n, p, panel) in [
            (8usize, 4usize, 4usize),
            (12, 9, 2),
            (16, 16, 4),
            (16, 4, 8),
        ] {
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let (c, _) = summa_matmul(&a, &b, p, panel, SimConfig::counters_only()).unwrap();
            assert!(
                c.max_abs_diff(&matmul(&a, &b)) < 1e-10,
                "n={n}, p={p}, panel={panel}"
            );
        }
    }

    #[test]
    fn agrees_with_cannon() {
        let n = 24;
        let p = 9;
        let a = Matrix::random(n, n, 3);
        let b = Matrix::random(n, n, 4);
        let (c1, _) = summa_matmul(&a, &b, p, 8, SimConfig::counters_only()).unwrap();
        let (c2, _) = crate::cannon::cannon_matmul(&a, &b, p, SimConfig::counters_only()).unwrap();
        assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    #[test]
    fn narrower_panels_mean_more_messages() {
        let n = 32;
        let p = 16;
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let (_, wide) = summa_matmul(&a, &b, p, 8, SimConfig::counters_only()).unwrap();
        let (_, narrow) = summa_matmul(&a, &b, p, 1, SimConfig::counters_only()).unwrap();
        assert!(
            narrow.total_msgs_sent() > 2 * wide.total_msgs_sent(),
            "narrow {} vs wide {}",
            narrow.total_msgs_sent(),
            wide.total_msgs_sent()
        );
        // Total words are comparable (same panels, just sliced finer).
        let ratio = narrow.total_words_sent() as f64 / wide.total_words_sent() as f64;
        assert!((0.8..=1.2).contains(&ratio), "word ratio {ratio}");
    }

    #[test]
    fn panel_must_divide_block() {
        let a = Matrix::random(16, 16, 1);
        let b = Matrix::random(16, 16, 2);
        assert!(summa_matmul(&a, &b, 4, 3, SimConfig::counters_only()).is_err());
        assert!(summa_matmul(&a, &b, 4, 0, SimConfig::counters_only()).is_err());
    }

    #[test]
    fn flops_are_evenly_distributed() {
        let n = 16;
        let p = 4;
        let a = Matrix::random(n, n, 7);
        let b = Matrix::random(n, n, 8);
        let (_, profile) = summa_matmul(&a, &b, p, 4, SimConfig::counters_only()).unwrap();
        let per_rank = 2 * (n as u64).pow(3) / p as u64;
        for s in profile.per_rank() {
            assert_eq!(s.flops, per_rank);
        }
    }
}
