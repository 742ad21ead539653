//! Iterated halo-exchange stencil (paper §V applied beyond linear
//! algebra).
//!
//! A periodic `n × n` grid is advanced `iters` sweeps of a
//! `(2h+1) × (2h+1)` box stencil (`h` = halo width): every cell becomes
//! the average of its Chebyshev-radius-`h` neighbourhood. The grid is
//! block-decomposed across `p` ranks ([`Decomp::OneD`]: `p` row slabs;
//! [`Decomp::TwoD`]: a `√p × √p` tile grid) and each sweep exchanges
//! `h`-deep halos with the neighbouring ranks before updating the
//! interior.
//!
//! Cost shape per rank and sweep (2-D tiles of side `b = n/√p`):
//! `F = (2h+1)²·b²` (volume), `W = Θ(h·b) = Θ(h·n/√p)` (surface),
//! `S = 4` (north/south, then east/west carrying the corners). Volume
//! shrinks like `1/p` while surface shrinks like `1/√p` — the classic
//! surface-to-volume law. Unlike sample sort's all-to-all, *both* `W`
//! and `S` per sweep stay bounded (S is constant, W falls), so the
//! stencil **does** admit a perfect strong scaling range; `psse-core`'s
//! `HaloStencilModel` derives its `[pmin, pmax]` band.
//!
//! Determinism: [`serial_stencil`] and the per-rank update both fill a
//! halo-extended buffer and run `psse_kernels::stencil::box_sweep` over
//! it, so the two are **bit-identical** — the tests assert equality of
//! f64 bit patterns, not approximate closeness.

use psse_kernels::rng::XorShift64;
use psse_kernels::stencil::{box_sweep, extend_periodic};
use psse_sim::prelude::*;

/// How the grid is split across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomp {
    /// `p` horizontal slabs of `n/p` rows (halo exchange north/south
    /// only; surface `Θ(h·n)` per rank, independent of `p`).
    OneD,
    /// `√p × √p` square tiles (surface `Θ(h·n/√p)` — the
    /// communication-optimal layout).
    TwoD,
}

impl Decomp {
    /// The decomposition the CLI and the lab runner pick for an `n × n`
    /// grid on `p` ranks: 2-D tiles when `p` is a perfect square whose
    /// side divides `n`, 1-D row slabs otherwise. A pure function of
    /// `(n, p)`, so a lab cache key needs no extra word.
    pub fn for_grid(n: usize, p: usize) -> Decomp {
        let q = (p as f64).sqrt().round() as usize;
        if q * q == p && q > 0 && n.is_multiple_of(q) {
            Decomp::TwoD
        } else {
            Decomp::OneD
        }
    }
}

/// Deterministic seeded initial grid values in `[-1, 1)`.
pub fn random_grid(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed);
    (0..n * n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Flops charged per cell and sweep: `(2h+1)² − 1` adds plus one
/// multiply by the normalization constant.
pub fn stencil_flops_per_cell(halo: usize) -> u64 {
    let k = 2 * halo as u64 + 1;
    k * k
}

/// Apply `iters` sweeps of the radius-`halo` box stencil serially: each
/// sweep extends the grid periodically by `halo` cells (any `halo`,
/// wrapping as often as needed) and runs [`box_sweep`] over it. Panics
/// unless `grid` holds `n² > 0` values.
pub fn serial_stencil(grid: &[f64], n: usize, halo: usize, iters: usize) -> Vec<f64> {
    assert!(
        n > 0 && n.checked_mul(n) == Some(grid.len()),
        "serial_stencil: an n×n grid with n = {n} must hold n² > 0 values, got {}",
        grid.len()
    );
    let mut g = grid.to_vec();
    for _ in 0..iters {
        let ext = extend_periodic(&g, n, n, halo, halo);
        box_sweep(&ext, n + 2 * halo, n, n, halo, &mut g);
    }
    g
}

/// Validate and return `(rows of rank grid, cols of rank grid)` — the
/// process-grid shape for a decomposition.
fn process_grid(
    n: usize,
    halo: usize,
    decomp: Decomp,
    p: usize,
) -> Result<(usize, usize), SimError> {
    if p == 0 {
        return Err(SimError::Algorithm("stencil: p must be >= 1".into()));
    }
    if halo == 0 {
        return Err(SimError::Algorithm(
            "stencil: halo width must be >= 1".into(),
        ));
    }
    let (pr, pc) = match decomp {
        Decomp::OneD => (p, 1),
        Decomp::TwoD => {
            let q = (p as f64).sqrt().round() as usize;
            if q * q != p {
                return Err(SimError::Algorithm(format!(
                    "stencil: 2-D decomposition needs a square rank count, got p = {p}"
                )));
            }
            (q, q)
        }
    };
    if !n.is_multiple_of(pr) || !n.is_multiple_of(pc) {
        return Err(SimError::Algorithm(format!(
            "stencil: process grid {pr}×{pc} must divide the {n}×{n} domain"
        )));
    }
    if halo > n / pr || halo > n / pc {
        return Err(SimError::Algorithm(format!(
            "stencil: halo {halo} exceeds the local block \
             ({}/{} rows/cols per rank) — neighbours only hold one halo",
            n / pr,
            n / pc
        )));
    }
    Ok((pr, pc))
}

/// Advance the periodic `n × n` grid `iters` sweeps of the radius-`halo`
/// box stencil on `p` ranks. Returns the final grid (row-major) and the
/// execution profile. Requires the process grid to divide `n` and
/// `halo ≤` block side. Each rank exchanges halos into an extended copy
/// of its tile and updates it with [`box_sweep`], as [`serial_stencil`].
pub fn halo_stencil(
    grid: &[f64],
    n: usize,
    halo: usize,
    iters: usize,
    decomp: Decomp,
    p: usize,
    cfg: SimConfig,
) -> Result<(Vec<f64>, Profile), SimError> {
    if grid.len() != n * n || n == 0 {
        return Err(SimError::Algorithm(format!(
            "stencil: grid must hold n² = {} values, got {}",
            n * n,
            grid.len()
        )));
    }
    let (pr, pc) = process_grid(n, halo, decomp, p)?;
    let br = n / pr; // block rows per rank
    let bc = n / pc; // block cols per rank
    let h = halo;

    let out = Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        let (bi, bj) = (me / pc, me % pc);
        let (r0, c0) = (bi * br, bj * bc);
        // Working set: the local block plus the halo-extended buffer.
        let ext_words = ((br + 2 * h) * (bc + 2 * h)) as u64;
        let words = (br * bc) as u64 + ext_words;
        rank.alloc(words)?;

        let mut block: Vec<f64> = (0..br)
            .flat_map(|i| {
                grid[(r0 + i) * n + c0..(r0 + i) * n + c0 + bc]
                    .iter()
                    .copied()
            })
            .collect();

        let north = ((bi + pr - 1) % pr) * pc + bj;
        let south = ((bi + 1) % pr) * pc + bj;
        let west = bi * pc + (bj + pc - 1) % pc;
        let east = bi * pc + (bj + 1) % pc;
        // Halo-extended tile, (br + 2h) × (bc + 2h), refilled every sweep.
        let (vr, ec) = (br + 2 * h, bc + 2 * h);
        let mut ext = vec![0.0; vr * ec];

        for t in 0..iters {
            let tag = Tag(4 * t as u64);
            // Phase A (rows): my top h rows go north, my bottom h rows
            // go south; the reverse transfers fill my row halos. A
            // self-neighbour (pr = 1) wraps locally — no traffic.
            let top: Vec<f64> = block[..h * bc].to_vec();
            let bottom: Vec<f64> = block[(br - h) * bc..].to_vec();
            let (halo_top, halo_bottom) = if north == me {
                (bottom.clone(), top.clone())
            } else {
                let hb = rank.sendrecv(north, tag, top, south, tag)?;
                let ht = rank.sendrecv(south, tag.offset(1), bottom, north, tag.offset(1))?;
                (ht, hb)
            };

            // Centre columns: the vertically extended block, vr × bc.
            let rows = halo_top
                .chunks_exact(bc)
                .chain(block.chunks_exact(bc))
                .chain(halo_bottom.chunks_exact(bc));
            for (r, row) in rows.enumerate() {
                ext[r * ec + h..r * ec + h + bc].copy_from_slice(row);
            }

            // Phase B (cols): h-wide edge columns of the *extended*
            // block travel west/east, carrying the corner halos.
            let col_slab = |cs: usize| -> Vec<f64> {
                let mut v = Vec::with_capacity(vr * h);
                for r in 0..vr {
                    v.extend_from_slice(&ext[r * ec + h + cs..][..h]);
                }
                v
            };
            let left = col_slab(0);
            let right = col_slab(bc - h);
            let (halo_left, halo_right) = if west == me {
                (right.clone(), left.clone())
            } else {
                let hr = rank.sendrecv(west, tag.offset(2), left, east, tag.offset(2))?;
                let hl = rank.sendrecv(east, tag.offset(3), right, west, tag.offset(3))?;
                (hl, hr)
            };
            for r in 0..vr {
                ext[r * ec..r * ec + h].copy_from_slice(&halo_left[r * h..(r + 1) * h]);
                ext[r * ec + h + bc..(r + 1) * ec].copy_from_slice(&halo_right[r * h..(r + 1) * h]);
            }

            box_sweep(&ext, ec, br, bc, h, &mut block);
            rank.compute((br * bc) as u64 * stencil_flops_per_cell(h));
        }

        rank.free(words)?;
        Ok(block)
    })?;

    // Reassemble the row-major global grid from the rank tiles.
    let mut result = vec![0.0; n * n];
    for (me, block) in out.results.iter().enumerate() {
        let (bi, bj) = (me / pc, me % pc);
        for i in 0..br {
            let row = (bi * br + i) * n + bj * bc;
            result[row..row + bc].copy_from_slice(&block[i * bc..(i + 1) * bc]);
        }
    }
    Ok((result, out.profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bits_equal(a: &[f64], b: &[f64], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: cell {i}: {x} vs {y}");
        }
    }

    #[test]
    fn for_grid_picks_tiles_only_for_a_square_p_dividing_n() {
        assert_eq!(Decomp::for_grid(32, 1), Decomp::TwoD);
        assert_eq!(Decomp::for_grid(32, 4), Decomp::TwoD);
        assert_eq!(Decomp::for_grid(32, 16), Decomp::TwoD);
        assert_eq!(Decomp::for_grid(32, 8), Decomp::OneD); // not a square
        assert_eq!(Decomp::for_grid(32, 9), Decomp::OneD); // 3 does not divide 32
        assert_eq!(Decomp::for_grid(32, 0), Decomp::OneD); // rejected downstream
    }

    #[test]
    fn matches_serial_bit_identically_1d() {
        for (n, p, h, iters) in [
            (16usize, 1usize, 1usize, 2usize),
            (16, 4, 1, 3),
            (24, 8, 2, 2),
        ] {
            let grid = random_grid(n, 3 + n as u64);
            let (out, _) = halo_stencil(
                &grid,
                n,
                h,
                iters,
                Decomp::OneD,
                p,
                SimConfig::counters_only(),
            )
            .unwrap();
            let reference = serial_stencil(&grid, n, h, iters);
            assert_bits_equal(&out, &reference, &format!("1d n={n} p={p} h={h}"));
        }
    }

    #[test]
    fn matches_serial_bit_identically_2d() {
        for (n, p, h, iters) in [
            (16usize, 4usize, 1usize, 2usize),
            (16, 16, 2, 2),
            (24, 9, 3, 1),
        ] {
            let grid = random_grid(n, 7 + n as u64);
            let (out, _) = halo_stencil(
                &grid,
                n,
                h,
                iters,
                Decomp::TwoD,
                p,
                SimConfig::counters_only(),
            )
            .unwrap();
            let reference = serial_stencil(&grid, n, h, iters);
            assert_bits_equal(&out, &reference, &format!("2d n={n} p={p} h={h}"));
        }
    }

    #[test]
    fn serial_stencil_wraps_a_halo_wider_than_the_grid() {
        // n = 3, h = 4: the 9×9 window laps the torus three times each
        // way, so every cell averages every grid value nine times over.
        let grid = random_grid(3, 17);
        let mean = grid.iter().sum::<f64>() / 9.0;
        for v in serial_stencil(&grid, 3, 4, 1) {
            assert!((v - mean).abs() < 1e-12, "{v} vs mean {mean}");
        }
    }

    #[test]
    #[should_panic(expected = "n = 4 must hold n² > 0 values, got 15")]
    fn serial_stencil_names_a_grid_of_the_wrong_length() {
        serial_stencil(&[0.0; 15], 4, 1, 1);
    }

    #[test]
    #[should_panic(expected = "n = 0 must hold n² > 0 values, got 0")]
    fn serial_stencil_rejects_an_empty_grid() {
        serial_stencil(&[], 0, 1, 1);
    }

    #[test]
    fn words_match_surface_formula_2d() {
        // Per rank and sweep: rows 2·h·b words + extended cols
        // 2·h·(b + 2h) words — every rank symmetric under periodicity.
        let (n, p, h, iters) = (32usize, 16usize, 2usize, 3usize);
        let grid = random_grid(n, 5);
        let (_, profile) = halo_stencil(
            &grid,
            n,
            h,
            iters,
            Decomp::TwoD,
            p,
            SimConfig::counters_only(),
        )
        .unwrap();
        let b = n / 4;
        let per_sweep = 2 * h * b + 2 * h * (b + 2 * h);
        assert_eq!(profile.max_words_sent(), (iters * per_sweep) as u64);
        // And exactly 4 messages per sweep.
        assert_eq!(profile.max_msgs_sent(), (4 * iters) as u64);
    }

    #[test]
    fn surface_to_volume_scaling() {
        // Doubling the process-grid edge halves W per rank (surface ~
        // h·n/√p) and quarters F per rank (volume ~ n²/p).
        let n = 64;
        let grid = random_grid(n, 9);
        let (_, p4) =
            halo_stencil(&grid, n, 1, 2, Decomp::TwoD, 4, SimConfig::counters_only()).unwrap();
        let (_, p16) =
            halo_stencil(&grid, n, 1, 2, Decomp::TwoD, 16, SimConfig::counters_only()).unwrap();
        let w_ratio = p4.max_words_sent() as f64 / p16.max_words_sent() as f64;
        let f_ratio = p4.max_flops() as f64 / p16.max_flops() as f64;
        assert!((1.8..=2.2).contains(&w_ratio), "surface ratio {w_ratio}");
        assert!((f_ratio - 4.0).abs() < 1e-12, "volume ratio {f_ratio}");
    }

    #[test]
    fn one_d_slabs_exchange_full_rows() {
        // 1-D: W per rank and sweep is 2·h·n — independent of p (the
        // reason 2-D wins at scale).
        let n = 32;
        let grid = random_grid(n, 11);
        for p in [2usize, 4, 8] {
            let (_, profile) =
                halo_stencil(&grid, n, 1, 1, Decomp::OneD, p, SimConfig::counters_only()).unwrap();
            assert_eq!(profile.max_words_sent(), 2 * n as u64, "p={p}");
        }
    }

    #[test]
    fn zero_iterations_is_identity() {
        let n = 16;
        let grid = random_grid(n, 13);
        let (out, profile) =
            halo_stencil(&grid, n, 1, 0, Decomp::TwoD, 4, SimConfig::counters_only()).unwrap();
        assert_bits_equal(&out, &grid, "identity");
        assert_eq!(profile.total_words_sent(), 0);
    }

    #[test]
    fn rejects_bad_configurations() {
        let grid = random_grid(16, 1);
        let cfg = SimConfig::counters_only;
        // Non-square p for 2-D.
        assert!(halo_stencil(&grid, 16, 1, 1, Decomp::TwoD, 8, cfg()).is_err());
        // Process grid does not divide n.
        assert!(halo_stencil(&grid, 16, 1, 1, Decomp::OneD, 5, cfg()).is_err());
        // Halo exceeds the block.
        assert!(halo_stencil(&grid, 16, 3, 1, Decomp::OneD, 8, cfg()).is_err());
        // Zero halo.
        assert!(halo_stencil(&grid, 16, 0, 1, Decomp::OneD, 4, cfg()).is_err());
        // Grid length mismatch.
        assert!(halo_stencil(&grid, 8, 1, 1, Decomp::OneD, 2, cfg()).is_err());
    }
}
