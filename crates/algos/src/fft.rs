//! Distributed FFT (paper §IV, "Fast Fourier transform").
//!
//! The transpose ("six-step") algorithm: view the length-`N = n1·n2`
//! signal as an `n1 × n2` matrix (`x[j1·n2 + j2] = X[j1][j2]`), then
//!
//! 1. `n1`-point FFTs down the columns (local: each rank owns `n2/p`
//!    complete columns),
//! 2. twiddle scaling by `ω_N^(±j2·k1)`,
//! 3. a **global transpose** — the all-to-all that dominates
//!    communication,
//! 4. `n2`-point FFTs along the rows (local: each rank owns `n1/p` rows).
//!
//! The output element `X̂[k1 + n1·k2]` lands on the rank owning row `k1`.
//!
//! The all-to-all comes in the two flavours the paper prices:
//! [`AllToAllKind::Pairwise`] (`W = Θ(N/p)`, `S = Θ(p)`) and
//! [`AllToAllKind::Hypercube`] (`W = Θ((N/p)·log p)`, `S = Θ(log p)` —
//! the "tree-based" variant). Neither has a perfect strong scaling
//! range: the FFT has no use for extra memory, and one of `S` or `W·p`
//! always grows with `p` — the paper's counterexample algorithm.

use psse_kernels::fft::{fft_flops, fft_in_place, Complex64, Direction};
use psse_sim::prelude::*;

/// Which all-to-all implementation carries the transpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllToAllKind {
    /// Pairwise exchange: `p − 1` rounds, minimal words, `Θ(p)` messages.
    Pairwise,
    /// Hypercube store-and-forward: `log₂ p` rounds, `Θ(log p)` messages,
    /// each word forwarded `log p / 2` times on average.
    Hypercube,
}

/// Compute the DFT of `input` (length a power of two) on `p` ranks
/// (power of two, `p² ≤ n`). Returns the spectrum in natural order plus
/// the execution profile.
pub fn distributed_fft(
    input: &[Complex64],
    p: usize,
    kind: AllToAllKind,
    cfg: SimConfig,
) -> Result<(Vec<Complex64>, Profile), SimError> {
    let n = input.len();
    if !n.is_power_of_two() || n < 2 {
        return Err(SimError::Algorithm(format!(
            "fft: length must be a power of two >= 2, got {n}"
        )));
    }
    if !p.is_power_of_two() {
        return Err(SimError::Algorithm(format!(
            "fft: rank count must be a power of two, got {p}"
        )));
    }
    // Factor N = n1·n2 with both factors divisible by p.
    let log_n = n.trailing_zeros();
    let log_n1 = log_n.div_ceil(2);
    let n1 = 1usize << log_n1;
    let n2 = n / n1;
    if !n1.is_multiple_of(p) || !n2.is_multiple_of(p) {
        return Err(SimError::Algorithm(format!(
            "fft: need p | n1 and p | n2 (n1 = {n1}, n2 = {n2}, p = {p}); \
             use p² ≤ n"
        )));
    }
    let cols_per = n2 / p;
    let rows_per = n1 / p;

    let out = Machine::run(p, cfg, |rank| {
        let me = rank.rank();
        // Local working set: n/p complex values (2 words each), twice
        // (input + transpose buffers).
        rank.alloc((4 * n / p) as u64)?;

        // Phase 1: local column FFTs. Rank owns columns
        // j2 ∈ [me·cols_per, (me+1)·cols_per); column j2 is
        // x[j1·n2 + j2], j1 = 0..n1.
        let mut cols: Vec<Vec<Complex64>> = (0..cols_per)
            .map(|jc| {
                let j2 = me * cols_per + jc;
                (0..n1).map(|j1| input[j1 * n2 + j2]).collect()
            })
            .collect();
        for col in cols.iter_mut() {
            fft_in_place(col, Direction::Forward);
        }
        rank.compute(cols_per as u64 * fft_flops(n1 as u64));

        // Phase 2: twiddles — entry (k1, j2) scales by ω_N^(−j2·k1).
        for (jc, col) in cols.iter_mut().enumerate() {
            let j2 = me * cols_per + jc;
            for (k1, v) in col.iter_mut().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j2 as f64) * (k1 as f64) / (n as f64);
                *v = *v * Complex64::from_polar(ang);
            }
        }
        rank.compute((cols_per * n1) as u64 * 6);

        // Phase 3: global transpose. Block for destination d: rows
        // k1 ∈ [d·rows_per, (d+1)·rows_per) of my columns, flattened
        // (k1-major, then j2, re/im interleaved).
        let group = Group::world(p);
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|d| {
                let mut blk = Vec::with_capacity(rows_per * cols_per * 2);
                for kr in 0..rows_per {
                    let k1 = d * rows_per + kr;
                    for col in cols.iter() {
                        blk.push(col[k1].re);
                        blk.push(col[k1].im);
                    }
                }
                blk
            })
            .collect();
        let received = match kind {
            AllToAllKind::Pairwise => rank.alltoall(Tag(0), &group, blocks)?,
            AllToAllKind::Hypercube => rank.alltoall_hypercube(Tag(0), &group, blocks)?,
        };

        // Reassemble rows: row k1 (owned: k1 ∈ me·rows_per..) over all
        // j2. Block from source s carries columns s·cols_per.. of my
        // rows.
        let mut rows: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; n2]; rows_per];
        for (s, blk) in received.iter().enumerate() {
            for kr in 0..rows_per {
                for jc in 0..cols_per {
                    let off = (kr * cols_per + jc) * 2;
                    rows[kr][s * cols_per + jc] = Complex64::new(blk[off], blk[off + 1]);
                }
            }
        }

        // Phase 4: local row FFTs (over j2 → k2).
        for row in rows.iter_mut() {
            fft_in_place(row, Direction::Forward);
        }
        rank.compute(rows_per as u64 * fft_flops(n2 as u64));

        // Flatten result: rank holds X̂[k1 + n1·k2] for its k1 range.
        let mut flat = Vec::with_capacity(rows_per * n2 * 2);
        for row in rows {
            for v in row {
                flat.push(v.re);
                flat.push(v.im);
            }
        }
        rank.free((4 * n / p) as u64)?;
        Ok(flat)
    })?;

    // Gather: rank me holds rows k1 = me·rows_per.. ; X̂[k1 + n1·k2] =
    // rows[k1][k2].
    let mut spectrum = vec![Complex64::ZERO; n];
    for (me, flat) in out.results.iter().enumerate() {
        for kr in 0..rows_per {
            let k1 = me * rows_per + kr;
            for k2 in 0..n2 {
                let off = (kr * n2 + k2) * 2;
                spectrum[k1 + n1 * k2] = Complex64::new(flat[off], flat[off + 1]);
            }
        }
    }
    Ok((spectrum, out.profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_kernels::fft::fft;
    use psse_kernels::rng::XorShift64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = XorShift64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect()
    }

    fn assert_spectra_match(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "bin {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn matches_sequential_fft_pairwise() {
        for (n, p) in [(16usize, 1usize), (16, 2), (64, 4), (256, 8), (256, 16)] {
            let x = random_signal(n, n as u64);
            let (spec, _) =
                distributed_fft(&x, p, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
            assert_spectra_match(&spec, &fft(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn matches_sequential_fft_hypercube() {
        for (n, p) in [(64usize, 4usize), (256, 8), (1024, 16)] {
            let x = random_signal(n, 7 * n as u64);
            let (spec, _) =
                distributed_fft(&x, p, AllToAllKind::Hypercube, SimConfig::counters_only())
                    .unwrap();
            assert_spectra_match(&spec, &fft(&x), 1e-9 * n as f64);
        }
    }

    /// A corrupting link with no retries to fall back on perturbs one
    /// word of a transfer now and then — a hypercube record's header as
    /// often as its data. A perturbed data word is a wrong value; a
    /// perturbed header must be a typed refusal naming the record, never
    /// a rank that panics reading past its payload.
    #[test]
    fn corrupt_hypercube_headers_are_refused_not_panicked_on() {
        let x = random_signal(256, 9);
        let mut refused = 0;
        for seed in 0..20 {
            let cfg = SimConfig {
                faults: Some(FaultPlan {
                    spec: FaultSpec {
                        seed,
                        corrupt_rate: 0.5,
                        ..FaultSpec::default()
                    },
                    recovery: RecoveryPolicy::default(),
                }),
                ..SimConfig::default()
            };
            if let Err(e) = distributed_fft(&x, 8, AllToAllKind::Hypercube, cfg) {
                let msg = e.to_string();
                assert!(!msg.contains("panicked"), "seed {seed}: {msg}");
                refused += 1;
            }
        }
        assert!(refused > 0, "twenty half-corrupt runs must hit a header");
    }

    #[test]
    fn message_counts_match_paper_costs() {
        // Pairwise: S = Θ(p); hypercube: S = Θ(log p).
        let n = 1024;
        let p = 16;
        let x = random_signal(n, 3);
        let (_, naive) =
            distributed_fft(&x, p, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
        let (_, tree) =
            distributed_fft(&x, p, AllToAllKind::Hypercube, SimConfig::counters_only()).unwrap();
        assert_eq!(naive.max_msgs_sent(), (p - 1) as u64);
        assert_eq!(tree.max_msgs_sent(), (p as f64).log2() as u64);
        // And the word trade-off: the tree moves more words.
        assert!(tree.max_words_sent() > naive.max_words_sent());
    }

    #[test]
    fn words_scale_as_n_over_p() {
        // Pairwise all-to-all: W per rank ≈ 2·(n/p)·(p−1)/p complex
        // words... in plain words: ~2n/p·(1 − 1/p) values × 2 f64 each.
        let n = 4096;
        let x = random_signal(n, 4);
        let (_, p8) =
            distributed_fft(&x, 8, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
        let (_, p16) =
            distributed_fft(&x, 16, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
        let w8 = p8.max_words_sent() as f64;
        let w16 = p16.max_words_sent() as f64;
        let ratio = w8 / w16;
        assert!((1.6..=2.4).contains(&ratio), "W should halve: {ratio}");
    }

    #[test]
    fn flops_scale_perfectly() {
        let n = 4096;
        let x = random_signal(n, 5);
        let (_, p4) =
            distributed_fft(&x, 4, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
        let (_, p16) =
            distributed_fft(&x, 16, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
        let ratio = p4.max_flops() as f64 / p16.max_flops() as f64;
        assert!((3.9..=4.1).contains(&ratio), "flop ratio {ratio}");
    }

    #[test]
    fn rejects_bad_configurations() {
        let x = random_signal(96, 1); // not a power of two
        assert!(
            distributed_fft(&x, 4, AllToAllKind::Pairwise, SimConfig::counters_only()).is_err()
        );
        let x = random_signal(64, 2);
        assert!(
            distributed_fft(&x, 3, AllToAllKind::Pairwise, SimConfig::counters_only()).is_err()
        );
        // p too large: p² > n.
        assert!(
            distributed_fft(&x, 16, AllToAllKind::Pairwise, SimConfig::counters_only()).is_err()
        );
    }

    #[test]
    fn impulse_spectrum_is_flat() {
        let n = 256;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        let (spec, _) =
            distributed_fft(&x, 4, AllToAllKind::Pairwise, SimConfig::counters_only()).unwrap();
        for v in spec {
            assert!((v - Complex64::ONE).abs() < 1e-10);
        }
    }
}
