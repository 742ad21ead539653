//! The sequential two-level-memory machine model (paper Fig. 1(a)) and
//! its energy analysis.
//!
//! The paper's lower bounds (Eqs. 3–4) are stated for a sequential
//! machine with a fast memory of `M` words backed by a slow memory:
//! a computation executing `F` flops moves `W = Ω(max(I+O, F/√M))` words
//! across the fast/slow boundary. Pricing that traffic with the same
//! linear models gives a sequential analogue of everything in the
//! parallel story — including an **energy-optimal fast-memory size**:
//! a bigger cache reduces traffic energy but costs `δe·M·T` to keep
//! powered.
//!
//! The executable counterpart lives in `psse-sim::seqmem` (an LRU cache
//! simulator) and `psse-algos::seq_matmul` (instrumented naive/blocked
//! matmul), which verify the `Θ(n³/√M)` traffic law that this module
//! prices.

use crate::bounds::sequential_word_lower_bound;
use crate::error::CoreError;
use crate::params::MachineParams;
use crate::Real;

/// Per-run counts on the sequential machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialCosts {
    /// Flops executed.
    pub flops: Real,
    /// Words moved between slow and fast memory.
    pub words: Real,
    /// Messages (cache lines / DMA transfers) moved.
    pub messages: Real,
}

/// Model traffic of blocked (tiled) classical matmul with tile edge
/// `b = sqrt(M/3)`: each of the `(n/b)³` tile-multiplications touches
/// `3b²` words, of which `2b²` must cross the boundary (A and B tiles;
/// C stays resident per output tile), plus reading/writing C once.
///
/// `W ≈ 2·n³/b + 2n² = 2·√3·n³/√M + 2n²`.
pub fn blocked_matmul_costs(n: u64, fast_words: Real, line_words: Real) -> SequentialCosts {
    let nf = n as Real;
    let b = (fast_words / 3.0).sqrt().max(1.0).min(nf);
    let words = 2.0 * nf * nf * nf / b + 2.0 * nf * nf;
    SequentialCosts {
        flops: 2.0 * nf * nf * nf,
        words,
        messages: words / line_words.max(1.0),
    }
}

/// Runtime of a sequential run (Eq. 1 with `p = 1`).
pub fn sequential_time(params: &MachineParams, c: &SequentialCosts) -> Real {
    params.gamma_t * c.flops + params.beta_t * c.words + params.alpha_t * c.messages
}

/// Energy of a sequential run (Eq. 2 with `p = 1`): `mem` is the fast
/// memory kept powered for the duration.
pub fn sequential_energy(params: &MachineParams, c: &SequentialCosts, mem: Real) -> Real {
    let t = sequential_time(params, c);
    params.gamma_e * c.flops
        + params.beta_e * c.words
        + params.alpha_e * c.messages
        + params.delta_e * mem * t
        + params.epsilon_e * t
}

/// The energy-optimal fast-memory size for blocked matmul on this
/// machine, found by golden-section over `M ∈ [m_lo, 3n²]` (the
/// sequential analogue of the paper's `M0`).
pub fn optimal_fast_memory(
    params: &MachineParams,
    n: u64,
    m_lo: Real,
) -> Result<(Real, Real), CoreError> {
    params.validate()?;
    if n < 2 || !(m_lo >= 3.0) {
        return Err(CoreError::InvalidConfiguration(
            "need n >= 2 and m_lo >= 3".into(),
        ));
    }
    let nf = n as Real;
    let hi = 3.0 * nf * nf;
    if m_lo >= hi {
        return Err(CoreError::InvalidConfiguration(format!(
            "m_lo = {m_lo} must be below 3n² = {hi}"
        )));
    }
    let eval = |m: Real| {
        let c = blocked_matmul_costs(n, m, params.max_message_words);
        sequential_energy(params, &c, m)
    };
    Ok(crate::optimize::numeric::golden_section_min(
        eval, m_lo, hi, 1e-12,
    ))
}

/// How far a measured traffic count sits above the sequential lower
/// bound (Eq. 3): returns `measured / bound`. Values ≥ 1 certify the
/// measurement respects the bound; small constants certify near-
/// optimality of the algorithm.
pub fn traffic_vs_lower_bound(n: u64, fast_words: Real, measured_words: Real) -> Real {
    let nf = n as Real;
    let bound = sequential_word_lower_bound(
        2.0 * nf * nf * nf,
        fast_words,
        2.0 * nf * nf, // inputs A, B
        nf * nf,       // output C
    );
    measured_words / bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MachineParams {
        MachineParams::builder()
            .gamma_t(1e-9)
            .beta_t(1e-8)
            .alpha_t(1e-7)
            .gamma_e(1e-9)
            .beta_e(1e-7)
            .alpha_e(0.0)
            .delta_e(1e-6)
            .epsilon_e(0.0)
            .max_message_words(8.0)
            .build()
            .unwrap()
    }

    #[test]
    fn blocked_traffic_scales_as_inverse_sqrt_m() {
        let w1 = blocked_matmul_costs(1 << 10, 3.0 * 1024.0, 8.0).words;
        let w4 = blocked_matmul_costs(1 << 10, 12.0 * 1024.0, 8.0).words;
        // 4x the memory → ~2x less dominant traffic.
        let ratio = w1 / w4;
        assert!((1.7..=2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn blocked_traffic_respects_lower_bound_with_small_constant() {
        for log_m in [12u32, 14, 16] {
            let n = 1u64 << 10;
            let m = (1u64 << log_m) as Real;
            let c = blocked_matmul_costs(n, m, 8.0);
            let ratio = traffic_vs_lower_bound(n, m, c.words);
            assert!(ratio >= 1.0, "model must respect the bound: {ratio}");
            assert!(ratio < 4.0, "and sit within a small constant: {ratio}");
        }
    }

    #[test]
    fn sequential_energy_has_optimal_cache_size() {
        let mp = params();
        let n = 1u64 << 10;
        let (m_star, e_star) = optimal_fast_memory(&mp, n, 48.0).unwrap();
        assert!(m_star > 48.0 && m_star < 3.0 * ((n * n) as Real));
        // Perturbing M raises energy.
        for f in [0.3, 0.7, 1.5, 3.0] {
            let m = m_star * f;
            let c = blocked_matmul_costs(n, m, mp.max_message_words);
            assert!(
                sequential_energy(&mp, &c, m) >= e_star * (1.0 - 1e-9),
                "f={f}"
            );
        }
    }

    #[test]
    fn bigger_cache_never_slows_the_blocked_algorithm() {
        let mp = params();
        let n = 1u64 << 10;
        let mut last = Real::MAX;
        for log_m in 8..20 {
            let m = (1u64 << log_m) as Real;
            let c = blocked_matmul_costs(n, m, mp.max_message_words);
            let t = sequential_time(&mp, &c);
            assert!(t <= last * (1.0 + 1e-12));
            last = t;
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let mp = params();
        assert!(optimal_fast_memory(&mp, 1, 48.0).is_err());
        assert!(optimal_fast_memory(&mp, 1024, 1.0).is_err());
        assert!(optimal_fast_memory(&mp, 4, 1e12).is_err());
    }
}
