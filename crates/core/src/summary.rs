//! Bridging measured executions (from `psse-sim`) to the analytical
//! models.
//!
//! `psse-core` deliberately does not depend on the simulator; instead the
//! simulator's per-rank counter profile is condensed into an
//! [`ExecutionSummary`], which this module prices with Eqs. 1 and 2.

use crate::costs::AlgorithmCosts;
use crate::error::CoreError;
use crate::params::MachineParams;
use crate::Real;

/// Condensed per-run counters from an execution on `p` processors.
///
/// `flops`/`words`/`messages` are **critical-path** (max over ranks)
/// per-processor counts — the quantities priced by Eq. 1 — while the
/// `total_*` fields are sums over ranks, used for aggregate energy
/// accounting and sanity checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionSummary {
    /// Number of processors.
    pub p: u64,
    /// Max over ranks of flops executed.
    pub flops: Real,
    /// Max over ranks of words sent.
    pub words: Real,
    /// Max over ranks of messages sent.
    pub messages: Real,
    /// Max over ranks of the memory high-water mark, in words.
    pub mem_peak_words: Real,
    /// Sum over ranks of flops.
    pub total_flops: Real,
    /// Sum over ranks of words sent.
    pub total_words: Real,
    /// Sum over ranks of messages sent.
    pub total_messages: Real,
    /// Virtual makespan reported by the simulator, if any (seconds).
    /// When present it is used as `T` instead of re-deriving from the
    /// critical-path counts (the simulator's message-DAG makespan is at
    /// least as accurate as the no-overlap sum of Eq. 1).
    pub makespan: Option<Real>,
}

/// The priced outcome of a run: runtime, energy and average power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Runtime `T` in seconds.
    pub time: Real,
    /// Energy `E` in joules.
    pub energy: Real,
    /// Average power `P = E/T` in watts.
    pub power: Real,
}

impl ExecutionSummary {
    /// The critical-path per-processor costs as an [`AlgorithmCosts`].
    pub fn critical_path_costs(&self) -> AlgorithmCosts {
        AlgorithmCosts {
            flops: self.flops,
            words: self.words,
            messages: self.messages,
        }
    }

    /// Price this execution on a machine.
    ///
    /// * `T` is the simulator makespan when available, otherwise Eq. 1 on
    ///   the critical-path counts.
    /// * `E` follows Eq. 2, with the flop/word/message energies paid on
    ///   **totals** (each op costs energy wherever it ran) and the
    ///   `δe·M·T + εe·T` terms paid by all `p` processors for the full
    ///   runtime, using the peak memory footprint.
    pub fn price(&self, params: &MachineParams) -> Measured {
        let t = self
            .makespan
            .unwrap_or_else(|| params.time(&self.critical_path_costs()));
        let energy = params.gamma_e * self.total_flops
            + params.beta_e * self.total_words
            + params.alpha_e * self.total_messages
            + (self.p as Real) * (params.delta_e * self.mem_peak_words + params.epsilon_e) * t;
        Measured {
            time: t,
            energy,
            power: if t > 0.0 { energy / t } else { 0.0 },
        }
    }
}

/// The prices Eq. 1 charges.
const TIME_PRICES: &str = "gamma_t, beta_t and alpha_t";
/// Every price of Eqs. 1 and 2.
const ALL_PRICES: &str =
    "gamma_t, beta_t, alpha_t, gamma_e, beta_e, alpha_e, delta_e and epsilon_e";

/// `value`, or [`CoreError::PriceOverflow`] when it is not finite. `T`
/// names the prices of Eq. 1; any other quantity all the prices of
/// Eqs. 1 and 2.
pub fn finite(quantity: &'static str, value: Real) -> Result<Real, CoreError> {
    if value.is_finite() {
        return Ok(value);
    }
    let prices = if quantity == "T" {
        TIME_PRICES
    } else {
        ALL_PRICES
    };
    Err(CoreError::PriceOverflow { quantity, prices })
}

impl Measured {
    /// This measurement, or [`CoreError::PriceOverflow`] for the first
    /// of `T`, `E` and `P` that is not finite: finite prices too large
    /// for the run, which would otherwise print as `inf` or `NaN`.
    pub fn finite(self) -> Result<Self, CoreError> {
        finite("T", self.time)?;
        finite("E", self.energy)?;
        finite("P", self.power)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MachineParams {
        MachineParams::builder()
            .gamma_t(1e-9)
            .beta_t(1e-8)
            .alpha_t(1e-6)
            .gamma_e(2e-9)
            .beta_e(3e-8)
            .alpha_e(4e-6)
            .delta_e(1e-10)
            .epsilon_e(0.5)
            .max_message_words(1024.0)
            .build()
            .unwrap()
    }

    fn summary() -> ExecutionSummary {
        ExecutionSummary {
            p: 4,
            flops: 1000.0,
            words: 100.0,
            messages: 10.0,
            mem_peak_words: 5000.0,
            total_flops: 3800.0,
            total_words: 380.0,
            total_messages: 38.0,
            makespan: None,
        }
    }

    #[test]
    fn time_uses_critical_path_when_no_makespan() {
        let s = summary();
        let mp = params();
        let m = s.price(&mp);
        let expected_t = 1e-9 * 1000.0 + 1e-8 * 100.0 + 1e-6 * 10.0;
        assert!((m.time - expected_t).abs() < 1e-18);
    }

    #[test]
    fn time_prefers_makespan() {
        let mut s = summary();
        s.makespan = Some(42.0);
        let m = s.price(&params());
        assert_eq!(m.time, 42.0);
    }

    #[test]
    fn energy_matches_hand_computation() {
        let s = summary();
        let mp = params();
        let m = s.price(&mp);
        let t = m.time;
        let expected =
            2e-9 * 3800.0 + 3e-8 * 380.0 + 4e-6 * 38.0 + 4.0 * (1e-10 * 5000.0 + 0.5) * t;
        assert!((m.energy - expected).abs() / expected < 1e-12);
        assert!((m.power - expected / t).abs() / m.power < 1e-12);
    }

    #[test]
    fn uniform_ranks_make_totals_p_times_max() {
        // When every rank does identical work, pricing via totals equals
        // the closed-form p·(per-processor) structure of Eq. 2.
        let mp = params();
        let per = AlgorithmCosts {
            flops: 1000.0,
            words: 100.0,
            messages: 10.0,
        };
        let p = 8u64;
        let s = ExecutionSummary {
            p,
            flops: per.flops,
            words: per.words,
            messages: per.messages,
            mem_peak_words: 5000.0,
            total_flops: per.flops * p as Real,
            total_words: per.words * p as Real,
            total_messages: per.messages * p as Real,
            makespan: None,
        };
        let measured = s.price(&mp);
        let t = mp.time(&per);
        let closed = mp.energy(p, &per, 5000.0, t);
        assert!((measured.energy - closed).abs() / closed < 1e-12);
    }

    /// Finite prices too large for the run price `T`, then `E`, to
    /// infinity: the first quantity that is not finite is refused, by
    /// name, with the prices behind it.
    #[test]
    fn overflowing_prices_are_refused() {
        let s = summary();
        assert_eq!(s.price(&params()).finite(), Ok(s.price(&params())));
        let mut mp = params();
        mp.gamma_e = 1e308;
        let e = s.price(&mp).finite().unwrap_err();
        assert_eq!(
            e,
            CoreError::PriceOverflow {
                quantity: "E",
                prices: ALL_PRICES
            }
        );
        mp.beta_t = 1e308;
        let e = s.price(&mp).finite().unwrap_err();
        assert_eq!(
            e.to_string(),
            "T overflows: gamma_t, beta_t and alpha_t are too large for this run"
        );
    }

    #[test]
    fn zero_runtime_yields_zero_power() {
        let mp = params();
        let s = ExecutionSummary {
            p: 1,
            flops: 0.0,
            words: 0.0,
            messages: 0.0,
            mem_peak_words: 0.0,
            total_flops: 0.0,
            total_words: 0.0,
            total_messages: 0.0,
            makespan: None,
        };
        let m = s.price(&mp);
        assert_eq!(m.power, 0.0);
        assert_eq!(m.energy, 0.0);
    }
}
