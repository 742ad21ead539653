//! Machine parameters for the distributed machine model (paper §II).
//!
//! A machine is described by a small set of per-operation prices:
//!
//! | symbol | field      | unit          | meaning                          |
//! |--------|------------|---------------|----------------------------------|
//! | `γt`   | `gamma_t`  | s / flop      | time per floating-point op       |
//! | `βt`   | `beta_t`   | s / word      | inverse link bandwidth           |
//! | `αt`   | `alpha_t`  | s / message   | link latency                     |
//! | `γe`   | `gamma_e`  | J / flop      | energy per floating-point op     |
//! | `βe`   | `beta_e`   | J / word      | energy per word transferred      |
//! | `αe`   | `alpha_e`  | J / message   | energy per message               |
//! | `δe`   | `delta_e`  | J / word / s  | energy to keep one word resident |
//! | `εe`   | `epsilon_e`| J / s         | per-processor leakage power      |
//! | `m`    | `max_message_words` | words | largest single message        |
//! | `M`    | `mem_words`| words         | physical memory per processor    |
//!
//! The paper assumes these remain constant as the machine scales out
//! (justified there by the 3D-torus construction of [Solomonik, Bhatele,
//! Demmel, SC'11]).

use crate::costs::AlgorithmCosts;
use crate::error::CoreError;
use crate::optimize::RunConfig;
use crate::Real;

/// Parameters of the homogeneous distributed machine model.
///
/// Construct with [`MachineParams::builder`] (validated) or use a preset
/// such as [`crate::machines::jaketown`]. All fields are public for use
/// in the closed-form expressions; invariants (non-negativity, positive
/// `γt`, `m ≥ 1`) are enforced at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    /// `γt` — seconds per flop (must be > 0).
    pub gamma_t: Real,
    /// `βt` — seconds per word moved across a link.
    pub beta_t: Real,
    /// `αt` — seconds per message (latency).
    pub alpha_t: Real,
    /// `γe` — joules per flop.
    pub gamma_e: Real,
    /// `βe` — joules per word moved across a link.
    pub beta_e: Real,
    /// `αe` — joules per message.
    pub alpha_e: Real,
    /// `δe` — joules per stored word per second (memory occupancy cost).
    pub delta_e: Real,
    /// `εe` — joules per second of leakage per processor (everything that
    /// is neither compute, link, nor memory: static circuit leakage,
    /// fans, disks, ...).
    pub epsilon_e: Real,
    /// `m` — maximum words per message. The message lower bound is
    /// `S ≥ W/m`; algorithms on the simulator split longer transfers.
    pub max_message_words: Real,
    /// `M` — physical memory per processor, in words. Cost models may use
    /// any `M' ≤ M`.
    pub mem_words: Real,
}

impl MachineParams {
    /// Start building a machine description. All prices default to zero
    /// except `γt` (which has no sensible default and must be set),
    /// `m = 1` and `M = +∞`.
    pub fn builder() -> MachineParamsBuilder {
        MachineParamsBuilder::default()
    }

    /// Evaluate the runtime model, paper **Eq. 1**:
    /// `T = γt·F + βt·W + αt·S`, for per-processor costs along the
    /// critical path.
    pub fn time(&self, costs: &AlgorithmCosts) -> Real {
        self.gamma_t * costs.flops + self.beta_t * costs.words + self.alpha_t * costs.messages
    }

    /// Evaluate the energy model, paper **Eq. 2**:
    /// `E = p·(γe·F + βe·W + αe·S + δe·M·T + εe·T)`
    /// where `costs` are per-processor, `m_used` is the memory used per
    /// processor, and `t` is the runtime (typically `self.time(costs)`).
    pub fn energy(&self, p: u64, costs: &AlgorithmCosts, m_used: Real, t: Real) -> Real {
        (p as Real)
            * (self.gamma_e * costs.flops
                + self.beta_e * costs.words
                + self.alpha_e * costs.messages
                + self.delta_e * m_used * t
                + self.epsilon_e * t)
    }

    /// Average power `P = E/T` for a run with the given per-processor
    /// costs and memory.
    pub fn average_power(&self, p: u64, costs: &AlgorithmCosts, m_used: Real) -> Real {
        let t = self.time(costs);
        if t == 0.0 {
            return 0.0;
        }
        self.energy(p, costs, m_used, t) / t
    }

    /// Eqs. 1–2 together: `T` of the per-processor `costs` and `E` of
    /// `p` processors holding `m_used` words each for that `T`.
    pub fn price(&self, p: u64, costs: &AlgorithmCosts, m_used: Real) -> RunConfig {
        let time = self.time(costs);
        RunConfig {
            p: p as Real,
            mem: m_used,
            time,
            energy: self.energy(p, costs, m_used, time),
        }
    }

    /// Effective per-word time including amortized latency,
    /// `βt + αt/m` — the paper's repeated `β = β·m + α` substitution,
    /// normalized per word.
    pub fn beta_t_eff(&self) -> Real {
        self.beta_t + self.alpha_t / self.max_message_words
    }

    /// `γe + γt·εe` — the "energy per flop" including leakage accrued
    /// during that flop. Appears as the flop coefficient of every energy
    /// closed form in the paper (Eqs. 10–16).
    pub fn gamma_e_leak(&self) -> Real {
        self.gamma_e + self.gamma_t * self.epsilon_e
    }

    /// `(βe + βt·εe) + (αe + αt·εe)/m` — the effective per-word energy
    /// including leakage accrued while the word (and its share of the
    /// message) is in flight.
    pub fn beta_e_leak(&self) -> Real {
        (self.beta_e + self.beta_t * self.epsilon_e)
            + (self.alpha_e + self.alpha_t * self.epsilon_e) / self.max_message_words
    }

    /// Validate every field; returns the first violated invariant.
    pub fn validate(&self) -> Result<(), CoreError> {
        let nonneg: [(&'static str, Real); 9] = [
            ("beta_t", self.beta_t),
            ("alpha_t", self.alpha_t),
            ("gamma_e", self.gamma_e),
            ("beta_e", self.beta_e),
            ("alpha_e", self.alpha_e),
            ("delta_e", self.delta_e),
            ("epsilon_e", self.epsilon_e),
            ("max_message_words", self.max_message_words),
            ("mem_words", self.mem_words),
        ];
        if !(self.gamma_t > 0.0) || !self.gamma_t.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "gamma_t",
                value: self.gamma_t,
            });
        }
        for (name, v) in nonneg {
            if v.is_nan() || v < 0.0 {
                return Err(CoreError::InvalidParameter { name, value: v });
            }
        }
        if self.max_message_words < 1.0 {
            return Err(CoreError::InvalidParameter {
                name: "max_message_words",
                value: self.max_message_words,
            });
        }
        Ok(())
    }
}

/// One per-parameter override of a machine preset: `--beta-t S` on the
/// command line, `beta-t = S` in a sweep spec.
#[derive(Debug, Clone, Copy)]
pub struct Override {
    /// The key both spellings use.
    pub key: &'static str,
    /// The unit of its value.
    pub unit: &'static str,
    /// One of `γt`, `βt`, `αt`, `m`: the prices that fix a run's schedule,
    /// and all a recorded trace is re-timed by.
    pub schedule: bool,
    /// The field it sets.
    pub field: fn(&mut MachineParams) -> &mut Real,
}

/// Every [`Override`], in field order.
#[rustfmt::skip]
pub const OVERRIDES: [Override; 10] = [
    Override { key: "gamma-t", unit: "s/flop", schedule: true, field: |m| &mut m.gamma_t },
    Override { key: "beta-t", unit: "s/word", schedule: true, field: |m| &mut m.beta_t },
    Override { key: "alpha-t", unit: "s/msg", schedule: true, field: |m| &mut m.alpha_t },
    Override { key: "gamma-e", unit: "J/flop", schedule: false, field: |m| &mut m.gamma_e },
    Override { key: "beta-e", unit: "J/word", schedule: false, field: |m| &mut m.beta_e },
    Override { key: "alpha-e", unit: "J/msg", schedule: false, field: |m| &mut m.alpha_e },
    Override { key: "delta-e", unit: "J/word/s", schedule: false, field: |m| &mut m.delta_e },
    Override { key: "epsilon-e", unit: "J/s", schedule: false, field: |m| &mut m.epsilon_e },
    Override { key: "max-message", unit: "words", schedule: true, field: |m| &mut m.max_message_words },
    Override { key: "mem-words", unit: "words", schedule: false, field: |m| &mut m.mem_words },
];

/// Builder for [`MachineParams`]; `build()` validates all invariants.
#[derive(Debug, Clone)]
pub struct MachineParamsBuilder {
    p: MachineParams,
}

impl Default for MachineParamsBuilder {
    fn default() -> Self {
        MachineParamsBuilder {
            p: MachineParams {
                gamma_t: 0.0, // must be set; validated in build()
                beta_t: 0.0,
                alpha_t: 0.0,
                gamma_e: 0.0,
                beta_e: 0.0,
                alpha_e: 0.0,
                delta_e: 0.0,
                epsilon_e: 0.0,
                max_message_words: 1.0,
                mem_words: Real::INFINITY,
            },
        }
    }
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        pub fn $name(mut self, v: Real) -> Self {
            self.p.$name = v;
            self
        }
    };
}

impl MachineParamsBuilder {
    setter!(
        /// Set `γt` (s/flop). Required.
        gamma_t
    );
    setter!(
        /// Set `βt` (s/word).
        beta_t
    );
    setter!(
        /// Set `αt` (s/message).
        alpha_t
    );
    setter!(
        /// Set `γe` (J/flop).
        gamma_e
    );
    setter!(
        /// Set `βe` (J/word).
        beta_e
    );
    setter!(
        /// Set `αe` (J/message).
        alpha_e
    );
    setter!(
        /// Set `δe` (J/word/s).
        delta_e
    );
    setter!(
        /// Set `εe` (J/s).
        epsilon_e
    );
    setter!(
        /// Set `m`, the maximum message size in words.
        max_message_words
    );
    setter!(
        /// Set `M`, the physical memory per processor in words.
        mem_words
    );

    /// Validate and produce the machine description.
    pub fn build(self) -> Result<MachineParams, CoreError> {
        self.p.validate()?;
        Ok(self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::AlgorithmCosts;

    fn simple() -> MachineParams {
        MachineParams::builder()
            .gamma_t(1e-9)
            .beta_t(1e-8)
            .alpha_t(1e-6)
            .gamma_e(1e-9)
            .beta_e(1e-8)
            .alpha_e(1e-6)
            .delta_e(1e-10)
            .epsilon_e(1e-3)
            .max_message_words(1024.0)
            .mem_words(1e9)
            .build()
            .unwrap()
    }

    #[test]
    fn eq1_runtime_is_linear_in_costs() {
        let mp = simple();
        let c = AlgorithmCosts {
            flops: 1e6,
            words: 1e4,
            messages: 10.0,
        };
        let t = mp.time(&c);
        let expected = 1e-9 * 1e6 + 1e-8 * 1e4 + 1e-6 * 10.0;
        assert!((t - expected).abs() < 1e-15);

        // Linearity: doubling all costs doubles T.
        let c2 = AlgorithmCosts {
            flops: 2e6,
            words: 2e4,
            messages: 20.0,
        };
        assert!((mp.time(&c2) - 2.0 * t).abs() < 1e-12);
    }

    #[test]
    fn eq2_energy_matches_hand_expansion() {
        let mp = simple();
        let c = AlgorithmCosts {
            flops: 1e6,
            words: 1e4,
            messages: 10.0,
        };
        let t = mp.time(&c);
        let m_used = 1e6;
        let p = 4u64;
        let e = mp.energy(p, &c, m_used, t);
        let per_proc = 1e-9 * 1e6 + 1e-8 * 1e4 + 1e-6 * 10.0 + 1e-10 * m_used * t + 1e-3 * t;
        assert!((e - 4.0 * per_proc).abs() / e < 1e-12);
    }

    #[test]
    fn average_power_is_energy_over_time() {
        let mp = simple();
        let c = AlgorithmCosts {
            flops: 1e9,
            words: 1e6,
            messages: 100.0,
        };
        let t = mp.time(&c);
        let e = mp.energy(8, &c, 1e6, t);
        assert!((mp.average_power(8, &c, 1e6) - e / t).abs() / (e / t) < 1e-12);
    }

    #[test]
    fn zero_time_power_is_zero() {
        let mp = simple();
        let c = AlgorithmCosts {
            flops: 0.0,
            words: 0.0,
            messages: 0.0,
        };
        assert_eq!(mp.average_power(8, &c, 0.0), 0.0);
    }

    #[test]
    fn price_is_eq_1_then_eq_2_at_that_time() {
        let mp = simple();
        let c = AlgorithmCosts {
            flops: 1e9,
            words: 1e6,
            messages: 100.0,
        };
        let t = mp.time(&c);
        let run = mp.price(8, &c, 1e6);
        assert_eq!((run.p, run.mem), (8.0, 1e6));
        assert_eq!(run.time.to_bits(), t.to_bits());
        assert_eq!(run.energy.to_bits(), mp.energy(8, &c, 1e6, t).to_bits());
    }

    #[test]
    fn effective_betas_amortize_latency() {
        let mp = simple();
        assert!((mp.beta_t_eff() - (1e-8 + 1e-6 / 1024.0)).abs() < 1e-18);
        // With leakage folded in.
        let expected = (1e-8 + 1e-8 * 1e-3) + (1e-6 + 1e-6 * 1e-3) / 1024.0;
        assert!((mp.beta_e_leak() - expected).abs() < 1e-18);
        assert!((mp.gamma_e_leak() - (1e-9 + 1e-9 * 1e-3)).abs() < 1e-20);
    }

    #[test]
    fn builder_rejects_missing_gamma_t() {
        let r = MachineParams::builder().build();
        assert!(matches!(
            r,
            Err(CoreError::InvalidParameter {
                name: "gamma_t",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_negative_prices() {
        let r = MachineParams::builder().gamma_t(1e-9).beta_e(-1.0).build();
        assert!(matches!(
            r,
            Err(CoreError::InvalidParameter { name: "beta_e", .. })
        ));
    }

    #[test]
    fn builder_rejects_nan() {
        let r = MachineParams::builder()
            .gamma_t(1e-9)
            .delta_e(Real::NAN)
            .build();
        assert!(matches!(
            r,
            Err(CoreError::InvalidParameter {
                name: "delta_e",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_submessage_word_limit() {
        let r = MachineParams::builder()
            .gamma_t(1e-9)
            .max_message_words(0.5)
            .build();
        assert!(matches!(
            r,
            Err(CoreError::InvalidParameter {
                name: "max_message_words",
                ..
            })
        ));
    }

    #[test]
    fn default_memory_is_unbounded() {
        let mp = MachineParams::builder().gamma_t(1.0).build().unwrap();
        assert!(mp.mem_words.is_infinite());
        assert_eq!(mp.max_message_words, 1.0);
    }
}
