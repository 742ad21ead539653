//! Energy/time/power optimization problems (paper §V).
//!
//! The paper poses five questions in its introduction:
//!
//! 1. What is the minimum energy required for a computation?
//! 2. Given a maximum runtime `Tmax`, what is the minimum energy?
//! 3. Given an energy budget `Emax`, what is the minimum runtime?
//! 4. Given a bound on (total or per-processor) power, minimize energy or
//!    runtime.
//! 5. Given a target GFLOPS/W, constrain the machine parameters.
//!
//! [`nbody`] answers all of them **in closed form** for the direct n-body
//! problem, as methods of [`crate::costs::DirectNBody`], following §V A–F
//! line by line (with one sign fix relative to the paper's Eq. 20,
//! documented at [`crate::costs::DirectNBody::max_memory_given_proc_power`]).
//! [`matmul::m0`] and [`strassen::m0`] answer question 1 for classical
//! and fast matmul. Each model's [`Algorithm::energy_optimum`] builds
//! `M0`'s band from its own perfect strong scaling range.
//! [`numeric`] answers the same questions for *any* [`Algorithm`]
//! (classical and Strassen matmul in particular, cf. the technical report
//! version of the paper) by golden-section search over `M` and
//! logarithmic sweep over `p`; the n-body closed forms double as its test
//! oracle.

use crate::costs::Algorithm;
use crate::error::CoreError;
use crate::params::MachineParams;
use crate::Real;

/// A concrete choice of machine scale and memory, with its modelled
/// runtime and energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Number of processors (continuous relaxation; round as needed).
    pub p: Real,
    /// Memory used per processor, in words.
    pub mem: Real,
    /// Modelled runtime, seconds.
    pub time: Real,
    /// Modelled energy, joules.
    pub energy: Real,
}

/// The §V.A optimum of an algorithm on a machine
/// ([`Algorithm::energy_optimum`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyOptimum {
    /// Energy-optimal memory per processor, words.
    pub m0: Real,
    /// Minimum energy `E*(n)`, joules.
    pub e_star: Real,
    /// Smallest `p` at which `M0` is feasible.
    pub p_lo: Real,
    /// Largest `p` at which `M0` is feasible.
    pub p_hi: Real,
}

/// Closed-form §V results for the direct n-body problem: all of paper
/// §V A–F, as methods of [`crate::costs::DirectNBody`] on a machine.
/// Each refuses a machine [`MachineParams::validate`] refuses and an `f`
/// that is not finite and positive; `M0`, `E*` and its band are
/// [`Algorithm::energy_optimum`].
pub mod nbody {
    use super::*;
    use crate::costs::DirectNBody;
    use crate::energy::e_nbody;
    use crate::time::t_nbody;

    impl DirectNBody {
        /// The machine and `f` checked, and the coefficients of §V.C:
        /// `A = f·(γe + γt·εe) + δe·(βt + αt/m)`, the `M`- and
        /// `p`-independent part of `E/n²`; `B = (βe + βt·εe) +
        /// (αe + αt·εe)/m`, that of `n²/M`; and `D = δe·γt·f`, that of
        /// `M·n²`.
        pub(crate) fn coefficients(
            &self,
            mp: &MachineParams,
        ) -> Result<(Real, Real, Real), CoreError> {
            mp.validate()?;
            let f = self.flops_per_interaction;
            require(f > 0.0 && f.is_finite(), "flops_per_interaction", f)?;
            let a = f * mp.gamma_e_leak() + mp.delta_e * mp.beta_t_eff();
            Ok((a, mp.beta_e_leak(), mp.delta_e * mp.gamma_t * f))
        }

        /// §V.A: the energy-optimal memory per processor,
        /// `M0 = sqrt(B / D)` — independent of both `n` and `p`.
        ///
        /// Using more memory than `M0` wastes energy keeping DRAM
        /// powered; using less wastes energy on extra communication.
        pub fn m0(&self, mp: &MachineParams) -> Result<Real, CoreError> {
            let (_, b, d) = self.coefficients(mp)?;
            if d <= 0.0 {
                return Err(CoreError::Infeasible(
                    "M0 undefined: no memory energy cost (delta_e·gamma_t·f = 0); \
                     energy is minimized by unbounded memory"
                        .into(),
                ));
            }
            Ok((b / d).sqrt())
        }

        /// The runtime threshold of §V.B: the minimum energy `E*` is
        /// attainable within a deadline `Tmax` iff
        /// `Tmax ≥ γt·f·M0² + (βt + αt/m)·M0`
        /// (the runtime at `M = M0`, `p = n²/M0²`).
        pub fn tmax_threshold(&self, mp: &MachineParams) -> Result<Real, CoreError> {
            let m0 = self.m0(mp)?;
            Ok(mp.gamma_t * self.flops_per_interaction * m0 * m0 + mp.beta_t_eff() * m0)
        }

        /// §V.B: minimize energy subject to `T ≤ Tmax`.
        ///
        /// If the deadline admits an `M0` run, returns the `E*` run at
        /// `p = n²/M0²`. Otherwise the deadline forces
        /// `p ≥ pmin(Tmax)` (paper's quadratic) and the cheapest compliant
        /// run is the 2D run at exactly `p = pmin`.
        pub fn min_energy_given_tmax(
            &self,
            mp: &MachineParams,
            n: u64,
            tmax: Real,
        ) -> Result<RunConfig, CoreError> {
            self.coefficients(mp)?;
            if !(tmax > 0.0) {
                return Err(CoreError::Infeasible(format!(
                    "Tmax = {tmax} must be positive"
                )));
            }
            let threshold = self.tmax_threshold(mp)?;
            if tmax >= threshold {
                let opt = self.energy_optimum(mp, n)?;
                return Ok(RunConfig {
                    p: opt.p_hi,
                    mem: opt.m0,
                    time: threshold,
                    energy: opt.e_star,
                });
            }
            // pmin from the paper's quadratic: at the 2D limit M = n/√p,
            // Tmax = γt·f·n²/p + bt·n/√p. With x = √p:
            // Tmax·x² − bt·n·x − γt·f·n² = 0.
            let (nf, f) = (n as Real, self.flops_per_interaction);
            let bt = mp.beta_t_eff();
            let disc = bt * bt * nf * nf + 4.0 * tmax * mp.gamma_t * f * nf * nf;
            let x = (bt * nf + disc.sqrt()) / (2.0 * tmax);
            let mem = nf / x;
            Ok(RunConfig {
                p: x * x,
                mem,
                time: tmax,
                energy: e_nbody(mp, n, mem, f),
            })
        }

        /// §V.C: minimize runtime subject to `E ≤ Emax`.
        ///
        /// The optimum is always a 2D run (`M = n/√p`): increasing `p`
        /// from any replicating run until the 2D boundary decreases `T`
        /// without changing `E`. The largest 2D-feasible `p` solves
        /// `B·n·x² − (Emax − A·n²)·x + D·n³ = 0` with `x = √p`
        /// (paper's quadratic, `A`/`B` as in §V.C). The root is not
        /// held to the boundary's own end (`M ≥ 1`, i.e. `p ≤ n²`): a
        /// loose budget passes it, and the fastest real run is then
        /// the 2D run at `p = n²`.
        pub fn min_time_given_emax(
            &self,
            mp: &MachineParams,
            n: u64,
            emax: Real,
        ) -> Result<RunConfig, CoreError> {
            let (a, b, d) = self.coefficients(mp)?;
            let e_star = self.energy_optimum(mp, n)?.e_star;
            if emax < e_star {
                return Err(CoreError::Infeasible(format!(
                    "energy budget {emax} J below minimum attainable {e_star} J"
                )));
            }
            let (nf, f) = (n as Real, self.flops_per_interaction);
            let rhs = emax - a * nf * nf;
            // Discriminant of B·n·x² − rhs·x + D·n³ = 0.
            let disc = rhs * rhs - 4.0 * b * nf * d * nf * nf * nf;
            if disc < 0.0 {
                // Cannot happen when emax ≥ E*, guarded above; kept as a
                // defensive check against floating-point cancellation.
                return Err(CoreError::Infeasible(format!(
                    "energy budget {emax} J unattainable by any 2D run"
                )));
            }
            let x = (rhs + disc.sqrt()) / (2.0 * b * nf);
            let p = x * x;
            let mem = nf / x;
            Ok(RunConfig {
                p,
                mem,
                time: t_nbody(mp, n, p.round().max(1.0) as u64, mem, f),
                energy: e_nbody(mp, n, mem, f),
            })
        }

        /// §V.D: average power of a run,
        /// `P = p·((γe·f + βe/M + αe/(m·M)) / (γt·f + βt/M + αt/(m·M))
        ///        + δe·M + εe)`.
        pub fn average_power(
            &self,
            mp: &MachineParams,
            p: Real,
            mem: Real,
        ) -> Result<Real, CoreError> {
            self.coefficients(mp)?;
            Ok(power(mp, self.flops_per_interaction, p, mem))
        }

        /// §V.D, paper Eq. 19: the largest processor count allowed by a
        /// **total** power budget at memory `mem`.
        pub fn max_p_given_total_power(
            &self,
            mp: &MachineParams,
            p_total_max: Real,
            mem: Real,
        ) -> Result<Real, CoreError> {
            Ok(p_total_max / self.average_power(mp, 1.0, mem)?)
        }

        /// §V.E, paper Eq. 20 (sign-corrected): the largest memory per
        /// processor allowed by a **per-processor** power budget `Pmax`.
        ///
        /// The feasibility condition `Pmax ≥ P(M)/p` reduces to the
        /// quadratic `δe·γt·f·M² − C·M + D' ≤ 0` with
        /// `C = γt·f·Pmax − γe·f − εe·γt·f − δe·(βt + αt/m)` and
        /// `D' = βe + αe/m − (Pmax − εe)·(βt + αt/m)`.
        ///
        /// Note: the paper prints `D = βe + αe/m − (βt+αt/m)·Pmax −
        /// εe·(βt+αt/m)` and a discriminant `C² − 4·γe·γt·f·D`; re-deriving
        /// the quadratic gives `+εe·(βt+αt/m)` in `D'` and a
        /// `4·δe·γt·f·D'` discriminant. We implement the re-derivation
        /// (property-tested: the returned `M` satisfies the original
        /// inequality with equality).
        pub fn max_memory_given_proc_power(
            &self,
            mp: &MachineParams,
            p_max: Real,
        ) -> Result<Real, CoreError> {
            let (_, _, a2) = self.coefficients(mp)?; // quadratic coefficient
            let f = self.flops_per_interaction;
            let bt = mp.beta_t_eff();
            let be = mp.beta_e + mp.alpha_e / mp.max_message_words;
            let c = mp.gamma_t * f * p_max
                - mp.gamma_e * f
                - mp.epsilon_e * mp.gamma_t * f
                - mp.delta_e * bt;
            let d = be - (p_max - mp.epsilon_e) * bt;
            if a2 <= 0.0 {
                // No memory energy cost: feasibility is monotone; any M
                // works iff C ≥ 0 in the linear relaxation.
                if c >= 0.0 {
                    return Ok(Real::INFINITY);
                }
                return Err(CoreError::Infeasible(format!(
                    "per-processor power budget {p_max} W below compute power floor"
                )));
            }
            let disc = c * c - 4.0 * a2 * d;
            if disc < 0.0 || (c < 0.0 && d > 0.0) {
                return Err(CoreError::Infeasible(format!(
                    "per-processor power budget {p_max} W infeasible at any memory size"
                )));
            }
            Ok((c + disc.sqrt()) / (2.0 * a2))
        }

        /// §V.F: the machine's best-case energy efficiency for this
        /// problem, `f·n²/E*` flops per joule — independent of `n`, `p`
        /// and `M`, hence a pure constraint on machine parameters.
        pub fn flops_per_joule_at_optimum(&self, mp: &MachineParams) -> Result<Real, CoreError> {
            let (a, b, d) = self.coefficients(mp)?;
            Ok(self.flops_per_interaction / (a + 2.0 * (d * b).sqrt()))
        }

        /// §V.F in GFLOPS/W (the paper's unit).
        pub fn gflops_per_watt_at_optimum(&self, mp: &MachineParams) -> Result<Real, CoreError> {
            Ok(self.flops_per_joule_at_optimum(mp)? / 1e9)
        }

        /// §V.F inverted: the factor by which **all** energy parameters
        /// (`γe`, `βe`, `αe`, `δe`, `εe`) must shrink (time parameters
        /// fixed) to reach `target` GFLOPS/W. All three terms of `E*/n²`
        /// scale linearly with the energy prices, so the answer is just
        /// the ratio of target to current efficiency.
        pub fn energy_improvement_for_target(
            &self,
            mp: &MachineParams,
            target_gflops_w: Real,
        ) -> Result<Real, CoreError> {
            let current = self.gflops_per_watt_at_optimum(mp)?;
            if current <= 0.0 {
                return Err(CoreError::Infeasible(
                    "current efficiency is zero; target unreachable by scaling".into(),
                ));
            }
            Ok(target_gflops_w / current)
        }

        /// Paper §VII lists "minimizing average power for the
        /// data-replicating n-body algorithm" as an open problem; this
        /// solves it numerically. Since `P = p·(ratio(M) + δe·M + εe)`
        /// and the feasible region requires `p ≥ n/M`, the minimum-power
        /// run always sits on the 1D limit `p = n/M`; the remaining
        /// one-dimensional profile `P(M) = (n/M)·g(M)` is minimized by a
        /// log-grid scan refined with golden section. Returns the
        /// configuration and its average power.
        pub fn min_average_power(
            &self,
            mp: &MachineParams,
            n: u64,
        ) -> Result<(RunConfig, Real), CoreError> {
            self.coefficients(mp)?;
            let (nf, f) = (n as Real, self.flops_per_interaction);
            let profile = |m: Real| power(mp, f, nf / m, m);
            // Coarse scan over M ∈ [4, n].
            let (lo, hi) = (4.0_f64, nf);
            if hi <= lo {
                return Err(CoreError::InvalidConfiguration(
                    "n too small for a power profile".into(),
                ));
            }
            let mut best_m = lo;
            let mut best_p = profile(lo);
            let steps = 400;
            for i in 0..=steps {
                let m = lo * (hi / lo).powf(i as Real / steps as Real);
                let pw = profile(m);
                if pw < best_p {
                    best_p = pw;
                    best_m = m;
                }
            }
            // Refine around the best bracket.
            let (m_ref, p_ref) = crate::optimize::numeric::golden_section_min(
                profile,
                (best_m / 4.0).max(lo),
                (best_m * 4.0).min(hi),
                1e-12,
            );
            let (m, pw) = if p_ref < best_p {
                (m_ref, p_ref)
            } else {
                (best_m, best_p)
            };
            let p = (nf / m).max(1.0);
            let cfg = RunConfig {
                p,
                mem: m,
                time: t_nbody(mp, n, p.round().max(1.0) as u64, m, f),
                energy: e_nbody(mp, n, m, f),
            };
            Ok((cfg, pw))
        }
    }

    /// [`DirectNBody::average_power`] on a checked machine and `f`.
    fn power(mp: &MachineParams, f: Real, p: Real, mem: Real) -> Real {
        let num = mp.gamma_e * f + mp.beta_e / mem + mp.alpha_e / (mp.max_message_words * mem);
        let den = mp.gamma_t * f + mp.beta_t / mem + mp.alpha_t / (mp.max_message_words * mem);
        p * (num / den + mp.delta_e * mem + mp.epsilon_e)
    }
}

/// `Ok` if `ok`, else the refusal of the parameter `name = value`.
fn require(ok: bool, name: &'static str, value: Real) -> Result<(), CoreError> {
    ok.then_some(())
        .ok_or(CoreError::InvalidParameter { name, value })
}

/// The energy coefficients shared by classical and fast matmul: `B` of
/// the communication term, `C = δe·γt` and `D = δe·(βt + αt/m)` of the
/// memory held during flops and during communication. Refuses a machine
/// on which `M0` is undefined.
fn matmul_coefficients(params: &MachineParams) -> Result<(Real, Real, Real), CoreError> {
    params.validate()?;
    let b = params.beta_e_leak();
    let c = params.delta_e * params.gamma_t;
    let d = params.delta_e * params.beta_t_eff();
    if c <= 0.0 && d <= 0.0 {
        return Err(CoreError::Infeasible(
            "M0 undefined: no memory energy cost (delta_e·gamma_t = \
             delta_e·(beta_t + alpha_t/m) = 0); energy is minimized by unbounded memory"
                .into(),
        ));
    }
    if b <= 0.0 {
        // No communication energy: smallest memory is best, and there is
        // no interior optimum.
        return Err(CoreError::Infeasible(
            "M0 undefined: no communication energy cost; energy is \
             minimized by minimal memory"
                .into(),
        ));
    }
    Ok((b, c, d))
}

/// §V.A for classical matrix multiplication — the analysis the paper
/// defers to its technical report ("The same techniques give
/// qualitatively similar, but more complicated, answers in the case of
/// classical matrix multiplication"). [`crate::costs::ClassicalMatMul`]
/// builds its [`Algorithm::energy_optimum`] on it.
pub mod matmul {
    use super::*;

    /// The energy-optimal memory per processor `M0` of 2.5D matmul —
    /// independent of `n` and `p`, like the n-body case.
    ///
    /// Writing `E(n, M) = n³·(A + B/√M + C·M + D·√M)` (Eq. 10) with
    /// `A = γe + γt·εe`, `B = (βe + βt·εe) + (αe + αt·εe)/m`,
    /// `C = δe·γt`, `D = δe·(βt + αt/m)`, `M0` satisfies the **cubic**
    /// `2C·x³ + D·x² − B = 0` in `x = √M` (unique positive root), solved
    /// here by bisection. A root past the bracket (`x > 1e300`, or
    /// `x < hi·2⁻²⁰⁰`) is refused, not answered with the bracket's edge.
    pub fn m0(params: &MachineParams) -> Result<Real, CoreError> {
        let (b, c, d) = matmul_coefficients(params)?;
        // f(x) = 2C·x³ + D·x² − B, increasing for x > 0 with
        // f(0) = −B < 0: a unique positive root. Bracket, then bisect.
        let f = |x: Real| 2.0 * c * x * x * x + d * x * x - b;
        let mut hi = 1.0;
        while f(hi) < 0.0 {
            hi *= 2.0;
            if hi > 1e300 {
                return Err(CoreError::Infeasible("M0 overflow".into()));
            }
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if lo == 0.0 {
            return Err(CoreError::Infeasible("M0 underflow".into()));
        }
        let x = 0.5 * (lo + hi);
        Ok(x * x)
    }
}

/// §V.A for fast (Strassen-like) matrix multiplication. The paper notes
/// "analytic solutions are harder to obtain because ω0 appears in the
/// powers of M"; the energy (Eq. 13) is still unimodal in `M`
/// (decreasing communication term plus increasing memory terms), so the
/// optimum is found by golden section with certified bracketing.
/// [`crate::costs::StrassenMatMul`] builds its
/// [`Algorithm::energy_optimum`] on it.
pub mod strassen {
    use super::*;

    /// The energy-optimal memory per processor of CAPS with exponent
    /// `omega ∈ (2, 3]` (independent of `n` and `p`): the unique minimum
    /// of `B·M^(1−ω/2) + C·M + D·M^(2−ω/2)` (Eq. 13's M-dependent part,
    /// divided by `n^ω`). A machine whose minimum lies beyond the
    /// bracket's limits (`1e-300`, `1e300`) is refused, not answered with
    /// the limit.
    pub fn m0(params: &MachineParams, omega: Real) -> Result<Real, CoreError> {
        require(omega > 2.0 && omega <= 3.0, "omega", omega)?;
        let (b, c, d) = matmul_coefficients(params)?;
        let per_unit =
            |m: Real| b * m.powf(1.0 - omega / 2.0) + c * m + d * m.powf(2.0 - omega / 2.0);
        let rising = |m: Real| per_unit(m * 2.0) > per_unit(m);
        let falling = |m: Real| per_unit(m / 2.0) > per_unit(m);
        // Bracket: the decreasing term dominates at small M, the
        // increasing terms at large M.
        let (mut lo, mut hi) = (1e-6, 1e6);
        while rising(lo) && lo > 1e-300 {
            lo /= 1e3;
        }
        while falling(hi) && hi < 1e300 {
            hi *= 1e3;
        }
        if rising(lo) {
            return Err(CoreError::Infeasible("M0 underflow".into()));
        }
        if falling(hi) {
            return Err(CoreError::Infeasible("M0 overflow".into()));
        }
        let (m, _) = crate::optimize::numeric::golden_section_min(per_unit, lo, hi, 1e-13);
        Ok(m)
    }
}

/// Numeric optimizers valid for any [`Algorithm`] (used for classical and
/// Strassen matmul, where closed forms are unwieldy because `ω0` appears
/// in the exponents of `M`).
pub mod numeric {
    use super::*;

    /// Golden-section minimization of a unimodal function on `[lo, hi]`.
    ///
    /// Returns `(argmin, min)`. Exposed because it is broadly useful for
    /// the energy curves of this crate, all of which are unimodal in `M`
    /// (sum of a decreasing communication term and increasing memory
    /// terms).
    pub fn golden_section_min(
        mut f: impl FnMut(Real) -> Real,
        mut lo: Real,
        mut hi: Real,
        rel_tol: Real,
    ) -> (Real, Real) {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
        const INV_PHI: Real = 0.618_033_988_749_894_8;
        let mut x1 = hi - (hi - lo) * INV_PHI;
        let mut x2 = lo + (hi - lo) * INV_PHI;
        let mut f1 = f(x1);
        let mut f2 = f(x2);
        while (hi - lo) > rel_tol * hi.abs().max(1.0) {
            if f1 <= f2 {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - (hi - lo) * INV_PHI;
                f1 = f(x1);
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + (hi - lo) * INV_PHI;
                f2 = f(x2);
            }
        }
        let xm = 0.5 * (lo + hi);
        let fm = f(xm);
        if f1 < fm && f1 < f2 {
            (x1, f1)
        } else if f2 < fm {
            (x2, f2)
        } else {
            (xm, fm)
        }
    }

    /// Question 1 (minimum energy): find the memory `M ∈ [min_memory,
    /// max_useful_memory]` minimizing energy for `alg` at `(n, p)`.
    pub fn argmin_energy_memory(
        alg: &dyn Algorithm,
        params: &MachineParams,
        n: u64,
        p: u64,
    ) -> Result<RunConfig, CoreError> {
        let (lo, hi) = alg.memory_range(n, p)?;
        let eval = |m| match alg.costs(n, p, m, params) {
            Ok(c) => params.price(p, &c, m).energy,
            Err(_) => Real::INFINITY,
        };
        let m = if hi / lo < 1.0 + 1e-12 {
            lo
        } else {
            golden_section_min(eval, lo, hi, 1e-12).0
        };
        Ok(params.price(p, &alg.costs(n, p, m, params)?, m))
    }

    /// The loop behind Questions 2, 3, 4a and 4b: sweep `p` over
    /// `p_candidates`; for each, minimize `objective(T, E)` over `M` by
    /// golden section, with every point whose `(p, T, E)` is `over` the
    /// constraint priced at `+∞`; keep the best compliant configuration,
    /// or fail with `none_fits`.
    ///
    /// The objectives are unimodal in `M`, but the constraint clips the
    /// domain; golden section still finds the clipped minimum because the
    /// excluded region (small `M` means *less* time for the replicating
    /// algorithms, large `M` less communication — both monotone) stays on
    /// one side.
    fn constrained_min(
        alg: &dyn Algorithm,
        params: &MachineParams,
        n: u64,
        p_candidates: &[u64],
        objective: fn(Real, Real) -> Real,
        over: impl Fn(u64, Real, Real) -> bool,
        none_fits: String,
    ) -> Result<RunConfig, CoreError> {
        let mut best: Option<RunConfig> = None;
        for &p in p_candidates {
            let Ok((lo, hi)) = alg.memory_range(n, p) else {
                continue;
            };
            let eval = |m| match alg.costs(n, p, m, params).map(|c| params.price(p, &c, m)) {
                Ok(r) if !over(p, r.time, r.energy) => objective(r.time, r.energy),
                _ => Real::INFINITY,
            };
            let (m, v) = golden_section_min(eval, lo, hi.max(lo * (1.0 + 1e-9)), 1e-12);
            if !v.is_finite() {
                continue;
            }
            if best.is_none_or(|b| v < objective(b.time, b.energy)) {
                best = Some(params.price(p, &alg.costs(n, p, m, params)?, m));
            }
        }
        best.ok_or(CoreError::Infeasible(none_fits))
    }

    /// Question 2 (min energy under a deadline): sweep `p` over
    /// `p_candidates` and, for each, minimize energy over `M` subject to
    /// `T(p, M) ≤ tmax`; return the best compliant configuration.
    pub fn min_energy_given_tmax(
        alg: &dyn Algorithm,
        params: &MachineParams,
        n: u64,
        p_candidates: &[u64],
        tmax: Real,
    ) -> Result<RunConfig, CoreError> {
        let none_fits = format!("no candidate p meets the deadline Tmax = {tmax} s");
        let over = |_, t, _| t > tmax;
        constrained_min(alg, params, n, p_candidates, |_, e| e, over, none_fits)
    }

    /// Question 3 (min time under an energy budget): sweep `p`, minimize
    /// time over `M` subject to `E ≤ emax`.
    pub fn min_time_given_emax(
        alg: &dyn Algorithm,
        params: &MachineParams,
        n: u64,
        p_candidates: &[u64],
        emax: Real,
    ) -> Result<RunConfig, CoreError> {
        let none_fits = format!("no candidate p fits the budget Emax = {emax} J");
        let over = |_, _, e| e > emax;
        constrained_min(alg, params, n, p_candidates, |t, _| t, over, none_fits)
    }

    /// Question 4a (min runtime under a **total** power cap): sweep `p`,
    /// minimize time over `M` subject to `E/T ≤ p_total_max`.
    pub fn min_time_given_total_power(
        alg: &dyn Algorithm,
        params: &MachineParams,
        n: u64,
        p_candidates: &[u64],
        p_total_max: Real,
    ) -> Result<RunConfig, CoreError> {
        let none_fits =
            format!("no candidate p runs within the total power budget {p_total_max} W");
        let over = |_, t, e| e / t > p_total_max;
        constrained_min(alg, params, n, p_candidates, |t, _| t, over, none_fits)
    }

    /// Question 4b (min energy under a **per-processor** power cap):
    /// sweep `p`, minimize energy over `M` subject to `E/(T·p) ≤ cap`.
    pub fn min_energy_given_proc_power(
        alg: &dyn Algorithm,
        params: &MachineParams,
        n: u64,
        p_candidates: &[u64],
        p_proc_max: Real,
    ) -> Result<RunConfig, CoreError> {
        let none_fits =
            format!("no candidate p runs within the per-processor power budget {p_proc_max} W");
        let over = |p, t, e| e / (t * p as Real) > p_proc_max;
        constrained_min(alg, params, n, p_candidates, |_, e| e, over, none_fits)
    }

    /// Logarithmically spaced processor-count candidates in `[lo, hi]`,
    /// for use with the sweeps above.
    pub fn log_spaced_p(lo: u64, hi: u64, count: usize) -> Vec<u64> {
        assert!(lo >= 1 && hi >= lo && count >= 2);
        let (l0, l1) = ((lo as Real).ln(), (hi as Real).ln());
        let mut v: Vec<u64> = (0..count)
            .map(|i| {
                let t = i as Real / (count - 1) as Real;
                (l0 + t * (l1 - l0)).exp().round() as u64
            })
            .collect();
        v.dedup();
        v
    }
}

/// Resilience-overhead models: checkpoint-interval optimization (Daly)
/// and Eq. 2 pricing of fault-tolerance traffic.
///
/// These sit beside the §V optimizers because they answer the same kind
/// of question — pick a free parameter (here the checkpoint interval
/// `τ` instead of the memory `M`) to minimize a cost — and because the
/// paper's energy model prices resilience work with no new machinery:
/// retransmitted and checkpointed words advance `W` and `S`, and the
/// time lost to rework/restart extends `T`, each multiplying its Eq. 2
/// coefficient.
pub mod resilience {
    use super::*;

    /// Daly's higher-order optimal checkpoint interval (the computation
    /// time between checkpoints, excluding the write itself):
    ///
    /// `τ* ≈ √(2δM)·[1 + (1/3)·√(δ/2M) + (1/9)·(δ/2M)] − δ`
    ///
    /// where `δ` is the checkpoint write time and `M` the mean time
    /// between failures. For `δ ≥ 2M` (checkpoints cost more than the
    /// expected failure-free stretch) the model degenerates and the
    /// first-order guard `τ = M` is returned.
    pub fn daly_optimal_interval(delta: Real, mtbf: Real) -> Result<Real, CoreError> {
        require(delta >= 0.0, "delta", delta)?;
        require(mtbf > 0.0, "mtbf", mtbf)?;
        if delta >= 2.0 * mtbf {
            return Ok(mtbf);
        }
        let r = delta / (2.0 * mtbf);
        Ok((2.0 * delta * mtbf).sqrt() * (1.0 + r.sqrt() / 3.0 + r / 9.0) - delta)
    }

    /// First-order expected overhead fraction of checkpoint/restart with
    /// write time `delta`, interval `tau` and mean time between failures
    /// `mtbf`: checkpoint cost `δ/τ` plus expected rework `τ/(2M)` per
    /// unit of useful work. Valid for `τ ≪ M`; minimized near
    /// [`daly_optimal_interval`].
    pub fn overhead_fraction(delta: Real, tau: Real, mtbf: Real) -> Result<Real, CoreError> {
        require(tau > 0.0, "tau", tau)?;
        require(mtbf > 0.0, "mtbf", mtbf)?;
        require(delta >= 0.0, "delta", delta)?;
        Ok(delta / tau + tau / (2.0 * mtbf))
    }

    /// Price resilience overhead with Eq. 2: `extra_words`/`extra_msgs`
    /// are the per-critical-path retransmitted + checkpointed traffic
    /// (advancing `W` and `S`), and `extra_time` is the makespan
    /// extension from backoff, rework and restart, during which all `p`
    /// ranks keep paying memory (`δe·M`) and leakage (`εe`) power.
    pub fn resilience_energy(
        params: &MachineParams,
        extra_words: Real,
        extra_msgs: Real,
        extra_time: Real,
        p: Real,
        mem: Real,
    ) -> Real {
        params.beta_e * extra_words
            + params.alpha_e * extra_msgs
            + p * (params.delta_e * mem + params.epsilon_e) * extra_time
    }
}

#[cfg(test)]
mod tests {
    use super::numeric::*;
    use super::*;
    use crate::costs::{Algorithm, ClassicalMatMul, DirectNBody};
    use crate::energy::e_nbody;
    use crate::time::t_nbody;

    fn params() -> MachineParams {
        MachineParams::builder()
            .gamma_t(2.5e-12)
            .beta_t(1.6e-10)
            .alpha_t(6e-8)
            .gamma_e(3.8e-10)
            .beta_e(3.8e-10)
            .alpha_e(1e-8)
            .delta_e(5.8e-9)
            .epsilon_e(0.1)
            .max_message_words(4096.0)
            .build()
            .unwrap()
    }

    const F: Real = 20.0;
    const NB: DirectNBody = DirectNBody {
        flops_per_interaction: F,
    };

    #[test]
    fn m0_is_the_argmin_of_energy() {
        let mp = params();
        let m0 = NB.m0(&mp).unwrap();
        let n = 1u64 << 22;
        let e0 = e_nbody(&mp, n, m0, F);
        // Any perturbation of M increases energy.
        for factor in [0.5, 0.9, 1.1, 2.0] {
            assert!(e_nbody(&mp, n, m0 * factor, F) > e0, "factor={factor}");
        }
        // And the closed form matches a golden-section search. The
        // energy curve is extremely flat near M0 (the M-dependent terms
        // are a small fraction of E on this machine), which limits the
        // numeric argmin to ~sqrt(machine-epsilon) relative precision.
        let (m_num, e_num) =
            golden_section_min(|m| e_nbody(&mp, n, m, F), m0 / 1e4, m0 * 1e4, 1e-12);
        assert!((m_num - m0).abs() / m0 < 1e-2);
        assert!((e_num - e0).abs() / e0 < 1e-12);
    }

    #[test]
    fn e_star_matches_energy_at_m0() {
        let mp = params();
        let n = 1u64 << 22;
        let e_star = NB.energy_optimum(&mp, n).unwrap().e_star;
        let direct = e_nbody(&mp, n, NB.m0(&mp).unwrap(), F);
        assert!((e_star - direct).abs() / direct < 1e-12);
    }

    #[test]
    fn energy_optimum_band_brackets_feasibility() {
        let mp = params();
        let n = 1u64 << 22;
        let opt = NB.energy_optimum(&mp, n).unwrap();
        let (p_lo, p_hi, m0) = (opt.p_lo, opt.p_hi, opt.m0);
        // M0 is within [min_memory, max_useful] exactly for p in range.
        let p_mid = ((p_lo * p_hi).sqrt()) as u64;
        assert!(NB.min_memory(n, p_mid) <= m0 && m0 <= NB.max_useful_memory(n, p_mid));
        let p_small = (p_lo * 0.5).max(1.0) as u64;
        assert!(m0 < NB.min_memory(n, p_small) || p_small as Real >= p_lo);
    }

    #[test]
    fn tmax_threshold_is_runtime_of_the_estar_run() {
        let mp = params();
        let n = 1u64 << 22;
        let m0 = NB.m0(&mp).unwrap();
        let nf = n as Real;
        let p = (nf * nf / (m0 * m0)).round() as u64;
        let direct = t_nbody(&mp, n, p, m0, F);
        let threshold = NB.tmax_threshold(&mp).unwrap();
        // p is rounded to an integer, so allow O(1/p) relative slack.
        assert!((direct - threshold).abs() / threshold < 1e-3);
    }

    #[test]
    fn loose_deadline_returns_global_optimum() {
        let mp = params();
        let n = 1u64 << 22;
        let cfg = NB
            .min_energy_given_tmax(&mp, n, NB.tmax_threshold(&mp).unwrap() * 10.0)
            .unwrap();
        assert!(
            (cfg.energy - NB.energy_optimum(&mp, n).unwrap().e_star).abs() / cfg.energy < 1e-12
        );
        assert!((cfg.mem - NB.m0(&mp).unwrap()).abs() / cfg.mem < 1e-12);
    }

    #[test]
    fn tight_deadline_forces_more_processors_and_energy() {
        let mp = params();
        let n = 1u64 << 22;
        let threshold = NB.tmax_threshold(&mp).unwrap();
        let cfg = NB.min_energy_given_tmax(&mp, n, threshold / 4.0).unwrap();
        // Deadline met exactly by a 2D run with M = n/√p.
        let nf = n as Real;
        assert!((cfg.mem - nf / cfg.p.sqrt()).abs() / cfg.mem < 1e-9);
        assert!(cfg.energy > NB.energy_optimum(&mp, n).unwrap().e_star);
        // And the reported runtime is the deadline.
        let t = t_nbody(&mp, n, cfg.p.round() as u64, cfg.mem, F);
        assert!((t - threshold / 4.0).abs() / t < 1e-3);
    }

    #[test]
    fn impossible_deadline_is_rejected() {
        let mp = params();
        assert!(matches!(
            NB.min_energy_given_tmax(&mp, 1 << 22, -1.0),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn energy_budget_below_estar_is_rejected() {
        let mp = params();
        let n = 1u64 << 22;
        let e_star = NB.energy_optimum(&mp, n).unwrap().e_star;
        assert!(matches!(
            NB.min_time_given_emax(&mp, n, e_star * 0.99),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn energy_budget_binds_with_equality_on_2d_boundary() {
        let mp = params();
        let n = 1u64 << 22;
        let emax = NB.energy_optimum(&mp, n).unwrap().e_star * 1.5;
        let cfg = NB.min_time_given_emax(&mp, n, emax).unwrap();
        // 2D run: M = n/√p.
        let nf = n as Real;
        assert!((cfg.mem - nf / cfg.p.sqrt()).abs() / cfg.mem < 1e-9);
        // Budget used in full (quadratic solved with equality).
        assert!((cfg.energy - emax).abs() / emax < 1e-9);
        // Spending more budget must not slow us down.
        let cfg2 = NB.min_time_given_emax(&mp, n, emax * 2.0).unwrap();
        assert!(cfg2.time <= cfg.time);
        assert!(cfg2.p > cfg.p);
    }

    #[test]
    fn average_power_is_e_over_t() {
        let mp = params();
        let n = 1u64 << 22;
        let p = 256u64;
        let mem = NB.max_useful_memory(n, p);
        let e = e_nbody(&mp, n, mem, F);
        let t = t_nbody(&mp, n, p, mem, F);
        let pw = NB.average_power(&mp, p as Real, mem).unwrap();
        assert!((pw - e / t).abs() / pw < 1e-12);
    }

    #[test]
    fn total_power_bound_caps_p_linearly() {
        let mp = params();
        let mem = 1e6;
        let p1 = NB.max_p_given_total_power(&mp, 1000.0, mem).unwrap();
        let p2 = NB.max_p_given_total_power(&mp, 2000.0, mem).unwrap();
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
        // The bound is consistent: running at the cap uses ≤ the budget.
        assert!(NB.average_power(&mp, p1, mem).unwrap() <= 1000.0 * (1.0 + 1e-9));
    }

    #[test]
    fn proc_power_bound_satisfied_with_equality_at_max_memory() {
        let mp = params();
        // Pick a budget comfortably above the M→small floor.
        let floor = NB.average_power(&mp, 1.0, 10.0).unwrap();
        let p_max = floor * 2.0;
        let m_cap = NB.max_memory_given_proc_power(&mp, p_max).unwrap();
        assert!(m_cap.is_finite() && m_cap > 0.0);
        // Equality at the cap, feasible below, infeasible above.
        let at = NB.average_power(&mp, 1.0, m_cap).unwrap();
        assert!((at - p_max).abs() / p_max < 1e-9, "at={at}, p_max={p_max}");
        assert!(NB.average_power(&mp, 1.0, m_cap * 0.5).unwrap() < p_max);
        assert!(NB.average_power(&mp, 1.0, m_cap * 2.0).unwrap() > p_max);
    }

    #[test]
    fn infeasible_proc_power_budget_is_rejected() {
        let mp = params();
        // Below the asymptotic compute-power floor γe/γt·(…): impossible.
        assert!(matches!(
            NB.max_memory_given_proc_power(&mp, 1e-12),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn gflops_per_watt_is_scale_invariant() {
        let mp = params();
        let g = NB.gflops_per_watt_at_optimum(&mp).unwrap();
        // f·n²/E*(n) should equal it for any n.
        for n in [1u64 << 16, 1 << 20, 1 << 24] {
            let nf = n as Real;
            let ratio = F * nf * nf / NB.energy_optimum(&mp, n).unwrap().e_star / 1e9;
            assert!((ratio - g).abs() / g < 1e-12);
        }
    }

    #[test]
    fn improvement_factor_scales_energy_params() {
        let mp = params();
        let current = NB.gflops_per_watt_at_optimum(&mp).unwrap();
        let target = current * 8.0;
        let k = NB.energy_improvement_for_target(&mp, target).unwrap();
        assert!((k - 8.0).abs() < 1e-12);
        // Verify: dividing all energy prices by k reaches the target.
        let scaled = MachineParams {
            gamma_e: mp.gamma_e / k,
            beta_e: mp.beta_e / k,
            alpha_e: mp.alpha_e / k,
            delta_e: mp.delta_e / k,
            epsilon_e: mp.epsilon_e / k,
            ..mp.clone()
        };
        let achieved = NB.gflops_per_watt_at_optimum(&scaled).unwrap();
        assert!((achieved - target).abs() / target < 1e-12);
    }

    #[test]
    fn zero_delta_e_makes_m0_undefined() {
        let mp = MachineParams::builder()
            .gamma_t(1e-12)
            .beta_e(1e-10)
            .build()
            .unwrap();
        assert!(matches!(NB.m0(&mp), Err(CoreError::Infeasible(_))));
        assert!(matches!(
            NB.energy_optimum(&mp, 1 << 20),
            Err(CoreError::Infeasible(_))
        ));
    }

    // ---- matmul module ----

    #[test]
    fn matmul_m0_solves_the_cubic() {
        let mp = params();
        let m0 = super::matmul::m0(&mp).unwrap();
        // Root check: 2C·x³ + D·x² = B at x = √M0.
        let x = m0.sqrt();
        let (b, c, d) = matmul_coefficients(&mp).unwrap();
        let lhs = 2.0 * c * x * x * x + d * x * x;
        assert!((lhs / b - 1.0).abs() < 1e-9, "cubic residual");
    }

    #[test]
    fn matmul_m0_is_the_argmin_of_eq10() {
        use crate::energy::e_matmul_25d;
        let mp = params();
        let n = 8192u64;
        let opt = ClassicalMatMul.energy_optimum(&mp, n).unwrap();
        let (m0, e0) = (opt.m0, opt.e_star);
        for f in [0.2, 0.5, 2.0, 5.0] {
            assert!(e_matmul_25d(&mp, n, m0 * f) > e0, "f={f}");
        }
        // And the numeric search agrees on the energy.
        let (_, e_num) = golden_section_min(|m| e_matmul_25d(&mp, n, m), m0 / 1e4, m0 * 1e4, 1e-12);
        assert!((e_num / e0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matmul_m0_range_is_consistent() {
        let mp = params();
        let n = 1u64 << 14;
        let opt = ClassicalMatMul.energy_optimum(&mp, n).unwrap();
        assert!(opt.p_lo < opt.p_hi);
        // M0 lies inside the memory range exactly at p in [p_lo, p_hi].
        let p_mid = ((opt.p_lo * opt.p_hi).sqrt()).round() as u64;
        assert!(ClassicalMatMul.min_memory(n, p_mid) <= opt.m0 * (1.0 + 1e-9));
        assert!(opt.m0 <= ClassicalMatMul.max_useful_memory(n, p_mid) * (1.0 + 1e-9));
    }

    #[test]
    fn matmul_m0_degenerate_machines_rejected() {
        let no_mem = MachineParams::builder()
            .gamma_t(1e-9)
            .beta_e(1e-8)
            .build()
            .unwrap();
        assert!(matches!(
            super::matmul::m0(&no_mem),
            Err(CoreError::Infeasible(_))
        ));
        let no_comm = MachineParams::builder()
            .gamma_t(1e-9)
            .delta_e(1e-8)
            .build()
            .unwrap();
        assert!(matches!(
            super::matmul::m0(&no_comm),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn matmul_m0_names_the_vanished_memory_price() {
        // δe > 0, but δe·γt and δe·(βt + αt/m) underflow to zero.
        let mp = MachineParams {
            delta_e: 1e-320,
            ..crate::machines::jaketown()
        };
        mp.validate().unwrap();
        let err = super::matmul::m0(&mp).unwrap_err().to_string();
        assert!(
            err.contains("delta_e·gamma_t = delta_e·(beta_t + alpha_t/m) = 0"),
            "{err}"
        );
    }

    #[test]
    fn nbody_min_average_power_sits_on_the_1d_limit() {
        let mp = params();
        let n = 1u64 << 20;
        let (cfg, pw) = NB.min_average_power(&mp, n).unwrap();
        // On the 1D limit p = n/M.
        assert!((cfg.p * cfg.mem / n as Real - 1.0).abs() < 1e-6);
        // Power is indeed P = E/T there.
        let direct = NB.average_power(&mp, cfg.p, cfg.mem).unwrap();
        assert!((pw / direct - 1.0).abs() < 1e-9);
        // No sampled feasible point beats it.
        for i in 0..50 {
            let m = 4.0 * ((n as Real) / 4.0).powf(i as Real / 49.0);
            let p_min_feasible = n as Real / m;
            assert!(
                NB.average_power(&mp, p_min_feasible, m).unwrap() >= pw * (1.0 - 1e-6),
                "beaten at M = {m}"
            );
        }
    }

    // ---- strassen module ----

    #[test]
    fn strassen_m0_is_the_argmin_of_eq13() {
        use crate::costs::StrassenMatMul;
        use crate::energy::e_matmul_fast_lm;
        let mp = params();
        let n = 1u64 << 13;
        for omega in [2.3, crate::STRASSEN_OMEGA, 3.0] {
            let opt = StrassenMatMul { omega }.energy_optimum(&mp, n).unwrap();
            for f in [0.2, 0.5, 2.0, 5.0] {
                assert!(
                    e_matmul_fast_lm(&mp, n, opt.m0 * f, omega) >= opt.e_star * (1.0 - 1e-9),
                    "omega={omega}, f={f}"
                );
            }
        }
    }

    #[test]
    fn strassen_m0_at_omega_3_matches_classical() {
        let mp = params();
        let a = super::strassen::m0(&mp, 3.0).unwrap();
        let b = super::matmul::m0(&mp).unwrap();
        assert!((a / b - 1.0).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn strassen_m0_rejects_bad_omega() {
        use crate::costs::StrassenMatMul;
        let mp = params();
        for omega in [2.0, 3.5, Real::NAN] {
            assert!(super::strassen::m0(&mp, omega).is_err());
            assert!(StrassenMatMul { omega }.energy_optimum(&mp, 1024).is_err());
        }
    }

    #[test]
    fn matmul_m0_searches_refuse_the_edge_of_their_bracket() {
        // Eq. 13 still falls at the 1e300 cap on this (valid) machine,
        // where the classical cubic still has a true root.
        let mp = MachineParams {
            beta_e: 1e200,
            delta_e: 1e-250,
            ..crate::machines::jaketown()
        };
        mp.validate().unwrap();
        let err = super::strassen::m0(&mp, crate::STRASSEN_OMEGA).unwrap_err();
        assert!(
            matches!(&err, CoreError::Infeasible(m) if m == "M0 overflow"),
            "{err}"
        );
        let m0 = super::matmul::m0(&mp).unwrap();
        assert!(m0 > 1e300 && m0.is_finite(), "{m0}");
        // And below 1e-300: communication all but free, memory dear.
        let mp = MachineParams {
            beta_e: 5e-324,
            delta_e: 1e300,
            ..crate::machines::jaketown()
        };
        mp.validate().unwrap();
        let err = super::strassen::m0(&mp, crate::STRASSEN_OMEGA).unwrap_err();
        assert!(
            matches!(&err, CoreError::Infeasible(m) if m == "M0 underflow"),
            "{err}"
        );
        let err = super::matmul::m0(&mp).unwrap_err();
        assert!(
            matches!(&err, CoreError::Infeasible(m) if m == "M0 underflow"),
            "{err}"
        );
    }

    #[test]
    fn strassen_m0_range_is_consistent() {
        use crate::costs::StrassenMatMul;
        let mp = params();
        let n = 1u64 << 14;
        let alg = StrassenMatMul::default();
        let opt = alg.energy_optimum(&mp, n).unwrap();
        assert!(opt.p_lo < opt.p_hi);
        let p_mid = ((opt.p_lo * opt.p_hi).sqrt()).round() as u64;
        assert!(alg.min_memory(n, p_mid) <= opt.m0 * (1.0 + 1e-9));
        assert!(opt.m0 <= alg.max_useful_memory(n, p_mid) * (1.0 + 1e-9));
    }

    /// §V.A against the numeric search: at the ends and the geometric
    /// middle of `M0`'s band, the argmin over `M` finds `E*` at `M0`, and
    /// the energy at `M0` does not move with `p`.
    #[test]
    fn energy_optimum_agrees_with_the_numeric_search() {
        use crate::costs::StrassenMatMul;
        let mp = crate::machines::jaketown();
        let n = 1u64 << 15;
        let algs: [&dyn Algorithm; 2] = [&ClassicalMatMul, &StrassenMatMul::default()];
        for alg in algs {
            let opt = alg.energy_optimum(&mp, n).unwrap();
            let ps = [
                opt.p_lo.ceil(),
                (opt.p_lo * opt.p_hi).sqrt().round(),
                opt.p_hi.floor(),
            ];
            for p in ps.map(|p| p as u64) {
                let name = alg.name();
                let cfg = argmin_energy_memory(alg, &mp, n, p).unwrap();
                assert!(
                    (cfg.energy / opt.e_star - 1.0).abs() < 1e-9,
                    "{name}, p = {p}"
                );
                assert!((cfg.mem / opt.m0 - 1.0).abs() < 1e-4, "{name}, p = {p}");
                let at_m0 = alg.evaluate(&mp, n, p, opt.m0).unwrap().energy;
                assert!((at_m0 / opt.e_star - 1.0).abs() < 1e-12, "{name}, p = {p}");
            }
        }
    }

    // ---- numeric module ----

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let (x, fx) = golden_section_min(|x| (x - 3.0) * (x - 3.0) + 1.0, 0.1, 10.0, 1e-12);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((fx - 1.0).abs() < 1e-10);
    }

    #[test]
    fn numeric_argmin_matches_nbody_optimizer() {
        let mp = params();
        let n = 1u64 << 22;
        let opt = NB.energy_optimum(&mp, n).unwrap();
        let m0 = opt.m0;
        // Pick p so that M0 is interior to the memory range.
        let (p_lo, p_hi) = (opt.p_lo, opt.p_hi);
        let p = ((p_lo * p_hi).sqrt()).round() as u64;
        let cfg = argmin_energy_memory(&NB, &mp, n, p).unwrap();
        // Flat objective near the optimum: see m0_is_the_argmin_of_energy.
        assert!((cfg.mem - m0).abs() / m0 < 1e-2);
        assert!((cfg.energy - opt.e_star).abs() / cfg.energy < 1e-10);
    }

    #[test]
    fn numeric_matmul_min_energy_is_interior_or_boundary() {
        let mp = params();
        let n = 8192u64;
        let p = 64u64;
        let cfg = argmin_energy_memory(&ClassicalMatMul, &mp, n, p).unwrap();
        let (lo, hi) = ClassicalMatMul.memory_range(n, p).unwrap();
        assert!(cfg.mem >= lo * 0.999 && cfg.mem <= hi * 1.001);
        // It is a minimum: both boundaries cost at least as much.
        let e_at = |m: Real| {
            let c = ClassicalMatMul.costs(n, p, m, &mp).unwrap();
            mp.energy(p, &c, m, mp.time(&c))
        };
        assert!(e_at(lo) >= cfg.energy * (1.0 - 1e-9));
        assert!(e_at(hi) >= cfg.energy * (1.0 - 1e-9));
    }

    #[test]
    fn numeric_deadline_sweep_monotone_in_tmax() {
        let mp = params();
        let n = 4096u64;
        let ps = log_spaced_p(4, 4096, 24);
        let loose = min_energy_given_tmax(&ClassicalMatMul, &mp, n, &ps, 1e6).unwrap();
        let tight = min_energy_given_tmax(&ClassicalMatMul, &mp, n, &ps, loose.time / 8.0).unwrap();
        assert!(tight.energy >= loose.energy * (1.0 - 1e-9));
        assert!(tight.time <= loose.time);
    }

    #[test]
    fn numeric_budget_sweep_monotone_in_emax() {
        let mp = params();
        let n = 4096u64;
        let ps = log_spaced_p(4, 4096, 24);
        let unconstrained = min_time_given_emax(&ClassicalMatMul, &mp, n, &ps, 1e12).unwrap();
        let base = argmin_energy_memory(&ClassicalMatMul, &mp, n, 4).unwrap();
        let constrained =
            min_time_given_emax(&ClassicalMatMul, &mp, n, &ps, base.energy * 1.2).unwrap();
        assert!(constrained.time >= unconstrained.time * (1.0 - 1e-9));
        assert!(constrained.energy <= base.energy * 1.2 * (1.0 + 1e-9));
    }

    #[test]
    fn numeric_impossible_deadline_errors() {
        let mp = params();
        let ps = log_spaced_p(4, 64, 8);
        assert!(matches!(
            min_energy_given_tmax(&ClassicalMatMul, &mp, 8192, &ps, 1e-12),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn numeric_impossible_budget_errors() {
        let mp = params();
        let ps = log_spaced_p(4, 64, 8);
        assert!(matches!(
            min_time_given_emax(&ClassicalMatMul, &mp, 8192, &ps, 1e-6),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn numeric_power_matches_nbody_optimizer() {
        let mp = params();
        let n = 1u64 << 22;
        let p = 256u64;
        let m = NB.max_useful_memory(n, p);
        let numeric = mp.average_power(p, &NB.costs(n, p, m, &mp).unwrap(), m);
        let closed = NB.average_power(&mp, p as Real, m).unwrap();
        assert!((numeric - closed).abs() / closed < 1e-12);
    }

    #[test]
    fn total_power_cap_limits_scale_out() {
        let mp = params();
        let n = 4096u64;
        let ps = log_spaced_p(4, 16384, 28);
        let fast = min_time_given_total_power(&ClassicalMatMul, &mp, n, &ps, 1e12).unwrap();
        // A tight cap forces fewer processors and more time.
        let m = ClassicalMatMul.min_memory(n, 64);
        let cap = mp.average_power(64, &ClassicalMatMul.costs(n, 64, m, &mp).unwrap(), m);
        let capped = min_time_given_total_power(&ClassicalMatMul, &mp, n, &ps, cap).unwrap();
        assert!(capped.time >= fast.time * (1.0 - 1e-9));
        assert!(capped.p <= fast.p);
        // The cap binds: the chosen run respects it.
        let p = capped.p.round() as u64;
        let costs = ClassicalMatMul.costs(n, p, capped.mem, &mp).unwrap();
        let at = mp.average_power(p, &costs, capped.mem);
        assert!(at <= cap * (1.0 + 1e-6));
    }

    #[test]
    fn proc_power_cap_infeasible_when_tiny() {
        let mp = params();
        let ps = log_spaced_p(4, 1024, 12);
        assert!(matches!(
            min_energy_given_proc_power(&ClassicalMatMul, &mp, 4096, &ps, 1e-20),
            Err(CoreError::Infeasible(_))
        ));
        assert!(matches!(
            min_time_given_total_power(&ClassicalMatMul, &mp, 4096, &ps, 1e-20),
            Err(CoreError::Infeasible(_))
        ));
    }

    #[test]
    fn proc_power_cap_caps_memory_like_eq20() {
        // For the n-body problem the numeric per-proc-power optimizer
        // must agree with the closed-form Eq. 20 memory cap: the chosen
        // M never exceeds it.
        let mp = params();
        let n = 1u64 << 22;
        let floor = NB.average_power(&mp, 1.0, 100.0).unwrap();
        let cap = floor * 1.2;
        let m_cap = NB.max_memory_given_proc_power(&mp, cap).unwrap();
        let ps = log_spaced_p(1 << 6, 1 << 16, 20);
        let cfg = min_energy_given_proc_power(&NB, &mp, n, &ps, cap).unwrap();
        assert!(
            cfg.mem <= m_cap * (1.0 + 1e-6),
            "numeric M {} vs Eq. 20 cap {}",
            cfg.mem,
            m_cap
        );
    }

    #[test]
    fn log_spaced_p_covers_range() {
        let v = log_spaced_p(4, 4096, 11);
        assert_eq!(*v.first().unwrap(), 4);
        assert_eq!(*v.last().unwrap(), 4096);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn daly_interval_minimizes_overhead_fraction() {
        use super::resilience::{daly_optimal_interval, overhead_fraction};
        // Cross-check the closed form against golden-section search on
        // the overhead function it approximately minimizes.
        for (delta, mtbf) in [(10.0, 86_400.0), (60.0, 3_600.0), (1.0, 1e6)] {
            let tau = daly_optimal_interval(delta, mtbf).unwrap();
            assert!(tau > 0.0);
            let (tau_num, _) = golden_section_min(
                |t| overhead_fraction(delta, t, mtbf).unwrap(),
                delta.max(1e-6) * 1e-2,
                mtbf * 10.0,
                1e-13,
            );
            // The first-order overhead model's argmin is √(2δM); Daly's
            // higher-order form corrects it by O(√(δ/M)).
            let rel = (tau - tau_num).abs() / tau_num;
            let corr = (delta / (2.0 * mtbf)).sqrt();
            assert!(rel <= 2.0 * corr + 1e-9, "τ {tau} vs numeric {tau_num}");
            // And the overhead at the Daly interval is near the optimum.
            let at_daly = overhead_fraction(delta, tau, mtbf).unwrap();
            let at_num = overhead_fraction(delta, tau_num, mtbf).unwrap();
            assert!(at_daly <= at_num * 1.05, "{at_daly} vs {at_num}");
        }
    }

    #[test]
    fn daly_interval_degenerate_and_invalid_inputs() {
        use super::resilience::daly_optimal_interval;
        // Checkpoints dearer than the failure-free stretch: fall back
        // to τ = MTBF.
        assert_eq!(daly_optimal_interval(100.0, 40.0).unwrap(), 40.0);
        assert!(daly_optimal_interval(-1.0, 10.0).is_err());
        assert!(daly_optimal_interval(1.0, 0.0).is_err());
        assert!(daly_optimal_interval(f64::NAN, 10.0).is_err());
    }

    #[test]
    fn overhead_fraction_shape_and_validation() {
        use super::resilience::overhead_fraction;
        let (delta, mtbf) = (30.0, 3600.0);
        // Convex in τ: large at both extremes, smaller in between.
        let lo = overhead_fraction(delta, 1.0, mtbf).unwrap();
        let mid = overhead_fraction(delta, 500.0, mtbf).unwrap();
        let hi = overhead_fraction(delta, 1e6, mtbf).unwrap();
        assert!(mid < lo && mid < hi);
        assert!(overhead_fraction(delta, 0.0, mtbf).is_err());
        assert!(overhead_fraction(delta, 10.0, -1.0).is_err());
        assert!(overhead_fraction(-1.0, 10.0, mtbf).is_err());
    }

    #[test]
    fn resilience_energy_prices_each_term() {
        use super::resilience::resilience_energy;
        let mp = params();
        let (p, mem) = (64.0, 1e6);
        // Each component in isolation reduces to one Eq. 2 term.
        let w = resilience_energy(&mp, 1e9, 0.0, 0.0, p, mem);
        assert!((w - mp.beta_e * 1e9).abs() <= 1e-12 * w);
        let s = resilience_energy(&mp, 0.0, 1e6, 0.0, p, mem);
        assert!((s - mp.alpha_e * 1e6).abs() <= 1e-12 * s);
        let t = resilience_energy(&mp, 0.0, 0.0, 10.0, p, mem);
        let expect = p * (mp.delta_e * mem + mp.epsilon_e) * 10.0;
        assert!((t - expect).abs() <= 1e-12 * expect);
        // And the combined call is the sum of the parts.
        let all = resilience_energy(&mp, 1e9, 1e6, 10.0, p, mem);
        assert!((all - (w + s + t)).abs() <= 1e-12 * all);
    }
}
