//! Bridge from an HBL exponent to the paper's machinery: build a
//! [`psse_core::costs::Algorithm`] whose `(F, W, S)` model is the
//! communication lower bound `W = #iter/(p·M^(σ−1))` attained with
//! equality, priced through Eq. 1/2 and the §V optimizers.
//!
//! A kernel whose derived `(depth, rank, σ)` signature is one of the
//! hand-written models *is* that model: every [`Algorithm`] method of a
//! matmul-shaped kernel is [`ClassicalMatMul`]'s, of an n-body-shaped
//! one [`DirectNBody`]'s at the kernel's `f`, and of an `fft-pebbling`
//! kernel [`FftTree`]'s — the same float expressions and the same §V
//! closed forms, so sweeps and CSVs are interchangeable with the
//! `alg = matmul` / `alg = nbody` paths. Only kernels outside those
//! families are priced by the exponent algebra below, through the
//! generic Eq. 1/2 path.

use crate::analysis::{analyze, HblAnalysis};
use crate::dsl::{Kernel, SpecialBound};
use crate::error::HblError;
use crate::rational::Rational;
use psse_core::bounds::ScalingRange;
use psse_core::costs::{
    check_memory, price_clamped, Algorithm, AlgorithmCosts, ClassicalMatMul, DirectNBody, FftTree,
};
use psse_core::error::CoreError;
use psse_core::optimize::{EnergyOptimum, RunConfig};
use psse_core::params::MachineParams;
use psse_core::Real;

/// `x^e` for integer `e ≥ 1` as a chained product — the same expression
/// tree (`(x·x)·x`, left-associated) the hand-written models use, unlike
/// `powi`/`powf`.
fn pow_chain(x: Real, e: u32) -> Real {
    let mut v = x;
    for _ in 1..e {
        v *= x;
    }
    v
}

/// `x^r` for a rational `r ≥ 0`: chained products for integers, `sqrt`
/// for `1/2`, `powf` otherwise.
fn pow_rat(x: Real, r: Rational) -> Real {
    if r.is_zero() {
        return 1.0;
    }
    if r.is_integer() {
        return pow_chain(x, r.numer() as u32);
    }
    if r.numer() == 1 && r.denom() == 2 {
        return x.sqrt();
    }
    x.powf(r.numer() as Real / r.denom() as Real)
}

/// Which model a derived kernel is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `(d, rmax, σ) = (3, 2, 3/2)` with unit flop cost: the 2.5D
    /// classical matmul shape, [`ClassicalMatMul`].
    Matmul25,
    /// `(d, rmax, σ) = (2, 1, 2)`: the data-replicating n-body shape,
    /// [`DirectNBody`].
    NBody,
    /// `bound = fft-pebbling` escape hatch: [`FftTree`].
    Pebbling,
    /// Any other exponent: the HBL cost model below, priced by the
    /// generic Eq. 1/2 path.
    Generic,
}

/// What [`derive()`] proved about the kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Derived {
    /// The solved HBL program (constraints, exponents, duals).
    Hbl(HblAnalysis),
    /// The kernel opted into the hand-derived FFT pebbling bound.
    Pebbling,
}

/// An [`Algorithm`] generated from a kernel's HBL exponent:
/// `F = f·n^d/p`, `W = n^d/(p·M^(σ−1))`, `S = W/m`, valid for
/// `n^rmax/p ≤ M ≤ (n^d/p)^(1/σ)`, where `rmax` is the largest array
/// rank (the dominant array's footprint holds one copy of the data).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCost {
    kernel_name: String,
    /// Loop-nest depth `d` (`#iterations = n^d`).
    pub depth: u32,
    /// Largest `rank(φ_j)` over the references (footprint exponent).
    pub rmax: u32,
    /// The HBL exponent `σ`, exact.
    pub sigma: Rational,
    /// Flops per innermost iteration (`f`).
    pub flops_per_iter: Real,
    /// The model this kernel is, fixed by [`derive()`].
    family: Family,
}

/// Derive the cost model (and its proof artifacts) from a kernel.
pub fn derive(kernel: &Kernel) -> Result<(KernelCost, Derived), HblError> {
    if kernel.special == Some(SpecialBound::FftPebbling) {
        return Ok((
            KernelCost {
                kernel_name: kernel.name.clone(),
                depth: 1,
                rmax: 1,
                sigma: Rational::ONE,
                flops_per_iter: kernel.flops_per_iter,
                family: Family::Pebbling,
            },
            Derived::Pebbling,
        ));
    }
    let a = analyze(kernel)?;
    let mut rmax = 0usize;
    for aref in &kernel.refs {
        rmax = rmax.max(aref.rank()?);
    }
    // analyze() rejected any kernel with a common null direction, so at
    // least one reference has positive rank, and the full-space
    // constraint forces σ ≥ 1.
    debug_assert!(rmax >= 1);
    debug_assert!(a.sigma >= Rational::ONE);
    let (depth, rmax) = (kernel.depth() as u32, rmax as u32);
    let cost = KernelCost {
        kernel_name: kernel.name.clone(),
        depth,
        rmax,
        sigma: a.sigma,
        flops_per_iter: kernel.flops_per_iter,
        family: classify(depth, rmax, a.sigma, kernel.flops_per_iter),
    };
    Ok((cost, Derived::Hbl(a)))
}

/// Which model an HBL signature `(d, rmax, σ, f)` is.
fn classify(depth: u32, rmax: u32, sigma: Rational, flops_per_iter: Real) -> Family {
    let three_halves = Rational::new(3, 2).expect("3/2");
    if depth == 3 && rmax == 2 && sigma == three_halves && flops_per_iter == 1.0 {
        return Family::Matmul25;
    }
    if depth == 2 && rmax == 1 && sigma == Rational::int(2) {
        return Family::NBody;
    }
    Family::Generic
}

impl KernelCost {
    /// The kernel's own name ([`Algorithm::name`] is a `&'static str`,
    /// the same for every kernel).
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Which pricing path the derived exponent selects.
    pub fn family(&self) -> Family {
        self.family
    }

    /// `call` on the hand-written model this kernel's family is, or
    /// `None` for a generic kernel.
    fn hand<R>(&self, call: impl FnOnce(&dyn Algorithm) -> R) -> Option<R> {
        Some(match self.family {
            Family::Matmul25 => call(&ClassicalMatMul),
            Family::NBody => call(&DirectNBody {
                flops_per_interaction: self.flops_per_iter,
            }),
            Family::Pebbling => call(&FftTree),
            Family::Generic => return None,
        })
    }
}

/// The [`Algorithm`] of a kernel: a hand family's model for every
/// method but [`Algorithm::name`] (so [`Algorithm::memory_range`] errors
/// name the kernel's model), the HBL exponent algebra otherwise.
impl Algorithm for KernelCost {
    fn name(&self) -> &'static str {
        "HBL-derived kernel"
    }

    fn total_flops(&self, n: u64) -> Real {
        if let Some(flops) = self.hand(|a| a.total_flops(n)) {
            return flops;
        }
        let nf = n as Real;
        let mut v = self.flops_per_iter;
        for _ in 0..self.depth {
            v *= nf;
        }
        v
    }

    fn min_memory(&self, n: u64, p: u64) -> Real {
        if let Some(m) = self.hand(|a| a.min_memory(n, p)) {
            return m;
        }
        pow_chain(n as Real, self.rmax) / p as Real
    }

    fn max_useful_memory(&self, n: u64, p: u64) -> Real {
        if let Some(m) = self.hand(|a| a.max_useful_memory(n, p)) {
            return m;
        }
        // Invert p_max = n^d/M^σ: M_max = n^(d/σ)/p^(1/σ).
        let d_over_sigma = Rational::int(self.depth as i64)
            .div(self.sigma)
            .expect("sigma >= 1");
        let inv_sigma = Rational::ONE.div(self.sigma).expect("sigma >= 1");
        pow_rat(n as Real, d_over_sigma) / pow_rat(p as Real, inv_sigma)
    }

    fn costs(
        &self,
        n: u64,
        p: u64,
        m_words: Real,
        params: &MachineParams,
    ) -> Result<AlgorithmCosts, CoreError> {
        let (lo, hi) = self.memory_range(n, p)?;
        if let Some(costs) = self.hand(|a| a.costs(n, p, m_words, params)) {
            return costs;
        }
        check_memory(m_words, lo, hi)?;
        let f = self.total_flops(n) / p as Real;
        let sigma_m1 = self.sigma.sub(Rational::ONE).expect("sigma >= 1");
        let w = pow_chain(n as Real, self.depth) / (p as Real * pow_rat(m_words, sigma_m1));
        Ok(AlgorithmCosts {
            flops: f,
            words: w,
            messages: w / params.max_message_words,
        })
    }

    fn strong_scaling_range(&self, n: u64, mem: Real) -> Option<ScalingRange> {
        if let Some(range) = self.hand(|a| a.strong_scaling_range(n, mem)) {
            return range;
        }
        let nf = n as Real;
        Some(ScalingRange {
            p_min: pow_chain(nf, self.rmax) / mem,
            p_max: pow_chain(nf, self.depth) / pow_rat(mem, self.sigma),
        })
    }

    fn evaluate(
        &self,
        machine: &MachineParams,
        n: u64,
        p: u64,
        m_words: Real,
    ) -> Result<RunConfig, CoreError> {
        self.hand(|a| a.evaluate(machine, n, p, m_words))
            .unwrap_or_else(|| price_clamped(self, machine, n, p, m_words))
    }

    fn energy_optimum(&self, machine: &MachineParams, n: u64) -> Result<EnergyOptimum, CoreError> {
        self.hand(|a| a.energy_optimum(machine, n))
            .unwrap_or_else(|| {
                Err(CoreError::Infeasible(format!(
                    "kernel `{}` is outside the closed-form families; optimize at an \
                     explicit processor count instead (numeric argmin over M)",
                    self.kernel_name
                )))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineParams {
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

    fn matmul_cost() -> KernelCost {
        let k = Kernel::parse(
            "for i in 0..n\nfor j in 0..n\nfor k in 0..n\nC[i,j] += A[i,k] * B[k,j]\n",
        )
        .unwrap();
        derive(&k).unwrap().0
    }

    fn nbody_cost() -> KernelCost {
        let k = Kernel::parse(
            "flops-per-iter = 20\nfor i in 0..n\nfor j in 0..n\nF[i] += P[i] * P[j]\n",
        )
        .unwrap();
        derive(&k).unwrap().0
    }

    #[test]
    fn families_are_recognized() {
        assert_eq!(matmul_cost().family(), Family::Matmul25);
        assert_eq!(nbody_cost().family(), Family::NBody);
        let fft = Kernel::parse("bound = fft-pebbling\n").unwrap();
        assert_eq!(derive(&fft).unwrap().0.family(), Family::Pebbling);
        // Tensor contraction: σ = 3/2 but depth 4 — generic.
        let t = Kernel::parse(
            "for i in 0..n\nfor j in 0..n\nfor k in 0..n\nfor l in 0..n\n\
             C[i,j] += A[i,k,l] * B[l,k,j]\n",
        )
        .unwrap();
        let (cost, _) = derive(&t).unwrap();
        assert_eq!(cost.sigma, Rational::new(3, 2).unwrap());
        assert_eq!((cost.depth, cost.rmax), (4, 3));
        assert_eq!(cost.family(), Family::Generic);
    }

    #[test]
    fn matmul_costs_are_bit_identical_to_the_hand_written_model() {
        let mp = machine();
        let derived = matmul_cost();
        let hand = ClassicalMatMul;
        let (n, p) = (4096u64, 512u64);
        assert_eq!(
            derived.total_flops(n).to_bits(),
            hand.total_flops(n).to_bits()
        );
        assert_eq!(
            derived.min_memory(n, p).to_bits(),
            hand.min_memory(n, p).to_bits()
        );
        assert_eq!(
            derived.max_useful_memory(n, p).to_bits(),
            hand.max_useful_memory(n, p).to_bits()
        );
        let m = hand.min_memory(n, p) * 3.0;
        let a = derived.costs(n, p, m, &mp).unwrap();
        let b = hand.costs(n, p, m, &mp).unwrap();
        assert_eq!(a.flops.to_bits(), b.flops.to_bits());
        assert_eq!(a.words.to_bits(), b.words.to_bits());
        assert_eq!(a.messages.to_bits(), b.messages.to_bits());
        let ra = derived.strong_scaling_range(n, m).unwrap();
        let rb = hand.strong_scaling_range(n, m).unwrap();
        assert_eq!(ra.p_min.to_bits(), rb.p_min.to_bits());
        assert_eq!(ra.p_max.to_bits(), rb.p_max.to_bits());
    }

    #[test]
    fn nbody_costs_are_bit_identical_to_the_hand_written_model() {
        let mp = machine();
        let derived = nbody_cost();
        let hand = DirectNBody {
            flops_per_interaction: 20.0,
        };
        let (n, p) = (1u64 << 20, 1024u64);
        assert_eq!(
            derived.total_flops(n).to_bits(),
            hand.total_flops(n).to_bits()
        );
        let m = hand.max_useful_memory(n, p);
        assert_eq!(m.to_bits(), derived.max_useful_memory(n, p).to_bits());
        let a = derived.costs(n, p, m, &mp).unwrap();
        let b = hand.costs(n, p, m, &mp).unwrap();
        assert_eq!(a.flops.to_bits(), b.flops.to_bits());
        assert_eq!(a.words.to_bits(), b.words.to_bits());
        assert_eq!(a.messages.to_bits(), b.messages.to_bits());
    }

    #[test]
    fn out_of_range_memory_is_rejected_like_the_core_models() {
        let mp = machine();
        let derived = matmul_cost();
        let (n, p) = (4096u64, 512u64);
        let lo = derived.min_memory(n, p);
        assert!(matches!(
            derived.costs(n, p, lo * 0.5, &mp),
            Err(CoreError::MemoryOutOfRange { .. })
        ));
        assert!(matches!(
            derived.costs(n, p, f64::NAN, &mp),
            Err(CoreError::MemoryOutOfRange { .. })
        ));
        assert!(derived.costs(n, p, lo, &mp).is_ok());
    }

    #[test]
    fn evaluate_matches_the_section_v_optimizers() {
        let mp = machine();
        let (n, p) = (4096u64, 512u64);
        let mm = matmul_cost();
        let m = mm.min_memory(n, p) * 2.0;
        let a = mm.evaluate(&mp, n, p, m).unwrap();
        let b = ClassicalMatMul.evaluate(&mp, n, p, m).unwrap();
        assert_eq!(a.time.to_bits(), b.time.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        let nb = nbody_cost();
        let n2 = 1u64 << 20;
        let m2 = nb.min_memory(n2, p) * 2.0;
        let a2 = nb.evaluate(&mp, n2, p, m2).unwrap();
        let b2 = DirectNBody::default().evaluate(&mp, n2, p, m2).unwrap();
        assert_eq!(a2.time.to_bits(), b2.time.to_bits());
        assert_eq!(a2.energy.to_bits(), b2.energy.to_bits());
    }

    #[test]
    fn energy_optimum_matches_the_optimizers_and_rejects_generic() {
        let mp = machine();
        let n = 4096u64;
        let e = matmul_cost().energy_optimum(&mp, n).unwrap();
        let opt = ClassicalMatMul.energy_optimum(&mp, n).unwrap();
        assert_eq!(e.m0.to_bits(), opt.m0.to_bits());
        assert_eq!(e.e_star.to_bits(), opt.e_star.to_bits());
        assert_eq!(e.p_lo.to_bits(), opt.p_lo.to_bits());
        assert_eq!(e.p_hi.to_bits(), opt.p_hi.to_bits());
        let fft = derive(&Kernel::parse("bound = fft-pebbling\n").unwrap())
            .unwrap()
            .0;
        assert!(fft.energy_optimum(&mp, n).is_err());
    }

    #[test]
    fn pebbling_delegates_to_fft_tree() {
        let mp = machine();
        let fft = derive(&Kernel::parse("bound = fft-pebbling\n").unwrap())
            .unwrap()
            .0;
        let (n, p) = (1u64 << 20, 256u64);
        let hand = FftTree;
        assert_eq!(fft.total_flops(n).to_bits(), hand.total_flops(n).to_bits());
        let m = hand.min_memory(n, p);
        let a = fft.costs(n, p, m, &mp).unwrap();
        let b = hand.costs(n, p, m, &mp).unwrap();
        assert_eq!(a.words.to_bits(), b.words.to_bits());
        assert!(fft.strong_scaling_range(n, m).is_none());
    }
}
