//! Bridge from an HBL exponent to the paper's machinery: build a
//! [`psse_core::costs::Algorithm`] whose `(F, W, S)` model is the
//! communication lower bound `W = #iter/(p·M^(σ−1))` attained with
//! equality, price it through Eq. 1/2, and reuse the §V optimizers.
//!
//! The contract that makes this useful is **bit-for-bit agreement** with
//! the hand-written models: a kernel whose derived `(depth, rank, σ)`
//! signature matches 2.5D matmul or the replicating n-body algorithm
//! evaluates through the very same float expression trees as
//! [`ClassicalMatMul`](psse_core::costs::ClassicalMatMul) /
//! [`DirectNBody`](psse_core::costs::DirectNBody) and the very same
//! closed-form optimizers, so sweeps and CSVs are interchangeable with
//! the existing `alg = matmul` / `alg = nbody` paths. Kernels outside
//! those families price through the generic Eq. 1/2 path (exactly what
//! the lab runner does for `lu`, `cholesky`, ...), and `fft-pebbling`
//! kernels delegate wholesale to [`FftTree`].

use crate::analysis::{analyze, HblAnalysis};
use crate::dsl::{Kernel, SpecialBound};
use crate::error::HblError;
use crate::rational::Rational;
use psse_core::bounds::ScalingRange;
use psse_core::costs::{check_memory, Algorithm, AlgorithmCosts, FftTree};
use psse_core::error::CoreError;
use psse_core::optimize::matmul::MatMulOptimizer;
use psse_core::optimize::nbody::NBodyOptimizer;
use psse_core::optimize::RunConfig;
use psse_core::params::MachineParams;
use psse_core::Real;

/// `x^e` for integer `e ≥ 1` as a chained product — the same expression
/// tree (`(x·x)·x`, left-associated) the hand-written models use, so the
/// result is bit-identical to theirs, unlike `powi`/`powf`.
fn pow_chain(x: Real, e: u32) -> Real {
    let mut v = x;
    for _ in 1..e {
        v *= x;
    }
    v
}

/// `x^r` for a rational `r ≥ 0`, routed through whichever float
/// expression the hand-written models use for that exponent: chained
/// products for integers, `sqrt` for `1/2`, `powf` otherwise.
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

/// How a derived kernel is priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `(d, rmax, σ) = (3, 2, 3/2)` with unit flop cost: the 2.5D
    /// classical matmul shape. Priced by [`MatMulOptimizer`].
    Matmul25,
    /// `(d, rmax, σ) = (2, 1, 2)`: the data-replicating n-body shape.
    /// Priced by [`NBodyOptimizer`].
    NBody,
    /// `bound = fft-pebbling` escape hatch: delegates to [`FftTree`].
    Pebbling,
    /// Any other exponent: priced by the generic Eq. 1/2 path.
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
    /// Whether the kernel routes around the LP to the FFT bound.
    pub pebbling: bool,
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
                pebbling: true,
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
    let cost = KernelCost {
        kernel_name: kernel.name.clone(),
        depth: kernel.depth() as u32,
        rmax: rmax as u32,
        sigma: a.sigma,
        flops_per_iter: kernel.flops_per_iter,
        pebbling: false,
    };
    Ok((cost, Derived::Hbl(a)))
}

impl KernelCost {
    /// The kernel's own name (the [`Algorithm::name`] implementation
    /// must return `&'static str`, so it reports the family instead).
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Which pricing path the derived exponent selects.
    pub fn family(&self) -> Family {
        if self.pebbling {
            return Family::Pebbling;
        }
        let three_halves = Rational::new(3, 2).expect("3/2");
        if self.depth == 3
            && self.rmax == 2
            && self.sigma == three_halves
            && self.flops_per_iter == 1.0
        {
            return Family::Matmul25;
        }
        if self.depth == 2 && self.rmax == 1 && self.sigma == Rational::int(2) {
            return Family::NBody;
        }
        Family::Generic
    }

    /// Evaluate `(T, E)` at an explicit `(p, M)`, dispatching by family
    /// so that matmul- and n-body-shaped kernels reproduce the closed
    /// forms bit-for-bit (this is exactly the lab runner's model
    /// dispatch). Generic kernels clamp `M` into the valid range for
    /// the costs (the energy still charges the requested `M`).
    pub fn evaluate_point(
        &self,
        machine: &MachineParams,
        n: u64,
        p: u64,
        mem: Real,
    ) -> Result<RunConfig, CoreError> {
        match self.family() {
            Family::Matmul25 => Ok(MatMulOptimizer::new(machine)?.evaluate(n, p, mem)),
            Family::NBody => {
                Ok(NBodyOptimizer::new(machine, self.flops_per_iter)?.evaluate(n, p, mem))
            }
            Family::Pebbling | Family::Generic => {
                let costs = self.costs_clamped(n, p, mem, machine)?;
                let t = machine.time(&costs);
                let e = machine.energy(p, &costs, mem, t);
                Ok(RunConfig {
                    p: p as Real,
                    mem,
                    time: t,
                    energy: e,
                })
            }
        }
    }

    /// The energy-optimal operating point (§V.A): `M0`, `E*` and the
    /// processor range where `M0` is feasible — via the closed-form
    /// optimizers for the matmul/n-body families (bit-for-bit what
    /// `psse optimize` prints). Other families have no closed form
    /// here: the FFT has no memory knob at all, and generic kernels
    /// should be optimized at explicit `p` with
    /// [`psse_core::optimize::numeric::argmin_energy_memory`].
    pub fn energy_optimum(
        &self,
        machine: &MachineParams,
        n: u64,
    ) -> Result<EnergyOptimum, CoreError> {
        match self.family() {
            Family::Matmul25 => {
                let opt = MatMulOptimizer::new(machine)?;
                let (p_lo, p_hi) = opt.m0_processor_range(n)?;
                Ok(EnergyOptimum {
                    m0: opt.m0()?,
                    e_star: opt.e_star(n)?,
                    p_lo,
                    p_hi,
                })
            }
            Family::NBody => {
                let opt = NBodyOptimizer::new(machine, self.flops_per_iter)?;
                let (p_lo, p_hi) = opt.m0_processor_range(n)?;
                Ok(EnergyOptimum {
                    m0: opt.m0()?,
                    e_star: opt.e_star(n)?,
                    p_lo,
                    p_hi,
                })
            }
            Family::Pebbling => Err(CoreError::Infeasible(
                "the FFT has no replication knob (M = n/p always): there is no \
                 energy-optimal memory to choose"
                    .into(),
            )),
            Family::Generic => Err(CoreError::Infeasible(format!(
                "kernel `{}` is outside the closed-form families; optimize at an \
                 explicit processor count instead (numeric argmin over M)",
                self.kernel_name
            ))),
        }
    }
}

/// The §V.A optimum of a kernel on a machine.
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

impl Algorithm for KernelCost {
    fn name(&self) -> &'static str {
        "HBL-derived kernel"
    }

    fn total_flops(&self, n: u64) -> Real {
        if self.pebbling {
            return FftTree.total_flops(n);
        }
        let nf = n as Real;
        let mut v = self.flops_per_iter;
        for _ in 0..self.depth {
            v *= nf;
        }
        v
    }

    fn min_memory(&self, n: u64, p: u64) -> Real {
        if self.pebbling {
            return FftTree.min_memory(n, p);
        }
        pow_chain(n as Real, self.rmax) / p as Real
    }

    fn max_useful_memory(&self, n: u64, p: u64) -> Real {
        if self.pebbling {
            return FftTree.max_useful_memory(n, p);
        }
        // Invert p_max = n^d/M^σ: M_max = n^(d/σ)/p^(1/σ). For the
        // matmul family d/σ = 2 and 1/σ = 2/3; for n-body 1 and 1/2 —
        // the same expressions (and bits) as the hand-written models.
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
        if self.pebbling {
            return FftTree.costs(n, p, m_words, params);
        }
        let (lo, hi) = self.memory_range(n, p)?;
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
        if self.pebbling {
            return FftTree.strong_scaling_range(n, mem);
        }
        let nf = n as Real;
        Some(ScalingRange {
            p_min: pow_chain(nf, self.rmax) / mem,
            p_max: pow_chain(nf, self.depth) / pow_rat(mem, self.sigma),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::costs::{ClassicalMatMul, DirectNBody};

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
    fn evaluate_point_matches_the_closed_form_optimizers() {
        let mp = machine();
        let (n, p) = (4096u64, 512u64);
        let mm = matmul_cost();
        let m = mm.min_memory(n, p) * 2.0;
        let a = mm.evaluate_point(&mp, n, p, m).unwrap();
        let b = MatMulOptimizer::new(&mp).unwrap().evaluate(n, p, m);
        assert_eq!(a.time.to_bits(), b.time.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        let nb = nbody_cost();
        let n2 = 1u64 << 20;
        let m2 = nb.min_memory(n2, p) * 2.0;
        let a2 = nb.evaluate_point(&mp, n2, p, m2).unwrap();
        let b2 = NBodyOptimizer::new(&mp, 20.0).unwrap().evaluate(n2, p, m2);
        assert_eq!(a2.time.to_bits(), b2.time.to_bits());
        assert_eq!(a2.energy.to_bits(), b2.energy.to_bits());
    }

    #[test]
    fn energy_optimum_matches_the_optimizers_and_rejects_generic() {
        let mp = machine();
        let n = 4096u64;
        let opt = MatMulOptimizer::new(&mp).unwrap();
        let e = matmul_cost().energy_optimum(&mp, n).unwrap();
        assert_eq!(e.m0.to_bits(), opt.m0().unwrap().to_bits());
        assert_eq!(e.e_star.to_bits(), opt.e_star(n).unwrap().to_bits());
        let (lo, hi) = opt.m0_processor_range(n).unwrap();
        assert_eq!(e.p_lo.to_bits(), lo.to_bits());
        assert_eq!(e.p_hi.to_bits(), hi.to_bits());
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
