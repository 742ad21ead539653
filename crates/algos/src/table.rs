//! The algorithm table: the one place an algorithm name is matched.
//!
//! `psse simulate`, `psse trace record`, `psse model`/`scaling` and the
//! lab runner look a name up here and call what they find, so they
//! accept the same names, build the same inputs from `(n, p, c, seed)`
//! and reject the same shapes. Whether a run is compared with its
//! sequential reference is the caller's choice (see [`Check`]): the CLI
//! always asks, a sweep only where the reference is exact and cheap — a
//! serial `n³` product per key would dwarf the sweep it checks.

use psse_core::costs::{
    Algorithm, Cholesky25d, ClassicalMatMul, DirectNBody, FftAllToAll, FftTree, HaloStencilModel,
    Lu25d, MatVec, SampleSortModel, StrassenMatMul,
};
use psse_kernels::gemm::matmul;
use psse_kernels::nbody::{accumulate_forces, random_particles};
use psse_kernels::rng::XorShift64;
use psse_kernels::sort::sort_total;
use psse_kernels::{Complex64, Matrix};
use psse_sim::machine::SimConfig;
use psse_sim::profile::Profile;
use psse_sim::SimError;

use crate::prelude::*;

/// What one simulated run is asked to do. `n`, `p`, `c` and `seed` are
/// every algorithm's coordinates; the rest are knobs one algorithm each
/// reads, preset by [`Shape::new`] to the CLI's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Problem size: matrix or grid edge, particle, key or sample count.
    pub n: usize,
    /// Total ranks.
    pub p: usize,
    /// Replication factor (2.5D matmul, replicating n-body).
    pub c: usize,
    /// Seed of the deterministic inputs.
    pub seed: u64,
    /// SUMMA panel width; `None` is one whole block, `n/√p`.
    pub panel: Option<usize>,
    /// TSQR column count.
    pub cols: usize,
    /// Stencil halo width.
    pub halo: usize,
    /// Stencil sweep count.
    pub iters: usize,
}

impl Shape {
    /// The shape at `(n, p, c, seed)` with the CLI's default knobs.
    pub fn new(n: usize, p: usize, c: usize, seed: u64) -> Shape {
        Shape {
            n,
            p,
            c,
            seed,
            panel: None,
            cols: 4,
            halo: 1,
            iters: 4,
        }
    }
}

/// A finished run.
pub struct Run {
    /// The distributed result, flattened to words (row-major matrices,
    /// `x, y, z` force triples, `re, im` pairs).
    pub output: Vec<f64>,
    /// The per-rank counters and virtual clocks.
    pub profile: Profile,
    /// The output matched the sequential reference; `false` when the
    /// caller did not ask for the comparison.
    pub verified: bool,
}

fn done(output: Vec<f64>, profile: Profile, verified: bool) -> Result<Run, SimError> {
    Ok(Run {
        output,
        profile,
        verified,
    })
}

/// `a` and `b` hold the same words bit for bit — what a
/// [`Check::Exact`] comparison means. `==` on `f64` would take `-0.0`
/// for `+0.0` and fail a run whose output holds a NaN.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What kind of sequential reference a simulator has, which is what a
/// sweep goes by when it decides whether to ask for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Within a tolerance, at the price of a serial run (`n³` flops for
    /// dense algebra): a sweep skips it.
    Tolerance,
    /// Bit-for-bit and no dearer than the run: a sweep asks on every key.
    Exact,
    /// [`Check::Tolerance`], but the run also checks itself (ABFT
    /// checksums), so `Ok` alone already means a verified output.
    InRun,
}

type RunFn = fn(&Shape, SimConfig, bool) -> Result<Run, SimError>;

/// The simulator half of an entry.
pub struct Simulate {
    run: RunFn,
    /// The kind of reference [`Simulate::run`] can compare with.
    pub check: Check,
}

impl Simulate {
    /// Build the seeded inputs `shape` names and run the algorithm on
    /// the virtual machine under `cfg`; with `verify`, also compare the
    /// output with the sequential reference. A shape the layout is not
    /// defined on, and an input this host cannot hold, are
    /// [`SimError::Algorithm`]s, never panics.
    pub fn run(&self, shape: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
        (self.run)(shape, cfg, verify)
    }
}

type ModelFn = fn(f64, u64, u64) -> Box<dyn Algorithm>;

/// The model half of an entry.
pub struct Model(ModelFn);

impl Model {
    /// The `(F, W, S)` cost model, priced by its own
    /// [`Algorithm::evaluate`]. `f` is the n-body flops per interaction,
    /// `halo`/`iters` the stencil shape; each is ignored by the other
    /// algorithms.
    pub fn costs(&self, f: f64, halo: u64, iters: u64) -> Box<dyn Algorithm> {
        (self.0)(f, halo, iters)
    }
}

/// One algorithm name and what can be done with it.
pub struct Entry {
    /// The id `--alg` and `alg =` accept.
    pub name: &'static str,
    /// What `psse model`, `psse scaling` and `kind = model` price.
    pub model: Option<Model>,
    /// What `psse simulate`, `psse trace record` and `kind = simulate` run.
    pub simulate: Option<Simulate>,
}

/// 2.5D matmul under ABFT checksums: what `psse faults sweep` measures.
pub const MM25D_ABFT: &str = "mm25d-abft";

const fn costs(build: ModelFn) -> Option<Model> {
    Some(Model(build))
}

const fn sim(check: Check, run: RunFn) -> Option<Simulate> {
    Some(Simulate { run, check })
}

const fn entry(name: &'static str, model: Option<Model>, simulate: Option<Simulate>) -> Entry {
    Entry {
        name,
        model,
        simulate,
    }
}

const CLASSICAL: ModelFn = |_, _, _| Box::new(ClassicalMatMul);
const STRASSEN: ModelFn = |_, _, _| Box::new(StrassenMatMul::default());
const LU: ModelFn = |_, _, _| Box::new(Lu25d);
const CHOLESKY: ModelFn = |_, _, _| Box::new(Cholesky25d);
const NBODY: ModelFn = |flops_per_interaction, _, _| {
    Box::new(DirectNBody {
        flops_per_interaction,
    })
};
const FFT_TREE: ModelFn = |_, _, _| Box::new(FftTree);
const FFT_A2A: ModelFn = |_, _, _| Box::new(FftAllToAll);
const MATVEC: ModelFn = |_, _, _| Box::new(MatVec);
const SORT: ModelFn = |_, _, _| Box::new(SampleSortModel);
const STENCIL: ModelFn = |_, halo, iters| Box::new(HaloStencilModel { halo, iters });

use Check::{Exact, InRun, Tolerance};

/// Every algorithm, one row each, in the order help texts and error
/// messages list them.
#[rustfmt::skip]
pub static TABLE: [Entry; 19] = [
    entry("matmul",     costs(CLASSICAL), None),
    entry("cannon",     None,             sim(Tolerance, cannon)),
    entry("summa",      None,             sim(Tolerance, summa)),
    entry("summa-abft", None,             sim(InRun, summa_abft)),
    entry("mm25d",      costs(CLASSICAL), sim(Tolerance, mm25d)),
    entry(MM25D_ABFT,   None,             sim(InRun, mm25d_abft)),
    entry("mm3d",       None,             sim(Tolerance, mm3d)),
    entry("strassen",   costs(STRASSEN),  sim(Tolerance, strassen)),
    entry("lu",         costs(LU),        sim(Tolerance, lu)),
    entry("solve",      None,             sim(Tolerance, solve)),
    entry("cholesky",   costs(CHOLESKY),  sim(Tolerance, cholesky)),
    entry("tsqr",       None,             sim(Tolerance, tsqr_r)),
    entry("nbody",      costs(NBODY),     sim(Tolerance, nbody)),
    entry("fft",        costs(FFT_TREE),  sim(Tolerance, fft)),
    entry("fft-tree",   costs(FFT_TREE),  None),
    entry("fft-a2a",    costs(FFT_A2A),   None),
    entry("matvec",     costs(MATVEC),    sim(Tolerance, matvec)),
    entry("samplesort", costs(SORT),      sim(Exact, samplesort)),
    entry("stencil",    costs(STENCIL),   sim(Exact, stencil)),
];

/// The names of the entries `keep` accepts, in table order.
pub fn names(keep: impl Fn(&'static Entry) -> bool) -> impl Iterator<Item = &'static str> {
    TABLE.iter().filter(move |e| keep(e)).map(|e| e.name)
}

fn lookup<T>(
    what: &str,
    name: &str,
    half: fn(&'static Entry) -> Option<&'static T>,
) -> Result<&'static T, String> {
    let found = TABLE.iter().find(|e| e.name == name).and_then(half);
    found.ok_or_else(|| {
        let known: Vec<&str> = names(|e| half(e).is_some()).collect();
        format!("unknown {what} algorithm `{name}` ({})", known.join("|"))
    })
}

/// The cost model of `name`, or an error listing the names that have one.
pub fn model(name: &str) -> Result<&'static Model, String> {
    lookup("model", name, |e| e.model.as_ref())
}

/// The simulator of `name`, or an error listing the names that have one.
pub fn simulator(name: &str) -> Result<&'static Simulate, String> {
    lookup("simulator", name, |e| e.simulate.as_ref())
}

/// Refuse a `rows × cols` input this host cannot hold before building
/// it: the word count is formed with checked arithmetic and reserved
/// (then released) fallibly, so an absurd `--n` is an error here instead
/// of an abort inside the allocator.
fn input_fits(rows: usize, cols: usize) -> Result<(), SimError> {
    let words = rows.checked_mul(cols);
    if words.is_some_and(|w| Vec::<f64>::new().try_reserve_exact(w).is_ok()) {
        return Ok(());
    }
    Err(SimError::Algorithm(format!(
        "--n is too large: a {rows} x {cols} input of 8-byte words does not fit in this host's memory"
    )))
}

/// `C = A·B` on seeded `n × n` inputs, against the serial product.
fn matmul_family(
    s: &Shape,
    verify: bool,
    run: impl FnOnce(&Matrix, &Matrix) -> Result<(Matrix, Profile), SimError>,
) -> Result<Run, SimError> {
    input_fits(s.n, s.n)?;
    let a = Matrix::random(s.n, s.n, s.seed);
    let b = Matrix::random(s.n, s.n, s.seed.wrapping_add(1));
    let (c, profile) = run(&a, &b)?;
    let verified = verify && c.max_abs_diff(&matmul(&a, &b)) < 1e-8;
    done(c.into_vec(), profile, verified)
}

fn cannon(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    matmul_family(s, verify, |a, b| cannon_matmul(a, b, s.p, cfg))
}

/// SUMMA's panel width: the shape's, else one whole block.
fn panel(s: &Shape) -> usize {
    let q = ((s.p as f64).sqrt() as usize).max(1);
    s.panel.unwrap_or((s.n / q).max(1))
}

fn summa(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    matmul_family(s, verify, |a, b| summa_matmul(a, b, s.p, panel(s), cfg))
}

fn summa_abft(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    matmul_family(s, verify, |a, b| {
        summa_matmul_abft(a, b, s.p, panel(s), cfg)
    })
}

fn mm25d(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    matmul_family(s, verify, |a, b| matmul_25d(a, b, s.p, s.c, cfg))
}

fn mm25d_abft(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    matmul_family(s, verify, |a, b| matmul_25d_abft(a, b, s.p, s.c, cfg))
}

fn mm3d(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    matmul_family(s, verify, |a, b| matmul_3d(a, b, s.p, cfg))
}

fn strassen(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    matmul_family(s, verify, |a, b| strassen_distributed(a, b, s.p, cfg))
}

fn cholesky(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    input_fits(s.n, s.n)?;
    // BᵀB + n·I: symmetric positive definite.
    let b = Matrix::random(s.n, s.n, s.seed);
    let mut a = matmul(&b.transpose(), &b);
    for i in 0..s.n {
        a[(i, i)] += s.n as f64;
    }
    let (l, profile) = cholesky_2d(&a, s.p, cfg)?;
    let verified = verify && matmul(&l, &l.transpose()).relative_error(&a) < 1e-8;
    done(l.into_vec(), profile, verified)
}

fn lu(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    input_fits(s.n, s.n)?;
    let a = Matrix::random_diagonally_dominant(s.n, s.seed);
    let (packed, profile) = lu_2d(&a, s.p, cfg)?;
    let verified = verify && {
        let (l, u) = psse_kernels::lu::split_lu(&packed);
        matmul(&l, &u).relative_error(&a) < 1e-8
    };
    done(packed.into_vec(), profile, verified)
}

fn solve(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    let n = s.n;
    input_fits(n, n)?;
    let a = Matrix::random_diagonally_dominant(n, s.seed);
    let x_true: Vec<f64> = (0..n).map(|i| i as f64 - n as f64 / 2.0).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum())
        .collect();
    let (x, profile) = solve_2d(&a, &b, s.p, cfg)?;
    let close = |(x, t): (&f64, &f64)| (x - t).abs() < 1e-6 * (1.0 + t.abs());
    let verified = verify && x.iter().zip(&x_true).all(close);
    done(x, profile, verified)
}

fn tsqr_r(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    input_fits(s.n, s.cols)?;
    let a = Matrix::random(s.n, s.cols, s.seed);
    let (r, profile) = tsqr(&a, s.p, cfg)?;
    let verified = verify && r.max_abs_diff(&psse_kernels::qr::householder_qr(&a).1) < 1e-7;
    done(r.into_vec(), profile, verified)
}

fn nbody(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    let (n, p, c) = (s.n, s.p, s.c);
    // `p` is total ranks, `c` the replication factor: the ring is `p/c`.
    if c == 0 || !p.is_multiple_of(c) {
        return Err(SimError::Algorithm(format!(
            "--c {c} must divide --p {p} for the replicated n-body layout"
        )));
    }
    input_fits(n, 7)?;
    let particles = random_particles(n, s.seed);
    let (acc, profile) = nbody_replicated(&particles, p / c, c, cfg)?;
    let verified = verify && {
        let mut serial = vec![[0.0; 3]; n];
        accumulate_forces(&particles, &particles, &mut serial);
        let close = |(a, b): (&[f64; 3], &[f64; 3])| (0..3).all(|d| (a[d] - b[d]).abs() < 1e-8);
        acc.iter().zip(&serial).all(close)
    };
    done(acc.into_flattened(), profile, verified)
}

fn fft(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    input_fits(s.n, 2)?;
    let mut rng = XorShift64::new(s.seed);
    let x: Vec<Complex64> = (0..s.n)
        .map(|_| Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
        .collect();
    let (spectrum, profile) = distributed_fft(&x, s.p, AllToAllKind::Pairwise, cfg)?;
    let close = |(a, b): (&Complex64, &Complex64)| (*a - *b).abs() < 1e-7;
    let verified = verify && spectrum.iter().zip(&psse_kernels::fft::fft(&x)).all(close);
    let output = spectrum.iter().flat_map(|z| [z.re, z.im]).collect();
    done(output, profile, verified)
}

fn matvec(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    input_fits(s.n, s.n)?;
    let a = Matrix::random(s.n, s.n, s.seed);
    let x: Vec<f64> = (0..s.n).map(|i| i as f64 * 0.5 - 1.0).collect();
    let (y, profile) = matvec_1d(&a, &x, s.p, cfg)?;
    let verified = verify
        && (0..s.n).all(|i| {
            let serial: f64 = a.row(i).iter().zip(&x).map(|(aij, xj)| aij * xj).sum();
            (y[i] - serial).abs() < 1e-8 * (1.0 + serial.abs())
        });
    done(y, profile, verified)
}

fn samplesort(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    input_fits(s.n, 1)?;
    let keys = random_keys(s.n, s.seed);
    let (sorted, profile) = sample_sort(&keys, s.p, cfg)?;
    // Bit-identical, not approximately equal: sorting permutes, it
    // never rounds.
    let verified = verify && {
        let mut reference = keys;
        sort_total(&mut reference);
        same_bits(&sorted, &reference)
    };
    done(sorted, profile, verified)
}

fn stencil(s: &Shape, cfg: SimConfig, verify: bool) -> Result<Run, SimError> {
    let (n, halo, iters) = (s.n, s.halo, s.iters);
    input_fits(n, n)?;
    let grid = random_grid(n, s.seed);
    let (out, profile) = halo_stencil(&grid, n, halo, iters, Decomp::for_grid(n, s.p), s.p, cfg)?;
    // Bit-for-bit: identical (di, dj) update order makes the distributed
    // sweep reproduce the serial one exactly.
    let verified = verify && same_bits(&out, &serial_stencil(&grid, n, halo, iters));
    done(out, profile, verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small valid `(n, p, c)` per simulator and one its layout is not
    /// defined on.
    fn shapes(name: &str) -> ((usize, usize, usize), (usize, usize, usize)) {
        match name {
            "mm25d" | MM25D_ABFT => ((16, 8, 2), (16, 8, 3)),
            "mm3d" => ((8, 8, 1), (8, 4, 1)),
            "strassen" => ((8, 7, 1), (8, 5, 1)),
            "nbody" => ((24, 4, 2), (24, 10, 3)),
            "fft" => ((64, 4, 1), (64, 3, 1)),
            "tsqr" | "matvec" | "samplesort" => ((32, 4, 1), (32, 5, 1)),
            _ => ((16, 4, 1), (16, 3, 1)),
        }
    }

    #[test]
    fn every_simulator_passes_its_reference_and_rejects_a_bad_shape() {
        let mut ran = 0;
        for e in &TABLE {
            let Some(sim) = &e.simulate else { continue };
            let ((n, p, c), (bn, bp, bc)) = shapes(e.name);
            let run = sim
                .run(&Shape::new(n, p, c, 42), SimConfig::default(), true)
                .unwrap_or_else(|err| panic!("{} at ({n}, {p}, {c}): {err}", e.name));
            assert!(!run.output.is_empty(), "{}", e.name);
            assert!(
                run.verified,
                "{}: output disagrees with its reference",
                e.name
            );
            assert_eq!(run.profile.p(), p, "{}", e.name);
            // Unasked, the reference is not computed and nothing is claimed.
            let unchecked = sim.run(&Shape::new(n, p, c, 42), SimConfig::default(), false);
            assert!(!unchecked.unwrap().verified, "{}", e.name);

            for bad in [Shape::new(bn, bp, bc, 42), Shape::new(n, 0, c, 42)] {
                let err = match sim.run(&bad, SimConfig::default(), true) {
                    Err(err) => err.to_string(),
                    Ok(_) => panic!("{} accepted {bad:?}", e.name),
                };
                assert!(!err.is_empty(), "{}", e.name);
            }
            ran += 1;
        }
        assert_eq!(ran, 16);
    }

    #[test]
    fn exact_checks_compare_bits() {
        let nan = |payload: u64| f64::from_bits(f64::NAN.to_bits() | payload);
        assert!(same_bits(&[nan(1), -0.0, 1.5], &[nan(1), -0.0, 1.5]));
        assert!(!same_bits(&[-0.0], &[0.0]));
        assert!(!same_bits(&[nan(1)], &[nan(2)]));
        assert!(!same_bits(&[1.0], &[1.0, 1.0]));
        assert!(same_bits(&[], &[]));
    }

    #[test]
    fn an_input_the_host_cannot_hold_is_an_error_naming_n() {
        // n² overflows `usize`; n²·8 overflows `isize`; neither reaches
        // the allocator.
        for n in [usize::MAX, 1 << 31] {
            let sim = simulator("matvec").unwrap();
            let err = match sim.run(&Shape::new(n, 4, 1, 42), SimConfig::default(), true) {
                Err(SimError::Algorithm(m)) => m,
                _ => panic!("n = {n} must be refused"),
            };
            assert!(err.contains("--n is too large"), "{err}");
        }
    }

    #[test]
    fn nbody_replication_must_divide_the_ranks() {
        let sim = simulator("nbody").unwrap();
        for (p, c) in [(10, 3), (4, 0)] {
            let err = match sim.run(&Shape::new(60, p, c, 42), SimConfig::default(), true) {
                Err(SimError::Algorithm(m)) => m,
                _ => panic!("p = {p}, c = {c} must be refused"),
            };
            assert_eq!(
                err,
                format!("--c {c} must divide --p {p} for the replicated n-body layout")
            );
        }
    }

    #[test]
    fn lookups_split_the_names_by_half() {
        assert_eq!(names(|e| e.simulate.is_some()).count(), 16);
        assert_eq!(names(|e| e.model.is_some()).count(), 12);
        let err = model("cannon").err().unwrap();
        assert!(
            err.starts_with("unknown model algorithm `cannon` (matmul|"),
            "{err}"
        );
        let err = simulator("fft-a2a").err().unwrap();
        assert!(
            err.starts_with("unknown simulator algorithm `fft-a2a` (cannon|"),
            "{err}"
        );
        assert!(simulator(MM25D_ABFT).is_ok());
        // Aliases price identically.
        for (a, b) in [("matmul", "mm25d"), ("fft", "fft-tree")] {
            let (ma, mb) = (model(a).unwrap(), model(b).unwrap());
            assert_eq!(ma.costs(20.0, 1, 4).name(), mb.costs(20.0, 1, 4).name());
        }
    }
}
