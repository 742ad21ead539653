//! Cross-checks for the HBL pipeline.
//!
//! Two property suites: (1) the exact-rational simplex against the
//! brute-force vertex enumerator on random small LPs, and (2) the full
//! pipeline from kernel text through `analyze` under symmetry —
//! renaming/reordering the loop indices and permuting the array
//! references must not move σ_HBL (the LP only sees the subscript
//! *lattice*, which these transformations map isomorphically).

use proptest::prelude::*;
use proptest::TestRng;
use psse_hbl::dsl::render_affine;
use psse_hbl::prelude::*;
use psse_hbl::simplex::{brute_force, solve, Lp};

fn rat(n: i64) -> Rational {
    Rational::int(n)
}

/// A random LP `min c·x s.t. a·x ≥ b, x ≥ 0` with small integer data
/// and `c ≥ 0` (so the objective is bounded below and the only
/// outcomes are an optimum or infeasibility — exactly what the vertex
/// enumerator can adjudicate).
fn gen_lp(rng: &mut TestRng) -> Lp {
    let nvars = 1 + rng.below(4) as usize;
    let nrows = 1 + rng.below(5) as usize;
    let c = (0..nvars).map(|_| rat(rng.below(4) as i64)).collect();
    let a = (0..nrows)
        .map(|_| {
            (0..nvars)
                .map(|_| rat(rng.below(7) as i64 - 3))
                .collect::<Vec<_>>()
        })
        .collect();
    let b = (0..nrows).map(|_| rat(rng.below(7) as i64 - 3)).collect();
    Lp { c, a, b }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Simplex and brute force agree on feasibility and, when feasible,
    /// on the exact optimal value.
    #[test]
    fn simplex_matches_brute_force(seed in 0u64..100_000) {
        let mut rng = TestRng::for_test(&format!("lp-{seed}"));
        let lp = gen_lp(&mut rng);
        match (solve(&lp), brute_force(&lp).unwrap()) {
            (Ok(s), Some((value, _))) => prop_assert_eq!(s.value, value),
            (Err(HblError::Infeasible(_)), None) => {}
            (simplex, brute) => {
                return Err(TestCaseError::fail(format!(
                    "disagreement on {lp:?}: simplex {simplex:?} vs brute {brute:?}"
                )));
            }
        }
    }
}

/// Fresh index names, enough for any generated depth.
const NAMES: [&str; 8] = ["i", "j", "k", "l", "a", "b", "u", "v"];

/// One random affine loop nest as raw subscript matrices:
/// `refs[j][row][col]` over `depth` indices.
struct RawKernel {
    depth: usize,
    refs: Vec<Vec<Vec<i64>>>,
}

fn gen_raw(rng: &mut TestRng) -> RawKernel {
    let depth = 2 + rng.below(2) as usize; // 2..=3
    let nrefs = 2 + rng.below(2) as usize; // 2..=3
    let refs = (0..nrefs)
        .map(|_| {
            let rank = 1 + rng.below(depth as u64) as usize;
            (0..rank)
                .map(|_| {
                    (0..depth)
                        .map(|_| rng.below(3) as i64 - 1) // -1..=1
                        .collect::<Vec<_>>()
                })
                .collect()
        })
        .collect();
    RawKernel { depth, refs }
}

/// Write a kernel's text from raw matrices, applying an index
/// permutation `idx_perm` (column reorder + renaming offset) and a
/// reference permutation `ref_perm`, and parse it: the first reference
/// is the statement's left side, the rest its right.
fn build(raw: &RawKernel, idx_perm: &[usize], name_off: usize, ref_perm: &[usize]) -> Kernel {
    let names: Vec<String> = (0..raw.depth)
        .map(|i| NAMES[name_off + i].to_string())
        .collect();
    let refs: Vec<String> = ref_perm
        .iter()
        .map(|&j| {
            let subs: Vec<String> = raw.refs[j]
                .iter()
                .map(|row| {
                    let permuted: Vec<i64> = idx_perm.iter().map(|&c| row[c]).collect();
                    render_affine(&permuted, &names)
                })
                .collect();
            format!("R{j}[{}]", subs.join(","))
        })
        .collect();
    let mut text = String::from("kernel = gen\n");
    for name in &names {
        text.push_str(&format!("for {name} in 0..n\n"));
    }
    text.push_str(&format!("{} += {}\n", refs[0], refs[1..].join(" * ")));
    Kernel::parse(&text).unwrap_or_else(|e| panic!("generated kernel is valid:\n{text}{e}"))
}

/// A permutation of `0..n` drawn by Fisher–Yates.
fn gen_perm(rng: &mut TestRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// σ_HBL is invariant under renaming + reordering the loop indices
    /// and permuting the array references; the optimal value of the LP
    /// only depends on the subscript lattice up to isomorphism. (The
    /// exponent *vector* is not compared — degenerate optima admit
    /// several optimal vertices and the permuted LP may surface a
    /// different one — but it must still sum to σ.)
    #[test]
    fn sigma_is_invariant_under_symmetry(seed in 0u64..100_000) {
        let mut rng = TestRng::for_test(&format!("kernel-{seed}"));
        let raw = gen_raw(&mut rng);
        let identity: Vec<usize> = (0..raw.depth).collect();
        let ref_identity: Vec<usize> = (0..raw.refs.len()).collect();
        let idx_perm = gen_perm(&mut rng, raw.depth);
        let ref_perm = gen_perm(&mut rng, raw.refs.len());
        let name_off = rng.below((NAMES.len() - raw.depth) as u64 + 1) as usize;

        let base = build(&raw, &identity, 0, &ref_identity);
        let transformed = build(&raw, &idx_perm, name_off, &ref_perm);
        match (analyze(&base), analyze(&transformed)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.sigma, b.sigma, "seed {}", seed);
                for side in [&a, &b] {
                    let total = side
                        .exponents
                        .iter()
                        .fold(Rational::int(0), |acc, &s| acc.add(s).unwrap());
                    prop_assert_eq!(total, side.sigma, "seed {}", seed);
                }
            }
            // Degenerate nests (unbounded reuse, oversized lattices)
            // must degenerate identically.
            (Err(_), Err(_)) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "seed {seed}: asymmetric outcome {a:?} vs {b:?}"
                )));
            }
        }
    }
}
