//! Seeded input generator: every file and value the programs under
//! test see comes from here.
//!
//! The seed perturbs *what* is computed — problem sizes drawn from
//! small same-cost sets, ladder endpoints, data and fault seeds — and
//! never *how much*: key, rank, message and command counts per
//! iteration are identical for every seed (tested below), so host time
//! is comparable across the seeds an acceptance run uses.

use std::path::{Path, PathBuf};

/// Full-size inputs, or the shrunken set the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The calibrated benchmark sizes.
    Full,
    /// Tiny sizes: same structure, same metric names, seconds not minutes.
    Quick,
}

/// splitmix64 — the generator's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; streams keep one workload's
    /// draws from shifting when another workload adds a draw.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next_u64() % items.len() as u64) as usize]
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A data/fault seed small enough to survive the spec parser's
    /// `f64` round trip exactly.
    pub fn data_seed(&mut self) -> u64 {
        self.range(1, 1 << 40)
    }
}

/// One generated lab sweep spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecFile {
    /// File stem; the spec lands in `<dir>/<stem>.spec`.
    pub stem: String,
    /// Spec text. Kernel sweeps refer to `{KERNELS}/<name>.kernel`,
    /// resolved by [`write_specs`].
    pub text: String,
    /// Number of run keys the spec expands to.
    pub keys: usize,
}

/// Where the shipped kernel files live (the generator copies them into
/// the scratch directory; the programs under test never read the repo).
pub fn shipped_kernel_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/kernels")
}

/// The shipped kernels the ledger uses, by file stem. `tensor` is
/// priced by `bound` commands only: `kernel = tensor.kernel` lab sweeps
/// panic in `clamp` at the baseline and are left out.
pub const KERNELS: [&str; 6] = ["matmul", "nbody", "fft", "samplesort", "stencil3", "tensor"];

/// Copy the shipped kernel files into `dir/kernels/`; returns that path.
pub fn write_kernels(dir: &Path) -> Result<PathBuf, String> {
    let out = dir.join("kernels");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    for name in KERNELS {
        let src = shipped_kernel_dir().join(format!("{name}.kernel"));
        let text =
            std::fs::read_to_string(&src).map_err(|e| format!("read {}: {e}", src.display()))?;
        let dst = out.join(format!("{name}.kernel"));
        std::fs::write(&dst, text).map_err(|e| format!("write {}: {e}", dst.display()))?;
    }
    Ok(out)
}

/// Write `specs` into `dir`, resolving the `{KERNELS}` placeholder to
/// `kernels`; returns the spec paths in order.
pub fn write_specs(dir: &Path, specs: &[SpecFile], kernels: &Path) -> Result<Vec<PathBuf>, String> {
    specs
        .iter()
        .map(|s| {
            let path = dir.join(format!("{}.spec", s.stem));
            let text = s.text.replace("{KERNELS}", &kernels.display().to_string());
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Table I link and energy prices, overridden per seed by up to ±10 %.
/// Prices change every priced number and no control flow: which points
/// are feasible depends on `(n, p, M)` alone, so the host work of a
/// sweep is the same for every seed.
fn perturbed_prices(rng: &mut Rng) -> String {
    const TABLE_I: [(&str, f64); 5] = [
        ("gamma-t", 2.5202e-12),
        ("beta-t", 1.56e-10),
        ("alpha-t", 6.00e-8),
        ("gamma-e", 3.78024e-10),
        ("beta-e", 3.78024e-10),
    ];
    TABLE_I
        .iter()
        .map(|(key, base)| {
            let factor = 0.9 + rng.range(0, 2000) as f64 / 10_000.0;
            format!("{key} = {:e}\n", base * factor)
        })
        .collect()
}

/// The three `kind = model` sweeps of `lab-model-cold` / `-warm`. The
/// grids are fixed; the seed moves the machine prices.
pub fn lab_model_specs(seed: u64, scale: Scale) -> Vec<SpecFile> {
    let mut rng = Rng::new(seed, 1);
    // (p points, mem points) per spec.
    let [(mp, mm), (np, nm), (kp, km)] = match scale {
        Scale::Full => [(160, 64), (80, 64), (40, 32)],
        Scale::Quick => [(16, 8), (8, 8), (4, 4)],
    };
    let mut spec = |stem: &str, body: String, keys: usize| SpecFile {
        stem: stem.into(),
        text: format!("kind = model\n{body}{}", perturbed_prices(&mut rng)),
        keys,
    };
    vec![
        spec(
            "model_matmul",
            format!("alg = matmul\nn = 8192\np = geom:4:100000:{mp}\nmem = geomf:1e3:1e9:{mm}\n"),
            mp * mm,
        ),
        spec(
            "model_nbody",
            format!(
                "alg = nbody\nn = 100000\np = geom:4:10000:{np}\nmem = geomf:1e2:1e6:{nm}\nf = 10\n"
            ),
            np * nm,
        ),
        spec(
            "model_kernel",
            format!(
                "kernel = {{KERNELS}}/matmul.kernel\nn = 8192\np = geom:4:10000:{kp}\n\
                 mem = geomf:1e3:1e9:{km}\n"
            ),
            kp * km,
        ),
    ]
}

/// The `kind = simulate` sweeps of `lab-sim-threads` (thread backend).
/// 2.5D matmul needs two files because `c = 2` is only valid on its own
/// `p` list. Sizes are fixed; the seed moves the data and fault seeds.
pub fn lab_sim_specs(seed: u64, scale: Scale) -> Vec<SpecFile> {
    let mut rng = Rng::new(seed, 2);
    let (mm_n, nb_n, ss_n, st_n, p3, p2) = match scale {
        Scale::Full => (256, 2048, "65536,262144", 256, "4,16,64", "8,32"),
        Scale::Quick => (32, 128, "1024,4096", 32, "4,16", "8"),
    };
    let count = |list: &str| list.split(',').count();
    let mut spec = |stem: &str, body: String, keys: usize| SpecFile {
        stem: stem.into(),
        text: format!(
            "kind = simulate\nbackend = threads\nseed = {}\n{body}",
            rng.data_seed()
        ),
        keys,
    };
    vec![
        spec(
            "sim_mm25d_c1",
            format!("alg = mm25d\nn = {mm_n}\np = {p3}\nc = 1\n"),
            count(p3),
        ),
        spec(
            "sim_mm25d_c2",
            format!("alg = mm25d\nn = {mm_n}\np = {p2}\nc = 2\n"),
            count(p2),
        ),
        spec(
            "sim_nbody",
            format!("alg = nbody\nn = {nb_n}\np = {p3}\nc = 1,2\n"),
            2 * count(p3),
        ),
        {
            let fault_seed = Rng::new(seed, 3).data_seed();
            spec(
                "sim_samplesort_faulted",
                format!(
                    "alg = samplesort\nn = {ss_n}\np = {p3}\nfault-seed = {fault_seed}\n\
                     drop-rate = 0.02\ncorrupt-rate = 0.01\nretries = 24\n"
                ),
                count(ss_n) * count(p3),
            )
        },
        spec(
            "sim_stencil",
            format!("alg = stencil\nn = {st_n}\nhalo = 2\niters = 8\np = {p3}\n"),
            count(p3),
        ),
    ]
}

/// One `psse_event::run_programs` call of `event-mega`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCase {
    /// `Stencil1D::counted(n = p, h = 1, iters)` — scheduled path.
    Stencil {
        /// Ranks (one grid row each).
        p: usize,
        /// Sweeps.
        iters: usize,
    },
    /// `Matmul25D::counted(q, c, b)` at `p = q²c` — scheduled path.
    Matmul25d {
        /// Grid edge.
        q: usize,
        /// Replication factor.
        c: usize,
        /// Block edge.
        b: u64,
    },
    /// `SampleSort::counted(bs)` — scheduled path, `p²` messages.
    SampleSort {
        /// Ranks.
        p: usize,
        /// Keys per rank.
        bs: usize,
    },
    /// Counted binomial allreduce under a drop+delay plan with acked
    /// retries — faults force the scheduled path.
    FaultedBinomial {
        /// Ranks.
        p: usize,
        /// Words reduced.
        words: usize,
        /// Fault-plan seed.
        fault_seed: u64,
    },
    /// Counted binomial allreduce — analytic fast path.
    FastBinomial {
        /// Ranks.
        p: usize,
        /// Words reduced.
        words: usize,
    },
    /// Counted recursive-doubling allreduce — analytic fast path.
    FastRecursiveDoubling {
        /// Ranks.
        p: usize,
        /// Words reduced.
        words: usize,
    },
    /// Counted ring allreduce — analytic fast path.
    FastRing {
        /// Ranks.
        p: usize,
        /// Words reduced.
        words: usize,
    },
}

impl EventCase {
    /// Short name used for spans and per-layer metrics.
    pub fn name(&self) -> &'static str {
        match self {
            EventCase::Stencil { .. } => "stencil",
            EventCase::Matmul25d { .. } => "mm25d",
            EventCase::SampleSort { .. } => "samplesort",
            EventCase::FaultedBinomial { .. } => "faulted",
            EventCase::FastBinomial { .. } => "fast_binomial",
            EventCase::FastRecursiveDoubling { .. } => "fast_rd",
            EventCase::FastRing { .. } => "fast_ring",
        }
    }

    /// Simulated ranks of this case.
    pub fn ranks(&self) -> usize {
        match *self {
            EventCase::Matmul25d { q, c, .. } => q * q * c,
            EventCase::Stencil { p, .. }
            | EventCase::SampleSort { p, .. }
            | EventCase::FaultedBinomial { p, .. }
            | EventCase::FastBinomial { p, .. }
            | EventCase::FastRecursiveDoubling { p, .. }
            | EventCase::FastRing { p, .. } => p,
        }
    }
}

/// Message cap (words) every `event-mega` case runs under: `2^12`, so
/// the `2^14`-word allreduce payloads split into four chunks.
pub const EVENT_MAX_MESSAGE_WORDS: usize = 1 << 12;

/// The fixed `event-mega` call list. Only the fault seed moves.
pub fn event_cases(seed: u64, scale: Scale) -> Vec<EventCase> {
    let fault_seed = Rng::new(seed, 4).data_seed();
    match scale {
        Scale::Full => vec![
            EventCase::Stencil {
                p: 100_000,
                iters: 2,
            },
            EventCase::Matmul25d { q: 64, c: 4, b: 4 },
            EventCase::SampleSort { p: 512, bs: 512 },
            EventCase::FaultedBinomial {
                p: 100_000,
                words: 1 << 14,
                fault_seed,
            },
            EventCase::FastBinomial {
                p: 1_000_000,
                words: 1 << 14,
            },
            EventCase::FastRecursiveDoubling {
                p: 1 << 17,
                words: 1 << 14,
            },
            EventCase::FastRing {
                p: 2048,
                words: 1 << 14,
            },
        ],
        Scale::Quick => vec![
            EventCase::Stencil { p: 1000, iters: 2 },
            EventCase::Matmul25d { q: 8, c: 2, b: 4 },
            EventCase::SampleSort { p: 32, bs: 32 },
            EventCase::FaultedBinomial {
                p: 1000,
                words: 1 << 14,
                fault_seed,
            },
            EventCase::FastBinomial {
                p: 10_000,
                words: 1 << 14,
            },
            EventCase::FastRecursiveDoubling {
                p: 1 << 10,
                words: 1 << 14,
            },
            EventCase::FastRing {
                p: 64,
                words: 1 << 14,
            },
        ],
    }
}

/// The `tools-cli` script: `psse` argument vectors, run in order.
/// `{KERNELS}` and `{OUT}` are placeholders for the generated kernel
/// directory and the scratch output directory.
pub fn tools_script(seed: u64, scale: Scale) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed, 5);
    // Same-cost size sets: these commands are closed-form, so `n` moves
    // the printed numbers and not the host work.
    let n_dense = rng.pick(&[4096u64, 8192, 16384]);
    let n_body = rng.pick(&[50_000u64, 100_000, 200_000]);
    let n_fft = rng.pick(&[1u64 << 16, 1 << 18, 1 << 20]);
    let ds = rng.data_seed();
    let (rec_mm, rec_nb, rec_fft, rec_p) = match scale {
        Scale::Full => (256, 2048, 65536, 64),
        Scale::Quick => (32, 128, 1024, 16),
    };
    let mut script: Vec<String> = vec![
        "machines".into(),
        format!("model --alg matmul --n {n_dense} --p 64"),
        format!("model --alg strassen --n {n_dense} --p 49"),
        format!("model --alg nbody --n {n_body} --p 100 --mem 4096 --f 10"),
        format!("model --alg fft --n {n_fft} --p 64"),
        format!("model --alg lu --n {n_dense} --p 64"),
        format!("model --alg matvec --n {n_dense} --p 64"),
        format!("model --alg samplesort --n {n_fft} --p 64"),
        "model --alg stencil --n 4096 --p 64 --halo 2 --iters 8".into(),
        "model --alg matmul --n 8192 --p 512 --mem 5e5 --beta-t 2e-9".into(),
        "scaling --alg matmul --n 8192 --mem 1e6".into(),
        "scaling --alg nbody --n 1e6 --mem 4096".into(),
        "scaling --alg strassen --n 8192 --mem 1e6".into(),
        format!("optimize --n {n_body}"),
        format!("optimize --n {n_body} --f 20 --tmax 1 --emax 1e5"),
        format!("optimize --n {n_body} --power-total 1e4 --power-proc 50"),
        "tech --target 75".into(),
    ];
    for k in KERNELS {
        script.push(format!("bound solve --kernel {{KERNELS}}/{k}.kernel"));
    }
    for k in ["matmul", "stencil3", "tensor"] {
        script.push(format!("bound explain --kernel {{KERNELS}}/{k}.kernel"));
    }
    script.extend([
        format!("bound price --kernel {{KERNELS}}/matmul.kernel --n {n_dense}"),
        format!("bound price --kernel {{KERNELS}}/nbody.kernel --n {n_body}"),
        "bound price --kernel {KERNELS}/tensor.kernel --n 16 --p 64".into(),
        "bound range --kernel {KERNELS}/matmul.kernel --n 8192 --mem 1e6".into(),
        "bound range --kernel {KERNELS}/nbody.kernel --n 1e6 --mem 4096".into(),
        "bound range --kernel {KERNELS}/fft.kernel --n 65536 --mem 1024 --csv".into(),
    ]);
    for (alg, n) in [("mm25d", rec_mm), ("nbody", rec_nb), ("fft", rec_fft)] {
        let t = format!("{{OUT}}/{alg}.trace");
        script.extend([
            format!("trace record --alg {alg} --n {n} --p {rec_p} --seed {ds} --out {t}"),
            format!("trace replay --in {t} --beta-t 1e-8"),
            format!("trace critical-path --in {t} --top 5"),
            format!("trace export --in {t} --out {t}.json"),
            format!("trace flame --in {t} --out {{OUT}}/{alg}.folded"),
        ]);
    }
    script.extend([
        format!("simulate --alg mm25d --n 64 --p 32 --c 2 --seed {ds}"),
        format!("simulate --alg mm25d --n 64 --p 32 --c 2 --seed {ds} --backend events"),
        format!("simulate --alg fft --n 1024 --p 8 --seed {ds}"),
        format!("simulate --alg nbody --n 256 --p 8 --seed {ds}"),
        format!("simulate --alg lu --n 64 --p 16 --seed {ds}"),
        format!("simulate --alg summa --n 64 --p 16 --seed {ds} --backend events"),
        format!(
            "faults sweep --q 4 --c-list 1,2 --n 64 --seed {ds} --drop-rate 0.05 \
             --corrupt-rate 0.02 --retries 24"
        ),
    ]);
    script
        .iter()
        .map(|line| line.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// Resolve the `{KERNELS}` / `{OUT}` placeholders of a script.
pub fn resolve_script(script: &[Vec<String>], kernels: &Path, out: &Path) -> Vec<Vec<String>> {
    let (k, o) = (kernels.display().to_string(), out.display().to_string());
    script
        .iter()
        .map(|argv| {
            argv.iter()
                .map(|a| a.replace("{KERNELS}", &k).replace("{OUT}", &o))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        for scale in [Scale::Full, Scale::Quick] {
            assert_eq!(lab_model_specs(7, scale), lab_model_specs(7, scale));
            assert_eq!(lab_sim_specs(7, scale), lab_sim_specs(7, scale));
            assert_eq!(event_cases(7, scale), event_cases(7, scale));
            assert_eq!(tools_script(7, scale), tools_script(7, scale));
        }
        // ... and another seed gives different ones.
        assert_ne!(
            lab_model_specs(7, Scale::Full),
            lab_model_specs(8, Scale::Full)
        );
        assert_ne!(lab_sim_specs(7, Scale::Full), lab_sim_specs(8, Scale::Full));
        assert_ne!(event_cases(7, Scale::Full), event_cases(8, Scale::Full));
        assert_ne!(tools_script(7, Scale::Full), tools_script(8, Scale::Full));
    }

    /// Key, rank, message and command counts per iteration are the same
    /// for every seed: only values move.
    #[test]
    fn counts_do_not_depend_on_the_seed() {
        use psse_lab::prelude::SweepSpec;
        let dir = std::env::temp_dir().join(format!("psse-ledger-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kernels = write_kernels(&dir).unwrap();
        let counts = |seed: u64| {
            let mut keys = Vec::new();
            for specs in [
                lab_model_specs(seed, Scale::Full),
                lab_sim_specs(seed, Scale::Full),
            ] {
                for (spec, path) in specs
                    .iter()
                    .zip(write_specs(&dir, &specs, &kernels).unwrap())
                {
                    let text = std::fs::read_to_string(path).unwrap();
                    let parsed = SweepSpec::parse(&text).unwrap();
                    assert_eq!(parsed.len(), spec.keys, "{}", spec.stem);
                    // Simulated ranks per key are part of the work too.
                    let ranks: u64 = parsed.expand().iter().map(|k| k.p).sum();
                    keys.push((
                        spec.keys,
                        if spec.stem.starts_with("sim_") {
                            ranks
                        } else {
                            0
                        },
                    ));
                }
            }
            let events: Vec<(usize, u64)> = event_cases(seed, Scale::Full)
                .iter()
                .map(|c| (c.ranks(), crate::workloads::event_mega::expected_msgs(c)))
                .collect();
            (keys, events, tools_script(seed, Scale::Full).len())
        };
        let first = counts(1);
        assert_eq!(first, counts(2));
        assert_eq!(first, counts(3));
        assert_eq!(first.0.iter().map(|k| k.0).sum::<usize>(), 16_640 + 20);
        std::fs::remove_dir_all(&dir).ok();
    }
}
