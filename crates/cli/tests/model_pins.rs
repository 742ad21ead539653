//! Bit pins for the model price: what a `kind = model` row prices for
//! every table algorithm and every shipped kernel, and what `psse
//! model`, `psse optimize` and `psse bound price` print. The digests were
//! taken on the code before the price was written once in
//! `psse_core::costs::Algorithm`, so a mismatch is a change in the
//! numbers, not in how they are reached; the assertion prints the new
//! digest.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use psse_algos::table;
use psse_core::costs::Algorithm;
use psse_core::error::CoreError;
use psse_core::machines::PRESETS;
use psse_core::optimize::EnergyOptimum;
use psse_lab::prelude::{execute, KernelModel, RunKey, RunResult};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// FNV-1a, 64-bit: a digest that is the same on every host and build.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn outcome(&mut self, r: &Result<RunResult, String>) {
        match r {
            Ok(r) => {
                self.word(r.feasible as u64);
                for x in [r.time, r.energy, r.flops, r.mem_used] {
                    self.word(x.to_bits());
                }
            }
            Err(e) => self.bytes(e.as_bytes()),
        }
    }

    fn optimum(&mut self, r: &Result<EnergyOptimum, CoreError>) {
        match r {
            Ok(o) => {
                for x in [o.m0, o.e_star, o.p_lo, o.p_hi] {
                    self.word(x.to_bits());
                }
            }
            Err(e) => self.bytes(e.to_string().as_bytes()),
        }
    }
}

/// Every `specs/kernels/*.kernel`, sorted.
fn kernel_paths() -> Vec<PathBuf> {
    let mut kernels: Vec<PathBuf> = std::fs::read_dir(repo_root().join("specs/kernels"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "kernel"))
        .collect();
    kernels.sort();
    assert_eq!(kernels.len(), 6);
    kernels
}

const NS: [u64; 5] = [1, 2, 64, 4096, 100_000];
const PS: [u64; 4] = [1, 7, 64, 4096];

/// Price `base` at every point of the grid: each preset machine, every
/// `(n, p)` of `NS × PS`, and the memory requests `mem = 0`, the band's
/// ends and geometric middle, and a factor of two below and above it —
/// each with and without `clamp`.
fn digest_grid(h: &mut Fnv, base: &RunKey, band: &dyn Fn(u64, u64) -> (f64, f64)) -> usize {
    let mut keys = 0;
    for (_, machine) in PRESETS {
        let machine = Arc::new(machine());
        for n in NS {
            for p in PS {
                let (lo, hi) = band(n, p);
                for mem in [0.0, lo, (lo * hi).sqrt(), hi, lo * 0.5, hi * 2.0] {
                    for clamp_mem in [false, true] {
                        let mut key = base.clone();
                        key.machine = machine.clone();
                        (key.n, key.p, key.mem, key.clamp_mem) = (n, p, mem, clamp_mem);
                        h.outcome(&execute(&key));
                        keys += 1;
                    }
                }
            }
        }
    }
    keys
}

#[test]
fn model_rows_are_pinned() {
    let mut h = Fnv::new();
    let mut keys = 0;
    for name in table::names(|e| e.model.is_some()) {
        let shapes: &[(f64, u64, u64)] = match name {
            "nbody" => &[(20.0, 1, 4), (10.0, 1, 4)],
            "stencil" => &[(20.0, 1, 4), (20.0, 2, 8)],
            _ => &[(20.0, 1, 4)],
        };
        for &(f, halo, iters) in shapes {
            let alg = table::model(name).unwrap().costs(f, halo, iters);
            let mut base = RunKey::model(name, 2, 1, PRESETS[0].1());
            (base.f, base.halo, base.iters) = (f, halo, iters);
            let band = |n, p| (alg.min_memory(n, p), alg.max_useful_memory(n, p));
            keys += digest_grid(&mut h, &base, &band);
        }
    }
    for path in &kernel_paths() {
        let text = std::fs::read_to_string(path).unwrap();
        let model = Arc::new(KernelModel::compile(&text).unwrap());
        let mut base = RunKey::model(
            &format!("kernel:{}", model.cost().kernel_name()),
            2,
            1,
            PRESETS[0].1(),
        );
        base.kernel = Some(model.clone());
        let cost = model.cost();
        let band = |n, p| (cost.min_memory(n, p), cost.max_useful_memory(n, p));
        keys += digest_grid(&mut h, &base, &band);
    }
    assert_eq!(keys, 19_200);
    assert_eq!(
        h.0, 0x0128_0dfd_5097_2ac3,
        "model rows moved: new digest {:#018x}",
        h.0
    );
}

/// The §V.A optimum (`M0`, `E*` and its processor band, or the refusal)
/// of every table model but `strassen` and of every shipped kernel, on
/// each preset machine at every `n` of `NS`. `strassen` is left out: its
/// Eq. 13 search is checked against the numeric argmin in `psse-core`.
#[test]
fn energy_optima_are_pinned() {
    let mut h = Fnv::new();
    let (mut optima, mut solved) = (0, 0);
    let mut digest = |alg: &dyn Algorithm| {
        for (_, machine) in PRESETS {
            let machine = machine();
            for n in NS {
                let opt = alg.energy_optimum(&machine, n);
                h.optimum(&opt);
                optima += 1;
                solved += opt.is_ok() as usize;
            }
        }
    };
    for name in table::names(|e| e.model.is_some() && e.name != "strassen") {
        let shapes: &[(f64, u64, u64)] = match name {
            "nbody" => &[(20.0, 1, 4), (10.0, 1, 4)],
            "stencil" => &[(20.0, 1, 4), (20.0, 2, 8)],
            _ => &[(20.0, 1, 4)],
        };
        for &(f, halo, iters) in shapes {
            digest(&*table::model(name).unwrap().costs(f, halo, iters));
        }
    }
    for path in &kernel_paths() {
        let text = std::fs::read_to_string(path).unwrap();
        digest(KernelModel::compile(&text).unwrap().cost());
    }
    assert_eq!((optima, solved), (19 * 20, 7 * 20));
    assert_eq!(
        h.0, 0xbda6_273d_f40e_4b4f,
        "energy optima moved: new digest {:#018x}",
        h.0
    );
}

/// The `model`, `optimize` and `bound price` lines of the ledger's
/// tools-cli script (`crates/ledger/src/gen.rs`), at every size its
/// seed can draw.
fn script_lines() -> Vec<String> {
    let kernels = repo_root().join("specs/kernels");
    let k = kernels.display();
    let mut lines = Vec::new();
    for n_dense in [4096u64, 8192, 16384] {
        lines.extend([
            format!("model --alg matmul --n {n_dense} --p 64"),
            format!("model --alg strassen --n {n_dense} --p 49"),
            format!("model --alg lu --n {n_dense} --p 64"),
            format!("model --alg matvec --n {n_dense} --p 64"),
            format!("bound price --kernel {k}/matmul.kernel --n {n_dense}"),
        ]);
    }
    for n_body in [50_000u64, 100_000, 200_000] {
        lines.extend([
            format!("model --alg nbody --n {n_body} --p 100 --mem 4096 --f 10"),
            format!("optimize --n {n_body}"),
            format!("optimize --n {n_body} --f 20 --tmax 1 --emax 1e5"),
            format!("optimize --n {n_body} --power-total 1e4 --power-proc 50"),
            format!("bound price --kernel {k}/nbody.kernel --n {n_body}"),
        ]);
    }
    for n_fft in [1u64 << 16, 1 << 18, 1 << 20] {
        lines.extend([
            format!("model --alg fft --n {n_fft} --p 64"),
            format!("model --alg samplesort --n {n_fft} --p 64"),
        ]);
    }
    lines.extend([
        "model --alg stencil --n 4096 --p 64 --halo 2 --iters 8".into(),
        "model --alg matmul --n 8192 --p 512 --mem 5e5 --beta-t 2e-9".into(),
        format!("bound price --kernel {k}/tensor.kernel --n 16 --p 64"),
    ]);
    lines
}

#[test]
fn tools_script_model_lines_are_pinned() {
    let mut h = Fnv::new();
    let mut transcript = String::new();
    for line in script_lines() {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let mut out = String::new();
        let status = psse_cli::run(&argv, &mut out);
        assert!(status.is_ok(), "{line}: {status:?}");
        let _ = writeln!(transcript, "$ {line}\n{out}");
        h.bytes(out.as_bytes());
    }
    assert_eq!(
        h.0, 0x5e42_e086_0f52_61bf,
        "stdout moved: new digest {:#018x}\n{transcript}",
        h.0
    );
}
