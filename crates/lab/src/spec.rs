//! Declarative sweep specs: a `key = value` text format expanded into a
//! deterministic ordered list of [`RunKey`]s.
//!
//! ```text
//! # Fig. 4-style n-body grid
//! kind    = model
//! alg     = nbody
//! machine = jaketown
//! n       = 10000
//! p       = geom:6:100:30        # 30 log-spaced points, rounded
//! mem     = geomf:1e3:1e6:30     # 30 log-spaced memories
//! f       = 10
//! ```
//!
//! List values accept comma-separated atoms; each atom is a plain
//! number, an arithmetic range `lo..hi..step`, a power-of-two range
//! `pow2:lo:hi`, or a geometric ladder `geom:lo:hi:count` (integer,
//! rounded exactly like the Fig. 4 grid: `lo·(hi/lo)^(i/(count-1))`)
//! / `geomf:lo:hi:count` (float, no rounding). Expansion order is fixed
//! and documented: `n` (outer) → `p` → `c` → `mem` (inner) — the same
//! p-outer/M-inner nesting as the existing figure benches — so the run
//! list, and therefore any CSV derived from it, is reproducible from
//! the spec text alone. Duplicate grid points are kept (they become
//! intra-sweep cache hits), again matching the benches.
//!
//! Unknown keys are rejected with the offending line number.

use std::str::FromStr;
use std::sync::Arc;

use psse_algos::table;
use psse_core::machines::{cloud_instance, cluster_node, embedded_soc, jaketown};
use psse_core::params::MachineParams;
use psse_sim::prelude::{CheckpointPolicy, FaultPlan, FaultSpec, RecoveryPolicy};
use psse_sim::Backend;

use crate::error::LabError;
use crate::key::{KernelModel, RunKey, RunKind};

/// A parsed sweep specification. See the module docs for the text
/// format; [`SweepSpec::expand`] produces the deterministic run list.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Model evaluation or simulator execution.
    pub kind: RunKind,
    /// Algorithm id, a name of [`psse_algos::table`] that has the half
    /// `kind` asks for (or `kernel:<name>` for a kernel sweep).
    pub alg: String,
    /// Machine preset name (for summaries).
    pub machine_name: String,
    /// The machine after preset + overrides.
    pub machine: MachineParams,
    /// Problem sizes (outermost loop).
    pub n: Vec<u64>,
    /// Processor counts.
    pub p: Vec<u64>,
    /// Replication factors.
    pub c: Vec<u64>,
    /// Memories per processor, words (innermost loop). Empty ⇒ one run
    /// at the algorithm's minimal memory (`mem = 0` sentinel).
    pub mem: Vec<f64>,
    /// n-body flops per interaction.
    pub f: f64,
    /// Stencil halo width (`alg = stencil`; ignored elsewhere).
    pub halo: u64,
    /// Stencil sweep count (`alg = stencil`).
    pub iters: u64,
    /// Input seed for simulator runs.
    pub seed: u64,
    /// Clamp out-of-band memories instead of flagging them infeasible.
    pub clamp_mem: bool,
    /// Fault plan applied to every run (simulator sweeps).
    pub faults: Option<FaultPlan>,
    /// Simulator backend (`backend = threads|events`, default threads).
    pub backend: Backend,
    /// Per-run wall-clock watchdog budget in seconds (`timeout = 30`).
    /// `None` never cancels. Deliberately *not* part of [`RunKey`]
    /// identity: it routes into [`crate::LabConfig::timeout`], so cache
    /// digests and CSV bytes are unaffected by the budget chosen.
    pub timeout: Option<f64>,
    /// The compiled HBL kernel (`kernel = path/to/foo.kernel`, model
    /// sweeps only, mutually exclusive with `alg`). The file is read,
    /// validated and its cost model derived once, at parse time; every
    /// expanded [`RunKey`] shares the result, and the file's *content*
    /// is what the key digests, so cache slots track edits to the file.
    pub kernel: Option<Arc<KernelModel>>,
}

const MACHINE_KEYS: [&str; 10] = [
    "gamma-t",
    "beta-t",
    "alpha-t",
    "gamma-e",
    "beta-e",
    "alpha-e",
    "delta-e",
    "epsilon-e",
    "max-message",
    "mem-words",
];

const FAULT_KEYS: [&str; 10] = [
    "fault-seed",
    "drop-rate",
    "corrupt-rate",
    "duplicate-rate",
    "delay-rate",
    "delay-seconds",
    "retries",
    "backoff",
    "checkpoint-interval",
    "checkpoint-words",
];

fn machine_preset(name: &str) -> Option<MachineParams> {
    match name {
        "jaketown" => Some(jaketown()),
        "embedded-soc" => Some(embedded_soc()),
        "cluster-node" => Some(cluster_node()),
        "cloud-instance" => Some(cloud_instance()),
        _ => None,
    }
}

/// Parse one list atom into f64 values (integer users round afterwards).
fn parse_atom(atom: &str, line: usize) -> Result<Vec<f64>, LabError> {
    let atom = atom.trim();
    let bad = |what: &str| LabError::spec(line, format!("bad {what} `{atom}`"));
    if let Some(rest) = atom.strip_prefix("pow2:") {
        let (lo, hi) = rest.split_once(':').ok_or_else(|| bad("pow2 range"))?;
        let lo: f64 = lo.parse().map_err(|_| bad("pow2 range"))?;
        let hi: f64 = hi.parse().map_err(|_| bad("pow2 range"))?;
        if !(lo > 0.0 && hi >= lo) {
            return Err(bad("pow2 range"));
        }
        let mut out = Vec::new();
        let mut v = lo;
        while v <= hi {
            out.push(v);
            v *= 2.0;
        }
        return Ok(out);
    }
    if let Some(rest) = atom.strip_prefix("geom:").or(atom.strip_prefix("geomf:")) {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 3 {
            return Err(bad("geometric ladder"));
        }
        let lo: f64 = parts[0].parse().map_err(|_| bad("geometric ladder"))?;
        let hi: f64 = parts[1].parse().map_err(|_| bad("geometric ladder"))?;
        let count: usize = parts[2].parse().map_err(|_| bad("geometric ladder"))?;
        if !(lo > 0.0 && hi >= lo && count >= 1) {
            return Err(bad("geometric ladder"));
        }
        if count == 1 {
            return Ok(vec![lo]);
        }
        // Same formula as the Fig. 4 grid: lo·(hi/lo)^(i/(count-1)).
        return Ok((0..count)
            .map(|i| lo * (hi / lo).powf(i as f64 / (count - 1) as f64))
            .collect());
    }
    if let Some((lo, rest)) = atom.split_once("..") {
        let (hi, step) = rest.split_once("..").unwrap_or((rest, "1"));
        let lo: f64 = lo.parse().map_err(|_| bad("range"))?;
        let hi: f64 = hi.parse().map_err(|_| bad("range"))?;
        let step: f64 = step.parse().map_err(|_| bad("range"))?;
        if !(step > 0.0 && hi >= lo) {
            return Err(bad("range"));
        }
        let mut out = Vec::new();
        let mut v = lo;
        while v <= hi {
            out.push(v);
            v += step;
        }
        return Ok(out);
    }
    atom.parse::<f64>()
        .map(|v| vec![v])
        .map_err(|_| bad("number"))
}

fn parse_f64_list(value: &str, line: usize) -> Result<Vec<f64>, LabError> {
    let mut out = Vec::new();
    for atom in value.split(',') {
        out.extend(parse_atom(atom, line)?);
    }
    if out.is_empty() {
        return Err(LabError::spec(line, "empty list"));
    }
    Ok(out)
}

fn parse_u64_list(value: &str, line: usize) -> Result<Vec<u64>, LabError> {
    parse_f64_list(value, line)?
        .into_iter()
        .map(|v| {
            // Round like the benches round their log-spaced p grids.
            let r = v.round();
            if r < 0.0 || r > u64::MAX as f64 {
                Err(LabError::spec(line, format!("value {v} out of u64 range")))
            } else {
                Ok(r as u64)
            }
        })
        .collect()
}

impl SweepSpec {
    /// Parse the `key = value` spec text. Unknown keys are an error.
    pub fn parse(text: &str) -> Result<SweepSpec, LabError> {
        let mut kind: Option<RunKind> = None;
        let mut alg: Option<(usize, String)> = None; // (line, id)
        let mut machine_name = String::from("jaketown");
        let mut overrides: Vec<(usize, f64)> = Vec::new(); // (MACHINE_KEYS index, value)
        let mut n = vec![];
        let mut p = vec![];
        let mut c = vec![1u64];
        let mut mem: Vec<f64> = vec![];
        let mut f = 20.0;
        let (mut halo, mut iters) = crate::key::STENCIL_DEFAULTS;
        let mut seed = 42u64;
        let mut clamp_mem = false;
        let mut backend = Backend::Threads;
        let mut timeout: Option<f64> = None;
        let mut fault_vals: Vec<(usize, f64)> = Vec::new(); // (FAULT_KEYS index, value)
        let mut kernel: Option<(usize, KernelModel)> = None; // (line, compiled file)

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            // Strip comments and blanks.
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                LabError::spec(lineno, format!("expected `key = value`, got `{line}`"))
            })?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(LabError::spec(lineno, format!("`{key}` has no value")));
            }
            let scalar = |v: &str| -> Result<f64, LabError> {
                v.parse()
                    .map_err(|_| LabError::spec(lineno, format!("bad number `{v}` for `{key}`")))
            };
            match key {
                "kind" => {
                    kind = Some(RunKind::from_str(value).map_err(|e| LabError::spec(lineno, e))?)
                }
                "alg" => alg = Some((lineno, value.to_string())),
                "kernel" => {
                    // Read and compile the kernel file now: a bad path or
                    // a malformed loop nest surfaces with this spec line
                    // (plus the kernel's own line number) instead of
                    // failing every expanded run later, and the derived
                    // model is the one every key prices from.
                    let text = std::fs::read_to_string(value).map_err(|e| {
                        LabError::spec(lineno, format!("cannot read kernel file `{value}`: {e}"))
                    })?;
                    let model = KernelModel::compile(&text)
                        .map_err(|e| LabError::spec(lineno, format!("{value}: {e}")))?;
                    kernel = Some((lineno, model));
                }
                "machine" => {
                    if machine_preset(value).is_none() {
                        return Err(LabError::spec(
                            lineno,
                            format!(
                                "unknown machine `{value}` \
                                 (jaketown|embedded-soc|cluster-node|cloud-instance)"
                            ),
                        ));
                    }
                    machine_name = value.to_string();
                }
                "backend" => {
                    backend = value
                        .parse::<Backend>()
                        .map_err(|e| LabError::spec(lineno, e))?;
                }
                "n" => n = parse_u64_list(value, lineno)?,
                "p" => p = parse_u64_list(value, lineno)?,
                "c" => c = parse_u64_list(value, lineno)?,
                "mem" => mem = parse_f64_list(value, lineno)?,
                "f" => f = scalar(value)?,
                "halo" | "iters" => {
                    let v = scalar(value)?;
                    if v < 1.0 || v.fract() != 0.0 {
                        return Err(LabError::spec(
                            lineno,
                            format!("`{key}` must be a positive integer, got `{value}`"),
                        ));
                    }
                    if key == "halo" {
                        halo = v as u64;
                    } else {
                        iters = v as u64;
                    }
                }
                "seed" => seed = scalar(value)? as u64,
                "timeout" => {
                    let v = scalar(value)?;
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(LabError::spec(
                            lineno,
                            format!(
                                "`timeout` must be a positive number of seconds, got `{value}`"
                            ),
                        ));
                    }
                    timeout = Some(v);
                }
                "clamp" => {
                    clamp_mem = match value {
                        "true" | "1" | "yes" => true,
                        "false" | "0" | "no" => false,
                        _ => {
                            return Err(LabError::spec(
                                lineno,
                                format!("bad boolean `{value}` for `clamp`"),
                            ));
                        }
                    }
                }
                _ => {
                    if let Some(idx) = MACHINE_KEYS.iter().position(|k| *k == key) {
                        overrides.push((idx, scalar(value)?));
                    } else if let Some(idx) = FAULT_KEYS.iter().position(|k| *k == key) {
                        fault_vals.push((idx, scalar(value)?));
                    } else {
                        return Err(LabError::spec(lineno, format!("unknown key `{key}`")));
                    }
                }
            }
        }

        let kind = kind.ok_or_else(|| LabError::spec(0, "missing `kind = model|simulate`"))?;
        let (alg, kernel) = match kernel {
            Some((lineno, model)) => {
                if alg.is_some() {
                    return Err(LabError::spec(
                        lineno,
                        "`kernel` and `alg` are mutually exclusive",
                    ));
                }
                if kind != RunKind::Model {
                    return Err(LabError::spec(
                        lineno,
                        "`kernel` sweeps are model-only (kind = model)",
                    ));
                }
                (
                    format!("kernel:{}", model.cost().kernel_name()),
                    Some(Arc::new(model)),
                )
            }
            None => {
                let (lineno, alg) =
                    alg.ok_or_else(|| LabError::spec(0, "missing `alg = <algorithm>`"))?;
                // One parse error, not one failed run per expanded key.
                match kind {
                    RunKind::Model => table::model(&alg).map(drop),
                    RunKind::Simulate => table::simulator(&alg).map(drop),
                }
                .map_err(|e| LabError::spec(lineno, e))?;
                (alg, None)
            }
        };
        if n.is_empty() {
            return Err(LabError::spec(0, "missing `n = <sizes>`"));
        }
        if p.is_empty() {
            return Err(LabError::spec(0, "missing `p = <processor counts>`"));
        }

        let mut machine = machine_preset(&machine_name).expect("validated above");
        for (idx, v) in overrides {
            match idx {
                0 => machine.gamma_t = v,
                1 => machine.beta_t = v,
                2 => machine.alpha_t = v,
                3 => machine.gamma_e = v,
                4 => machine.beta_e = v,
                5 => machine.alpha_e = v,
                6 => machine.delta_e = v,
                7 => machine.epsilon_e = v,
                8 => machine.max_message_words = v,
                _ => machine.mem_words = v,
            }
        }
        machine
            .validate()
            .map_err(|e| LabError::spec(0, format!("invalid machine after overrides: {e}")))?;

        let faults = if fault_vals.is_empty() {
            None
        } else {
            let get = |name: &str, default: f64| -> f64 {
                let idx = FAULT_KEYS.iter().position(|k| *k == name).unwrap();
                fault_vals
                    .iter()
                    .rev()
                    .find(|(i, _)| *i == idx)
                    .map(|(_, v)| *v)
                    .unwrap_or(default)
            };
            let interval = get("checkpoint-interval", 0.0);
            let plan = FaultPlan {
                spec: FaultSpec {
                    seed: get("fault-seed", seed as f64) as u64,
                    drop_rate: get("drop-rate", 0.0),
                    corrupt_rate: get("corrupt-rate", 0.0),
                    duplicate_rate: get("duplicate-rate", 0.0),
                    delay_rate: get("delay-rate", 0.0),
                    delay_seconds: get("delay-seconds", 0.0),
                    crashes: Vec::new(),
                },
                recovery: RecoveryPolicy {
                    max_retries: get("retries", 16.0) as u32,
                    retry_backoff: get("backoff", 0.0),
                    checkpoint: if interval > 0.0 {
                        Some(CheckpointPolicy {
                            interval,
                            words: get("checkpoint-words", 0.0) as u64,
                            restart_seconds: 0.0,
                        })
                    } else {
                        None
                    },
                },
            };
            plan.validate()
                .map_err(|e| LabError::spec(0, format!("bad fault plan: {e}")))?;
            Some(plan)
        };

        Ok(SweepSpec {
            kind,
            alg,
            machine_name,
            machine,
            n,
            p,
            c,
            mem,
            f,
            halo,
            iters,
            seed,
            clamp_mem,
            faults,
            backend,
            timeout,
            kernel,
        })
    }

    /// Number of runs [`SweepSpec::expand`] will produce.
    pub fn len(&self) -> usize {
        self.n.len() * self.p.len() * self.c.len() * self.mem.len().max(1)
    }

    /// Whether the spec expands to zero runs (it cannot, post-parse).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand into the deterministic ordered run list:
    /// `n` (outer) → `p` → `c` → `mem` (inner).
    pub fn expand(&self) -> Vec<RunKey> {
        let mems: &[f64] = if self.mem.is_empty() {
            &[0.0]
        } else {
            &self.mem
        };
        let mut keys = Vec::with_capacity(self.len());
        for &n in &self.n {
            for &p in &self.p {
                for &c in &self.c {
                    for &mem in mems {
                        keys.push(RunKey {
                            kind: self.kind,
                            alg: self.alg.clone(),
                            n,
                            p,
                            c,
                            mem,
                            f: self.f,
                            seed: self.seed,
                            clamp_mem: self.clamp_mem,
                            machine: self.machine.clone(),
                            faults: self.faults.clone(),
                            backend: self.backend,
                            kernel: self.kernel.clone(),
                            halo: self.halo,
                            iters: self.iters,
                        });
                    }
                }
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
        # n-body model grid\n\
        kind = model\n\
        alg  = nbody\n\
        n    = 10000\n\
        p    = geom:6:100:4\n\
        mem  = geomf:1e3:1e6:3\n\
        f    = 10\n";

    #[test]
    fn parses_and_expands_in_document_order() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        assert_eq!(spec.alg, "nbody");
        assert_eq!(spec.f, 10.0);
        assert_eq!(spec.len(), 12);
        let keys = spec.expand();
        assert_eq!(keys.len(), 12);
        // p outer, mem inner.
        assert_eq!(keys[0].p, keys[1].p);
        assert_ne!(keys[0].mem, keys[1].mem);
        assert_ne!(keys[2].p, keys[3].p);
        // Geometric p grid rounds like the benches.
        assert_eq!(keys[0].p, 6);
        assert_eq!(keys[11].p, 100);
    }

    #[test]
    fn geom_matches_bench_formula() {
        let spec = SweepSpec::parse(
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:30\nmem = 1000\n",
        )
        .unwrap();
        for (pi, key) in spec.expand().iter().enumerate() {
            let expect = (6.0 * (100.0f64 / 6.0).powf(pi as f64 / 29.0)).round() as u64;
            assert_eq!(key.p, expect);
        }
    }

    #[test]
    fn pow2_and_ranges_expand() {
        let spec =
            SweepSpec::parse("kind = model\nalg = matmul\nn = 256\np = pow2:4:64\nc = 1..3\n")
                .unwrap();
        assert_eq!(spec.p, [4, 8, 16, 32, 64]);
        assert_eq!(spec.c, [1, 2, 3]);
        assert!(spec.mem.is_empty());
        assert_eq!(spec.expand()[0].mem, 0.0); // minimal-memory sentinel
    }

    #[test]
    fn unknown_keys_and_machines_are_rejected_with_line() {
        let err =
            SweepSpec::parse("kind = model\nalg = nbody\nn = 4\np = 2\nbogus = 1\n").unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
        assert!(err.to_string().contains("bogus"));
        let err = SweepSpec::parse("kind = model\nalg = nbody\nn = 4\np = 2\nmachine = pdp11\n")
            .unwrap_err();
        assert!(err.to_string().contains("pdp11"));
    }

    #[test]
    fn missing_required_keys_are_reported() {
        assert!(SweepSpec::parse("alg = nbody\nn = 4\np = 2\n")
            .unwrap_err()
            .to_string()
            .contains("kind"));
        assert!(SweepSpec::parse("kind = model\nn = 4\np = 2\n")
            .unwrap_err()
            .to_string()
            .contains("alg"));
        assert!(SweepSpec::parse("kind = model\nalg = nbody\np = 2\n")
            .unwrap_err()
            .to_string()
            .contains("`n"));
    }

    #[test]
    fn machine_overrides_apply() {
        let spec = SweepSpec::parse(
            "kind = model\nalg = nbody\nn = 4\np = 2\nbeta-e = 9e-9\nmem-words = 1e10\n",
        )
        .unwrap();
        assert_eq!(spec.machine.beta_e, 9e-9);
        assert_eq!(spec.machine.mem_words, 1e10);
    }

    #[test]
    fn fault_keys_build_a_plan() {
        let spec = SweepSpec::parse(
            "kind = simulate\nalg = mm25d-abft\nn = 32\np = 4\ndrop-rate = 0.02\nretries = 8\n",
        )
        .unwrap();
        let plan = spec.faults.unwrap();
        assert_eq!(plan.spec.drop_rate, 0.02);
        assert_eq!(plan.recovery.max_retries, 8);
        assert!(plan.recovery.checkpoint.is_none());
    }

    #[test]
    fn backend_key_selects_the_event_backend() {
        let spec =
            SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\nbackend = events\n")
                .unwrap();
        assert_eq!(spec.backend, Backend::Events);
        assert!(spec.expand().iter().all(|k| k.backend == Backend::Events));
        // Default is the thread backend; bad values are line-reported.
        let spec = SweepSpec::parse("kind = model\nalg = nbody\nn = 4\np = 2\n").unwrap();
        assert_eq!(spec.backend, Backend::Threads);
        let err = SweepSpec::parse("kind = model\nalg = nbody\nn = 4\np = 2\nbackend = fibers\n")
            .unwrap_err();
        assert!(err.to_string().contains("fibers"), "{err}");
    }

    #[test]
    fn timeout_key_parses_and_rejects_nonpositive() {
        let spec = SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\ntimeout = 30\n")
            .unwrap();
        assert_eq!(spec.timeout, Some(30.0));
        // Default: no watchdog.
        let spec = SweepSpec::parse("kind = model\nalg = nbody\nn = 4\np = 2\n").unwrap();
        assert_eq!(spec.timeout, None);
        for bad in ["0", "-1", "nan", "inf"] {
            let err = SweepSpec::parse(&format!(
                "kind = model\nalg = nbody\nn = 4\np = 2\ntimeout = {bad}\n"
            ))
            .unwrap_err();
            assert!(err.to_string().contains("timeout"), "{bad}: {err}");
        }
        // The budget never perturbs run identity.
        let with = SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\ntimeout = 30\n")
            .unwrap();
        let without = SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\n").unwrap();
        let (kw, ko) = (with.expand(), without.expand());
        assert_eq!(
            kw.iter().map(|k| k.digest()).collect::<Vec<_>>(),
            ko.iter().map(|k| k.digest()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn kernel_key_reads_the_file_and_names_the_alg() {
        let dir = std::env::temp_dir().join(format!("psse-spec-kernel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mm.kernel");
        std::fs::write(
            &path,
            "kernel = mm\nfor i in 0..n\nfor j in 0..n\nfor k in 0..n\nC[i,j] += A[i,k] * B[k,j]\n",
        )
        .unwrap();
        let spec = SweepSpec::parse(&format!(
            "kind = model\nkernel = {}\nn = 256\np = 4\n",
            path.display()
        ))
        .unwrap();
        assert_eq!(spec.alg, "kernel:mm");
        let keys = spec.expand();
        assert!(keys[0].kernel.as_ref().unwrap().text().contains("C[i,j]"));
        // Every key shares the one compiled model.
        assert!(keys
            .iter()
            .all(|k| Arc::ptr_eq(k.kernel.as_ref().unwrap(), spec.kernel.as_ref().unwrap())));

        // `kernel` and `alg` are mutually exclusive, and model-only.
        let err = SweepSpec::parse(&format!(
            "kind = model\nalg = matmul\nkernel = {}\nn = 4\np = 2\n",
            path.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let err = SweepSpec::parse(&format!(
            "kind = simulate\nkernel = {}\nn = 4\np = 2\n",
            path.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("model-only"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kernel_key_failures_carry_the_spec_line() {
        // Missing file: the spec line is named.
        let err = SweepSpec::parse("kind = model\nkernel = /nonexistent/x.kernel\nn = 4\np = 2\n")
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("/nonexistent/x.kernel"), "{err}");
        // Malformed kernel: both the spec line and the kernel's own
        // line number survive into the message.
        let dir = std::env::temp_dir().join(format!("psse-spec-badkernel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.kernel");
        std::fs::write(&path, "kernel = bad\nfor i in 0..n\nC[q] += A[i]\n").unwrap();
        let err = SweepSpec::parse(&format!(
            "kind = model\nkernel = {}\nn = 4\np = 2\n",
            path.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("line 3"), "kernel line: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stencil_keys_parse_and_reach_the_run_keys() {
        let spec = SweepSpec::parse(
            "kind = simulate\nalg = stencil\nn = 64\np = 4\nhalo = 2\niters = 8\n",
        )
        .unwrap();
        assert_eq!((spec.halo, spec.iters), (2, 8));
        let keys = spec.expand();
        assert!(keys.iter().all(|k| k.halo == 2 && k.iters == 8));
        // Defaults leave old digests alone.
        let plain = SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\n").unwrap();
        assert_eq!((plain.halo, plain.iters), crate::key::STENCIL_DEFAULTS);
        // Zero or fractional values are line-reported errors.
        for bad in ["halo = 0", "iters = 2.5"] {
            let err = SweepSpec::parse(&format!(
                "kind = simulate\nalg = stencil\nn = 64\np = 4\n{bad}\n"
            ))
            .unwrap_err();
            assert!(err.to_string().contains("line 5"), "{bad}: {err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec =
            SweepSpec::parse("\n# header\nkind = model # trailing\nalg = nbody\nn = 4\np = 2\n\n")
                .unwrap();
        assert_eq!(spec.kind, RunKind::Model);
    }
}
