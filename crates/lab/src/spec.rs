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
//! Unknown keys are rejected with the offending line number, and so is
//! a list no memory could hold: a range bound that is not finite, a
//! step that does not advance, or more than 2²⁰ values in a list or
//! runs in the expanded sweep.

use std::sync::Arc;

use psse_algos::table;

use crate::error::LabError;
use crate::key::{KernelModel, RunKey, RunKind};
use crate::vocab::{self, ParamError, Values, C, F, FAULT_KEYS, HALO, ITERS, SEED, TIMEOUT};

/// A parsed sweep specification. See the module docs for the text
/// format; [`SweepSpec::expand`] produces the deterministic run list.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// What every run shares: kind, algorithm (`kernel:<name>` for a
    /// kernel sweep, whose compiled model every key shares), machine,
    /// knobs, seed, faults, backend. Its grid coordinates (`n`, `p`, `c`,
    /// `mem`) are the lists' to fill.
    pub key: RunKey,
    /// Machine preset name (for summaries).
    pub machine_name: String,
    /// Problem sizes (outermost loop).
    pub n: Vec<u64>,
    /// Processor counts.
    pub p: Vec<u64>,
    /// Replication factors.
    pub c: Vec<u64>,
    /// Memories per processor, words (innermost loop). Empty ⇒ one run
    /// at the algorithm's minimal memory (`mem = 0` sentinel).
    pub mem: Vec<f64>,
    /// Per-run wall-clock budget in seconds (`timeout = 30`).
    /// `None` never cancels. Deliberately *not* part of [`RunKey`]
    /// identity: it routes into [`crate::LabConfig::timeout`], so cache
    /// digests and CSV bytes are unaffected by the budget chosen.
    pub timeout: Option<f64>,
}

/// The keys only a spec has: what to run and the grid it sweeps. The
/// rest are [`vocab::keys`].
const SPEC_KEYS: [&str; 8] = ["kind", "alg", "kernel", "backend", "n", "p", "mem", "clamp"];

/// The most values a list, and the most runs a sweep, may hold: about
/// 100× the largest sweep the repository generates, and far below what
/// would run the process out of memory before the first run.
const MAX_RUNS: usize = 1 << 20;

/// A spec's `key = value` lines, each with its line number; the last
/// line of a key wins.
struct Lines<'a>(Vec<(&'a str, usize, &'a str)>);

impl Lines<'_> {
    fn find(&self, key: &str) -> Option<(usize, &str)> {
        let mut found = self.0.iter().rev().filter(|(k, ..)| *k == key);
        found.next().map(|&(_, line, value)| (line, value))
    }

    /// `key`'s value read by `parse` (given the value and its line).
    fn with<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str, usize) -> Result<T, LabError>,
    ) -> Result<Option<T>, LabError> {
        self.find(key)
            .map(|(line, value)| parse(value, line))
            .transpose()
    }

    /// `e` at the line of the key it names.
    fn error(&self, e: ParamError) -> LabError {
        match e.key {
            Some(key) => {
                let line = self.find(&key).map_or(0, |(line, _)| line);
                LabError::spec(line, format!("`{key}` {}", e.message))
            }
            None => LabError::spec(0, e.message),
        }
    }
}

impl Values for Lines<'_> {
    fn raw(&self, key: &str) -> Option<&str> {
        self.find(key).map(|(_, value)| value)
    }
}

/// A `FromStr` value, its error at `line`.
fn from_str<T: std::str::FromStr<Err = String>>(value: &str, line: usize) -> Result<T, LabError> {
    value.parse().map_err(|e| LabError::spec(line, e))
}

/// Parse one list atom into f64 values (integer users round afterwards).
fn parse_atom(atom: &str, line: usize) -> Result<Vec<f64>, LabError> {
    let atom = atom.trim();
    let bad = |what: &str| LabError::spec(line, format!("bad {what} `{atom}`"));
    let infinite = || LabError::spec(line, format!("`{atom}`: bounds must be finite"));
    let too_long = || LabError::spec(line, format!("`{atom}` holds more than {MAX_RUNS} values"));
    if let Some(rest) = atom.strip_prefix("pow2:") {
        let (lo, hi) = rest.split_once(':').ok_or_else(|| bad("pow2 range"))?;
        let lo: f64 = lo.parse().map_err(|_| bad("pow2 range"))?;
        let hi: f64 = hi.parse().map_err(|_| bad("pow2 range"))?;
        if !(lo > 0.0 && hi >= lo) {
            return Err(bad("pow2 range"));
        }
        if !hi.is_finite() {
            return Err(infinite());
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
        if !hi.is_finite() {
            return Err(infinite());
        }
        if count > MAX_RUNS {
            return Err(too_long());
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
        if !(lo.is_finite() && hi.is_finite()) {
            return Err(infinite());
        }
        let mut out = Vec::new();
        let mut v = lo;
        while v <= hi {
            if out.len() == MAX_RUNS {
                return Err(too_long());
            }
            out.push(v);
            let next = v + step;
            if next == v {
                let why = format!("`{atom}`: a step of {step} does not advance from {v}");
                return Err(LabError::spec(line, why));
            }
            v = next;
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
        if out.len() > MAX_RUNS {
            let why = format!("the list holds more than {MAX_RUNS} values");
            return Err(LabError::spec(line, why));
        }
    }
    if out.is_empty() {
        return Err(LabError::spec(line, "empty list"));
    }
    Ok(out)
}

/// The `key` list of problem sizes or rank counts: every element
/// rounded to an integer and at least 1, so an empty world is refused
/// at its line rather than by every run it would expand to.
fn parse_count_list(key: &str, value: &str, line: usize) -> Result<Vec<u64>, LabError> {
    parse_f64_list(value, line)?
        .into_iter()
        .map(|v| {
            // Round like the benches round their log-spaced p grids.
            let r = v.round();
            if r < 1.0 {
                Err(LabError::spec(
                    line,
                    format!("`{key}` must be at least 1, got {v}"),
                ))
            } else if r > u64::MAX as f64 {
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
        let mut lines = Lines(Vec::new());
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
            if !SPEC_KEYS.contains(&key) && !vocab::keys().any(|k| k == key) {
                return Err(LabError::spec(lineno, format!("unknown key `{key}`")));
            }
            lines.0.push((key, lineno, value));
        }
        let err = |e| lines.error(e);

        let kind: RunKind = lines
            .with("kind", from_str)?
            .ok_or_else(|| LabError::spec(0, "missing `kind = model|simulate`"))?;
        let (alg, kernel) = match lines.find("kernel") {
            Some((lineno, path)) => {
                if lines.raw("alg").is_some() {
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
                // Read and compile the kernel file now: a bad path or a
                // malformed loop nest surfaces with this spec line (plus
                // the kernel's own line number) instead of failing every
                // expanded run later, and the derived model is the one
                // every key prices from.
                let text = std::fs::read_to_string(path).map_err(|e| {
                    LabError::spec(lineno, format!("cannot read kernel file `{path}`: {e}"))
                })?;
                let model = KernelModel::compile(&text)
                    .map_err(|e| LabError::spec(lineno, format!("{path}: {e}")))?;
                (
                    format!("kernel:{}", model.cost().kernel_name()),
                    Some(Arc::new(model)),
                )
            }
            None => {
                let (lineno, alg) = lines
                    .find("alg")
                    .ok_or_else(|| LabError::spec(0, "missing `alg = <algorithm>`"))?;
                // One parse error, not one failed run per expanded key.
                match kind {
                    RunKind::Model => table::model(alg).map(drop),
                    RunKind::Simulate => table::simulator(alg).map(drop),
                }
                .map_err(|e| LabError::spec(lineno, e))?;
                (alg.to_string(), None)
            }
        };
        let n = lines.with("n", |v, l| parse_count_list("n", v, l))?;
        let n = n.ok_or_else(|| LabError::spec(0, "missing `n = <sizes>`"))?;
        let p = lines.with("p", |v, l| parse_count_list("p", v, l))?;
        let p = p.ok_or_else(|| LabError::spec(0, "missing `p = <processor counts>`"))?;
        let clamp_mem = match lines.find("clamp") {
            None | Some((_, "false" | "0" | "no")) => false,
            Some((_, "true" | "1" | "yes")) => true,
            Some((lineno, value)) => {
                return Err(LabError::spec(
                    lineno,
                    format!("bad boolean `{value}` for `clamp`"),
                ))
            }
        };
        let (machine_name, machine) = vocab::machine(&lines).map_err(err)?;
        let seed = lines.get(&SEED).map_err(err)?;
        let given = FAULT_KEYS.iter().any(|k| lines.raw(k.key()).is_some());
        let faults = given.then(|| vocab::fault_plan(&lines, vocab::default_plan(seed)));
        let key = RunKey {
            kind,
            f: lines.get(&F).map_err(err)?,
            seed,
            clamp_mem,
            faults: faults.transpose().map_err(err)?,
            backend: lines.with("backend", from_str)?.unwrap_or_default(),
            kernel,
            halo: lines.get(&HALO).map_err(err)?,
            iters: lines.get(&ITERS).map_err(err)?,
            ..RunKey::model(&alg, 0, 0, machine)
        };
        let c = match lines.find(C.key) {
            None => vec![C.default],
            // Each element is an integer by `c`'s own rule, unrounded.
            Some((line, value)) => parse_f64_list(value, line)?
                .iter()
                .map(|v| C.rule.parse(C.key, &v.to_string()))
                .collect::<Result<_, _>>()
                .map_err(err)?,
        };
        let mem = lines.with("mem", parse_f64_list)?.unwrap_or_default();
        // The expansion is refused at the list that takes it past the
        // bound, before a run list is ever allocated.
        let mut runs = 1usize;
        for (list, len) in [
            ("n", n.len()),
            ("p", p.len()),
            ("c", c.len()),
            ("mem", mem.len()),
        ] {
            runs = runs.saturating_mul(len.max(1));
            if runs > MAX_RUNS {
                let line = lines.find(list).map_or(0, |(line, _)| line);
                let why = format!("`{list}` expands the sweep past {MAX_RUNS} runs");
                return Err(LabError::spec(line, why));
            }
        }
        Ok(SweepSpec {
            key,
            machine_name: machine_name.to_string(),
            n,
            p,
            c,
            mem,
            timeout: lines.get(&TIMEOUT).map_err(err)?,
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
                            n,
                            p,
                            c,
                            mem,
                            ..self.key.clone()
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
    use psse_sim::Backend;

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
        assert_eq!(spec.key.alg, "nbody");
        assert_eq!(spec.key.f, 10.0);
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
    fn replication_factors_follow_the_c_rule() {
        for bad in ["0", "1.5", "2,0", "0..2"] {
            let err = SweepSpec::parse(&format!(
                "kind = model\nalg = matmul\nn = 64\np = 4\nc = {bad}\n"
            ))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains("(line 5): `c` must be a positive integer"),
                "{bad}: {err}"
            );
        }
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
        assert_eq!(spec.key.machine.beta_e, 9e-9);
        assert_eq!(spec.key.machine.mem_words, 1e10);
    }

    #[test]
    fn fault_keys_build_a_plan() {
        let spec = SweepSpec::parse(
            "kind = simulate\nalg = mm25d-abft\nn = 32\np = 4\ndrop-rate = 0.02\nretries = 8\n",
        )
        .unwrap();
        let plan = spec.key.faults.unwrap();
        assert_eq!(plan.spec.drop_rate, 0.02);
        assert_eq!(plan.recovery.max_retries, 8);
        assert!(plan.recovery.checkpoint.is_none());
    }

    #[test]
    fn backend_key_selects_the_event_backend() {
        let spec =
            SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\nbackend = events\n")
                .unwrap();
        assert_eq!(spec.key.backend, Backend::Events);
        assert!(spec.expand().iter().all(|k| k.backend == Backend::Events));
        // Default is the thread backend; bad values are line-reported.
        let spec = SweepSpec::parse("kind = model\nalg = nbody\nn = 4\np = 2\n").unwrap();
        assert_eq!(spec.key.backend, Backend::Threads);
        let err = SweepSpec::parse("kind = model\nalg = nbody\nn = 4\np = 2\nbackend = fibers\n")
            .unwrap_err();
        assert!(err.to_string().contains("fibers"), "{err}");
    }

    #[test]
    fn timeout_key_parses_and_rejects_nonpositive() {
        let spec = SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\ntimeout = 30\n")
            .unwrap();
        assert_eq!(spec.timeout, Some(30.0));
        // Default: no time budget.
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
        assert_eq!(spec.key.alg, "kernel:mm");
        let keys = spec.expand();
        assert!(keys[0].kernel.as_ref().unwrap().text().contains("C[i,j]"));
        // Every key shares the one compiled model.
        assert!(keys.iter().all(|k| Arc::ptr_eq(
            k.kernel.as_ref().unwrap(),
            spec.key.kernel.as_ref().unwrap()
        )));

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
        assert_eq!((spec.key.halo, spec.key.iters), (2, 8));
        let keys = spec.expand();
        assert!(keys.iter().all(|k| k.halo == 2 && k.iters == 8));
        // Defaults leave old digests alone.
        let plain = SweepSpec::parse("kind = simulate\nalg = mm25d\nn = 16\np = 8\n").unwrap();
        assert_eq!(
            (plain.key.halo, plain.key.iters),
            crate::key::STENCIL_DEFAULTS
        );
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
    fn lists_no_memory_could_hold_are_refused_at_their_line() {
        for (list, why) in [
            ("p = 1..inf", "bounds must be finite"),
            (
                "p = 1e20..2e20..1",
                "does not advance from 100000000000000000000",
            ),
            ("p = 9007199254740990..9007199254741000", "does not advance"),
            ("p = pow2:1:inf", "bounds must be finite"),
            (
                "p = geom:1:2:100000000000000000",
                "holds more than 1048576 values",
            ),
            ("p = 1..2000000", "holds more than 1048576 values"),
            (
                "p = 1..1000000, 1..1000000",
                "the list holds more than 1048576",
            ),
            // `n` (line 5) alone is 10⁵ runs; `p` (line 4) takes it past.
            (
                "p = 1..100000\nn = 1..100000",
                "`p` expands the sweep past 1048576",
            ),
        ] {
            let text = format!("kind = model\nalg = nbody\nn = 4\n{list}\n");
            let err = SweepSpec::parse(&text).unwrap_err().to_string();
            assert!(err.contains("line 4") && err.contains(why), "{list}: {err}");
        }
        // At the bound itself a list and a sweep still parse.
        let text = "kind = model\nalg = nbody\nn = 1..1024\np = 1..1024\n";
        assert_eq!(SweepSpec::parse(text).unwrap().len(), MAX_RUNS);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec =
            SweepSpec::parse("\n# header\nkind = model # trailing\nalg = nbody\nn = 4\np = 2\n\n")
                .unwrap();
        assert_eq!(spec.key.kind, RunKind::Model);
    }
}
