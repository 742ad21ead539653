//! The five workloads and the interface the driver loop runs them
//! through.

use std::path::{Path, PathBuf};

use crate::check::{digest_csv, Checks, Fnv};
use crate::gen::{Scale, SpecFile};
use crate::span::Tracer;

pub mod event_mega;
pub mod lab_model;
pub mod lab_sim;
pub mod tools_cli;

/// Per-layer metrics of one traced run: `(name, value, unit)`.
pub type LayerMetrics = Vec<(&'static str, f64, &'static str)>;

/// One benchmark workload. The driver calls [`Workload::setup`], then
/// repeats `restore` (untimed) → `iterate` (timed) → `verify` (untimed).
pub trait Workload {
    /// Unit of the fixed work list (`keys`, `sim_msgs`, `commands`).
    fn unit(&self) -> &'static str;

    /// Work units one iteration completes; identical for every seed.
    fn work_units(&self) -> u64;

    /// Generate the inputs into the fresh directory `dir` and
    /// pre-populate whatever the iterations expect to find.
    fn setup(&mut self, dir: &Path) -> Result<(), String>;

    /// Untimed per-iteration restore (e.g. put a journal back).
    fn restore(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One iteration: the whole fixed work list through its user-facing
    /// entry, all output files written. With tracing on, one span per
    /// call into a layer.
    fn iterate(&mut self, tr: &mut Tracer);

    /// Untimed: check the outputs of the iteration just run.
    fn verify(&mut self, checks: &mut Checks);

    /// Digest of the simulated statistics the last iteration produced
    /// (host-time free), compared against the pin for the default seed.
    fn stat_digest(&mut self) -> Result<String, String>;

    /// Traced runs only: isolated calls into the layers this workload
    /// exercises, over the same generated inputs.
    fn layer_probes(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<LayerMetrics, String>;
}

/// Workload names, in reporting order, with the one-line rationale
/// `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "lab-model-cold",
        "16640 closed-form model keys through `psse lab run` with a fresh journal: expand, digest, journal append and CSV/Pareto emit do the work, simulators none",
    ),
    (
        "lab-model-warm",
        "the same sweeps resumed from their journals: the journal/cache layer read side, pricing and HBL derivation bypassed",
    ),
    (
        "lab-sim-threads",
        "20 simulate keys on the thread backend: rank threads, mailboxes, collectives, fault retries and dense kernels dominate, lab bookkeeping under 2 %",
    ),
    (
        "event-mega",
        "event executor at p = 10^5..10^6: calendar queue, slab mailboxes and program state machines; thread transport and lab bypassed",
    ),
    (
        "tools-cli",
        "about 55 one-shot analysis commands in process (model, bound, trace, simulate, faults): bypasses lab journal/cache and the mega-scale engine",
    ),
];

/// Build a workload by name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "lab-model-cold" => Box::new(lab_model::LabModel::new(seed, scale, lab_model::Mode::Cold)),
        "lab-model-warm" => Box::new(lab_model::LabModel::new(seed, scale, lab_model::Mode::Warm)),
        "lab-sim-threads" => Box::new(lab_sim::LabSim::new(seed, scale)),
        "event-mega" => Box::new(event_mega::EventMega::new(seed, scale)),
        "tools-cli" => Box::new(tools_cli::ToolsCli::new(seed, scale)),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload `{other}` ({})", names.join("|")));
        }
    })
}

/// One generated sweep as `psse lab run` drives it.
pub(crate) struct LabSweep {
    pub spec: SpecFile,
    pub spec_path: PathBuf,
    /// `--out` target.
    pub csv: PathBuf,
    /// Arguments of the timed `psse lab run` call, built in set-up.
    pub argv: Vec<String>,
    /// CSV bytes every later run must reproduce.
    pub reference_csv: Option<String>,
}

impl LabSweep {
    /// Count the keys `outcome` reports as failed and hold the CSV it
    /// wrote against the reference (the first CSV seen becomes it).
    pub fn verify(&mut self, outcome: &Result<String, String>, checks: &mut Checks) {
        let keys = self.spec.keys as u64;
        let failed = match outcome {
            Ok(out) => out
                .lines()
                .find(|l| l.starts_with("runs "))
                .and_then(|l| l.rsplit_once(", ")?.1.strip_suffix(" failed")?.parse().ok())
                // An unreadable summary counts as a wholly failed sweep.
                .unwrap_or(keys),
            Err(_) => keys,
        };
        checks.count(keys, failed, &self.spec.stem);
        let csv = std::fs::read_to_string(&self.csv).unwrap_or_default();
        match &self.reference_csv {
            Some(reference) => checks.expect(*reference == csv, || {
                format!(
                    "{}: CSV bytes differ from the reference run",
                    self.spec.stem
                )
            }),
            None => self.reference_csv = Some(csv),
        }
    }

    /// Fold the pinned columns of the CSV last written into `h`.
    pub fn digest_into(&self, h: &mut Fnv) -> Result<(), String> {
        let csv = std::fs::read_to_string(&self.csv).map_err(|e| e.to_string())?;
        digest_csv(h.field(&self.spec.stem), &csv)
    }
}

/// Run one `psse` command in process; `Err` carries the CLI's message.
pub(crate) fn psse(argv: &[String]) -> Result<String, String> {
    let mut out = String::new();
    psse_cli::run(argv, &mut out).map(|()| out)
}

/// Split a command line on whitespace into an argument vector.
pub(crate) fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}
