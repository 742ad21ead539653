//! `tools-cli`: a fixed script of one-shot `psse` commands run in
//! process — `model`/`scaling`/`optimize`/`tech`/`machines`, the
//! `bound` actions over the shipped kernels, three
//! `trace record → replay → critical-path → export → flame` chains,
//! small `simulate` runs on both backends and one `faults sweep`.
//!
//! Process exec (about 3 ms per command) is constant and excluded;
//! running in process also keeps the rank-thread pool warm between
//! commands, which a shell loop over the binary would not.

use std::path::{Path, PathBuf};

use psse_algos::prelude::{matmul_25d, sim_config_from};
use psse_core::machines::jaketown;
use psse_hbl::prelude::{analyze, derive, Kernel};
use psse_kernels::matrix::Matrix;
use psse_trace::prelude::{ReplayParams, Trace};

use crate::check::{Checks, Fnv};
use crate::gen::{resolve_script, tools_script, write_kernels, Scale, KERNELS};
use crate::host::{median_secs, timed};
use crate::span::Tracer;
use crate::workloads::{argv, psse, LayerMetrics, Workload};

/// The `tools-cli` workload.
pub struct ToolsCli {
    scale: Scale,
    template: Vec<Vec<String>>,
    script: Vec<Vec<String>>,
    dir: PathBuf,
    last: Vec<Result<String, String>>,
}

impl ToolsCli {
    /// The workload for `seed`.
    pub fn new(seed: u64, scale: Scale) -> ToolsCli {
        ToolsCli {
            scale,
            template: tools_script(seed, scale),
            script: Vec::new(),
            dir: PathBuf::new(),
            last: Vec::new(),
        }
    }

    fn traces(&self) -> Vec<PathBuf> {
        ["mm25d", "nbody", "fft"]
            .iter()
            .map(|a| self.dir.join(format!("{a}.trace")))
            .collect()
    }
}

/// Span name of a command: `cli.<command>[_<action>]`.
fn span_name(argv: &[String]) -> String {
    match argv[0].as_str() {
        "trace" | "bound" | "faults" => format!("cli.{}_{}", argv[0], argv[1].replace('-', "_")),
        cmd => format!("cli.{cmd}"),
    }
}

impl Workload for ToolsCli {
    fn unit(&self) -> &'static str {
        "commands"
    }

    fn work_units(&self) -> u64 {
        self.template.len() as u64
    }

    fn setup(&mut self, dir: &Path) -> Result<(), String> {
        let kernels = write_kernels(dir)?;
        self.script = resolve_script(&self.template, &kernels, dir);
        self.dir = dir.to_path_buf();
        Ok(())
    }

    fn iterate(&mut self, tr: &mut Tracer) {
        self.last = self
            .script
            .iter()
            .map(|argv| tr.span(&span_name(argv), |_| psse(argv)))
            .collect();
    }

    fn verify(&mut self, checks: &mut Checks) {
        for (argv, outcome) in self.script.iter().zip(&self.last) {
            // Commands that verify their own numerics must say so.
            let marker = match (argv[0].as_str(), argv.get(1).map(String::as_str)) {
                ("simulate", _) => "verified against the sequential reference",
                ("trace", Some("record")) => "bit-identical to the live run",
                ("trace", Some("replay")) => "self-replay verified",
                _ => "",
            };
            let ok = outcome.as_ref().is_ok_and(|out| out.contains(marker));
            checks.expect(ok, || format!("`psse {}`: {outcome:?}", argv.join(" ")));
        }
    }

    fn stat_digest(&mut self) -> Result<String, String> {
        let mut h = Fnv::default();
        for path in self.traces() {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let trace = Trace::from_text(&text).map_err(|e| e.to_string())?;
            h.u64(trace.p as u64)
                .u64(trace.n_events() as u64)
                .u64(trace.makespan.to_bits());
        }
        Ok(h.hex())
    }

    fn layer_probes(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<LayerMetrics, String> {
        // Span-derived numbers are means over the traced iterations.
        let reps = tr.count("iter").max(1) as f64;
        let own = tr.self_times();
        let cli_s: f64 = own
            .iter()
            .filter(|(k, _)| k.starts_with("cli."))
            .map(|(_, v)| v / reps)
            .sum();
        let mut m = LayerMetrics::new();
        let mut mirrored_s = 0.0;

        // Fixed cost of entering the CLI: the cheapest command there is.
        let help = argv("machines");
        let dispatch_s = tr.span("cli.probe_dispatch", |_| {
            median_secs(200, || drop(psse(&help)))
        });
        m.push(("cli.dispatch_us", dispatch_s * 1e6, "us"));
        m.push((
            "core.optimize_ms",
            own.get("cli.optimize").copied().unwrap_or(0.0) * 1e3 / reps,
            "ms",
        ));

        // HBL: parse, lattice analysis and cost-model derivation of each
        // shipped kernel. Every `bound` command pays parse + derive.
        let (mut parse_s, mut analyze_s, mut derive_s) = (0.0, 0.0, 0.0);
        let mut derive_by_kernel = Vec::new();
        for name in KERNELS {
            let path = self.dir.join(format!("kernels/{name}.kernel"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let (kernel, this_parse_s) = tr.span("hbl.parse", |_| timed(|| Kernel::parse(&text)));
            let kernel = kernel.map_err(|e| format!("{name}: {e}"))?;
            parse_s += this_parse_s;
            // The FFT kernel declares its bound (pebbling escape hatch):
            // there is no lattice to analyze.
            if kernel.special.is_none() {
                let (analysis, s) = tr.span("hbl.analyze", |_| timed(|| analyze(&kernel)));
                checks.expect(analysis.is_ok(), || format!("analyze {name}: {analysis:?}"));
                analyze_s += s;
            }
            let (derived, s) = tr.span("hbl.derive", |_| timed(|| derive(&kernel).map(|_| ())));
            checks.expect(derived.is_ok(), || format!("derive {name}: {derived:?}"));
            derive_s += s;
            derive_by_kernel.push((name, this_parse_s + s));
        }
        for argv in self.script.iter().filter(|a| a[0] == "bound") {
            if let Some((_, s)) = derive_by_kernel
                .iter()
                .find(|(k, _)| argv[3].ends_with(&format!("{k}.kernel")))
            {
                mirrored_s += s;
            }
        }
        m.extend([
            ("hbl.parse_us", parse_s * 1e6, "us"),
            ("hbl.analyze_us", analyze_s * 1e6, "us"),
            ("hbl.derive_us", derive_s * 1e6, "us"),
        ]);

        // Trace layer over the three traces the script recorded.
        let (mut events, mut bytes) = (0usize, 0usize);
        let mut t = [0.0f64; 6]; // to_text, from_text, replay, critical, flame, chrome
        for path in self.traces() {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            bytes += text.len();
            let (trace, s) = tr.span("trace.from_text", |_| timed(|| Trace::from_text(&text)));
            let trace = trace.map_err(|e| e.to_string())?;
            t[1] += s;
            events += trace.n_events();
            let (round_trip, s) = tr.span("trace.to_text", |_| timed(|| trace.to_text()));
            checks.expect(round_trip == text, || {
                format!("{}: text round trip differs", path.display())
            });
            t[0] += s;
            let (replayed, s) = tr.span("trace.replay", |_| timed(|| trace.replay(&trace.params)));
            let identical = replayed
                .as_ref()
                .is_ok_and(|p| p.makespan.to_bits() == trace.makespan.to_bits());
            checks.expect(identical, || {
                format!("{}: self-replay makespan differs", path.display())
            });
            t[2] += s;
            let params = ReplayParams {
                beta_t: 1e-8,
                ..trace.params.clone()
            };
            t[3] += tr
                .span("trace.critical_path", |_| {
                    timed(|| drop(trace.critical_path(&params)))
                })
                .1;
            t[4] += tr
                .span("trace.flame", |_| {
                    timed(|| drop(trace.flame_folded(&params)))
                })
                .1;
            t[5] += tr
                .span("trace.chrome", |_| timed(|| drop(trace.to_chrome_json())))
                .1;
        }
        // What the CLI chain does per trace: load + self-replay + reprice
        // (replay), load + critical path, load + export, load + flame.
        mirrored_s += 4.0 * t[1] + 2.0 * t[2] + t[3] + t[4] + t[5];

        // Recording cost: the same 2.5D run with the recorder off and on.
        let (n, p) = if self.scale == Scale::Full {
            (256, 64)
        } else {
            (32, 16)
        };
        let (a, b) = (Matrix::random(n, n, 1), Matrix::random(n, n, 2));
        let run = |record: bool| {
            let mut cfg = sim_config_from(&jaketown());
            cfg.record_trace = record;
            median_secs(5, || {
                drop(std::hint::black_box(matmul_25d(&a, &b, p, 1, cfg.clone())))
            })
        };
        let (plain_s, recorded_s) = tr.span("trace.probe_record", |_| (run(false), run(true)));
        let mut cfg = sim_config_from(&jaketown());
        cfg.record_trace = true;
        let (_, profile) = matmul_25d(&a, &b, p, 1, cfg.clone()).map_err(|e| e.to_string())?;
        let live = Trace::from_run(&cfg, &profile).map_err(|e| e.to_string())?;
        let consistent = live
            .replay(&live.params)
            .is_ok_and(|r| r.makespan.to_bits() == profile.makespan.to_bits());
        checks.expect(consistent, || {
            "recorded 2.5D run does not replay to its live makespan".into()
        });

        let per_event = |secs: f64| secs * 1e9 / events.max(1) as f64;
        m.extend([
            ("trace.events", events as f64, "count"),
            ("trace.text_bytes", bytes as f64, "bytes"),
            ("trace.record_overhead_ratio", recorded_s / plain_s, "ratio"),
            ("trace.to_text_ms", t[0] * 1e3, "ms"),
            ("trace.from_text_ms", t[1] * 1e3, "ms"),
            ("trace.replay_ns_per_event", per_event(t[2]), "ns"),
            ("trace.critical_path_ms", t[3] * 1e3, "ms"),
            ("trace.flame_ms", t[4] * 1e3, "ms"),
            ("trace.chrome_ms", t[5] * 1e3, "ms"),
            // CLI time the mirrored layer calls above do not explain:
            // the simulate / faults / model commands, file I/O, text.
            ("cli.residual_s", cli_s - mirrored_s, "s"),
        ]);
        Ok(m)
    }
}
