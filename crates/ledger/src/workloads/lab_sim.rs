//! `lab-sim-threads`: the generated `kind = simulate` sweeps on the
//! thread backend through `psse lab run --jobs 1`, no persistent cache
//! — real data through rank threads, mailboxes, collectives, fault
//! retries and the dense kernels. Each key runs `p ≤ 64` OS threads on
//! the host's cores, so transport wins show in `cpu_s` before `wall_s`.

use std::path::Path;

use psse_algos::prelude::{random_grid, random_keys, serial_stencil};
use psse_kernels::fft::{fft, fft_flops, Complex64};
use psse_kernels::gemm::{gemm_flops, matmul};
use psse_kernels::lu::{lu_flops, lu_partial_pivot_inplace};
use psse_kernels::matrix::Matrix;
use psse_kernels::nbody::{accumulate_forces, random_particles, FLOPS_PER_INTERACTION};
use psse_lab::prelude::*;
use psse_sim::prelude::*;

use crate::check::{Checks, Fnv};
use crate::gen::{lab_sim_specs, write_specs, Scale, SpecFile};
use crate::host::{median_secs, timed};
use crate::span::Tracer;
use crate::workloads::{argv, psse, LabSweep, LayerMetrics, Workload};

/// The `lab-sim-threads` workload.
pub struct LabSim {
    scale: Scale,
    specs: Vec<SpecFile>,
    sweeps: Vec<LabSweep>,
    last: Vec<Result<String, String>>,
}

impl LabSim {
    /// The workload for `seed`.
    pub fn new(seed: u64, scale: Scale) -> LabSim {
        LabSim {
            scale,
            specs: lab_sim_specs(seed, scale),
            sweeps: Vec::new(),
            last: Vec::new(),
        }
    }
}

impl Workload for LabSim {
    fn unit(&self) -> &'static str {
        "keys"
    }

    fn work_units(&self) -> u64 {
        self.specs.iter().map(|s| s.keys as u64).sum()
    }

    fn setup(&mut self, dir: &Path) -> Result<(), String> {
        let paths = write_specs(dir, &self.specs, dir)?;
        self.sweeps = self
            .specs
            .iter()
            .zip(paths)
            .map(|(spec, spec_path)| {
                let csv = dir.join(format!("{}.csv", spec.stem));
                let mut argv = argv("lab run --jobs 1 --profile off");
                for (flag, path) in [("--spec", &spec_path), ("--out", &csv)] {
                    argv.extend([flag.to_string(), path.display().to_string()]);
                }
                LabSweep {
                    spec: spec.clone(),
                    spec_path,
                    csv,
                    argv,
                    reference_csv: None,
                }
            })
            .collect();
        Ok(())
    }

    fn iterate(&mut self, tr: &mut Tracer) {
        self.last = self
            .sweeps
            .iter()
            .map(|s| tr.span("cli.lab_run", |_| psse(&s.argv)))
            .collect();
    }

    fn verify(&mut self, checks: &mut Checks) {
        // Sample sort and the stencil are verified bit for bit against
        // their serial references inside the runner: a mismatch is a
        // failed key here.
        for (s, outcome) in self.sweeps.iter_mut().zip(&self.last) {
            s.verify(outcome, checks);
        }
    }

    fn stat_digest(&mut self) -> Result<String, String> {
        let mut h = Fnv::default();
        self.sweeps.iter().try_for_each(|s| s.digest_into(&mut h))?;
        Ok(h.hex())
    }

    fn layer_probes(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<LayerMetrics, String> {
        // Mean over the traced iterations.
        let cli_s = tr.self_times().get("cli.lab_run").copied().unwrap_or(0.0)
            / tr.count("iter").max(1) as f64;
        let mut m = LayerMetrics::new();

        // The same keys straight through the runner, one span per key.
        let (mut msgs, mut words, mut flops, mut n_keys) = (0.0, 0.0, 0.0, 0usize);
        let mut all_keys = Vec::new();
        for s in &self.sweeps {
            let text = std::fs::read_to_string(&s.spec_path).map_err(|e| e.to_string())?;
            let keys = SweepSpec::parse(&text).map_err(|e| e.to_string())?.expand();
            let results: Vec<Result<RunResult, String>> = keys
                .iter()
                .map(|k| tr.span(&format!("algos.{}", k.alg), |_| execute(k)))
                .collect();
            for (k, r) in keys.iter().zip(&results) {
                let verified = r.as_ref().is_ok_and(|r| r.verified);
                let runner_verifies = matches!(k.alg.as_str(), "samplesort" | "stencil");
                checks.expect(r.is_ok() && verified == runner_verifies, || {
                    format!("{}: runner outcome {r:?}", k.label())
                });
                if let Ok(r) = r {
                    msgs += r.msgs;
                    words += r.words;
                    flops += r.flops;
                }
            }
            let same = s.reference_csv.as_deref() == Some(sweep_csv(&keys, &results).as_str());
            checks.expect(same, || {
                format!("{}: runner CSV differs from `psse lab run`", s.spec.stem)
            });
            n_keys += keys.len();
            all_keys.extend(keys);
        }
        let own = tr.self_times();
        let ms = |alg: &str| own.get(&format!("algos.{alg}")).copied().unwrap_or(0.0) * 1e3;
        let algos_ms = ms("mm25d") + ms("nbody") + ms("samplesort") + ms("stencil");
        m.extend([
            ("lab.keys", n_keys as f64, "count"),
            ("cli.residual_s", cli_s - algos_ms / 1e3, "s"),
            ("algos.mm25d_ms", ms("mm25d"), "ms"),
            ("algos.nbody_ms", ms("nbody"), "ms"),
            ("algos.samplesort_ms", ms("samplesort"), "ms"),
            ("algos.stencil_ms", ms("stencil"), "ms"),
            ("algos.msgs", msgs, "count"),
            ("algos.words", words, "count"),
            ("algos.flops", flops, "count"),
            ("algos.us_per_msg", algos_ms * 1e3 / msgs.max(1.0), "us"),
        ]);

        // The serial references the runner verifies against — host time
        // inside `execute` that is not simulation.
        let serial_s = tr.span("algos.probe_serial_ref", |_| {
            timed(|| {
                for k in &all_keys {
                    match k.alg.as_str() {
                        "samplesort" => {
                            let mut keys = random_keys(k.n as usize, k.seed);
                            keys.sort_by(|a, b| a.total_cmp(b));
                            std::hint::black_box(keys);
                        }
                        "stencil" => {
                            let grid = random_grid(k.n as usize, k.seed);
                            std::hint::black_box(serial_stencil(
                                &grid,
                                k.n as usize,
                                k.halo as usize,
                                k.iters as usize,
                            ));
                        }
                        _ => {}
                    }
                }
            })
            .1
        });
        m.push(("algos.serial_ref_ms", serial_s * 1e3, "ms"));

        tr.span("kernels.probes", |_| kernel_probes(self.scale, &mut m));
        tr.span("sim.probes", |_| {
            transport_probes(self.scale, checks, &mut m)
        })?;
        Ok(m)
    }
}

/// Dense-kernel rates against a mul-add peak measured in the same run.
fn kernel_probes(scale: Scale, m: &mut LayerMetrics) {
    let (n_small, n_big, n_fft, n_body) = match scale {
        Scale::Full => (256, 512, 65536, 2048),
        Scale::Quick => (32, 64, 1024, 128),
    };
    let gflops = |flops: u64, secs: f64| flops as f64 / secs / 1e9;

    // Host peak: 32 independent multiply-add chains, enough to fill the
    // vector pipes of one core without touching memory.
    let rounds = 20_000_000u64 / if scale == Scale::Quick { 100 } else { 1 };
    let peak_s = median_secs(3, || {
        let mut acc = [1.0f64; 32];
        let (mul, add) = (
            std::hint::black_box(0.999_999_9),
            std::hint::black_box(1e-7),
        );
        for _ in 0..rounds {
            for a in &mut acc {
                *a = *a * mul + add;
            }
        }
        std::hint::black_box(acc);
    });
    let peak = gflops(rounds * 32 * 2, peak_s);

    let gemm = |n: usize| {
        let (a, b) = (Matrix::random(n, n, 1), Matrix::random(n, n, 2));
        gflops(
            gemm_flops(n, n, n),
            median_secs(3, || drop(std::hint::black_box(matmul(&a, &b)))),
        )
    };
    let (gemm_small, gemm_big) = (gemm(n_small), gemm(n_big));
    let lu_src = Matrix::random(n_big, n_big, 3);
    let lu_s = median_secs(3, || {
        let mut a = lu_src.clone();
        drop(std::hint::black_box(lu_partial_pivot_inplace(&mut a)));
    });
    let signal: Vec<Complex64> = random_keys(n_fft, 4)
        .iter()
        .map(|&re| Complex64 { re, im: 0.0 })
        .collect();
    let fft_s = median_secs(3, || drop(std::hint::black_box(fft(&signal))));
    let bodies = random_particles(n_body, 5);
    let nbody_s = median_secs(3, || {
        let mut acc = vec![[0.0; 3]; bodies.len()];
        accumulate_forces(&bodies, &bodies, &mut acc);
        std::hint::black_box(acc);
    });
    m.extend([
        ("kernels.host_peak_gflops", peak, "GFLOP/s"),
        ("kernels.gemm_n256_gflops", gemm_small, "GFLOP/s"),
        ("kernels.gemm_n512_gflops", gemm_big, "GFLOP/s"),
        ("kernels.gemm_frac_peak", gemm_big / peak, "ratio"),
        (
            "kernels.lu_n512_gflops",
            gflops(lu_flops(n_big as u64), lu_s),
            "GFLOP/s",
        ),
        (
            "kernels.fft_n65536_gflops",
            gflops(fft_flops(n_fft as u64), fft_s),
            "GFLOP/s",
        ),
        (
            "kernels.nbody_n2048_gflops",
            gflops((n_body * n_body) as u64 * FLOPS_PER_INTERACTION, nbody_s),
            "GFLOP/s",
        ),
    ]);
}

/// Thread-transport costs with zero virtual prices (pure host work),
/// and the host-time cost of a fault plan on the same allreduce.
fn transport_probes(scale: Scale, checks: &mut Checks, m: &mut LayerMetrics) -> Result<(), String> {
    let (p_small, p_big, words) = match scale {
        Scale::Full => (64, 256, 1 << 14),
        Scale::Quick => (8, 16, 1 << 8),
    };
    let cfg = || SimConfig {
        max_message_words: 1 << 12,
        ..SimConfig::counters_only()
    };
    // Median seconds and the messages one run sends.
    fn bench<R: Send>(
        p: usize,
        cfg: SimConfig,
        f: impl Fn(&mut Rank) -> Result<R, SimError> + Sync,
    ) -> Result<(f64, Profile), String> {
        let profile = Machine::run(p, cfg.clone(), &f)
            .map_err(|e| e.to_string())?
            .profile;
        let secs = median_secs(5, || {
            drop(std::hint::black_box(Machine::run(p, cfg.clone(), &f)))
        });
        Ok((secs, profile))
    }
    let per_msg =
        |(secs, profile): &(f64, Profile)| secs * 1e6 / profile.total_msgs_sent().max(1) as f64;

    let spawn = |p| bench(p, cfg(), |rank| Ok(rank.rank())).map(|r| r.0 * 1e6);
    let ring = bench(p_small, cfg(), |rank| {
        let (me, p) = (rank.rank(), rank.size());
        let mut block = vec![me as f64; words / 8];
        for step in 0..4 {
            block = rank.sendrecv((me + 1) % p, Tag(step), block, (me + p - 1) % p, Tag(step))?;
        }
        Ok(block[0])
    })?;
    let bcast = bench(p_small, cfg(), |rank| {
        let data = (rank.rank() == 0).then(|| vec![1.5; words]);
        rank.broadcast(Tag(0), &Group::world(rank.size()), 0, data)
            .map(|v| v[0])
    })?;
    let allreduce = |p, cfg| {
        bench(p, cfg, move |rank| {
            rank.allreduce_sum(Tag(0), vec![rank.rank() as f64; words])
                .map(|v| v[0])
        })
    };
    let clean = allreduce(p_small, cfg())?;
    let clean_big = allreduce(p_big, cfg())?;
    let faulted = allreduce(
        p_small,
        SimConfig {
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: 42,
                    drop_rate: 0.05,
                    corrupt_rate: 0.02,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 24,
                    retry_backoff: 1e-8,
                    checkpoint: None,
                },
            }),
            ..cfg()
        },
    )?;
    checks.expect(faulted.1.total_retries() > 0, || {
        "transport fault plan injected nothing".into()
    });
    m.extend([
        ("sim.spawn_p64_us", spawn(p_small)?, "us"),
        ("sim.spawn_p256_us", spawn(p_big)?, "us"),
        ("sim.ring_p64_us_per_msg", per_msg(&ring), "us"),
        ("sim.bcast_p64_us_per_msg", per_msg(&bcast), "us"),
        ("sim.allreduce_p64_us_per_msg", per_msg(&clean), "us"),
        ("sim.allreduce_p256_us_per_msg", per_msg(&clean_big), "us"),
        ("faults.overhead_ratio", faulted.0 / clean.0, "ratio"),
        ("faults.retries", faulted.1.total_retries() as f64, "count"),
    ]);
    Ok(())
}
