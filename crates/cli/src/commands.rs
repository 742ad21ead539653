//! Subcommand implementations.

use crate::args::Args;
use psse_algos::prelude::{measure, sim_config_from};
use psse_algos::table::{self, Shape};
use psse_core::bounds::ScalingRange;
use psse_core::costs::{Algorithm, DirectNBody};
use psse_core::machines::{jaketown, table2};
use psse_core::optimize::numeric::argmin_energy_memory;
use psse_core::optimize::{EnergyOptimum, RunConfig};
use psse_core::params::{MachineParams, OVERRIDES};
use psse_core::summary::{self, Measured};
use psse_core::tech_scaling::{fig6_series, multiplier_for_target, CaseStudy};
use psse_hbl::prelude::{derive, Derived, Family, Kernel, KernelCost};
use psse_lab::prelude::{
    detect_scaling_range, fsck_dir, gc_dir, write_pareto_csv, write_sweep_csv, ExpandedSweep,
    GcConfig, Journal, Lab, LabConfig, RunKey, SweepSpec,
};
use psse_lab::vocab::{
    self, Values, C, CHECKPOINT_WORDS, F, HALO, INTEGER, ITERS, NUMBER, POSITIVE, POSITIVE_INTEGER,
    SECONDS, SEED, TIMEOUT,
};
use psse_metrics::num::{push_f64_debug, push_u64};
use psse_sim::machine::{Backend, SimConfig};
use psse_sim::profile::Profile;
use psse_trace::{ReplayParams, Trace};
use std::collections::HashMap;
use std::fmt::Write as _;

type CmdResult = Result<(), String>;

fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if (1e-3..1e6).contains(&x.abs()) {
        format!("{x:.4}")
    } else {
        format!("{x:.4e}")
    }
}

/// Resolve `--alg` (with `--f`, `--halo`, `--iters`) through the
/// algorithm table, so `psse model` and a `kind = model` spec accept
/// the same ids.
fn algorithm_from(args: &Args) -> Result<Box<dyn Algorithm>, String> {
    let (f, halo, iters) = (args.get(&F)?, args.get(&HALO)?, args.get(&ITERS)?);
    Ok(table::model(args.req("alg")?)?.costs(f, halo, iters))
}

/// `--n` of the range and optimisation commands: below two elements
/// every closed form degenerates to `0` or `0/0`.
fn problem_size(args: &Args) -> Result<u64, String> {
    let n = args.req_u64("n")?;
    if n < 2 {
        return Err(format!("--n must be at least 2, got {n}"));
    }
    Ok(n)
}

/// `--mem` as a fixed per-processor memory. The range endpoints divide
/// by it: anything else prints `inf`, `NaN` or a negative `p`.
fn fixed_memory(args: &Args) -> Result<f64, String> {
    Ok(POSITIVE.parse("mem", args.req("mem")?)?)
}

/// The `[p_min, p_max]` block of `scaling` and `bound range`. A band
/// whose ends cross (more memory than the replicated problem can use) is
/// empty, not a range with a headroom below one.
fn print_range(out: &mut String, name: &str, range: Option<ScalingRange>) {
    match range {
        Some(r) if r.p_min > r.p_max => {
            let _ = writeln!(
                out,
                "{name}: no perfect strong scaling range exists at this n and M: \
                 p_min = {} > p_max = {}.",
                fmt(r.p_min),
                fmt(r.p_max)
            );
        }
        Some(r) => {
            let _ = writeln!(out, "p_min = {}  (one copy of the data)", fmt(r.p_min));
            let _ = writeln!(out, "p_max = {}  (replication saturates)", fmt(r.p_max));
            let _ = writeln!(
                out,
                "headroom = {}x: scale processors by that factor for the same\n\
                 energy and proportionally less time.",
                fmt(r.headroom())
            );
        }
        None => {
            let _ = writeln!(
                out,
                "{name}: no perfect strong scaling range exists (see paper §IV)."
            );
        }
    }
}

pub fn machines(_: &Args, out: &mut String) -> CmdResult {
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>6} {:>5} {:>8} {:>14} {:>12} {:>12} {:>9}",
        "processor",
        "freq(GHz)",
        "cores",
        "SIMD",
        "TDP(W)",
        "peak(GFLOP/s)",
        "gamma_t",
        "gamma_e",
        "GFLOPS/W"
    );
    for s in table2() {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>6} {:>5} {:>8} {:>14.2} {:>12.3e} {:>12.3e} {:>9.3}",
            s.name,
            s.freq_ghz,
            s.cores,
            s.simd_width,
            s.tdp_w,
            s.peak_gflops(),
            s.gamma_t(),
            s.gamma_e(),
            s.gflops_per_watt()
        );
    }
    Ok(())
}

pub fn model(args: &Args, out: &mut String) -> CmdResult {
    let (mname, mp) = vocab::machine(args)?;
    let alg = algorithm_from(args)?;
    let n = args.req_u64("n")?;
    let p = args.req_u64("p")?;
    let mem = args.value("mem", NUMBER)?;
    let mem = mem.unwrap_or_else(|| alg.min_memory(n, p));
    let costs = alg.costs(n, p, mem, &mp).map_err(|e| e.to_string())?;
    let cfg = alg.evaluate(&mp, n, p, mem).map_err(|e| e.to_string())?;
    let m = priced(Measured {
        time: cfg.time,
        energy: cfg.energy,
        power: cfg.energy / cfg.time,
    })?;
    let _ = writeln!(out, "algorithm : {}", alg.name());
    let _ = writeln!(out, "machine   : {mname}");
    let _ = writeln!(out, "n = {n}, p = {p}, M = {} words/processor", fmt(mem));
    let _ = writeln!(
        out,
        "per-processor F = {}, W = {}, S = {}",
        fmt(costs.flops),
        fmt(costs.words),
        fmt(costs.messages)
    );
    let _ = writeln!(out, "runtime  T = {} s   (Eq. 1)", fmt(m.time));
    let _ = writeln!(out, "energy   E = {} J   (Eq. 2)", fmt(m.energy));
    let _ = writeln!(out, "power    P = {} W", fmt(m.power));
    let _ = writeln!(
        out,
        "efficiency = {} GFLOPS/W",
        fmt(alg.total_flops(n) / m.energy / 1e9)
    );
    Ok(())
}

pub fn scaling(args: &Args, out: &mut String) -> CmdResult {
    let alg = algorithm_from(args)?;
    let n = problem_size(args)?;
    let mem = fixed_memory(args)?;
    let range = alg.strong_scaling_range(n, mem);
    if range.is_some() {
        let _ = writeln!(out, "algorithm : {}", alg.name());
        let _ = writeln!(out, "n = {n}, M = {} words/processor (fixed)", fmt(mem));
    }
    print_range(out, alg.name(), range);
    Ok(())
}

/// `m`, or an error naming the prices when finite prices priced `T`,
/// `E` or `P` to infinity or NaN.
fn priced(m: Measured) -> Result<Measured, String> {
    m.finite().map_err(|e| e.to_string())
}

/// `x`, or an error naming the prices when it is not finite.
fn finite(quantity: &'static str, x: f64) -> Result<f64, String> {
    summary::finite(quantity, x).map_err(|e| e.to_string())
}

/// `cfg` when its `T` and `E` are finite.
fn finite_run(cfg: RunConfig) -> Result<RunConfig, String> {
    finite("T", cfg.time)?;
    finite("E", cfg.energy)?;
    Ok(cfg)
}

/// The `M0`/`E*` lines of `optimize` and `bound price`. The band where
/// `M0` is feasible is empty for a problem smaller than `M0`'s own
/// footprint (n-body: `n < M0`); `E*` is then a bound no run attains,
/// and the band's endpoints are not printed as a range. Returns whether
/// it is attainable; a quantity that is not finite is an error, and
/// nothing is printed.
fn print_optimum(out: &mut String, n: u64, opt: &EnergyOptimum) -> Result<bool, String> {
    finite("M0", opt.m0)?;
    finite("E*", opt.e_star)?;
    finite("p_min", opt.p_lo)?;
    finite("p_max", opt.p_hi)?;
    let _ = writeln!(
        out,
        "M0 = {} words/processor (energy-optimal, any p)",
        fmt(opt.m0)
    );
    let attainable = opt.p_lo <= opt.p_hi;
    let _ = if attainable {
        writeln!(
            out,
            "E* = {} J, attainable for p in [{}, {}]",
            fmt(opt.e_star),
            fmt(opt.p_lo),
            fmt(opt.p_hi)
        )
    } else {
        writeln!(
            out,
            "E* = {} J is not attainable at n = {n}: M0 exceeds the whole problem",
            fmt(opt.e_star)
        )
    };
    Ok(attainable)
}

/// §V answers a continuous relaxation; its optimum is a run only for
/// `1 ≤ p ≤ n²` (at least one processor, at least one word on each —
/// the 2-D boundary `M = n/√p` ends at `M = 1`). The reason when it is
/// not.
fn not_a_run(cfg: &RunConfig, n: u64) -> Option<String> {
    let nf = n as f64;
    if cfg.p < 1.0 {
        Some(format!("infeasible, it needs p = {} < 1", fmt(cfg.p)))
    } else if cfg.p > nf * nf {
        // A `p` past what an f64 holds is not printed.
        let p = match cfg.p.is_finite() {
            true => format!("p = {}", fmt(cfg.p)),
            false => "p".into(),
        };
        Some(format!(
            "infeasible, it needs {p} > n^2 (under one word per processor)"
        ))
    } else {
        None
    }
}

/// `--key`'s target (`--tmax`, `--emax`): a number above 0, `inf` for
/// none, refused by name before anything is printed.
fn target(args: &Args, key: &str) -> Result<Option<f64>, String> {
    match args.value(key, NUMBER)? {
        Some(x) if x.is_nan() || x <= 0.0 => Err(format!(
            "--{key} must be a number above 0 (inf: none), got `{}`",
            args.raw(key).unwrap_or_default()
        )),
        x => Ok(x),
    }
}

pub fn optimize(args: &Args, out: &mut String) -> CmdResult {
    let (mname, mp) = vocab::machine(args)?;
    let n = problem_size(args)?;
    let f = args.get(&F)?;
    // Refused before anything is printed.
    let tmax = target(args, "tmax")?;
    let emax = target(args, "emax")?;
    let power_total: Option<f64> = args.value("power-total", POSITIVE)?;
    let power_proc: Option<f64> = args.value("power-proc", POSITIVE)?;
    let _ = writeln!(out, "n-body optimization on `{mname}` (n = {n}, f = {f})");
    let nbody = DirectNBody {
        flops_per_interaction: f,
    };
    let price = |p: u64, mem: f64| nbody.evaluate(&mp, n, p, mem).map_err(|e| e.to_string());
    match nbody.energy_optimum(&mp, n) {
        Ok(optimum) => {
            if !print_optimum(out, n, &optimum)? {
                // Energy still falls with M below M0, and one processor
                // holding the whole problem is all the memory it can use.
                let cfg = finite_run(price(1, n as f64)?)?;
                let _ = writeln!(
                    out,
                    "feasible minimum: E = {} J at p = 1, M = {} (T = {} s)",
                    fmt(cfg.energy),
                    fmt(cfg.mem),
                    fmt(cfg.time)
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "no interior optimum: {e}");
        }
    }
    // The fastest run there is: the end of the 2-D boundary (p = n²,
    // M = n/√p = 1).
    let p_end = n.saturating_mul(n);
    let end = || price(p_end, n as f64 / (p_end as f64).sqrt());
    if let Some(tmax) = tmax {
        let cfg = nbody
            .min_energy_given_tmax(&mp, n, tmax)
            .map_err(|e| e.to_string())?;
        // A deadline the boundary's end misses needs p > n², which can
        // be past what an f64 holds: no run, not an overflow. (An end
        // whose own T overflows leaves the blame on the prices.)
        let missed = |t: f64| t > tmax && t.is_finite();
        let why = match not_a_run(&cfg, n) {
            Some(why) if missed(end()?.time) => Some(why),
            _ => not_a_run(&finite_run(cfg)?, n),
        };
        let _ = match why {
            Some(why) => writeln!(out, "cheapest run within Tmax = {} s: {why}", fmt(tmax)),
            None => writeln!(
                out,
                "cheapest run within Tmax = {} s: E = {} J at p = {}, M = {}",
                fmt(tmax),
                fmt(cfg.energy),
                fmt(cfg.p),
                fmt(cfg.mem)
            ),
        };
    }
    if let Some(emax) = emax {
        let mut cfg = nbody
            .min_time_given_emax(&mp, n, emax)
            .map_err(|e| e.to_string())?;
        // §V.C solves its quadratic on the 2-D boundary wherever the
        // root falls. Past the boundary's end the budget is not what
        // limits the run: the fastest one is the end itself, if it fits.
        let mut note = "";
        if cfg.p > p_end as f64 {
            let end = end()?;
            if end.energy <= emax {
                cfg = end;
                note = " (the 2-D boundary ends here: the budget is not binding)";
            }
        }
        let cfg = finite_run(cfg)?;
        let _ = match not_a_run(&cfg, n) {
            Some(why) => writeln!(out, "fastest run within Emax = {} J: {why}", fmt(emax)),
            None => writeln!(
                out,
                "fastest run within Emax = {} J: T = {} s at p = {}, M = {}{note}",
                fmt(emax),
                fmt(cfg.time),
                fmt(cfg.p),
                fmt(cfg.mem)
            ),
        };
    }
    if let Some(power_total) = power_total {
        let m0 = nbody.m0(&mp);
        if let Ok(p_max) = m0.and_then(|m0| nbody.max_p_given_total_power(&mp, power_total, m0)) {
            let _ = writeln!(
                out,
                "total power {} W at M0 allows p <= {}",
                fmt(power_total),
                fmt(p_max)
            );
        }
    }
    if let Some(power_proc) = power_proc {
        match nbody.max_memory_given_proc_power(&mp, power_proc) {
            Ok(m) => {
                let _ = writeln!(
                    out,
                    "per-processor power {} W caps memory at M <= {}",
                    fmt(power_proc),
                    fmt(m)
                );
            }
            Err(e) => {
                let _ = writeln!(out, "per-processor power {} W: {e}", fmt(power_proc));
            }
        }
    }
    if let Ok(g) = nbody.gflops_per_watt_at_optimum(&mp) {
        let _ = writeln!(
            out,
            "best-case efficiency: {} GFLOPS/W (size-independent)",
            fmt(g)
        );
    }
    Ok(())
}

/// Run the algorithm selected by `--alg` on the virtual machine `mp`
/// with `--backend` (default threads), returning the run's config, its
/// profile and whether the numerics matched the sequential reference.
/// Shared by `simulate` and `trace record`.
fn run_algorithm(
    args: &Args,
    mp: &MachineParams,
    record_trace: bool,
) -> Result<(SimConfig, Profile, bool), String> {
    let mut cfg = sim_config_from(mp);
    cfg.backend = args.raw("backend").unwrap_or("threads").parse()?;
    cfg.record_trace = record_trace;
    let sim = table::simulator(args.req("alg")?)?;
    // An empty problem would "verify" against an empty reference.
    let n = POSITIVE_INTEGER.parse("n", args.req("n")?)? as usize;
    let p = args.u64_or("p", 4)? as usize;
    let c = args.get(&C)? as usize;
    let mut shape = Shape::new(n, p, c, args.get(&SEED)?);
    shape.panel = args.value("panel", INTEGER)?.map(|w: u64| w as usize);
    if let Some(cols) = args.value("cols", POSITIVE_INTEGER)? {
        shape.cols = cols as usize;
    }
    shape.halo = args.get(&HALO)? as usize;
    shape.iters = args.get(&ITERS)? as usize;
    let run = sim
        .run(&shape, cfg.clone(), true)
        .map_err(|e| e.to_string())?;
    Ok((cfg, run.profile, run.verified))
}

/// The executor a command runs for `--backend`: every simulator row of
/// the algorithm table calls `Machine::run`, which does not read it.
fn executor(backend: Backend) -> &'static str {
    match backend {
        Backend::Threads => "threads",
        Backend::Events => "threads (--backend events: no event route for this command yet)",
    }
}

pub fn simulate(args: &Args, out: &mut String) -> CmdResult {
    let (mname, mp) = vocab::machine(args)?;
    let (cfg, profile, verified) = run_algorithm(args, &mp, false)?;
    let alg = args.req("alg")?;
    let m = priced(measure(&profile, &mp))?;
    let _ = writeln!(
        out,
        "algorithm : {alg} on {} ranks (machine `{mname}`)",
        profile.p()
    );
    let _ = writeln!(out, "backend   : {}", executor(cfg.backend));
    let _ = writeln!(
        out,
        "numerics  : {}",
        if verified {
            "verified against the sequential reference"
        } else {
            "MISMATCH vs sequential reference!"
        }
    );
    let _ = writeln!(out, "measured runtime  T = {} s (virtual)", fmt(m.time));
    let _ = writeln!(
        out,
        "measured energy   E = {} J (Eq. 2 over counters)",
        fmt(m.energy)
    );
    let _ = writeln!(
        out,
        "critical path     F = {}, W = {}, S = {}",
        profile.max_flops(),
        profile.max_words_sent(),
        profile.max_msgs_sent()
    );
    let _ = writeln!(
        out,
        "peak memory/rank  M = {} words",
        profile.max_mem_peak()
    );
    if !verified {
        return Err("numerical verification failed".into());
    }
    Ok(())
}

pub fn tech(args: &Args, out: &mut String) -> CmdResult {
    let (_, mp) = vocab::machine(args)?;
    let target = args.value("target", POSITIVE)?.unwrap_or(75.0);
    let study = CaseStudy::default();
    let base = study.gflops_per_watt(&mp);
    let _ = writeln!(
        out,
        "case study: 2.5D matmul, n = {}, p = {}",
        study.n, study.p
    );
    let _ = writeln!(out, "today: {} GFLOPS/W", fmt(base));
    match multiplier_for_target(&mp, study, target) {
        Some(k) => {
            let _ = writeln!(
                out,
                "target {} GFLOPS/W: improve all energy parameters {}x \
                 (~{:.2} generations at one halving per generation)",
                fmt(target),
                fmt(k),
                k.log2()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "target {} GFLOPS/W unreachable by energy scaling alone",
                fmt(target)
            );
        }
    }
    let _ = writeln!(out, "\nper-parameter sensitivity (halving per generation):");
    let rows = fig6_series(&mp, study, 5);
    let last = rows.last().unwrap();
    for (param, eff) in &last.per_param {
        let _ = writeln!(
            out,
            "  {:>9} alone, 5 generations: {} GFLOPS/W",
            param.symbol(),
            fmt(*eff)
        );
    }
    let _ = writeln!(
        out,
        "  all three, 5 generations: {} GFLOPS/W",
        fmt(last.together)
    );
    Ok(())
}

pub fn trace_record(args: &Args, out: &mut String) -> CmdResult {
    let (mname, mp) = vocab::machine(args)?;
    let (cfg, profile, verified) = run_algorithm(args, &mp, true)?;
    let alg = args.req("alg")?;
    if !verified {
        return Err("numerical verification failed; not saving the trace".into());
    }
    let trace = Trace::from_run(&cfg, &profile).map_err(|e| e.to_string())?;
    trace
        .check_consistency(&profile)
        .map_err(|e| e.to_string())?;
    let path = args
        .raw("out")
        .map_or_else(|| format!("{alg}.trace"), str::to_string);
    trace.save(&path).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "recorded {alg} on {} ranks (machine `{mname}`)",
        trace.p
    );
    let _ = writeln!(out, "events    : {}", trace.n_events());
    let _ = writeln!(out, "makespan  : {} s (virtual)", fmt(trace.makespan));
    let _ = writeln!(out, "replay    : verified (bit-identical to the live run)");
    let _ = writeln!(out, "saved to  : {path}");
    Ok(())
}

pub fn trace_replay(args: &Args, out: &mut String) -> CmdResult {
    let trace = Trace::load(args.req("in")?).map_err(|e| e.to_string())?;
    // Self-replay under the recorded parameters must reproduce the
    // recorded makespan exactly.
    let self_prof = trace.replay(&trace.params).map_err(|e| e.to_string())?;
    if self_prof.makespan.to_bits() != trace.makespan.to_bits() {
        return Err(format!(
            "self-replay makespan {} differs from recorded {}",
            self_prof.makespan, trace.makespan
        ));
    }
    let (mname, mp) = vocab::machine(args)?;
    let m = priced(trace.reprice(&mp).map_err(|e| e.to_string())?)?;
    let _ = writeln!(
        out,
        "trace     : {} ranks, {} events",
        trace.p,
        trace.n_events()
    );
    let _ = writeln!(
        out,
        "recorded  : T = {} s (self-replay verified)",
        fmt(trace.makespan)
    );
    let _ = writeln!(out, "re-priced on `{mname}`:");
    let _ = writeln!(out, "  runtime T = {} s   (Eq. 1 per event)", fmt(m.time));
    let _ = writeln!(out, "  energy  E = {} J   (Eq. 2)", fmt(m.energy));
    let _ = writeln!(out, "  power   P = {} W", fmt(m.power));
    Ok(())
}

pub fn trace_critical_path(args: &Args, out: &mut String) -> CmdResult {
    let trace = Trace::load(args.req("in")?).map_err(|e| e.to_string())?;
    let rep = trace
        .critical_path(&trace.params)
        .map_err(|e| e.to_string())?;
    let k = args.u64_or("top", 5)? as usize;
    let _ = writeln!(out, "makespan  : {} s", fmt(rep.makespan));
    let _ = writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>12}",
        "rank", "compute(s)", "comm(s)", "idle(s)"
    );
    for b in &rep.breakdown {
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>12}",
            b.rank,
            fmt(b.compute),
            fmt(b.comm),
            fmt(b.idle)
        );
    }
    let _ = writeln!(
        out,
        "critical path: {} segments totalling {} s",
        rep.path.len(),
        fmt(rep.path_total())
    );
    for seg in rep.top_segments(k) {
        let _ = writeln!(
            out,
            "  rank {:>3}  {:<12} [{} .. {}]  {} s",
            seg.rank,
            seg.label,
            fmt(seg.t_start),
            fmt(seg.t_end),
            fmt(seg.duration())
        );
    }
    Ok(())
}

pub fn trace_export(args: &Args, out: &mut String) -> CmdResult {
    let input = args.req("in")?;
    let trace = Trace::load(input).map_err(|e| e.to_string())?;
    let path = args
        .raw("out")
        .map_or_else(|| format!("{input}.json"), str::to_string);
    std::fs::write(&path, trace.to_chrome_json()).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "wrote Chrome trace-event JSON for {} ranks ({} events) to {path}",
        trace.p,
        trace.n_events()
    );
    let _ = writeln!(
        out,
        "load it at https://ui.perfetto.dev or chrome://tracing"
    );
    Ok(())
}

/// `psse trace flame`: fold the recorded DAG into collapsed-stack
/// format. With no `--out` the output is *only* the folded lines, so
/// `psse trace flame --in run.trace | flamegraph.pl` works unmodified;
/// with `--out` the lines go to the file and a summary is printed.
/// Replay-parameter overrides re-price the fold without re-running.
pub fn trace_flame(args: &Args, out: &mut String) -> CmdResult {
    // A replay chunks messages in whole words.
    for o in OVERRIDES.iter().filter(|o| o.schedule && o.unit == "words") {
        args.value(o.key, INTEGER)?;
    }
    let trace = Trace::load(args.req("in")?).map_err(|e| e.to_string())?;
    // The recorded prices, overridden as any machine is; only the
    // schedule prices are accepted, and the energy ones are never read.
    let recorded = &trace.params;
    let mut machine = jaketown();
    let m = &mut machine;
    (m.gamma_t, m.beta_t, m.alpha_t) = (recorded.gamma_t, recorded.beta_t, recorded.alpha_t);
    m.max_message_words = recorded.max_message_words as f64;
    vocab::override_machine(args, &mut machine)?;
    let params = ReplayParams {
        hierarchy: recorded.hierarchy.clone(),
        ..ReplayParams::from(&machine)
    };
    let folded = trace.flame_folded(&params).map_err(|e| e.to_string())?;
    match args.raw("out") {
        Some(path) => {
            std::fs::write(path, &folded).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "wrote {} collapsed stacks for {} ranks to {path}",
                folded.lines().count(),
                trace.p
            );
            let _ = writeln!(
                out,
                "render with flamegraph.pl/inferno, or load in speedscope"
            );
        }
        None => out.push_str(&folded),
    }
    Ok(())
}

/// `psse faults sweep`: 2.5D matmul across replication factors with and
/// without an injected fault plan, the measured resilience-energy
/// overhead against its Eq. 2 term.
pub fn faults_sweep(args: &Args, out: &mut String) -> CmdResult {
    use psse_core::optimize::resilience::{daly_optimal_interval, resilience_energy};
    use psse_sim::prelude::CheckpointPolicy;

    let (mname, mp) = vocab::machine(args)?;
    let backend: Backend = args.raw("backend").unwrap_or("threads").parse()?;
    let n = args.value("n", POSITIVE_INTEGER)?.unwrap_or(32u64) as usize;
    let q = args.value("q", POSITIVE_INTEGER)?.unwrap_or(4u64) as usize;
    // Each factor by `c`'s rule, as a spec's `c` list is read.
    let c_list = args.raw("c-list").unwrap_or("1,2,4").split(',');
    let c_list: Vec<usize> = c_list
        .map(|s| C.rule.parse("c-list", s.trim()).map(|c| c as usize))
        .collect::<Result<_, _>>()?;
    let seed = args.get(&SEED)?;
    // The sweep's own defaults under the flags: a sweep that names no
    // plan still injects drops and corruptions, and a checkpoint saves a
    // rank's `(n/q)²` block.
    let block = ((n / q) * (n / q)) as u64;
    let words = args.value(CHECKPOINT_WORDS.key, CHECKPOINT_WORDS.rule)?;
    let words = words.unwrap_or(block);
    let mut plan = vocab::default_plan(seed);
    (plan.spec.drop_rate, plan.spec.corrupt_rate) = (0.02, 0.01);
    plan.recovery.checkpoint = Some(CheckpointPolicy {
        interval: 0.0,
        words,
        restart_seconds: args.value("restart", SECONDS)?.unwrap_or(0.0),
    });
    let plan = vocab::fault_plan(args, plan)?;
    let mtbf = args.value("mtbf", POSITIVE)?;

    let _ = writeln!(
        out,
        "fault sweep: 2.5D matmul, n = {n}, q = {q}, machine `{mname}`, seed {seed}, backend {}",
        executor(backend)
    );
    let _ =
        writeln!(
        out,
        "plan: drop {:.3}, corrupt {:.3}, duplicate {:.3}, delay {:.3}, retries {}, checkpoint {}",
        plan.spec.drop_rate,
        plan.spec.corrupt_rate,
        plan.spec.duplicate_rate,
        plan.spec.delay_rate,
        plan.recovery.max_retries,
        if plan.recovery.checkpoint.is_some() { "on" } else { "off" }
    );
    if let Some(mtbf) = mtbf {
        // Advisory: the Daly-optimal interval for a checkpoint whose
        // write time follows from the policy's word count at this
        // machine's link prices.
        let delta = mp.alpha_t + mp.beta_t * words as f64;
        let tau = daly_optimal_interval(delta, mtbf).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "daly: checkpoint write δ = {} s, MTBF = {} s → optimal interval τ* = {} s",
            fmt(delta),
            fmt(mtbf),
            fmt(tau)
        );
    }
    let _ = writeln!(
        out,
        "{:>3} {:>5} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
        "c", "p", "E_free(J)", "E_fault(J)", "overhead(J)", "model(J)", "retries", "ckpt_words"
    );

    // Route the sweep through the lab engine: each c contributes a
    // fault-free and a faulted key; the pool parallelises across c and
    // the content-addressed cache dedups repeat invocations.
    let lab = Lab::new(LabConfig {
        jobs: args.u64_or("jobs", 0)? as usize,
        ..LabConfig::default()
    });
    let mut keys = Vec::new();
    let plan = std::sync::Arc::new(plan);
    for &c in &c_list {
        let p = q * q * c;
        for faults in [None, Some(plan.clone())] {
            let mut k = RunKey::simulate(table::MM25D_ABFT, n as u64, p as u64, mp.clone());
            k.c = c as u64;
            k.seed = seed;
            k.faults = faults;
            k.backend = backend;
            keys.push(k);
        }
    }
    let results = lab.run_keys(&keys);

    let mut csv = String::from(
        "c,p,t_free_s,t_fault_s,e_free_j,e_fault_j,overhead_j,model_j,retries,checkpoint_words,resilience_words\n",
    );
    for (i, &c) in c_list.iter().enumerate() {
        let p = q * q * c;
        let r_free = results[2 * i]
            .as_ref()
            .map_err(|e| format!("c = {c} fault-free run: {e}"))?;
        let r_fault = results[2 * i + 1]
            .as_ref()
            .map_err(|e| format!("c = {c} faulted run: {e}"))?;
        if r_fault.output_digest != r_free.output_digest {
            return Err(format!(
                "c = {c}: faulted run numerics differ from fault-free (retry should resend identical data)"
            ));
        }

        let overhead = r_fault.energy - r_free.energy;
        let model = resilience_energy(
            &mp,
            r_fault.resilience_words as f64,
            r_fault.resilience_msgs as f64,
            r_fault.time - r_free.time,
            p as f64,
            r_fault.mem_used,
        );
        // Resilience costs exactly its Eq. 2 term: retransmissions and
        // checkpoints advance W and S, lost time runs under standby power.
        if (overhead - model).abs() > 1e-9 * overhead.abs() {
            return Err(format!(
                "c = {c}: measured overhead {overhead} J is not the Eq. 2 resilience term {model} J"
            ));
        }
        let retries = r_fault.retries;
        let ckpt_words = r_fault.checkpoint_words;
        let _ = writeln!(
            out,
            "{:>3} {:>5} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
            c,
            p,
            fmt(r_free.energy),
            fmt(r_fault.energy),
            fmt(overhead),
            fmt(model),
            retries,
            ckpt_words
        );
        push_u64(&mut csv, c as u64);
        csv.push(',');
        push_u64(&mut csv, p as u64);
        for v in [
            r_free.time,
            r_fault.time,
            r_free.energy,
            r_fault.energy,
            overhead,
            model,
        ] {
            csv.push(',');
            push_f64_debug(&mut csv, v);
        }
        for v in [retries, ckpt_words, r_fault.resilience_words] {
            csv.push(',');
            push_u64(&mut csv, v);
        }
        csv.push('\n');
    }
    let _ = writeln!(
        out,
        "numerics  : all faulted runs identical to fault-free (retry + ABFT verified)"
    );
    if let Some(path) = args.raw("out") {
        std::fs::write(path, &csv).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote CSV to {path}");
    }
    Ok(())
}

/// Read and parse the `--spec` file.
fn lab_spec_from(args: &Args) -> Result<(SweepSpec, String), String> {
    let path = args.req("spec")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read --spec {path}: {e}"))?;
    let spec = SweepSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((spec, path.to_string()))
}

pub fn lab_run(args: &Args, out: &mut String) -> CmdResult {
    let (spec, path) = lab_spec_from(args)?;
    // `--cache DIR` persists results under DIR; `off` (or omitting the
    // flag) keeps nothing between runs.
    let cache_dir = args.raw("cache").filter(|&dir| dir != "off");
    let cache_dir = cache_dir.map(std::path::PathBuf::from);
    // Time budget: `--timeout S` overrides the spec's `timeout`
    // key. The budget never enters run identity, so cache digests and
    // CSV bytes are independent of it.
    let timeout = args.get(&TIMEOUT)?.or(spec.timeout);
    let mut lab = Lab::new(LabConfig {
        jobs: args.u64_or("jobs", 0)? as usize,
        cache_dir,
        timeout: timeout.map(std::time::Duration::from_secs_f64),
    });
    // One expansion and one digest per key for the whole command: the
    // same digests identify the sweep to its journal and each run to
    // the cache and the journal.
    let expanded = ExpandedSweep::new(spec.expand());
    // `--journal FILE` appends one checksummed line per finished run;
    // `--resume` replays completed runs from it (skipping their
    // execution) before continuing the sweep.
    let mut replayed_runs = 0usize;
    let journal_path = args.raw("journal");
    if let Some(jp) = journal_path.map(std::path::Path::new) {
        let sd = expanded.spec_digest();
        let journal = if args.has("resume") {
            let (journal, replayed) = Journal::open_resume(jp, &sd)?;
            replayed_runs = replayed.len();
            lab.seed(&replayed);
            journal
        } else {
            Journal::create(jp, &sd)?
        };
        lab.set_journal(journal);
    } else if args.has("resume") {
        return Err("--resume requires --journal FILE".into());
    }
    // Self-profile destination: `--profile off` disables it, `--profile
    // FILE` overrides it, and by default the JSON lands next to the
    // sweep CSV (`<out>.profile.json`) or, with no `--out`, in the
    // working directory as `<spec stem>.profile.json`.
    let profile_path = match args.raw("profile") {
        Some("off") => None,
        Some(p) => Some(p.to_string()),
        None => Some(match args.raw("out") {
            Some(o) => format!("{o}.profile.json"),
            None => {
                // A spec that was read is a file, so it has a stem.
                let stem = std::path::Path::new(&path).file_stem().unwrap_or_default();
                format!("{}.profile.json", stem.to_string_lossy())
            }
        }),
    };
    let _ = writeln!(
        out,
        "spec      : {path} ({} {} runs, alg `{}`, machine `{}`)",
        spec.len(),
        spec.key.kind.as_str(),
        spec.key.alg,
        spec.machine_name
    );
    let _ = writeln!(out, "jobs      : {}", lab.jobs());
    if let Some(jp) = journal_path {
        let _ = writeln!(out, "journal   : {jp} ({replayed_runs} runs replayed)");
    }
    let (sweep, profile) = if profile_path.is_some() {
        let (sweep, profile) = lab.run_sweep_profiled(expanded);
        (sweep, Some(profile))
    } else {
        (lab.run_sweep(expanded), None)
    };
    // The command runs one sweep, so the engine, and with it the
    // journal's set of appended digests, is dropped before the outputs
    // are written.
    let appended = lab.journal().map(Journal::appended);
    drop(lab);
    let (feasible, infeasible) = sweep.feasibility();
    let _ = writeln!(
        out,
        "runs      : {} ok ({feasible} feasible, {infeasible} infeasible), {} failed",
        sweep.results.len() - sweep.failures(),
        sweep.failures()
    );
    for (key, res) in sweep.keys.iter().zip(&sweep.results) {
        if let Err(e) = res {
            let _ = writeln!(out, "  failed  : {}: {e}", key.label());
        }
    }
    // Counters live in the summary only — the CSV bytes stay a pure
    // function of the spec, independent of cache temperature.
    let s = sweep.stats;
    let _ = writeln!(
        out,
        "cache     : hits={} misses={} evictions={} hit_rate={:.1}% corrupt={} quarantined={}",
        s.hits,
        s.misses,
        s.evictions,
        s.hit_rate(),
        s.corrupt,
        s.quarantined,
    );
    if let Some(appended) = appended {
        let _ = writeln!(out, "appended  : {appended} journal lines");
    }
    if args.has("scaling") {
        lab_scaling_report(&sweep, out);
    }
    // Each CSV is streamed into its file, one fixed-size chunk at a time.
    let create = |p: &str| std::fs::File::create(p).map_err(|e| e.to_string());
    if let Some(p) = args.raw("out") {
        write_sweep_csv(create(p)?, &sweep.keys, &sweep.results).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote sweep CSV to {p}");
    }
    if let Some(p) = args.raw("pareto") {
        write_pareto_csv(create(p)?, &sweep.keys, &sweep.results).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote Pareto CSV to {p}");
    }
    if let (Some(path), Some(profile)) = (&profile_path, &profile) {
        let _ = write!(out, "{}", profile.render());
        std::fs::write(path, profile.to_json().to_string()).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote self-profile JSON to {path}");
    }
    // Failures surface as a nonzero exit *after* every requested output
    // is written: completed work is never discarded, and the journal
    // holds the successes for a `--resume` retry.
    if sweep.failures() > 0 {
        let failed: Vec<String> = sweep
            .keys
            .iter()
            .zip(&sweep.results)
            .filter(|(_, r)| r.is_err())
            .map(|(k, _)| k.label())
            .collect();
        return Err(format!(
            "{} of {} runs failed: {}",
            failed.len(),
            sweep.results.len(),
            failed.join("; ")
        ));
    }
    Ok(())
}

/// `psse lab fsck`: offline verification of a persistent cache
/// directory — every record's checksum is re-checked and corrupt
/// records are moved (never deleted) into `quarantine/`.
pub fn lab_fsck(args: &Args, out: &mut String) -> CmdResult {
    let dir = args.req("cache")?;
    let dry_run = args.has("dry-run");
    let report = fsck_dir(std::path::Path::new(dir), dry_run)?;
    let verb = if dry_run {
        "would quarantine"
    } else {
        "quarantined"
    };
    let _ = writeln!(out, "cache     : {dir}");
    let _ = writeln!(
        out,
        "records   : {} scanned, {} ok, {} corrupt ({} {verb})",
        report.scanned, report.ok, report.corrupt, report.quarantined
    );
    let _ = writeln!(
        out,
        "quarantine: {} records held from earlier incidents",
        report.previously_quarantined
    );
    if report.corrupt > 0 {
        return Err(format!(
            "{} corrupt record(s) in {dir} ({verb})",
            report.corrupt
        ));
    }
    Ok(())
}

/// `psse lab gc`: size/age-bounded eviction over a persistent cache
/// directory, oldest records first.
pub fn lab_gc(args: &Args, out: &mut String) -> CmdResult {
    let dir = args.req("cache")?;
    let cfg = GcConfig {
        max_bytes: args.value("max-bytes", INTEGER)?,
        max_age_secs: args.value("max-age", INTEGER)?,
        dry_run: args.has("dry-run"),
    };
    let report = gc_dir(std::path::Path::new(dir), &cfg).map_err(|e| e.to_string())?;
    let verb = if cfg.dry_run {
        "would evict"
    } else {
        "evicted"
    };
    let _ = writeln!(out, "cache     : {dir}");
    let _ = writeln!(
        out,
        "records   : {} scanned, {} {verb}",
        report.scanned, report.evicted
    );
    let _ = writeln!(
        out,
        "bytes     : {} before, {} after",
        report.bytes_before, report.bytes_after
    );
    let _ = writeln!(
        out,
        "quarantine: {} records ({} bytes), never evicted",
        report.quarantined, report.quarantined_bytes
    );
    Ok(())
}

/// Per-(n, c, M) perfect-strong-scaling detection over the feasible
/// samples of a sweep (paper §III: T ∝ 1/p at constant E). One pass
/// groups the samples by ladder, in the order ladders first appear.
fn lab_scaling_report(sweep: &psse_lab::SweepResults, out: &mut String) {
    /// `n`, the bits of `M`, and the feasible `(p, T, E)` samples.
    type Ladder = (u64, u64, Vec<(u64, f64, f64)>);
    let mut ladder_of: HashMap<(u64, u64, u64), usize> = HashMap::new();
    let mut ladders: Vec<Ladder> = Vec::new();
    for (key, r) in sweep.keys.iter().zip(&sweep.results) {
        let mem_bits = key.mem.to_bits();
        let at = *ladder_of
            .entry((key.n, key.c, mem_bits))
            .or_insert_with(|| {
                ladders.push((key.n, mem_bits, Vec::new()));
                ladders.len() - 1
            });
        if let Ok(r) = r {
            if r.feasible {
                ladders[at].2.push((key.p, r.time, r.energy));
            }
        }
    }
    for (n, mem_bits, mut samples) in ladders {
        samples.sort_by_key(|&(p, _, _)| p);
        samples.dedup_by_key(|&mut (p, _, _)| p);
        let label = format!("n = {n}, M = {}", fmt(f64::from_bits(mem_bits)));
        match detect_scaling_range(&samples, 1e-9) {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "scaling   : {label}: perfect strong scaling for p ∈ [{}, {}]",
                    r.p_min, r.p_max
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "scaling   : {label}: no perfect-strong-scaling range detected"
                );
            }
        }
    }
}

/// Read, parse and derive the `--kernel` file. Parse errors carry the
/// offending line number, prefixed with the path (`foo.kernel: line 3:
/// ...`) so editors can jump to it.
fn kernel_from(args: &Args) -> Result<(Kernel, KernelCost, Derived), String> {
    let path = args.req("kernel")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read --kernel {path}: {e}"))?;
    let kernel = Kernel::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (cost, derived) = derive(&kernel).map_err(|e| format!("{path}: {e}"))?;
    Ok((kernel, cost, derived))
}

fn family_str(f: Family) -> &'static str {
    match f {
        Family::Matmul25 => "matmul (2.5D closed form)",
        Family::NBody => "n-body (replicated closed form)",
        Family::Pebbling => "fft (pebbling bound)",
        Family::Generic => "generic (Eq. 1/2 pricing)",
    }
}

pub fn bound_solve(args: &Args, out: &mut String) -> CmdResult {
    let (kernel, cost, derived) = kernel_from(args)?;
    match derived {
        Derived::Pebbling => {
            let _ = writeln!(
                out,
                "kernel    : {} (bound = fft-pebbling escape hatch)",
                kernel.name
            );
            let _ = writeln!(out, "family    : {}", family_str(cost.family()));
            let _ = writeln!(
                out,
                "bound     : W = n·log2(p)/p per processor (hand-derived pebbling bound)"
            );
        }
        Derived::Hbl(a) => {
            let _ = writeln!(
                out,
                "kernel    : {} ({} loops over 0..n, {} array references)",
                kernel.name,
                kernel.depth(),
                kernel.refs.len()
            );
            let _ = writeln!(
                out,
                "sigma     : {} (= {:.4}, exact rational)",
                a.sigma,
                a.sigma.to_f64()
            );
            let exps: Vec<String> = kernel
                .refs
                .iter()
                .zip(&a.exponents)
                .map(|(r, s)| format!("s({}) = {s}", r.render(&kernel.indices)))
                .collect();
            let _ = writeln!(out, "exponents : {}", exps.join(", "));
            let _ = writeln!(out, "family    : {}", family_str(cost.family()));
            let _ = writeln!(
                out,
                "bound     : {}",
                a.bound_string(kernel.depth()).map_err(|e| e.to_string())?
            );
        }
    }
    Ok(())
}

pub fn bound_price(args: &Args, out: &mut String) -> CmdResult {
    let (_, cost, _) = kernel_from(args)?;
    let (mname, mp) = vocab::machine(args)?;
    let n = problem_size(args)?;
    if let Some(p) = args.value("p", INTEGER)? {
        // Explicit processor count: numeric argmin over M — the only
        // route for kernels outside the closed-form families, and a
        // cross-check for those inside them.
        let cfg = argmin_energy_memory(&cost, &mp, n, p).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "kernel    : {} on `{mname}` (n = {n}, p = {p})",
            cost.kernel_name()
        );
        let _ = writeln!(out, "family    : {}", family_str(cost.family()));
        let _ = writeln!(out, "numeric argmin over M at p = {p}:");
        let _ = writeln!(out, "  M = {} words/processor", fmt(cfg.mem));
        let _ = writeln!(out, "  T = {} s   (Eq. 1)", fmt(cfg.time));
        let _ = writeln!(out, "  E = {} J   (Eq. 2)", fmt(cfg.energy));
        return Ok(());
    }
    let opt = cost.energy_optimum(&mp, n).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "kernel    : {} on `{mname}` (n = {n})",
        cost.kernel_name()
    );
    let _ = writeln!(out, "family    : {}", family_str(cost.family()));
    print_optimum(out, n, &opt)?;
    Ok(())
}

pub fn bound_range(args: &Args, out: &mut String) -> CmdResult {
    let (_, cost, _) = kernel_from(args)?;
    let n = problem_size(args)?;
    let mem = fixed_memory(args)?;
    let range = cost.strong_scaling_range(n, mem);
    if args.has("csv") {
        // One machine-readable row per invocation: full-precision
        // Display floats, `na` when no range exists. CI diffs these
        // against golden files, so the format is a compatibility
        // surface.
        let (p_min, p_max) = match &range {
            Some(r) => (r.p_min.to_string(), r.p_max.to_string()),
            None => ("na".into(), "na".into()),
        };
        let _ = writeln!(
            out,
            "{},{},{n},{mem},{p_min},{p_max}",
            cost.kernel_name(),
            cost.sigma
        );
        return Ok(());
    }
    let _ = writeln!(
        out,
        "kernel    : {} (sigma = {})",
        cost.kernel_name(),
        cost.sigma
    );
    let _ = writeln!(out, "n = {n}, M = {} words/processor (fixed)", fmt(mem));
    print_range(out, cost.kernel_name(), range);
    Ok(())
}

pub fn bound_explain(args: &Args, out: &mut String) -> CmdResult {
    let (kernel, cost, derived) = kernel_from(args)?;
    let a = match derived {
        Derived::Pebbling => {
            let _ = writeln!(
                out,
                "kernel    : {} (bound = fft-pebbling escape hatch)",
                kernel.name
            );
            let _ = writeln!(
                out,
                "FFT butterflies index bit positions, not affine forms, so the\n\
                 HBL linear program does not apply; the kernel delegates to the\n\
                 hand-derived pebbling bound W = n·log2(p)/p with M = n/p."
            );
            return Ok(());
        }
        Derived::Hbl(a) => a,
    };
    let _ = writeln!(out, "kernel    : {}", kernel.name);
    let _ = writeln!(out, "references:");
    for (j, r) in kernel.refs.iter().enumerate() {
        let _ = writeln!(out, "  s{} = {}", j + 1, r.render(&kernel.indices));
    }
    let terms: Vec<String> = (1..=kernel.refs.len()).map(|j| format!("s{j}")).collect();
    let _ = writeln!(out, "linear program: minimize {}", terms.join(" + "));
    let _ = writeln!(
        out,
        "subject to 0 ≤ s_j ≤ 1 and, for every subgroup H in the lattice\n\
         generated by the subscript kernels ({} subspaces enumerated),\n\
         rank(H) ≤ Σ_j s_j·rank(φ_j(H)):",
        a.subspaces_enumerated
    );
    let width = a
        .constraints
        .iter()
        .map(|c| c.label.chars().count())
        .max()
        .unwrap_or(0);
    for (i, c) in a.constraints.iter().enumerate() {
        let lhs: Vec<String> = c
            .coeffs
            .iter()
            .enumerate()
            .map(|(j, k)| format!("{k}·s{}", j + 1))
            .collect();
        let pad = " ".repeat(width - c.label.chars().count());
        let _ = writeln!(
            out,
            "  {}{pad} : {} ≤ {}   [dual y = {}]",
            c.label,
            c.rhs,
            lhs.join(" + "),
            a.duals[i]
        );
    }
    let box_duals: Vec<String> = a.duals[a.constraints.len()..]
        .iter()
        .map(|d| d.to_string())
        .collect();
    let _ = writeln!(
        out,
        "box rows s_j ≤ 1: duals y_box = [{}]",
        box_duals.join(", ")
    );
    let _ = writeln!(
        out,
        "certificate: Σ y·rank(H) − Σ y_box = {} = σ (exact strong duality)",
        a.sigma
    );
    let sols: Vec<String> = a.exponents.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(
        out,
        "optimum    : σ_HBL = {}, s = [{}]",
        a.sigma,
        sols.join(", ")
    );
    let _ = writeln!(
        out,
        "bound      : {}",
        a.bound_string(kernel.depth()).map_err(|e| e.to_string())?
    );
    let _ = writeln!(out, "family     : {}", family_str(cost.family()));
    Ok(())
}

pub fn lab_expand(args: &Args, out: &mut String) -> CmdResult {
    let (spec, path) = lab_spec_from(args)?;
    let keys = spec.expand();
    let _ = writeln!(out, "spec      : {path} expands to {} runs", keys.len());
    for key in &keys {
        let _ = writeln!(out, "{}  {}", key.digest(), key.label());
    }
    Ok(())
}
