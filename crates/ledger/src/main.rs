//! # psse-ledger — the performance ledger of the psse workspace
//!
//! Host time of what a `psse` user waits for, end to end and layer by
//! layer, measured from outside through a small frozen API surface.
//! See `README.md` in this crate and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! psse-ledger bench --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! psse-ledger run [--seed N] [--seconds S] [--repeat R] [--traced] [--quick] [--out DIR]
//! psse-ledger compare A.json B.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod check;
mod compare;
mod gen;
mod host;
mod json;
mod metrics;
mod span;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use bench::BenchOpts;
use json::Json;

/// Measurement window when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "\
psse-ledger — end-to-end and per-layer host-time benchmark of psse

  bench   --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
          one run of one workload; the last stdout line is the result object
  run     [--seed N] [--seconds S] [--repeat R] [--traced] [--quick] [--out DIR]
          every workload, each run in its own child process; prints every
          metric by name with its unit and writes DIR/ledger.json
  compare A.json B.json
          per workload x end-to-end metric: medians, ratio (base A), bound,
          ok / worse / unresolved; exit 1 on any `worse` or rise in failures

workloads: lab-model-cold lab-model-warm lab-sim-threads event-mega tools-cli
";

/// `--key value` options and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {key}")),
        }
    }

    fn out(&self) -> PathBuf {
        self.value("--out")
            .map_or_else(bench::default_out, PathBuf::from)
    }
}

fn cmd_bench(args: &Args) -> Result<bool, String> {
    let opts = BenchOpts {
        workload: args
            .value("--workload")
            .ok_or("bench needs --workload")?
            .to_string(),
        seed: args.parsed("--seed", check::DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
        trace: args.parsed::<u8>("--trace", 0)? != 0,
        quick: args.flag("--quick"),
        out: args.out(),
    };
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let result = bench::run(&opts)?;
    for note in &result.notes {
        eprintln!("{}: {note}", opts.workload);
    }
    let mut line = String::new();
    result.to_json().write(&mut line);
    println!("{line}");
    // A printed result is a completed run: `correct` carries the verdict.
    Ok(true)
}

/// One child `bench` process; returns its parsed result object.
fn child_bench(
    workload: &str,
    args: &Args,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["bench", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(args.out())
        .stderr(Stdio::inherit());
    if args.flag("--quick") {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn bench: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: bench printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed", check::DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let repeat: usize = args.parsed("--repeat", 1)?;
    let out = args.out();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let (nproc, cpu, kernel) = host::describe();
    println!("psse-ledger: seed {seed}, {seconds} s window, {repeat} run(s) per workload");
    println!("host: {nproc} core(s), {cpu}, Linux {kernel}");

    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for (workload, why) in workloads::WORKLOADS {
        println!("\n{workload} — {why}");
        let mut runs = Vec::new();
        for _ in 0..repeat.max(1) {
            runs.push(child_bench(workload, args, seed, seconds, false)?);
        }
        let mut sections = vec![("end_to_end", runs.clone())];
        if args.flag("--traced") {
            sections.push((
                "per_layer",
                vec![child_bench(workload, args, seed, seconds, true)?],
            ));
        }
        let mut entry = Vec::new();
        let sum = |key: &str| {
            runs.iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        entry.push(("attempted".to_string(), Json::Num(sum("attempted"))));
        entry.push(("failed".to_string(), Json::Num(sum("failed"))));
        for (section, results) in sections {
            all_correct &= results
                .iter()
                .all(|r| r.get("correct") == Some(&Json::Bool(true)));
            let names = results[0]
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("result has no metrics")?;
            let mut metrics = Vec::new();
            for (name, first) in names {
                let values: Vec<f64> = results
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                    .collect();
                let unit = first.get("unit").and_then(Json::as_str).unwrap_or("");
                let med = host::median(&values);
                // A traced run reports 0 for layers its workload does
                // not exercise; those stay in the file, off the screen.
                if section == "end_to_end" || med != 0.0 {
                    println!("  {name:<34} {med:>16.6} {unit}");
                }
                metrics.push((
                    name.clone(),
                    Json::obj([
                        ("unit", Json::Str(unit.into())),
                        ("median", Json::Num(med)),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                ));
            }
            entry.push((section.to_string(), Json::Obj(metrics)));
        }
        workloads_json.push((workload.to_string(), Json::Obj(entry)));
    }
    let ledger = Json::obj([
        ("ledger", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(args.flag("--quick"))),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("cpu", Json::Str(cpu)),
                ("kernel", Json::Str(kernel)),
            ]),
        ),
        ("workloads", Json::Obj(workloads_json)),
        // The ledger measures; it never claims a gain.
        ("claim", Json::Null),
    ]);
    let path = out.join("ledger.json");
    std::fs::write(&path, ledger.to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(all_correct)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("usage: psse-ledger compare A.json B.json".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (report, bad) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), Args(rest.to_vec())),
        None => ("help", Args(Vec::new())),
    };
    let outcome = match cmd {
        "bench" => cmd_bench(&rest),
        "run" => cmd_run(&rest),
        "compare" => cmd_compare(&rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // The result was printed; the exit code says it was not clean.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("psse-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
