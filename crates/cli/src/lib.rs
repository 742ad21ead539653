//! # psse-cli — the `psse` command
//!
//! A command-line front end to the whole workspace: evaluate the paper's
//! time/energy models at a point, inspect strong-scaling ranges, run the
//! §V optimizers, execute the real algorithms on the simulated machine,
//! and print the machine tables. `psse help` lists every command, action
//! and flag.
//!
//! All logic lives in [`run`] so it can be tested without spawning the
//! binary; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod commands;

use args::Args;
use commands as cmd;
use psse_core::params::OVERRIDES;
use psse_lab::vocab::{self, C, F, FAULT_KEYS, FAULT_SEED, HALO, ITERS, SEED, TIMEOUT};
use Family::{Faults, Machine, Schedule};

/// Execute a CLI invocation; human-readable output is appended to `out`.
/// The command and action name a row of `COMMANDS`, and every flag is
/// checked against that row before the action runs.
pub fn run(argv: &[String], out: &mut String) -> Result<(), String> {
    // `psse` and `psse --help` are `psse help`, the last row.
    let Row(help, ..) = &COMMANDS[COMMANDS.len() - 1];
    let help = [help.to_string()];
    let argv = match argv.first() {
        Some(word) if word != "--help" => argv,
        _ => &help,
    };
    let word = argv[0].as_str();
    let rows = || COMMANDS.iter().filter(|Row(command, ..)| *command == word);
    let Some(first) = rows().next() else {
        let mut names: Vec<&str> = COMMANDS.iter().map(|Row(command, ..)| *command).collect();
        names.dedup();
        let hint = hint(word, &names);
        return Err(format!(
            "unknown subcommand `{word}`; try `psse help`{hint}"
        ));
    };
    let (row, rest) = if let Row(_, "", ..) = first {
        (first, argv)
    } else {
        let actions: Vec<&str> = rows().map(|Row(_, action, ..)| *action).collect();
        let list = actions.join("|");
        let usage = format!("usage: psse {word} <{list}> [--option value]...");
        let action = argv.get(1).map_or("--", String::as_str);
        let Some(row) = rows().find(|Row(_, name, ..)| *name == action) else {
            if action.starts_with("--") {
                return Err(usage);
            }
            let hint = hint(action, &actions);
            return Err(format!("unknown {word} action `{action}`{hint}; {usage}"));
        };
        (row, &argv[1..])
    };
    let Row(_, action, run, families, switches, flags) = row;
    let mut args = Args::parse(rest)?;
    args.command = format!("{word} {action}").trim_end().to_string();
    let mut keys = [*flags, *switches].concat();
    keys.extend(families.iter().flat_map(|f| f.flags()).map(|(key, _)| key));
    args.expect_keys(&keys)?;
    args.expect_shapes(switches)?;
    run(&args, out)
}

/// ` (did you mean `…`?)` when `word` is a plausible typo of one of
/// `names` (a flag where a name belongs is not).
fn hint(word: &str, names: &[&str]) -> String {
    let name = args::suggest(word, names).filter(|_| !word.starts_with("--"));
    name.map(|name| format!(" (did you mean `{name}`?)"))
        .unwrap_or_default()
}

/// One action of `psse`: its command, its name (empty for a one-level
/// command), what it runs, the flag families it shares, its bare
/// switches and its own flags that take a value.
struct Row(
    &'static str,
    &'static str,
    fn(&Args, &mut String) -> Result<(), String>,
    &'static [Family],
    &'static [&'static str],
    &'static [&'static str],
);

/// Flags several rows accept, each defined once in the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    /// `--machine` and its overrides.
    Machine,
    /// The fault plan's flags but `--fault-seed`: the plan draws from `--seed`.
    Faults,
    /// The overrides that re-price a recorded schedule.
    Schedule,
}

impl Family {
    /// The family's flags, each with its placeholder in [`HELP`].
    fn flags(self) -> Vec<(&'static str, &'static str)> {
        let overrides = OVERRIDES.iter().filter(|o| o.schedule || self != Schedule);
        let overrides = overrides.map(|o| (o.key, o.unit));
        match self {
            Machine => std::iter::once((vocab::MACHINE, "NAME"))
                .chain(overrides)
                .collect(),
            Faults => {
                let faults = FAULT_KEYS.iter().filter(|k| k.key() != FAULT_SEED.key);
                faults.map(|k| (k.key(), k.rule().1)).collect()
            }
            Schedule => overrides.collect(),
        }
    }
}

/// Every command and action of `psse`, in [`HELP`]'s order: the one place
/// their names are matched.
#[rustfmt::skip]
const COMMANDS: [Row; 21] = [
    Row("machines", "", cmd::machines, &[], &[], &[]),
    Row("model", "", cmd::model, &[Machine], &[], &["alg", "n", "p", "mem", F.key, HALO.key, ITERS.key]),
    Row("scaling", "", cmd::scaling, &[], &[], &["alg", "n", "mem", F.key, HALO.key, ITERS.key]),
    Row("optimize", "", cmd::optimize, &[Machine], &[],
        &["n", F.key, "tmax", "emax", "power-total", "power-proc"]),
    Row("simulate", "", cmd::simulate, &[Machine], &[],
        &["alg", "n", "p", C.key, SEED.key, "panel", "cols", "backend", HALO.key, ITERS.key]),
    Row("tech", "", cmd::tech, &[Machine], &[], &["target"]),
    Row("trace", "record", cmd::trace_record, &[Machine], &[],
        &["alg", "n", "p", C.key, SEED.key, "panel", "cols", "backend", HALO.key, ITERS.key, "out"]),
    Row("trace", "replay", cmd::trace_replay, &[Machine], &[], &["in"]),
    Row("trace", "critical-path", cmd::trace_critical_path, &[], &[], &["in", "top"]),
    Row("trace", "export", cmd::trace_export, &[], &[], &["in", "out"]),
    Row("trace", "flame", cmd::trace_flame, &[Schedule], &[], &["in", "out"]),
    Row("faults", "sweep", cmd::faults_sweep, &[Machine, Faults], &[],
        &["n", "q", "c-list", SEED.key, "restart", "mtbf", "out", "jobs", "backend"]),
    Row("lab", "run", cmd::lab_run, &[], &["scaling", "resume"],
        &["spec", "jobs", "out", "pareto", "cache", "profile", "journal", TIMEOUT.key]),
    Row("lab", "expand", cmd::lab_expand, &[], &[], &["spec"]),
    Row("lab", "gc", cmd::lab_gc, &[], &["dry-run"], &["cache", "max-bytes", "max-age"]),
    Row("lab", "fsck", cmd::lab_fsck, &[], &["dry-run"], &["cache"]),
    Row("bound", "solve", cmd::bound_solve, &[], &[], &["kernel"]),
    Row("bound", "explain", cmd::bound_explain, &[], &[], &["kernel"]),
    Row("bound", "price", cmd::bound_price, &[Machine], &[], &["kernel", "n", "p"]),
    Row("bound", "range", cmd::bound_range, &[], &["csv"], &["kernel", "n", "mem"]),
    Row("help", "", |_, out| { out.push_str(&help()); Ok(()) }, &[], &[], &[]),
];

/// `items` separated by `sep` for a [`HELP`] line starting at column
/// `indent`: broken before column 79 and continued at `indent`.
fn wrap(items: impl IntoIterator<Item = String>, sep: char, indent: usize) -> String {
    let (mut list, mut col) = (String::new(), indent);
    for item in items {
        if col + item.len() > 78 {
            list.push('\n');
            list.push_str(&" ".repeat(indent));
            col = indent;
        }
        list.push_str(&item);
        list.push(sep);
        col += item.len() + 1;
    }
    list.pop();
    list.replace(" \n", "\n")
}

/// [`HELP`] with its lists — algorithms, machines, override and fault
/// flags — enumerated from the tables that define them.
fn help() -> String {
    use psse_algos::table::{names, Entry};
    use psse_core::machines::PRESETS;
    let algs = |keep: fn(&Entry) -> bool| wrap(names(keep).map(str::to_string), '|', 21);
    let flag = |(key, metavar): &(&str, &str)| format!("[--{key} {metavar}]");
    let flags = |flags: &[(&str, &str)], indent| wrap(flags.iter().map(flag), ' ', indent);
    let machines: Vec<&str> = PRESETS.iter().map(|(name, _)| *name).collect();
    HELP.replace("{MODEL_ALGS}", &algs(|e| e.model.is_some()))
        .replace("{SIMULATE_ALGS}", &algs(|e| e.simulate.is_some()))
        .replace("{MACHINES}", &machines.join("|"))
        // The overrides: the machine family after `--machine` itself.
        .replace("{OVERRIDES}", &flags(&Machine.flags()[1..], 15))
        .replace("{SCHEDULE}", &flags(&Schedule.flags(), 29))
        .replace("{FAULT_FLAGS}", &flags(&Faults.flags(), 22))
        .replace("{F}", &F.default.to_string())
}

const HELP: &str = "\
psse — Perfect Strong Scaling Using No Additional Energy (IPDPS 2013)

USAGE: psse <command> [--option value]...

COMMANDS:
  machines   Print the paper's Table II processor database.
  model      Evaluate T (Eq. 1), E (Eq. 2) and P for an algorithm at a point.
               --alg {MODEL_ALGS}
               --n N  --p P  [--halo H] [--iters K] (the stencil's)
               [--mem WORDS]        memory/processor (default: minimal)
               [--f FLOPS]          n-body flops per interaction ({F})
               [--machine {MACHINES}]
               plus per-parameter overrides of the machine:
               {OVERRIDES}
  scaling    Print the perfect strong scaling range at fixed memory.
               --alg ... --n N --mem WORDS [--f FLOPS] [--halo H] [--iters K]
  optimize   Section V answers for the n-body problem (closed form).
               --n N [--f FLOPS] [--tmax S] [--emax J]
               [--power-total W] [--power-proc W] [--machine NAME + overrides]
  simulate   Run the real algorithm on the virtual machine and price it.
               --alg {SIMULATE_ALGS}
               --n N --p P [--c C] [--panel W] [--cols K] [--seed S]
               [--halo H] [--iters K] [--machine NAME + overrides]
               [--backend threads|events]  recorded; both values run the
                                           thread machine today, as the
                                           backend line says
  tech       Technology scaling (Figs. 6-7): generations to a target.
               [--target GFLOPS_W] [--machine NAME + overrides]
  trace      Record, replay, analyse and export event traces.
               record        --alg ... --n N --p P [--c C] [--out FILE]
                             [--seed S] [--panel W] [--cols K] [--halo H]
                             [--iters K] [--backend threads|events]
                             [--machine NAME + overrides]
                             run once with recording on, verify that replay
                             reproduces the live run, save the trace
               replay        --in FILE [--machine NAME + overrides]
                             re-price the recorded DAG on another machine
               critical-path --in FILE [--top K]
                             longest chain and per-rank compute/comm/idle
               export        --in FILE [--out FILE.json]
                             Chrome trace-event JSON (Perfetto-loadable)
               flame         --in FILE [--out FILE]
                             {SCHEDULE}
                             fold the DAG into collapsed-stack format
                             (rank;phase;op + virtual ns); with no --out
                             prints only the folded lines, ready to pipe
                             into flamegraph.pl or speedscope
  faults     Deterministic fault injection and resilience pricing.
               sweep  --q Q (grid edge, default 4) --c-list 1,2,4 --n N
                      [--seed S] [--restart S] [--mtbf S]
                      [--machine NAME + overrides]
                      {FAULT_FLAGS}
                      [--backend threads|events] [--out FILE.csv]
                      run 2.5D matmul per c with and without the fault plan,
                      verify faulted numerics match fault-free, report the
                      measured energy overhead against the Eq. 2 resilience
                      model (and the Daly-optimal interval when --mtbf given)
                      [--jobs N]  worker threads for the sweep (default: auto)
  lab        Parallel batch experiment engine over declarative sweep specs.
               run    --spec FILE  execute the sweep and print a summary
                      [--jobs N]        worker threads (0 = auto, the default);
                                        output bytes are identical for any N
                      [--out FILE.csv]  full sweep CSV (spec order)
                      [--pareto FILE]   per-n (time, energy) Pareto frontier CSV
                      [--cache DIR|off] persistent content-addressed result
                                        cache (default off); reruns hit
                      [--scaling]       detect perfect-strong-scaling ranges
                                        per (n, c, M) ladder (paper SIII)
                      [--profile FILE|off] self-profile destination (default:
                                        <out>.profile.json, or
                                        <spec stem>.profile.json without --out)
                      [--journal FILE]  append one checksummed line per finished
                                        run; torn tails from a kill -9 are
                                        detected and truncated on resume
                      [--resume]        replay completed runs from --journal and
                                        skip them; the final CSV is
                                        byte-identical to an uninterrupted sweep
                      [--timeout S]     per-run wall-clock watchdog for
                                        simulator runs (overrides the spec
                                        `timeout` key); a hung run fails alone
               expand --spec FILE  print the expanded run list with digests
               gc     --cache DIR  evict old cache records, oldest first
                      [--max-bytes B]   keep at most B bytes of records
                      [--max-age S]     evict records older than S seconds
                      [--dry-run]       report without deleting
                                        (quarantine/ is reported, never evicted)
               fsck   --cache DIR  re-verify every record checksum; corrupt
                      records move to quarantine/ (exit 1 if any found)
                      [--dry-run]       report without moving
  bound      Automatic communication lower bounds from loop-nest kernel
             files (the HBL linear program, specs/kernels/*.kernel).
               solve   --kernel FILE  parse the loop nest, enumerate the
                       subgroup lattice, solve the LP: exact σ_HBL,
                       per-array exponents and the symbolic W bound
               explain --kernel FILE  show the whole proof: the rank
                       inequalities, the dual certificate and the bound
               price   --kernel FILE --n N [--machine NAME + overrides]
                       energy-optimal point M0/E* via the closed forms;
                       with [--p P], numeric argmin over M at that p
                       (the only route for generic-family kernels)
               range   --kernel FILE --n N --mem WORDS  perfect strong
                       scaling range [p_min, p_max] at fixed memory
                       [--csv]  one machine-readable row instead
  help       This message.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn call(line: &str) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
        let mut out = String::new();
        run(&argv, &mut out)?;
        Ok(out)
    }

    /// `command`'s entry in `help`: its line and the indented lines below.
    fn help_block(help: &str, command: &str) -> String {
        let head = format!("  {command} ");
        let mut lines = help.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines
            .next()
            .unwrap_or_else(|| panic!("no `{command}` in {help}"));
        let rest = lines.take_while(|l| l.starts_with("   "));
        std::iter::once(first)
            .chain(rest)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Whether `block` names `--flag` itself, not only a longer flag.
    fn names_flag(block: &str, flag: &str) -> bool {
        let flag = format!("--{flag}");
        let ends = |rest: &str| !rest.starts_with(|c: char| c.is_alphanumeric() || c == '-');
        block
            .match_indices(&flag)
            .any(|(i, _)| ends(&block[i + flag.len()..]))
    }

    #[test]
    fn help_lists_commands() {
        let out = call("help").unwrap();
        for Row(command, action, ..) in &COMMANDS {
            let block = help_block(&out, command);
            let entry = format!("\n               {action} ");
            assert!(action.is_empty() || block.contains(&entry), "{block}");
        }
    }

    #[test]
    fn help_names_every_flag_a_command_accepts() {
        let out = call("help").unwrap();
        assert!(out.lines().all(|l| l.chars().count() <= 80), "{out}");
        for Row(command, action, _, families, switches, flags) in &COMMANDS {
            let block = help_block(&out, command);
            let mut named = [*flags, *switches].concat();
            for &family in *families {
                match family {
                    Machine => named.push(vocab::MACHINE),
                    Faults | Schedule => named.extend(family.flags().iter().map(|f| f.0)),
                }
            }
            for flag in named {
                assert!(
                    names_flag(&block, flag),
                    "`{command} {action}`: no --{flag}"
                );
            }
        }
    }

    /// The `|`-separated list that follows `--alg ` in the help block
    /// of `command`, continuation lines joined.
    fn help_alg_list(help: &str, command: &str) -> Vec<String> {
        let block = help.split(&format!("\n  {command} ")).nth(1).unwrap();
        let list = block.split("--alg ").nth(1).unwrap();
        let mut names = String::new();
        for line in list.lines() {
            names.push_str(line.trim());
            if !line.ends_with('|') {
                break;
            }
        }
        names.split('|').map(str::to_string).collect()
    }

    #[test]
    fn help_alg_lists_are_the_algorithm_table() {
        use psse_algos::table::names;
        let out = call("help").unwrap();
        assert!(!out.contains("_ALGS}"), "placeholder left in: {out}");
        assert!(out.lines().all(|l| l.chars().count() <= 80), "{out}");
        assert_eq!(
            help_alg_list(&out, "model"),
            names(|e| e.model.is_some()).collect::<Vec<_>>()
        );
        assert_eq!(
            help_alg_list(&out, "simulate"),
            names(|e| e.simulate.is_some()).collect::<Vec<_>>()
        );
        // The lists are what the commands accept: a name from the other
        // list is refused with this command's own.
        let err = call("simulate --alg fft-a2a --n 16 --p 2").unwrap_err();
        assert!(err.contains("(cannon|summa|"), "{err}");
        let err = call("model --alg cannon --n 16 --p 4").unwrap_err();
        assert!(err.contains("(matmul|mm25d|"), "{err}");
    }

    #[test]
    fn help_lists_the_vocabulary_tables() {
        use psse_core::{machines::PRESETS, params::OVERRIDES};
        use psse_lab::vocab::{FAULT_KEYS, FAULT_SEED};
        let out = call("help").unwrap();
        assert!(!out.contains('{'), "placeholder left in: {out}");
        let presets: Vec<&str> = PRESETS.iter().map(|(name, _)| *name).collect();
        assert!(
            out.contains(&format!("[--machine {}]", presets.join("|"))),
            "{out}"
        );
        for o in &OVERRIDES {
            assert!(out.contains(&format!("[--{} {}]", o.key, o.unit)), "{out}");
        }
        for k in FAULT_KEYS.iter().filter(|k| k.key() != FAULT_SEED.key) {
            let flag = format!("[--{} {}]", k.key(), k.rule().1);
            assert!(out.contains(&flag), "{flag}: {out}");
        }
        // What help lists is what `--machine` accepts.
        for name in presets {
            let out = call(&format!(
                "model --alg matmul --n 4096 --p 64 --machine {name}"
            ))
            .unwrap();
            assert!(out.contains(&format!("machine   : {name}")), "{out}");
        }
    }

    #[test]
    fn unknown_options_get_a_nearest_match_hint() {
        let err = call("model --alg matmul --n 8192 --p 64 --machne jaketown").unwrap_err();
        assert!(err.contains("unknown option --machne"), "{err}");
        assert!(err.contains("did you mean --machine?"), "{err}");
        let err = call("scaling --alg matmul --n 8192 --memm 1e6").unwrap_err();
        assert!(err.contains("did you mean --mem?"), "{err}");
        // Typos in two-level commands are caught too.
        let err = call("faults sweep --q 2 --c-list 1 --n 16 --drop-rte 0.1").unwrap_err();
        assert!(err.contains("did you mean --drop-rate?"), "{err}");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(call("frobnicate").is_err());
    }

    #[test]
    fn unknown_command_gets_a_nearest_match_hint() {
        let err = call("buond solve").unwrap_err();
        assert!(err.contains("unknown subcommand `buond`"), "{err}");
        assert!(err.contains("did you mean `bound`?"), "{err}");
        let err = call("simulte --alg fft --n 16 --p 2").unwrap_err();
        assert!(err.contains("did you mean `simulate`?"), "{err}");
        // A wildly different word gets no misleading hint.
        let err = call("frobnicate").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    /// Path to a shipped kernel file, robust to the test's working dir.
    fn kernel_path(name: &str) -> String {
        format!(
            "{}/../../specs/kernels/{name}.kernel",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    #[test]
    fn bound_solve_derives_matmul_and_nbody() {
        let out = call(&format!("bound solve --kernel {}", kernel_path("matmul"))).unwrap();
        assert!(out.contains("sigma     : 3/2"), "{out}");
        assert!(out.contains("W = Ω(n^3 / (p · M^(1/2)))"), "{out}");
        assert!(out.contains("matmul (2.5D closed form)"), "{out}");
        let out = call(&format!("bound solve --kernel {}", kernel_path("nbody"))).unwrap();
        assert!(out.contains("sigma     : 2"), "{out}");
        assert!(out.contains("W = Ω(n^2 / (p · M))"), "{out}");
        let out = call(&format!("bound solve --kernel {}", kernel_path("fft"))).unwrap();
        assert!(out.contains("fft-pebbling escape hatch"), "{out}");
    }

    #[test]
    fn bound_price_matches_optimize_bit_for_bit() {
        // The n-body kernel file declares flops-per-iter = 20, the
        // default of `psse optimize`: both commands must print the very
        // same M0/E* lines.
        let opt = call("optimize --n 100000").unwrap();
        let prc = call(&format!(
            "bound price --kernel {} --n 100000",
            kernel_path("nbody")
        ))
        .unwrap();
        let line = |s: &str, pat: &str| {
            s.lines()
                .find(|l| l.starts_with(pat))
                .map(str::to_string)
                .unwrap_or_else(|| panic!("missing `{pat}` in: {s}"))
        };
        assert_eq!(line(&opt, "M0 = "), line(&prc, "M0 = "));
        assert_eq!(line(&opt, "E* = "), line(&prc, "E* = "));
    }

    #[test]
    fn bound_price_generic_requires_explicit_p() {
        let err = call(&format!(
            "bound price --kernel {} --n 64",
            kernel_path("tensor")
        ))
        .unwrap_err();
        assert!(err.contains("explicit processor count"), "{err}");
        // Feasibility for the tensor shape needs p ≥ n (σ = 3/2 with a
        // rank-3 footprint): at (n, p) = (16, 64) the range is open.
        let out = call(&format!(
            "bound price --kernel {} --n 16 --p 64",
            kernel_path("tensor")
        ))
        .unwrap();
        assert!(out.contains("numeric argmin over M at p = 64"), "{out}");
        assert!(out.contains("E = "), "{out}");
    }

    #[test]
    fn bound_range_matches_scaling_and_emits_csv() {
        let scl = call("scaling --alg matmul --n 8192 --mem 1e6").unwrap();
        let rng = call(&format!(
            "bound range --kernel {} --n 8192 --mem 1e6",
            kernel_path("matmul")
        ))
        .unwrap();
        let line = |s: &str, pat: &str| {
            s.lines()
                .find(|l| l.starts_with(pat))
                .map(str::to_string)
                .unwrap_or_else(|| panic!("missing `{pat}` in: {s}"))
        };
        assert_eq!(line(&scl, "p_min = "), line(&rng, "p_min = "));
        assert_eq!(line(&scl, "p_max = "), line(&rng, "p_max = "));
        let csv = call(&format!(
            "bound range --kernel {} --n 8192 --mem 1e6 --csv",
            kernel_path("matmul")
        ))
        .unwrap();
        assert!(csv.starts_with("matmul,3/2,8192,1000000,"), "{csv}");
        assert_eq!(csv.lines().count(), 1, "{csv}");
        // No replication knob: the FFT row carries `na` sentinels.
        let csv = call(&format!(
            "bound range --kernel {} --n 65536 --mem 1024 --csv",
            kernel_path("fft")
        ))
        .unwrap();
        assert!(csv.contains(",na,na"), "{csv}");
    }

    #[test]
    fn bound_explain_prints_the_certificate() {
        let out = call(&format!("bound explain --kernel {}", kernel_path("matmul"))).unwrap();
        assert!(
            out.contains("linear program: minimize s1 + s2 + s3"),
            "{out}"
        );
        assert!(out.contains("exact strong duality"), "{out}");
        assert!(out.contains("σ_HBL = 3/2"), "{out}");
        assert!(out.contains("W = Ω(n^3 / (p · M^(1/2)))"), "{out}");
    }

    #[test]
    fn bound_errors_carry_the_line_number() {
        let dir = std::env::temp_dir().join("psse-cli-bound-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.kernel");
        std::fs::write(&bad, "kernel = bad\nfor i in 0..n\nC[q] += A[i]\n").unwrap();
        let err = call(&format!("bound solve --kernel {}", bad.display())).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(
            err.contains(bad.to_str().unwrap()),
            "error should name the file: {err}"
        );
        assert!(call("bound").is_err());
        assert!(call("bound frobnicate").is_err());
        assert!(call("bound solve --kernel /nonexistent/x.kernel").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn machines_prints_table2() {
        let out = call("machines").unwrap();
        assert!(out.contains("Nvidia GTX590"));
        assert!(out.contains("GFLOPS/W"));
        assert!(out.contains("6.817"));
    }

    #[test]
    fn model_evaluates_matmul() {
        let out = call("model --alg matmul --n 8192 --p 64").unwrap();
        assert!(out.contains("runtime"));
        assert!(out.contains("energy"));
        // Default machine is Table I.
        assert!(out.contains("jaketown"));
    }

    #[test]
    fn model_respects_overrides() {
        let a = call("model --alg nbody --n 100000 --p 64 --f 20").unwrap();
        let b = call("model --alg nbody --n 100000 --p 64 --f 20 --gamma-e 1e-6").unwrap();
        assert_ne!(a, b, "energy override must change the output");
    }

    #[test]
    fn model_and_scaling_accept_the_lab_model_ids() {
        // One table (the lab's): ids and aliases the CLI used to reject.
        for alg in ["cholesky", "fft-a2a", "mm25d", "fft-tree"] {
            let out = call(&format!("model --alg {alg} --n 4096 --p 64")).unwrap();
            assert!(out.contains("runtime"), "{alg}: {out}");
            call(&format!("scaling --alg {alg} --n 4096 --mem 1e6")).unwrap();
        }
        // Aliases price exactly like the id they stand for.
        assert_eq!(
            call("model --alg mm25d --n 4096 --p 64").unwrap(),
            call("model --alg matmul --n 4096 --p 64").unwrap()
        );
    }

    #[test]
    fn model_rejects_bad_algorithms() {
        let err = call("model --alg quicksort --n 8 --p 2").unwrap_err();
        assert!(err.contains("cholesky") && err.contains("fft-a2a"), "{err}");
        assert!(call("model --alg matmul --p 2").is_err());
    }

    #[test]
    fn scaling_reports_range() {
        let out = call("scaling --alg matmul --n 8192 --mem 1e6").unwrap();
        assert!(out.contains("p_min"));
        assert!(out.contains("p_max"));
        let out = call("scaling --alg fft --n 65536 --mem 1024").unwrap();
        assert!(out.contains("no perfect strong scaling"));
    }

    #[test]
    fn optimize_answers_section_v() {
        let out = call("optimize --n 100000 --f 10").unwrap();
        assert!(out.contains("M0"));
        assert!(out.contains("E*"));
        let out = call("optimize --n 100000 --f 10 --emax 1e9").unwrap();
        assert!(out.contains("fastest run within"));
    }

    #[test]
    fn simulate_runs_and_verifies() {
        let out = call("simulate --alg mm25d --n 16 --p 32 --c 2").unwrap();
        assert!(out.contains("verified"), "{out}");
        assert!(out.contains("measured runtime"));
        let out = call("simulate --alg nbody --n 64 --p 8 --c 2").unwrap();
        assert!(out.contains("verified"));
        let out = call("simulate --alg fft --n 256 --p 4").unwrap();
        assert!(out.contains("verified"));
        let out = call("simulate --alg cholesky --n 16 --p 4").unwrap();
        assert!(out.contains("verified"));
    }

    #[test]
    fn simulate_backend_flag_selects_events_and_matches_threads() {
        let th = call("simulate --alg mm25d --n 16 --p 32 --c 2").unwrap();
        assert!(th.contains("backend   : threads"), "{th}");
        let ev = call("simulate --alg mm25d --n 16 --p 32 --c 2 --backend events").unwrap();
        let ran = "backend   : threads (--backend events: no event route for this command yet)";
        assert!(ev.contains(ran), "{ev}");
        // Everything but the backend line is byte-identical.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("backend"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&th), strip(&ev));
        let err = call("simulate --alg mm25d --n 16 --p 32 --c 2 --backend fibers").unwrap_err();
        assert!(err.contains("fibers"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_grids() {
        assert!(call("simulate --alg cannon --n 16 --p 3").is_err());
    }

    #[test]
    fn trace_record_replay_analyse_export() {
        let dir = std::env::temp_dir().join("psse-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mm25d.trace");
        let tp = path.to_str().unwrap();

        let out = call(&format!(
            "trace record --alg mm25d --n 16 --p 8 --c 2 --out {tp}"
        ))
        .unwrap();
        assert!(out.contains("verified (bit-identical"), "{out}");
        assert!(out.contains("makespan"), "{out}");

        let out = call(&format!("trace replay --in {tp}")).unwrap();
        assert!(out.contains("self-replay verified"), "{out}");
        assert!(out.contains("re-priced on `jaketown`"), "{out}");
        // A 10x cheaper network must not report a longer runtime.
        let fast = call(&format!(
            "trace replay --in {tp} --beta-t 1e-12 --alpha-t 1e-9"
        ))
        .unwrap();
        assert_ne!(out, fast);

        let out = call(&format!("trace critical-path --in {tp} --top 3")).unwrap();
        assert!(out.contains("critical path:"), "{out}");
        assert!(out.contains("idle(s)"), "{out}");

        let json_path = dir.join("mm25d.trace.json");
        let out = call(&format!(
            "trace export --in {tp} --out {}",
            json_path.to_str().unwrap()
        ))
        .unwrap();
        assert!(out.contains("Chrome trace-event JSON"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"traceEvents\""));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn trace_requires_action_and_input() {
        assert!(call("trace").is_err());
        assert!(call("trace frobnicate").is_err());
        assert!(call("trace replay").is_err());
        assert!(call("trace replay --in /nonexistent/path.trace").is_err());
    }

    #[test]
    fn faults_sweep_reports_overhead_and_writes_csv() {
        let dir = std::env::temp_dir().join("psse-cli-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("sweep.csv");
        let cp = csv_path.to_str().unwrap();

        let line = format!(
            "faults sweep --q 2 --c-list 1,2 --n 16 --seed 7 --drop-rate 0.1 \
             --corrupt-rate 0.05 --retries 16 --out {cp}"
        );
        let out = call(&line).unwrap();
        assert!(out.contains("fault sweep"), "{out}");
        assert!(out.contains("E_fault(J)"), "{out}");
        assert!(
            out.contains("all faulted runs identical to fault-free"),
            "{out}"
        );
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("c,p,"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + one row per c: {csv}");

        // Determinism: the same seed reproduces the CSV byte for byte.
        let out2 = call(&line.replace("sweep.csv", "sweep2.csv")).unwrap();
        assert_eq!(
            out.replace("sweep.csv", "sweep2.csv"),
            out2,
            "sweep output must be deterministic"
        );
        let csv2 = std::fs::read_to_string(dir.join("sweep2.csv")).unwrap();
        assert_eq!(csv, csv2);

        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_file(dir.join("sweep2.csv")).ok();
    }

    #[test]
    fn faults_sweep_overhead_matches_resilience_model() {
        // The measured E_fault − E_free must equal the Eq. 2 resilience
        // term printed in the model column (identical arithmetic, words
        // and messages outside the resilience counters).
        let out = call("faults sweep --q 2 --c-list 1 --n 16 --seed 3 --drop-rate 0.2").unwrap();
        let row = out
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .expect("sweep row");
        let cols: Vec<&str> = row.split_whitespace().collect();
        let overhead: f64 = cols[4].parse().unwrap();
        let model: f64 = cols[5].parse().unwrap();
        let retries: u64 = cols[6].parse().unwrap();
        assert!(retries > 0, "plan should inject at least one drop: {out}");
        assert!(overhead > 0.0, "{out}");
        // The printed columns carry 4 significant digits, so allow for
        // display rounding on top of float round-off.
        assert!(
            (overhead - model).abs() <= 2e-3 * overhead.abs(),
            "overhead {overhead} vs model {model}"
        );
    }

    #[test]
    fn faults_sweep_backends_produce_identical_csvs() {
        let dir = std::env::temp_dir().join("psse-cli-faults-backend-test");
        std::fs::create_dir_all(&dir).unwrap();
        let th = dir.join("threads.csv");
        let ev = dir.join("events.csv");
        let base = "faults sweep --q 2 --c-list 1,2 --n 16 --seed 7 --drop-rate 0.1 --retries 16";
        call(&format!("{base} --backend threads --out {}", th.display())).unwrap();
        call(&format!("{base} --backend events --out {}", ev.display())).unwrap();
        // The sweep CSV — virtual times, energies, retry counts — is a
        // pure function of the run, so the backends must agree on every
        // byte.
        assert_eq!(std::fs::read(&th).unwrap(), std::fs::read(&ev).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_requires_action() {
        assert!(call("faults").is_err());
        assert!(call("faults frobnicate").is_err());
        // Invalid plans are rejected up front.
        assert!(call("faults sweep --q 2 --c-list 1 --n 16 --drop-rate 1.5").is_err());
    }

    #[test]
    fn lab_run_executes_spec_and_writes_identical_csvs_for_any_jobs() {
        let dir = std::env::temp_dir().join("psse-cli-lab-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("nbody.spec");
        std::fs::write(
            &spec_path,
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:8\nmem = geomf:2e2:1e4:4\nf = 10\n",
        )
        .unwrap();
        let sp = spec_path.to_str().unwrap();
        let csv1 = dir.join("sweep1.csv");
        let csv8 = dir.join("sweep8.csv");
        let front = dir.join("front.csv");

        let out = call(&format!(
            "lab run --spec {sp} --jobs 1 --out {} --pareto {} --scaling",
            csv1.display(),
            front.display()
        ))
        .unwrap();
        assert!(out.contains("32 model runs"), "{out}");
        assert!(out.contains("cache     : hits=0 misses=32"), "{out}");
        assert!(out.contains("scaling   :"), "{out}");

        let out8 = call(&format!(
            "lab run --spec {sp} --jobs 8 --out {}",
            csv8.display()
        ))
        .unwrap();
        assert!(out8.contains("jobs      : 8"), "{out8}");

        let b1 = std::fs::read(&csv1).unwrap();
        let b8 = std::fs::read(&csv8).unwrap();
        assert_eq!(b1, b8, "sweep CSV must not depend on --jobs");
        let f = std::fs::read_to_string(&front).unwrap();
        assert!(f.starts_with("n,p,c,mem_words,time_s,energy_j\n"), "{f}");
        assert!(f.lines().count() >= 2, "frontier should be non-empty: {f}");

        // The self-profiles land next to the CSVs by default and are
        // structurally identical across --jobs: same runs in the same
        // order, only the host timing values differ.
        assert!(out.contains("self-profile:"), "{out}");
        assert!(out8.contains("worker utilization:"), "{out8}");
        let parse = |p: &std::path::Path| {
            let text = std::fs::read_to_string(format!("{}.profile.json", p.display())).unwrap();
            psse_lab::prelude::SweepProfile::from_json(&psse_metrics::Json::parse(&text).unwrap())
                .unwrap()
        };
        let (p1, p8) = (parse(&csv1), parse(&csv8));
        assert_eq!(p1.jobs, 1);
        assert_eq!(p8.jobs, 8);
        assert_eq!(p1.runs.len(), 32);
        let keys = |p: &psse_lab::prelude::SweepProfile| -> Vec<(String, String)> {
            p.runs
                .iter()
                .map(|r| (r.label.clone(), r.digest.clone()))
                .collect()
        };
        assert_eq!(
            keys(&p1),
            keys(&p8),
            "profile key set must not depend on --jobs"
        );
        // Model runs are deterministic, so even the virtual-cost metric
        // values agree; only wall-clock fields may differ.
        assert_eq!(p1.metrics.to_string(), p8.metrics.to_string());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_flame_is_pipe_clean_and_reprices() {
        let dir = std::env::temp_dir().join("psse-cli-flame-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nbody.trace");
        let tp = path.to_str().unwrap();
        call(&format!("trace record --alg nbody --n 64 --p 4 --out {tp}")).unwrap();

        // No --out: nothing but collapsed-stack lines, so the output
        // pipes straight into flamegraph.pl / speedscope.
        let folded = call(&format!("trace flame --in {tp}")).unwrap();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("`stack count` lines only");
            assert_eq!(stack.split(';').count(), 3, "{line}");
            assert!(count.parse::<u64>().unwrap() > 0, "{line}");
        }

        // --out writes the same bytes to a file and prints a summary.
        let fp = dir.join("nbody.folded");
        let out = call(&format!("trace flame --in {tp} --out {}", fp.display())).unwrap();
        assert!(out.contains("collapsed stacks"), "{out}");
        assert_eq!(std::fs::read_to_string(&fp).unwrap(), folded);

        // Re-pricing the fold under a slower network changes the counts
        // without re-recording.
        let slow = call(&format!("trace flame --in {tp} --beta-t 1e-5")).unwrap();
        assert_ne!(folded, slow);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lab_gc_bounds_the_cache_directory() {
        let dir = std::env::temp_dir().join("psse-cli-lab-gc-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("tiny.spec");
        std::fs::write(
            &spec_path,
            "kind = model\nalg = matmul\nn = 1024\np = 4,8\n",
        )
        .unwrap();
        let cache = dir.join("cache");
        let out = call(&format!(
            "lab run --spec {} --cache {} --profile off",
            spec_path.display(),
            cache.display()
        ))
        .unwrap();
        assert!(!out.contains("self-profile"), "--profile off: {out}");
        let recs = || {
            std::fs::read_dir(&cache)
                .map(|d| {
                    d.filter_map(Result::ok)
                        .filter(|e| e.path().extension().is_some_and(|x| x == "rec"))
                        .count()
                })
                .unwrap_or(0)
        };
        assert_eq!(recs(), 2);

        // Dry run reports without deleting.
        let out = call(&format!(
            "lab gc --cache {} --max-bytes 0 --dry-run",
            cache.display()
        ))
        .unwrap();
        assert!(out.contains("2 scanned, 2 would evict"), "{out}");
        assert_eq!(recs(), 2);

        let out = call(&format!("lab gc --cache {} --max-bytes 0", cache.display())).unwrap();
        assert!(out.contains("2 scanned, 2 evicted"), "{out}");
        assert_eq!(recs(), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lab_run_journal_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join("psse-cli-lab-journal-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("nbody.spec");
        std::fs::write(
            &spec_path,
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:8\nmem = 2000\nf = 10\n",
        )
        .unwrap();
        let (sp, journal, csv_a, csv_b) = (
            spec_path.display().to_string(),
            dir.join("sweep.journal"),
            dir.join("a.csv"),
            dir.join("b.csv"),
        );

        // Reference run, then a journaled run "killed" mid-write.
        call(&format!("lab run --spec {sp} --out {}", csv_a.display())).unwrap();
        let out = call(&format!(
            "lab run --spec {sp} --journal {} --out {}",
            journal.display(),
            csv_b.display()
        ))
        .unwrap();
        assert!(out.contains("journal   :"), "{out}");
        assert!(out.contains("(0 runs replayed)"), "{out}");
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - 11]).unwrap();

        // Resume: replayed runs become cache hits, CSV bytes identical.
        let out = call(&format!(
            "lab run --spec {sp} --journal {} --resume --out {}",
            journal.display(),
            csv_b.display()
        ))
        .unwrap();
        assert!(!out.contains("(0 runs replayed)"), "{out}");
        assert!(out.contains("runs replayed)"), "{out}");
        assert!(!out.contains("cache     : hits=0 "), "{out}");
        assert_eq!(
            std::fs::read(&csv_a).unwrap(),
            std::fs::read(&csv_b).unwrap(),
            "resumed CSV must be byte-identical"
        );

        // --resume without --journal is a usage error.
        let err = call(&format!("lab run --spec {sp} --resume")).unwrap_err();
        assert!(err.contains("--resume requires --journal"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lab_run_resume_appends_only_what_the_journal_lacks() {
        let dir = std::env::temp_dir().join("psse-cli-lab-appended-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("nbody.spec");
        std::fs::write(
            &spec_path,
            "kind = model\nalg = nbody\nn = 10000\np = geom:6:100:8\nmem = 2000\nf = 10\n",
        )
        .unwrap();
        let journal = dir.join("sweep.journal");
        let run = |resume: &str| {
            call(&format!(
                "lab run --spec {} --jobs 1 --journal {}{resume} --profile off",
                spec_path.display(),
                journal.display(),
            ))
            .unwrap()
        };

        let out = run("");
        assert!(out.contains("appended  : 8 journal lines"), "{out}");
        let complete = std::fs::read(&journal).unwrap();

        // A complete journal resumes without growing, however often.
        for _ in 0..2 {
            let out = run(" --resume");
            assert!(out.contains("(8 runs replayed)"), "{out}");
            assert!(out.contains("appended  : 0 journal lines"), "{out}");
            assert_eq!(std::fs::read(&journal).unwrap(), complete);
        }

        // A torn tail costs exactly the torn run.
        std::fs::write(&journal, &complete[..complete.len() - 11]).unwrap();
        let out = run(" --resume");
        assert!(out.contains("(7 runs replayed)"), "{out}");
        assert!(out.contains("appended  : 1 journal lines"), "{out}");
        assert_eq!(std::fs::read(&journal).unwrap(), complete);

        // No journal, no line.
        let out = call(&format!(
            "lab run --spec {} --profile off",
            spec_path.display()
        ))
        .unwrap();
        assert!(!out.contains("appended  :"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lab_fsck_quarantines_corrupt_records_and_fails() {
        let dir = std::env::temp_dir().join("psse-cli-lab-fsck-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("tiny.spec");
        std::fs::write(
            &spec_path,
            "kind = model\nalg = matmul\nn = 1024\np = 4,8\n",
        )
        .unwrap();
        let cache = dir.join("cache");
        call(&format!(
            "lab run --spec {} --cache {} --profile off",
            spec_path.display(),
            cache.display()
        ))
        .unwrap();

        // A healthy cache passes.
        let out = call(&format!("lab fsck --cache {}", cache.display())).unwrap();
        assert!(out.contains("2 scanned, 2 ok, 0 corrupt"), "{out}");

        // Corrupt one record: dry-run reports without moving, the real
        // pass quarantines and exits nonzero.
        let rec = std::fs::read_dir(&cache)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "rec"))
            .unwrap();
        std::fs::write(&rec, "garbage\n").unwrap();
        let err = call(&format!("lab fsck --cache {} --dry-run", cache.display())).unwrap_err();
        assert!(err.contains("would quarantine"), "{err}");
        assert!(rec.exists(), "dry run must not move the record");
        let err = call(&format!("lab fsck --cache {}", cache.display())).unwrap_err();
        assert!(err.contains("1 corrupt record"), "{err}");
        assert!(!rec.exists(), "corrupt record must move to quarantine/");
        assert!(cache
            .join("quarantine")
            .join(rec.file_name().unwrap())
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lab_run_failed_keys_exit_nonzero_after_writing_outputs() {
        let dir = std::env::temp_dir().join("psse-cli-lab-fail-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("bad.spec");
        // p = 4 forms a valid 2×2 grid; p = 3 cannot — one key fails.
        std::fs::write(&spec_path, "kind = simulate\nalg = mm25d\nn = 8\np = 4,3\n").unwrap();
        let csv = dir.join("sweep.csv");
        let err = call(&format!(
            "lab run --spec {} --out {} --profile off",
            spec_path.display(),
            csv.display()
        ))
        .unwrap_err();
        assert!(err.contains("1 of 2 runs failed"), "{err}");
        assert!(err.contains("p=3"), "failure list names the key: {err}");
        // The CSV for the surviving run was still written.
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.lines().count() >= 2, "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lab_expand_lists_digests() {
        let dir = std::env::temp_dir().join("psse-cli-lab-expand-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("tiny.spec");
        std::fs::write(
            &spec_path,
            "kind = model\nalg = matmul\nn = 1024\np = 4,8\n",
        )
        .unwrap();
        let out = call(&format!("lab expand --spec {}", spec_path.display())).unwrap();
        assert!(out.contains("expands to 2 runs"), "{out}");
        // One 32-hex digest per run, all distinct.
        let digests: Vec<&str> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(digests.len(), 2, "{out}");
        assert!(digests.iter().all(|d| d.len() == 32), "{out}");
        assert_ne!(digests[0], digests[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lab_requires_action_and_spec() {
        assert!(call("lab").is_err());
        assert!(call("lab frobnicate").is_err());
        assert!(call("lab run").is_err());
        assert!(call("lab run --spec /nonexistent/file.spec").is_err());
    }

    #[test]
    fn tech_reports_generations() {
        let out = call("tech --target 75").unwrap();
        assert!(out.contains("generations"));
        assert!(out.contains("75"));
    }
}
