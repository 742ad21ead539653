//! The two spellings of a run — `psse`'s `--key value` flags and a sweep
//! spec's `key = value` lines — read through one table,
//! `psse_lab::vocab`. For every key, a valid value written either way
//! gives bit-equal machines, fault plans and run digests; a refused one
//! gives the same message behind a different prefix.

use proptest::prelude::*;
use psse_cli::args::Args;
use psse_core::{machines::PRESETS, params::OVERRIDES};
use psse_lab::prelude::{RunKey, SweepSpec};
use psse_lab::vocab::{
    self, Values, C, F, FAULT_KEYS, HALO, INTEGER, ITERS, POSITIVE, POSITIVE_INTEGER, RATE,
    RETRIES, RUN_KEYS, SECONDS, SEED, TIMEOUT,
};

/// How a key's value is checked: a preset name, a machine price, or a
/// rule (by what it accepts).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Machine,
    Override(usize),
    Rule(&'static str),
}

/// Every key of the vocabulary.
fn table() -> Vec<(&'static str, Kind)> {
    let mut keys = vec![(vocab::MACHINE, Kind::Machine)];
    keys.extend(
        OVERRIDES
            .iter()
            .enumerate()
            .map(|(i, o)| (o.key, Kind::Override(i))),
    );
    let params = RUN_KEYS.into_iter().chain(FAULT_KEYS);
    keys.extend(params.map(|p| (p.key(), Kind::Rule(p.rule().0))));
    keys
}

/// A value `kind` accepts, drawn from `bits` and `x ∈ [0, 1)`.
fn valid(key: &str, kind: Kind, bits: u64, x: f64) -> String {
    match kind {
        Kind::Machine => PRESETS[bits as usize % PRESETS.len()].0.to_string(),
        // Word counts are at least one (m ≥ 1); prices are positive.
        Kind::Override(i) if OVERRIDES[i].unit == "words" => format!("{}", 1.0 + x * 1e9),
        Kind::Override(_) => format!("{:e}", (x + 1e-3) * 1e-9),
        // A spec's `c` is a list, read through `f64`.
        Kind::Rule(_) if key == C.key => (1 + bits % 1_000_000).to_string(),
        // Integers also as exact floats (`7e3`); retry counts stop at 1023.
        Kind::Rule(a) if a == RETRIES.rule.accepts => match bits % 4 {
            0 => format!("{}e2", bits % 11),
            _ => (bits % 1024).to_string(),
        },
        Kind::Rule(a) if a.contains("integer") && bits.is_multiple_of(4) => {
            format!("{}e3", 1 + bits % 999)
        }
        Kind::Rule(a) if a == INTEGER.accepts => bits.to_string(),
        Kind::Rule(a) if a == POSITIVE_INTEGER.accepts => (1 + bits % 100_000).to_string(),
        Kind::Rule(a) if a == RATE.accepts => x.to_string(),
        Kind::Rule(a) if a == SECONDS.accepts => (x * 1e-3).to_string(),
        Kind::Rule(a) if a == POSITIVE.accepts => ((x + 1e-6) * 1e3).to_string(),
        Kind::Rule(a) => unreachable!("no valid value for a rule accepting {a}"),
    }
}

/// A value `kind` refuses, picked by `bits`.
fn invalid(kind: Kind, bits: u64) -> String {
    let pick = |options: &[&str]| options[bits as usize % options.len()].to_string();
    match kind {
        Kind::Machine => pick(&["pdp11", "Jaketown"]),
        Kind::Override(_) => pick(&["abc", "-1", "nan"]),
        Kind::Rule(a) if a == INTEGER.accepts => pick(&["-1", "2.5", "abc", "1e300", "inf"]),
        Kind::Rule(a) if a == RETRIES.rule.accepts => pick(&["1024", "4294967296", "1e12", "-1"]),
        Kind::Rule(a) if a == POSITIVE_INTEGER.accepts => pick(&["0", "-3", "2.5", "x"]),
        Kind::Rule(a) if a == RATE.accepts => pick(&["1.5", "-0.1", "nan", "r"]),
        Kind::Rule(a) if a == SECONDS.accepts => pick(&["-1", "inf", "nan", "s"]),
        Kind::Rule(a) if a == POSITIVE.accepts => pick(&["0", "-1", "inf", "nan"]),
        Kind::Rule(a) => unreachable!("no invalid value for a rule accepting {a}"),
    }
}

/// The run a `psse` command reads from `--key value`, with its timeout.
fn from_flags(key: &str, value: &str) -> Result<(RunKey, Option<f64>), String> {
    let argv: Vec<String> = ["cmd", &format!("--{key}"), value].map(String::from).into();
    let args = Args::parse(&argv)?;
    let (_, machine) = vocab::machine(&args)?;
    let seed = args.get(&SEED)?;
    let given = FAULT_KEYS.iter().any(|k| args.raw(k.key()).is_some());
    let faults = given
        .then(|| vocab::fault_plan(&args, vocab::default_plan(seed)))
        .transpose()?;
    let run = RunKey {
        c: args.get(&C)?,
        f: args.get(&F)?,
        halo: args.get(&HALO)?,
        iters: args.get(&ITERS)?,
        seed,
        faults: faults.map(std::sync::Arc::new),
        ..RunKey::simulate("mm25d", 16, 8, machine)
    };
    Ok((run, args.get(&TIMEOUT)?))
}

/// The run a spec reads from `key = value` on its line 5.
fn from_spec(key: &str, value: &str) -> Result<(RunKey, Option<f64>), String> {
    let text = format!("kind = simulate\nalg = mm25d\nn = 16\np = 8\n{key} = {value}\n");
    let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
    let runs = spec.expand();
    assert_eq!(runs.len(), 1, "{text}");
    Ok((runs[0].clone(), spec.timeout))
}

#[test]
fn the_table_is_the_vocabulary() {
    let listed: Vec<&str> = table().iter().map(|(key, _)| *key).collect();
    assert_eq!(listed, vocab::keys().collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_spellings_read_the_same_run(
        pick in 0usize..1000,
        bits in any::<u64>(),
        x in 0.0f64..1.0,
    ) {
        let table = table();
        let (key, kind) = table[pick % table.len()];
        let value = valid(key, kind, bits, x);
        let (flags, flag_timeout) = from_flags(key, &value).map_err(TestCaseError::fail)?;
        let (spec, spec_timeout) = from_spec(key, &value).map_err(TestCaseError::fail)?;
        prop_assert_eq!(flags.digest_bits(), spec.digest_bits(), "{} = {}", key, value);
        prop_assert_eq!(&flags.machine, &spec.machine, "{} = {}", key, value);
        prop_assert_eq!(&flags.faults, &spec.faults, "{} = {}", key, value);
        prop_assert_eq!(flag_timeout.map(f64::to_bits), spec_timeout.map(f64::to_bits));
    }

    #[test]
    fn both_spellings_refuse_alike(pick in 0usize..1000, bits in any::<u64>()) {
        let table = table();
        let (key, kind) = table[pick % table.len()];
        let value = invalid(kind, bits);
        // A spec's `c` is a list (`c = 1..4`): a word is not a list atom.
        prop_assume!(key != C.key || value != "x");
        let flag = from_flags(key, &value).map(drop).unwrap_err();
        let spec = from_spec(key, &value).map(drop).unwrap_err();
        let flag_rest = flag.strip_prefix(&format!("--{key} ")).unwrap_or_default();
        let spec_prefix = format!("spec error (line 5): `{key}` ");
        let spec_rest = spec.strip_prefix(&spec_prefix).unwrap_or_default();
        prop_assert!(!flag_rest.is_empty(), "{} = {}: {}", key, value, flag);
        prop_assert_eq!(flag_rest, spec_rest, "{} = {}", key, value);
    }
}
