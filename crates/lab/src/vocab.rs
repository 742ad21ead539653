//! The run vocabulary: every named run parameter with its value rule
//! and default. `psse`'s `--key value` flags and a sweep spec's
//! `key = value` lines only supply the text ([`Values`]); this table
//! reads it, so both accept the same values, default alike and refuse
//! with the same message behind their own prefix (`--key`, or the spec
//! line). The machine presets and overrides live beside
//! [`MachineParams`] ([`PRESETS`], [`OVERRIDES`]).

use psse_core::machines::PRESETS;
use psse_core::params::{MachineParams, OVERRIDES};
use psse_faults::MAX_RETRIES;
use psse_sim::prelude::{CheckpointPolicy, FaultPlan, FaultSpec, RecoveryPolicy};

/// What a key's text must be, and the value it reads it into.
#[derive(Debug)]
pub struct Rule<T> {
    /// What the rule accepts, as its error message and the README say it.
    pub accepts: &'static str,
    /// The value's placeholder in `psse help`.
    pub metavar: &'static str,
    read: fn(&str) -> Option<T>,
}

// Copied whatever `T` is: a rule is two strings and a function.
impl<T> Clone for Rule<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Rule<T> {}

impl<T> Rule<T> {
    /// `key`'s `text` read by this rule.
    pub fn parse(&self, key: &str, text: &str) -> Result<T, ParamError> {
        (self.read)(text)
            .ok_or_else(|| ParamError::new(key, format!("must be {}, got `{text}`", self.accepts)))
    }
}

/// An exact integer: a decimal `u64` literal, or a number that is an
/// exact integer no larger than 2^53 (`1e6`).
fn integer(text: &str) -> Option<u64> {
    text.parse().ok().or_else(|| {
        let x: f64 = text.parse().ok()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64)
    })
}

/// Any number Rust's `f64` parser reads (`1e-9`, `inf`, `nan`).
fn number(text: &str) -> Option<f64> {
    text.parse().ok()
}

/// Any `u64`: a decimal literal, read exactly, or a number that is an
/// exact integer no larger than 2^53 (`1e6`).
pub const INTEGER: Rule<u64> = Rule {
    accepts: "a non-negative integer",
    metavar: "N",
    read: integer,
};
/// An integer of at least 1.
pub const POSITIVE_INTEGER: Rule<u64> = Rule {
    accepts: "a positive integer",
    metavar: "N",
    read: |text| integer(text).filter(|&v| v >= 1),
};
/// A probability in [0, 1].
pub const RATE: Rule<f64> = Rule {
    accepts: "a rate in [0, 1]",
    metavar: "R",
    read: |text| number(text).filter(|x| (0.0..=1.0).contains(x)),
};
/// A finite number of seconds, at least 0.
pub const SECONDS: Rule<f64> = Rule {
    accepts: "a finite, non-negative number of seconds",
    metavar: "S",
    read: |text| number(text).filter(|x| *x >= 0.0 && x.is_finite()),
};
/// A finite number above 0.
pub const POSITIVE: Rule<f64> = Rule {
    accepts: "a finite, positive number",
    metavar: "X",
    read: |text| number(text).filter(|x| *x > 0.0 && x.is_finite()),
};
/// A retry count, spelled as for [`INTEGER`]: at most [`MAX_RETRIES`],
/// past which a retry's exponential backoff is no longer a number.
pub const RETRY_COUNT: Rule<u32> = Rule {
    accepts: "an integer in [0, 1023]",
    metavar: "N",
    read: |text| integer(text)?.try_into().ok().filter(|&n| n <= MAX_RETRIES),
};
/// Any number: a machine price, which the machine validates.
pub const NUMBER: Rule<f64> = Rule {
    accepts: "a number",
    metavar: "X",
    read: number,
};

/// One named run parameter, read as a `T`; unset, it is `default`.
#[derive(Debug, Clone, Copy)]
pub struct Param<T, D = T> {
    /// `--key` on the command line, `key =` in a spec.
    pub key: &'static str,
    /// What its value must be.
    pub rule: Rule<T>,
    /// Its value when unset (`None`: no fixed default).
    pub default: D,
}

impl<T, D> Param<T, D> {
    const fn new(key: &'static str, rule: Rule<T>, default: D) -> Param<T, D> {
        Param { key, rule, default }
    }
}

/// A [`Param`] of any type, as the lists of keys show it.
pub trait Key {
    /// `--key` on the command line, `key =` in a spec.
    fn key(&self) -> &'static str;
    /// What its rule accepts and its placeholder.
    fn rule(&self) -> (&'static str, &'static str);
}

impl<T, D> Key for Param<T, D> {
    fn key(&self) -> &'static str {
        self.key
    }

    fn rule(&self) -> (&'static str, &'static str) {
        (self.rule.accepts, self.rule.metavar)
    }
}

/// The machine preset key; its values are [`PRESETS`], the first the default.
pub const MACHINE: &str = "machine";

/// Input seed of a simulated run.
pub const SEED: Param<u64> = Param::new("seed", INTEGER, 42);
/// n-body flops per interaction.
pub const F: Param<f64> = Param::new("f", POSITIVE, 20.0);
/// Stencil halo width. With [`ITERS`]' default it adds nothing to a digest.
pub const HALO: Param<u64> = Param::new("halo", POSITIVE_INTEGER, 1);
/// Stencil sweep count.
pub const ITERS: Param<u64> = Param::new("iters", POSITIVE_INTEGER, 4);
/// Replication factor (a list in a spec).
pub const C: Param<u64> = Param::new("c", POSITIVE_INTEGER, 1);
/// Per-run wall-clock budget in seconds; unset, a run is never cancelled.
pub const TIMEOUT: Param<f64, Option<f64>> = Param::new("timeout", POSITIVE, None);

/// Fault-decision seed; unset, the run's [`SEED`].
pub const FAULT_SEED: Param<u64, Option<u64>> = Param::new("fault-seed", INTEGER, None);
/// Probability a transfer is dropped.
pub const DROP_RATE: Param<f64> = Param::new("drop-rate", RATE, 0.0);
/// Probability a transfer is corrupted.
pub const CORRUPT_RATE: Param<f64> = Param::new("corrupt-rate", RATE, 0.0);
/// Probability a transfer is duplicated.
pub const DUPLICATE_RATE: Param<f64> = Param::new("duplicate-rate", RATE, 0.0);
/// Probability a transfer is delayed.
pub const DELAY_RATE: Param<f64> = Param::new("delay-rate", RATE, 0.0);
/// The stall of a delayed transfer.
pub const DELAY_SECONDS: Param<f64> = Param::new("delay-seconds", SECONDS, 0.0);
/// Retries after a failed transfer attempt (0 turns the ack protocol off).
pub const RETRIES: Param<u32> = Param::new("retries", RETRY_COUNT, 16);
/// Base backoff before a retry.
pub const BACKOFF: Param<f64> = Param::new("backoff", SECONDS, 0.0);
/// Checkpoint interval; 0 turns checkpointing off.
pub const CHECKPOINT_INTERVAL: Param<f64> = Param::new("checkpoint-interval", SECONDS, 0.0);
/// Words each rank writes per checkpoint.
pub const CHECKPOINT_WORDS: Param<u64> = Param::new("checkpoint-words", INTEGER, 0);

/// The run keys outside the machine and the fault plan.
pub const RUN_KEYS: [&dyn Key; 6] = [&SEED, &F, &HALO, &ITERS, &C, &TIMEOUT];

/// The keys [`fault_plan`] reads; any one of them puts a plan on a spec.
pub const FAULT_KEYS: [&dyn Key; 10] = [
    &FAULT_SEED,
    &DROP_RATE,
    &CORRUPT_RATE,
    &DUPLICATE_RATE,
    &DELAY_RATE,
    &DELAY_SECONDS,
    &RETRIES,
    &BACKOFF,
    &CHECKPOINT_INTERVAL,
    &CHECKPOINT_WORDS,
];

/// `machine` and its overrides: the keys [`machine`] reads.
pub fn machine_keys() -> impl Iterator<Item = &'static str> {
    std::iter::once(MACHINE).chain(OVERRIDES.iter().map(|o| o.key))
}

/// Every key of the vocabulary.
pub fn keys() -> impl Iterator<Item = &'static str> {
    let params = RUN_KEYS.into_iter().chain(FAULT_KEYS);
    machine_keys().chain(params.map(|p| p.key()))
}

/// A key whose text its rule refuses, or that makes the machine or the
/// fault plan invalid. The command line puts `--key` in front of the
/// message, a spec the key's line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    /// The key at fault; `None` when the fault plan as a whole is.
    pub key: Option<String>,
    /// What is wrong, after the key.
    pub message: String,
}

impl ParamError {
    fn new(key: &str, message: String) -> ParamError {
        ParamError {
            key: Some(key.to_string()),
            message,
        }
    }
}

/// The command-line spelling: `--key` in front of the message.
impl From<ParamError> for String {
    fn from(e: ParamError) -> String {
        match e.key {
            Some(key) => format!("--{key} {}", e.message),
            None => e.message,
        }
    }
}

/// The raw text of a run's keys, from one of its two spellings.
pub trait Values {
    /// The text given for `key`, if any.
    fn raw(&self, key: &str) -> Option<&str>;

    /// `key`'s text read by `rule`, if given.
    fn value<T>(&self, key: &str, rule: Rule<T>) -> Result<Option<T>, ParamError> {
        self.raw(key).map(|text| rule.parse(key, text)).transpose()
    }

    /// `p`'s value: the one given, else its default.
    fn get<T, D: From<T> + Copy>(&self, p: &Param<T, D>) -> Result<D, ParamError> {
        Ok(self.value(p.key, p.rule)?.map_or(p.default, D::from))
    }
}

/// The machine `machine` names, with every override given applied. Each
/// override is validated as it lands, so an invalid machine is blamed on
/// the key that made it so.
pub fn machine(v: &impl Values) -> Result<(&'static str, MachineParams), ParamError> {
    let text = v.raw(MACHINE).unwrap_or(PRESETS[0].0);
    let Some(&(name, build)) = PRESETS.iter().find(|(name, _)| *name == text) else {
        let names = PRESETS.map(|(name, _)| name).join("|");
        let message = format!("must be one of {names}, got `{text}`");
        return Err(ParamError::new(MACHINE, message));
    };
    let mut mp = build();
    override_machine(v, &mut mp)?;
    Ok((name, mp))
}

/// Apply every override given to `mp`, validating each as it lands.
pub fn override_machine(v: &impl Values, mp: &mut MachineParams) -> Result<(), ParamError> {
    for o in &OVERRIDES {
        if let Some(x) = v.value(o.key, NUMBER)? {
            *(o.field)(mp) = x;
            mp.validate()
                .map_err(|e| ParamError::new(o.key, format!("must keep the machine valid: {e}")))?;
        }
    }
    Ok(())
}

/// The plan of a run whose fault keys are all at their defaults,
/// drawing its faults from `seed`.
pub fn default_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        spec: FaultSpec {
            seed,
            drop_rate: DROP_RATE.default,
            corrupt_rate: CORRUPT_RATE.default,
            duplicate_rate: DUPLICATE_RATE.default,
            delay_rate: DELAY_RATE.default,
            delay_seconds: DELAY_SECONDS.default,
            crashes: Vec::new(),
        },
        recovery: RecoveryPolicy {
            max_retries: RETRIES.default,
            retry_backoff: BACKOFF.default,
            checkpoint: None,
        },
    }
}

/// `plan` — the caller's defaults, [`default_plan`] or a command's own —
/// with each fault key given in place of its field. A checkpoint policy
/// in `plan` with interval 0 is off, and supplies the words and restart
/// price of the one `checkpoint-interval` turns on.
pub fn fault_plan(v: &impl Values, mut plan: FaultPlan) -> Result<FaultPlan, ParamError> {
    fn set<T, D>(v: &impl Values, p: &Param<T, D>, field: &mut T) -> Result<(), ParamError> {
        if let Some(x) = v.value(p.key, p.rule)? {
            *field = x;
        }
        Ok(())
    }
    let s = &mut plan.spec;
    set(v, &FAULT_SEED, &mut s.seed)?;
    set(v, &DROP_RATE, &mut s.drop_rate)?;
    set(v, &CORRUPT_RATE, &mut s.corrupt_rate)?;
    set(v, &DUPLICATE_RATE, &mut s.duplicate_rate)?;
    set(v, &DELAY_RATE, &mut s.delay_rate)?;
    set(v, &DELAY_SECONDS, &mut s.delay_seconds)?;
    let r = &mut plan.recovery;
    set(v, &RETRIES, &mut r.max_retries)?;
    set(v, &BACKOFF, &mut r.retry_backoff)?;
    let mut checkpoint = r.checkpoint.take().unwrap_or(CheckpointPolicy {
        interval: CHECKPOINT_INTERVAL.default,
        words: CHECKPOINT_WORDS.default,
        restart_seconds: 0.0,
    });
    set(v, &CHECKPOINT_INTERVAL, &mut checkpoint.interval)?;
    set(v, &CHECKPOINT_WORDS, &mut checkpoint.words)?;
    r.checkpoint = (checkpoint.interval > 0.0).then_some(checkpoint);
    // Each key passed its own rule; what is left is the rates' sum.
    plan.validate().map_err(|e| ParamError {
        key: None,
        message: format!("bad fault plan: {e}"),
    })?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_exact_or_refused() {
        // Every decimal u64 literal, exactly; floats only up to 2^53.
        assert_eq!(integer("18446744073709551615"), Some(u64::MAX));
        assert_eq!(integer("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(integer("1e6"), Some(1_000_000));
        assert_eq!(integer("9007199254740992.0"), Some(1 << 53));
        for refused in ["-3", "2.7", "1e16", "inf", "nan", "", "0x10"] {
            assert_eq!(integer(refused), None, "{refused}");
        }
        assert_eq!(RETRIES.rule.parse("retries", "1023"), Ok(MAX_RETRIES));
        assert!(RETRY_COUNT.accepts.ends_with(&format!("{MAX_RETRIES}]")));
        for refused in ["1024", "4294967295", "1e12"] {
            assert!(RETRIES.rule.parse("retries", refused).is_err(), "{refused}");
        }
        assert!(POSITIVE_INTEGER.parse("halo", "0").is_err());
    }

    #[test]
    fn every_default_passes_its_own_rule() {
        fn passes<T: std::fmt::Display + Copy>(p: Param<T>) {
            let text = p.default.to_string();
            assert!(p.rule.parse(p.key, &text).is_ok(), "{} = {text}", p.key);
        }
        [SEED, HALO, ITERS, C, CHECKPOINT_WORDS]
            .into_iter()
            .for_each(passes);
        let seconds = [DELAY_SECONDS, BACKOFF, CHECKPOINT_INTERVAL];
        [F, DROP_RATE, CORRUPT_RATE, DUPLICATE_RATE, DELAY_RATE]
            .into_iter()
            .chain(seconds)
            .for_each(passes);
        passes(RETRIES);
    }

    #[test]
    fn an_invalid_machine_is_blamed_on_its_override() {
        let flags = [
            ("machine", "cluster-node"),
            ("beta-e", "2e-9"),
            ("max-message", "0.5"),
        ];
        let source = Pairs(&flags);
        let err = machine(&source).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("max-message"));
        assert!(
            err.message.contains("max_message_words = 0.5"),
            "{}",
            err.message
        );
        let (name, mp) = machine(&Pairs(&flags[..2])).unwrap();
        assert_eq!((name, mp.beta_e), ("cluster-node", 2e-9));
    }

    #[test]
    fn rates_that_sum_past_one_blame_the_plan() {
        let flags = [("drop-rate", "0.6"), ("corrupt-rate", "0.6")];
        let err = fault_plan(&Pairs(&flags), default_plan(1)).unwrap_err();
        assert_eq!(err.key, None);
        assert!(err.message.contains("sum"), "{}", err.message);
        // Unset keys keep the base plan's fields, `fault-seed` its seed.
        let plan = fault_plan(&Pairs(&flags[..1]), default_plan(7)).unwrap();
        assert_eq!(
            (plan.spec.seed, plan.recovery.max_retries),
            (7, RETRIES.default)
        );
        assert!(plan.recovery.checkpoint.is_none());
    }

    #[test]
    fn an_interval_turns_on_the_base_checkpoint() {
        let mut base = default_plan(1);
        base.recovery.checkpoint = Some(CheckpointPolicy {
            interval: 0.0,
            words: 64,
            restart_seconds: 2.0,
        });
        let off = fault_plan(&Pairs(&[]), base.clone()).unwrap();
        assert_eq!(off.recovery.checkpoint, None);
        let on = fault_plan(&Pairs(&[("checkpoint-interval", "1e-6")]), base).unwrap();
        let cp = on.recovery.checkpoint.unwrap();
        assert_eq!((cp.interval, cp.words, cp.restart_seconds), (1e-6, 64, 2.0));
    }

    struct Pairs<'a>(&'a [(&'a str, &'a str)]);

    impl Values for Pairs<'_> {
        fn raw(&self, key: &str) -> Option<&str> {
            self.0.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
        }
    }
}
