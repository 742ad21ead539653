//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::HashMap;

use psse_lab::vocab::{Values, INTEGER};

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand (first non-flag argument); `psse_cli::run` names
    /// the full command here (`trace record`).
    pub command: String,
    opts: HashMap<String, String>,
}

impl Args {
    /// Parse `argv` (without the program name). The first token is the
    /// subcommand; the rest must be `--key value` pairs (or bare
    /// `--flag`, stored with an empty value).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter().peekable();
        let command = it
            .next()
            .cloned()
            .ok_or_else(|| "no subcommand given; try `psse help`".to_string())?;
        if command.starts_with("--") {
            return Err(format!(
                "expected a subcommand before options, got {command}; try `psse help`"
            ));
        }
        let mut opts = HashMap::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {tok}"))?;
            if key.is_empty() {
                return Err("empty option name `--`".into());
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap(),
                _ => String::new(),
            };
            if opts.insert(key.to_string(), value).is_some() {
                return Err(format!("option --{key} given twice"));
            }
        }
        Ok(Args { command, opts })
    }

    /// Whether a bare flag (or any value) was supplied.
    pub fn has(&self, key: &str) -> bool {
        self.opts.contains_key(key)
    }

    /// Required string option.
    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.raw(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Required integer option, by the vocabulary's integer rule (a
    /// decimal literal, or an exact-integer float such as `1e6`).
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        Ok(INTEGER.parse(key, self.req(key)?)?)
    }

    /// Optional integer option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        Ok(self.value(key, INTEGER)?.unwrap_or(default))
    }

    /// Reject any option outside `allowed`, with a nearest-match hint —
    /// a silently ignored `--machne jaketown` is far worse than an
    /// error. Call once per command with its full key list.
    pub fn expect_keys(&self, allowed: &[&str]) -> Result<(), String> {
        // Deterministic order for reproducible error messages.
        let mut unknown: Vec<&str> = self
            .opts
            .keys()
            .map(String::as_str)
            .filter(|k| !allowed.contains(k))
            .collect();
        unknown.sort_unstable();
        let Some(key) = unknown.first() else {
            return Ok(());
        };
        let hint = suggest(key, allowed)
            .map(|cand| format!(" (did you mean --{cand}?)"))
            .unwrap_or_default();
        Err(format!(
            "unknown option --{key} for `{}`{hint}",
            self.command
        ))
    }

    /// Reject a `switches` flag given a value and any other flag given
    /// none, so an empty value never reaches a command.
    pub fn expect_shapes(&self, switches: &[&str]) -> Result<(), String> {
        let misshapen = |(key, value): &(&String, &String)| {
            switches.contains(&key.as_str()) != value.is_empty()
        };
        // The first in key order, for reproducible error messages.
        match self.opts.iter().filter(misshapen).min() {
            None => Ok(()),
            Some((key, value)) if value.is_empty() => Err(format!("--{key} needs a value")),
            Some((key, value)) => Err(format!("--{key} takes no value, got `{value}`")),
        }
    }
}

/// The flags are one of the two spellings of a run's vocabulary.
impl Values for Args {
    fn raw(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }
}

/// The candidate closest to `word` in edit distance, if close enough to
/// be a plausible typo (distance at most `max(len/2, 2)`). Shared by the
/// `--option` hints above and the command and action hints of `run`, so
/// `psse buond` and `psse trace replya` help exactly like `--machne` does.
pub fn suggest<'a>(word: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|cand| (levenshtein(word, cand), *cand))
        .min()
        .filter(|&(d, cand)| d <= (cand.len() / 2).max(2))
        .map(|(_, cand)| cand)
}

/// Classic dynamic-programming edit distance, small inputs only.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i;
        for j in 1..=b.len() {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = Args::parse(&argv("model --alg matmul --n 8192 --mem 1e6")).unwrap();
        assert_eq!(a.command, "model");
        assert_eq!(a.req("alg").unwrap(), "matmul");
        assert_eq!(a.req_u64("n").unwrap(), 8192);
        assert_eq!(a.value("mem", psse_lab::vocab::NUMBER).unwrap(), Some(1e6));
    }

    #[test]
    fn bare_flags_are_supported() {
        let a = Args::parse(&argv("simulate --verbose --n 4")).unwrap();
        assert!(a.has("verbose"));
        assert_eq!(a.req_u64("n").unwrap(), 4);
    }

    #[test]
    fn rejects_missing_subcommand_and_duplicates() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&argv("--alg matmul")).is_err());
        assert!(Args::parse(&argv("model --n 1 --n 2")).is_err());
        assert!(Args::parse(&argv("model stray")).is_err());
    }

    #[test]
    fn numeric_validation() {
        let a = Args::parse(&argv("m --x 1.5 --y -3 --z abc --w 1e3")).unwrap();
        assert!(a.req_u64("x").is_err());
        assert!(a.req_u64("y").is_err());
        assert!(a.value("z", psse_lab::vocab::NUMBER).is_err());
        assert_eq!(a.req_u64("w").unwrap(), 1000);
        assert!(a.req("missing").is_err());
    }

    #[test]
    fn expect_keys_accepts_known_and_rejects_unknown() {
        let a = Args::parse(&argv("model --alg matmul --n 8 --p 2")).unwrap();
        assert!(a.expect_keys(&["alg", "n", "p", "mem"]).is_ok());
        let err = a.expect_keys(&["alg", "n", "mem"]).unwrap_err();
        assert!(err.contains("--p"), "{err}");
        assert!(err.contains("model"), "{err}");
    }

    #[test]
    fn expect_keys_suggests_nearest_match() {
        let a = Args::parse(&argv("model --machne jaketown --n 8")).unwrap();
        let err = a.expect_keys(&["machine", "n", "p"]).unwrap_err();
        assert!(
            err.contains("did you mean --machine?"),
            "want a hint, got: {err}"
        );
        // A wildly different key gets no misleading hint.
        let a = Args::parse(&argv("model --zzzzqqqq 1 --n 8")).unwrap();
        let err = a.expect_keys(&["machine", "n", "p"]).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn expect_keys_reports_first_unknown_deterministically() {
        let a = Args::parse(&argv("m --zeta 1 --beta 2 --alpha 3")).unwrap();
        let err = a.expect_keys(&["n"]).unwrap_err();
        assert!(err.contains("--alpha"), "sorted order: {err}");
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", "abd"), 1);
        assert_eq!(levenshtein("gamma-t", "gamma-e"), 1);
        assert_eq!(levenshtein("machne", "machine"), 1);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn defaults() {
        let a = Args::parse(&argv("m --p 8")).unwrap();
        assert_eq!(a.u64_or("p", 1).unwrap(), 8);
        assert_eq!(a.u64_or("q", 7).unwrap(), 7);
        assert_eq!(a.get(&psse_lab::vocab::F).unwrap(), 20.0);
    }
}
