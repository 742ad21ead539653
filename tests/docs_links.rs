//! Markdown link and anchor checker over the top-level documentation.
//!
//! Every inline link in the shipped docs must resolve: relative paths
//! to files that exist in the repository, `#anchors` to headings that
//! GitHub's slugger would actually generate (in the same file or the
//! linked one). External `http(s)` URLs are skipped — the check must
//! work offline — but everything else is load-bearing: a stale
//! `[see DESIGN.md §10](DESIGN.md#10-...)` is a doc bug this test
//! catches at CI time.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};

/// The documentation set under check, all relative to the repo root.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "TUTORIAL.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "PAPER.md",
    "CHANGES.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// GitHub's heading slugger: lowercase, strip everything but
/// alphanumerics / hyphens / underscores / spaces, spaces to hyphens.
/// Repeated headings get `-1`, `-2`, ... suffixes.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// All anchors a markdown file exposes, with GitHub's duplicate
/// numbering. Headings inside fenced code blocks don't count.
fn anchors_of(text: &str) -> HashSet<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let trimmed = line.trim_start();
        let hashes = trimmed.chars().take_while(|&c| c == '#').count();
        if !(1..=6).contains(&hashes) || !trimmed[hashes..].starts_with(' ') {
            continue;
        }
        let base = slug(&trimmed[hashes + 1..]);
        let mut candidate = base.clone();
        let mut n = 0;
        while !seen.insert(candidate.clone()) {
            n += 1;
            candidate = format!("{base}-{n}");
        }
    }
    seen
}

/// Inline link targets in one line, with inline code spans removed so
/// shell snippets can't masquerade as links.
fn link_targets(line: &str) -> Vec<String> {
    let mut clean = String::new();
    let mut in_code = false;
    for c in line.chars() {
        if c == '`' {
            in_code = !in_code;
        } else if !in_code {
            clean.push(c);
        }
    }
    let mut out = Vec::new();
    let mut rest = clean.as_str();
    while let Some(pos) = rest.find("](") {
        rest = &rest[pos + 2..];
        let Some(end) = rest.find(')') else { break };
        out.push(rest[..end].trim().to_string());
        rest = &rest[end + 1..];
    }
    out
}

/// Check every link in `doc`; push one message per broken link.
fn check_doc(doc: &str, errors: &mut Vec<String>) {
    let root = repo_root();
    let text = match std::fs::read_to_string(root.join(doc)) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{doc}: unreadable: {e}"));
            return;
        }
    };
    let own_anchors = anchors_of(&text);
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for target in link_targets(line) {
            let target = target
                .trim_start_matches('<')
                .trim_end_matches('>')
                .to_string();
            if target.contains("://") || target.starts_with("mailto:") || target.is_empty() {
                continue;
            }
            let at = format!("{doc}:{}", lineno + 1);
            if let Some(anchor) = target.strip_prefix('#') {
                if !own_anchors.contains(anchor) {
                    errors.push(format!("{at}: broken anchor `#{anchor}`"));
                }
                continue;
            }
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a)),
                None => (target.as_str(), None),
            };
            let full = root.join(path_part);
            if !full.exists() {
                errors.push(format!("{at}: broken path `{path_part}`"));
                continue;
            }
            if let Some(anchor) = anchor {
                if Path::new(path_part).extension().is_some_and(|e| e == "md") {
                    let linked = std::fs::read_to_string(&full).unwrap_or_default();
                    if !anchors_of(&linked).contains(anchor) {
                        errors.push(format!("{at}: broken anchor `{path_part}#{anchor}`"));
                    }
                }
            }
        }
    }
}

#[test]
fn all_doc_links_and_anchors_resolve() {
    let mut errors = Vec::new();
    for doc in DOCS {
        check_doc(doc, &mut errors);
    }
    assert!(
        errors.is_empty(),
        "broken documentation links:\n  {}",
        errors.join("\n  ")
    );
}

/// Every `PSSE_[A-Z_]+` name in `text` (a trailing underscore is a
/// `PSSE_FOO_*` glob in prose, not a variable).
fn env_names(text: &str, out: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(pos) = rest.find("PSSE_") {
        let name: String = rest[pos..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
            .collect();
        rest = &rest[pos + name.len()..];
        if !name.ends_with('_') {
            out.insert(name);
        }
    }
}

fn env_names_in_sources(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            env_names_in_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            env_names(&std::fs::read_to_string(&path).unwrap(), out);
        }
    }
}

/// The workspace reads no environment variable, and stays that way: no
/// `PSSE_*` name in any crate's sources or the vendored shims, and
/// README's "Environment variables" section says so without naming one.
/// (`crates/ledger` is the benchmark instrument: it clears `PSSE_*`
/// before it measures and documents that itself.)
#[test]
fn readme_env_table_matches_the_sources() {
    let root = repo_root();
    let mut in_sources = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if krate.file_name().is_some_and(|n| n == "ledger") {
            continue;
        }
        env_names_in_sources(&krate.join("src"), &mut in_sources);
    }
    env_names_in_sources(&root.join("shims"), &mut in_sources);
    assert!(
        in_sources.is_empty(),
        "configuration belongs on the command line, not in {in_sources:?}"
    );
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let section = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README has an `Environment variables` section")
        .lines()
        .take_while(|l| !l.starts_with("## "))
        .collect::<Vec<_>>()
        .join(" ");
    assert!(
        section.contains("reads no environment variable"),
        "{section}"
    );
    let mut in_readme = BTreeSet::new();
    env_names(&section, &mut in_readme);
    assert!(in_readme.is_empty(), "README still documents {in_readme:?}");
}

/// The `--alg` column of README's workload catalog names exactly the
/// entries of the algorithm table — the list `psse help` prints and the
/// spec parser accepts (`psse-cli` holds its help text to the same
/// table in `help_alg_lists_are_the_algorithm_table`).
#[test]
fn readme_workload_catalog_matches_the_algorithm_table() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    let section = readme
        .split("\n## Workload catalog\n")
        .nth(1)
        .expect("README has a `Workload catalog` section");
    let mut in_readme = BTreeSet::new();
    for row in section
        .lines()
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| ") && !l.starts_with("| workload"))
    {
        let column = row.split('|').nth(2).expect("an `--alg` column");
        // Backticked words, i.e. the odd pieces of a split on '`'.
        in_readme.extend(column.split('`').skip(1).step_by(2).map(str::to_string));
    }
    let in_table: BTreeSet<String> = psse_algos::table::TABLE
        .iter()
        .map(|e| e.name.to_string())
        .collect();
    assert_eq!(in_readme, in_table);
}

#[test]
fn slugger_matches_github_conventions() {
    assert_eq!(slug("Observability"), "observability");
    assert_eq!(
        slug("10. Self-profiling & metrics"),
        "10-self-profiling--metrics"
    );
    assert_eq!(slug("`psse lab run`"), "psse-lab-run");
    assert_eq!(slug("Eq. 1 / Eq. 2 terms"), "eq-1--eq-2-terms");
}

#[test]
fn anchor_duplicates_get_numbered() {
    let text = "# Same\n## Same\n### Other\n";
    let a = anchors_of(text);
    assert!(a.contains("same"));
    assert!(a.contains("same-1"));
    assert!(a.contains("other"));
}

/// README's "Run vocabulary" table is `psse_lab::vocab`: every key the
/// flags and the spec lines share, in table order, with the default and
/// the accepted values the parsers use.
#[test]
fn readme_run_vocabulary_matches_the_table() {
    use psse_core::{machines::PRESETS, params::OVERRIDES};
    use psse_lab::vocab::*;
    let row = |key: &str, default: String, accepts: String| {
        // `fault-seed` is a spec key only: the sweep seeds its plan with
        // `--seed`.
        let flag = match key == FAULT_SEED.key {
            true => "—".to_string(),
            false => format!("`--{key}`"),
        };
        format!("| `{key}` | {flag} | `{key} =` | {default} | {accepts} |")
    };
    let presets: Vec<String> = PRESETS
        .iter()
        .map(|(name, _)| format!("`{name}`"))
        .collect();
    let mut want = vec![row(MACHINE, presets[0].clone(), presets.join(", "))];
    for o in &OVERRIDES {
        let accepts = format!("a number, {}; the machine must stay valid", o.unit);
        want.push(row(o.key, "the preset's".into(), accepts));
    }
    // Each rule's words; a spec's `c` is a list whose every element obeys it.
    let of = |p: &dyn Key, default: String| {
        let accepts = p.rule().0.to_string();
        match p.key() == C.key {
            true => row(
                p.key(),
                default,
                format!("{accepts}; in a spec, a list of them"),
            ),
            false => row(p.key(), default, accepts),
        }
    };
    let plain = |p: &Param<f64>| p.default.to_string();
    want.extend([
        of(&SEED, SEED.default.to_string()),
        of(&F, plain(&F)),
        of(&HALO, HALO.default.to_string()),
        of(&ITERS, ITERS.default.to_string()),
        of(&C, C.default.to_string()),
        of(&TIMEOUT, "none".into()),
        of(&FAULT_SEED, format!("`{}`", SEED.key)),
        of(&DROP_RATE, plain(&DROP_RATE)),
        of(&CORRUPT_RATE, plain(&CORRUPT_RATE)),
        of(&DUPLICATE_RATE, plain(&DUPLICATE_RATE)),
        of(&DELAY_RATE, plain(&DELAY_RATE)),
        of(&DELAY_SECONDS, plain(&DELAY_SECONDS)),
        of(&RETRIES, RETRIES.default.to_string()),
        of(&BACKOFF, plain(&BACKOFF)),
        of(
            &CHECKPOINT_INTERVAL,
            format!("{} (off)", plain(&CHECKPOINT_INTERVAL)),
        ),
        of(&CHECKPOINT_WORDS, CHECKPOINT_WORDS.default.to_string()),
    ]);
    // Every key, once, in the table's order.
    let listed: Vec<&str> = want.iter().map(|r| r.split('`').nth(1).unwrap()).collect();
    assert_eq!(listed, keys().collect::<Vec<_>>());

    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    let section = readme
        .split("\n## Run vocabulary\n")
        .nth(1)
        .expect("README has a `Run vocabulary` section");
    let rows: Vec<&str> = section
        .lines()
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| `"))
        .collect();
    assert_eq!(rows, want, "expected rows:\n{}", want.join("\n"));
}
