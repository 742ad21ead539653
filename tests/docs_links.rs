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

/// The docs whose `psse-<crate>::path` names must resolve. ROADMAP,
/// PAPER and CHANGES are left out: they name proposed and past items.
const CODE_DOCS: &[&str] = &["README.md", "DESIGN.md", "TUTORIAL.md", "EXPERIMENTS.md"];

/// Parse the use-tree at the start of `s` (`a::b`, `a::{b, c::d}`,
/// `a::*`) below `prefix`, pushing each path it names to `out`; returns
/// the bytes consumed.
fn use_tree(s: &str, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) -> usize {
    let depth = prefix.len();
    let mut i = 0;
    loop {
        let seg: String = s[i..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if seg.is_empty() {
            break;
        }
        i += seg.len();
        prefix.push(seg);
        if !s[i..].starts_with("::") {
            out.push(prefix.clone());
            prefix.truncate(depth);
            return i;
        }
        i += 2;
    }
    if s[i..].starts_with('{') {
        i += 1;
        loop {
            i += s[i..].len() - s[i..].trim_start().len();
            i += use_tree(&s[i..], prefix, out);
            match s[i..].chars().next() {
                Some(',') => i += 1,
                Some('}') => break i += 1,
                _ => break,
            }
        }
    } else if !prefix.is_empty() {
        // `a::*` or a bare `a::`: the path so far.
        out.push(prefix.clone());
    }
    prefix.truncate(depth);
    i
}

/// Every `psse-<crate>::a::b` or `psse_<crate>::a::b` path in `line`,
/// as `(crate, segments)`; a `{..}` group yields one path per member.
fn crate_paths(line: &str) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("psse") {
        rest = &rest[pos + 4..];
        let Some(tail) = rest.strip_prefix(['-', '_']) else {
            continue;
        };
        let name: String = tail
            .chars()
            .take_while(|c| c.is_ascii_lowercase())
            .collect();
        let Some(tree) = tail[name.len()..].strip_prefix("::") else {
            continue;
        };
        let mut paths = Vec::new();
        rest = &tree[use_tree(tree, &mut Vec::new(), &mut paths)..];
        out.extend(paths.into_iter().map(|p| (name.clone(), p)));
    }
    out
}

/// The names a Rust source declares or re-exports: each identifier
/// after `fn`, `struct`, `enum`, `trait`, `type`, `const`, `static` or
/// `mod`, and every identifier of a `pub use` item.
fn declared(text: &str, out: &mut HashSet<String>) {
    const ITEM: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let words = |s: &str| {
        s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    for pair in words(text).windows(2) {
        if ITEM.contains(&pair[0].as_str()) {
            out.insert(pair[1].clone());
        }
    }
    for (k, _) in text.match_indices("pub use ") {
        let item = &text[k..];
        out.extend(words(&item[..item.find(';').unwrap_or(item.len())]));
    }
}

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Does `path` name a module, a file or an item of the crate whose
/// sources are `src`? Module segments are walked by file (`a.rs`,
/// `a/mod.rs`); the first segment that is no module file must be
/// declared or re-exported by the module it is in, and any after it (a
/// method, an inline module's item) somewhere in the crate.
fn resolves(src: &Path, path: &[String]) -> bool {
    let read = |f: &Path| std::fs::read_to_string(f).unwrap();
    let mut dir = src.to_path_buf();
    let mut file = src.join("lib.rs");
    if !file.exists() {
        file = src.join("main.rs");
    }
    for (k, seg) in path.iter().enumerate() {
        let module = [dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs")]
            .into_iter()
            .find(|f| f.exists());
        if let Some(module) = module {
            (dir, file) = (dir.join(seg), module);
            continue;
        }
        let mut here = HashSet::new();
        declared(&read(&file), &mut here);
        let mut anywhere = HashSet::new();
        let mut files = Vec::new();
        rust_files(src, &mut files);
        for f in &files {
            declared(&read(f), &mut anywhere);
        }
        return here.contains(seg) && path[k + 1..].iter().all(|s| anywhere.contains(s));
    }
    true
}

/// Every `psse-<crate>::a::b` in README, DESIGN, TUTORIAL and
/// EXPERIMENTS names a file, a module or an item that `crates/<crate>/src`
/// defines or re-exports.
#[test]
fn doc_crate_paths_name_what_the_sources_define() {
    let root = repo_root();
    let mut errors = Vec::new();
    for doc in CODE_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (lineno, line) in text.lines().enumerate() {
            for (krate, path) in crate_paths(line) {
                let src = root.join("crates").join(&krate).join("src");
                if !src.is_dir() || !resolves(&src, &path) {
                    let at = format!("{doc}:{}", lineno + 1);
                    errors.push(format!("{at}: `psse-{krate}::{}`", path.join("::")));
                }
            }
        }
    }
    assert!(
        errors.is_empty(),
        "names no crate source defines:\n  {}",
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
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    for path in files {
        env_names(&std::fs::read_to_string(&path).unwrap(), out);
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
fn crate_paths_expand_groups_and_globs() {
    let path = |k: &str, p: &[&str]| (k.to_string(), p.iter().map(|s| s.to_string()).collect());
    let line = "`psse-sim::{a, b::{c, d}}`, `psse_core::e::*` and `psse-lab` alone";
    assert_eq!(
        crate_paths(line),
        [
            path("sim", &["a"]),
            path("sim", &["b", "c"]),
            path("sim", &["b", "d"]),
            path("core", &["e"]),
        ]
    );
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
