//! The trace parser as it was before the field cursor: every line
//! split with `split_whitespace` into a `Vec`, then parsed by index.
//! Kept as the reference `Trace::from_text` must agree with — the same
//! `Trace` or the same error message — on every input, and checked
//! against it on seeded mutations of the recorded fixtures.
//!
//! It is the old code unchanged except for the two lines marked "Not in
//! the original": `params` and `hier` values are validated on their
//! line, as `from_text` now does.

use crate::error::{TraceError, TraceResult};
use crate::trace::{ReplayHierarchy, ReplayParams, Trace};
use psse_sim::record::{EventKind, TimedEvent};

pub(crate) fn from_text(text: &str) -> TraceResult<Trace> {
    let n_lines = text.lines().count();
    let mut lines = text.lines().enumerate();
    let mut next = |expect: &str| -> TraceResult<(usize, &str)> {
        lines
            .next()
            .map(|(i, l)| (i + 1, l))
            .ok_or_else(|| TraceError::Parse {
                line: 0,
                msg: format!("unexpected end of input, expected {expect}"),
            })
    };

    let (ln, header) = next("header")?;
    if header.trim() != "psse-trace v1" {
        return Err(TraceError::Parse {
            line: ln,
            msg: format!("bad header {header:?}, expected \"psse-trace v1\""),
        });
    }
    let (ln, l) = next("p")?;
    let p = declared_count(ln, "ranks", parse_field(ln, l, "p")?, n_lines)?;
    let (ln, l) = next("makespan")?;
    let makespan = parse_secs(ln, keyword_fields(ln, l, "makespan", 1)?[0])?;
    let (ln, l) = next("params")?;
    let toks = keyword_fields(ln, l, "params", 4)?;
    let mut params = ReplayParams {
        gamma_t: parse_tok(ln, toks[0])?,
        beta_t: parse_tok(ln, toks[1])?,
        alpha_t: parse_tok(ln, toks[2])?,
        max_message_words: parse_tok(ln, toks[3])?,
        hierarchy: None,
    };
    // Not in the original: params are validated on their line.
    params.validate().map_err(|e| match e {
        TraceError::InvalidParams(msg) => TraceError::Parse { line: ln, msg },
        e => e,
    })?;

    let mut events: Vec<Vec<TimedEvent>> = Vec::with_capacity(p);
    let mut pending_rank: Option<(usize, usize)> = None; // (line, remaining)
    for (i0, raw) in lines {
        let ln = i0 + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let kw = it.next().expect("non-empty line");
        let rest: Vec<&str> = it.collect();
        if let Some((_, remaining)) = pending_rank {
            if remaining > 0 {
                // Must be an event line.
                let ev = parse_event(ln, kw, &rest)?;
                events.last_mut().expect("rank open").push(ev);
                pending_rank = Some((ln, remaining - 1));
                continue;
            }
        }
        match kw {
            "hier" => {
                if rest.len() != 3 {
                    return Err(TraceError::Parse {
                        line: ln,
                        msg: "hier takes 3 fields".into(),
                    });
                }
                params.hierarchy = Some(ReplayHierarchy {
                    cores_per_node: parse_tok(ln, rest[0])?,
                    intra_beta_t: parse_tok(ln, rest[1])?,
                    intra_alpha_t: parse_tok(ln, rest[2])?,
                });
                // Not in the original: so is the hierarchy.
                if let Some(h) = &params.hierarchy {
                    h.validate()
                        .map_err(|msg| TraceError::Parse { line: ln, msg })?;
                }
            }
            "rank" => {
                if rest.len() != 2 {
                    return Err(TraceError::Parse {
                        line: ln,
                        msg: "rank takes 2 fields".into(),
                    });
                }
                let id: usize = parse_tok(ln, rest[0])?;
                if id != events.len() {
                    return Err(TraceError::Parse {
                        line: ln,
                        msg: format!("rank {id} out of order, expected {}", events.len()),
                    });
                }
                let n = declared_count(ln, "events", parse_tok(ln, rest[1])?, n_lines)?;
                events.push(Vec::with_capacity(n));
                pending_rank = Some((ln, n));
            }
            _ => {
                return Err(TraceError::Parse {
                    line: ln,
                    msg: format!("unexpected keyword {kw:?}"),
                });
            }
        }
    }
    if let Some((ln, remaining)) = pending_rank {
        if remaining > 0 {
            return Err(TraceError::Parse {
                line: ln,
                msg: format!("{remaining} event lines missing"),
            });
        }
    }
    if events.len() != p {
        return Err(TraceError::Parse {
            line: 2,
            msg: format!("{} rank sections for p = {p}", events.len()),
        });
    }
    Ok(Trace {
        p,
        params,
        makespan,
        events,
    })
}

/// A count declared on line `line` sizes an allocation, and each thing
/// it counts takes at least one later line: reject a count the rest of
/// the input cannot hold before reserving anything for it.
fn declared_count(line: usize, what: &str, n: usize, n_lines: usize) -> TraceResult<usize> {
    let left = n_lines.saturating_sub(line);
    if n > left {
        return Err(TraceError::Parse {
            line,
            msg: format!("{n} {what} declared but only {left} lines follow"),
        });
    }
    Ok(n)
}

fn parse_tok<T: std::str::FromStr>(line: usize, tok: &str) -> TraceResult<T> {
    tok.parse().map_err(|_| TraceError::Parse {
        line,
        msg: format!("cannot parse {tok:?}"),
    })
}

/// A time or a duration: finite and not negative, as every one a run
/// records is (a NaN would reach the Chrome export as `NaN`, which is
/// not JSON).
fn parse_secs(line: usize, tok: &str) -> TraceResult<f64> {
    let x: f64 = parse_tok(line, tok)?;
    if !(x.is_finite() && x >= 0.0) {
        return Err(TraceError::Parse {
            line,
            msg: format!("{tok:?} is not a finite, non-negative time"),
        });
    }
    Ok(x)
}

/// Parse a `keyword value` line, returning the value.
fn parse_field<T: std::str::FromStr>(line: usize, l: &str, kw: &str) -> TraceResult<T> {
    let toks = keyword_fields(line, l, kw, 1)?;
    parse_tok(line, toks[0])
}

/// Split a `keyword f1 f2 ...` line, checking the keyword and arity.
fn keyword_fields<'a>(line: usize, l: &'a str, kw: &str, n: usize) -> TraceResult<Vec<&'a str>> {
    let mut it = l.split_whitespace();
    if it.next() != Some(kw) {
        return Err(TraceError::Parse {
            line,
            msg: format!("expected {kw:?} line, got {l:?}"),
        });
    }
    let toks: Vec<&str> = it.collect();
    if toks.len() != n {
        return Err(TraceError::Parse {
            line,
            msg: format!("{kw} takes {n} fields, got {}", toks.len()),
        });
    }
    Ok(toks)
}

fn parse_event(ln: usize, kw: &str, rest: &[&str]) -> TraceResult<TimedEvent> {
    let need = |n: usize| -> TraceResult<()> {
        if rest.len() != n {
            return Err(TraceError::Parse {
                line: ln,
                msg: format!("event {kw:?} takes {n} fields, got {}", rest.len()),
            });
        }
        Ok(())
    };
    let ev = match kw {
        "C" => {
            need(3)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::Compute {
                    flops: parse_tok(ln, rest[2])?,
                },
            }
        }
        "S" => {
            need(5)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::Send {
                    dest: parse_tok(ln, rest[2])?,
                    tag: parse_tok(ln, rest[3])?,
                    words: parse_tok(ln, rest[4])?,
                },
            }
        }
        "R" => {
            need(6)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::Recv {
                    src: parse_tok(ln, rest[2])?,
                    tag: parse_tok(ln, rest[3])?,
                    words: parse_tok(ln, rest[4])?,
                    msgs: parse_tok(ln, rest[5])?,
                },
            }
        }
        "A" => {
            need(3)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::Alloc {
                    words: parse_tok(ln, rest[2])?,
                },
            }
        }
        "F" => {
            need(3)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::Free {
                    words: parse_tok(ln, rest[2])?,
                },
            }
        }
        "B" | "E" => {
            need(2)?;
            let t = parse_secs(ln, rest[0])?;
            let op = rest[1].to_string();
            TimedEvent {
                t_start: t,
                t_end: t,
                kind: if kw == "B" {
                    EventKind::CollBegin { op }
                } else {
                    EventKind::CollEnd { op }
                },
            }
        }
        "Y" => {
            need(7)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::Retry {
                    dest: parse_tok(ln, rest[2])?,
                    tag: parse_tok(ln, rest[3])?,
                    attempt: parse_tok(ln, rest[4])?,
                    words: parse_tok(ln, rest[5])?,
                    backoff: parse_secs(ln, rest[6])?,
                },
            }
        }
        "D" => {
            need(3)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::LinkDelay {
                    seconds: parse_secs(ln, rest[2])?,
                },
            }
        }
        "K" => {
            need(3)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::Checkpoint {
                    words: parse_tok(ln, rest[2])?,
                },
            }
        }
        "X" => {
            need(4)?;
            TimedEvent {
                t_start: parse_secs(ln, rest[0])?,
                t_end: parse_secs(ln, rest[1])?,
                kind: EventKind::CrashRecovery {
                    lost: parse_secs(ln, rest[2])?,
                    restart: parse_secs(ln, rest[3])?,
                },
            }
        }
        _ => {
            return Err(TraceError::Parse {
                line: ln,
                msg: format!("unknown event kind {kw:?}"),
            });
        }
    };
    if ev.t_end < ev.t_start {
        return Err(TraceError::Parse {
            line: ln,
            msg: format!(
                "event ends at {:?}, before it starts at {:?}",
                ev.t_end, ev.t_start
            ),
        });
    }
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a seeded stream that is the same on every host.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// What a mutation inserts or writes over a character with.
    const PIECES: [&str; 33] = [
        " ", "\t", "\x0B", "\x0C", "\r", "\n", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
        "-", ".", "e", "n", "C", "S", "R", "A", "F", "B", "E", "Y", "D", "K", "X", "rank",
        "\u{a0}",
    ];

    /// A recorded fixture: its `makespan` and `params` lines and its
    /// event lines.
    struct Fixture {
        head: Vec<String>,
        events: Vec<String>,
    }

    fn fixtures() -> Vec<Fixture> {
        [
            "mm25d_p32",
            "lu_p16",
            "nbody_p16",
            "samplesort_p16",
            "fft_p16",
        ]
        .iter()
        .map(|name| {
            let path = format!(
                "{}/../../tests/fixtures/{name}_prepr.trace",
                env!("CARGO_MANIFEST_DIR")
            );
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            Fixture {
                head: lines[2..4].iter().map(|l| l.to_string()).collect(),
                events: lines[4..]
                    .iter()
                    .filter(|l| !l.starts_with("rank "))
                    .map(|l| l.to_string())
                    .collect(),
            }
        })
        .collect()
    }

    /// A two-rank trace cut from a fixture: its header, then a short run
    /// of consecutive event lines for each rank.
    fn sample(fx: &Fixture, rng: &mut Rng) -> String {
        let mut text = format!("psse-trace v1\np 2\n{}\n{}\n", fx.head[0], fx.head[1]);
        for r in 0..2 {
            let n = rng.below(6);
            let at = rng.below(fx.events.len() - n);
            text.push_str(&format!("rank {r} {n}\n"));
            for line in &fx.events[at..at + n] {
                text.push_str(line);
                text.push('\n');
            }
        }
        text
    }

    /// Insert, delete or overwrite one character at a random place.
    fn mutate(text: &mut String, rng: &mut Rng) {
        let bounds: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let at = bounds[rng.below(bounds.len())];
        let piece = PIECES[rng.below(PIECES.len())];
        let width = text[at..].chars().next().map_or(0, char::len_utf8);
        match rng.below(3) {
            0 => text.insert_str(at, piece),
            1 => text.replace_range(at..at + width, ""),
            _ => text.replace_range(at..at + width, piece),
        }
    }

    /// Parse `cases` mutants with both parsers; panic on the first
    /// disagreement.
    fn differential(seed: u64, cases: usize) {
        let fixtures = fixtures();
        let mut rng = Rng(seed);
        let mut accepted = 0;
        for case in 0..cases {
            let mut text = sample(&fixtures[rng.below(fixtures.len())], &mut rng);
            for _ in 0..1 + rng.below(3) {
                mutate(&mut text, &mut rng);
            }
            let got = Trace::from_text(&text).map_err(|e| e.to_string());
            let want = from_text(&text).map_err(|e| e.to_string());
            assert_eq!(got, want, "case {case} of seed {seed}: {text:?}");
            accepted += got.is_ok() as usize;
        }
        // Both outcomes are exercised, not just one.
        assert!(
            cases / 20 < accepted && accepted < cases - cases / 20,
            "{accepted} of {cases} mutants parse"
        );
    }

    #[test]
    fn from_text_agrees_with_the_reference_on_mutated_fixtures() {
        differential(1, 10_000);
    }

    /// A million mutants; run in release (`cargo test --release -p
    /// psse-trace -- --ignored`).
    #[test]
    #[ignore]
    fn from_text_agrees_with_the_reference_on_a_million_mutants() {
        differential(2, 1_000_000);
    }

    #[test]
    fn the_fixtures_parse_the_same() {
        for name in [
            "mm25d_p32",
            "lu_p16",
            "nbody_p16",
            "samplesort_p16",
            "fft_p16",
        ] {
            let path = format!(
                "{}/../../tests/fixtures/{name}_prepr.trace",
                env!("CARGO_MANIFEST_DIR")
            );
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(Trace::from_text(&text), from_text(&text), "{name}");
        }
    }
}
