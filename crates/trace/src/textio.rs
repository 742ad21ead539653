//! Plain-text trace serialisation: exact, line-based, dependency-free.
//!
//! Floats are written in Rust's shortest round-trip form (the bytes of
//! `{:?}`, by `psse_metrics::num`), so a save/load cycle reproduces
//! every timestamp bit-for-bit — byte identity of two serialised traces
//! implies identity of the runs.
//!
//! ```text
//! psse-trace v1
//! p 2
//! makespan 0.002
//! params 1e-9 1e-8 1e-6 65536
//! hier 2 1e-9 1e-7        (only on two-level machines)
//! rank 0 2
//! C 0.0 1e-6 1000         (compute: t0 t1 flops)
//! S 1e-6 2e-6 1 7 100     (send:    t0 t1 dest tag words)
//! rank 1 1
//! R 0.0 2e-6 0 7 100 1    (recv:    t0 t1 src tag words msgs)
//! ```
//!
//! The remaining kinds are `A t0 t1 words` (alloc), `F t0 t1 words`
//! (free), `B t op` / `E t op` (collective begin/end; the op name,
//! which contains no spaces, ends the line), and the fault-layer
//! events: `Y t0 t1 dest tag attempt words backoff` (retry /
//! duplicate), `D t0 t1 seconds` (link delay), `K t0 t1 words`
//! (checkpoint write), `X t0 t1 lost restart` (crash recovery).
//!
//! Every time and duration — the makespan, each event's `t0` and `t1`,
//! `backoff`, `seconds`, `lost`, `restart` — is finite and not
//! negative, and no event ends before it starts; the parser refuses
//! anything else with the line it is on.

use crate::error::{TraceError, TraceResult};
use crate::trace::{ReplayHierarchy, ReplayParams, Trace};
use psse_metrics::num::{push_f64_debug, push_u64};
use psse_sim::record::{EventKind, TimedEvent};
use std::path::Path;

/// Append `' '` and `v` as `{:?}` prints it.
fn float(s: &mut String, v: f64) {
    s.push(' ');
    push_f64_debug(s, v);
}

/// Append `' '` and `v` in decimal.
fn int(s: &mut String, v: u64) {
    s.push(' ');
    push_u64(s, v);
}

/// Append an interval event's keyword, `t0` and `t1`.
fn span(s: &mut String, kw: &str, t0: f64, t1: f64) {
    s.push_str(kw);
    float(s, t0);
    float(s, t1);
}

impl Trace {
    /// Serialise to the line-based text format.
    pub fn to_text(&self) -> String {
        // About forty bytes an event line.
        let mut s = String::with_capacity(128 + 40 * self.n_events());
        s.push_str("psse-trace v1\np");
        int(&mut s, self.p as u64);
        s.push_str("\nmakespan");
        float(&mut s, self.makespan);
        s.push_str("\nparams");
        float(&mut s, self.params.gamma_t);
        float(&mut s, self.params.beta_t);
        float(&mut s, self.params.alpha_t);
        int(&mut s, self.params.max_message_words as u64);
        if let Some(h) = &self.params.hierarchy {
            s.push_str("\nhier");
            int(&mut s, h.cores_per_node as u64);
            float(&mut s, h.intra_beta_t);
            float(&mut s, h.intra_alpha_t);
        }
        s.push('\n');
        for (r, evs) in self.events.iter().enumerate() {
            s.push_str("rank");
            int(&mut s, r as u64);
            int(&mut s, evs.len() as u64);
            s.push('\n');
            for e in evs {
                let (t0, t1) = (e.t_start, e.t_end);
                match &e.kind {
                    EventKind::Compute { flops } => {
                        span(&mut s, "C", t0, t1);
                        int(&mut s, *flops);
                    }
                    EventKind::Send { dest, tag, words } => {
                        span(&mut s, "S", t0, t1);
                        int(&mut s, *dest as u64);
                        int(&mut s, *tag);
                        int(&mut s, *words as u64);
                    }
                    EventKind::Recv {
                        src,
                        tag,
                        words,
                        msgs,
                    } => {
                        span(&mut s, "R", t0, t1);
                        int(&mut s, *src as u64);
                        int(&mut s, *tag);
                        int(&mut s, *words as u64);
                        int(&mut s, *msgs as u64);
                    }
                    EventKind::Alloc { words } => {
                        span(&mut s, "A", t0, t1);
                        int(&mut s, *words);
                    }
                    EventKind::Free { words } => {
                        span(&mut s, "F", t0, t1);
                        int(&mut s, *words);
                    }
                    EventKind::CollBegin { op } | EventKind::CollEnd { op } => {
                        let begin = matches!(e.kind, EventKind::CollBegin { .. });
                        s.push_str(if begin { "B" } else { "E" });
                        float(&mut s, t0);
                        s.push(' ');
                        s.push_str(op);
                    }
                    EventKind::Retry {
                        dest,
                        tag,
                        attempt,
                        words,
                        backoff,
                    } => {
                        span(&mut s, "Y", t0, t1);
                        int(&mut s, *dest as u64);
                        int(&mut s, *tag);
                        int(&mut s, *attempt as u64);
                        int(&mut s, *words as u64);
                        float(&mut s, *backoff);
                    }
                    EventKind::LinkDelay { seconds } => {
                        span(&mut s, "D", t0, t1);
                        float(&mut s, *seconds);
                    }
                    EventKind::Checkpoint { words } => {
                        span(&mut s, "K", t0, t1);
                        int(&mut s, *words);
                    }
                    EventKind::CrashRecovery { lost, restart } => {
                        span(&mut s, "X", t0, t1);
                        float(&mut s, *lost);
                        float(&mut s, *restart);
                    }
                }
                s.push('\n');
            }
        }
        s
    }

    /// Parse the text format produced by [`Trace::to_text`].
    pub fn from_text(text: &str) -> TraceResult<Trace> {
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

    /// Write the text serialisation to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> TraceResult<()> {
        std::fs::write(path.as_ref(), self.to_text()).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Read a trace saved with [`Trace::save`].
    pub fn load(path: impl AsRef<Path>) -> TraceResult<Trace> {
        let text =
            std::fs::read_to_string(path.as_ref()).map_err(|e| TraceError::Io(e.to_string()))?;
        Trace::from_text(&text)
    }
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
    use psse_sim::machine::{Machine, SimConfig};
    use psse_sim::message::Tag;

    fn sample_trace() -> Trace {
        let cfg = SimConfig {
            record_trace: true,
            hierarchy: Some(psse_sim::machine::Hierarchy {
                cores_per_node: 2,
                intra_beta_t: 1e-9,
                intra_alpha_t: 1e-7,
            }),
            ..SimConfig::default()
        };
        let out = Machine::run(4, cfg.clone(), |rank| {
            rank.alloc(64)?;
            rank.compute(777);
            let v = rank.allreduce_sum(Tag(3), vec![1.0; 16])?;
            rank.free(64)?;
            Ok(v[0])
        })
        .unwrap();
        Trace::from_run(&cfg, &out.profile).unwrap()
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let tr = sample_trace();
        let text = tr.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(tr, back);
        // Serialising again reproduces the bytes.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn save_load_roundtrip() {
        let tr = sample_trace();
        let dir = std::env::temp_dir().join("psse-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.trace");
        tr.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(tr, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(matches!(
            Trace::from_text("nonsense"),
            Err(TraceError::Parse { line: 1, .. })
        ));
        let bad = "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 16\nrank 0 1\nZ 0 0 0\n";
        assert!(matches!(
            Trace::from_text(bad),
            Err(TraceError::Parse { line: 6, .. })
        ));
        let truncated =
            "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 16\nrank 0 2\nC 0.0 0.0 5\n";
        assert!(matches!(
            Trace::from_text(truncated),
            Err(TraceError::Parse { .. })
        ));
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocating() {
        let head = "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 16\n";
        let huge_p = head.replace("p 1\n", "p 18446744073709551615\n") + "rank 0 0\n";
        assert!(matches!(
            Trace::from_text(&huge_p),
            Err(TraceError::Parse { line: 2, .. })
        ));
        for n in ["18446744073709551615", "400000000000"] {
            let huge_rank = format!("{head}rank 0 {n}\n");
            assert!(matches!(
                Trace::from_text(&huge_rank),
                Err(TraceError::Parse { line: 5, .. })
            ));
        }
    }

    /// A NaN or infinite time, a negative one, or an event that ends
    /// before it starts is a parse error on its line, not a number that
    /// reaches the Chrome export as `"dur":NaN` or a negative duration.
    #[test]
    fn impossible_times_are_rejected_with_their_line() {
        let head = "psse-trace v1\np 1\nmakespan 0.0\nparams 0.0 0.0 0.0 16\nrank 0 1\n";
        for event in [
            "C 0.0 nan 5",
            "C 3.0 1.0 5",
            "C -1.0 0.0 5",
            "S 0.0 inf 0 7 100",
            "B NaN allreduce_sum",
            "Y 0.0 1.0 0 7 1 100 -1e-4",
            "D 0.0 1.0 NaN",
            "X 0.0 1.0 inf 0.5",
            "X 0.0 1.0 0.5 -0.5",
        ] {
            let text = format!("{head}{event}\n");
            let err = Trace::from_text(&text).unwrap_err();
            assert!(
                matches!(err, TraceError::Parse { line: 6, .. }),
                "{event}: {err}"
            );
        }
        let makespan = head.replace("makespan 0.0", "makespan NaN") + "C 0.0 0.0 5\n";
        assert!(matches!(
            Trace::from_text(&makespan),
            Err(TraceError::Parse { line: 3, .. })
        ));
        let fine = format!("{head}C 1.0 1.0 5\n");
        assert!(Trace::from_text(&fine).is_ok(), "an instant event parses");
    }

    #[test]
    fn replay_after_roundtrip_still_consistent() {
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let out = Machine::run(2, cfg.clone(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![2.0; 300])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        })
        .unwrap();
        let tr = Trace::from_run(&cfg, &out.profile).unwrap();
        let back = Trace::from_text(&tr.to_text()).unwrap();
        back.check_consistency(&out.profile).unwrap();
    }
}
