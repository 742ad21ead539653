//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! Each rank becomes one process (`pid = rank`, `tid = 0`); computes,
//! sends and receives become complete (`"X"`) events; alloc/free become
//! instants (`"i"`); collective markers become begin/end (`"B"`/`"E"`)
//! pairs so nested collectives render as a flame stack. Timestamps are
//! the trace's recorded virtual times, converted to microseconds as the
//! format requires. The JSON is hand-rolled (the build has no serde);
//! the emitted subset is plain ASCII with escaped strings.

use crate::trace::Trace;
use psse_metrics::num::{push_f64_display, push_u64};
use psse_sim::record::EventKind;

/// Append `s` escaped for a JSON string literal.
fn escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                out.push(char::from(b"0123456789abcdef"[c as usize >> 4]));
                out.push(char::from(b"0123456789abcdef"[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
}

/// Seconds → microseconds (the unit of `ts`/`dur`).
fn us(t: f64) -> f64 {
    t * 1e6
}

/// An `args` value: a count or a time.
enum Arg {
    Int(u64),
    Float(f64),
}

impl Trace {
    /// Serialise the recorded events as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        use Arg::{Float, Int};
        // About 150 bytes an event.
        const HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        let mut out = String::with_capacity(64 + 150 * (self.n_events() + self.p));
        out.push_str(HEAD);
        let sep = |out: &mut String| {
            if out.len() > HEAD.len() {
                out.push_str(",\n");
            }
        };
        for r in 0..self.p {
            sep(&mut out);
            out.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
            push_u64(&mut out, r as u64);
            out.push_str(",\"tid\":0,\"args\":{\"name\":\"rank ");
            push_u64(&mut out, r as u64);
            out.push_str("\"}}");
        }
        for (r, evs) in self.events.iter().enumerate() {
            for e in evs {
                // The phase, the name (a peer rank appended) and the args.
                let (ph, name, peer, args): (&str, &str, Option<usize>, &[(&str, Arg)]) = match &e
                    .kind
                {
                    EventKind::Compute { flops } => {
                        ("X", "compute", None, &[("flops", Int(*flops))])
                    }
                    EventKind::Send { dest, tag, words } => (
                        "X",
                        "send->",
                        Some(*dest),
                        &[
                            ("dest", Int(*dest as u64)),
                            ("tag", Int(*tag)),
                            ("words", Int(*words as u64)),
                        ],
                    ),
                    EventKind::Recv {
                        src,
                        tag,
                        words,
                        msgs,
                    } => (
                        "X",
                        "recv<-",
                        Some(*src),
                        &[
                            ("src", Int(*src as u64)),
                            ("tag", Int(*tag)),
                            ("words", Int(*words as u64)),
                            ("msgs", Int(*msgs as u64)),
                        ],
                    ),
                    EventKind::Alloc { words } => ("i", "alloc", None, &[("words", Int(*words))]),
                    EventKind::Free { words } => ("i", "free", None, &[("words", Int(*words))]),
                    EventKind::CollBegin { op } => ("B", op, None, &[]),
                    EventKind::CollEnd { op } => ("E", op, None, &[]),
                    EventKind::Retry {
                        dest,
                        tag,
                        attempt,
                        words,
                        backoff,
                    } => (
                        "X",
                        "retry->",
                        Some(*dest),
                        &[
                            ("dest", Int(*dest as u64)),
                            ("tag", Int(*tag)),
                            ("attempt", Int(*attempt as u64)),
                            ("words", Int(*words as u64)),
                            ("backoff", Float(*backoff)),
                        ],
                    ),
                    EventKind::LinkDelay { seconds } => {
                        ("X", "link-delay", None, &[("seconds", Float(*seconds))])
                    }
                    EventKind::Checkpoint { words } => {
                        ("X", "checkpoint", None, &[("words", Int(*words))])
                    }
                    EventKind::CrashRecovery { lost, restart } => (
                        "X",
                        "crash-recovery",
                        None,
                        &[("lost", Float(*lost)), ("restart", Float(*restart))],
                    ),
                };
                sep(&mut out);
                out.push_str("{\"ph\":\"");
                out.push_str(ph);
                out.push_str("\",\"name\":\"");
                escape(&mut out, name);
                if let Some(peer) = peer {
                    push_u64(&mut out, peer as u64);
                }
                out.push_str("\",\"pid\":");
                push_u64(&mut out, r as u64);
                out.push_str(",\"tid\":0,\"ts\":");
                push_f64_display(&mut out, us(e.t_start));
                match ph {
                    // Complete events span [t0, t1]; instants are
                    // thread-scoped; markers carry no args.
                    "X" => {
                        out.push_str(",\"dur\":");
                        push_f64_display(&mut out, us(e.t_end - e.t_start));
                    }
                    "i" => out.push_str(",\"s\":\"t\""),
                    _ => {}
                }
                if !args.is_empty() {
                    out.push_str(",\"args\":{");
                    for (i, (key, value)) in args.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('"');
                        out.push_str(key);
                        out.push_str("\":");
                        match *value {
                            Int(v) => push_u64(&mut out, v),
                            Float(v) => push_f64_display(&mut out, v),
                        }
                    }
                    out.push('}');
                }
                out.push('}');
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use psse_sim::machine::{Machine, SimConfig};
    use psse_sim::message::Tag;

    /// A minimal structural JSON validator: checks balanced braces and
    /// brackets outside string literals and legal escape sequences.
    fn check_json_structure(s: &str) {
        let mut depth: Vec<char> = Vec::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    assert!(
                        matches!(c, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                        "bad escape \\{c}"
                    );
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth.push(c),
                '}' => assert_eq!(depth.pop(), Some('{'), "unbalanced brace"),
                ']' => assert_eq!(depth.pop(), Some('['), "unbalanced bracket"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert!(depth.is_empty(), "unbalanced nesting: {depth:?}");
    }

    #[test]
    fn export_is_structurally_valid_and_complete() {
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let out = Machine::run(4, cfg.clone(), |rank| {
            rank.alloc(100)?;
            rank.compute(1000);
            let v = rank.allreduce_sum(Tag(0), vec![rank.rank() as f64; 8])?;
            rank.free(100)?;
            Ok(v[0])
        })
        .unwrap();
        let tr = Trace::from_run(&cfg, &out.profile).unwrap();
        let json = tr.to_chrome_json();
        check_json_structure(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"rank 3\""));
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"ph\":\"B\"")); // collective begin marker
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("allreduce_sum"));
        // One metadata record per rank plus one record per event.
        assert_eq!(json.matches("\"ph\":").count(), tr.n_events() + tr.p);
    }

    #[test]
    fn escape_handles_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            escape(&mut out, s);
            out
        };
        assert_eq!(escaped("plain"), "plain");
        assert_eq!(escaped("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escaped("x\ny"), "x\\u000ay");
    }
}
