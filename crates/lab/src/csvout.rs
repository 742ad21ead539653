//! CSV emission for sweep results, compatible with the `bench_results/`
//! conventions (header row, comma-separated, one row per run).
//!
//! Floats are the bytes of `{:?}` — Rust's shortest round-trip
//! representation — written by [`psse_metrics::num`] without
//! `core::fmt`, so the emitted bytes are a pure function of the result
//! bits. That is the property the CI determinism smoke leans on:
//! `--jobs 1` and `--jobs 8` must produce byte-identical files, and so
//! must a warm-cache rerun.
//!
//! Each CSV is written by a function over any [`Write`] that holds at
//! most one chunk of rows at a time ([`write_sweep_csv`],
//! [`write_pareto_csv`]); [`sweep_csv`] and [`pareto_csv`] collect the
//! same bytes into a `String`.

use std::collections::HashMap;
use std::io::{self, Write};

use psse_metrics::num::{push_f64_debug, push_u64};

use crate::key::RunKey;
use crate::pareto::pareto_indices;
use crate::result::RunResult;

/// Rows are handed to the writer in chunks of about this many bytes.
const CHUNK: usize = 64 << 10;

/// Append `,` and `v` as `{:?}` prints it.
fn float(out: &mut Vec<u8>, v: f64) {
    out.push(b',');
    push_f64_debug(out, v);
}

/// Append `,` and `v` in decimal.
fn int(out: &mut Vec<u8>, v: u64) {
    out.push(b',');
    push_u64(out, v);
}

/// Rows assembled in place in one fixed buffer and handed to `W` a
/// chunk at a time.
struct Rows<W: Write> {
    buf: Vec<u8>,
    out: W,
}

impl<W: Write> Rows<W> {
    fn new(out: W, header: &str) -> Rows<W> {
        let mut buf = Vec::with_capacity(CHUNK + 256);
        buf.extend_from_slice(header.as_bytes());
        Rows { buf, out }
    }

    /// The buffer to append a row to; a full chunk is written first.
    fn row(&mut self) -> io::Result<&mut Vec<u8>> {
        if self.buf.len() >= CHUNK {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(&mut self.buf)
    }

    fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.out.flush()
    }
}

/// Collect a CSV writer's bytes as a `String`: they are ASCII and the
/// keys' UTF-8 algorithm names.
fn text(capacity: usize, write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::with_capacity(capacity);
    write(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV bytes are UTF-8")
}

/// Write the full sweep as CSV, one row per run in spec order. Failed
/// runs are skipped (they have no numbers to report); callers surface
/// failures separately.
pub fn write_sweep_csv(
    out: impl Write,
    keys: &[RunKey],
    results: &[Result<RunResult, String>],
) -> io::Result<()> {
    let mut rows = Rows::new(
        out,
        "alg,kind,n,p,c,mem_words,feasible,time_s,energy_j,power_w\n",
    );
    for (key, res) in keys.iter().zip(results) {
        if let Ok(r) = res {
            let out = rows.row()?;
            out.extend_from_slice(key.alg.as_bytes());
            out.push(b',');
            out.extend_from_slice(key.kind.as_str().as_bytes());
            int(out, key.n);
            int(out, key.p);
            int(out, key.c);
            float(out, r.mem_used);
            int(out, r.feasible as u64);
            float(out, r.time);
            float(out, r.energy);
            float(out, r.power());
            out.push(b'\n');
        }
    }
    rows.finish()
}

/// [`write_sweep_csv`] as a `String`.
pub fn sweep_csv(keys: &[RunKey], results: &[Result<RunResult, String>]) -> String {
    // A row of a model sweep is about a hundred bytes.
    text(128 * results.len(), |out| {
        write_sweep_csv(out, keys, results)
    })
}

/// Write the per-`n` (time, energy) Pareto frontiers as CSV. Only
/// feasible, successful runs compete; rows keep spec order within each
/// frontier.
pub fn write_pareto_csv(
    out: impl Write,
    keys: &[RunKey],
    results: &[Result<RunResult, String>],
) -> io::Result<()> {
    /// `n`, and its competitors' indices and (time, energy) points.
    type Group = (u64, Vec<usize>, Vec<(f64, f64)>);
    // Group by n in one pass, in first-appearance order. A spec expands
    // one n's keys together, so the previous key's group is tried
    // before the map.
    let mut group_of: HashMap<u64, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut at = usize::MAX;
    for (i, (key, res)) in keys.iter().zip(results).enumerate() {
        if groups.get(at).map(|g| g.0) != Some(key.n) {
            at = *group_of.entry(key.n).or_insert_with(|| {
                groups.push((key.n, Vec::new(), Vec::new()));
                groups.len() - 1
            });
        }
        if let Ok(r) = res {
            if r.feasible {
                groups[at].1.push(i);
                groups[at].2.push((r.time, r.energy));
            }
        }
    }
    let mut rows = Rows::new(out, "n,p,c,mem_words,time_s,energy_j\n");
    for (n, idx, pts) in groups {
        for fi in pareto_indices(&pts) {
            let i = idx[fi];
            let r = results[i].as_ref().unwrap();
            let out = rows.row()?;
            push_u64(out, n);
            int(out, keys[i].p);
            int(out, keys[i].c);
            float(out, r.mem_used);
            float(out, r.time);
            float(out, r.energy);
            out.push(b'\n');
        }
    }
    rows.finish()
}

/// [`write_pareto_csv`] as a `String`.
pub fn pareto_csv(keys: &[RunKey], results: &[Result<RunResult, String>]) -> String {
    // A frontier holds a small share of the sweep; one row is about
    // seventy bytes.
    text(8 * results.len(), |out| {
        write_pareto_csv(out, keys, results)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_core::machines::jaketown;

    fn fixture() -> (Vec<RunKey>, Vec<Result<RunResult, String>>) {
        let keys = vec![
            RunKey::model("nbody", 1000, 10, jaketown()),
            RunKey::model("nbody", 1000, 20, jaketown()),
            RunKey::model("nbody", 2000, 10, jaketown()),
        ];
        let results = vec![
            Ok(RunResult::model(true, 2.0, 5.0, 100.0)),
            Ok(RunResult::model(true, 1.0, 5.0, 100.0)),
            Err("boom".into()),
        ];
        (keys, results)
    }

    #[test]
    fn sweep_csv_has_header_and_skips_failures() {
        let (keys, results) = fixture();
        let csv = sweep_csv(&keys, &results);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 ok rows
        assert!(lines[0].starts_with("alg,kind,n,p,c,"));
        assert!(lines[1].starts_with("nbody,model,1000,10,1,"));
    }

    #[test]
    fn pareto_csv_groups_by_n_and_drops_dominated() {
        let (keys, results) = fixture();
        let csv = pareto_csv(&keys, &results);
        let lines: Vec<&str> = csv.lines().collect();
        // (1.0, 5.0) dominates (2.0, 5.0); n=2000 failed → no rows.
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("1000,20,1,"));
    }

    /// Interleaved `n`s keep first-appearance order, and each frontier
    /// keeps spec order: the rows the per-`n` rescan wrote.
    #[test]
    fn pareto_csv_groups_interleaved_n_in_first_appearance_order() {
        let ns = [3000, 1000, 3000, 2000, 1000, 3000, 2000, 1000];
        let keys: Vec<RunKey> = (0..ns.len())
            .map(|i| RunKey::model("nbody", ns[i], 4 + i as u64, jaketown()))
            .collect();
        let results: Vec<Result<RunResult, String>> = (0..ns.len())
            .map(|i| {
                let t = 8.0 - i as f64;
                Ok(RunResult::model(i != 6, t, 10.0 - t / 2.0, 1.5))
            })
            .collect();
        let rows: Vec<(u64, u64)> = pareto_csv(&keys, &results)
            .lines()
            .skip(1)
            .map(|l| {
                let mut f = l.split(',').map(|x| x.parse::<u64>().unwrap_or(0));
                (f.next().unwrap(), f.next().unwrap())
            })
            .collect();
        // Within one n, a later key is faster and costs more: no
        // dominance, every feasible key stays; key 6 is infeasible.
        let want = [
            (3000, 4),
            (3000, 6),
            (3000, 9),
            (1000, 5),
            (1000, 8),
            (1000, 11),
            (2000, 7),
        ];
        assert_eq!(rows, want);
    }
}
