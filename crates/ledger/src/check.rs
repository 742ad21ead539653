//! Output checks. Host time and simulated (virtual) time never mix:
//! simulated statistics enter the results only here, as failed
//! operations (`fail_frac`) and as digests compared against the pins
//! of the default seed (`stat_drift`).

use crate::json::Json;

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    /// Operations and consistency checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure, for the human report (capped).
    pub notes: Vec<String>,
}

impl Checks {
    /// Count `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.fail(failed, format!("{failed} of {n} failed: {what}"));
        }
    }

    /// Record one consistency check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a, 64 bit: the digest of pinned statistics.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold a string and a field separator in.
    pub fn field(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0x1f])
    }

    /// Fold an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The sweep-CSV columns that are simulated statistics. Hashing by
/// *name* means a later change may append columns without tripping the
/// pins, but cannot alter these.
pub const PINNED_COLUMNS: [&str; 7] =
    ["n", "p", "c", "mem_words", "feasible", "time_s", "energy_j"];

/// Fold the [`PINNED_COLUMNS`] of a sweep CSV into `h`.
pub fn digest_csv(h: &mut Fnv, csv: &str) -> Result<(), String> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().ok_or("empty CSV")?.split(',').collect();
    let cols: Vec<usize> = PINNED_COLUMNS
        .iter()
        .map(|name| {
            header
                .iter()
                .position(|h| h == name)
                .ok_or_else(|| format!("CSV has no `{name}` column"))
        })
        .collect::<Result<_, _>>()?;
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        for &c in &cols {
            h.field(
                cells
                    .get(c)
                    .ok_or_else(|| format!("short CSV row `{line}`"))?,
            );
        }
    }
    Ok(())
}

/// The seed whose simulated statistics are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// The pinned digests, compiled in from `pins.json`.
const PINS: &str = include_str!("../pins.json");

/// Count of pinned digests that differ: `0` or `1` for one workload.
/// Only the default seed is pinned; any other seed compares nothing.
pub fn stat_drift(workload: &str, seed: u64, quick: bool, digest: &str) -> Result<u64, String> {
    stat_drift_in(PINS, workload, seed, quick, digest)
}

fn stat_drift_in(
    pins: &str,
    workload: &str,
    seed: u64,
    quick: bool,
    digest: &str,
) -> Result<u64, String> {
    if seed != DEFAULT_SEED {
        return Ok(0);
    }
    let pins = Json::parse(pins).map_err(|e| format!("pins.json: {e}"))?;
    let scale = if quick { "quick" } else { "full" };
    let pinned = pins
        .get(scale)
        .and_then(|s| s.get(workload))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("pins.json has no {scale} pin for `{workload}`"))?;
    Ok(u64::from(pinned != digest))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "alg,kind,n,p,c,mem_words,feasible,time_s,energy_j,power_w\n\
                       matmul,model,8192,4,1,1000.0,0,1.5,2.5,0.6\n";

    fn csv_digest(csv: &str) -> String {
        let mut h = Fnv::default();
        digest_csv(&mut h, csv).unwrap();
        h.hex()
    }

    /// Flip one pinned digest and one CSV byte: both metrics go nonzero.
    #[test]
    fn flipped_pin_and_flipped_csv_byte_are_both_seen() {
        let good = csv_digest(CSV);
        let pins = format!("{{\"seed\": 1, \"full\": {{\"w\": \"{good}\"}}}}");
        assert_eq!(stat_drift_in(&pins, "w", DEFAULT_SEED, false, &good), Ok(0));
        // One flipped byte in a pinned column drifts ...
        let flipped = CSV.replace("1.5", "1.6");
        assert_eq!(
            stat_drift_in(&pins, "w", DEFAULT_SEED, false, &csv_digest(&flipped)),
            Ok(1)
        );
        // ... as does a flipped pin against the good bytes ...
        let bad_pins = pins.replace(&good, "0000000000000000");
        assert_eq!(
            stat_drift_in(&bad_pins, "w", DEFAULT_SEED, false, &good),
            Ok(1)
        );
        // ... and the byte comparison behind `fail_frac` sees it too.
        let mut checks = Checks::default();
        checks.expect(CSV == flipped, || "cold and resumed CSV differ".into());
        assert!(checks.fail_frac() > 0.0);
        // Other seeds have no pins; unpinned columns may change freely.
        assert_eq!(stat_drift_in(&pins, "w", 2, false, "anything"), Ok(0));
        let appended = CSV
            .replace("power_w\n", "power_w,extra\n")
            .replace("0.6\n", "0.7,9\n");
        assert_eq!(csv_digest(&appended), good);
        assert!(stat_drift_in(&pins, "missing", DEFAULT_SEED, false, &good).is_err());
    }

    #[test]
    fn shipped_pins_parse() {
        let pins = Json::parse(PINS).unwrap();
        assert_eq!(
            pins.get("seed").and_then(Json::as_f64),
            Some(DEFAULT_SEED as f64)
        );
        for scale in ["full", "quick"] {
            for (w, _) in crate::workloads::WORKLOADS {
                assert!(
                    pins.get(scale).and_then(|s| s.get(w)).is_some(),
                    "{scale}/{w}"
                );
            }
        }
    }
}
