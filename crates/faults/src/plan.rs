//! Fault plans and recovery policies.
//!
//! A [`FaultPlan`] is a *pure schedule*: it answers "what happens to the
//! k-th transfer on link `src → dest`?" and "when does rank `r` crash?"
//! as deterministic functions of a seed, with no mutable state. The
//! simulator consults it at well-defined points of virtual time, so the
//! same plan produces the same faulted execution bit-for-bit on every
//! run, regardless of OS thread scheduling.

use crate::rng::{hash_key, unit_f64};

/// What the link does to one transfer (one `Rank::send` call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// The transfer is lost; an acked protocol detects the missing ack
    /// and retries, an unacked one gives up ([`RecoveryPolicy::max_retries`]
    /// = 0 turns a drop into an unrecoverable failure).
    Drop,
    /// The payload is altered in flight. With retries enabled the ack
    /// checksum catches it (same cost as a drop); without, the corrupted
    /// payload is delivered silently — detecting it is ABFT's job.
    Corrupt,
    /// The transfer crosses the wire twice; the duplicate is discarded at
    /// the receiver but its bandwidth and latency are still paid.
    Duplicate,
    /// The link stalls for [`FaultSpec::delay_seconds`] of virtual time
    /// before the transfer departs.
    Delay,
}

/// A scheduled crash: rank `rank` fails the first time its virtual clock
/// reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// The rank that crashes.
    pub rank: usize,
    /// Virtual time of the crash, seconds.
    pub at: f64,
}

/// What goes wrong, and how often. Rates are per-transfer probabilities;
/// their sum must be ≤ 1 (at most one fault per transfer).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for every fault decision. Same seed ⇒ same faults.
    pub seed: u64,
    /// Probability a transfer is dropped.
    pub drop_rate: f64,
    /// Probability a transfer is corrupted.
    pub corrupt_rate: f64,
    /// Probability a transfer is duplicated.
    pub duplicate_rate: f64,
    /// Probability a transfer is delayed.
    pub delay_rate: f64,
    /// Virtual-time stall applied by a [`LinkFaultKind::Delay`] fault.
    pub delay_seconds: f64,
    /// Scheduled rank crashes (virtual time).
    pub crashes: Vec<CrashEvent>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            delay_seconds: 0.0,
            crashes: Vec::new(),
        }
    }
}

/// Coordinated checkpoint policy: every `interval` virtual seconds each
/// rank writes `words` words of state to stable storage (priced like a
/// message: `αt + βt·w` per chunk, and the words/messages advance the
/// energy model's `W`/`S`). After a crash the rank replays the work since
/// the last checkpoint boundary and pays `restart_seconds` to rejoin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint interval, virtual seconds.
    pub interval: f64,
    /// Checkpoint volume per rank, words.
    pub words: u64,
    /// Fixed restart cost after a crash, virtual seconds.
    pub restart_seconds: f64,
}

/// The most retries a [`RecoveryPolicy`] may allow. The wait before
/// retry `j` is `retry_backoff · 2^j`, and `2^j` is a finite `f64` only
/// up to `j = 1023`: past it an attempt's backoff is `∞`, or `NaN` at a
/// zero base.
pub const MAX_RETRIES: u32 = 1023;

/// How the machine reacts to link faults and crashes.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries after a failed (dropped / corrupt-detected) transfer
    /// attempt, at most [`MAX_RETRIES`]. 0 disables the ack protocol:
    /// drops become `RetriesExhausted` and corruptions are delivered
    /// silently.
    pub max_retries: u32,
    /// Base backoff before retry `j` (the wait is `retry_backoff · 2^j`
    /// virtual seconds).
    pub retry_backoff: f64,
    /// Coordinated checkpoint/restart; `None` makes crashes fatal.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            retry_backoff: 0.0,
            checkpoint: None,
        }
    }
}

/// A complete, self-contained fault schedule plus the recovery policy
/// that answers it. Plug into `SimConfig::faults`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// What goes wrong.
    pub spec: FaultSpec,
    /// How the machine recovers.
    pub recovery: RecoveryPolicy,
}

/// Domain-separation constants so link-fault and corruption-index
/// decisions drawn from the same coordinates stay independent.
const DOMAIN_LINK: u64 = 1;
const DOMAIN_INDEX: u64 = 2;

impl FaultPlan {
    /// Validate rates and policy parameters. Returns a human-readable
    /// description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let s = &self.spec;
        for (name, r) in [
            ("drop_rate", s.drop_rate),
            ("corrupt_rate", s.corrupt_rate),
            ("duplicate_rate", s.duplicate_rate),
            ("delay_rate", s.delay_rate),
        ] {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return Err(format!("fault {name} must be in [0, 1], got {r}"));
            }
        }
        let sum = s.drop_rate + s.corrupt_rate + s.duplicate_rate + s.delay_rate;
        if sum > 1.0 {
            return Err(format!("fault rates must sum to <= 1, got {sum}"));
        }
        if s.delay_seconds < 0.0 || !s.delay_seconds.is_finite() {
            return Err(format!(
                "delay_seconds must be finite and >= 0, got {}",
                s.delay_seconds
            ));
        }
        for c in &s.crashes {
            if c.at < 0.0 || !c.at.is_finite() {
                return Err(format!(
                    "crash time for rank {} must be finite and >= 0, got {}",
                    c.rank, c.at
                ));
            }
        }
        let rp = &self.recovery;
        if rp.retry_backoff < 0.0 || !rp.retry_backoff.is_finite() {
            return Err(format!(
                "retry_backoff must be finite and >= 0, got {}",
                rp.retry_backoff
            ));
        }
        if rp.max_retries > MAX_RETRIES {
            return Err(format!(
                "max_retries must be at most {MAX_RETRIES}, got {}",
                rp.max_retries
            ));
        }
        // A full streak waits `retry_backoff · (2^(max_retries+1) − 1)`;
        // multiplying the base first keeps a zero base at zero.
        let streak = rp.retry_backoff * f64::powi(2.0, rp.max_retries as i32) * 2.0;
        if !streak.is_finite() {
            return Err(format!(
                "retry_backoff · 2^(max_retries + 1) must be finite, got {} · 2^{}",
                rp.retry_backoff,
                rp.max_retries + 1
            ));
        }
        if let Some(cp) = &rp.checkpoint {
            if cp.interval <= 0.0 || !cp.interval.is_finite() {
                return Err(format!(
                    "checkpoint interval must be finite and > 0, got {}",
                    cp.interval
                ));
            }
            if cp.restart_seconds < 0.0 || !cp.restart_seconds.is_finite() {
                return Err(format!(
                    "restart_seconds must be finite and >= 0, got {}",
                    cp.restart_seconds
                ));
            }
        }
        Ok(())
    }

    /// The fate of attempt `attempt` of the `transfer`-th transfer on
    /// link `src → dest`. Attempt 0 is the original send; retries ask
    /// again with increasing `attempt`. Pure function of the seed.
    #[must_use]
    pub fn attempt_fault(
        &self,
        src: usize,
        dest: usize,
        transfer: u64,
        attempt: u32,
    ) -> Option<LinkFaultKind> {
        let s = &self.spec;
        let u = unit_f64(hash_key(
            s.seed,
            &[
                DOMAIN_LINK,
                src as u64,
                dest as u64,
                transfer,
                attempt as u64,
            ],
        ));
        let mut edge = s.drop_rate;
        if u < edge {
            return Some(LinkFaultKind::Drop);
        }
        edge += s.corrupt_rate;
        if u < edge {
            return Some(LinkFaultKind::Corrupt);
        }
        edge += s.duplicate_rate;
        if u < edge {
            return Some(LinkFaultKind::Duplicate);
        }
        edge += s.delay_rate;
        if u < edge {
            return Some(LinkFaultKind::Delay);
        }
        None
    }

    /// The fate of the `transfer`-th transfer on link `src → dest`
    /// (attempt 0).
    #[must_use]
    pub fn link_fault(&self, src: usize, dest: usize, transfer: u64) -> Option<LinkFaultKind> {
        self.attempt_fault(src, dest, transfer, 0)
    }

    /// Which payload element a [`LinkFaultKind::Corrupt`] fault flips,
    /// for a payload of `len` words. Deterministic and independent of
    /// the drop/corrupt draw.
    #[must_use]
    pub fn corrupt_index(&self, src: usize, dest: usize, transfer: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let h = hash_key(
            self.spec.seed,
            &[DOMAIN_INDEX, src as u64, dest as u64, transfer],
        );
        (h % len as u64) as usize
    }

    /// The first scheduled crash time for `rank`, if any.
    #[must_use]
    pub fn crash_at(&self, rank: usize) -> Option<f64> {
        self.spec
            .crashes
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.at)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Export the plan's configuration into a metrics registry under
    /// `prefix`, so a run report names the fault regime it was priced
    /// under. Rates are exported as parts-per-million gauges (the
    /// registry is integer-only by design), the delay as nanoseconds,
    /// plus the scheduled crash count and the recovery policy knobs.
    /// Dynamic resilience *outcomes* (retries taken, checkpoint words
    /// written) live in the simulator's per-rank counters and are
    /// exported by `Profile::export_metrics`.
    pub fn export_metrics(&self, reg: &psse_metrics::Registry, prefix: &str) -> Result<(), String> {
        let ppm = |r: f64| (r * 1e6).round() as i64;
        let s = &self.spec;
        for (name, v) in [
            ("drop_rate_ppm", ppm(s.drop_rate)),
            ("corrupt_rate_ppm", ppm(s.corrupt_rate)),
            ("duplicate_rate_ppm", ppm(s.duplicate_rate)),
            ("delay_rate_ppm", ppm(s.delay_rate)),
            (
                "delay_ns",
                psse_metrics::saturating_nanos(s.delay_seconds) as i64,
            ),
            ("crashes_scheduled", s.crashes.len() as i64),
            ("max_retries", self.recovery.max_retries as i64),
            (
                "checkpoint_words",
                self.recovery
                    .checkpoint
                    .map_or(0, |cp| cp.words.min(i64::MAX as u64) as i64),
            ),
        ] {
            reg.gauge(&format!("{prefix}.{name}"))?.set(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(drop: f64, corrupt: f64) -> FaultPlan {
        FaultPlan {
            spec: FaultSpec {
                seed: 11,
                drop_rate: drop,
                corrupt_rate: corrupt,
                ..FaultSpec::default()
            },
            ..FaultPlan::default()
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_the_seed() {
        let p = plan(0.3, 0.2);
        for t in 0..50u64 {
            assert_eq!(p.link_fault(1, 2, t), p.link_fault(1, 2, t));
            assert_eq!(p.attempt_fault(1, 2, t, 3), p.attempt_fault(1, 2, t, 3));
        }
        // A different seed gives a different schedule somewhere.
        let q = FaultPlan {
            spec: FaultSpec {
                seed: 12,
                ..p.spec.clone()
            },
            ..p.clone()
        };
        assert!((0..200u64).any(|t| p.link_fault(0, 1, t) != q.link_fault(0, 1, t)));
    }

    #[test]
    fn rates_control_frequency() {
        let p = plan(0.5, 0.0);
        let n = 2000u64;
        let drops = (0..n)
            .filter(|&t| p.link_fault(0, 1, t) == Some(LinkFaultKind::Drop))
            .count();
        let frac = drops as f64 / n as f64;
        assert!((0.42..0.58).contains(&frac), "drop fraction {frac}");
        // Zero rates never fire.
        let none = plan(0.0, 0.0);
        assert!((0..500u64).all(|t| none.link_fault(0, 1, t).is_none()));
        // Rate 1 always fires.
        let all = plan(1.0, 0.0);
        assert!((0..500u64).all(|t| all.link_fault(0, 1, t) == Some(LinkFaultKind::Drop)));
    }

    #[test]
    fn links_and_attempts_are_independent_coordinates() {
        let p = plan(0.5, 0.0);
        // Different links must not share the same fault pattern.
        let pat = |src: usize, dest: usize| -> Vec<bool> {
            (0..64u64)
                .map(|t| p.link_fault(src, dest, t).is_some())
                .collect()
        };
        assert_ne!(pat(0, 1), pat(1, 0));
        assert_ne!(pat(0, 1), pat(0, 2));
        // Retry attempts re-draw.
        assert!((0..200u64).any(|t| {
            p.attempt_fault(0, 1, t, 0).is_some() && p.attempt_fault(0, 1, t, 1).is_none()
        }));
    }

    #[test]
    fn corrupt_index_in_bounds() {
        let p = plan(0.0, 1.0);
        for t in 0..100 {
            let i = p.corrupt_index(2, 3, t, 17);
            assert!(i < 17);
        }
        assert_eq!(p.corrupt_index(2, 3, 0, 0), 0);
    }

    #[test]
    fn crash_at_picks_earliest() {
        let p = FaultPlan {
            spec: FaultSpec {
                crashes: vec![
                    CrashEvent { rank: 2, at: 5.0 },
                    CrashEvent { rank: 2, at: 3.0 },
                    CrashEvent { rank: 1, at: 1.0 },
                ],
                ..FaultSpec::default()
            },
            ..FaultPlan::default()
        };
        assert_eq!(p.crash_at(2), Some(3.0));
        assert_eq!(p.crash_at(1), Some(1.0));
        assert_eq!(p.crash_at(0), None);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(plan(0.5, 0.2).validate().is_ok());
        assert!(plan(-0.1, 0.0).validate().is_err());
        assert!(plan(0.7, 0.7).validate().is_err());
        let mut p = plan(0.0, 0.0);
        p.spec.delay_seconds = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = plan(0.0, 0.0);
        p.recovery.checkpoint = Some(CheckpointPolicy {
            interval: 0.0,
            words: 10,
            restart_seconds: 0.0,
        });
        assert!(p.validate().is_err());
    }

    /// Retry `j` waits `retry_backoff · 2^j`: past 1023 retries the
    /// doubling overflows, so such a plan, or one whose base is large
    /// enough to overflow a shorter streak, is refused.
    #[test]
    fn validate_refuses_a_retry_streak_whose_backoff_overflows() {
        let with = |max_retries, retry_backoff| FaultPlan {
            recovery: RecoveryPolicy {
                max_retries,
                retry_backoff,
                checkpoint: None,
            },
            ..plan(1.0, 0.0)
        };
        assert!(with(MAX_RETRIES, 0.0).validate().is_ok());
        assert!(with(MAX_RETRIES, 1e-8).validate().is_ok());
        let err = with(MAX_RETRIES + 1, 0.0).validate().unwrap_err();
        assert!(err.contains("at most 1023"), "{err}");
        assert!(with(u32::MAX, 1e-8).validate().is_err());
        let err = with(64, 1e300).validate().unwrap_err();
        assert!(err.contains("must be finite"), "{err}");
        assert!(!err.contains("inf"), "{err}");
        // The last base a full streak can double: 2^-1 · 2^1024 = 2^1023.
        assert!(with(MAX_RETRIES, 0.5).validate().is_ok());
        assert!(with(MAX_RETRIES, 1.0).validate().is_err());
    }

    #[test]
    fn export_metrics_describes_the_regime() {
        use psse_metrics::{Registry, SnapshotValue};
        let mut p = plan(0.25, 0.0);
        p.spec.crashes.push(CrashEvent { rank: 1, at: 2.0 });
        p.recovery.max_retries = 3;
        let reg = Registry::new();
        p.export_metrics(&reg, "faults").unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("faults.drop_rate_ppm"),
            Some(&SnapshotValue::Gauge(250_000))
        );
        assert_eq!(
            snap.get("faults.crashes_scheduled"),
            Some(&SnapshotValue::Gauge(1))
        );
        assert_eq!(
            snap.get("faults.max_retries"),
            Some(&SnapshotValue::Gauge(3))
        );
        assert_eq!(
            snap.get("faults.checkpoint_words"),
            Some(&SnapshotValue::Gauge(0))
        );
    }
}
