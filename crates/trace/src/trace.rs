//! The trace container and replay parameters.

use crate::error::{TraceError, TraceResult};
use psse_algos::bridge::{sim_config_from, sim_config_two_level, summarize};
use psse_core::params::MachineParams;
use psse_core::summary::{ExecutionSummary, Measured};
use psse_core::twolevel::TwoLevelParams;
use psse_sim::machine::{check_prices, SimConfig};
use psse_sim::profile::Profile;
use psse_sim::record::TimedEvent;

/// Intra-node link prices for replaying on a two-level machine: the
/// simulator's own hierarchy type, so replay prices links through
/// `psse_sim::meter::link_prices` like the live run does.
pub type ReplayHierarchy = psse_sim::machine::Hierarchy;

/// The machine-time parameters a trace is replayed under: the Eq. 1
/// prices plus the maximum message size (which controls how transfers
/// split into messages, the paper's `S = W/m`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayParams {
    /// `γt` — seconds per flop.
    pub gamma_t: f64,
    /// `βt` — seconds per word (inter-node when `hierarchy` is set).
    pub beta_t: f64,
    /// `αt` — seconds per message (inter-node when `hierarchy` is set).
    pub alpha_t: f64,
    /// `m` — maximum words per message.
    pub max_message_words: usize,
    /// Optional two-level hierarchy; `None` = flat machine.
    pub hierarchy: Option<ReplayHierarchy>,
}

impl ReplayParams {
    /// Validate parameter ranges (finite non-negative prices, `m ≥ 1`).
    pub fn validate(&self) -> TraceResult<()> {
        check_prices(&[
            ("gamma_t", self.gamma_t),
            ("beta_t", self.beta_t),
            ("alpha_t", self.alpha_t),
        ])
        .map_err(TraceError::InvalidParams)?;
        if self.max_message_words == 0 {
            return Err(TraceError::InvalidParams(
                "max_message_words must be at least 1".into(),
            ));
        }
        if let Some(h) = &self.hierarchy {
            h.validate().map_err(TraceError::InvalidParams)?;
        }
        Ok(())
    }
}

impl From<&SimConfig> for ReplayParams {
    fn from(cfg: &SimConfig) -> Self {
        ReplayParams {
            gamma_t: cfg.gamma_t,
            beta_t: cfg.beta_t,
            alpha_t: cfg.alpha_t,
            max_message_words: cfg.max_message_words,
            hierarchy: cfg.hierarchy.clone(),
        }
    }
}

impl From<&MachineParams> for ReplayParams {
    /// The prices of the simulator config [`sim_config_from`] builds.
    fn from(params: &MachineParams) -> Self {
        ReplayParams::from(&sim_config_from(params))
    }
}

impl From<&TwoLevelParams> for ReplayParams {
    /// The prices of the simulator config [`sim_config_two_level`]
    /// builds: inter-node words at `βnt`, intra-node at `βlt`, latency
    /// elided as in the paper's two-level equations.
    fn from(tl: &TwoLevelParams) -> Self {
        ReplayParams::from(&sim_config_two_level(tl))
    }
}

/// A recorded run: per-rank typed event logs plus the parameters and
/// makespan of the live execution.
///
/// Build one with [`Trace::from_run`] from a run executed with
/// `SimConfig::record_trace` set; replay it under any
/// [`ReplayParams`] with [`Trace::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// World size of the recorded run.
    pub p: usize,
    /// The parameters the run was recorded under.
    pub params: ReplayParams,
    /// The live run's virtual makespan (seconds).
    pub makespan: f64,
    /// Per-rank event logs, indexed by rank id.
    pub events: Vec<Vec<TimedEvent>>,
}

impl Trace {
    /// Capture a trace from a recorded run. Errors with
    /// [`TraceError::NotRecorded`] when the configuration did not have
    /// `record_trace` set (the profile then carries empty logs).
    pub fn from_run(cfg: &SimConfig, profile: &Profile) -> TraceResult<Trace> {
        if !cfg.record_trace {
            return Err(TraceError::NotRecorded);
        }
        if profile.events.len() != profile.p() {
            return Err(TraceError::Corrupt(format!(
                "profile has {} event logs for {} ranks",
                profile.events.len(),
                profile.p()
            )));
        }
        Ok(Trace {
            p: profile.p(),
            params: ReplayParams::from(cfg),
            makespan: profile.makespan,
            events: profile.events.clone(),
        })
    }

    /// Replay the event DAG under `params`, producing the profile the
    /// simulator would have produced had the run executed on that
    /// machine. Under the trace's own recorded parameters the result is
    /// **bit-identical** to the live profile (same floating-point
    /// operations in the same order); see [`Trace::check_consistency`].
    ///
    /// Memory limits are not re-enforced during replay: the recorded
    /// run already succeeded, and replay only re-prices time.
    pub fn replay(&self, params: &ReplayParams) -> TraceResult<Profile> {
        params.validate()?;
        let sched = crate::replay::schedule(self.p, &self.events, params)?;
        Ok(sched.into_profile())
    }

    /// Verify that replaying under the recorded parameters reproduces
    /// `live` exactly — bitwise-equal per-rank counters (overhead block
    /// included), finish times and makespan.
    pub fn check_consistency(&self, live: &Profile) -> TraceResult<()> {
        let replayed = self.replay(&self.params)?;
        if replayed.per_rank().len() != live.per_rank().len() {
            return Err(TraceError::Inconsistent(format!(
                "world size {} replayed vs {} live",
                replayed.per_rank().len(),
                live.per_rank().len()
            )));
        }
        for (r, (a, b)) in replayed.ranks().zip(live.ranks()).enumerate() {
            if a != b {
                return Err(TraceError::Inconsistent(format!(
                    "rank {r}: replayed {a:?} vs live {b:?}"
                )));
            }
        }
        if replayed.makespan.to_bits() != live.makespan.to_bits() {
            return Err(TraceError::Inconsistent(format!(
                "makespan: replayed {:?} vs live {:?}",
                replayed.makespan, live.makespan
            )));
        }
        Ok(())
    }

    /// Replay under `params` and condense into the [`ExecutionSummary`]
    /// that Eq. 2 prices: [`summarize`] of the replayed profile, so its
    /// message-DAG makespan is `T` and resilience traffic is folded into
    /// the word and message counts.
    pub fn summarize(&self, params: &ReplayParams) -> TraceResult<ExecutionSummary> {
        Ok(summarize(&self.replay(params)?))
    }

    /// Re-price the recorded run on a different machine: replay under
    /// the machine's time parameters (Eq. 1 per event) and price the
    /// result with its energy parameters (Eq. 2). This is the paper's
    /// what-if question — same algorithm, same schedule DAG, different
    /// hardware — answered without re-executing the algorithm.
    pub fn reprice(&self, params: &MachineParams) -> TraceResult<Measured> {
        Ok(self.summarize(&ReplayParams::from(params))?.price(params))
    }

    /// Total number of recorded events across all ranks.
    pub fn n_events(&self) -> usize {
        self.events.iter().map(|e| e.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_sim::prelude::*;

    fn recorded_cfg() -> SimConfig {
        SimConfig {
            record_trace: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn from_run_requires_recording() {
        let out = Machine::run(2, SimConfig::default(), |rank| {
            rank.compute(10);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            Trace::from_run(&SimConfig::default(), &out.profile),
            Err(TraceError::NotRecorded)
        );
    }

    #[test]
    fn from_run_captures_events_and_makespan() {
        let cfg = recorded_cfg();
        let out = Machine::run(2, cfg.clone(), |rank| {
            rank.compute(100);
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0; 10])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        })
        .unwrap();
        let tr = Trace::from_run(&cfg, &out.profile).unwrap();
        assert_eq!(tr.p, 2);
        assert_eq!(tr.makespan, out.profile.makespan);
        assert_eq!(tr.events[0].len(), 2); // compute + send
        assert_eq!(tr.events[1].len(), 2); // compute + recv
        tr.check_consistency(&out.profile).unwrap();
    }

    #[test]
    fn params_roundtrip_from_sim_config() {
        let cfg = SimConfig {
            hierarchy: Some(psse_sim::machine::Hierarchy {
                cores_per_node: 4,
                intra_beta_t: 1e-9,
                intra_alpha_t: 1e-7,
            }),
            ..SimConfig::default()
        };
        let rp = ReplayParams::from(&cfg);
        assert_eq!(rp.gamma_t, cfg.gamma_t);
        assert_eq!(rp.hierarchy.as_ref().unwrap().cores_per_node, 4);
        rp.validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rp = ReplayParams::from(&SimConfig::default());
        rp.max_message_words = 0;
        assert!(matches!(rp.validate(), Err(TraceError::InvalidParams(_))));
        let mut rp = ReplayParams::from(&SimConfig::default());
        rp.beta_t = f64::NAN;
        assert!(rp.validate().is_err());
    }
}
