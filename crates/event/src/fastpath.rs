//! Closed-form pricing of native counted collectives.
//!
//! A counted collective moves no data — its entire observable output is
//! the per-rank Eq. 1/2 counters and virtual clocks, and those are a
//! pure function of the message DAG (see the `exec` module docs). For
//! the built-in allreduces the DAG is known in closed form, so instead
//! of scheduling `O(p log p)` wires one by one, this module walks each
//! rank's pricing sequence directly over arrays — sends through
//! `psse_sim::meter::charge_chunks`, the same `max(clock, depart)`
//! joins. The result is byte-identical to the general executor
//! (enforced by the `fastpath_identity` differential tests against
//! `EventMachine::run_general`, which forces the general path).
//!
//! The fast path refuses to engage unless nothing can observe
//! individual events:
//!
//! * `record_trace` must be off (traces list every send/recv);
//! * no fault plan (fault injection is keyed on per-link sequence
//!   numbers of real transfers);
//! * no hierarchy (intra/inter pricing needs per-edge node tests —
//!   cheap to add, but the general path is the reference until a
//!   workload needs it);
//! * every rank's program must claim the *same*
//!   [`AnalyticOp`](crate::AnalyticOp) (data-mode programs claim none).
//!
//! Once engaged it honours [`SimConfig::cancel`] like the scheduler
//! does: checked up front and once per round of the `O(p)`-round
//! collectives, so a watchdog can abandon a large ring.

use crate::exec::cancelled;
use crate::program::{AnalyticOp, RankProgram};
use crate::programs::{PairwiseSchedule, RecursiveDoubling, Ring};
use psse_sim::error::SimResult;
use psse_sim::meter::{charge_chunks, chunk_count};
use psse_sim::{Profile, RankStats, SimConfig, SimError};

/// One rank's accounting lane: exactly the fields of `RankStats` the
/// general path can touch on a trace-less, fault-less, flat run.
#[derive(Clone, Copy, Default)]
struct Lane {
    time: f64,
    flops: u64,
    msgs_sent: u64,
    words_sent: u64,
    msgs_recvd: u64,
    words_recvd: u64,
}

/// The flat-machine prices the evaluators thread through every lane.
#[derive(Clone, Copy)]
struct Prices {
    alpha: f64,
    beta: f64,
    gamma: f64,
    m: u64,
    /// Constant because every transfer of these collectives carries
    /// `words`.
    n_chunks: u64,
    words: u64,
}

impl Prices {
    fn new(cfg: &SimConfig, words: usize) -> Self {
        let m = cfg.max_message_words;
        Prices {
            alpha: cfg.alpha_t,
            beta: cfg.beta_t,
            gamma: cfg.gamma_t,
            m: m as u64,
            n_chunks: chunk_count(words, m) as u64,
            words: words as u64,
        }
    }

    /// A flat-machine `Meter::send`; returns the depart time (the
    /// sender's clock after the last chunk).
    #[inline]
    fn send(&self, lane: &mut Lane) -> f64 {
        let (msgs, words) = (&mut lane.msgs_sent, &mut lane.words_sent);
        charge_chunks(
            &mut lane.time,
            self.words,
            self.m,
            self.alpha,
            self.beta,
            |k| {
                *msgs += 1;
                *words += k;
            },
        );
        lane.time
    }

    /// `Meter::recv`.
    #[inline]
    fn recv(&self, lane: &mut Lane, depart: f64) {
        lane.time = lane.time.max(depart);
        lane.words_recvd += self.words;
        lane.msgs_recvd += self.n_chunks;
    }

    /// `Meter::compute` of one flop per word.
    #[inline]
    fn compute(&self, lane: &mut Lane) {
        lane.flops += self.words;
        lane.time += self.gamma * self.words as f64;
    }
}

/// Price the run analytically if every guard passes; `Ok(None)` falls
/// back to the general executor.
pub(crate) fn try_run<P: RankProgram>(
    p: usize,
    cfg: &SimConfig,
    programs: &[P],
) -> SimResult<Option<Profile>> {
    if cfg.record_trace || cfg.faults.is_some() || cfg.hierarchy.is_some() {
        return Ok(None);
    }
    let Some(op) = programs.first().and_then(|prog| prog.analytic()) else {
        return Ok(None);
    };
    if programs.iter().any(|prog| prog.analytic() != Some(op)) {
        return Ok(None);
    }
    if cancelled(cfg) {
        return Err(SimError::Cancelled);
    }
    let lanes = match op {
        AnalyticOp::BinomialAllreduce { words } => binomial(p, Prices::new(cfg, words)),
        AnalyticOp::RecursiveDoublingAllreduce { words } => {
            pairwise::<RecursiveDoubling>(p, cfg, words)?
        }
        AnalyticOp::RingAllreduce { words } => pairwise::<Ring>(p, cfg, words)?,
    };
    let per_rank: Vec<RankStats> = lanes
        .into_iter()
        .map(|lane| RankStats {
            flops: lane.flops,
            msgs_sent: lane.msgs_sent,
            words_sent: lane.words_sent,
            msgs_recvd: lane.msgs_recvd,
            words_recvd: lane.words_recvd,
            finish_time: lane.time,
            ..RankStats::default()
        })
        .collect();
    // One (empty) trace vec per rank, as the general path reports with
    // tracing off.
    let profile = Profile::with_events(per_rank, vec![Vec::new(); p]);
    debug_assert!(profile.assert_balanced().is_ok());
    Ok(Some(profile))
}

/// `BinomialAllreduce`: reduce pass in *descending* rank order — at
/// level `k` a parent `v` (with `v mod 2^(k+1) = 0`) receives from
/// child `v + 2^k > v`, and the child's single reduce send is its last
/// reduce action, so processing high ranks first has every depart time
/// ready. Broadcast pass in *ascending* order: rank `v > 0` receives
/// from parent `v − lowbit(v) < v`, then fans to children `> v`.
fn binomial(p: usize, pr: Prices) -> Vec<Lane> {
    let mut lanes = vec![Lane::default(); p];
    // depart[c] = depart time of c's reduce send (each rank sends at
    // most once in the reduce tree).
    let mut depart = vec![0.0f64; p];
    for v in (0..p).rev() {
        let mut mask = 1usize;
        while mask < p {
            if v & mask != 0 {
                depart[v] = pr.send(&mut lanes[v]);
                break;
            }
            let child = v + mask;
            if child < p {
                pr.recv(&mut lanes[v], depart[child]);
                pr.compute(&mut lanes[v]);
            }
            mask <<= 1;
        }
    }
    // depart[c] now re-used for c's *incoming* broadcast edge.
    for v in 0..p {
        let fan_start = if v == 0 {
            p.next_power_of_two() >> 1
        } else {
            let lowbit = v & v.wrapping_neg();
            pr.recv(&mut lanes[v], depart[v]);
            lowbit >> 1
        };
        let mut mask = fan_start;
        while mask > 0 {
            let child = v + mask;
            if child < p {
                depart[child] = pr.send(&mut lanes[v]);
            }
            mask >>= 1;
        }
    }
    lanes
}

/// The pairwise-round allreduces: per round every rank sends to its
/// peer, then receives and merges — so price each round in two sweeps
/// (all sends, then all recv+computes), which is exactly each rank's
/// own program order with every depart time ready. The ring's `O(p)`
/// rounds make this `O(p²)` work — still the cheap side of `O(p²)`
/// scheduled events, but the reason the cancel flag is polled here.
fn pairwise<S: PairwiseSchedule>(p: usize, cfg: &SimConfig, words: usize) -> SimResult<Vec<Lane>> {
    let pr = Prices::new(cfg, words);
    let mut lanes = vec![Lane::default(); p];
    let mut depart = vec![0.0f64; p];
    for round in 0..S::rounds(p) {
        if cancelled(cfg) {
            return Err(SimError::Cancelled);
        }
        for (v, lane) in lanes.iter_mut().enumerate() {
            depart[v] = pr.send(lane);
        }
        for (v, lane) in lanes.iter_mut().enumerate() {
            pr.recv(lane, depart[S::recv_peer(v, round, p)]);
            pr.compute(lane);
        }
    }
    Ok(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EventMachine;
    use crate::programs::{BinomialAllreduce, RingAllreduce};
    use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
    use psse_sim::machine::{CancelFlag, Hierarchy};
    use psse_sim::{SimConfig, Tag};

    fn counted(p: usize) -> Vec<BinomialAllreduce> {
        let make = BinomialAllreduce::counted(Tag(0), 100);
        (0..p).map(|r| make(r, p)).collect()
    }

    /// The fast path must actually engage on the headline workload —
    /// byte-identity alone can't prove that (identical output is the
    /// whole point), so pin the dispatch decision here.
    #[test]
    fn engages_for_counted_binomial() {
        let programs = counted(64);
        let profile = try_run(64, &SimConfig::default(), &programs)
            .unwrap()
            .expect("fast path");
        let t = BinomialAllreduce::expected_totals(64, 100, 1 << 16);
        assert_eq!(profile.total_msgs_sent(), t.msgs);
        assert_eq!(profile.total_words_sent(), t.words);
        assert_eq!(profile.total_flops(), t.flops);
        assert_eq!(profile.events.len(), 64, "one (empty) trace vec per rank");
    }

    /// Every event-observing feature must force the general path.
    #[test]
    fn guards_refuse_trace_faults_hierarchy_and_data() {
        let programs = counted(8);
        let traced = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        assert!(try_run(8, &traced, &programs).unwrap().is_none());
        let faulted = SimConfig {
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: 1,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 1,
                    retry_backoff: 1e-9,
                    checkpoint: None,
                },
            }),
            ..SimConfig::default()
        };
        assert!(try_run(8, &faulted, &programs).unwrap().is_none());
        let hierarchical = SimConfig {
            hierarchy: Some(Hierarchy {
                cores_per_node: 4,
                intra_beta_t: 1e-9,
                intra_alpha_t: 1e-7,
            }),
            ..SimConfig::default()
        };
        assert!(try_run(8, &hierarchical, &programs).unwrap().is_none());
        let make = BinomialAllreduce::with_data(Tag(0), vec![1.0; 8]);
        let data_mode: Vec<BinomialAllreduce> = (0..8).map(|r| make(r, 8)).collect();
        assert!(try_run(8, &SimConfig::default(), &data_mode)
            .unwrap()
            .is_none());
    }

    /// A raised cancel flag abandons the run on the analytic path
    /// exactly as it does on the scheduled one — a counted ring at
    /// large `p` is `O(p²)` sweeps the watchdog must be able to stop.
    #[test]
    fn cancel_flag_is_honoured_on_both_paths() {
        let flag = CancelFlag::new();
        flag.cancel();
        let cfg = SimConfig {
            cancel: Some(flag),
            ..SimConfig::default()
        };
        for p in [1, 64] {
            let fast = EventMachine::run(p, &cfg, RingAllreduce::counted(Tag(0), 100));
            assert!(matches!(fast, Err(SimError::Cancelled)), "run, p={p}");
            let general = EventMachine::run_general(p, &cfg, RingAllreduce::counted(Tag(0), 100));
            assert!(
                matches!(general, Err(SimError::Cancelled)),
                "general, p={p}"
            );
        }
    }
}
