//! The pricing core: one rank's Eq. 1 accounting, with no transport.
//!
//! A `Meter` owns everything the cost model says about one rank — the
//! virtual clock, the `F`/`W`/`S`/`M` counters, the trace log and, on a
//! machine with a hierarchy or a fault plan, the overhead counters and
//! fault-injection state — and nothing about how messages travel. A
//! transport (the thread mailboxes of [`crate::Rank`], the wire slab of
//! [`crate::EventMachine`], a test driving two meters by hand) calls
//! `Meter::send`, moves the returned `Departure` plus the payload to the
//! receiver by whatever means it has, and hands it to `Meter::recv`;
//! delivering per `(src, tag)` in FIFO order is the whole transport
//! contract. Both types are crate-private: the executors are their only
//! callers.
//!
//! The per-chunk charge `α + β·k` is written once, in `chunk_charge`,
//! and the chunking of a transfer once, in [`charge_chunks`]; trace
//! replay and the analytic fast path price through them too.

use crate::error::{SimError, SimResult};
use crate::machine::{Hierarchy, SimConfig};
use crate::message::{SharedPayload, Tag};
use crate::profile::{RankOverheads, RankStats};
use crate::record::{EventKind, TimedEvent};
use psse_faults::LinkFaultKind;
use std::sync::Arc;

/// Whether ranks `a` and `b` share a node (never, on a flat machine).
#[inline]
pub fn same_node(hier: Option<&Hierarchy>, a: usize, b: usize) -> bool {
    hier.is_some_and(|h| a / h.cores_per_node == b / h.cores_per_node)
}

/// The `(α, β)` a transfer between ranks `a` and `b` pays — the
/// intra-node prices when a hierarchy puts both on one node, else the
/// machine-level `alpha_t`/`beta_t` — and whether it stayed intra-node.
#[inline]
pub fn link_prices(
    hier: Option<&Hierarchy>,
    alpha_t: f64,
    beta_t: f64,
    a: usize,
    b: usize,
) -> (f64, f64, bool) {
    match hier {
        Some(h) if same_node(hier, a, b) => (h.intra_alpha_t, h.intra_beta_t, true),
        _ => (alpha_t, beta_t, false),
    }
}

/// Messages a `words`-word transfer splits into at `m` words per
/// message: `⌈words/m⌉`, and an empty transfer is still one message.
#[inline]
pub fn chunk_count(words: usize, m: usize) -> usize {
    words.div_ceil(m).max(1)
}

/// What one message of `k` words adds to its sender's clock:
/// `alpha + beta·k`, Eq. 1's per-message charge.
#[inline]
pub(crate) fn chunk_charge(k: u64, alpha: f64, beta: f64) -> f64 {
    alpha + beta * k as f64
}

/// Charge one `words`-word transfer to `time`, chunk by chunk (the
/// paper's `S = W/m`): each of the [`chunk_count`] chunks of `k ≤ m`
/// words advances the clock by its `chunk_charge`, then
/// `per_chunk(k)` books it into whichever counters the caller keeps.
/// Sends, wasted retransmissions and checkpoint writes differ only in
/// that closure.
#[inline]
pub fn charge_chunks(
    time: &mut f64,
    words: u64,
    m: u64,
    alpha: f64,
    beta: f64,
    mut per_chunk: impl FnMut(u64),
) {
    let mut left = words;
    loop {
        let k = left.min(m);
        *time += chunk_charge(k, alpha, beta);
        per_chunk(k);
        if left <= m {
            break;
        }
        left -= m;
    }
}

/// Deterministically perturb a corrupted payload word: the result
/// always differs from `x` by at least 1.0, so integrity checks with
/// any reasonable tolerance can see it.
fn corrupt_word(x: f64) -> f64 {
    x + 1.0 + x.abs()
}

/// What a rank keeps only on a machine with a hierarchy or a fault plan
/// ([`SimConfig::tracks_overheads`]), boxed so that a flat fault-free
/// meter pays one null pointer for all of it: the counters nothing else
/// can move, and the per-rank fault-injection state (inert without a
/// plan: no checkpoint is ever due, no crash scheduled). Only what
/// changes per rank lives here; the plan itself is read from the
/// `SimConfig` every call receives, so a million faulted meters share
/// one plan. Fault decisions are pure functions of the plan seed and the
/// per-link transfer counters kept here, so they do not depend on the
/// order ranks execute in.
struct Cold {
    overheads: RankOverheads,
    /// Transfers initiated per outgoing link (indexes the plan): a
    /// peer-sorted arena with one entry per distinct peer ever sent to,
    /// so whole-machine fault state is `O(edges)`, not `O(p²)`.
    link_seq: Vec<(u32, u64)>,
    /// Virtual time of the next coordinated checkpoint boundary
    /// (`+inf` when checkpointing is off).
    next_cp: f64,
    /// Last checkpoint boundary crossed (crash rework restarts here).
    last_cp: f64,
    /// This rank's scheduled crash, not yet triggered.
    crash_at: Option<f64>,
    /// A crash that struck with no checkpoint to restart from; surfaced
    /// by the next fallible operation (or at rank exit).
    pending_crash: Option<SimError>,
}

impl Cold {
    /// Post-increment the sequence number of the link to `dest`,
    /// creating its arena entry on first contact.
    fn next_link_seq(&mut self, dest: usize) -> u64 {
        let peer = dest as u32;
        match self.link_seq.binary_search_by_key(&peer, |&(d, _)| d) {
            Ok(i) => {
                let seq = self.link_seq[i].1;
                self.link_seq[i].1 += 1;
                seq
            }
            Err(i) => {
                self.link_seq.insert(i, (peer, 1));
                0
            }
        }
    }
}

/// An outgoing transfer as the fault layer sees it: where it goes, how
/// long it is, and what its link charges.
struct Transfer {
    dest: usize,
    tag: u64,
    words: usize,
    alpha: f64,
    beta: f64,
}

/// What the receiver of a transfer needs from its sender's meter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Departure {
    /// Messages the transfer was priced as (`⌈words/m⌉`, min 1).
    pub n_chunks: usize,
    /// The sender's clock after pricing the transfer's last chunk.
    pub depart_time: f64,
}

/// What a finished rank hands its profile ([`Meter::into_parts`]).
pub(crate) type RankParts = (RankStats, Option<RankOverheads>, Option<Vec<TimedEvent>>);

/// One rank's accounting state; see the module docs. The machine
/// configuration is passed to each call rather than stored, so a
/// million meters share one `SimConfig`.
pub(crate) struct Meter {
    id: usize,
    p: usize,
    time: f64,
    stats: RankStats,
    events: Vec<TimedEvent>,
    cold: Option<Box<Cold>>,
}

impl Meter {
    /// The meter of rank `id` in a world of `p`, at virtual time zero.
    pub(crate) fn new(id: usize, p: usize, cfg: &SimConfig) -> Self {
        let plan = cfg.faults.as_ref();
        let cold = cfg.tracks_overheads().then(|| {
            Box::new(Cold {
                overheads: RankOverheads::default(),
                link_seq: Vec::new(),
                next_cp: plan
                    .and_then(|plan| plan.recovery.checkpoint)
                    .map_or(f64::INFINITY, |cp| cp.interval),
                last_cp: 0.0,
                crash_at: plan.and_then(|plan| plan.crash_at(id)),
                pending_crash: None,
            })
        });
        Meter {
            id,
            p,
            time: 0.0,
            stats: RankStats::default(),
            events: Vec::new(),
            cold,
        }
    }

    /// This rank's id in `0..size()`.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// World size `p`.
    pub(crate) fn size(&self) -> usize {
        self.p
    }

    /// The rank's current virtual time, seconds.
    pub(crate) fn now(&self) -> f64 {
        self.time
    }

    /// Finish the rank: its counters (with `finish_time` set), plus what
    /// `cfg` had it keep — an overhead block iff
    /// [`SimConfig::tracks_overheads`], a trace iff `record_trace` — so a
    /// collector can `extend` a profile's three vectors with the parts.
    pub(crate) fn into_parts(mut self, cfg: &SimConfig) -> RankParts {
        self.stats.finish_time = self.time;
        let overheads = self.cold.map(|c| c.overheads);
        (
            self.stats,
            overheads,
            cfg.record_trace.then_some(self.events),
        )
    }

    /// Append an event to the trace log (no-op unless recording).
    #[inline]
    fn record(&mut self, cfg: &SimConfig, t_start: f64, kind: EventKind) {
        if cfg.record_trace {
            self.events.push(TimedEvent {
                t_start,
                t_end: self.time,
                kind,
            });
        }
    }

    /// Record a collective-begin trace marker (no-op unless recording).
    #[inline]
    pub(crate) fn mark_collective_begin(&mut self, cfg: &SimConfig, op: &str) {
        if cfg.record_trace {
            self.record(cfg, self.time, EventKind::CollBegin { op: op.to_string() });
        }
    }

    /// Record the matching collective-end trace marker.
    #[inline]
    pub(crate) fn mark_collective_end(&mut self, cfg: &SimConfig, op: &str) {
        if cfg.record_trace {
            self.record(cfg, self.time, EventKind::CollEnd { op: op.to_string() });
        }
    }

    /// A crash the rank's program never got to observe (no fallible
    /// operation followed it); the transport checks this at rank exit.
    #[inline]
    pub(crate) fn take_fault_error(&mut self) -> Option<SimError> {
        self.cold.as_deref_mut()?.pending_crash.take()
    }

    /// The fallible prologue of a send or receive: `peer` must exist,
    /// and a pending unrecoverable crash (set by a preceding `compute`,
    /// which cannot return errors itself) surfaces here.
    #[inline]
    fn check(&mut self, peer: usize) -> SimResult<()> {
        if peer >= self.p {
            return Err(SimError::RankOutOfRange {
                rank: peer,
                size: self.p,
            });
        }
        self.take_fault_error().map_or(Ok(()), Err)
    }

    /// Burn one undelivered copy of `x` — a dropped or corrupt-detected
    /// attempt, or a duplicate: its link cost, then `backoff` seconds.
    /// The words land in the resilience counters, not `words_sent`, so
    /// the sent/received balance is preserved.
    fn wasted_attempt(&mut self, cfg: &SimConfig, x: &Transfer, attempt: usize, backoff: f64) {
        let cold = self.cold.as_deref_mut();
        let cold = cold.expect("a fault plan gives every meter its block");
        let overheads = &mut cold.overheads;
        let t0 = self.time;
        let (words, m) = (x.words as u64, cfg.max_message_words as u64);
        charge_chunks(&mut self.time, words, m, x.alpha, x.beta, |k| {
            overheads.retrans_msgs += 1;
            overheads.retrans_words += k;
        });
        self.time += backoff;
        overheads.retries += 1;
        self.record(
            cfg,
            t0,
            EventKind::Retry {
                dest: x.dest,
                tag: x.tag,
                attempt,
                words: x.words,
                backoff,
            },
        );
    }

    /// Run after every clock-advancing operation: write the coordinated
    /// checkpoints whose boundaries the operation crossed (to stable
    /// storage, at the machine-level link prices), then trigger this
    /// rank's scheduled crash once its clock passes the crash time.
    /// With a checkpoint policy the crash costs the rework since the
    /// last checkpoint boundary plus the restart time; without one it is
    /// fatal ([`SimError::RankCrashed`]).
    fn fault_epilogue(&mut self, cfg: &SimConfig) {
        let (Some(plan), Some(mut cold)) = (&cfg.faults, self.cold.take()) else {
            return;
        };
        if let Some(cp) = plan.recovery.checkpoint {
            // Only boundaries crossed by the operation itself fire here;
            // boundaries crossed while writing a checkpoint fire on the
            // next operation (keeps this loop finite even when a write
            // costs more than the interval).
            let t_op = self.time;
            while cold.next_cp <= t_op {
                let t0 = self.time;
                let m = cfg.max_message_words as u64;
                charge_chunks(&mut self.time, cp.words, m, cfg.alpha_t, cfg.beta_t, |k| {
                    cold.overheads.checkpoint_msgs += 1;
                    cold.overheads.checkpoint_words += k;
                });
                cold.last_cp = cold.next_cp;
                cold.next_cp += cp.interval;
                self.record(cfg, t0, EventKind::Checkpoint { words: cp.words });
            }
        }
        if let Some(at) = cold.crash_at {
            if self.time >= at {
                cold.crash_at = None;
                if let Some(cp) = plan.recovery.checkpoint {
                    let t0 = self.time;
                    let lost = self.time - cold.last_cp;
                    self.time += lost + cp.restart_seconds;
                    cold.overheads.crashes_recovered += 1;
                    self.record(
                        cfg,
                        t0,
                        EventKind::CrashRecovery {
                            lost,
                            restart: cp.restart_seconds,
                        },
                    );
                } else {
                    cold.pending_crash = Some(SimError::RankCrashed { rank: self.id, at });
                }
            }
        }
        self.cold = Some(cold);
    }

    /// Decide and apply this transfer's injected fault *before*
    /// delivery. Drop/corrupt faults under an ack protocol
    /// (`max_retries > 0`) burn failed attempts with exponential
    /// virtual-time backoff until one succeeds; a drop without retries
    /// is [`SimError::RetriesExhausted`]; a corruption without retries
    /// silently perturbs one payload word (ABFT's job to catch) —
    /// copy-on-write through [`Arc::make_mut`], so a shared payload is
    /// only duplicated when a corruption actually fires, and a counted
    /// transfer (no `payload`) has nothing to perturb. Delay stalls the
    /// sender. Returns `true` when the transfer must also be re-charged
    /// as a duplicate after delivery.
    fn inject_send_faults(
        &mut self,
        cfg: &SimConfig,
        x: &Transfer,
        payload: Option<&mut SharedPayload>,
    ) -> SimResult<bool> {
        let (Some(plan), Some(cold)) = (&cfg.faults, self.cold.as_deref_mut()) else {
            return Ok(false);
        };
        let (src, dest) = (self.id, x.dest);
        let seq = cold.next_link_seq(dest);
        match plan.link_fault(src, dest, seq) {
            None => Ok(false),
            Some(LinkFaultKind::Duplicate) => Ok(true),
            Some(LinkFaultKind::Delay) => {
                let t0 = self.time;
                let seconds = plan.spec.delay_seconds;
                self.time += seconds;
                self.record(cfg, t0, EventKind::LinkDelay { seconds });
                Ok(false)
            }
            Some(LinkFaultKind::Corrupt) if plan.recovery.max_retries == 0 => {
                if let Some(data) = payload.filter(|d| !d.is_empty()) {
                    let i = plan.corrupt_index(src, dest, seq, data.len());
                    let buf = Arc::make_mut(data);
                    buf[i] = corrupt_word(buf[i]);
                }
                Ok(false)
            }
            Some(LinkFaultKind::Drop) | Some(LinkFaultKind::Corrupt) => {
                let mut attempt: u32 = 0;
                loop {
                    let backoff = plan.recovery.retry_backoff * f64::powi(2.0, attempt as i32);
                    self.wasted_attempt(cfg, x, attempt as usize, backoff);
                    attempt += 1;
                    if attempt > plan.recovery.max_retries {
                        break Err(SimError::RetriesExhausted {
                            rank: src,
                            dest,
                            attempts: attempt,
                        });
                    }
                    match plan.attempt_fault(src, dest, seq, attempt) {
                        Some(LinkFaultKind::Drop) | Some(LinkFaultKind::Corrupt) => continue,
                        _ => break Ok(false),
                    }
                }
            }
        }
    }

    /// Execute `flops` floating-point operations: advances the virtual
    /// clock by `γt·flops` and the flop counter.
    #[inline]
    pub(crate) fn compute(&mut self, cfg: &SimConfig, flops: u64) {
        let t0 = self.time;
        self.stats.flops += flops;
        self.time += cfg.gamma_t * flops as f64;
        self.record(cfg, t0, EventKind::Compute { flops });
        if cfg.faults.is_some() {
            self.fault_epilogue(cfg);
        }
    }

    /// Track an allocation of `words` words. Errors if the configured
    /// per-rank memory limit would be exceeded.
    pub(crate) fn alloc(&mut self, cfg: &SimConfig, words: u64) -> SimResult<()> {
        let new = self.stats.mem_current + words;
        if let Some(limit) = cfg.mem_limit_words {
            if new > limit {
                return Err(SimError::MemoryLimitExceeded {
                    rank: self.id,
                    requested: new,
                    limit,
                });
            }
        }
        self.stats.mem_current = new;
        self.stats.mem_peak = self.stats.mem_peak.max(new);
        self.record(cfg, self.time, EventKind::Alloc { words });
        Ok(())
    }

    /// Track the release of `words` words.
    pub(crate) fn free(&mut self, cfg: &SimConfig, words: u64) -> SimResult<()> {
        if words > self.stats.mem_current {
            return Err(SimError::MemoryUnderflow { rank: self.id });
        }
        self.stats.mem_current -= words;
        self.record(cfg, self.time, EventKind::Free { words });
        Ok(())
    }

    /// Price sending `words` words to `dest` under `tag`: `⌈words/m⌉`
    /// messages, the clock advancing by `αt + k·βt` per chunk at the
    /// link's prices ([`link_prices`]), after any injected fault has
    /// been applied and before a duplicate is re-charged. A self-send is
    /// free (no link is crossed). `payload` is the buffer a retry-less
    /// corruption may perturb; pass `None` for a counted transfer. The
    /// caller delivers the returned [`Departure`] with the payload.
    pub(crate) fn send(
        &mut self,
        cfg: &SimConfig,
        dest: usize,
        tag: Tag,
        words: usize,
        payload: Option<&mut SharedPayload>,
    ) -> SimResult<Departure> {
        debug_assert!(payload.as_ref().is_none_or(|data| data.len() == words));
        self.check(dest)?;
        let send = EventKind::Send {
            dest,
            tag: tag.0,
            words,
        };
        if dest == self.id {
            self.record(cfg, self.time, send);
            return Ok(Departure {
                n_chunks: 1,
                depart_time: self.time,
            });
        }
        let hier = cfg.hierarchy.as_ref();
        let (alpha, beta, intra) = link_prices(hier, cfg.alpha_t, cfg.beta_t, self.id, dest);
        let x = Transfer {
            dest,
            tag: tag.0,
            words,
            alpha,
            beta,
        };
        let duplicate = cfg.faults.is_some() && self.inject_send_faults(cfg, &x, payload)?;
        let t_send = self.time;
        let m = cfg.max_message_words;
        let stats = &mut self.stats;
        // `intra` takes a hierarchy, and a hierarchy gives the meter its block.
        let mut intra_block = self.cold.as_deref_mut().filter(|_| intra);
        charge_chunks(&mut self.time, words as u64, m as u64, alpha, beta, |k| {
            stats.msgs_sent += 1;
            stats.words_sent += k;
            if let Some(cold) = &mut intra_block {
                cold.overheads.msgs_sent_intra += 1;
                cold.overheads.words_sent_intra += k;
            }
        });
        let departure = Departure {
            n_chunks: chunk_count(words, m),
            depart_time: self.time,
        };
        self.record(cfg, t_send, send);
        if duplicate {
            // The link sent the transfer twice; the receiver discards
            // the copy, but its bandwidth and latency are still paid.
            self.wasted_attempt(cfg, &x, 0, 0.0);
        }
        if cfg.faults.is_some() {
            self.fault_epilogue(cfg);
        }
        Ok(departure)
    }

    /// The fallible prologue of a receive, run when the receive is
    /// *issued*, before any blocking. Returns the receive's start time
    /// for [`Meter::recv`].
    #[inline]
    pub(crate) fn begin_recv(&mut self, src: usize) -> SimResult<f64> {
        self.check(src)?;
        Ok(self.time)
    }

    /// Complete the receive begun at `t0` with the matching transfer:
    /// the clock advances to its departure time
    /// (`max(t_local, t_depart)`, the no-overlap postal model).
    #[inline]
    pub(crate) fn recv(
        &mut self,
        cfg: &SimConfig,
        t0: f64,
        src: usize,
        tag: Tag,
        departure: Departure,
        words: usize,
    ) {
        self.time = self.time.max(departure.depart_time);
        if src != self.id {
            self.stats.words_recvd += words as u64;
            self.stats.msgs_recvd += departure.n_chunks as u64;
        }
        self.record(
            cfg,
            t0,
            EventKind::Recv {
                src,
                tag: tag.0,
                words,
                msgs: departure.n_chunks,
            },
        );
        if cfg.faults.is_some() {
            self.fault_epilogue(cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use psse_faults::{FaultPlan, FaultSpec, RecoveryPolicy};

    fn drop_plan(drop_rate: f64) -> FaultPlan {
        FaultPlan {
            spec: FaultSpec {
                seed: 7,
                drop_rate,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 8,
                retry_backoff: 1e-4,
                checkpoint: None,
            },
        }
    }

    /// The per-link sequence arena must be sized by *distinct peers
    /// talked to*, not by world size and not by transfer count — that is
    /// what keeps a faulted run's memory `O(p + live wires + edges)` on
    /// either backend, where a dense table per rank would be `8p²` bytes.
    #[test]
    fn fault_link_seq_grows_with_distinct_peers_only() {
        let p = 1 << 20;
        let cfg = SimConfig {
            faults: Some(drop_plan(0.0)),
            ..SimConfig::default()
        };
        let mut meter = Meter::new(0, p, &cfg);
        let peers = [1usize, 1 << 10, 1 << 19];
        for round in 0..100 {
            let dest = peers[round % peers.len()];
            meter
                .send(&cfg, dest, Tag(round as u64), 8, None)
                .expect("send");
        }
        let cold = meter.cold.as_deref().expect("fault state");
        assert_eq!(
            cold.link_seq.len(),
            peers.len(),
            "arena must hold one entry per distinct peer, not per transfer"
        );
        // ...and the entries really are per-link transfer counts.
        for &(peer, seq) in &cold.link_seq {
            assert!(peers.contains(&(peer as usize)));
            assert!(seq == 34 || seq == 33, "100 sends over 3 links");
        }
        assert!(cold.link_seq.is_sorted_by_key(|&(d, _)| d));
    }

    /// A `Meter` needs no transport: two of them driven by hand through
    /// a chunked, faulted, traced ping-pong on a two-level machine end
    /// with the counters and event logs `Machine::run` produces.
    #[test]
    fn two_bare_meters_match_machine_run() {
        const ROUNDS: u64 = 12;
        const WORDS: usize = 100;
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-6,
            alpha_t: 1e-3,
            max_message_words: 37,
            record_trace: true,
            hierarchy: Some(Hierarchy {
                cores_per_node: 2,
                intra_beta_t: 1e-8,
                intra_alpha_t: 1e-5,
            }),
            faults: Some(drop_plan(0.4)),
            ..SimConfig::default()
        };
        // Ranks 1 and 2 of a 4-rank world sit on different nodes; rank 1
        // also pings its node-mate 0, which never answers by hand or live.
        let (mut a, mut b) = (Meter::new(1, 4, &cfg), Meter::new(2, 4, &cfg));
        for round in 0..ROUNDS {
            a.compute(&cfg, 1000);
            a.send(&cfg, 0, Tag(500 + round), 3, None).unwrap();
            let mut ping: SharedPayload = Arc::new(vec![round as f64; WORDS]);
            let there = a.send(&cfg, 2, Tag(round), WORDS, Some(&mut ping)).unwrap();
            let t0 = b.begin_recv(1).unwrap();
            b.recv(&cfg, t0, 1, Tag(round), there, WORDS);
            let back = b.send(&cfg, 1, Tag(100 + round), WORDS, None).unwrap();
            let t0 = a.begin_recv(2).unwrap();
            a.recv(&cfg, t0, 2, Tag(100 + round), back, WORDS);
        }

        let live = Machine::run(4, cfg.clone(), |rank| {
            for round in 0..ROUNDS {
                match rank.rank() {
                    0 => drop(rank.recv(1, Tag(500 + round))?),
                    1 => {
                        rank.compute(1000);
                        rank.send(0, Tag(500 + round), vec![0.0; 3])?;
                        rank.send(2, Tag(round), vec![round as f64; WORDS])?;
                        rank.recv(2, Tag(100 + round))?;
                    }
                    2 => {
                        let ping = rank.recv(1, Tag(round))?;
                        assert_eq!(ping, vec![round as f64; WORDS]);
                        rank.send(1, Tag(100 + round), vec![0.0; WORDS])?;
                    }
                    _ => {}
                }
            }
            Ok(())
        })
        .unwrap()
        .profile;

        for (meter, r) in [(a, 1), (b, 2)] {
            let (stats, overheads, events) = meter.into_parts(&cfg);
            assert_eq!(stats, live.per_rank()[r], "rank {r} counters");
            assert_eq!(overheads, Some(live.overheads_of(r)), "rank {r} overheads");
            assert_eq!(events.as_ref(), Some(&live.events[r]), "rank {r} trace");
        }
        let (s, o) = (&live.per_rank()[1], live.overheads_of(1));
        assert!(o.retries > 0, "the drop plan must bite");
        assert_eq!(o.msgs_sent_intra, ROUNDS, "the node-mate pings are intra");
        assert_eq!(
            s.msgs_sent,
            ROUNDS * (1 + 3),
            "100 words at m = 37 is 3 chunks"
        );
    }
}
