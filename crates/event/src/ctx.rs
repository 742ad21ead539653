//! The per-rank pricing context: a faithful mirror of `psse-sim`'s
//! `Rank` accounting, detached from any thread.
//!
//! Every clock update, counter increment, fault decision, and trace
//! record here performs the **same floating-point operations in the
//! same order** as `crates/sim/src/rank.rs`. That is the whole
//! contract: profiles are pure functions of the message DAG, so an
//! event-driven executor that prices operations identically produces
//! byte-identical profiles to the thread-per-rank machine (enforced by
//! the cross-backend tests and the repo-level backend proptest).
//!
//! The one deliberate divergence is representation, not arithmetic:
//! per-link fault sequence numbers live in a tiny sorted arena instead
//! of a `vec![0; p]`, because at `p = 10^6` a dense vector per rank
//! would be 8 MB × p of dead weight while real algorithms talk to
//! `O(log p)` peers. The arena is a peer-sorted `Vec<(peer, seq)>`
//! probed by binary search: ~12 bytes per *distinct* peer actually
//! talked to (so whole-machine fault state is `O(edges)`, not `O(p²)`),
//! no hashing on the send path, and cache-resident at `O(log p)` peers.

use crate::step::{Delivered, Payload};
use psse_faults::{FaultPlan, LinkFaultKind};
use psse_sim::error::SimResult;
use psse_sim::record::{EventKind, TimedEvent};
use psse_sim::{RankStats, SharedPayload, SimConfig, SimError, Tag};
use std::sync::Arc;

/// Per-rank fault-injection state; mirrors `rank.rs`'s `FaultState`
/// with a sparse per-link sequence arena (see module docs).
struct FaultCtx {
    plan: FaultPlan,
    /// Transfers initiated per outgoing link (indexes the plan), sorted
    /// by peer rank; one entry per distinct peer ever sent to.
    link_seq: Vec<(u32, u64)>,
    /// Virtual time of the next coordinated checkpoint boundary.
    next_cp: f64,
    /// Last checkpoint boundary crossed.
    last_cp: f64,
    /// This rank's scheduled crash, not yet triggered.
    crash_at: Option<f64>,
    /// A crash with no checkpoint to restart from; surfaced by the next
    /// fallible operation (or at program end).
    pending_crash: Option<SimError>,
}

impl FaultCtx {
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

/// Deterministic corruption perturbation — identical to `rank.rs`.
fn corrupt_word(x: f64) -> f64 {
    x + 1.0 + x.abs()
}

/// One transfer on the virtual wire: everything the receiver needs to
/// price the matching receive. The event analogue of `psse-sim`'s
/// `Envelope`, with the payload optional so counted transfers carry no
/// allocation.
#[derive(Debug)]
pub(crate) struct Wire {
    /// Messages (chunks) the transfer was split into.
    pub n_chunks: usize,
    /// Sender's clock after all chunk pricing.
    pub depart_time: f64,
    /// Total payload words.
    pub words: usize,
    /// The payload, when it was a real buffer.
    pub data: Option<SharedPayload>,
}

/// The detached accounting state of one rank: virtual clock, Eq. 1/2
/// counters, trace log, and fault state.
pub(crate) struct RankCtx {
    id: usize,
    p: usize,
    time: f64,
    stats: RankStats,
    events: Vec<TimedEvent>,
    fault: Option<Box<FaultCtx>>,
}

impl RankCtx {
    pub(crate) fn new(id: usize, p: usize, cfg: &SimConfig) -> Self {
        let fault = cfg.faults.as_ref().map(|plan| {
            Box::new(FaultCtx {
                plan: plan.clone(),
                link_seq: Vec::new(),
                next_cp: plan
                    .recovery
                    .checkpoint
                    .map_or(f64::INFINITY, |cp| cp.interval),
                last_cp: 0.0,
                crash_at: plan.crash_at(id),
                pending_crash: None,
            })
        });
        RankCtx {
            id,
            p,
            time: 0.0,
            stats: RankStats::default(),
            events: Vec::new(),
            fault,
        }
    }

    pub(crate) fn into_parts(mut self) -> (RankStats, Vec<TimedEvent>) {
        self.stats.finish_time = self.time;
        (self.stats, self.events)
    }

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

    pub(crate) fn mark_collective_begin(&mut self, cfg: &SimConfig, op: &str) {
        if cfg.record_trace {
            let t = self.time;
            self.record(cfg, t, EventKind::CollBegin { op: op.to_string() });
        }
    }

    pub(crate) fn mark_collective_end(&mut self, cfg: &SimConfig, op: &str) {
        if cfg.record_trace {
            let t = self.time;
            self.record(cfg, t, EventKind::CollEnd { op: op.to_string() });
        }
    }

    fn fail_if_crashed(&mut self) -> SimResult<()> {
        if let Some(fs) = self.fault.as_deref_mut() {
            if let Some(e) = fs.pending_crash.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// A crash no fallible operation surfaced; checked at program end
    /// (the analogue of `Machine::run`'s rank-exit check).
    pub(crate) fn take_fault_error(&mut self) -> Option<SimError> {
        self.fault
            .as_deref_mut()
            .and_then(|fs| fs.pending_crash.take())
    }

    fn check_peer(&self, peer: usize) -> SimResult<()> {
        if peer >= self.p {
            return Err(SimError::RankOutOfRange {
                rank: peer,
                size: self.p,
            });
        }
        Ok(())
    }

    fn same_node(&self, cfg: &SimConfig, peer: usize) -> bool {
        match &cfg.hierarchy {
            Some(h) => self.id / h.cores_per_node == peer / h.cores_per_node,
            None => false,
        }
    }

    fn charge_wasted_transfer(&mut self, cfg: &SimConfig, total: usize, alpha: f64, beta: f64) {
        let m = cfg.max_message_words;
        let mut left = total;
        loop {
            let k = left.min(m);
            self.time += alpha + beta * k as f64;
            self.stats.retrans_msgs += 1;
            self.stats.retrans_words += k as u64;
            if left <= m {
                break;
            }
            left -= m;
        }
    }

    fn charge_checkpoint_write(&mut self, cfg: &SimConfig, words: u64) {
        let m = cfg.max_message_words as u64;
        let (alpha, beta) = (cfg.alpha_t, cfg.beta_t);
        let mut left = words;
        loop {
            let k = left.min(m);
            self.time += alpha + beta * k as f64;
            self.stats.checkpoint_msgs += 1;
            self.stats.checkpoint_words += k;
            if left <= m {
                break;
            }
            left -= m;
        }
    }

    fn fault_epilogue(&mut self, cfg: &SimConfig) {
        let Some(mut fs) = self.fault.take() else {
            return;
        };
        if let Some(cp) = fs.plan.recovery.checkpoint {
            let t_op = self.time;
            while fs.next_cp <= t_op {
                let t0 = self.time;
                self.charge_checkpoint_write(cfg, cp.words);
                fs.last_cp = fs.next_cp;
                fs.next_cp += cp.interval;
                self.record(cfg, t0, EventKind::Checkpoint { words: cp.words });
            }
        }
        if let Some(at) = fs.crash_at {
            if self.time >= at {
                fs.crash_at = None;
                if let Some(cp) = fs.plan.recovery.checkpoint {
                    let t0 = self.time;
                    let lost = self.time - fs.last_cp;
                    self.time += lost + cp.restart_seconds;
                    self.stats.crashes_recovered += 1;
                    self.record(
                        cfg,
                        t0,
                        EventKind::CrashRecovery {
                            lost,
                            restart: cp.restart_seconds,
                        },
                    );
                } else {
                    fs.pending_crash = Some(SimError::RankCrashed { rank: self.id, at });
                }
            }
        }
        self.fault = Some(fs);
    }

    /// Mirror of `rank.rs::inject_send_faults`. Counted payloads carry
    /// no bytes, so a retry-less corruption perturbs nothing — the
    /// clock and counters (the observable profile) are still identical
    /// to the thread backend, which corrupts one word of the zero-fill.
    fn inject_send_faults(
        &mut self,
        cfg: &SimConfig,
        dest: usize,
        tag: Tag,
        payload: &mut Payload,
        alpha: f64,
        beta: f64,
    ) -> SimResult<bool> {
        let Some(mut fs) = self.fault.take() else {
            return Ok(false);
        };
        let seq = fs.next_link_seq(dest);
        let primary = fs.plan.link_fault(self.id, dest, seq);
        let res = match primary {
            None => Ok(false),
            Some(LinkFaultKind::Duplicate) => Ok(true),
            Some(LinkFaultKind::Delay) => {
                let t0 = self.time;
                let seconds = fs.plan.spec.delay_seconds;
                self.time += seconds;
                self.record(cfg, t0, EventKind::LinkDelay { seconds });
                Ok(false)
            }
            Some(LinkFaultKind::Corrupt) if fs.plan.recovery.max_retries == 0 => {
                if let Payload::Data(data) = payload {
                    if !data.is_empty() {
                        let i = fs.plan.corrupt_index(self.id, dest, seq, data.len());
                        let words = Arc::make_mut(data);
                        words[i] = corrupt_word(words[i]);
                    }
                }
                Ok(false)
            }
            Some(LinkFaultKind::Drop) | Some(LinkFaultKind::Corrupt) => {
                let words = payload.words();
                let max_retries = fs.plan.recovery.max_retries;
                let mut attempt: u32 = 0;
                loop {
                    let t0 = self.time;
                    self.charge_wasted_transfer(cfg, words, alpha, beta);
                    let backoff = fs.plan.recovery.retry_backoff * f64::powi(2.0, attempt as i32);
                    self.time += backoff;
                    self.stats.retries += 1;
                    self.record(
                        cfg,
                        t0,
                        EventKind::Retry {
                            dest,
                            tag: tag.0,
                            attempt: attempt as usize,
                            words,
                            backoff,
                        },
                    );
                    attempt += 1;
                    if attempt > max_retries {
                        break Err(SimError::RetriesExhausted {
                            rank: self.id,
                            dest,
                            attempts: attempt,
                        });
                    }
                    match fs.plan.attempt_fault(self.id, dest, seq, attempt) {
                        Some(LinkFaultKind::Drop) | Some(LinkFaultKind::Corrupt) => continue,
                        _ => break Ok(false),
                    }
                }
            }
        };
        self.fault = Some(fs);
        res
    }

    /// Mirror of `Rank::compute`.
    pub(crate) fn compute(&mut self, cfg: &SimConfig, flops: u64) {
        let t0 = self.time;
        self.stats.flops += flops;
        self.time += cfg.gamma_t * flops as f64;
        self.record(cfg, t0, EventKind::Compute { flops });
        if self.fault.is_some() {
            self.fault_epilogue(cfg);
        }
    }

    /// Mirror of `Rank::send_shared`, returning the wire message for
    /// the executor to deliver instead of pushing to a mailbox.
    pub(crate) fn price_send(
        &mut self,
        cfg: &SimConfig,
        dest: usize,
        tag: Tag,
        payload: Payload,
    ) -> SimResult<Wire> {
        self.check_peer(dest)?;
        self.fail_if_crashed()?;
        let t0 = self.time;
        if dest == self.id {
            // A self-send is free: no link crossed, no counters, and the
            // payload is immediately receivable.
            let words = payload.words();
            let wire = Wire {
                n_chunks: 1,
                depart_time: self.time,
                words,
                data: payload_data(payload),
            };
            self.record(
                cfg,
                t0,
                EventKind::Send {
                    dest,
                    tag: tag.0,
                    words,
                },
            );
            return Ok(wire);
        }
        let intra = self.same_node(cfg, dest);
        let (alpha, beta) = match (&cfg.hierarchy, intra) {
            (Some(h), true) => (h.intra_alpha_t, h.intra_beta_t),
            _ => (cfg.alpha_t, cfg.beta_t),
        };
        let m = cfg.max_message_words;
        let mut payload = payload;
        let duplicate = if self.fault.is_some() {
            self.inject_send_faults(cfg, dest, tag, &mut payload, alpha, beta)?
        } else {
            false
        };
        let t_send = self.time;
        let total = payload.words();
        let n_chunks = if total == 0 { 1 } else { total.div_ceil(m) };
        // Arithmetic chunk pricing — the exact clock/counter updates of
        // `rank.rs`, in the same f64 operand order.
        let mut left = total;
        loop {
            let k = left.min(m);
            self.time += alpha + beta * k as f64;
            self.stats.msgs_sent += 1;
            self.stats.words_sent += k as u64;
            if intra {
                self.stats.msgs_sent_intra += 1;
                self.stats.words_sent_intra += k as u64;
            }
            if left <= m {
                break;
            }
            left -= m;
        }
        let wire = Wire {
            n_chunks,
            depart_time: self.time,
            words: total,
            data: payload_data(payload),
        };
        self.record(
            cfg,
            t_send,
            EventKind::Send {
                dest,
                tag: tag.0,
                words: total,
            },
        );
        if duplicate {
            let td = self.time;
            self.charge_wasted_transfer(cfg, total, alpha, beta);
            self.stats.retries += 1;
            self.record(
                cfg,
                td,
                EventKind::Retry {
                    dest,
                    tag: tag.0,
                    attempt: 0,
                    words: total,
                    backoff: 0.0,
                },
            );
        }
        if self.fault.is_some() {
            self.fault_epilogue(cfg);
        }
        Ok(wire)
    }

    /// The fallible prologue of a receive (peer check, pending-crash
    /// surfacing) — runs when the program *issues* the `Recv` step,
    /// before any blocking, exactly where `rank.rs` runs it.
    pub(crate) fn begin_recv(&mut self, src: usize) -> SimResult<f64> {
        self.check_peer(src)?;
        self.fail_if_crashed()?;
        Ok(self.time)
    }

    /// Mirror of the delivery half of `Rank::recv_shared`: advance to
    /// the transfer's departure time, count it, record it.
    pub(crate) fn price_recv(
        &mut self,
        cfg: &SimConfig,
        t0: f64,
        src: usize,
        tag: Tag,
        wire: Wire,
    ) -> Delivered {
        self.time = self.time.max(wire.depart_time);
        let words = wire.words;
        if src != self.id {
            self.stats.words_recvd += words as u64;
            self.stats.msgs_recvd += wire.n_chunks as u64;
        }
        self.record(
            cfg,
            t0,
            EventKind::Recv {
                src,
                tag: tag.0,
                words,
                msgs: wire.n_chunks,
            },
        );
        if self.fault.is_some() {
            self.fault_epilogue(cfg);
        }
        Delivered {
            words,
            data: wire.data,
        }
    }
}

fn payload_data(payload: Payload) -> Option<SharedPayload> {
    match payload {
        Payload::Counted(_) => None,
        Payload::Data(d) => Some(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psse_faults::{FaultSpec, RecoveryPolicy};

    /// Regression for the fault-state memory bound: the per-link
    /// sequence arena must be sized by *distinct peers talked to*, not
    /// by world size and not by transfer count — that is what keeps a
    /// faulted run's memory `O(p + live wires + edges)` at `p = 10^6`.
    #[test]
    fn fault_link_seq_grows_with_distinct_peers_only() {
        let p = 1 << 20;
        let cfg = SimConfig {
            faults: Some(FaultPlan {
                spec: FaultSpec {
                    seed: 7,
                    ..FaultSpec::default()
                },
                recovery: RecoveryPolicy {
                    max_retries: 3,
                    retry_backoff: 1e-9,
                    checkpoint: None,
                },
            }),
            ..SimConfig::default()
        };
        let mut ctx = RankCtx::new(0, p, &cfg);
        let peers = [1usize, 1 << 10, 1 << 19];
        for round in 0..100 {
            let dest = peers[round % peers.len()];
            ctx.price_send(&cfg, dest, Tag(round as u64), Payload::Counted(8))
                .expect("send");
        }
        let fs = ctx.fault.as_deref().expect("fault state");
        assert_eq!(
            fs.link_seq.len(),
            peers.len(),
            "arena must hold one entry per distinct peer, not per transfer"
        );
        // ...and the entries really are per-link transfer counts.
        for &(peer, seq) in &fs.link_seq {
            assert!(peers.contains(&(peer as usize)));
            assert!(seq == 34 || seq == 33, "100 sends over 3 links");
        }
        assert!(fs.link_seq.is_sorted_by_key(|&(d, _)| d));
    }
}
