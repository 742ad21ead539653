//! The per-rank handle: a [`Meter`] plus the thread transport.

use crate::error::{SimError, SimResult};
use crate::machine::SimConfig;
use crate::mailbox::{Mailboxes, RecvWait};
use crate::message::{Envelope, SharedPayload, Tag};
use crate::meter::{same_node, Meter, RankParts};
use crate::program::{Delivered, RankProgram, Step};
use std::sync::Arc;

/// A rank of the simulated machine. Handed by [`crate::Machine::run`] to
/// the per-rank program. All pricing — clock, counters, faults, trace —
/// is the rank's [`Meter`]; this type adds only how transfers travel
/// between OS threads (mailboxes, blocking, cancellation).
pub struct Rank {
    meter: Meter,
    cfg: Arc<SimConfig>,
    mailboxes: Arc<Mailboxes>,
}

impl Rank {
    pub(crate) fn new(id: usize, p: usize, cfg: Arc<SimConfig>, mailboxes: Arc<Mailboxes>) -> Self {
        Rank {
            meter: Meter::new(id, p, &cfg),
            cfg,
            mailboxes,
        }
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.meter.id()
    }

    /// World size `p`.
    pub fn size(&self) -> usize {
        self.meter.size()
    }

    /// The rank's current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.meter.now()
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Finish the rank ([`Meter::into_parts`]), or report the crash its
    /// program never got to observe (no fallible operation followed it).
    pub(crate) fn finish(mut self) -> SimResult<RankParts> {
        match self.meter.take_fault_error() {
            Some(e) => Err(e),
            None => Ok(self.meter.into_parts(&self.cfg)),
        }
    }

    /// Record a collective-begin trace marker (no-op unless recording).
    /// Public so external step-driven executors (`psse-event`'s rank
    /// programs) can emit the same markers the built-in collectives do.
    pub fn mark_collective_begin(&mut self, op: &str) {
        self.meter.mark_collective_begin(&self.cfg, op);
    }

    /// Record the matching collective-end trace marker; see
    /// [`Rank::mark_collective_begin`].
    pub fn mark_collective_end(&mut self, op: &str) {
        self.meter.mark_collective_end(&self.cfg, op);
    }

    /// Record a collective begin/end marker pair around `body`. The end
    /// marker is only written when the collective succeeds; a failing
    /// collective aborts the run anyway.
    pub(crate) fn with_collective<T>(
        &mut self,
        op: &str,
        body: impl FnOnce(&mut Self) -> SimResult<T>,
    ) -> SimResult<T> {
        self.mark_collective_begin(op);
        let out = body(self)?;
        self.mark_collective_end(op);
        Ok(out)
    }

    /// Execute `flops` floating-point operations: advances the virtual
    /// clock by `γt·flops` and the flop counter.
    pub fn compute(&mut self, flops: u64) {
        self.meter.compute(&self.cfg, flops);
    }

    /// Track an allocation of `words` words. Errors if the configured
    /// per-rank memory limit would be exceeded.
    pub fn alloc(&mut self, words: u64) -> SimResult<()> {
        self.meter.alloc(&self.cfg, words)
    }

    /// Track the release of `words` words.
    pub fn free(&mut self, words: u64) -> SimResult<()> {
        self.meter.free(&self.cfg, words)
    }

    /// Surface an external cancellation request ([`crate::CancelFlag`])
    /// as an error at the next communication point. One relaxed-ish
    /// atomic load when a flag is configured; a plain `None` branch
    /// otherwise.
    fn check_cancelled(&self) -> SimResult<()> {
        match &self.cfg.cancel {
            Some(flag) if flag.is_cancelled() => Err(SimError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Whether `peer` lives on the same node as this rank (always false
    /// on a flat machine).
    pub fn same_node(&self, peer: usize) -> bool {
        same_node(self.cfg.hierarchy.as_ref(), self.rank(), peer)
    }

    /// Send `payload` to `dest` under `tag`. Never blocks (eager,
    /// unbounded buffering). Transfers longer than the machine's maximum
    /// message size count `⌈k/m⌉` messages and the sender's clock
    /// advances by `αt + k·βt` per chunk — at the intra-node prices when
    /// a [`crate::machine::Hierarchy`] is configured and `dest` shares
    /// this rank's node. A self-send is free (no link is crossed) and
    /// the payload becomes immediately receivable.
    ///
    /// This is a zero-copy wrapper over [`Rank::send_shared`]; use
    /// [`Rank::send_slice`] when you would otherwise clone a buffer to
    /// call it.
    pub fn send(&mut self, dest: usize, tag: Tag, payload: Vec<f64>) -> SimResult<()> {
        self.send_shared(dest, tag, Arc::new(payload))
    }

    /// Borrowing send: like [`Rank::send`], but copies the words out of
    /// `payload` itself (once, into the wire buffer) instead of making
    /// the caller clone a `Vec` it wants to keep.
    pub fn send_slice(&mut self, dest: usize, tag: Tag, payload: &[f64]) -> SimResult<()> {
        self.send_shared(dest, tag, Arc::new(payload.to_vec()))
    }

    /// Shared send: like [`Rank::send`], but the payload is a
    /// reference-counted buffer the wire can carry without copying —
    /// the right call when the same data goes to several peers (fan-out
    /// in a broadcast tree, forwarding in an allgather ring). Pricing,
    /// counters, fault decisions, and traces are identical to
    /// [`Rank::send`].
    pub fn send_shared(
        &mut self,
        dest: usize,
        tag: Tag,
        mut payload: SharedPayload,
    ) -> SimResult<()> {
        self.check_cancelled()?;
        let words = payload.len();
        let departure = self
            .meter
            .send(&self.cfg, dest, tag, words, Some(&mut payload))?;
        // One wire message for the whole transfer, however many chunks
        // it was priced as.
        self.mailboxes.push(
            dest,
            Envelope {
                src: self.rank(),
                tag,
                departure,
                payload,
            },
        );
        Ok(())
    }

    /// Receive the transfer sent by `src` under `tag`, blocking until it
    /// arrives. The rank's clock advances to the transfer's departure
    /// time (`max(t_local, t_depart)`).
    pub fn recv(&mut self, src: usize, tag: Tag) -> SimResult<Vec<f64>> {
        let shared = self.recv_shared(src, tag)?;
        // Sole owner (the common case: sender dropped its handle) means
        // the Vec is unwrapped without copying.
        Ok(Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Like [`Rank::recv`], but returns the shared wire buffer itself —
    /// zero-copy even when the sender (or another receiver downstream)
    /// still holds a reference, e.g. when forwarding the same payload
    /// onward in a ring or tree.
    pub fn recv_shared(&mut self, src: usize, tag: Tag) -> SimResult<SharedPayload> {
        self.check_cancelled()?;
        let t0 = self.meter.begin_recv(src)?;
        let me = self.rank();
        // Parks until the matching push; never on a wall clock. A run
        // that can no longer complete this receive says why.
        let env = match self.mailboxes.recv(me, src, tag) {
            RecvWait::Message(env) => env,
            RecvWait::Poisoned => {
                // An external cancellation wakes receivers through the
                // same poison flag as a failing peer.
                self.check_cancelled()?;
                return Err(SimError::PeerFailed(format!(
                    "rank {me} abandoned recv from {src}: a peer rank failed"
                )));
            }
            RecvWait::Deadlocked(blocked) => {
                return Err(SimError::Deadlock { rank: me, blocked });
            }
        };
        let words = env.payload.len();
        self.meter
            .recv(&self.cfg, t0, src, tag, env.departure, words);
        Ok(env.payload)
    }

    /// Run `program` on this rank to its end: each [`Step`] is the `Rank`
    /// call a closure would make — `Compute` → [`Rank::compute`], `Send`
    /// → [`Rank::send_shared`], `Recv` → [`Rank::recv_shared`], the
    /// markers → [`Rank::mark_collective_begin`] and
    /// [`Rank::mark_collective_end`] — until `Done`; `Fail`, or a call
    /// that fails, ends it with that error. The collectives run their
    /// descriptions through it, and `psse-event` runs any program on the
    /// thread machine with it, as the oracle its scheduler is held to.
    pub fn run_program(&mut self, program: &mut impl RankProgram) -> SimResult<()> {
        let mut delivered = None;
        loop {
            match program.next(delivered.take()) {
                Step::Compute { flops } => self.compute(flops),
                Step::Send { dest, tag, payload } => {
                    self.send_shared(dest, tag, payload.into_shared())?;
                }
                Step::Recv { src, tag } => {
                    let data = self.recv_shared(src, tag)?;
                    delivered = Some(Delivered {
                        words: data.len(),
                        data: Some(data),
                    });
                }
                Step::CollBegin { op } => self.mark_collective_begin(op),
                Step::CollEnd { op } => self.mark_collective_end(op),
                Step::Done => return Ok(()),
                Step::Fail(e) => return Err(e),
            }
        }
    }

    /// Send to `dest` and receive from `src` in one call. Safe in rings
    /// and shifts because sends are eager.
    pub fn sendrecv(
        &mut self,
        dest: usize,
        send_tag: Tag,
        payload: Vec<f64>,
        src: usize,
        recv_tag: Tag,
    ) -> SimResult<Vec<f64>> {
        self.send(dest, send_tag, payload)?;
        self.recv(src, recv_tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, SimConfig};
    use crate::profile::RankOverheads;

    #[test]
    fn ping_pong_times_and_counters() {
        let cfg = SimConfig {
            gamma_t: 0.0,
            beta_t: 1e-6,
            alpha_t: 1e-3,
            max_message_words: 1 << 20,
            ..SimConfig::default()
        };
        let out = Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(1), vec![0.0; 1000])?;
                let back = rank.recv(1, Tag(2))?;
                assert_eq!(back.len(), 1000);
            } else {
                let data = rank.recv(0, Tag(1))?;
                rank.send(0, Tag(2), data)?;
            }
            Ok(rank.now())
        })
        .unwrap();
        // Each direction costs α + 1000β = 1e-3 + 1e-3 = 2e-3.
        let expect = 2.0 * (1e-3 + 1000.0 * 1e-6);
        assert!((out.profile.makespan - expect).abs() < 1e-12);
        let s = &out.profile.per_rank()[0];
        assert_eq!(s.words_sent, 1000);
        assert_eq!(s.msgs_sent, 1);
        assert_eq!(s.words_recvd, 1000);
        assert_eq!(s.msgs_recvd, 1);
    }

    #[test]
    fn long_transfers_split_into_messages() {
        let cfg = SimConfig {
            max_message_words: 100,
            ..SimConfig::counters_only()
        };
        let out = Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0; 450])?;
            } else {
                let v = rank.recv(0, Tag(0))?;
                assert_eq!(v.len(), 450);
                assert!(v.iter().all(|&x| x == 1.0));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out.profile.per_rank()[0].msgs_sent, 5); // ceil(450/100)
        assert_eq!(out.profile.per_rank()[0].words_sent, 450);
        assert_eq!(out.profile.per_rank()[1].msgs_recvd, 5);
    }

    #[test]
    fn payload_order_is_preserved_across_chunks() {
        let cfg = SimConfig {
            max_message_words: 7,
            ..SimConfig::counters_only()
        };
        Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                let payload: Vec<f64> = (0..100).map(|i| i as f64).collect();
                rank.send(1, Tag(3), payload)?;
            } else {
                let v = rank.recv(0, Tag(3))?;
                for (i, &x) in v.iter().enumerate() {
                    assert_eq!(x, i as f64);
                }
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        Machine::run(2, SimConfig::counters_only(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(10), vec![10.0])?;
                rank.send(1, Tag(20), vec![20.0])?;
            } else {
                // Receive in reverse order of sending.
                let b = rank.recv(0, Tag(20))?;
                let a = rank.recv(0, Tag(10))?;
                assert_eq!(a, vec![10.0]);
                assert_eq!(b, vec![20.0]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn empty_message_costs_one_latency() {
        let cfg = SimConfig {
            gamma_t: 0.0,
            beta_t: 1e-6,
            alpha_t: 0.5,
            ..SimConfig::default()
        };
        let out = Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![])?;
            } else {
                let v = rank.recv(0, Tag(0))?;
                assert!(v.is_empty());
            }
            Ok(())
        })
        .unwrap();
        assert!((out.profile.makespan - 0.5).abs() < 1e-12);
        assert_eq!(out.profile.per_rank()[0].msgs_sent, 1);
        assert_eq!(out.profile.per_rank()[0].words_sent, 0);
    }

    #[test]
    fn self_send_is_free_and_receivable() {
        let out = Machine::run(1, SimConfig::default(), |rank| {
            rank.send(0, Tag(5), vec![42.0])?;
            let v = rank.recv(0, Tag(5))?;
            assert_eq!(v, vec![42.0]);
            Ok(rank.now())
        })
        .unwrap();
        assert_eq!(out.results[0], 0.0);
        assert_eq!(out.profile.per_rank()[0].words_sent, 0);
        assert_eq!(out.profile.per_rank()[0].msgs_sent, 0);
    }

    #[test]
    fn rank_out_of_range_is_caught() {
        let r = Machine::run(2, SimConfig::default(), |rank| rank.send(5, Tag(0), vec![]));
        assert!(matches!(
            r,
            Err(SimError::RankOutOfRange { rank: 5, size: 2 })
        ));
    }

    #[test]
    fn receive_waits_for_virtual_arrival() {
        // Sender computes for a long virtual time before sending; the
        // receiver's clock must jump to the arrival time.
        let cfg = SimConfig {
            gamma_t: 1e-6,
            beta_t: 0.0,
            alpha_t: 0.0,
            ..SimConfig::default()
        };
        let out = Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                rank.compute(1_000_000); // 1.0 virtual second
                rank.send(1, Tag(0), vec![1.0])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(rank.now())
        })
        .unwrap();
        assert!((out.results[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn virtual_time_ignores_wall_clock_waiting() {
        // Receiver that waits (wall-clock) for a sender does not accrue
        // virtual time beyond the message arrival.
        let cfg = SimConfig {
            gamma_t: 0.0,
            beta_t: 0.0,
            alpha_t: 1e-3,
            ..SimConfig::default()
        };
        let out = Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                rank.send(1, Tag(0), vec![])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(rank.now())
        })
        .unwrap();
        assert!((out.results[1] - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn memory_tracking_and_limits() {
        let cfg = SimConfig {
            mem_limit_words: Some(1000),
            ..SimConfig::default()
        };
        let out = Machine::run(1, cfg.clone(), |rank| {
            rank.alloc(600)?;
            rank.alloc(300)?;
            rank.free(500)?;
            rank.alloc(400)?;
            Ok(())
        })
        .unwrap();
        let s = &out.profile.per_rank()[0];
        assert_eq!(s.mem_peak, 900);
        assert_eq!(s.mem_current, 800);

        let r = Machine::run(1, cfg, |rank| {
            rank.alloc(600)?;
            rank.alloc(600)?;
            Ok(())
        });
        assert!(matches!(r, Err(SimError::MemoryLimitExceeded { .. })));
    }

    #[test]
    fn memory_underflow_is_caught() {
        let r = Machine::run(1, SimConfig::default(), |rank| {
            rank.alloc(10)?;
            rank.free(20)
        });
        assert!(matches!(r, Err(SimError::MemoryUnderflow { rank: 0 })));
    }

    #[test]
    fn sendrecv_ring_shift_does_not_deadlock() {
        let p = 8;
        let out = Machine::run(p, SimConfig::default(), |rank| {
            let right = (rank.rank() + 1) % rank.size();
            let left = (rank.rank() + rank.size() - 1) % rank.size();
            let v = rank.sendrecv(right, Tag(0), vec![rank.rank() as f64], left, Tag(0))?;
            Ok(v[0])
        })
        .unwrap();
        for (r, v) in out.results.iter().enumerate() {
            assert_eq!(*v, ((r + p - 1) % p) as f64);
        }
    }

    #[test]
    fn hierarchy_prices_intra_node_links_cheaper() {
        use crate::machine::Hierarchy;
        let cfg = SimConfig {
            gamma_t: 0.0,
            beta_t: 1e-6,
            alpha_t: 1e-3,
            hierarchy: Some(Hierarchy {
                cores_per_node: 2,
                intra_beta_t: 1e-8,
                intra_alpha_t: 1e-5,
            }),
            ..SimConfig::default()
        };
        // Ranks 0,1 share node 0; rank 2,3 share node 1.
        let out = Machine::run(4, cfg, |rank| {
            match rank.rank() {
                0 => {
                    rank.send(1, Tag(0), vec![0.0; 1000])?; // intra
                    rank.send(2, Tag(1), vec![0.0; 1000])?; // inter
                }
                1 => {
                    rank.recv(0, Tag(0))?;
                }
                2 => {
                    rank.recv(0, Tag(1))?;
                }
                _ => {}
            }
            Ok(rank.now())
        })
        .unwrap();
        // Rank 0 paid intra (1e-5 + 1000·1e-8 = 2e-5) then inter
        // (1e-3 + 1000·1e-6 = 2e-3).
        assert!((out.results[0] - (2e-5 + 2e-3)).abs() < 1e-12);
        // Rank 1's arrival: after the intra send only.
        assert!((out.results[1] - 2e-5).abs() < 1e-12);
        // Counters split by level.
        let (s0, o0) = (&out.profile.per_rank()[0], out.profile.overheads_of(0));
        assert_eq!(s0.words_sent, 2000);
        assert_eq!(o0.words_sent_intra, 1000);
        assert_eq!(o0.msgs_sent_intra, 1);
        assert!(out.profile.per_rank()[0].msgs_sent == 2);
        assert_eq!(out.profile.total_words_inter(), 1000);
        // A hierarchy alone moves the intra shares and nothing else, and
        // the block covers every rank once any rank's is non-zero.
        let only_intra = RankOverheads {
            words_sent_intra: 1000,
            msgs_sent_intra: 1,
            ..RankOverheads::default()
        };
        let mut block = vec![RankOverheads::default(); 4];
        block[0] = only_intra;
        assert_eq!(out.profile.overheads(), block);
    }

    #[test]
    fn same_node_logic() {
        use crate::machine::Hierarchy;
        let cfg = SimConfig {
            hierarchy: Some(Hierarchy {
                cores_per_node: 4,
                intra_beta_t: 0.0,
                intra_alpha_t: 0.0,
            }),
            ..SimConfig::default()
        };
        let out = Machine::run(8, cfg, |rank| Ok((rank.same_node(0), rank.same_node(7)))).unwrap();
        assert_eq!(out.results[0], (true, false));
        assert_eq!(out.results[3], (true, false));
        assert_eq!(out.results[4], (false, true));
    }

    #[test]
    fn flat_machine_has_no_same_node_pairs() {
        let out = Machine::run(2, SimConfig::default(), |rank| Ok(rank.same_node(0))).unwrap();
        assert_eq!(out.results, vec![false, false]);
    }

    #[test]
    fn invalid_hierarchy_rejected() {
        use crate::machine::Hierarchy;
        let cfg = SimConfig {
            hierarchy: Some(Hierarchy {
                cores_per_node: 0,
                intra_beta_t: 0.0,
                intra_alpha_t: 0.0,
            }),
            ..SimConfig::default()
        };
        assert!(matches!(
            Machine::run(2, cfg, |_| Ok(())),
            Err(SimError::InvalidConfig(_))
        ));
    }

    fn fault_cfg(plan: psse_faults::FaultPlan) -> SimConfig {
        SimConfig {
            gamma_t: 0.0,
            beta_t: 1e-6,
            alpha_t: 1e-3,
            faults: Some(plan),
            ..SimConfig::default()
        }
    }

    fn drop_plan(rate: f64, retries: u32) -> psse_faults::FaultPlan {
        psse_faults::FaultPlan {
            spec: psse_faults::FaultSpec {
                seed: 7,
                drop_rate: rate,
                ..Default::default()
            },
            recovery: psse_faults::RecoveryPolicy {
                max_retries: retries,
                retry_backoff: 1e-4,
                checkpoint: None,
            },
        }
    }

    #[test]
    fn dropped_transfer_is_retried_and_charged() {
        // Drop rate 1 on attempt 0 would retry forever; use rate 1 with
        // one retry only if attempt 1 passes — instead pick a rate where
        // we can find a seed/transfer that drops attempt 0 and passes
        // attempt 1, by scanning.
        let plan = drop_plan(0.5, 4);
        // Find how many of the first sends on link 0→1 fail.
        let out = Machine::run(2, fault_cfg(plan.clone()), |rank| {
            if rank.rank() == 0 {
                for i in 0..20u64 {
                    rank.send(1, Tag(i), vec![1.0; 100])?;
                }
            } else {
                for i in 0..20u64 {
                    let v = rank.recv(0, Tag(i))?;
                    assert_eq!(v, vec![1.0; 100], "payload must survive retries");
                }
            }
            Ok(())
        })
        .unwrap();
        let (s, o) = (&out.profile.per_rank()[0], out.profile.overheads_of(0));
        assert!(o.retries > 0, "a 50% drop rate must hit at least once");
        assert_eq!(o.retrans_words, 100 * o.retries); // single-chunk transfers
        assert_eq!(s.words_sent, 20 * 100, "delivered words are unchanged");
        // The plan is seeded, so the block is exact — and a fault plan
        // alone moves no intra-node counter.
        let nineteen_drops = RankOverheads {
            retries: 19,
            retrans_words: 1900,
            retrans_msgs: 19,
            ..RankOverheads::default()
        };
        assert_eq!(
            out.profile.overheads(),
            [nineteen_drops, Default::default()]
        );
        // Each failed attempt costs at least the link price plus backoff.
        let min_overhead = o.retries as f64 * (1e-3 + 100.0 * 1e-6 + 1e-4);
        let clean = 20.0 * (1e-3 + 100.0 * 1e-6);
        assert!(out.profile.makespan >= clean + min_overhead - 1e-12);
    }

    #[test]
    fn drop_without_retry_exhausts() {
        let plan = drop_plan(1.0, 0);
        let r = Machine::run(2, fault_cfg(plan), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        });
        assert!(
            matches!(
                r,
                Err(SimError::RetriesExhausted {
                    rank: 0,
                    dest: 1,
                    attempts: 1
                })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn corruption_without_retry_perturbs_exactly_one_word() {
        let mut plan = drop_plan(0.0, 0);
        plan.spec.corrupt_rate = 1.0;
        let out = Machine::run(2, fault_cfg(plan), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![2.0; 50])?;
                Ok(0)
            } else {
                let v = rank.recv(0, Tag(0))?;
                Ok(v.iter().filter(|&&x| x != 2.0).count())
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 1, "exactly one word corrupted");
    }

    #[test]
    fn corruption_with_retry_is_detected_and_resent_clean() {
        let mut plan = drop_plan(0.0, 8);
        plan.spec.corrupt_rate = 0.5;
        let out = Machine::run(2, fault_cfg(plan), |rank| {
            if rank.rank() == 0 {
                for i in 0..20u64 {
                    rank.send(1, Tag(i), vec![3.0; 10])?;
                }
                Ok(0)
            } else {
                let mut bad = 0;
                for i in 0..20u64 {
                    let v = rank.recv(0, Tag(i))?;
                    bad += v.iter().filter(|&&x| x != 3.0).count();
                }
                Ok(bad)
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 0, "acked sends deliver clean payloads");
        assert!(out.profile.overheads_of(0).retries > 0);
    }

    #[test]
    fn delay_fault_stalls_the_sender() {
        let mut plan = drop_plan(0.0, 0);
        plan.spec.delay_rate = 1.0;
        plan.spec.delay_seconds = 0.25;
        let out = Machine::run(2, fault_cfg(plan), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![0.0; 100])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(rank.now())
        })
        .unwrap();
        let clean = 1e-3 + 100.0 * 1e-6;
        assert!((out.results[0] - (0.25 + clean)).abs() < 1e-12);
        assert!((out.results[1] - (0.25 + clean)).abs() < 1e-12);
    }

    #[test]
    fn duplicate_fault_charges_twice_delivers_once() {
        let mut plan = drop_plan(0.0, 0);
        plan.spec.duplicate_rate = 1.0;
        let out = Machine::run(2, fault_cfg(plan), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0; 100])?;
            } else {
                let v = rank.recv(0, Tag(0))?;
                assert_eq!(v.len(), 100);
            }
            Ok(())
        })
        .unwrap();
        let (s, o) = (&out.profile.per_rank()[0], out.profile.overheads_of(0));
        assert_eq!(s.words_sent, 100);
        assert_eq!(o.retrans_words, 100);
        assert_eq!(o.retries, 1);
        out.profile.assert_balanced().unwrap();
    }

    #[test]
    fn crash_without_checkpoint_is_fatal() {
        let mut plan = drop_plan(0.0, 0);
        plan.spec
            .crashes
            .push(psse_faults::CrashEvent { rank: 1, at: 0.5 });
        let cfg = SimConfig {
            gamma_t: 1e-9,
            faults: Some(plan),
            ..SimConfig::default()
        };
        let r = Machine::run(2, cfg, |rank| {
            if rank.rank() == 1 {
                rank.compute(1_000_000_000); // 1 virtual second
            }
            Ok(())
        });
        assert!(
            matches!(r, Err(SimError::RankCrashed { rank: 1, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn crash_with_checkpoint_recovers_and_prices_rework() {
        let mut plan = drop_plan(0.0, 0);
        plan.spec
            .crashes
            .push(psse_faults::CrashEvent { rank: 0, at: 0.55 });
        plan.recovery.checkpoint = Some(psse_faults::CheckpointPolicy {
            interval: 0.2,
            words: 1000,
            restart_seconds: 0.1,
        });
        let cfg = SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-6,
            alpha_t: 1e-3,
            faults: Some(plan),
            ..SimConfig::default()
        };
        let out = Machine::run(1, cfg, |rank| {
            for _ in 0..10 {
                rank.compute(100_000_000); // 0.1 virtual seconds each
            }
            Ok(())
        })
        .unwrap();
        let o = out.profile.overheads_of(0);
        assert_eq!(o.crashes_recovered, 1);
        assert_eq!(o.checkpoint_words, 5 * 1000, "five checkpoints fell due");
        assert_eq!(out.profile.total_checkpoint_words(), 5000);
        assert!(
            out.profile.makespan > 1.0 + 0.1,
            "rework + restart + checkpoint writes must show up: {}",
            out.profile.makespan
        );
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_repeats() {
        let mut plan = drop_plan(0.3, 6);
        plan.spec.corrupt_rate = 0.1;
        plan.spec.duplicate_rate = 0.1;
        plan.spec.delay_rate = 0.1;
        plan.spec.delay_seconds = 1e-3;
        let run = || {
            Machine::run(4, fault_cfg(plan.clone()), |rank| {
                let right = (rank.rank() + 1) % rank.size();
                let left = (rank.rank() + rank.size() - 1) % rank.size();
                let mut block = vec![rank.rank() as f64; 64];
                for step in 0..8 {
                    block = rank.sendrecv(right, Tag(step), block, left, Tag(step))?;
                    rank.compute(500);
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fault schedule must be deterministic");
        assert!(a.total_retries() > 0, "faults must actually fire");
    }

    #[test]
    fn faults_none_is_bit_identical_to_default() {
        // Explicitly constructing the config with `faults: None` must
        // change nothing relative to the pre-fault-layer behavior.
        let run = |cfg: SimConfig| {
            Machine::run(4, cfg, |rank| {
                let right = (rank.rank() + 1) % rank.size();
                let left = (rank.rank() + rank.size() - 1) % rank.size();
                let mut block = vec![rank.rank() as f64; 128];
                for step in 0..4 {
                    block = rank.sendrecv(right, Tag(step), block, left, Tag(step))?;
                    rank.compute(1000);
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let a = run(SimConfig::default());
        let b = run(SimConfig {
            faults: None,
            ..SimConfig::default()
        });
        assert_eq!(a, b);
        assert_eq!(a.resilience_words(), 0);
        assert_eq!(a.total_retries(), 0);
    }

    #[test]
    fn send_variants_are_bit_identical() {
        // send / send_slice / send_shared must produce the same profile
        // and trace down to the last bit (multi-chunk, traced, timed).
        let cfg = || SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-6,
            alpha_t: 1e-3,
            max_message_words: 37,
            record_trace: true,
            ..SimConfig::default()
        };
        let run = |mode: usize| {
            Machine::run(3, cfg(), move |rank| {
                let data: Vec<f64> = (0..100).map(|i| (i + rank.rank()) as f64).collect();
                let dest = (rank.rank() + 1) % rank.size();
                let src = (rank.rank() + 2) % rank.size();
                match mode {
                    0 => rank.send(dest, Tag(1), data.clone())?,
                    1 => rank.send_slice(dest, Tag(1), &data)?,
                    _ => rank.send_shared(dest, Tag(1), Arc::new(data.clone()))?,
                }
                let v = rank.recv(src, Tag(1))?;
                Ok(v[0])
            })
            .unwrap()
        };
        let a = run(0);
        let b = run(1);
        let c = run(2);
        assert_eq!(a.profile, b.profile);
        assert_eq!(b.profile, c.profile);
        assert_eq!(a.results, b.results);
        assert_eq!(b.results, c.results);
    }

    #[test]
    fn shared_fanout_delivers_the_same_buffer() {
        // One Arc sent to two peers crosses the wire without copying:
        // both receivers observe the root's allocation.
        let out = Machine::run(3, SimConfig::counters_only(), |rank| {
            if rank.rank() == 0 {
                let data: SharedPayload = Arc::new(vec![4.0; 64]);
                let ptr = data.as_ptr() as usize;
                rank.send_shared(1, Tag(0), Arc::clone(&data))?;
                rank.send_shared(2, Tag(0), data)?;
                Ok(ptr)
            } else {
                let v = rank.recv_shared(0, Tag(0))?;
                assert!(v.iter().all(|&x| x == 4.0));
                Ok(v.as_ptr() as usize)
            }
        })
        .unwrap();
        assert_eq!(out.results[0], out.results[1]);
        assert_eq!(out.results[0], out.results[2]);
    }

    #[test]
    fn corrupting_a_shared_payload_leaves_other_holders_clean() {
        // Copy-on-write: a corruption fault on one link must not reach
        // the sender's buffer or a sibling transfer sharing it.
        let mut plan = drop_plan(0.0, 0);
        plan.spec.corrupt_rate = 1.0;
        let out = Machine::run(3, fault_cfg(plan), |rank| {
            if rank.rank() == 0 {
                let data: SharedPayload = Arc::new(vec![2.0; 50]);
                rank.send_shared(1, Tag(0), Arc::clone(&data))?;
                rank.send_shared(2, Tag(0), Arc::clone(&data))?;
                assert!(
                    data.iter().all(|&x| x == 2.0),
                    "sender's buffer must stay clean"
                );
                Ok(0)
            } else {
                let v = rank.recv(0, Tag(0))?;
                Ok(v.iter().filter(|&&x| x != 2.0).count())
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 1, "link 0→1 corrupts exactly one word");
        assert_eq!(out.results[2], 1, "link 0→2 corrupts exactly one word");
    }

    #[test]
    fn same_tag_transfers_are_fifo() {
        // Two back-to-back transfers under one (src, tag) key arrive in
        // send order.
        Machine::run(2, SimConfig::counters_only(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0])?;
                rank.send(1, Tag(0), vec![2.0])?;
            } else {
                assert_eq!(rank.recv(0, Tag(0))?, vec![1.0]);
                assert_eq!(rank.recv(0, Tag(0))?, vec![2.0]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn determinism_bit_identical_profiles() {
        let run = || {
            Machine::run(6, SimConfig::default(), |rank| {
                let me = rank.rank();
                rank.compute((me as u64 + 1) * 1000);
                let right = (me + 1) % rank.size();
                let left = (me + rank.size() - 1) % rank.size();
                let mut block = vec![me as f64; 64];
                for step in 0..rank.size() {
                    block =
                        rank.sendrecv(right, Tag(step as u64), block, left, Tag(step as u64))?;
                    rank.compute(500);
                }
                Ok(())
            })
            .unwrap()
            .profile
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "profiles must be bit-identical across runs");
    }
}
