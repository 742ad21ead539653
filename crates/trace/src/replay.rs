//! The replay scheduler: re-executes a recorded event DAG under
//! arbitrary machine parameters.
//!
//! Replay prices each event through the simulator's own primitives —
//! `time += γt·f` for a compute, `psse_sim::meter::charge_chunks` at the
//! `link_prices` of the replay machine for a send (chunk sizes
//! re-derived from the replay `m`), `time = max(time, sender_completion)`
//! for a receive. Under the trace's own recorded parameters this makes
//! replay **bit-identical** to the live run; under different parameters
//! it yields the profile the simulator would have produced on that
//! machine.
//!
//! Message matching is FIFO per `(src, dst, tag)` triple: the `k`-th
//! receive on `dst` for `(src, tag)` matches the `k`-th send on `src`
//! to `(dst, tag)`. This is exactly the live simulator's semantics —
//! two simultaneously outstanding transfers with the same triple would
//! corrupt chunk reassembly there, so valid programs never produce them.
//!
//! The matcher holds every send once, in one flat array: rank by rank,
//! each rank's sends sorted by `(dest, tag, index)`, so the sends of a
//! triple are adjacent and in program order, and a receive finds its
//! triple's first send by binary search and takes the next unmatched
//! one from a per-triple counter. Nothing is hashed and nothing is
//! allocated per message, so `E` events cost `O(E log E)` whatever the
//! trace holds — trace text is untrusted, and an unkeyed hash of
//! trace-chosen keys could be made to collide. Receives are matched in
//! (rank, index) order, so the first unmatched receive or size mismatch
//! in that order is the error; a send or retry to a rank the trace does
//! not have is refused before any.

use crate::error::{TraceError, TraceResult};
use crate::trace::ReplayParams;
use psse_sim::meter::{charge_chunks, chunk_count, link_prices};
use psse_sim::profile::{Profile, RankOverheads, RankStats};
use psse_sim::record::{EventKind, TimedEvent};

/// Per rank, per event: the `(sender_rank, event_idx)` of the `Send`
/// a `Recv` matched; `None` for every other event kind.
pub(crate) type MatchTable = Vec<Vec<Option<(usize, usize)>>>;

/// The fully-timed result of replaying a trace: per-event start/end
/// times under the replay parameters, the send each receive matched,
/// and the re-derived per-rank counters.
pub(crate) struct Schedule {
    /// Per rank, per event: replay start time.
    pub starts: Vec<Vec<f64>>,
    /// Per rank, per event: replay end time.
    pub ends: Vec<Vec<f64>>,
    /// Per rank, per event: for a `Recv`, the `(sender_rank, event_idx)`
    /// of the matched `Send`; `None` for every other kind.
    pub matched: MatchTable,
    /// Re-derived per-rank counters (without `finish_time`).
    stats: Vec<RankStats>,
    /// Re-derived per-rank hierarchy and resilience counters.
    overheads: Vec<RankOverheads>,
    /// Final replay clock per rank.
    finish: Vec<f64>,
}

impl Schedule {
    /// Consume the schedule into the profile it priced: per-rank
    /// counters with finish times, and the overhead block in the form
    /// every live executor reports (none when nothing moved it).
    pub fn into_profile(mut self) -> Profile {
        for (s, t) in self.stats.iter_mut().zip(&self.finish) {
            s.finish_time = *t;
        }
        Profile::from_parts(self.stats, self.overheads, Vec::new())
    }
}

/// Match every `Recv` event to its `Send` (FIFO per `(src, dst, tag)`),
/// validating that the pair agrees on the transfer size and that every
/// send and retry goes to a rank the trace has.
pub(crate) fn resolve_matches(events: &[Vec<TimedEvent>]) -> TraceResult<MatchTable> {
    let p = events.len();
    // Every send as `(dest, tag, index)`, rank by rank; each rank's
    // sorted, so a `(dest, tag)` pair's sends sit together in program
    // order from `first[r]`.
    let mut sends: Vec<(usize, u64, usize)> = Vec::new();
    let mut first = Vec::with_capacity(p + 1);
    for (r, evs) in events.iter().enumerate() {
        first.push(sends.len());
        for (i, e) in evs.iter().enumerate() {
            let dest = match e.kind {
                EventKind::Send { dest, tag, .. } => {
                    sends.push((dest, tag, i));
                    dest
                }
                EventKind::Retry { dest, .. } => dest,
                _ => continue,
            };
            if dest >= p {
                return Err(TraceError::Corrupt(format!(
                    "event {i} on rank {r} sends to rank {dest}, but the trace has {p} ranks"
                )));
            }
        }
        sends[first[r]..].sort_unstable();
    }
    first.push(sends.len());
    // Per pair, at its first send: how many of its sends are matched.
    let mut taken = vec![0_usize; sends.len() + 1];
    let mut matched: Vec<Vec<Option<(usize, usize)>>> =
        events.iter().map(|evs| vec![None; evs.len()]).collect();
    for (r, evs) in events.iter().enumerate() {
        for (i, e) in evs.iter().enumerate() {
            if let EventKind::Recv {
                src, tag, words, ..
            } = e.kind
            {
                let unmatched = TraceError::UnmatchedRecv {
                    rank: r,
                    index: i,
                    src,
                    tag,
                };
                if src >= p {
                    return Err(unmatched);
                }
                let (lo, hi) = (first[src], first[src + 1]);
                let pair = lo + sends[lo..hi].partition_point(|&(d, t, _)| (d, t) < (r, tag));
                let k = pair + taken[pair];
                let j = match sends[..hi].get(k) {
                    Some(&(d, t, j)) if (d, t) == (r, tag) => j,
                    _ => return Err(unmatched),
                };
                taken[pair] += 1;
                if let EventKind::Send { words: sent, .. } = events[src][j].kind {
                    if sent != words {
                        return Err(TraceError::WordsMismatch {
                            src,
                            dest: r,
                            tag,
                            sent,
                            recvd: words,
                        });
                    }
                }
                matched[r][i] = Some((src, j));
            }
        }
    }
    Ok(matched)
}

/// Replay `events` under `params`. Events execute in per-rank program
/// order; a receive becomes executable once its matched send has
/// executed. The fixpoint loop sweeps ranks, advancing each as far as
/// possible, until all events have run (or no progress is possible —
/// impossible for traces recorded from a completed run).
pub(crate) fn schedule(
    p: usize,
    events: &[Vec<TimedEvent>],
    params: &ReplayParams,
) -> TraceResult<Schedule> {
    if events.len() != p {
        return Err(TraceError::Corrupt(format!(
            "{} event logs for {p} ranks",
            events.len()
        )));
    }
    let matched = resolve_matches(events)?;
    let hier = params.hierarchy.as_ref();
    let (alpha_t, beta_t) = (params.alpha_t, params.beta_t);
    let m = params.max_message_words as u64;
    let mut starts: Vec<Vec<f64>> = events.iter().map(|evs| vec![0.0; evs.len()]).collect();
    let mut ends: Vec<Vec<f64>> = events.iter().map(|evs| vec![0.0; evs.len()]).collect();
    let mut stats = vec![RankStats::default(); p];
    let mut overheads = vec![RankOverheads::default(); p];
    let mut time = vec![0.0_f64; p];
    let mut cursor = vec![0_usize; p];
    let total: usize = events.iter().map(|evs| evs.len()).sum();
    let mut done = 0_usize;

    while done < total {
        let mut progressed = false;
        for r in 0..p {
            while cursor[r] < events[r].len() {
                let i = cursor[r];
                // A receive blocks until its matched send has executed
                // (a self-send always precedes its receive in program
                // order, so `cursor[r] = i > j` never blocks here).
                if let EventKind::Recv { .. } = events[r][i].kind {
                    let (s, j) = matched[r][i].expect("resolved above");
                    if cursor[s] <= j {
                        break;
                    }
                }
                starts[r][i] = time[r];
                match &events[r][i].kind {
                    EventKind::Compute { flops } => {
                        stats[r].flops += flops;
                        time[r] += params.gamma_t * *flops as f64;
                    }
                    EventKind::Send { dest, words, .. } => {
                        // Self-sends cross no link: free and uncounted,
                        // exactly as in the live simulator.
                        if *dest != r {
                            let (alpha, beta, intra) = link_prices(hier, alpha_t, beta_t, r, *dest);
                            let (st, ov) = (&mut stats[r], &mut overheads[r]);
                            charge_chunks(&mut time[r], *words as u64, m, alpha, beta, |k| {
                                st.msgs_sent += 1;
                                st.words_sent += k;
                                if intra {
                                    ov.msgs_sent_intra += 1;
                                    ov.words_sent_intra += k;
                                }
                            });
                        }
                    }
                    EventKind::Recv { src, words, .. } => {
                        let (s, j) = matched[r][i].expect("resolved above");
                        // All chunks depart by the sender's completion
                        // of the whole transfer, so the receiver's
                        // clock is max(local, sender completion).
                        time[r] = time[r].max(ends[s][j]);
                        if *src != r {
                            stats[r].words_recvd += *words as u64;
                            stats[r].msgs_recvd +=
                                chunk_count(*words, params.max_message_words) as u64;
                        }
                    }
                    EventKind::Alloc { words } => {
                        stats[r].mem_current += words;
                        stats[r].mem_peak = stats[r].mem_peak.max(stats[r].mem_current);
                    }
                    EventKind::Free { words } => {
                        if *words > stats[r].mem_current {
                            return Err(TraceError::Corrupt(format!(
                                "rank {r} frees {words} words with only {} tracked",
                                stats[r].mem_current
                            )));
                        }
                        stats[r].mem_current -= words;
                    }
                    EventKind::CollBegin { .. } | EventKind::CollEnd { .. } => {}
                    // Fault-layer events, charged as the live simulator
                    // charged them.
                    EventKind::Retry {
                        dest,
                        words,
                        backoff,
                        ..
                    } => {
                        let (alpha, beta, _) = link_prices(hier, alpha_t, beta_t, r, *dest);
                        let ov = &mut overheads[r];
                        charge_chunks(&mut time[r], *words as u64, m, alpha, beta, |k| {
                            ov.retrans_msgs += 1;
                            ov.retrans_words += k;
                        });
                        // The backoff is a recovery-policy constant, not
                        // a machine price: added verbatim.
                        time[r] += backoff;
                        overheads[r].retries += 1;
                    }
                    EventKind::LinkDelay { seconds } => {
                        time[r] += seconds;
                    }
                    EventKind::Checkpoint { words } => {
                        // Stable-storage writes are priced at the
                        // machine-level (inter-node) link prices.
                        let ov = &mut overheads[r];
                        charge_chunks(&mut time[r], *words, m, alpha_t, beta_t, |k| {
                            ov.checkpoint_msgs += 1;
                            ov.checkpoint_words += k;
                        });
                    }
                    EventKind::CrashRecovery { lost, restart } => {
                        // Rework and restart are execution history, not
                        // re-priceable quantities: added verbatim.
                        time[r] += lost + restart;
                        overheads[r].crashes_recovered += 1;
                    }
                }
                ends[r][i] = time[r];
                cursor[r] += 1;
                done += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Err(TraceError::Stuck);
        }
    }

    if let Some(rank) = time.iter().position(|t| !t.is_finite()) {
        return Err(TraceError::InvalidParams(format!(
            "rank {rank}'s clock overflows: gamma_t, beta_t and alpha_t are too large for this trace"
        )));
    }
    Ok(Schedule {
        starts,
        ends,
        matched,
        stats,
        overheads,
        finish: time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use psse_sim::prelude::*;

    fn record<F>(p: usize, cfg: SimConfig, f: F) -> (Trace, Profile)
    where
        F: Fn(&mut Rank) -> Result<(), SimError> + Sync,
    {
        let cfg = SimConfig {
            record_trace: true,
            ..cfg
        };
        let out = Machine::run(p, cfg.clone(), f).unwrap();
        let tr = Trace::from_run(&cfg, &out.profile).unwrap();
        (tr, out.profile)
    }

    #[test]
    fn replay_reproduces_ping_pong_bit_exactly() {
        let (tr, live) = record(
            2,
            SimConfig {
                gamma_t: 1e-9,
                beta_t: 1e-6,
                alpha_t: 1e-3,
                ..SimConfig::default()
            },
            |rank| {
                if rank.rank() == 0 {
                    rank.compute(12345);
                    rank.send(1, Tag(1), vec![0.5; 1000])?;
                    rank.recv(1, Tag(2))?;
                } else {
                    let v = rank.recv(0, Tag(1))?;
                    rank.send(0, Tag(2), v)?;
                }
                Ok(())
            },
        );
        tr.check_consistency(&live).unwrap();
    }

    #[test]
    fn replay_reproduces_chunked_sends() {
        let (tr, live) = record(
            2,
            SimConfig {
                max_message_words: 7,
                ..SimConfig::default()
            },
            |rank| {
                if rank.rank() == 0 {
                    rank.send(1, Tag(0), vec![1.0; 100])?;
                    rank.send(1, Tag(9), vec![])?;
                } else {
                    rank.recv(0, Tag(0))?;
                    rank.recv(0, Tag(9))?;
                }
                Ok(())
            },
        );
        tr.check_consistency(&live).unwrap();
        assert_eq!(live.per_rank()[0].msgs_sent, 16); // ceil(100/7) + 1 empty
    }

    #[test]
    fn replay_reproduces_hierarchy_and_self_sends() {
        use psse_sim::machine::Hierarchy;
        let (tr, live) = record(
            4,
            SimConfig {
                gamma_t: 0.0,
                beta_t: 1e-6,
                alpha_t: 1e-3,
                hierarchy: Some(Hierarchy {
                    cores_per_node: 2,
                    intra_beta_t: 1e-8,
                    intra_alpha_t: 1e-5,
                }),
                ..SimConfig::default()
            },
            |rank| {
                let me = rank.rank();
                rank.send(me, Tag(99), vec![me as f64])?; // self-send
                rank.recv(me, Tag(99))?;
                if me == 0 {
                    rank.send(1, Tag(0), vec![0.0; 500])?; // intra
                    rank.send(2, Tag(1), vec![0.0; 500])?; // inter
                } else if me == 1 {
                    rank.recv(0, Tag(0))?;
                } else if me == 2 {
                    rank.recv(0, Tag(1))?;
                }
                Ok(())
            },
        );
        tr.check_consistency(&live).unwrap();
        assert_eq!(live.overheads_of(0).words_sent_intra, 500);
        // Replay re-derives the overhead block too, in the live form.
        let replayed = tr.replay(&tr.params).unwrap();
        assert_eq!(replayed.per_rank(), live.per_rank());
        assert_eq!(replayed.overheads(), live.overheads());
        assert_eq!(replayed.overheads().len(), 4);
    }

    #[test]
    fn a_flat_recording_gains_the_overhead_block_under_a_hierarchy() {
        let (tr, live) = record(2, SimConfig::default(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![0.0; 1000])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        });
        assert!(live.overheads().is_empty(), "flat and fault-free: no block");
        assert!(tr.replay(&tr.params).unwrap().overheads().is_empty());
        let mut two_level = tr.params.clone();
        two_level.hierarchy = Some(crate::trace::ReplayHierarchy {
            cores_per_node: 2,
            intra_beta_t: 1e-9,
            intra_alpha_t: 1e-7,
        });
        let re = tr.replay(&two_level).unwrap();
        assert_eq!(re.per_rank()[0].words_sent, 1000);
        assert_eq!(re.overheads().len(), 2);
        assert_eq!(re.overheads_of(0).words_sent_intra, 1000);
        assert_eq!(re.overheads_of(0).msgs_sent_intra, 1);
        assert_eq!(re.overheads_of(1), Default::default());
    }

    #[test]
    fn prices_that_are_or_overflow_to_infinity_are_typed_errors() {
        let (tr, _) = record(2, SimConfig::default(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![0.0; 1000])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        });
        let mut params = tr.params.clone();
        params.beta_t = f64::INFINITY;
        match tr.replay(&params) {
            Err(TraceError::InvalidParams(m)) => assert!(m.contains("beta_t = inf"), "{m}"),
            other => panic!("expected InvalidParams, got {other:?}"),
        }
        // Each price finite, their charge over 1000 words not.
        params.beta_t = 1e308;
        match tr.replay(&params) {
            Err(TraceError::InvalidParams(m)) => assert!(m.contains("rank 0's clock"), "{m}"),
            other => panic!("expected InvalidParams, got {other:?}"),
        }
        assert!(tr.critical_path(&params).is_err());
    }

    #[test]
    fn repricing_changes_makespan_consistently() {
        let (tr, _) = record(
            2,
            SimConfig {
                gamma_t: 0.0,
                beta_t: 1e-6,
                alpha_t: 1e-3,
                ..SimConfig::default()
            },
            |rank| {
                if rank.rank() == 0 {
                    rank.send(1, Tag(0), vec![0.0; 1000])?;
                } else {
                    rank.recv(0, Tag(0))?;
                }
                Ok(())
            },
        );
        // Halving both α and β halves the makespan (pure-communication run).
        let mut cheap = tr.params.clone();
        cheap.alpha_t /= 2.0;
        cheap.beta_t /= 2.0;
        let base = tr.replay(&tr.params).unwrap().makespan;
        let half = tr.replay(&cheap).unwrap().makespan;
        assert!((half - base / 2.0).abs() < 1e-15, "{half} vs {base}");
    }

    #[test]
    fn replay_message_count_follows_replay_m() {
        let (tr, live) = record(2, SimConfig::default(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0; 100])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        });
        assert_eq!(live.per_rank()[0].msgs_sent, 1);
        let mut small = tr.params.clone();
        small.max_message_words = 7;
        let re = tr.replay(&small).unwrap();
        assert_eq!(re.per_rank()[0].msgs_sent, 15); // ceil(100/7)
        assert_eq!(re.per_rank()[1].msgs_recvd, 15);
        assert_eq!(re.per_rank()[0].words_sent, 100);
    }

    #[test]
    fn faulted_run_replays_bit_exactly_and_roundtrips() {
        // Exercise every fault-layer event kind (retries from drops,
        // link delays, checkpoint writes, duplicates) and confirm the
        // recorded trace self-replays bit-exactly, survives the text
        // round-trip, and exports complete Chrome JSON.
        let plan = FaultPlan {
            spec: FaultSpec {
                seed: 11,
                drop_rate: 0.25,
                duplicate_rate: 0.1,
                delay_rate: 0.1,
                delay_seconds: 1e-4,
                ..FaultSpec::default()
            },
            recovery: RecoveryPolicy {
                max_retries: 16,
                retry_backoff: 1e-5,
                checkpoint: Some(CheckpointPolicy {
                    interval: 5e-4,
                    words: 64,
                    restart_seconds: 1e-4,
                }),
            },
        };
        let (tr, live) = record(
            4,
            SimConfig {
                gamma_t: 1e-9,
                beta_t: 1e-7,
                alpha_t: 1e-5,
                faults: Some(plan),
                ..SimConfig::default()
            },
            |rank| {
                for round in 0..6 {
                    rank.compute(10_000);
                    let right = (rank.rank() + 1) % rank.size();
                    let left = (rank.rank() + rank.size() - 1) % rank.size();
                    rank.sendrecv(right, Tag(round), vec![1.0; 200], left, Tag(round))?;
                }
                Ok(())
            },
        );
        let has = |pred: fn(&psse_sim::record::EventKind) -> bool| {
            tr.events.iter().flatten().any(|e| pred(&e.kind))
        };
        assert!(
            has(|k| matches!(k, psse_sim::record::EventKind::Retry { .. })),
            "plan should produce at least one retry/duplicate event"
        );
        assert!(
            has(|k| matches!(k, psse_sim::record::EventKind::Checkpoint { .. })),
            "plan should produce checkpoint events"
        );
        assert!(live.resilience_words() > 0);
        tr.check_consistency(&live).unwrap();
        let replayed = tr.replay(&tr.params).unwrap();
        assert_eq!(replayed.per_rank(), live.per_rank());
        assert_eq!(replayed.overheads(), live.overheads());
        assert!(live.total_checkpoint_words() > 0 && live.total_retries() > 0);

        // Text round-trip preserves the fault events exactly.
        let back = Trace::from_text(&tr.to_text()).unwrap();
        assert_eq!(back, tr);
        back.check_consistency(&live).unwrap();

        // Chrome export stays complete: one record per event + rank.
        let json = tr.to_chrome_json();
        assert_eq!(json.matches("\"ph\":").count(), tr.n_events() + tr.p);
        assert!(json.contains("\"name\":\"retry->"));
        assert!(json.contains("\"name\":\"checkpoint\""));

        // Fault-event durations count as communication, not idle.
        let rep = tr.critical_path(&tr.params).unwrap();
        for b in &rep.breakdown {
            let sum = b.compute + b.comm + b.idle;
            assert!(
                (sum - rep.makespan).abs() <= 1e-12 * rep.makespan.max(1.0),
                "rank {}: {sum} vs {}",
                b.rank,
                rep.makespan
            );
            assert!(b.idle >= -1e-12);
        }
    }

    /// A send or a retry to a rank the trace does not have is a corrupt
    /// trace, named by its rank, index and destination, in every
    /// command that schedules it.
    #[test]
    fn sends_to_a_missing_rank_are_corrupt() {
        let head =
            "psse-trace v1\np 2\nmakespan 1.0\nparams 0.0 0.0 0.0 16\nrank 0 1\nC 0.0 1.0 5\n";
        for (rank1, want) in [
            (
                "rank 1 2\nC 0.0 1.0 5\nS 1.0 1.0 2 7 100\n",
                "event 1 on rank 1 sends to rank 2, but the trace has 2 ranks",
            ),
            (
                "rank 1 1\nY 0.0 1.0 9 7 1 100 0.0\n",
                "event 0 on rank 1 sends to rank 9, but the trace has 2 ranks",
            ),
        ] {
            let tr = Trace::from_text(&format!("{head}{rank1}")).unwrap();
            let want = TraceError::Corrupt(want.into());
            assert_eq!(tr.replay(&tr.params).unwrap_err(), want);
            assert_eq!(tr.critical_path(&tr.params).unwrap_err(), want);
            assert_eq!(tr.flame_folded(&tr.params).unwrap_err(), want);
        }
    }

    /// Each receive takes the oldest unmatched send of its triple, and
    /// sends of other triples (other tags, other destinations) between
    /// them do not disturb the order.
    #[test]
    fn matching_is_fifo_per_triple() {
        let text = "psse-trace v1\np 3\nmakespan 1.0\nparams 0.0 0.0 0.0 16\n\
            rank 0 5\nS 0.0 0.0 1 7 1\nS 0.0 0.0 2 7 2\nS 0.0 0.0 1 3 3\nS 0.0 0.0 1 7 4\nS 0.0 0.0 0 7 5\n\
            rank 1 3\nR 0.0 0.0 0 7 1 1\nR 0.0 0.0 0 3 3 1\nR 0.0 0.0 0 7 4 1\n\
            rank 2 1\nR 0.0 0.0 0 7 2 1\n";
        let tr = Trace::from_text(text).unwrap();
        let matched = resolve_matches(&tr.events).unwrap();
        assert_eq!(matched[1], [Some((0, 0)), Some((0, 2)), Some((0, 3))]);
        assert_eq!(matched[2], [Some((0, 1))]);
        assert!(matched[0].iter().all(Option::is_none));
    }

    #[test]
    fn unmatched_recv_is_reported() {
        // Hand-build a trace whose recv has no matching send.
        let (mut tr, _) = record(2, SimConfig::default(), |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        });
        tr.events[0].clear(); // drop the send
        assert!(matches!(
            tr.replay(&tr.params),
            Err(TraceError::UnmatchedRecv { rank: 1, .. })
        ));
    }
}
