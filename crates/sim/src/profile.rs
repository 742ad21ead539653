//! Per-rank counters and whole-run profiles.

use psse_metrics::{saturating_nanos, Registry};

use crate::error::{SimError, SimResult};
use crate::machine::SimConfig;
use crate::meter::RankParts;
use crate::record::TimedEvent;

/// The counters every run moves (a hierarchy's and a fault plan's are
/// in [`RankOverheads`]), one cache line per rank. All units are words,
/// messages, flops and (virtual) seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankStats {
    /// Floating-point operations charged via `Rank::compute`.
    pub flops: u64,
    /// Words sent across links (self-sends excluded; includes intra-node
    /// traffic on hierarchical machines).
    pub words_sent: u64,
    /// Messages sent across links (after splitting at `m` words).
    pub msgs_sent: u64,
    /// Words received across links.
    pub words_recvd: u64,
    /// Messages received across links.
    pub msgs_recvd: u64,
    /// Current tracked allocation, words.
    pub mem_current: u64,
    /// High-water mark of tracked allocation, words.
    pub mem_peak: u64,
    /// The rank's virtual clock at the end of its program.
    pub finish_time: f64,
}

// A counter added here costs every p = 10⁶ run 8 MB (DESIGN §11.3).
const _: () = assert!(std::mem::size_of::<RankStats>() == 64);

/// The counters of one rank that only `SimConfig::hierarchy` (the
/// intra-node shares) or `SimConfig::faults` (the rest) can move. A
/// [`Profile`] holds them in a block of its own, present only when some
/// rank's is non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankOverheads {
    /// Of `words_sent`, the words that stayed within the sender's node.
    pub words_sent_intra: u64,
    /// Of `msgs_sent`, the messages that stayed within the sender's node.
    pub msgs_sent_intra: u64,
    /// Failed transfer attempts retransmitted plus link-level duplicates.
    pub retries: u64,
    /// Words that crossed a link without being delivered (failed
    /// attempts, duplicates). Kept out of `words_sent` so the
    /// sent/received balance still holds; pricing adds them to `W`.
    pub retrans_words: u64,
    /// Messages wasted on failed attempts and duplicates.
    pub retrans_msgs: u64,
    /// Words written to stable storage by coordinated checkpoints.
    pub checkpoint_words: u64,
    /// Messages (chunks) those checkpoint writes were split into.
    pub checkpoint_msgs: u64,
    /// Crashes absorbed by checkpoint/restart on this rank.
    pub crashes_recovered: u64,
}

/// The complete accounting of one simulated run.
/// `==` means "same numbers" whichever executor or replay built it:
/// the overhead block has one stored form ([`Profile::overheads`]).
///
/// A profile is read-only once built. Its per-rank counters are folded
/// once, as it is built, into the sums and maxima Eq. 1 prices, so
/// [`Profile::total_flops`], [`Profile::max_words_sent`] and the rest
/// cost nothing however large `p` is.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Per-rank counters, indexed by rank id.
    per_rank: Vec<RankStats>,
    /// Virtual makespan: max over ranks of `finish_time`.
    pub makespan: f64,
    /// Per-rank event logs, indexed by rank id — one per rank when the
    /// run was executed with [`crate::machine::SimConfig::record_trace`]
    /// set (see [`crate::record`]), otherwise none at all.
    pub events: Vec<Vec<TimedEvent>>,
    /// Indexed by rank id, or empty when every rank's block is zero.
    overheads: Vec<RankOverheads>,
    /// `per_rank`'s sums and maxima.
    folded: Folded,
}

/// The sums and maxima over ranks of a profile's counters. Sums wrap
/// as an unchecked `Iterator::sum` does in a release build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Folded {
    total_flops: u64,
    total_words_sent: u64,
    total_msgs_sent: u64,
    max_flops: u64,
    max_words_sent: u64,
    max_msgs_sent: u64,
    max_mem_peak: u64,
}

/// Fold `per_rank` in one pass: its sums and maxima, and the latest
/// `finish_time` (`NaN`s skipped, `0.0` when there is none).
fn fold(per_rank: &[RankStats]) -> (Folded, f64) {
    per_rank
        .iter()
        .fold((Folded::default(), 0.0_f64), |(f, latest), r| {
            let folded = Folded {
                total_flops: f.total_flops.wrapping_add(r.flops),
                total_words_sent: f.total_words_sent.wrapping_add(r.words_sent),
                total_msgs_sent: f.total_msgs_sent.wrapping_add(r.msgs_sent),
                max_flops: f.max_flops.max(r.flops),
                max_words_sent: f.max_words_sent.max(r.words_sent),
                max_msgs_sent: f.max_msgs_sent.max(r.msgs_sent),
                max_mem_peak: f.max_mem_peak.max(r.mem_peak),
            };
            (folded, latest.max(r.finish_time))
        })
}

/// Collect `items` into a `Vec` reserved for one `T` per rank — or, when
/// the host cannot reserve that much, return the typed error an absurd
/// `p` deserves (the infallible `Vec::with_capacity` aborts the process
/// instead). Every `p`-sized allocation of the event executor is made
/// here.
pub(crate) fn per_rank<T>(p: usize, items: impl Iterator<Item = T>) -> SimResult<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(p).map_err(|_| {
        SimError::InvalidConfig(format!(
            "world size p = {p} is too large for this host: cannot reserve {} bytes of per-rank state",
            p as u128 * std::mem::size_of::<T>() as u128
        ))
    })?;
    v.extend(items);
    Ok(v)
}

impl Profile {
    /// Build a profile (makespan is the max of the `finish_time`s);
    /// every executor and replay engine ends here. One pass over the
    /// ranks finds the makespan and folds the sums and maxima, and no
    /// aggregate reads them again. `overheads` and `events` each hold
    /// one entry per rank or none, and an all-zero `overheads` is
    /// stored as none.
    pub fn from_parts(
        per_rank: Vec<RankStats>,
        mut overheads: Vec<RankOverheads>,
        events: Vec<Vec<TimedEvent>>,
    ) -> Self {
        let per_rank_or_absent = |n: usize| n == 0 || n == per_rank.len();
        assert!(per_rank_or_absent(overheads.len()) && per_rank_or_absent(events.len()));
        if overheads.iter().all(|o| *o == RankOverheads::default()) {
            overheads = Vec::new();
        }
        let (folded, makespan) = fold(&per_rank);
        Profile {
            per_rank,
            makespan,
            events,
            overheads,
            folded,
        }
    }

    /// The profile of a finished run from its ranks' parts, in rank
    /// order — what both executors end with. Overhead blocks and event
    /// logs exist per rank or not at all, by `cfg`. Debug builds also
    /// check that every word sent was received ([`Profile::words_balance`]).
    pub(crate) fn collect(
        cfg: &SimConfig,
        parts: impl ExactSizeIterator<Item = RankParts>,
    ) -> SimResult<Profile> {
        let p = parts.len();
        let mut stats = per_rank(p, std::iter::empty())?;
        let n_if = |present: bool| if present { p } else { 0 };
        let mut overheads = per_rank(n_if(cfg.tracks_overheads()), std::iter::empty())?;
        let mut events = per_rank(n_if(cfg.record_trace), std::iter::empty())?;
        for (rank_stats, rank_overheads, rank_events) in parts {
            stats.push(rank_stats);
            overheads.extend(rank_overheads);
            events.extend(rank_events);
        }
        let profile = Profile::from_parts(stats, overheads, events);
        #[cfg(debug_assertions)]
        profile.assert_balanced()?;
        Ok(profile)
    }

    /// World size.
    pub fn p(&self) -> usize {
        self.per_rank.len()
    }

    /// Every rank's counters, indexed by rank id.
    pub fn per_rank(&self) -> &[RankStats] {
        &self.per_rank
    }

    /// The overhead blocks, indexed by rank id — or none when every
    /// rank's is zero, as on any flat, fault-free run.
    pub fn overheads(&self) -> &[RankOverheads] {
        &self.overheads
    }

    /// Rank `r`'s overhead block (all zero when the profile has none).
    pub fn overheads_of(&self, r: usize) -> RankOverheads {
        self.overheads.get(r).copied().unwrap_or_default()
    }

    /// Every rank's counters beside its overhead block, in rank order.
    pub fn ranks(&self) -> impl Iterator<Item = (&RankStats, RankOverheads)> + '_ {
        self.per_rank
            .iter()
            .enumerate()
            .map(|(r, stats)| (stats, self.overheads_of(r)))
    }

    /// Sum over ranks of flops.
    pub fn total_flops(&self) -> u64 {
        self.folded.total_flops
    }

    /// Max over ranks of flops (critical-path `F`).
    pub fn max_flops(&self) -> u64 {
        self.folded.max_flops
    }

    /// Sum over ranks of words sent (total traffic).
    pub fn total_words_sent(&self) -> u64 {
        self.folded.total_words_sent
    }

    /// Max over ranks of words sent (critical-path `W`).
    pub fn max_words_sent(&self) -> u64 {
        self.folded.max_words_sent
    }

    /// Sum over ranks of messages sent.
    pub fn total_msgs_sent(&self) -> u64 {
        self.folded.total_msgs_sent
    }

    /// Max over ranks of messages sent (critical-path `S`).
    pub fn max_msgs_sent(&self) -> u64 {
        self.folded.max_msgs_sent
    }

    /// Max over ranks of the memory high-water mark (the model's `M`).
    pub fn max_mem_peak(&self) -> u64 {
        self.folded.max_mem_peak
    }

    /// Sum over ranks of intra-node words sent (hierarchical machines).
    pub fn total_words_intra(&self) -> u64 {
        self.overheads.iter().map(|o| o.words_sent_intra).sum()
    }

    /// Sum over ranks of inter-node words sent.
    pub fn total_words_inter(&self) -> u64 {
        self.total_words_sent() - self.total_words_intra()
    }

    /// Sum over ranks of intra-node messages sent.
    pub fn total_msgs_intra(&self) -> u64 {
        self.overheads.iter().map(|o| o.msgs_sent_intra).sum()
    }

    /// Sum over ranks of resilience-overhead words: retransmissions,
    /// duplicates and checkpoint writes. Zero on fault-free runs.
    pub fn resilience_words(&self) -> u64 {
        self.overheads
            .iter()
            .map(|o| o.retrans_words + o.checkpoint_words)
            .sum()
    }

    /// Sum over ranks of resilience-overhead messages.
    pub fn resilience_msgs(&self) -> u64 {
        self.overheads
            .iter()
            .map(|o| o.retrans_msgs + o.checkpoint_msgs)
            .sum()
    }

    /// Max over ranks of words sent *including* resilience traffic
    /// (retransmissions, duplicates, checkpoint writes) — the `W` the
    /// energy model should price on a faulted run.
    pub fn max_words_with_resilience(&self) -> u64 {
        self.ranks()
            .map(|(r, o)| r.words_sent + o.retrans_words + o.checkpoint_words)
            .max()
            .unwrap_or(0)
    }

    /// Max over ranks of messages sent *including* resilience traffic.
    pub fn max_msgs_with_resilience(&self) -> u64 {
        self.ranks()
            .map(|(r, o)| r.msgs_sent + o.retrans_msgs + o.checkpoint_msgs)
            .max()
            .unwrap_or(0)
    }

    /// Sum over ranks of failed/duplicate transfer attempts.
    pub fn total_retries(&self) -> u64 {
        self.overheads.iter().map(|o| o.retries).sum()
    }

    /// Sum over ranks of crashes absorbed by checkpoint/restart.
    pub fn total_crashes_recovered(&self) -> u64 {
        self.overheads.iter().map(|o| o.crashes_recovered).sum()
    }

    /// Sum over ranks of words written by coordinated checkpoints.
    pub fn total_checkpoint_words(&self) -> u64 {
        self.overheads.iter().map(|o| o.checkpoint_words).sum()
    }

    /// Combine with the profile of a run executed *after* this one on
    /// the same machine: counters add; the makespan is the sum of the
    /// two makespans (phase 2 starts when phase 1 completes globally).
    /// The result has an overhead block when either side does. Event
    /// logs are dropped — composing them would require time-shifting
    /// phase 2; record the composite run instead.
    pub fn then(&self, later: &Profile) -> Profile {
        assert_eq!(
            self.p(),
            later.p(),
            "profiles must have the same world size"
        );
        let per_rank: Vec<RankStats> = self
            .per_rank
            .iter()
            .zip(&later.per_rank)
            .map(|(a, b)| RankStats {
                flops: a.flops + b.flops,
                words_sent: a.words_sent + b.words_sent,
                msgs_sent: a.msgs_sent + b.msgs_sent,
                words_recvd: a.words_recvd + b.words_recvd,
                msgs_recvd: a.msgs_recvd + b.msgs_recvd,
                mem_current: b.mem_current,
                mem_peak: a.mem_peak.max(b.mem_peak),
                finish_time: a.finish_time + b.finish_time,
            })
            .collect();
        // A block on either side makes the sum non-zero: stored form.
        let either = !(self.overheads.is_empty() && later.overheads.is_empty());
        let sum = |r| {
            let (a, b) = (self.overheads_of(r), later.overheads_of(r));
            RankOverheads {
                words_sent_intra: a.words_sent_intra + b.words_sent_intra,
                msgs_sent_intra: a.msgs_sent_intra + b.msgs_sent_intra,
                retries: a.retries + b.retries,
                retrans_words: a.retrans_words + b.retrans_words,
                retrans_msgs: a.retrans_msgs + b.retrans_msgs,
                checkpoint_words: a.checkpoint_words + b.checkpoint_words,
                checkpoint_msgs: a.checkpoint_msgs + b.checkpoint_msgs,
                crashes_recovered: a.crashes_recovered + b.crashes_recovered,
            }
        };
        let overheads = (0..if either { self.p() } else { 0 }).map(sum).collect();
        let (folded, _) = fold(&per_rank);
        Profile {
            per_rank,
            makespan: self.makespan + later.makespan,
            events: Vec::new(),
            overheads,
            folded,
        }
    }

    /// Export this run's accounting into a metrics [`Registry`] under
    /// `prefix`:
    ///
    /// * counters `{prefix}.total.*` — flops, words, messages,
    ///   retries, crashes recovered, and resilience traffic, summed
    ///   over ranks (and accumulating across runs exported into the
    ///   same registry);
    /// * gauges `{prefix}.p` and `{prefix}.mem_peak_words` — world
    ///   size and the memory high-water mark of the *last* exported
    ///   run;
    /// * histograms `{prefix}.rank.*` — the per-rank distributions of
    ///   flops, words sent, messages sent, memory peak, and finish
    ///   time (virtual nanoseconds), one sample per rank.
    ///
    /// Errors only if `prefix` collides with same-named metrics of a
    /// different kind already in the registry.
    pub fn export_metrics(&self, reg: &Registry, prefix: &str) -> Result<(), String> {
        for (name, v) in [
            ("total.flops", self.total_flops()),
            ("total.words", self.total_words_sent()),
            ("total.msgs", self.total_msgs_sent()),
            ("total.retries", self.total_retries()),
            ("total.crashes_recovered", self.total_crashes_recovered()),
            ("resilience.words", self.resilience_words()),
            ("resilience.msgs", self.resilience_msgs()),
        ] {
            reg.counter(&format!("{prefix}.{name}"))?.add(v);
        }
        reg.gauge(&format!("{prefix}.p"))?.set(self.p() as i64);
        reg.gauge(&format!("{prefix}.mem_peak_words"))?
            .set(self.max_mem_peak() as i64);
        let h_flops = reg.histogram(&format!("{prefix}.rank.flops"))?;
        let h_words = reg.histogram(&format!("{prefix}.rank.words_sent"))?;
        let h_msgs = reg.histogram(&format!("{prefix}.rank.msgs_sent"))?;
        let h_mem = reg.histogram(&format!("{prefix}.rank.mem_peak"))?;
        let h_finish = reg.histogram(&format!("{prefix}.rank.finish_ns"))?;
        for r in &self.per_rank {
            h_flops.record(r.flops);
            h_words.record(r.words_sent);
            h_msgs.record(r.msgs_sent);
            h_mem.record(r.mem_peak);
            h_finish.record(saturating_nanos(r.finish_time));
        }
        Ok(())
    }

    /// Consistency check: every word sent across a link is received.
    pub fn words_balance(&self) -> (u64, u64) {
        (
            self.total_words_sent(),
            self.per_rank.iter().map(|r| r.words_recvd).sum(),
        )
    }

    /// Enforce [`Profile::words_balance`]: error with
    /// [`SimError::UnbalancedProfile`] when a program left transfers
    /// unreceived (or counters were corrupted). Called automatically by
    /// `Machine::run` in debug builds.
    pub fn assert_balanced(&self) -> SimResult<()> {
        let (sent, recvd) = self.words_balance();
        if sent != recvd {
            return Err(SimError::UnbalancedProfile { sent, recvd });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(flops: u64, words: u64, t: f64) -> RankStats {
        RankStats {
            flops,
            words_sent: words,
            msgs_sent: words / 10,
            words_recvd: words,
            msgs_recvd: words / 10,
            mem_current: 0,
            mem_peak: 2 * words,
            finish_time: t,
        }
    }

    fn flat(per_rank: Vec<RankStats>) -> Profile {
        Profile::from_parts(per_rank, Vec::new(), Vec::new())
    }

    #[test]
    fn intra_accessors_default_to_zero() {
        let p = flat(vec![stats(1, 100, 1.0), stats(2, 50, 2.0)]);
        assert_eq!(p.total_words_intra(), 0);
        assert_eq!(p.total_msgs_intra(), 0);
        assert_eq!(p.total_words_inter(), 150);
    }

    #[test]
    fn aggregates() {
        let p = flat(vec![
            stats(100, 10, 1.0),
            stats(300, 30, 2.5),
            stats(200, 0, 0.5),
        ]);
        assert_eq!(p.p(), 3);
        assert_eq!(p.total_flops(), 600);
        assert_eq!(p.max_flops(), 300);
        assert_eq!(p.total_words_sent(), 40);
        assert_eq!(p.max_words_sent(), 30);
        assert_eq!(p.total_msgs_sent(), 4);
        assert_eq!(p.max_msgs_sent(), 3);
        assert_eq!(p.max_mem_peak(), 60);
        assert_eq!(p.makespan, 2.5);
        assert_eq!(p.words_balance(), (40, 40));
    }

    #[test]
    fn then_composes_counters_and_makespan() {
        let a = flat(vec![stats(100, 10, 1.0), stats(50, 20, 2.0)]);
        let b = flat(vec![stats(10, 1, 0.5), stats(20, 2, 0.25)]);
        let c = a.then(&b);
        assert_eq!(c.total_flops(), 180);
        assert_eq!(c.per_rank[0].flops, 110);
        assert_eq!(c.per_rank[1].words_sent, 22);
        assert_eq!(c.makespan, 2.5);
        assert_eq!(c.per_rank[0].mem_peak, 20); // max of phases
    }

    /// The stored form is fixed by the constructor: a block of zeros is
    /// no block, so `==` means "same numbers" however it was built.
    #[test]
    fn an_all_zero_overhead_block_equals_none() {
        let ranks = vec![stats(1, 100, 1.0), stats(2, 50, 2.0)];
        let zeros = vec![RankOverheads::default(); 2];
        let built_with = Profile::from_parts(ranks.clone(), zeros, Vec::new());
        assert_eq!(built_with, flat(ranks.clone()));
        assert!(built_with.overheads().is_empty());
        assert_eq!(built_with.overheads_of(1), RankOverheads::default());

        let one_retry = RankOverheads {
            retries: 1,
            retrans_words: 50,
            retrans_msgs: 1,
            ..RankOverheads::default()
        };
        let bitten = Profile::from_parts(
            ranks.clone(),
            vec![Default::default(), one_retry],
            Vec::new(),
        );
        assert_ne!(bitten, flat(ranks));
        assert_eq!(bitten.overheads().len(), 2);
        assert_eq!(bitten.total_retries(), 1);
        assert_eq!(bitten.max_words_with_resilience(), 100);
        assert_eq!(bitten.resilience_words(), 50);
    }

    /// `then` for every presence combination of the overhead block.
    #[test]
    fn then_composes_with_and_without_overheads() {
        let ranks = vec![stats(1, 100, 1.0), stats(2, 50, 2.0)];
        let cp = RankOverheads {
            checkpoint_words: 7,
            checkpoint_msgs: 1,
            crashes_recovered: 1,
            ..RankOverheads::default()
        };
        let plain = flat(ranks.clone());
        let faulted = Profile::from_parts(ranks, vec![cp, Default::default()], Vec::new());
        assert!(plain.then(&plain).overheads().is_empty());
        assert_eq!(plain.then(&faulted).overheads(), faulted.overheads());
        assert_eq!(faulted.then(&plain).overheads(), faulted.overheads());
        let twice = faulted.then(&faulted);
        assert_eq!(twice.total_checkpoint_words(), 14);
        assert_eq!(twice.total_crashes_recovered(), 2);
        assert_eq!(twice.overheads_of(1), RankOverheads::default());
        assert_eq!(plain.then(&faulted).per_rank, plain.then(&plain).per_rank);
    }

    #[test]
    #[should_panic(expected = "same world size")]
    fn then_requires_matching_worlds() {
        let a = flat(vec![stats(1, 1, 1.0)]);
        let b = flat(vec![stats(1, 1, 1.0), stats(1, 1, 1.0)]);
        let _ = a.then(&b);
    }

    #[test]
    fn export_metrics_names_every_series() {
        let reg = Registry::new();
        let p = flat(vec![stats(100, 10, 1.0), stats(300, 30, 2.5)]);
        p.export_metrics(&reg, "sim").unwrap();
        let snap = reg.snapshot();
        use psse_metrics::SnapshotValue;
        assert_eq!(
            snap.get("sim.total.flops"),
            Some(&SnapshotValue::Counter(400))
        );
        assert_eq!(snap.get("sim.p"), Some(&SnapshotValue::Gauge(2)));
        match snap.get("sim.rank.finish_ns") {
            Some(SnapshotValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.max(), Some(2_500_000_000));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // A second export accumulates counters and re-records ranks.
        p.export_metrics(&reg, "sim").unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("sim.total.flops"),
            Some(&SnapshotValue::Counter(800))
        );
        // A kind collision is an error, not silent aliasing.
        reg.counter("clash.rank.flops").unwrap();
        let q = flat(vec![stats(1, 1, 1.0)]);
        assert!(q.export_metrics(&reg, "clash").is_err());
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = flat(vec![]);
        assert_eq!(p.total_flops(), 0);
        assert_eq!(p.max_flops(), 0);
        assert_eq!(p.makespan, 0.0);
    }
}
