//! The simulated machine: configuration and the pooled thread-per-rank
//! runner.

use crate::error::{SimError, SimResult};
use crate::event::{EventMachine, EventOutcome, ExecStats};
use crate::mailbox::Mailboxes;
use crate::meter::RankParts;
use crate::pool::Crew;
use crate::profile::Profile;
use crate::program::RankProgram;
use crate::rank::Rank;
use psse_faults::FaultPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which executor [`SimConfig`] asks for.
///
/// [`Machine::run`] does not read this: it has one receive path, which
/// parks on the mailbox and proves deadlock from a parked-rank counter
/// ([`SimError::Deadlock`]), whatever the value. The flag travels with
/// the config because the lab digests it into run keys, the CLI prints
/// it, and [`run_programs`] dispatches on it: rank programs go to this
/// thread machine (`Threads`, the bit-identity oracle) or to the
/// single-process worklist executor (`Events`, for p = 10⁵–10⁶).
/// Virtual time, counters and traces are a pure function of the message
/// DAG, so every executor produces **byte-identical** profiles and the
/// same deadlock report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Thread-per-rank machine (the default).
    #[default]
    Threads,
    /// The worklist executor, [`EventMachine`], where a caller routes to
    /// it.
    Events,
}

impl Backend {
    /// The spec-file / CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Events => "events",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" | "thread" => Ok(Backend::Threads),
            "events" | "event" => Ok(Backend::Events),
            other => Err(format!("unknown backend `{other}` (threads|events)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cooperative cancellation flag shared between a running
/// [`Machine::run`] (or [`EventMachine::run`]) and whoever may abandon it,
/// optionally carrying its own wall-clock deadline (the lab's
/// `--timeout` is [`CancelFlag::after`]).
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same
/// flag. Once [`CancelFlag::cancel`] is called or the deadline has
/// passed, ranks notice at their next send/receive, blocked receivers
/// are woken through the existing poison machinery, and the run returns
/// [`SimError::Cancelled`]. Cancellation is sticky: the flag cannot be
/// reset and a deadline cannot be moved, so one flag serves at most one
/// run.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<Cancel>);

#[derive(Debug, Default)]
struct Cancel {
    raised: AtomicBool,
    /// `None`: no deadline (or one too far away to represent).
    deadline: Option<Instant>,
}

impl CancelFlag {
    /// A fresh, un-cancelled flag with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A flag that cancels itself once `budget` of wall-clock time has
    /// passed from now; `Duration::ZERO` is cancelled from the start.
    pub fn after(budget: Duration) -> Self {
        Self(Arc::new(Cancel {
            raised: AtomicBool::new(false),
            deadline: Instant::now().checked_add(budget),
        }))
    }

    /// Request cancellation. Idempotent and safe from any thread.
    pub fn cancel(&self) {
        self.0.raised.store(true, Ordering::SeqCst);
    }

    /// Has [`CancelFlag::cancel`] been called, or the deadline passed?
    pub fn is_cancelled(&self) -> bool {
        self.0.raised.load(Ordering::SeqCst) || self.remaining().is_some_and(|d| d.is_zero())
    }

    /// Wall-clock time left before the deadline; `None` without one.
    fn remaining(&self) -> Option<Duration> {
        let deadline = self.0.deadline?;
        Some(deadline.saturating_duration_since(Instant::now()))
    }
}

/// Refuse, by name, the first of `prices` the simulator cannot charge:
/// an infinite, negative or NaN one would carry `inf` and `NaN` into
/// every clock it touches and out to the printed `T`, `E` and `P`.
pub fn check_prices(prices: &[(&str, f64)]) -> Result<(), String> {
    match prices.iter().find(|(_, x)| !(x.is_finite() && *x >= 0.0)) {
        Some((name, x)) => Err(format!(
            "{name} = {x}: time prices must be finite and non-negative"
        )),
        None => Ok(()),
    }
}

/// Two-level machine hierarchy (paper Fig. 2): ranks are grouped into
/// nodes of `cores_per_node` consecutive ids; messages between ranks of
/// the same node use the (cheaper) intra-node link prices instead of the
/// machine-level `beta_t`/`alpha_t`.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    /// Ranks per node (`pl`); rank `r` lives on node `r / cores_per_node`.
    pub cores_per_node: usize,
    /// `βlt` — virtual seconds per word on intra-node links.
    pub intra_beta_t: f64,
    /// `αlt` — virtual seconds per message on intra-node links.
    pub intra_alpha_t: f64,
}

impl Hierarchy {
    /// Validate ranges (at least one core per node, [`check_prices`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores_per_node == 0 {
            return Err("hierarchy.cores_per_node must be at least 1".into());
        }
        check_prices(&[
            ("intra_beta_t", self.intra_beta_t),
            ("intra_alpha_t", self.intra_alpha_t),
        ])
    }
}

/// Cost-model and safety configuration of a simulated machine. Time
/// parameters follow paper Eq. 1.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// `γt` — virtual seconds per flop.
    pub gamma_t: f64,
    /// `βt` — virtual seconds per word sent (inter-node when a
    /// [`Hierarchy`] is configured).
    pub beta_t: f64,
    /// `αt` — virtual seconds per message (inter-node when a
    /// [`Hierarchy`] is configured).
    pub alpha_t: f64,
    /// `m` — maximum words per message; longer transfers are split (so a
    /// `k`-word send counts `⌈k/m⌉` messages, the paper's `S = W/m`).
    pub max_message_words: usize,
    /// Optional per-rank tracked-allocation limit, in words. `None`
    /// disables enforcement (peaks are still recorded).
    pub mem_limit_words: Option<u64>,
    /// Optional two-level hierarchy (paper Fig. 2). `None` = flat
    /// machine: all links priced at `beta_t`/`alpha_t`.
    pub hierarchy: Option<Hierarchy>,
    /// Record a typed event log per rank (see [`crate::record`]) for
    /// trace replay. Off by default: with the flag off the only cost is
    /// one branch per operation; with it on, one `Vec` push per
    /// operation (payloads are never copied).
    pub record_trace: bool,
    /// Deterministic fault injection and recovery (see `psse-faults`).
    /// `None` (the default) disables every fault path: the run is
    /// bit-identical to a build without the feature, at the cost of one
    /// branch per operation.
    pub faults: Option<FaultPlan>,
    /// Which executor a dispatching caller should use; see [`Backend`].
    /// Identical output either way, and not read by [`Machine::run`].
    pub backend: Backend,
    /// Optional cooperative cancellation hook, with or without a
    /// deadline ([`CancelFlag::after`]). When set, a monitor thread
    /// inside [`Machine::run`] waits on the flag and, once it is up,
    /// poisons the run exactly as a failing rank would: blocked
    /// receivers wake immediately and the run returns
    /// [`SimError::Cancelled`]. The monitor is woken when the run ends,
    /// so a run that finishes first pays no wait. `None` (the default)
    /// adds no thread and no per-operation cost beyond one branch.
    pub cancel: Option<CancelFlag>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            gamma_t: 1e-9,
            beta_t: 1e-8,
            alpha_t: 1e-6,
            max_message_words: 1 << 16,
            mem_limit_words: None,
            hierarchy: None,
            record_trace: false,
            faults: None,
            backend: Backend::Threads,
            cancel: None,
        }
    }
}

impl SimConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> SimResult<()> {
        check_prices(&[
            ("gamma_t", self.gamma_t),
            ("beta_t", self.beta_t),
            ("alpha_t", self.alpha_t),
        ])
        .map_err(SimError::InvalidConfig)?;
        if self.max_message_words == 0 {
            return Err(SimError::InvalidConfig(
                "max_message_words must be at least 1".into(),
            ));
        }
        if let Some(h) = &self.hierarchy {
            h.validate().map_err(SimError::InvalidConfig)?;
        }
        if let Some(plan) = &self.faults {
            plan.validate().map_err(SimError::InvalidConfig)?;
        }
        Ok(())
    }

    /// Can a run under this configuration move a [`crate::RankOverheads`]
    /// counter? Without a hierarchy or a fault plan no rank keeps the
    /// block and the profile has none.
    pub fn tracks_overheads(&self) -> bool {
        self.hierarchy.is_some() || self.faults.is_some()
    }

    /// A configuration with all time prices zero — useful when only the
    /// counters matter (fastest to simulate, still deterministic).
    pub fn counters_only() -> Self {
        SimConfig {
            gamma_t: 0.0,
            beta_t: 0.0,
            alpha_t: 0.0,
            ..SimConfig::default()
        }
    }
}

/// The outcome of a run: each rank's return value plus the accounting
/// profile.
#[derive(Debug, Clone)]
pub struct SimOutcome<R> {
    /// Per-rank return values, indexed by rank id.
    pub results: Vec<R>,
    /// Per-rank counters and the virtual makespan.
    pub profile: Profile,
}

/// The simulated distributed machine.
pub struct Machine;

/// The most ranks [`Machine::run`] hosts. Each rank is an OS thread,
/// and a thread maps a stack and a guard page: Linux's default
/// `vm.max_map_count` (65 530) runs out near 3·10⁴ of them, and the
/// process then aborts inside `std::thread` instead of returning.
pub const MAX_THREAD_RANKS: usize = 1 << 14;

/// Refuse an empty world or an invalid configuration before either
/// executor builds anything for it.
pub(crate) fn check_world(p: usize, cfg: &SimConfig) -> SimResult<()> {
    if p == 0 {
        return Err(SimError::InvalidConfig("world size p must be >= 1".into()));
    }
    cfg.validate()
}

impl Machine {
    /// Run `f` on `p` ranks. Each rank executes `f(&mut rank)` on its own
    /// OS thread (reused from a process-wide pool across runs, so a
    /// sweep of thousands of small runs pays thread creation once); the
    /// function returns when all ranks complete.
    ///
    /// If any rank returns an error or panics, the run is poisoned:
    /// peers parked in `recv` are woken immediately (condvar, no polling
    /// tick) with [`SimError::PeerFailed`] and the error of the
    /// lowest-numbered failing rank is returned. A program that cannot
    /// finish because every live rank waits on a message nobody will
    /// send returns [`SimError::Deadlock`] the moment the last rank
    /// parks or finishes — no timeout, no sleep.
    pub fn run<F, R>(p: usize, cfg: SimConfig, f: F) -> SimResult<SimOutcome<R>>
    where
        F: Fn(&mut Rank) -> SimResult<R> + Sync,
        R: Send,
    {
        if p > MAX_THREAD_RANKS {
            return Err(SimError::InvalidConfig(format!(
                "world size p = {p} exceeds the thread machine's {MAX_THREAD_RANKS} ranks \
                 (one OS thread each); the event engine (`psse_sim::EventMachine`) is the tool for larger p"
            )));
        }
        check_world(p, &cfg)?;
        let cfg = Arc::new(cfg);
        let mailboxes = Arc::new(Mailboxes::new(p));

        type RankOutput<R> = (R, RankParts);
        let mut slots: Vec<Option<SimResult<RankOutput<R>>>> = Vec::with_capacity(p);
        slots.resize_with(p, || None);

        // A monitor thread exists only when a cancel hook was supplied.
        // It sleeps until the flag's deadline, waking every `POLL` to
        // see a `cancel()` call and at once when the run ends; the
        // moment the flag is up it raises the same poison protocol a
        // failing rank would, so parked receivers wake immediately.
        const POLL: Duration = Duration::from_millis(5);
        let monitor_done = Arc::new(AtomicBool::new(false));
        let refused = |e: std::io::Error| SimError::ThreadSpawn {
            p,
            error: e.to_string(),
        };
        let monitor = cfg
            .cancel
            .clone()
            .map(|flag| {
                let mailboxes = Arc::clone(&mailboxes);
                let done = Arc::clone(&monitor_done);
                std::thread::Builder::new().spawn(move || {
                    while !done.load(Ordering::SeqCst) {
                        if flag.is_cancelled() {
                            mailboxes.poison();
                            return;
                        }
                        std::thread::park_timeout(flag.remaining().map_or(POLL, |d| d.min(POLL)));
                    }
                })
            })
            .transpose()
            .map_err(refused)?;

        let mut spawn_failure = None;
        {
            let mut crew = Crew::new();
            for (id, slot) in slots.iter_mut().enumerate() {
                let cfg = Arc::clone(&cfg);
                let net = Arc::clone(&mailboxes);
                let f = &f;
                let started = crew.execute(move || {
                    let mut rank = Rank::new(id, p, cfg, Arc::clone(&net));
                    let out = catch_unwind(AssertUnwindSafe(|| f(&mut rank)));
                    let res = match out {
                        // A crash that struck during a trailing `compute`
                        // (which cannot return an error) surfaces here.
                        Ok(Ok(v)) => rank.finish().map(|parts| (v, parts)),
                        Ok(Err(e)) => Err(e),
                        Err(panic) => {
                            let msg = panic
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| panic.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "rank panicked".into());
                            Err(SimError::PeerFailed(format!("rank {id} panicked: {msg}")))
                        }
                    };
                    if res.is_err() {
                        // Peers parked in recv wake at once. Poison comes
                        // before `rank_done` so a failed run is never
                        // re-diagnosed as a deadlock of the ranks it
                        // left waiting.
                        net.poison();
                    }
                    // One fewer live rank: the parked set may now be
                    // total (a completed rank that never sent what a peer
                    // still waits for).
                    net.rank_done();
                    *slot = Some(res);
                });
                if let Err(e) = started {
                    // Ranks `id..p` will never run, and a started rank
                    // may be parked on one of them. Poison first, so
                    // counting them out cannot read as a deadlock, and
                    // the started ranks wake and finish.
                    mailboxes.poison();
                    for _ in id..p {
                        mailboxes.rank_done();
                    }
                    spawn_failure = Some(refused(e));
                    break;
                }
            }
            // Crew's destructor blocks until every rank job has finished
            // (and been dropped), the scoped-spawn guarantee the borrows
            // of `f` and `slots` above rely on.
        }
        if let Some(handle) = monitor {
            // An unpark before the monitor parks is kept as a token, so
            // its next park returns at once: no lost wake-up.
            monitor_done.store(true, Ordering::SeqCst);
            handle.thread().unpark();
            let _ = handle.join();
        }
        if let Some(e) = spawn_failure {
            return Err(e);
        }

        let (mut results, mut parts) = (Vec::with_capacity(p), Vec::with_capacity(p));
        // Prefer the root cause over derived noise: the lowest rank that
        // actually failed beats the PeerFailed abandonment its poisoned
        // peers report. Every deadlocked rank reports the same blocked
        // set, so the lowest one yields `rank == blocked[0]`.
        let mut first_peer_failed: Option<SimError> = None;
        let mut first_real: Option<SimError> = None;
        for (id, slot) in slots.into_iter().enumerate() {
            let filled =
                slot.unwrap_or_else(|| Err(SimError::PeerFailed(format!("rank {id} thread died"))));
            match filled {
                Ok((r, rank_parts)) => {
                    results.push(r);
                    parts.push(rank_parts);
                }
                Err(e @ SimError::PeerFailed(_)) => {
                    first_peer_failed.get_or_insert(e);
                }
                Err(e) => {
                    first_real.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_real.or(first_peer_failed) {
            return Err(e);
        }
        let profile = Profile::collect(&cfg, parts.into_iter())?;
        Ok(SimOutcome { results, profile })
    }
}

/// Run one program per rank on the executor [`SimConfig::backend`]
/// selects:
///
/// * [`Backend::Threads`] — each program runs on its own pooled OS
///   thread through [`Rank::run_program`], which makes every step the
///   exact `Rank` call a closure would make — the call the built-in
///   collectives make for their own descriptions — so this is the
///   oracle the event executor is checked against.
/// * [`Backend::Events`] — [`EventMachine`] prices the same steps in
///   one process from a worklist of runnable ranks; byte-identical
///   profiles, traces, and fault counters, feasible to `p = 10^6`.
///
/// `make(rank, p)` constructs rank `rank`'s program.
pub fn run_programs<P, F>(p: usize, cfg: &SimConfig, make: F) -> SimResult<EventOutcome<P>>
where
    P: RankProgram + Send,
    F: Fn(usize, usize) -> P + Sync,
{
    match cfg.backend {
        Backend::Threads => {
            let outcome = Machine::run(p, cfg.clone(), |rank| {
                let mut program = make(rank.rank(), rank.size());
                rank.run_program(&mut program)?;
                Ok(program)
            })?;
            Ok(EventOutcome {
                programs: outcome.results,
                profile: outcome.profile,
                // Thread backend: nothing is scheduled or parked.
                stats: ExecStats::default(),
            })
        }
        Backend::Events => EventMachine::run(p, cfg, make),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{SharedPayload, Tag};
    use crate::program::{Delivered, Payload, Step};

    #[test]
    fn zero_ranks_rejected() {
        let r = Machine::run(0, SimConfig::default(), |_| Ok(()));
        assert!(matches!(r, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn bad_config_rejected() {
        let cfg = SimConfig {
            max_message_words: 0,
            ..SimConfig::default()
        };
        let r = Machine::run(2, cfg, |_| Ok(()));
        assert!(matches!(r, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn non_finite_prices_are_rejected_by_name() {
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            let cfg = SimConfig {
                beta_t: bad,
                ..SimConfig::default()
            };
            match cfg.validate() {
                Err(SimError::InvalidConfig(m)) => assert!(m.starts_with("beta_t = "), "{m}"),
                other => panic!("beta_t = {bad}: {other:?}"),
            }
            let cfg = SimConfig {
                hierarchy: Some(Hierarchy {
                    cores_per_node: 2,
                    intra_beta_t: 0.0,
                    intra_alpha_t: bad,
                }),
                ..SimConfig::default()
            };
            match cfg.validate() {
                Err(SimError::InvalidConfig(m)) => assert!(m.starts_with("intra_alpha_t"), "{m}"),
                other => panic!("intra_alpha_t = {bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn single_rank_compute_only() {
        let out = Machine::run(1, SimConfig::default(), |rank| {
            rank.compute(1_000_000);
            Ok(rank.now())
        })
        .unwrap();
        assert_eq!(out.results.len(), 1);
        assert!((out.results[0] - 1e-3).abs() < 1e-12); // 1e6 flops × 1e-9 s
        assert_eq!(out.profile.per_rank()[0].flops, 1_000_000);
        assert!((out.profile.makespan - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn results_are_indexed_by_rank() {
        let out = Machine::run(5, SimConfig::default(), |rank| Ok(rank.rank() * 10)).unwrap();
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn rank_error_propagates() {
        let r = Machine::run(3, SimConfig::default(), |rank| {
            if rank.rank() == 1 {
                Err(SimError::Algorithm("deliberate".into()))
            } else {
                Ok(())
            }
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))), "{r:?}");
    }

    #[test]
    fn rank_panic_is_contained() {
        let r: SimResult<SimOutcome<()>> = Machine::run(2, SimConfig::default(), |rank| {
            if rank.rank() == 0 {
                panic!("deliberate panic");
            }
            Ok(())
        });
        match r {
            Err(SimError::PeerFailed(m)) => assert!(m.contains("deliberate")),
            other => panic!("expected PeerFailed, got {other:?}"),
        }
    }

    #[test]
    fn failing_rank_unblocks_waiting_peer() {
        // Rank 1 waits forever for a message that rank 0 never sends
        // because rank 0 errors out. The poison flag must wake rank 1,
        // and the failure must not be re-diagnosed as rank 1's deadlock.
        let r: SimResult<SimOutcome<Vec<f64>>> = Machine::run(2, SimConfig::default(), |rank| {
            if rank.rank() == 0 {
                Err(SimError::Algorithm("poisoner".into()))
            } else {
                rank.recv(0, Tag(1))
            }
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))), "{r:?}");
    }

    #[test]
    fn a_rank_thread_the_os_refuses_fails_the_run_instead_of_hanging() {
        // A relay: rank r waits for rank r + 1 before passing the value
        // on, so every rank started before the refused spawn is parked
        // on a rank that never starts. Each k fails the k-th spawn.
        use std::sync::mpsc::RecvTimeoutError;
        let p = 8;
        for k in 1..=p {
            let (tx, rx) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                crate::pool::failpoint::fail_spawn(k);
                let r = Machine::run(p, SimConfig::default(), |rank| {
                    let me = rank.rank();
                    let v = if me + 1 < rank.size() {
                        rank.recv(me + 1, Tag(1))?
                    } else {
                        vec![me as f64]
                    };
                    if me > 0 {
                        rank.send(me - 1, Tag(1), v)?;
                    }
                    Ok(())
                });
                let _ = tx.send(r.map(|_| ()));
            });
            let r = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| match e {
                    RecvTimeoutError::Timeout => {
                        panic!("k = {k}: the run hung on its refused spawn")
                    }
                    RecvTimeoutError::Disconnected => panic!("k = {k}: the run panicked"),
                });
            run.join().expect("the run's thread returned");
            match r {
                Err(SimError::ThreadSpawn { p: 8, error }) => {
                    assert_eq!(error, "injected spawn failure", "k = {k}")
                }
                other => panic!("k = {k}: expected ThreadSpawn, got {other:?}"),
            }
        }
    }

    #[test]
    fn poisoned_eight_rank_run_reports_the_failing_rank() {
        // The failing rank has the *highest* id: the seven abandoned
        // receives below it must not mask its error.
        let r: SimResult<SimOutcome<()>> = Machine::run(8, SimConfig::default(), |rank| {
            if rank.rank() == 7 {
                Err(SimError::Algorithm("dies immediately".into()))
            } else {
                // Everyone else waits on a message rank 7 never sends.
                rank.recv(7, Tag(0))?;
                Ok(())
            }
        });
        assert!(matches!(r, Err(SimError::Algorithm(_))), "{r:?}");
    }

    #[test]
    fn deadlock_is_proven_on_the_default_backend() {
        // The classic cross-wait: both ranks recv first. The error is
        // immediate and names every blocked rank — no wall-clock sleep.
        let start = std::time::Instant::now();
        let r: SimResult<SimOutcome<Vec<f64>>> = Machine::run(2, SimConfig::default(), |rank| {
            rank.recv(1 - rank.rank(), Tag(0))
        });
        match r {
            Err(SimError::Deadlock { rank: 0, blocked }) => assert_eq!(blocked, vec![0, 1]),
            other => panic!("expected a proven deadlock, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "proof must not sleep: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn deadlock_after_peer_completion_is_proven() {
        // Rank 1 completes without sending; rank 0 can then never
        // proceed. The completion itself must trigger the proof.
        let r: SimResult<SimOutcome<f64>> = Machine::run(2, SimConfig::default(), |rank| {
            if rank.rank() == 0 {
                let v = rank.recv(1, Tag(0))?;
                Ok(v[0])
            } else {
                Ok(0.0)
            }
        });
        match r {
            Err(SimError::Deadlock { rank: 0, blocked }) => assert_eq!(blocked, vec![0]),
            other => panic!("expected a proven deadlock, got {other:?}"),
        }
    }

    /// Six shifts of a 64-word block to the right around the ring, each
    /// followed by a 500-flop compute: `sendrecv` in a loop, as steps.
    struct RingShift {
        me: usize,
        p: usize,
        step: u64,
        block: SharedPayload,
        sent: bool,
    }

    impl RankProgram for RingShift {
        fn next(&mut self, delivered: Option<Delivered>) -> Step {
            if let Some(d) = delivered {
                self.block = d.data.expect("a data-mode shift");
                self.step += 1;
                return Step::Compute { flops: 500 };
            }
            if self.step == 6 {
                return Step::Done;
            }
            let (tag, p) = (Tag(self.step), self.p);
            self.sent = !self.sent;
            match self.sent {
                true => Step::Send {
                    dest: (self.me + 1) % p,
                    tag,
                    payload: Payload::Data(Arc::clone(&self.block)),
                },
                false => Step::Recv {
                    src: (self.me + p - 1) % p,
                    tag,
                },
            }
        }
    }

    #[test]
    fn backends_are_bit_identical_on_a_ring() {
        let run = |backend: Backend| {
            let cfg = SimConfig {
                backend,
                record_trace: true,
                ..SimConfig::default()
            };
            run_programs(6, &cfg, |me, p| RingShift {
                me,
                p,
                step: 0,
                block: Arc::new(vec![me as f64; 64]),
                sent: false,
            })
            .unwrap()
        };
        let (a, b) = (run(Backend::Threads), run(Backend::Events));
        assert_eq!(a.profile, b.profile, "profiles must match byte-for-byte");
        let firsts = |o: &EventOutcome<RingShift>| -> Vec<f64> {
            o.programs.iter().map(|rank| rank.block[0]).collect()
        };
        // Six shifts around six ranks bring every block home.
        assert_eq!(firsts(&a), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(firsts(&a), firsts(&b));
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("threads".parse::<Backend>().unwrap(), Backend::Threads);
        assert_eq!("events".parse::<Backend>().unwrap(), Backend::Events);
        assert!("fibers".parse::<Backend>().is_err());
        assert_eq!(Backend::Events.to_string(), "events");
        assert_eq!(Backend::default(), Backend::Threads);
    }

    #[test]
    fn cancelled_flag_aborts_a_parked_recv_promptly() {
        // Rank 0 parks in a recv that will never be satisfied while rank
        // 1 stays busy on the host (so the run is not a deadlock). Only
        // the watchdog can wake rank 0, and the run must report
        // Cancelled, not PeerFailed.
        let flag = CancelFlag::new();
        let cfg = SimConfig {
            cancel: Some(flag.clone()),
            ..SimConfig::default()
        };
        let canceller = std::thread::spawn({
            let flag = flag.clone();
            move || {
                std::thread::sleep(Duration::from_millis(50));
                flag.cancel();
            }
        });
        let woken = AtomicBool::new(false);
        let r: SimResult<SimOutcome<Vec<f64>>> = Machine::run(2, cfg, |rank| {
            if rank.rank() == 0 {
                let r = rank.recv(1, Tag(0));
                woken.store(true, Ordering::SeqCst);
                r
            } else {
                while !woken.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(vec![])
            }
        });
        canceller.join().unwrap();
        assert!(matches!(r, Err(SimError::Cancelled)), "{r:?}");
    }

    #[test]
    fn pre_cancelled_flag_fails_fast_with_cancelled() {
        let flag = CancelFlag::new();
        flag.cancel();
        let cfg = SimConfig {
            cancel: Some(flag),
            ..SimConfig::default()
        };
        let r: SimResult<SimOutcome<()>> = Machine::run(2, cfg, |rank| {
            rank.send(1 - rank.rank(), Tag(0), vec![1.0])?;
            rank.recv(1 - rank.rank(), Tag(0))?;
            Ok(())
        });
        assert!(matches!(r, Err(SimError::Cancelled)), "{r:?}");
    }

    #[test]
    fn a_spent_deadline_is_a_raised_flag() {
        assert!(CancelFlag::after(Duration::ZERO).is_cancelled());
        assert!(!CancelFlag::after(Duration::from_secs(600)).is_cancelled());
        assert!(!CancelFlag::after(Duration::MAX).is_cancelled());
        let flag = CancelFlag::after(Duration::from_secs(600));
        flag.cancel();
        assert!(flag.is_cancelled());
        let r: SimResult<SimOutcome<()>> = Machine::run(
            2,
            SimConfig {
                cancel: Some(CancelFlag::after(Duration::ZERO)),
                ..SimConfig::default()
            },
            |rank| rank.recv(1 - rank.rank(), Tag(0)).map(drop),
        );
        assert!(matches!(r, Err(SimError::Cancelled)), "{r:?}");
    }

    #[test]
    fn a_flagged_run_returns_when_its_ranks_do() {
        // The monitor is woken when the run ends: a hundred short
        // flagged runs must not each wait out its polling interval.
        // A monitor left to sleep adds most of `POLL` (5 ms) to every
        // run, 500 ms to the batch, so the flagged batch is timed
        // against the same runs without a flag and may be at most
        // 250 ms slower; a loaded host slows both batches alike.
        let batch = |cancel: &dyn Fn() -> Option<CancelFlag>| {
            let start = std::time::Instant::now();
            for _ in 0..100 {
                let cfg = SimConfig {
                    cancel: cancel(),
                    ..SimConfig::default()
                };
                Machine::run(4, cfg, |rank| {
                    let right = (rank.rank() + 1) % rank.size();
                    let left = (rank.rank() + rank.size() - 1) % rank.size();
                    rank.sendrecv(right, Tag(1), vec![rank.rank() as f64; 8], left, Tag(1))
                })
                .unwrap();
            }
            start.elapsed()
        };
        let plain = batch(&|| None);
        let flagged = batch(&|| Some(CancelFlag::after(Duration::from_secs(600))));
        assert!(
            flagged <= plain + Duration::from_millis(250),
            "100 flagged runs took {flagged:?}, the same runs without a flag {plain:?}"
        );
    }

    #[test]
    fn unused_cancel_flag_changes_nothing() {
        // A configured-but-never-fired flag must leave results and the
        // profile identical to a run without one.
        let run = |cancel: Option<CancelFlag>| {
            let cfg = SimConfig {
                cancel,
                ..SimConfig::default()
            };
            Machine::run(4, cfg, |rank| {
                let right = (rank.rank() + 1) % rank.size();
                let left = (rank.rank() + rank.size() - 1) % rank.size();
                rank.compute(100);
                rank.sendrecv(right, Tag(1), vec![rank.rank() as f64; 8], left, Tag(1))
                    .map(|b| b[0])
            })
            .unwrap()
        };
        let plain = run(None);
        let flagged = run(Some(CancelFlag::new()));
        assert_eq!(plain.results, flagged.results);
        assert_eq!(plain.profile, flagged.profile);
    }

    #[test]
    fn counters_only_config_has_zero_makespan() {
        let out = Machine::run(2, SimConfig::counters_only(), |rank| {
            rank.compute(100);
            if rank.rank() == 0 {
                rank.send(1, Tag(0), vec![1.0, 2.0])?;
            } else {
                rank.recv(0, Tag(0))?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out.profile.makespan, 0.0);
        assert_eq!(out.profile.total_flops(), 200);
        assert_eq!(out.profile.total_words_sent(), 2);
    }
}
