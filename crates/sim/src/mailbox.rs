//! Keyed per-rank mailboxes and the one blocking receive.
//!
//! Each rank owns one mailbox; senders push whole-transfer
//! [`Envelope`]s keyed by `(src, tag)` and the receiver pops the head of
//! exactly the queue it is waiting on — O(1) per message instead of the
//! O(pending) scan a flat `Vec<Envelope>` needs under heavy unrelated
//! traffic. A receive that finds its queue empty parks on the mailbox's
//! own condition variable and is woken only by the push that matches it
//! (or by [`Mailboxes::poison`]), so there is no polling tick and no
//! wall clock anywhere.
//!
//! ## Deadlock proof
//!
//! [`Mailboxes`] counts the ranks that are live and not parked
//! (`active`, initially `p`). A parking receiver records the key it
//! waits on and counts itself out; the matching push counts it back in
//! *while the pusher is itself still counted*; a finishing rank counts
//! itself out. Two facts make `active == 0` an exact proof:
//!
//! 1. a rank is uncounted only while finished or parked on an empty
//!    queue, so at zero no rank is running and none can send again;
//! 2. re-activation happens under a counted pusher, so the count cannot
//!    touch zero while any parked rank is about to be woken.
//!
//! Whoever takes the count to zero scans the recorded keys for the
//! blocked set, stores it and raises the poison wake-up; every blocked
//! rank then reports the same set.

use crate::message::{Envelope, Tag};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Outcome of a blocking receive.
pub(crate) enum RecvWait {
    /// The matching transfer, FIFO per `(src, tag)`.
    Message(Envelope),
    /// The run was poisoned (a peer failed or the run was cancelled) and
    /// no matching message was queued.
    Poisoned,
    /// Deadlock proven; carries every blocked rank id, ascending.
    Deadlocked(Vec<usize>),
}

type Key = (usize, Tag);

/// What a mailbox's lock guards.
struct Inbox {
    queues: HashMap<Key, VecDeque<Envelope>>,
    /// The key the owning rank is parked on; `Some` exactly while that
    /// rank is counted out of [`Mailboxes::active`] for a receive.
    waiting: Option<Key>,
}

impl Inbox {
    fn pop(&mut self, key: Key) -> Option<Envelope> {
        let q = self.queues.get_mut(&key)?;
        let env = q.pop_front();
        if q.is_empty() {
            self.queues.remove(&key);
        }
        env
    }
}

/// One rank's incoming-message store plus the condition variable its
/// receive parks on.
struct Mailbox {
    inbox: Mutex<Inbox>,
    cv: Condvar,
}

/// A panic while holding a mailbox lock cannot leave the inbox in a torn
/// state (no invariants span statements), so lock poisoning is ignored —
/// this keeps the poison-flag wakeup working even mid-unwind.
fn lock(mb: &Mailbox) -> MutexGuard<'_, Inbox> {
    mb.inbox.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One run's transport: every rank's mailbox and the parked-rank counter
/// that proves deadlock (see the module docs).
pub(crate) struct Mailboxes {
    boxes: Vec<Mailbox>,
    /// Live ranks not parked in a receive.
    active: AtomicUsize,
    /// Raised when the run can no longer complete: a rank failed, the
    /// run was cancelled, or deadlock was proven.
    poison: AtomicBool,
    /// The proven blocked set; written once, before `poison` is raised.
    deadlock: OnceLock<Vec<usize>>,
}

impl Mailboxes {
    pub(crate) fn new(p: usize) -> Mailboxes {
        Mailboxes {
            boxes: (0..p)
                .map(|_| Mailbox {
                    inbox: Mutex::new(Inbox {
                        queues: HashMap::new(),
                        waiting: None,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            active: AtomicUsize::new(p),
            poison: AtomicBool::new(false),
            deadlock: OnceLock::new(),
        }
    }

    /// Enqueue a transfer for `dest`; if `dest` is parked on exactly this
    /// key, count it back in and wake it. Called by a running (counted)
    /// rank only.
    pub(crate) fn push(&self, dest: usize, env: Envelope) {
        let mb = &self.boxes[dest];
        let key = (env.src, env.tag);
        let mut inbox = lock(mb);
        inbox.queues.entry(key).or_default().push_back(env);
        if inbox.waiting == Some(key) {
            inbox.waiting = None;
            self.active.fetch_add(1, Ordering::SeqCst);
            mb.cv.notify_one();
        }
    }

    /// Pop rank `me`'s next transfer from `src` under `tag`, parking
    /// until it arrives, the run is poisoned, or deadlock is proven.
    ///
    /// A message already queued wins over poison: the transfer completed
    /// before the failure, so the receiver may still consume it.
    pub(crate) fn recv(&self, me: usize, src: usize, tag: Tag) -> RecvWait {
        let mb = &self.boxes[me];
        let key = (src, tag);
        let mut inbox = lock(mb);
        loop {
            if let Some(env) = inbox.pop(key) {
                return RecvWait::Message(env);
            }
            if self.poison.load(Ordering::SeqCst) {
                if inbox.waiting.take().is_some() {
                    self.active.fetch_add(1, Ordering::SeqCst);
                }
                return match self.deadlock.get() {
                    Some(blocked) => RecvWait::Deadlocked(blocked.clone()),
                    None => RecvWait::Poisoned,
                };
            }
            if inbox.waiting.is_none() {
                inbox.waiting = Some(key);
                if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                    drop(inbox);
                    self.prove_deadlock();
                    inbox = lock(mb);
                    continue;
                }
            }
            // The flag was clear while we held the lock; a poisoner
            // raises it and then takes this lock to notify, so the
            // wakeup cannot be lost between the check and the wait.
            inbox = mb.cv.wait(inbox).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A rank finished its program (in any way). With one fewer live
    /// rank the parked set may now be total.
    pub(crate) fn rank_done(&self) {
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.prove_deadlock();
        }
    }

    /// Raise the poison flag and wake every parked receiver. Taking each
    /// lock before notifying is what makes the wakeup race-free (see
    /// [`Mailboxes::recv`]).
    pub(crate) fn poison(&self) {
        self.poison.store(true, Ordering::SeqCst);
        for mb in &self.boxes {
            let _inbox = lock(mb);
            mb.cv.notify_one();
        }
    }

    /// Called by whoever took `active` to zero, holding no lock. No rank
    /// is running, so the recorded keys are the blocked set (empty when
    /// every rank simply finished).
    fn prove_deadlock(&self) {
        let blocked: Vec<usize> = (0..self.boxes.len())
            .filter(|&r| lock(&self.boxes[r]).waiting.is_some())
            .collect();
        // A run that is already poisoned (failed rank, cancel) keeps
        // that diagnosis: its parked ranks are being released, not stuck,
        // and may have left the scan above incomplete.
        if blocked.is_empty() || self.poison.load(Ordering::SeqCst) {
            return;
        }
        let _ = self.deadlock.set(blocked);
        self.poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn env(src: usize, tag: u64, val: f64) -> Envelope {
        Envelope {
            src,
            tag: Tag(tag),
            departure: crate::meter::Departure {
                n_chunks: 1,
                depart_time: 0.0,
            },
            payload: Arc::new(vec![val]),
        }
    }

    fn value(w: RecvWait) -> f64 {
        match w {
            RecvWait::Message(e) => e.payload[0],
            RecvWait::Poisoned => panic!("expected a message, got Poisoned"),
            RecvWait::Deadlocked(b) => panic!("expected a message, got Deadlocked({b:?})"),
        }
    }

    /// Rank `me` receives on its own thread.
    fn spawn_recv(
        net: &Arc<Mailboxes>,
        me: usize,
        src: usize,
        tag: u64,
    ) -> std::thread::JoinHandle<RecvWait> {
        let net = Arc::clone(net);
        std::thread::spawn(move || net.recv(me, src, Tag(tag)))
    }

    /// Block until `active` reads `n`. A receiver counts itself out
    /// under its mailbox lock and keeps the lock until it is in
    /// `Condvar::wait`, so once the count has dropped, every later
    /// `push`/`poison` finds it parked — no sleep needed to order them.
    fn await_active(net: &Mailboxes, n: usize) {
        while net.active.load(Ordering::SeqCst) != n {
            std::thread::yield_now();
        }
    }

    fn waiting(net: &Mailboxes, rank: usize) -> Option<Key> {
        lock(&net.boxes[rank]).waiting
    }

    #[test]
    fn push_then_recv_is_fifo_per_key() {
        let net = Mailboxes::new(3);
        net.push(0, env(1, 7, 1.0));
        net.push(0, env(1, 7, 2.0));
        net.push(0, env(2, 7, 9.0)); // different key, must not interfere
        assert_eq!(value(net.recv(0, 1, Tag(7))), 1.0);
        assert_eq!(value(net.recv(0, 1, Tag(7))), 2.0);
        assert_eq!(value(net.recv(0, 2, Tag(7))), 9.0);
        assert_eq!(net.active.load(Ordering::SeqCst), 3, "nothing parked");
    }

    #[test]
    fn queued_message_beats_poison() {
        let net = Mailboxes::new(2);
        net.push(1, env(0, 1, 5.0));
        net.poison();
        assert!(matches!(net.recv(1, 0, Tag(1)), RecvWait::Message(_)));
        assert!(matches!(net.recv(1, 0, Tag(1)), RecvWait::Poisoned));
        assert_eq!(net.active.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn matching_push_reactivates_and_wakes_a_parked_receiver() {
        let net = Arc::new(Mailboxes::new(2));
        let receiver = spawn_recv(&net, 1, 0, 3);
        await_active(&net, 1);
        assert_eq!(waiting(&net, 1), Some((0, Tag(3))));
        net.push(1, env(0, 3, 4.0));
        // Counted back in by the pusher, before the receiver has run.
        assert_eq!(net.active.load(Ordering::SeqCst), 2);
        assert_eq!(value(receiver.join().unwrap()), 4.0);
        assert_eq!(waiting(&net, 1), None);
        assert_eq!(net.active.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn non_matching_push_leaves_the_sleeper_and_the_count_alone() {
        let net = Arc::new(Mailboxes::new(3));
        let receiver = spawn_recv(&net, 1, 0, 3);
        await_active(&net, 2);
        net.push(1, env(0, 4, 1.0)); // right source, wrong tag
        net.push(1, env(2, 3, 2.0)); // right tag, wrong source
        assert_eq!(net.active.load(Ordering::SeqCst), 2);
        assert_eq!(waiting(&net, 1), Some((0, Tag(3))));
        assert!(!receiver.is_finished());
        net.push(1, env(0, 3, 3.0));
        assert_eq!(value(receiver.join().unwrap()), 3.0);
        // The bystanders are still queued, in their own FIFOs.
        assert_eq!(value(net.recv(1, 0, Tag(4))), 1.0);
        assert_eq!(value(net.recv(1, 2, Tag(3))), 2.0);
    }

    #[test]
    fn poison_wakes_a_parked_receiver_and_restores_the_count() {
        let net = Arc::new(Mailboxes::new(2));
        let receiver = spawn_recv(&net, 0, 1, 0);
        await_active(&net, 1);
        net.poison();
        assert!(matches!(receiver.join().unwrap(), RecvWait::Poisoned));
        assert_eq!(waiting(&net, 0), None);
        assert_eq!(net.active.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn last_rank_to_finish_proves_the_deadlock_of_a_peer_it_never_sent_to() {
        let net = Arc::new(Mailboxes::new(3));
        let receiver = spawn_recv(&net, 1, 0, 9);
        await_active(&net, 2);
        net.rank_done(); // rank 0: the awaited sender leaves silently
        assert!(!receiver.is_finished(), "rank 2 could still send");
        net.rank_done(); // rank 2 never addressed rank 1 at all
        match receiver.join().unwrap() {
            RecvWait::Deadlocked(blocked) => assert_eq!(blocked, vec![1]),
            _ => panic!("expected a deadlock proof"),
        }
    }

    #[test]
    fn last_rank_to_park_proves_the_deadlock_and_all_report_the_same_set() {
        let net = Arc::new(Mailboxes::new(3));
        net.rank_done(); // rank 1 finishes; ranks 0 and 2 wait on each other
        let first = spawn_recv(&net, 2, 0, 0);
        await_active(&net, 1);
        let second = spawn_recv(&net, 0, 2, 0); // parks last: the prover
        for receiver in [first, second] {
            match receiver.join().unwrap() {
                RecvWait::Deadlocked(blocked) => assert_eq!(blocked, vec![0, 2]),
                _ => panic!("expected a deadlock proof"),
            }
        }
        // A single rank waiting on itself is the degenerate case: it is
        // the last to park and proves its own deadlock without a peer.
        let solo = Mailboxes::new(1);
        assert!(matches!(solo.recv(0, 0, Tag(0)), RecvWait::Deadlocked(b) if b == [0]));
    }

    #[test]
    fn all_ranks_finishing_is_not_a_deadlock() {
        let net = Mailboxes::new(2);
        net.rank_done();
        net.rank_done();
        assert!(net.deadlock.get().is_none());
        assert!(!net.poison.load(Ordering::SeqCst));
    }

    #[test]
    fn a_failed_run_is_not_rediagnosed_as_deadlock() {
        // Rank 1 fails: it poisons, then finishes. Taking the count to
        // zero with rank 0 still recorded as parked (flag raised, not
        // yet notified) must not turn the failure into a deadlock.
        let net = Arc::new(Mailboxes::new(2));
        let receiver = spawn_recv(&net, 0, 1, 0);
        await_active(&net, 1);
        net.poison.store(true, Ordering::SeqCst);
        net.rank_done();
        net.poison();
        assert!(matches!(receiver.join().unwrap(), RecvWait::Poisoned));
        assert!(net.deadlock.get().is_none());
    }

    #[test]
    fn self_send_then_self_receive_never_parks() {
        let net = Mailboxes::new(1);
        net.push(0, env(0, 5, 42.0));
        // p = 1: parking here would take `active` to zero and report a
        // deadlock instead of the message.
        assert_eq!(value(net.recv(0, 0, Tag(5))), 42.0);
        assert_eq!(net.active.load(Ordering::SeqCst), 1);
    }
}
