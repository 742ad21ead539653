//! Keyed per-rank mailboxes with condvar wakeups.
//!
//! Each rank owns one [`Mailbox`]; senders push whole-transfer
//! [`Envelope`]s keyed by `(src, tag)` and the receiver pops the head of
//! exactly the queue it is waiting on — O(1) per message instead of the
//! O(pending) scan a flat `Vec<Envelope>` needs under heavy unrelated
//! traffic. Blocking receives park on a condition variable and are woken
//! by the next push (or by [`Mailbox::wake`] when the run is poisoned),
//! so there is no polling tick: a dead peer is observed immediately, not
//! after a timeout slice.

use crate::message::{Envelope, Tag};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Outcome of a blocking mailbox receive.
pub(crate) enum RecvWait {
    /// The matching transfer, FIFO per `(src, tag)`.
    Message(Envelope),
    /// The run was poisoned and no matching message was queued.
    Poisoned,
    /// The deadline passed with no matching message (deadlock).
    TimedOut,
}

/// One rank's incoming-message store: `(src, tag) → FIFO` plus the
/// condition variable its receive thread parks on.
pub(crate) struct Mailbox {
    queues: Mutex<HashMap<(usize, Tag), VecDeque<Envelope>>>,
    cv: Condvar,
}

/// A panic while holding a mailbox lock cannot leave the map in a torn
/// state (no invariants span statements), so lock poisoning is ignored —
/// this keeps the poison-flag wakeup working even mid-unwind.
fn lock_queues(
    m: &Mutex<HashMap<(usize, Tag), VecDeque<Envelope>>>,
) -> MutexGuard<'_, HashMap<(usize, Tag), VecDeque<Envelope>>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Mailbox {
    pub(crate) fn new() -> Mailbox {
        Mailbox {
            queues: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Enqueue a transfer and wake the (single) receiver thread.
    pub(crate) fn push(&self, env: Envelope) {
        let mut queues = lock_queues(&self.queues);
        queues.entry((env.src, env.tag)).or_default().push_back(env);
        // One receiver per mailbox (the owning rank), so notify_one.
        self.cv.notify_one();
    }

    /// Pop the next transfer from `src` under `tag`, blocking until one
    /// arrives, the `poison` flag is raised, or `deadline` passes.
    ///
    /// A message already queued wins over poison: the transfer completed
    /// before the failure, so the receiver may still consume it — this
    /// matches the pre-condvar transport, which harvested its pending
    /// buffer before checking the flag.
    pub(crate) fn recv(
        &self,
        src: usize,
        tag: Tag,
        deadline: Instant,
        poison: &AtomicBool,
    ) -> RecvWait {
        let mut queues = lock_queues(&self.queues);
        loop {
            if let Some(q) = queues.get_mut(&(src, tag)) {
                if let Some(env) = q.pop_front() {
                    if q.is_empty() {
                        queues.remove(&(src, tag));
                    }
                    return RecvWait::Message(env);
                }
            }
            if poison.load(Ordering::SeqCst) {
                return RecvWait::Poisoned;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvWait::TimedOut;
            }
            // The flag was clear while we held the lock; a poisoner
            // raises it and then takes this lock to notify, so the
            // wakeup cannot be lost between the check and the wait.
            queues = self
                .cv
                .wait_timeout(queues, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Wake the receiver so it re-checks the poison flag. Taking the
    /// lock before notifying is what makes the wakeup race-free (see
    /// [`Mailbox::recv`]).
    pub(crate) fn wake(&self) {
        let _queues = lock_queues(&self.queues);
        self.cv.notify_all();
    }

    /// Non-blocking receive: pop the next transfer from `src` under
    /// `tag` if one is already queued. The event-driven backend's block
    /// path (see `crate::registry`) polls this under the registry lock
    /// instead of ever parking on this mailbox's condvar.
    pub(crate) fn try_recv(&self, src: usize, tag: Tag) -> Option<Envelope> {
        let mut queues = lock_queues(&self.queues);
        let q = queues.get_mut(&(src, tag))?;
        let env = q.pop_front();
        if q.is_empty() {
            queues.remove(&(src, tag));
        }
        env
    }

    /// Whether a transfer from `src` under `tag` is queued right now.
    /// Used by the deadlock probe: a blocked rank with a matching
    /// message is about to make progress, so the system is not stuck.
    pub(crate) fn has_match(&self, src: usize, tag: Tag) -> bool {
        lock_queues(&self.queues)
            .get(&(src, tag))
            .is_some_and(|q| !q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

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

    #[test]
    fn push_then_recv_is_fifo_per_key() {
        let mb = Mailbox::new();
        mb.push(env(1, 7, 1.0));
        mb.push(env(1, 7, 2.0));
        mb.push(env(2, 7, 9.0)); // different key, must not interfere
        let poison = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(1);
        for expect in [1.0, 2.0] {
            match mb.recv(1, Tag(7), deadline, &poison) {
                RecvWait::Message(e) => assert_eq!(e.payload[0], expect),
                _ => panic!("expected a message"),
            }
        }
        match mb.recv(2, Tag(7), deadline, &poison) {
            RecvWait::Message(e) => assert_eq!(e.payload[0], 9.0),
            _ => panic!("expected a message"),
        }
    }

    #[test]
    fn queued_message_beats_poison() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5.0));
        let poison = AtomicBool::new(true);
        let deadline = Instant::now() + Duration::from_secs(1);
        assert!(matches!(
            mb.recv(0, Tag(1), deadline, &poison),
            RecvWait::Message(_)
        ));
        assert!(matches!(
            mb.recv(0, Tag(1), deadline, &poison),
            RecvWait::Poisoned
        ));
    }

    #[test]
    fn empty_recv_times_out() {
        let mb = Mailbox::new();
        let poison = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(
            mb.recv(0, Tag(0), deadline, &poison),
            RecvWait::TimedOut
        ));
    }

    #[test]
    fn cross_thread_wakeup_is_prompt() {
        let mb = Arc::new(Mailbox::new());
        let poison = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let recv_side = {
            let mb = Arc::clone(&mb);
            let poison = Arc::clone(&poison);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                matches!(mb.recv(3, Tag(0), deadline, &poison), RecvWait::Message(_))
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        mb.push(env(3, 0, 1.0));
        assert!(recv_side.join().unwrap());
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "wakeup must be event-driven, not a timeout slice"
        );
    }

    #[test]
    fn poison_wake_unblocks_waiter() {
        let mb = Arc::new(Mailbox::new());
        let poison = Arc::new(AtomicBool::new(false));
        let recv_side = {
            let mb = Arc::clone(&mb);
            let poison = Arc::clone(&poison);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                matches!(mb.recv(0, Tag(0), deadline, &poison), RecvWait::Poisoned)
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        poison.store(true, Ordering::SeqCst);
        mb.wake();
        assert!(recv_side.join().unwrap());
    }
}
