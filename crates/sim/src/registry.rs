//! Blocked-rank registry for the event-driven backend.
//!
//! Under [`crate::machine::Backend::Events`] a blocking receive never
//! sleeps on a wall clock: the receiver registers itself here, and the
//! registry proves (or disproves) deadlock from global state — every
//! live rank blocked with no matching message queued anywhere means no
//! progress is possible, ever. The proof replaces `recv_timeout`, whose
//! wall-clock patience is meaningless under virtual time (a loaded host
//! would turn a slow run into a spurious "deadlock", an idle one would
//! sleep 30 s on a real deadlock).
//!
//! ## Locking
//!
//! All registry state lives behind one mutex, and the lock is held
//! across the "check mailbox, then wait" sequence, so the classic lost
//! wakeup cannot happen: a sender pushes to the mailbox *first*, then
//! takes the registry lock to notify — if the receiver saw an empty
//! queue, the sender's notify is necessarily still ahead of it. Lock
//! order is registry → mailbox everywhere; mailbox pushes never hold
//! the registry lock.

use crate::mailbox::Mailbox;
use crate::message::Tag;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a registered receive should do next.
pub(crate) enum BlockOutcome {
    /// A matching message is queued (popped by the caller's retry).
    Ready,
    /// The run is poisoned; abandon the receive.
    Poisoned,
    /// Deadlock proven: every live rank blocked, no message queued.
    /// Carries the ascending blocked rank set.
    Deadlocked(Vec<usize>),
}

struct RegState {
    /// Ranks that have not completed their program yet.
    live: usize,
    /// Blocked ranks and the `(src, tag)` each one is waiting on.
    blocked: HashMap<usize, (usize, Tag)>,
    /// Set once, by whichever rank (or completion) proves the deadlock.
    deadlocked: Option<Vec<usize>>,
    /// Mirrors the machine's poison flag so waiters parked on the
    /// registry condvar observe failures without a mailbox wakeup.
    poisoned: bool,
}

/// Process-global-free, per-run registry of blocked ranks. One instance
/// per `Machine::run` under the Events backend.
pub(crate) struct EventRegistry {
    state: Mutex<RegState>,
    cv: Condvar,
}

fn lock_state(m: &Mutex<RegState>) -> MutexGuard<'_, RegState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl EventRegistry {
    pub(crate) fn new(p: usize) -> EventRegistry {
        EventRegistry {
            state: Mutex::new(RegState {
                live: p,
                blocked: HashMap::new(),
                deadlocked: None,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Deadlock proof, called with the state lock held: every live rank
    /// is blocked and no blocked rank has a matching message queued.
    /// Messages are pushed before their receiver could possibly block on
    /// them (sends are eager), so a probe that finds nothing queued is
    /// conclusive, not a race.
    fn prove_deadlock(st: &mut RegState, mailboxes: &[Mailbox]) -> Option<Vec<usize>> {
        if st.live == 0 || st.blocked.len() < st.live {
            return None;
        }
        if st
            .blocked
            .iter()
            .any(|(&rank, &(src, tag))| mailboxes[rank].has_match(src, tag))
        {
            return None; // someone is about to make progress
        }
        let mut ranks: Vec<usize> = st.blocked.keys().copied().collect();
        ranks.sort_unstable();
        st.deadlocked = Some(ranks.clone());
        Some(ranks)
    }

    /// Park rank `id` until a message under `(src, tag)` is queued in
    /// its mailbox, the run is poisoned, or deadlock is proven. Never
    /// sleeps on a wall clock. The caller re-pops the mailbox on
    /// [`BlockOutcome::Ready`].
    pub(crate) fn block_until_ready(
        &self,
        id: usize,
        src: usize,
        tag: Tag,
        mailboxes: &[Mailbox],
    ) -> BlockOutcome {
        let mut st = lock_state(&self.state);
        loop {
            // Checked under the registry lock: a sender pushes first and
            // only then takes this lock to notify, so an empty queue here
            // means the eventual notify cannot be missed below.
            if mailboxes[id].has_match(src, tag) {
                st.blocked.remove(&id);
                self.cv.notify_all();
                return BlockOutcome::Ready;
            }
            if st.poisoned {
                st.blocked.remove(&id);
                return BlockOutcome::Poisoned;
            }
            if let Some(ranks) = st.deadlocked.clone() {
                st.blocked.remove(&id);
                return BlockOutcome::Deadlocked(ranks);
            }
            st.blocked.insert(id, (src, tag));
            if let Some(ranks) = Self::prove_deadlock(&mut st, mailboxes) {
                st.blocked.remove(&id);
                self.cv.notify_all();
                return BlockOutcome::Deadlocked(ranks);
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A sender queued a message: wake parked receivers to re-check
    /// their mailboxes. Taking the lock orders this after any in-flight
    /// check (see [`EventRegistry::block_until_ready`]).
    pub(crate) fn notify_send(&self) {
        let _st = lock_state(&self.state);
        self.cv.notify_all();
    }

    /// Rank `id` finished its program. With one fewer live rank the
    /// remaining blocked set may now be total, so re-run the proof.
    pub(crate) fn rank_done(&self, mailboxes: &[Mailbox]) {
        let mut st = lock_state(&self.state);
        st.live = st.live.saturating_sub(1);
        if Self::prove_deadlock(&mut st, mailboxes).is_some() {
            self.cv.notify_all();
        }
    }

    /// Mirror the machine poison flag and wake every parked receiver.
    pub(crate) fn poison(&self) {
        let mut st = lock_state(&self.state);
        st.poisoned = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use std::sync::Arc;

    fn boxes(p: usize) -> Vec<Mailbox> {
        (0..p).map(|_| Mailbox::new()).collect()
    }

    fn env(src: usize, tag: u64) -> Envelope {
        Envelope {
            src,
            tag: Tag(tag),
            departure: crate::meter::Departure {
                n_chunks: 1,
                depart_time: 0.0,
            },
            payload: Arc::new(vec![1.0]),
        }
    }

    #[test]
    fn ready_when_message_already_queued() {
        let reg = EventRegistry::new(2);
        let mb = boxes(2);
        mb[0].push(env(1, 3));
        assert!(matches!(
            reg.block_until_ready(0, 1, Tag(3), &mb),
            BlockOutcome::Ready
        ));
    }

    #[test]
    fn single_rank_self_deadlock_is_proven_immediately() {
        let reg = EventRegistry::new(1);
        let mb = boxes(1);
        match reg.block_until_ready(0, 0, Tag(0), &mb) {
            BlockOutcome::Deadlocked(ranks) => assert_eq!(ranks, vec![0]),
            _ => panic!("expected a deadlock proof"),
        }
    }

    #[test]
    fn completion_of_last_runnable_rank_proves_deadlock() {
        let reg = Arc::new(EventRegistry::new(2));
        let mb = Arc::new(boxes(2));
        let waiter = {
            let reg = Arc::clone(&reg);
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || reg.block_until_ready(0, 1, Tag(0), &mb))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Rank 1 finishes without ever sending: rank 0 can never proceed.
        reg.rank_done(&mb);
        match waiter.join().unwrap() {
            BlockOutcome::Deadlocked(ranks) => assert_eq!(ranks, vec![0]),
            _ => panic!("expected a deadlock proof"),
        }
    }

    #[test]
    fn cross_thread_send_wakes_blocked_rank() {
        let reg = Arc::new(EventRegistry::new(2));
        let mb = Arc::new(boxes(2));
        let waiter = {
            let reg = Arc::clone(&reg);
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || reg.block_until_ready(1, 0, Tag(9), &mb))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb[1].push(env(0, 9));
        reg.notify_send();
        assert!(matches!(waiter.join().unwrap(), BlockOutcome::Ready));
    }

    #[test]
    fn poison_unparks_blocked_rank() {
        let reg = Arc::new(EventRegistry::new(2));
        let mb = Arc::new(boxes(2));
        let waiter = {
            let reg = Arc::clone(&reg);
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || reg.block_until_ready(1, 0, Tag(0), &mb))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        reg.poison();
        assert!(matches!(waiter.join().unwrap(), BlockOutcome::Poisoned));
    }

    #[test]
    fn blocked_rank_with_pending_message_defeats_the_proof() {
        // Rank 0 blocks on a tag that IS queued for rank 1's benefit:
        // wrong key, so rank 0 stays blocked; rank 1 blocks on the queued
        // key — the probe must see rank 1's match and refuse the proof,
        // then rank 1 drains it and completes.
        let reg = Arc::new(EventRegistry::new(2));
        let mb = Arc::new(boxes(2));
        mb[1].push(env(0, 5));
        let blocked_forever = {
            let reg = Arc::clone(&reg);
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || reg.block_until_ready(0, 1, Tag(7), &mb))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(
            reg.block_until_ready(1, 0, Tag(5), &mb),
            BlockOutcome::Ready
        ));
        mb[1].try_recv(0, Tag(5)).expect("queued message");
        reg.rank_done(&mb); // rank 1 completes -> now rank 0 is truly stuck
        match blocked_forever.join().unwrap() {
            BlockOutcome::Deadlocked(ranks) => assert_eq!(ranks, vec![0]),
            other => panic!(
                "expected deadlock after peer completion, got {}",
                match other {
                    BlockOutcome::Ready => "ready",
                    BlockOutcome::Poisoned => "poisoned",
                    BlockOutcome::Deadlocked(_) => unreachable!(),
                }
            ),
        }
    }
}
