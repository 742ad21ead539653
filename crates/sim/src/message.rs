//! Message envelope, tag types, and the shared-payload wire format.

use crate::meter::Departure;
use std::sync::Arc;

/// A user-level message tag. Point-to-point receives match on
/// `(source, tag)`; collectives consume a contiguous tag window starting
/// at the caller-supplied base tag (see [`crate::collectives`]), so give
/// concurrent communication phases tags at least
/// [`crate::collectives::TAG_WINDOW`] apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl Tag {
    /// A derived tag, `self + offset` (used by collectives for their
    /// internal rounds).
    pub fn offset(self, off: u64) -> Tag {
        Tag(self.0 + off)
    }
}

/// A reference-counted transfer payload.
///
/// The transport never copies payload words: `Rank::send` wraps its
/// `Vec` once, forwarding ranks clone the `Arc` (one atomic increment),
/// and a unique receiver unwraps the `Vec` back out. `Arc<Vec<f64>>`
/// rather than `Arc<[f64]>` because both conversions at the API
/// boundary (`Vec → Arc` on send, `Arc → Vec` on a sole-owner receive)
/// are then free, whereas a slice Arc would memcpy on each. Fault
/// injection that corrupts a payload goes through [`Arc::make_mut`], so
/// a shared buffer is copied only when a corruption actually fires
/// (copy-on-write).
pub type SharedPayload = Arc<Vec<f64>>;

/// One wire message: a whole user-level transfer.
///
/// The paper's `⌈k/m⌉` message split (Eq. 1, `S = W/m`) is *priced*
/// arithmetically at the sender — the per-chunk `αt + βt·k` clock
/// advances and counter increments are identical to physically splitting
/// the payload — but only one envelope carrying the whole transfer
/// crosses the queue. The [`Departure`]'s `n_chunks` records how many
/// virtual messages the transfer was priced as, so the receiver's
/// `msgs_recvd` counter and the recorded trace stay bit-identical to the
/// chunked wire format.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// User tag of the transfer.
    pub tag: Tag,
    /// Chunk count and departure time, from the sender's `Meter::send`.
    pub departure: Departure,
    /// The whole transfer's payload, shared, not copied.
    pub payload: SharedPayload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_offset() {
        assert_eq!(Tag(10).offset(5), Tag(15));
    }

    #[test]
    fn tags_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Tag(1));
        s.insert(Tag(1));
        s.insert(Tag(2));
        assert_eq!(s.len(), 2);
        assert!(Tag(1) < Tag(2));
    }

    #[test]
    fn shared_payload_is_cheap_to_clone() {
        let p: SharedPayload = Arc::new(vec![1.0; 1024]);
        let q = Arc::clone(&p);
        assert_eq!(p.as_ptr(), q.as_ptr(), "clone shares the allocation");
    }
}
