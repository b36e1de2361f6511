//! Reliable inter-site links: the transport-independent half.
//!
//! A wire loses what it holds when a connection or a site dies. This
//! module holds the state of the classic reliable-FIFO-link
//! construction the paper assumes of its network (§2 "messages sent
//! from one site to another are received in the same order"):
//!
//! * Every directed site pair has a [`LinkState`]: a monotone sequence
//!   counter and an **outbox** of unacknowledged payloads. The outbox
//!   lives in a [`Links`] table outside the sending reactor, so it
//!   survives the *sender* crashing too — it models the durable commit
//!   record from which a recovering site can always re-derive its
//!   propagation obligations.
//! * The receiver drops anything ahead of its durable per-link
//!   high-water mark (a gap: the missing message is still in the outbox
//!   and will arrive in order) and re-acks anything at or below it (a
//!   duplicate), so delivery is exactly-once and per-link FIFO even
//!   across crash/retransmit and reconnect/replay races.
//! * Acknowledgement is receiver-driven: after durably applying
//!   sequence `s`, the receiver acks it, which prunes the outbox prefix
//!   `<= s` at the sender.
//!
//! Only the "one nonblocking attempt to put bytes on the wire" step is
//! the wire's ([`crate::transport::Transport`]); the sequencing,
//! outboxing, acking and replay logic exists exactly once, here and in
//! [`crate::transport::Net`].

use std::collections::VecDeque;

use parking_lot::Mutex;

use repl_net::Payload;
use repl_types::SiteId;

/// Sender-side state of one directed link.
#[derive(Default)]
pub(crate) struct LinkState {
    /// Next sequence number to assign (first message is 1).
    pub(crate) next_seq: u64,
    /// Sent but not yet durably applied at the destination, in sequence
    /// order.
    pub(crate) unacked: VecDeque<(u64, Payload)>,
}

/// One site's outgoing links, indexed by destination.
pub(crate) struct Links {
    lanes: Vec<Mutex<LinkState>>,
}

impl Links {
    pub fn new(sites: usize) -> Self {
        Links { lanes: (0..sites).map(|_| Mutex::new(LinkState::default())).collect() }
    }

    /// Number of sites the table is dimensioned for.
    pub fn num_sites(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn lane(&self, to: SiteId) -> &Mutex<LinkState> {
        &self.lanes[to.index()]
    }

    /// Acknowledge everything up to `seq` on the link to `to`, pruning
    /// the outbox prefix. Idempotent.
    pub fn prune(&self, to: SiteId, seq: u64) {
        let mut lane = self.lane(to).lock();
        while lane.unacked.front().is_some_and(|(s, _)| *s <= seq) {
            lane.unacked.pop_front();
        }
    }

    /// Messages awaiting acknowledgement on the link to `to`.
    pub fn lane_len(&self, to: SiteId) -> usize {
        self.lane(to).lock().unacked.len()
    }

    /// Sequence number of the oldest unacknowledged message on the link
    /// to `to`, `None` when fully acked.
    pub fn front_seq(&self, to: SiteId) -> Option<u64> {
        self.lane(to).lock().unacked.front().map(|(s, _)| *s)
    }

    /// Messages on the link to `to` past the destination's durable
    /// applied mark: unlike [`Links::lane_len`], not waiting for acks.
    pub fn unapplied(&self, to: SiteId, applied: u64) -> usize {
        self.lane(to).lock().unacked.iter().filter(|(seq, _)| *seq > applied).count()
    }
}
