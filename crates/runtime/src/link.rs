//! Reliable inter-site links: the transport-independent half.
//!
//! The original runtime sent subtransactions fail-fast into crossbeam
//! channels; a crashed receiver dropped its queue and every message in
//! it silently vanished, wedging quiescence and diverging replicas.
//! This module holds the state of the classic reliable-FIFO-link
//! construction the paper assumes of its network (§2 "messages sent
//! from one site to another are received in the same order"):
//!
//! * Every directed site pair has a [`LinkState`]: a monotone sequence
//!   counter and an **outbox** of unacknowledged payloads. The outbox
//!   lives in the [`Links`] table owned by the deployment, not the
//!   sending thread, so it survives the *sender* crashing too — it
//!   models the durable commit record from which a recovering site can
//!   always re-derive its propagation obligations.
//! * The receiver drops anything ahead of its durable per-link
//!   high-water mark (a gap: the missing message is still in the outbox
//!   and will arrive in order) and re-acks anything at or below it (a
//!   duplicate), so delivery is exactly-once and per-link FIFO even
//!   across crash/retransmit and reconnect/replay races.
//! * Acknowledgement is receiver-driven: after durably applying
//!   sequence `s`, the receiver acks it, which prunes the outbox prefix
//!   `<= s` at the sender.
//!
//! Everything here is shared verbatim by both transports — in-process
//! channels and the epoll reactor's TCP ([`crate::transport`],
//! [`crate::reactor`]). Only the "one nonblocking
//! attempt to put bytes on the wire" step differs; that is the
//! [`crate::transport::Transport`] trait, and the sequencing,
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

/// The deployment-wide table of directed links. Under channels the
/// whole cluster shares one table; under TCP each process owns a table
/// of which only its own outgoing row is populated.
pub(crate) struct Links {
    /// `lanes[from][to]`.
    lanes: Vec<Vec<Mutex<LinkState>>>,
}

impl Links {
    pub fn new(sites: usize) -> Self {
        Links {
            lanes: (0..sites)
                .map(|_| (0..sites).map(|_| Mutex::new(LinkState::default())).collect())
                .collect(),
        }
    }

    /// Number of sites the table is dimensioned for.
    pub fn num_sites(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn lane(&self, from: SiteId, to: SiteId) -> &Mutex<LinkState> {
        &self.lanes[from.index()][to.index()]
    }

    /// Acknowledge everything up to `seq` on the `from -> to` link,
    /// pruning the outbox prefix. Idempotent.
    pub fn prune(&self, from: SiteId, to: SiteId, seq: u64) {
        let mut lane = self.lane(from, to).lock();
        while lane.unacked.front().is_some_and(|(s, _)| *s <= seq) {
            lane.unacked.pop_front();
        }
    }

    /// Messages awaiting acknowledgement on the `from -> to` lane.
    pub fn lane_len(&self, from: SiteId, to: SiteId) -> usize {
        self.lane(from, to).lock().unacked.len()
    }

    /// Sequence number of the oldest unacknowledged message on the
    /// `from -> to` lane, `None` when fully acked.
    pub fn front_seq(&self, from: SiteId, to: SiteId) -> Option<u64> {
        self.lane(from, to).lock().unacked.front().map(|(s, _)| *s)
    }

    /// Total messages awaiting acknowledgement towards `to` (tests,
    /// observability).
    pub fn queued_for(&self, to: SiteId) -> usize {
        self.lanes.iter().map(|row| row[to.index()].lock().unacked.len()).sum()
    }
}
