//! The propagation record vocabulary shared by every deployment.
//!
//! These types used to live in `repl-net` (which still re-exports them
//! and owns their binary encoding); they moved here because they are the
//! *protocol's* vocabulary: every [`crate::Command::Send`] carries a
//! [`Payload`], whether the driver ships it in a TCP frame or over a
//! simulated link with a delay distribution.

use alloc::vec::Vec;

use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

use crate::timestamp::Timestamp;

/// What a propagation record is, protocol-wise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubtxnKind {
    /// An ordinary secondary subtransaction.
    Normal,
    /// A DAG(T) dummy: timestamp only, no writes (§3.3).
    Dummy,
    /// A BackEdge special riding the eager phase (§4.1).
    Special,
}

/// A secondary subtransaction as shipped between sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Subtxn {
    /// Global id of the originating transaction.
    pub gid: GlobalTxnId,
    /// Site where the transaction committed (or is committing, for
    /// BackEdge specials).
    pub origin: SiteId,
    /// Record kind.
    pub kind: SubtxnKind,
    /// DAG(T) timestamp; `None` for protocols that do not stamp.
    pub ts: Option<Timestamp>,
    /// The writes to install.
    pub writes: Vec<(ItemId, Value)>,
    /// Replica sites still to be reached (tree routing).
    pub dest_sites: Vec<SiteId>,
}

/// The reliable-link payload: everything that flows through sender-side
/// outboxes with sequence numbers, retransmission and dedup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A propagation record.
    Subtxn(Subtxn),
    /// A BackEdge commit/abort decision for a prepared special (§4.1).
    Decision {
        /// The transaction the decision is about.
        gid: GlobalTxnId,
        /// True to commit the prepared writes, false to discard them.
        commit: bool,
    },
}

impl Payload {
    /// The transaction this payload is about.
    pub fn gid(&self) -> GlobalTxnId {
        match self {
            Payload::Subtxn(sub) => sub.gid,
            Payload::Decision { gid, .. } => *gid,
        }
    }
}
