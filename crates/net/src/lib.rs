//! The wire protocol of the networked runtime.
//!
//! The paper's prototype ran one DataBlitz-backed site per machine with
//! TCP sockets carrying propagation traffic (§5.1); this crate is the
//! corresponding wire layer for the `repl-runtime` deployment: a
//! versioned, length-prefixed binary framing for every inter-site
//! message — propagation records, acknowledgements, commit decisions,
//! and the epoch/rejoin connection handshake — plus the client protocol
//! spoken by the `repld` control connection.
//!
//! Design rules, shared with the WAL image format in `repl-storage`:
//!
//! * **Total decoding.** Any byte sequence decodes to `Ok` or a clean
//!   [`NetError`]; no panic, no unbounded allocation. Length headers are
//!   distrusted: claimed counts are clamped against the bytes actually
//!   present before any `Vec::with_capacity`.
//! * **Explicit layout.** Every field is written with fixed-width
//!   big-endian integers through `bytes`; values and transaction ids
//!   reuse the `repl_storage::codec` helpers so a propagation record
//!   and a WAL record agree byte-for-byte on their common fields.
//! * **Version negotiation.** Connections open with a
//!   [`Hello`]/[`HelloAck`] exchange carrying a protocol version range
//!   and a cluster fingerprint; see [`conn`] and DESIGN.md §9.
//!
//! Frame layout (see [`frame`]): a `u32` length prefix (at most
//! [`frame::MAX_FRAME_LEN`]), then a one-byte message tag, then the
//! message body.

#![warn(missing_docs)]
// A long-running site must survive bad input: outside tests a panicking
// call is a compile error here, and each deliberate one carries an
// `#[expect]` with its reason.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod conn;
pub mod frame;
pub mod history;
pub mod msg;

pub use conn::{client_handshake, negotiate, HandshakeError, MAGIC, VERSION_MAX, VERSION_MIN};
pub use frame::{
    decode_framed, encode_framed, frame_link_into, frame_state_page_into, read_msg, write_msg,
    FrameReader, ReadError, MAX_FRAME_LEN, PAGE_BYTES,
};
pub use history::HistoryLog;
pub use msg::{
    cells_in, cluster_fingerprint, decode_cells, encode_cells, encode_cells_into, CellsIn,
    ClientMsg, ClientReply, ExecError, Hello, HelloAck, HistoryTxn, NetError, Payload, Subtxn,
    SubtxnKind, WireMsg, MAX_BATCH_PAYLOADS,
};
