//! Connection handshake and protocol-version negotiation.
//!
//! Every peer connection opens with the dialer sending a [`Hello`]
//! (magic, version range, site id, cluster fingerprint) and the accepter
//! replying with a [`HelloAck`] (chosen version, its site id, and the
//! rejoin `resume_seq`) or a `Reject`. Only after a successful exchange
//! do `Link`/`Ack` frames flow.

use std::io::{Read, Write};

use crate::frame::{read_msg, write_msg, ReadError};
use crate::msg::{Hello, HelloAck, WireMsg};

/// Protocol magic carried in every [`Hello`]: `"RPLN"`.
pub const MAGIC: u32 = 0x5250_4C4E;

/// Lowest wire-protocol version this build speaks.
pub const VERSION_MIN: u16 = 1;

/// Highest wire-protocol version this build speaks. A build that also
/// speaks 2 (the version under which a link may carry
/// [`WireMsg::Batch`] frames) negotiates 1 with this one and so sends it
/// one `Link` frame per payload; this build never sends a `Batch` and
/// closes a peer link that carries one. Negotiated on peer links only:
/// a client session opens with no [`Hello`] and is unversioned — client
/// and site come from one build (DESIGN.md §9.2).
///
/// [`WireMsg::Batch`]: crate::msg::WireMsg::Batch
pub const VERSION_MAX: u16 = 1;

/// Why a handshake failed.
#[derive(Debug)]
pub enum HandshakeError {
    /// Transport-level failure while exchanging handshake frames.
    Read(ReadError),
    /// The peer refused the connection, with its stated reason.
    Rejected(String),
    /// The peer answered with something other than a handshake frame.
    Unexpected,
    /// The peer acknowledged a version outside our supported range.
    BadVersion(u16),
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Read(e) => write!(f, "handshake i/o failed: {e}"),
            HandshakeError::Rejected(r) => write!(f, "peer rejected handshake: {r}"),
            HandshakeError::Unexpected => write!(f, "unexpected frame during handshake"),
            HandshakeError::BadVersion(v) => write!(f, "peer chose unsupported version {v}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<ReadError> for HandshakeError {
    fn from(e: ReadError) -> Self {
        HandshakeError::Read(e)
    }
}

/// Pick the protocol version for a connection from the two sides'
/// supported ranges: the highest version both speak, or `None` when the
/// ranges are disjoint (the accepter then sends `Reject`).
pub fn negotiate(ours: (u16, u16), theirs: (u16, u16)) -> Option<u16> {
    let lo = ours.0.max(theirs.0);
    let hi = ours.1.min(theirs.1);
    (lo <= hi).then_some(hi)
}

/// Run the dialer side of the handshake: send `hello`, await the reply,
/// and validate the negotiated version against our own range.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    hello: &Hello,
) -> Result<HelloAck, HandshakeError> {
    write_msg(stream, &WireMsg::Hello(hello.clone())).map_err(ReadError::Io)?;
    match read_msg(stream)? {
        WireMsg::HelloAck(ack) => {
            if ack.version < hello.version_min || ack.version > hello.version_max {
                return Err(HandshakeError::BadVersion(ack.version));
            }
            Ok(ack)
        }
        WireMsg::Reject(reason) => Err(HandshakeError::Rejected(reason)),
        _ => Err(HandshakeError::Unexpected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::SiteId;

    #[test]
    fn negotiation_picks_highest_common() {
        assert_eq!(negotiate((1, 3), (2, 5)), Some(3));
        assert_eq!(negotiate((2, 5), (1, 3)), Some(3));
        assert_eq!(negotiate((1, 1), (1, 1)), Some(1));
        assert_eq!(negotiate((1, 2), (3, 4)), None);
        assert_eq!(negotiate((3, 4), (1, 2)), None);
    }

    /// An in-memory duplex "stream": reads from one buffer, writes to
    /// another.
    struct Duplex<'a> {
        rx: &'a [u8],
        tx: Vec<u8>,
    }

    impl Read for Duplex<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for Duplex<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn hello() -> Hello {
        Hello { site: SiteId(1), version_min: VERSION_MIN, version_max: VERSION_MAX, cluster: 7 }
    }

    #[test]
    fn dialer_accepts_good_ack() {
        let ack = WireMsg::HelloAck(HelloAck { version: 1, site: SiteId(0), resume_seq: 5 });
        let mut wire = Vec::new();
        write_msg(&mut wire, &ack).unwrap();
        let mut stream = Duplex { rx: &wire, tx: Vec::new() };
        let got = client_handshake(&mut stream, &hello()).unwrap();
        assert_eq!(got.resume_seq, 5);
        // The dialer's Hello actually went out first.
        let mut sent = &stream.tx[..];
        assert!(matches!(read_msg(&mut sent).unwrap(), WireMsg::Hello(_)));
    }

    #[test]
    fn dialer_rejects_bad_version_and_reject() {
        let bad = WireMsg::HelloAck(HelloAck { version: 99, site: SiteId(0), resume_seq: 0 });
        let mut wire = Vec::new();
        write_msg(&mut wire, &bad).unwrap();
        let mut stream = Duplex { rx: &wire, tx: Vec::new() };
        assert!(matches!(
            client_handshake(&mut stream, &hello()),
            Err(HandshakeError::BadVersion(99))
        ));

        let rej = WireMsg::Reject("wrong cluster".into());
        let mut wire = Vec::new();
        write_msg(&mut wire, &rej).unwrap();
        let mut stream = Duplex { rx: &wire, tx: Vec::new() };
        assert!(matches!(
            client_handshake(&mut stream, &hello()),
            Err(HandshakeError::Rejected(_))
        ));
    }
}
