//! Frame-decode fuzzing: arbitrary bytes, bit flips, truncations and
//! hostile length prefixes must produce clean errors — never a panic,
//! never an allocation sized from attacker-controlled headers.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;

use repl_net::{
    decode_framed, encode_framed, ClientMsg, ClientReply, ExecError, Hello, HelloAck, HistoryTxn,
    NetError, Payload, Subtxn, SubtxnKind, WireMsg, MAX_BATCH_PAYLOADS, MAX_FRAME_LEN,
};
use repl_protocol::timestamp::Timestamp;
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Initial),
        (i64::MIN..i64::MAX).prop_map(Value::Int),
        prop::collection::vec(0u8..=u8::MAX, 0..32).prop_map(Value::Bytes),
    ]
    .boxed()
}

fn arb_gid() -> BoxedStrategy<GlobalTxnId> {
    (0u32..8, 0u64..u64::MAX).prop_map(|(s, q)| GlobalTxnId::new(SiteId(s), q)).boxed()
}

fn arb_string() -> BoxedStrategy<String> {
    prop::collection::vec(32u8..127, 0..24)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
        .boxed()
}

fn arb_timestamp() -> BoxedStrategy<Timestamp> {
    (0u64..u64::MAX, prop::collection::vec((0u32..8, 0u64..u64::MAX), 0..4))
        .prop_map(|(epoch, tuples)| Timestamp {
            epoch,
            tuples: tuples.into_iter().map(|(s, l)| (SiteId(s), l)).collect(),
        })
        .boxed()
}

fn arb_subtxn() -> BoxedStrategy<Subtxn> {
    (
        arb_gid(),
        0u32..8,
        prop_oneof![Just(SubtxnKind::Normal), Just(SubtxnKind::Dummy), Just(SubtxnKind::Special)],
        prop_oneof![Just(None), arb_timestamp().prop_map(Some),],
        prop::collection::vec((0u32..16, arb_value()), 0..4),
        prop::collection::vec(0u32..8, 0..4),
    )
        .prop_map(|(gid, origin, kind, ts, writes, dests)| Subtxn {
            gid,
            origin: SiteId(origin),
            kind,
            ts,
            writes: writes.into_iter().map(|(i, v)| (ItemId(i), v)).collect(),
            dest_sites: dests.into_iter().map(SiteId).collect(),
        })
        .boxed()
}

/// A history transaction whose every field ranges over every varint
/// width: ids up to `u32::MAX`, sequence numbers up to `u64::MAX`.
fn arb_history_txn() -> BoxedStrategy<HistoryTxn> {
    let gid = || {
        (0u32..=u32::MAX, 0u64..=u64::MAX, 0u32..32, 0u32..64)
            .prop_map(|(s, q, a, b)| GlobalTxnId::new(SiteId(s >> a), q >> b))
    };
    let item = || (0u32..=u32::MAX, 0u32..32).prop_map(|(i, shift)| ItemId(i >> shift));
    let version = prop_oneof![Just(None), gid().prop_map(Some)];
    (gid(), prop::collection::vec((item(), version), 0..8), prop::collection::vec(item(), 0..5))
        .boxed()
}

/// A `Stats` reply: counters, link marks and a census of any length.
fn arb_stats() -> BoxedStrategy<WireMsg> {
    (
        (i64::MIN..i64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (0u32..8, 0u32..8, 0u32..8),
        prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..4),
        prop::collection::vec(0u64..u64::MAX, 0..16),
    )
        .prop_map(
            |((outstanding, committed, decode_errors), (up, suspect, down), links, census)| {
                WireMsg::Reply(ClientReply::Stats {
                    outstanding,
                    committed,
                    decode_errors,
                    peers_up: up,
                    peers_suspect: suspect,
                    peers_down: down,
                    links,
                    census,
                })
            },
        )
        .boxed()
}

fn arb_msg() -> BoxedStrategy<WireMsg> {
    prop_oneof![
        arb_stats(),
        (0u32..8, 0u16..8, 0u16..8, 0u64..u64::MAX).prop_map(|(s, lo, hi, c)| {
            WireMsg::Hello(Hello { site: SiteId(s), version_min: lo, version_max: hi, cluster: c })
        }),
        (0u16..8, 0u32..8, 0u64..u64::MAX).prop_map(|(v, s, q)| {
            WireMsg::HelloAck(HelloAck { version: v, site: SiteId(s), resume_seq: q })
        }),
        arb_string().prop_map(WireMsg::Reject),
        (0u64..u64::MAX, arb_subtxn())
            .prop_map(|(seq, sub)| WireMsg::Link { seq, payload: Payload::Subtxn(sub) }),
        (0u64..u64::MAX, arb_gid(), prop::bool::ANY).prop_map(|(seq, gid, commit)| {
            WireMsg::Link { seq, payload: Payload::Decision { gid, commit } }
        }),
        (0u64..u64::MAX).prop_map(|seq| WireMsg::Ack { seq }),
        (0u64..u64::MAX, prop::collection::vec(arb_subtxn(), 1..5)).prop_map(
            |(first_seq, subs)| WireMsg::Batch {
                first_seq,
                payloads: subs.into_iter().map(Payload::Subtxn).collect(),
            }
        ),
        prop::collection::vec((0u32..16, i64::MIN..i64::MAX), 0..4).prop_map(|ws| {
            WireMsg::Client(ClientMsg::Execute(
                ws.into_iter().map(|(i, v)| Op::write(ItemId(i), v)).collect(),
            ))
        }),
        Just(WireMsg::Client(ClientMsg::Stats)),
        (0u32..16).prop_map(|i| WireMsg::Client(ClientMsg::Peek(ItemId(i)))),
        (0u64..=u64::MAX).prop_map(|from| WireMsg::Client(ClientMsg::History { from })),
        prop::collection::vec(arb_history_txn(), 0..4)
            .prop_map(|txns| WireMsg::Reply(ClientReply::History(txns))),
        arb_gid().prop_map(|g| WireMsg::Reply(ClientReply::Executed(Ok(g)))),
        arb_string().prop_map(|m| WireMsg::Reply(ClientReply::Executed(Err(ExecError::Other(m))))),
        arb_gid()
            .prop_map(|g| WireMsg::Reply(ClientReply::Executed(Err(ExecError::EagerTimeout(g))))),
    ]
    .boxed()
}

proptest! {
    /// Arbitrary bytes never panic the decoder, and anything that does
    /// decode re-encodes to an equal message.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=u8::MAX, 0..256),
    ) {
        if let Ok(msg) = WireMsg::decode(Bytes::from(bytes)) {
            let again = WireMsg::decode(msg.encode()).unwrap();
            prop_assert_eq!(again, msg);
        }
    }

    /// Well-formed messages survive an encode/decode round trip.
    #[test]
    fn roundtrip_arbitrary(msg in arb_msg()) {
        let decoded = WireMsg::decode(msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Flipping any single bit of a valid body either still decodes (to
    /// possibly different content) or fails cleanly — never panics.
    #[test]
    fn decode_survives_bit_flips(
        msg in arb_msg(),
        flip in (0usize..usize::MAX, 0u8..8),
    ) {
        let mut raw = msg.encode().to_vec();
        let idx = flip.0 % raw.len();
        raw[idx] ^= 1 << flip.1;
        let _ = WireMsg::decode(Bytes::from(raw));
    }

    /// Every strict prefix of a valid body fails cleanly.
    #[test]
    fn decode_rejects_arbitrary_truncations(
        msg in arb_msg(),
        cut_seed in 0usize..usize::MAX,
    ) {
        let raw = msg.encode();
        let cut = cut_seed % raw.len();
        prop_assert!(WireMsg::decode(raw.slice(0..cut)).is_err());
    }

    /// A `Stats` reply's census count is the sender's claim: one that
    /// overruns the bytes left, by any amount, is refused as truncated
    /// before anything is sized from it.
    #[test]
    fn stats_census_counts_are_distrusted(msg in arb_stats(), over in 1u32..=u32::MAX) {
        let WireMsg::Reply(ClientReply::Stats { census, .. }) = &msg else { unreachable!() };
        let mut raw = msg.encode().to_vec();
        let at = raw.len() - 8 * census.len() - 4;
        let claim = (census.len() as u32).saturating_add(over);
        raw[at..at + 4].copy_from_slice(&claim.to_be_bytes());
        prop_assert_eq!(WireMsg::decode(Bytes::from(raw)), Err(NetError::Truncated));
    }

    /// Stream framing: arbitrary bytes fed through the incremental frame
    /// decoder never panic and never over-allocate.
    #[test]
    fn frame_decoder_never_panics(
        bytes in prop::collection::vec(0u8..=u8::MAX, 0..512),
    ) {
        let mut buf = BytesMut::from(&bytes[..]);
        while let Ok(Some(_)) = decode_framed(&mut buf) {}
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    // A 4 GiB claimed frame with only a few real bytes behind it: the
    // frame layer must refuse before sizing any buffer from the header.
    let mut buf = BytesMut::new();
    buf.put_u32(u32::MAX);
    buf.put_slice(&[1, 2, 3]);
    assert!(decode_framed(&mut buf).is_err());

    let mut over = BytesMut::new();
    over.put_u32(MAX_FRAME_LEN + 1);
    assert!(decode_framed(&mut over).is_err());

    // Exactly at the cap with an incomplete body: wait for more bytes.
    let mut at_cap = BytesMut::new();
    at_cap.put_u32(MAX_FRAME_LEN);
    at_cap.put_slice(&[0; 64]);
    assert!(matches!(decode_framed(&mut at_cap), Ok(None)));
}

#[test]
fn inner_count_headers_are_distrusted() {
    // A Link/Subtxn body claiming 2^32-1 writes with no bytes behind the
    // claim must fail with Truncated, not attempt the allocation.
    let mut buf = BytesMut::new();
    buf.put_u8(4); // Link
    buf.put_u64(1); // seq
    buf.put_u8(1); // Payload::Subtxn
    buf.put_u32(0); // gid.origin
    buf.put_u64(0); // gid.seq
    buf.put_u32(0); // origin
    buf.put_u8(0); // kind Normal
    buf.put_u8(0); // ts None
    buf.put_u32(u32::MAX); // writes count — hostile
    assert!(WireMsg::decode(buf.freeze()).is_err());
}

#[test]
fn history_counts_and_varints_are_distrusted() {
    // A History reply claiming `txns` transactions, followed by `body`.
    let decode = |txns: u32, body: &[u8]| {
        let mut buf = BytesMut::new();
        buf.put_u8(7); // Reply
        buf.put_u8(8); // History
        buf.put_u32(txns);
        buf.put_slice(body);
        WireMsg::decode(buf.freeze())
    };
    // The smallest transaction: gid (0, 0), no reads, no writes.
    assert!(decode(1, &[0, 0, 0, 0]).is_ok());
    // More transactions claimed than the bytes could hold, and 2^63
    // reads claimed with none present: Truncated, not an allocation
    // sized from the claim.
    assert_eq!(decode(u32::MAX, &[0, 0, 0, 0]), Err(NetError::Truncated));
    let claim = [&[0, 0][..], &[0xFF; 8], &[0x7F]].concat();
    assert_eq!(decode(1, &claim), Err(NetError::Truncated));
    // A sequence number padded to two bytes, and eleven continuation
    // bytes where one belongs: no such varint, whatever follows.
    assert_eq!(decode(1, &[0, 0x80, 0x00, 0, 0]), Err(NetError::Overlong));
    let endless = [&[0][..], &[0xFF; 11], &[0, 0]].concat();
    assert_eq!(decode(1, &endless), Err(NetError::Overlong));
    // An item id, and a writer's origin (stored + 1), past u32.
    let item = [&[0, 0, 0, 1][..], &[0x80, 0x80, 0x80, 0x80, 0x10]].concat();
    assert_eq!(decode(1, &item), Err(NetError::Overlong));
    let origin = [&[0, 0, 1, 7][..], &[0x81, 0x80, 0x80, 0x80, 0x10], &[0, 0]].concat();
    assert_eq!(decode(1, &origin), Err(NetError::Overlong));
}

#[test]
fn hostile_batch_counts_are_rejected_not_split() {
    // A Batch claiming more payloads than the cap must be refused as
    // Oversized before any payload parses — never silently truncated or
    // split, which would desynchronize the two ends' sequence counters.
    let mut buf = BytesMut::new();
    buf.put_u8(8); // Batch
    buf.put_u64(9); // first_seq
    buf.put_u32((MAX_BATCH_PAYLOADS as u32) + 1); // hostile count
    for _ in 0..8 {
        buf.put_u8(2); // a few plausible decision payload bytes
    }
    assert!(matches!(WireMsg::decode(buf.freeze()), Err(NetError::Oversized(_))));

    // A truncated but in-cap count fails as Truncated, still no panic.
    let mut buf = BytesMut::new();
    buf.put_u8(8);
    buf.put_u64(9);
    buf.put_u32(3);
    assert!(WireMsg::decode(buf.freeze()).is_err());
}

#[test]
fn framed_messages_obey_the_cap() {
    let msg = WireMsg::Reply(ClientReply::State(Bytes::from(vec![7u8; 1024])));
    let framed = encode_framed(&msg);
    assert!(framed.len() as u64 <= 4 + u64::from(MAX_FRAME_LEN));
    let mut buf = BytesMut::from(&framed[..]);
    assert_eq!(decode_framed(&mut buf).unwrap(), Some(msg));
}
