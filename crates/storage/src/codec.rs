//! Shared binary codec helpers for values and transaction ids.
//!
//! The WAL image format ([`crate::wal`]) and the network wire format
//! (`repl-net`) serialize the same primitives — [`Value`] payloads and
//! [`GlobalTxnId`]s — and must agree on their byte layout so a WAL
//! record and a propagation record describing the same write are
//! bit-compatible. This module is that single source of truth.
//!
//! Decoding is *total*: any input produces `Ok` or a clean
//! [`CodecError`], never a panic, and length headers are distrusted —
//! a claimed length is checked against the bytes actually remaining
//! before any allocation sized from it.
//!
//! Encoders take any [`BufMut`] and decoders any [`Buf`], so the same
//! functions fill a `BytesMut`, append in place to a `Vec<u8>` (a WAL,
//! a socket write buffer) and walk a borrowed `&[u8]`.

use bytes::{Buf, BufMut};

use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

/// Errors raised while decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended mid-field.
    Truncated,
    /// Unknown discriminant tag.
    BadTag(u8),
    /// A varint that runs past ten bytes, carries bits beyond its
    /// field's width, or pads its value with a trailing zero group.
    Overlong,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Overlong => write!(f, "over-long varint"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode a value: tag byte, then the payload.
/// Tags: `0` Initial, `1` Int (i64), `2` Bytes (u64 length + bytes).
pub fn put_value(buf: &mut impl BufMut, value: &Value) {
    match value {
        Value::Initial => buf.put_u8(0),
        Value::Int(v) => {
            buf.put_u8(1);
            buf.put_i64(*v);
        }
        Value::Bytes(b) => {
            buf.put_u8(2);
            buf.put_u64(b.len() as u64);
            buf.put_slice(b);
        }
    }
}

/// Bytes [`put_value`] writes for `value`.
pub fn value_len(value: &Value) -> usize {
    match value {
        Value::Initial => 1,
        Value::Int(_) => 1 + 8,
        Value::Bytes(b) => 1 + 8 + b.len(),
    }
}

/// Decode a value written by [`put_value`].
pub fn get_value(buf: &mut impl Buf) -> Result<Value, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(Value::Initial),
        1 => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok(Value::Int(buf.get_i64()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            let len = buf.get_u64() as usize;
            if buf.remaining() < len {
                return Err(CodecError::Truncated);
            }
            Ok(Value::Bytes(buf.copy_to_bytes(len).to_vec()))
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode a global transaction id: origin site (u32) + sequence (u64).
pub fn put_gid(buf: &mut impl BufMut, gid: GlobalTxnId) {
    buf.put_u32(gid.origin.0);
    buf.put_u64(gid.seq);
}

/// Decode a global transaction id written by [`put_gid`].
pub fn get_gid(buf: &mut impl Buf) -> Result<GlobalTxnId, CodecError> {
    if buf.remaining() < 12 {
        return Err(CodecError::Truncated);
    }
    let origin = SiteId(buf.get_u32());
    let seq = buf.get_u64();
    Ok(GlobalTxnId::new(origin, seq))
}

/// Decode a `u32` with a truncation check.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32())
}

/// Decode a `u64` with a truncation check.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u64())
}

/// Decode a `u8` with a truncation check.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Encode `v` as an LEB128 varint: seven bits to a byte, least
/// significant group first, the high bit set on every byte but the last
/// — one byte below 2⁷, two below 2¹⁴, ten at the top of `u64`.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Bytes [`put_varint`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Decode a varint written by [`put_varint`]. Only that one encoding of
/// a value is accepted: a padded one (a trailing zero group) or one that
/// does not fit 64 bits is [`CodecError::Overlong`], so equal values
/// always have equal bytes.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = get_u8(buf)?;
        let group = u64::from(byte & 0x7F);
        // The tenth byte has room for bit 63 alone.
        if group << shift >> shift != group || (byte == 0 && shift > 0) {
            return Err(CodecError::Overlong);
        }
        v |= group << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::Overlong)
}

/// Decode a varint into a 32-bit field (an item or site id); a larger
/// value is [`CodecError::Overlong`].
pub fn get_varint_u32(buf: &mut impl Buf) -> Result<u32, CodecError> {
    u32::try_from(get_varint(buf)?).map_err(|_| CodecError::Overlong)
}

/// Encode a UTF-8 string: u32 length + bytes.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode a string written by [`put_str`]. Invalid UTF-8 is a
/// [`CodecError::BadTag`]-class error (the input is hostile, not short).
pub fn get_str(buf: &mut impl Buf) -> Result<String, CodecError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    String::from_utf8(buf.copy_to_bytes(len).to_vec()).map_err(|_| CodecError::BadTag(0xFF))
}

/// Bytes [`put_cell`] writes for a cell of `value` and `writer`.
pub fn cell_len(value: &Value, writer: Option<GlobalTxnId>) -> usize {
    4 + value_len(value) + 1 + writer.map_or(0, |_| 12)
}

/// Encode one copy-state cell: `(item, value, writer)`.
pub fn put_cell(buf: &mut impl BufMut, item: ItemId, value: &Value, writer: Option<GlobalTxnId>) {
    buf.put_u32(item.0);
    put_value(buf, value);
    match writer {
        None => buf.put_u8(0),
        Some(gid) => {
            buf.put_u8(1);
            put_gid(buf, gid);
        }
    }
}

/// Decode one cell written by [`put_cell`].
pub fn get_cell(buf: &mut impl Buf) -> Result<(ItemId, Value, Option<GlobalTxnId>), CodecError> {
    let item = ItemId(get_u32(buf)?);
    let value = get_value(buf)?;
    let writer = match get_u8(buf)? {
        0 => None,
        1 => Some(get_gid(buf)?),
        t => return Err(CodecError::BadTag(t)),
    };
    Ok((item, value, writer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};

    fn roundtrip_value(v: Value) {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &v);
        assert_eq!(buf.len(), value_len(&v));
        let mut bytes = buf.freeze();
        assert_eq!(get_value(&mut bytes).unwrap(), v);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Initial);
        roundtrip_value(Value::int(i64::MIN));
        roundtrip_value(Value::Bytes(vec![0, 255, 7]));
        roundtrip_value(Value::Bytes(Vec::new()));
    }

    #[test]
    fn gid_and_cell_roundtrip() {
        let gid = GlobalTxnId::new(SiteId(3), 42);
        let mut buf = BytesMut::new();
        put_gid(&mut buf, gid);
        put_cell(&mut buf, ItemId(7), &Value::int(9), Some(gid));
        put_cell(&mut buf, ItemId(8), &Value::Initial, None);
        let mut bytes = buf.freeze();
        assert_eq!(get_gid(&mut bytes).unwrap(), gid);
        assert_eq!(get_cell(&mut bytes).unwrap(), (ItemId(7), Value::int(9), Some(gid)));
        assert_eq!(get_cell(&mut bytes).unwrap(), (ItemId(8), Value::Initial, None));
        for (value, writer) in [
            (Value::int(9), Some(gid)),
            (Value::Initial, None),
            (Value::Bytes(vec![1; 300]), Some(gid)),
        ] {
            let mut buf = BytesMut::new();
            put_cell(&mut buf, ItemId(7), &value, writer);
            assert_eq!(buf.len(), cell_len(&value, writer), "{value:?}");
        }
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        assert_eq!(buf.len(), varint_len(v), "{v}");
        buf
    }

    #[test]
    fn varints_roundtrip_at_the_byte_boundaries() {
        assert_eq!(varint(0), [0]);
        assert_eq!(varint(127), [0x7F]);
        assert_eq!(varint(128), [0x80, 0x01]);
        assert_eq!(varint((1 << 14) - 1).len(), 2);
        assert_eq!(varint(1 << 14).len(), 3);
        assert_eq!(varint(u64::from(u32::MAX)).len(), 5);
        assert_eq!(varint(u64::MAX).len(), 10);
        for v in [0, 127, 128, u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX] {
            let bytes = varint(v);
            let mut rest = &bytes[..];
            assert_eq!(get_varint(&mut rest), Ok(v));
            assert!(rest.is_empty());
            // Every proper prefix is a truncation.
            for cut in 0..bytes.len() {
                assert_eq!(get_varint(&mut &bytes[..cut]), Err(CodecError::Truncated), "{v}/{cut}");
            }
        }
        assert_eq!(get_varint_u32(&mut &varint(u64::from(u32::MAX))[..]), Ok(u32::MAX));
        assert_eq!(
            get_varint_u32(&mut &varint(u64::from(u32::MAX) + 1)[..]),
            Err(CodecError::Overlong)
        );
    }

    #[test]
    fn overlong_varints_are_errors() {
        // Zero padded to two bytes, 128 padded to three.
        assert_eq!(get_varint(&mut &[0x80, 0x00][..]), Err(CodecError::Overlong));
        assert_eq!(get_varint(&mut &[0x80, 0x81, 0x00][..]), Err(CodecError::Overlong));
        // Eleven bytes; ten bytes whose last carries bits past 2^64.
        assert_eq!(get_varint(&mut &[0xFF; 11][..]), Err(CodecError::Overlong));
        let mut past = [0xFF; 10];
        past[9] = 0x02;
        assert_eq!(get_varint(&mut &past[..]), Err(CodecError::Overlong));
        // All continuation bytes and no end: still a truncation.
        assert_eq!(get_varint(&mut &[0xFF; 9][..]), Err(CodecError::Truncated));
    }

    mod varint_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_value_roundtrips(v in 0u64..=u64::MAX, shift in 0u32..64) {
                let v = v >> shift;
                let bytes = varint(v);
                let mut rest = &bytes[..];
                prop_assert_eq!(get_varint(&mut rest), Ok(v));
                prop_assert!(rest.is_empty());
            }

            /// Arbitrary bytes decode to a value or a typed error, never
            /// a panic, and what does decode is the one encoding of its
            /// value.
            #[test]
            fn any_bytes_decode_or_fail_cleanly(bytes in prop::collection::vec(0u8..=255, 0..12)) {
                let mut rest = &bytes[..];
                if let Ok(v) = get_varint(&mut rest) {
                    let used = bytes.len() - rest.len();
                    prop_assert_eq!(&varint(v)[..], &bytes[..used]);
                }
            }
        }
    }

    #[test]
    fn truncations_are_errors() {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &Value::Bytes(vec![1, 2, 3, 4]));
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut sliced = bytes.slice(0..cut);
            assert!(get_value(&mut sliced).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_tags_are_errors() {
        let mut bytes = Bytes::from_static(&[9]);
        assert_eq!(get_value(&mut bytes), Err(CodecError::BadTag(9)));
        let mut s = Bytes::from_static(&[0, 0, 0, 2, 0xFF, 0xFE]);
        assert!(get_str(&mut s).is_err());
    }

    #[test]
    fn oversized_length_header_is_truncation_not_allocation() {
        // Claims a 2^60-byte payload with 2 bytes present.
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u64(1 << 60);
        buf.put_slice(&[1, 2]);
        let mut bytes = buf.freeze();
        assert_eq!(get_value(&mut bytes), Err(CodecError::Truncated));
    }
}
