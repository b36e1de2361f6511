//! The copy-state image decoder — the `CopyState` reply page, and the
//! checkpoint a site recovers from — is total: arbitrary bytes, bit
//! flips and truncations of valid images give a cell list or a typed
//! error, never a panic, and never an allocation sized from the image's
//! cell count. A `GlobalAlloc` wrapper on the test's own thread pins the
//! peak heap a decode reaches against the bytes it was given.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use proptest::prelude::*;

use repl_net::{cells_in, decode_cells, encode_cells, NetError};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

thread_local! {
    /// `(live bytes, peak live bytes)` on this thread.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: isize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = LIVE.try_with(|c| {
        let (live, peak) = c.get();
        c.set((live + bytes, peak.max(live + bytes)));
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

type Image = Vec<(ItemId, Value, Option<GlobalTxnId>)>;

/// Decode `raw` and return the result with the peak heap the decode
/// reached above where it started, the input's own copy excluded.
fn decode_counted(raw: &[u8]) -> (Result<Image, NetError>, usize) {
    let bytes = Bytes::from(raw);
    let (start, _) = LIVE.with(Cell::get);
    LIVE.with(|c| c.set((start, start)));
    let decoded = decode_cells(bytes);
    let (_, peak) = LIVE.with(Cell::get);
    (decoded, (peak - start) as usize)
}

/// The most a decode of `len` bytes may hold: the cell list, sized by
/// the bytes (a cell takes at least 6 of them), and the byte values
/// they carry, which the bytes hold too.
fn bound(len: usize) -> usize {
    (len / 6 + 1) * size_of::<(ItemId, Value, Option<GlobalTxnId>)>() + 2 * len + 64
}

/// Decoding `raw` is total and bounded, and the streaming decoder
/// agrees with the collecting one.
fn total(raw: &[u8]) -> Result<Option<Image>, TestCaseError> {
    let (decoded, peak) = decode_counted(raw);
    prop_assert!(peak <= bound(raw.len()), "{peak} bytes for a {}-byte image", raw.len());
    let streamed: Result<Image, NetError> = cells_in(raw).and_then(|cells| cells.collect());
    prop_assert_eq!(&streamed, &decoded);
    Ok(decoded.ok())
}

fn arb_image() -> BoxedStrategy<Image> {
    let value = prop_oneof![
        Just(Value::Initial),
        (i64::MIN..i64::MAX).prop_map(Value::Int),
        prop::collection::vec(0u8..=u8::MAX, 0..24).prop_map(Value::Bytes),
    ];
    let writer = prop_oneof![
        Just(None),
        (0u32..8, 0u64..u64::MAX).prop_map(|(s, q)| Some(GlobalTxnId::new(SiteId(s), q))),
    ];
    prop::collection::vec((0u32..u32::MAX, value, writer), 0..12)
        .prop_map(|cells| cells.into_iter().map(|(i, v, w)| (ItemId(i), v, w)).collect())
        .boxed()
}

proptest! {
    #[test]
    fn arbitrary_bytes_decode_or_fail_cleanly(raw in prop::collection::vec(0u8..=u8::MAX, 0..256)) {
        if let Some(cells) = total(&raw)? {
            // What decodes is what the image's prefix encodes.
            let again = encode_cells(&cells);
            prop_assert!(raw.starts_with(&again));
        }
    }

    #[test]
    fn valid_images_round_trip(cells in arb_image()) {
        let raw = encode_cells(&cells);
        prop_assert_eq!(total(&raw)?, Some(cells));
    }

    #[test]
    fn bit_flips_decode_or_fail_cleanly(cells in arb_image(), at in 0usize..usize::MAX, bit in 0u8..8) {
        let mut raw = encode_cells(&cells).to_vec();
        let at = at % raw.len();
        raw[at] ^= 1 << bit;
        total(&raw)?;
    }

    #[test]
    fn truncations_fail_cleanly(cells in arb_image(), cut in 0usize..usize::MAX) {
        let raw = encode_cells(&cells);
        let cut = cut % raw.len();
        prop_assert_eq!(total(&raw[..cut])?, None);
    }
}

/// A count of `u32::MAX` cells over a few bytes reserves for the bytes,
/// not the claim.
#[test]
fn a_hostile_count_reserves_for_the_bytes() {
    let mut raw = u32::MAX.to_be_bytes().to_vec();
    raw.extend_from_slice(&encode_cells(&[(ItemId(1), Value::int(2), None)])[4..]);
    let (decoded, peak) = decode_counted(&raw);
    assert_eq!(decoded, Err(NetError::Truncated));
    assert!(peak <= bound(raw.len()), "{peak}");
}
