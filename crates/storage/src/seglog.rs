//! An append-only record arena that grows one fixed-size segment at a
//! time.
//!
//! A site's redo log ([`crate::WriteAheadLog`]) and its commit history
//! (`repl-net`'s `HistoryLog`) are both "encoded records back to back,
//! appended forever, read rarely". Kept in one growing `Vec<u8>` such a
//! log is copied every time it doubles, leaves the freed halves behind
//! as holes in the heap, and can only be cut at the front by moving
//! everything after the cut. [`SegLog`] keeps the same bytes in
//! [`SEGMENT_BYTES`] segments instead:
//!
//! * a segment is allocated once, at its final capacity, and never
//!   reallocated — growth copies nothing;
//! * a record never straddles two segments (one larger than a segment
//!   gets a segment of its own), so every segment's bytes parse on
//!   their own and can be framed or dropped as a unit;
//! * each segment counts its records, so a record index finds its
//!   segment without decoding anything;
//! * cutting a prefix drops whole segments and advances an offset into
//!   the first one that stays.
//!
//! The concatenation of the [`SegLog::pages`] is exactly the byte
//! string a contiguous arena would hold. The log does not know what a
//! record is: callers say how long a record is when they append it, and
//! the two operations that must find a record boundary inside existing
//! bytes take the caller's `record_len` to walk with.

/// Capacity of a segment: the unit a log grows, is paged out and is cut
/// by. A constant, not a tuning knob — 16 KiB is 163 Table-1 commits of
/// redo log or 381 of history, stays below the allocator's mmap
/// threshold (a dropped segment's memory is the next segment's), and is
/// one page of a history reply (`repl-net`'s `PAGE_BYTES`), far below
/// the 1 MiB frame cap.
pub const SEGMENT_BYTES: usize = 16 * 1024;

#[derive(Debug)]
struct Segment {
    /// Allocated at `max(SEGMENT_BYTES, first record)` and only ever
    /// filled up to that capacity.
    buf: Vec<u8>,
    /// Records in `buf` (in the log's first segment: those at or after
    /// the log's head offset).
    records: usize,
}

impl Segment {
    fn with_room_for(len: usize) -> Self {
        Segment { buf: Vec::with_capacity(len.max(SEGMENT_BYTES)), records: 0 }
    }

    /// Bytes more records may add: a segment is filled to
    /// [`SEGMENT_BYTES`], whatever its first record made its capacity.
    fn room(&self) -> usize {
        SEGMENT_BYTES.saturating_sub(self.buf.len())
    }
}

impl Clone for Segment {
    /// A clone keeps the segment's capacity (a derived clone would
    /// shrink it to the bytes held, and the next append would grow it).
    fn clone(&self) -> Self {
        let mut copy = Segment::with_room_for(self.buf.capacity());
        copy.buf.extend_from_slice(&self.buf);
        copy.records = self.records;
        copy
    }
}

/// The live bytes of one segment: whole records, back to back.
#[derive(Clone, Copy, Debug)]
pub struct LogPage<'a> {
    /// The records' bytes.
    pub bytes: &'a [u8],
    /// How many records `bytes` holds.
    pub records: usize,
}

/// Append-only log of opaque encoded records, stored in
/// [`SEGMENT_BYTES`] segments (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct SegLog {
    /// Oldest first. A plain vector: appends, the hot path, want the
    /// last segment at no cost, and a cut removes from the front of at
    /// most a few dozen entries.
    segs: Vec<Segment>,
    /// Bytes at the front of the first segment that were truncated away.
    head: usize,
    /// Live records, over all segments.
    records: usize,
    /// Live bytes, over all segments.
    bytes: usize,
}

impl SegLog {
    /// An empty log. Allocates nothing until the first append.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Bytes the records occupy.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Segments currently allocated.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.segs.len()
    }

    /// Bytes that can still be appended before the log takes another
    /// segment (a whole segment's worth while none is allocated).
    pub fn room(&self) -> usize {
        self.segs.last().map_or(SEGMENT_BYTES, Segment::room)
    }

    /// Append `records` records of `len` bytes in all, which `fill` must
    /// append to the vector it is given (the tail segment: `fill` may
    /// not touch the bytes already there). Records appended by one call
    /// share a segment.
    pub fn append(&mut self, records: usize, len: usize, fill: impl FnOnce(&mut Vec<u8>)) {
        if !matches!(self.segs.last(), Some(tail) if len <= tail.room()) {
            self.roll(len);
        }
        let tail = self.segs.last_mut().expect("a tail with room was found or pushed just above");
        let before = tail.buf.len();
        fill(&mut tail.buf);
        debug_assert_eq!(tail.buf.len() - before, len, "record length misdeclared");
        tail.records += records;
        self.records += records;
        self.bytes += len;
    }

    /// Start the segment the next `len` bytes go to.
    #[cold]
    fn roll(&mut self, len: usize) {
        // A cleared segment these bytes are too many for is replaced,
        // not left behind empty.
        if self.segs.last().is_some_and(|tail| tail.buf.is_empty()) {
            self.segs.pop();
        }
        self.segs.push(Segment::with_room_for(len));
    }

    /// Append `records` whole records, already encoded back to back in
    /// `bytes`: one copy when they fit the tail segment, else record by
    /// record (`record_len` gives the length of the record at the front
    /// of the slice it is handed) so none straddles the roll-over.
    #[inline]
    pub fn append_run(
        &mut self,
        bytes: &[u8],
        records: usize,
        record_len: impl Fn(&[u8]) -> usize,
    ) {
        match self.segs.last_mut() {
            Some(tail) if bytes.len() <= tail.room() => {
                tail.buf.extend_from_slice(bytes);
                tail.records += records;
                self.records += records;
                self.bytes += bytes.len();
            }
            _ => self.append_each(bytes, records, record_len),
        }
    }

    /// [`SegLog::append_run`] across a roll-over: record by record.
    #[cold]
    fn append_each(&mut self, bytes: &[u8], records: usize, record_len: impl Fn(&[u8]) -> usize) {
        let mut rest = bytes;
        for _ in 0..records {
            let (record, after) = rest.split_at(record_len(rest));
            self.append(1, record.len(), |buf| buf.extend_from_slice(record));
            rest = after;
        }
    }

    /// The live bytes of segment number `seg` (0 is the oldest).
    pub fn page(&self, seg: usize) -> Option<LogPage<'_>> {
        let s = self.segs.get(seg)?;
        let from = if seg == 0 { self.head } else { 0 };
        Some(LogPage { bytes: &s.buf[from..], records: s.records })
    }

    /// Every segment's live bytes, oldest first. Concatenated they are
    /// the log: [`SegLog::len`] records in [`SegLog::byte_len`] bytes.
    pub fn pages(&self) -> impl Iterator<Item = LogPage<'_>> {
        (0..self.segs.len()).filter_map(|seg| self.page(seg))
    }

    /// The page holding record number `index`, and how many records of
    /// that page precede it. `None` at or past the end of the log.
    pub fn page_of(&self, index: usize) -> Option<(usize, LogPage<'_>)> {
        let mut first = 0;
        self.pages().find_map(|page| {
            let skip = index.checked_sub(first).filter(|&skip| skip < page.records);
            first += page.records;
            skip.map(|skip| (skip, page))
        })
    }

    /// Drop the first `n` records (all of them if there are fewer):
    /// whole segments are freed, and the cut inside the first segment
    /// that stays is an offset, found by walking its records with
    /// `record_len`. Nothing is moved.
    pub fn truncate_prefix(&mut self, n: usize, record_len: impl Fn(&[u8]) -> usize) {
        let mut n = n.min(self.records);
        self.records -= n;
        while n > 0 {
            // n <= the records held, and every record is in a segment.
            let first = self.segs.first_mut().expect("records live in segments");
            if n >= first.records {
                n -= first.records;
                self.bytes -= first.buf.len() - self.head;
                self.head = 0;
                self.segs.remove(0);
            } else {
                let live = &first.buf[self.head..];
                let cut: usize = (0..n).fold(0, |at, _| at + record_len(&live[at..]));
                first.records -= n;
                self.head += cut;
                self.bytes -= cut;
                n = 0;
            }
        }
    }

    /// Forget every record, keeping one segment's allocation.
    pub fn clear(&mut self) {
        self.segs.truncate(1);
        if let Some(only) = self.segs.first_mut() {
            only.buf.clear();
            only.records = 0;
        }
        self.head = 0;
        self.records = 0;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test record: a 4-byte big-endian length, then that many bytes.
    fn record(payload: usize, fill: u8) -> Vec<u8> {
        let mut r = (payload as u32).to_be_bytes().to_vec();
        r.resize(4 + payload, fill);
        r
    }

    fn record_len(bytes: &[u8]) -> usize {
        4 + u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize
    }

    fn image(log: &SegLog) -> Vec<u8> {
        log.pages().flat_map(|p| p.bytes.iter().copied()).collect()
    }

    fn records_of(mut bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (r, rest) = bytes.split_at(record_len(bytes));
            out.push(r.to_vec());
            bytes = rest;
        }
        out
    }

    /// What every operation must leave true.
    fn check_against(log: &SegLog, model: &[Vec<u8>]) {
        assert_eq!(log.len(), model.len());
        assert_eq!(log.is_empty(), model.is_empty());
        assert_eq!(image(log), model.concat(), "image differs from the contiguous model");
        assert_eq!(log.byte_len(), model.iter().map(Vec::len).sum::<usize>());
        let mut first = 0;
        for (seg, page) in log.pages().enumerate() {
            // Whole records only: the page parses on its own, to exactly
            // the records the model holds at those indices.
            let parsed = records_of(page.bytes);
            assert_eq!(parsed.len(), page.records, "segment {seg} record count");
            assert_eq!(parsed[..], model[first..first + page.records], "segment {seg}");
            // Nothing straddles: a page past one segment is one record.
            assert!(page.bytes.len() <= SEGMENT_BYTES || page.records == 1, "segment {seg}");
            first += page.records;
        }
        assert_eq!(first, model.len());
        assert!(log.segments() == 0 || log.page(log.segments() - 1).is_some());
        assert!(log.page_of(model.len()).is_none());
    }

    #[derive(Clone, Debug)]
    enum Step {
        Append(usize, u8),
        Run(Vec<usize>),
        Truncate(usize),
        Reload,
        Clear,
    }

    /// Mostly records a few of which fill a segment, sometimes one that
    /// cannot fit any segment.
    fn size_strategy() -> impl Strategy<Value = usize> {
        prop_oneof![
            8 => 0usize..200,
            4 => 5_000usize..30_000,
            1 => SEGMENT_BYTES - 8..SEGMENT_BYTES + 5_000,
        ]
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (size_strategy(), 0u8..=u8::MAX).prop_map(|(n, b)| Step::Append(n, b)),
            3 => prop::collection::vec(size_strategy(), 1..6).prop_map(Step::Run),
            3 => (0usize..40).prop_map(Step::Truncate),
            1 => Just(Step::Reload),
            1 => Just(Step::Clear),
        ]
    }

    proptest! {
        /// Any sequence of appends, runs, prefix cuts, image reloads and
        /// clears leaves the log holding what a contiguous vector of
        /// records would, with no record across a segment boundary.
        #[test]
        fn behaves_like_a_contiguous_arena(steps in prop::collection::vec(step_strategy(), 1..40)) {
            let mut log = SegLog::new();
            let mut model: Vec<Vec<u8>> = Vec::new();
            for step in steps {
                match step {
                    Step::Append(n, b) => {
                        let r = record(n, b);
                        log.append(1, r.len(), |buf| buf.extend_from_slice(&r));
                        model.push(r);
                    }
                    Step::Run(sizes) => {
                        let run: Vec<Vec<u8>> =
                            sizes.iter().enumerate().map(|(i, &n)| record(n, i as u8)).collect();
                        log.append_run(&run.concat(), run.len(), record_len);
                        model.extend(run);
                    }
                    Step::Truncate(n) => {
                        log.truncate_prefix(n, record_len);
                        model.drain(..n.min(model.len()));
                    }
                    // encode / decode: the image, loaded into a fresh log.
                    Step::Reload => {
                        let bytes = image(&log);
                        let mut fresh = SegLog::new();
                        fresh.append_run(&bytes, log.len(), record_len);
                        log = fresh;
                    }
                    Step::Clear => {
                        log.clear();
                        model.clear();
                    }
                }
                check_against(&log, &model);
                // Every index finds its page and its place in it.
                for index in [0, model.len() / 2, model.len().saturating_sub(1)] {
                    if index < model.len() {
                        let (skip, page) = log.page_of(index).unwrap();
                        prop_assert_eq!(&records_of(page.bytes)[skip], &model[index]);
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_log_allocates_nothing_and_rolls_at_the_segment_size() {
        let mut log = SegLog::new();
        assert_eq!((log.segments(), log.room()), (0, SEGMENT_BYTES));
        let r = record(96, 7); // 100-byte records: 163 to a 16 KiB segment
        let per_segment = SEGMENT_BYTES / 100;
        for _ in 0..per_segment {
            log.append(1, r.len(), |buf| buf.extend_from_slice(&r));
        }
        assert_eq!((log.segments(), log.room()), (1, SEGMENT_BYTES % 100));
        log.append(1, r.len(), |buf| buf.extend_from_slice(&r));
        assert_eq!((log.segments(), log.room()), (2, SEGMENT_BYTES - 100));
        // Cutting the full segment away leaves the other untouched.
        log.truncate_prefix(per_segment, record_len);
        assert_eq!((log.segments(), log.len(), log.byte_len()), (1, 1, 100));
        // Clearing keeps that segment for the records to come.
        log.clear();
        assert_eq!((log.segments(), log.len(), log.room()), (1, 0, SEGMENT_BYTES));
    }

    #[test]
    fn an_oversized_record_gets_a_segment_of_its_own() {
        let mut log = SegLog::new();
        let small = record(10, 1);
        let big = record(SEGMENT_BYTES + 100, 2);
        log.append(1, small.len(), |buf| buf.extend_from_slice(&small));
        log.append(1, big.len(), |buf| buf.extend_from_slice(&big));
        log.append(1, small.len(), |buf| buf.extend_from_slice(&small));
        let pages: Vec<(usize, usize)> = log.pages().map(|p| (p.bytes.len(), p.records)).collect();
        assert_eq!(pages, vec![(14, 1), (big.len(), 1), (14, 1)]);
        // A cleared log re-used for a record its kept segment cannot
        // hold does not leave an empty segment behind.
        log.clear();
        log.append(1, big.len(), |buf| buf.extend_from_slice(&big));
        assert_eq!((log.segments(), log.len()), (1, 1));
    }

    #[test]
    fn a_clone_can_be_appended_to_without_growing() {
        let mut log = SegLog::new();
        let r = record(50, 3);
        log.append(1, r.len(), |buf| buf.extend_from_slice(&r));
        let mut copy = log.clone();
        for _ in 0..100 {
            copy.append(1, r.len(), |buf| buf.extend_from_slice(&r));
        }
        assert_eq!((copy.segments(), copy.len(), log.len()), (1, 101, 1));
    }
}
