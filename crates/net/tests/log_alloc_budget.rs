//! Allocation budget of a site's two logs — the redo WAL and the commit
//! history — counted by a `GlobalAlloc` wrapper on the test's own
//! thread.
//!
//! Both sit on `repl_storage::SegLog`: a log's memory is 64 KiB segments
//! allocated once each and never reallocated, so growing a log copies
//! nothing and leaves no outgrown buffers behind in the heap.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use repl_net::HistoryLog;
use repl_storage::{CommitPipeline, WriteAheadLog, SEGMENT_BYTES};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

/// Nothing a commit allocates in passing (a write set, a batch's gid
/// list) comes near this; every block at least this large is log memory.
const LOG_BLOCK: usize = 4096;

thread_local! {
    /// `(segment allocations, other log-sized allocations plus
    /// reallocations of log-sized blocks)` made on this thread.
    static COUNTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(segments: usize, others: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = COUNTS.try_with(|c| {
        let (s, r) = c.get();
        c.set((s + segments, r + others));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LOG_BLOCK {
            // A log allocates whole segments and nothing else.
            count(
                usize::from(layout.size() == SEGMENT_BYTES),
                usize::from(layout.size() != SEGMENT_BYTES),
            );
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size().max(new_size) >= LOG_BLOCK {
            count(0, 1);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counts() -> (usize, usize) {
    COUNTS.with(Cell::get)
}

const COMMITS: u64 = 2000;

/// 2000 Table-1 commits (6 reads of written versions, 4 integer writes;
/// item ids and sequence numbers two-byte varints, as at a site of a
/// thousand items) cost each log exactly ⌈bytes / 64 KiB⌉ segment
/// allocations — 200 000 bytes of WAL in 4, 86 000 of history in 2 —
/// and not one reallocation or odd-sized block, at group-commit batch 1
/// and 8 (the group-commit staging buffer holds a batch, under a
/// kilobyte).
#[test]
fn logs_of_2000_table1_commits_allocate_whole_segments_and_never_reallocate() {
    for batch in [1usize, 8] {
        let (segments0, others0) = counts();
        let mut pipeline = CommitPipeline::new(batch);
        let mut wal = WriteAheadLog::new();
        let mut history = HistoryLog::new();
        assert_eq!(counts(), (segments0, others0), "an empty log allocated");
        for seq in 0..COMMITS {
            let gid = GlobalTxnId::new(SiteId(0), 128 + seq);
            let item = |j: u64| ItemId(128 + ((seq * 7 + j) % 20) as u32);
            let reads: Vec<_> = (0..6).map(|j| (item(j), Some(gid))).collect();
            let writes: Vec<_> = (6..10).map(|j| (item(j), Value::int(seq as i64))).collect();
            if pipeline.enqueue(gid, &writes) {
                pipeline.flush(&mut wal);
            }
            history.record_commit(gid, &reads, writes.iter().map(|(i, _)| *i));
        }
        pipeline.flush(&mut wal);
        let (wal_bytes, history_bytes) = (wal.encoded_len(), history.encoded_len());
        assert_eq!((wal_bytes, history_bytes), (200_000, 86_000));
        let (segments, others) = counts();
        assert_eq!(others, others0, "batch {batch}: log memory reallocated or not a segment");
        assert_eq!(
            segments - segments0,
            wal_bytes.div_ceil(SEGMENT_BYTES) + history_bytes.div_ceil(SEGMENT_BYTES),
            "batch {batch}"
        );
        // Cut behind a checkpoint, the WAL refills a segment it has.
        wal.clear();
        wal.append_commit(
            GlobalTxnId::new(SiteId(0), 128 + COMMITS),
            &[(ItemId(0), Value::int(0))],
        );
        assert_eq!(counts(), (segments, others));
    }
}
