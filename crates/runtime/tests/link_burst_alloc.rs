//! What a site's heap grows by while it applies a burst of link frames,
//! counted by a `GlobalAlloc` wrapper on the site's reactor thread.
//!
//! The reactor acts on each frame as its `FrameReader` yields it, so a
//! readable event holds at most one decoded frame however many the
//! socket had queued, and it owes the sender one cumulative ack, not an
//! ack frame a frame: what grows with the burst is the reader's copy of
//! the bytes (two read chunks), not a vector of decoded messages and
//! their payloads, nor a buffer of acks.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::time::Duration;

use repl_copygraph::DataPlacement;
use repl_net::{encode_framed, read_msg, Hello, Payload, Subtxn, SubtxnKind, WireMsg};
use repl_runtime::{Cluster, RuntimeProtocol};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

/// The reactor thread whose heap is counted.
const SITE_THREAD: &str = "site-2";

/// Live bytes allocated on [`SITE_THREAD`], and their high-water mark.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread is counted: unknown, yes, no, or being
    /// decided (an allocation made while asking for the thread's name
    /// is not counted).
    static COUNTED: Cell<u8> = const { Cell::new(UNKNOWN) };
}
const UNKNOWN: u8 = 0;
const YES: u8 = 1;
const NO: u8 = 2;
const DECIDING: u8 = 3;

fn counted() -> bool {
    COUNTED
        .try_with(|c| match c.get() {
            UNKNOWN => {
                c.set(DECIDING);
                let yes = std::thread::current().name() == Some(SITE_THREAD);
                c.set(if yes { YES } else { NO });
                yes
            }
            state => state == YES,
        })
        .unwrap_or(false)
}

fn count(bytes: isize) {
    if counted() {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
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

/// Frames in the burst: about 57 bytes each, so the `Hello` and all of
/// them — 51 kB — fit the receive window of a connection the site has
/// not accepted yet, and the site's first read of it finds them all.
const BURST: u64 = 900;
/// Heap growth allowed a frame: the reader's two 16 KiB read chunks
/// over the burst are 36.4 bytes a frame, and nothing else grows with
/// it (36–37 measured). An ack frame queued a frame, or a decoded frame
/// kept a frame, does not fit under it.
const PER_FRAME: isize = 40;

/// `chain3` under DAG(WT) with 16 items at s1, replicated at s2: s2's
/// tree parent is s1. The test warms s2 with 200 s1 commits of all 16
/// items — past its first WAL cut and checkpoint, which the image it
/// parks across a crash and restart shows — then poses as s1,
/// sending `Hello` and `BURST` one-write updates in one `write` before
/// s2 accepts the connection, and reads s2's acks until the last: s2
/// applies the burst in one pass and acks it with one frame.
#[test]
fn a_burst_of_link_frames_is_applied_in_place_of_a_vector_of_them() {
    const ITEMS: u32 = 16;
    const WARM_UP: u64 = 200;
    let mut placement = DataPlacement::new(3);
    placement.add_run(SiteId(0), &[SiteId(1), SiteId(2)], 1);
    let first = placement.num_items();
    placement.add_run(SiteId(1), &[SiteId(2)], ITEMS);
    let items: Vec<ItemId> = (first..first + ITEMS).map(ItemId).collect();
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();

    // 16 writes an update: 400 bytes of s2's WAL each, past one 16 KiB
    // segment in 41, so s2 has cut its log and allocated its
    // checkpoint before the burst.
    for k in 0..WARM_UP {
        let ops = items.iter().map(|&i| Op::write(i, k as i64)).collect();
        cluster.execute(SiteId(1), ops).unwrap();
    }
    cluster.quiesce();
    cluster.crash(SiteId(2)).unwrap();
    let wal = cluster.snapshot_wal(SiteId(2)).unwrap().len();
    assert!(wal < (WARM_UP * u64::from(ITEMS) * 25) as usize, "no cut: {wal} bytes of WAL");
    cluster.restart(SiteId(2)).unwrap();
    // `restart` returns once s2 listens, which can be before its reactor
    // has recovered the store and allocated its read buffer: a reply
    // from s2 keeps that boot work out of the counted window.
    assert!(cluster.peek(SiteId(2), items[0]).is_some());

    let (addr, fingerprint) = cluster.peer_endpoint(SiteId(2)).unwrap();
    let hello = Hello { site: SiteId(1), version_min: 1, version_max: 1, cluster: fingerprint };
    let mut bytes = encode_framed(&WireMsg::Hello(hello)).to_vec();
    for n in 1..=BURST {
        let seq = WARM_UP + n;
        let payload = Payload::Subtxn(Subtxn {
            gid: GlobalTxnId::new(SiteId(1), seq),
            origin: SiteId(1),
            kind: SubtxnKind::Normal,
            ts: None,
            writes: vec![(items[n as usize % items.len()], Value::int(seq as i64))],
            dest_sites: vec![SiteId(2)],
        });
        bytes.extend_from_slice(&encode_framed(&WireMsg::Link { seq, payload }));
    }
    assert!(bytes.len() < 60_000, "{} bytes", bytes.len());

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut link = TcpStream::connect(addr).unwrap();
    link.write_all(&bytes).unwrap();
    link.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match read_msg(&mut link).expect("handshake reply") {
        WireMsg::HelloAck(ack) => assert_eq!(ack.resume_seq, WARM_UP),
        other => panic!("expected HelloAck, got {}", other.kind_name()),
    }
    let (mut acked, mut acks) = (0, 0);
    while acked < WARM_UP + BURST {
        match read_msg(&mut link).expect("ack") {
            WireMsg::Ack { seq } => (acked, acks) = (seq, acks + 1),
            other => panic!("expected Ack, got {}", other.kind_name()),
        }
    }
    assert_eq!(acks, 1, "one cumulative ack for the burst");
    let growth = PEAK.load(Relaxed) - base;
    let per_frame = growth / BURST as isize;
    eprintln!("s2 applied {BURST} frames on a heap {growth} bytes larger: {per_frame} B a frame");
    assert!(per_frame < PER_FRAME, "{growth} bytes for {BURST} frames");
    let last = cluster.peek(SiteId(2), items[BURST as usize % items.len()]).unwrap();
    assert_eq!(last.0, Value::int((WARM_UP + BURST) as i64));
    cluster.shutdown();
}
