//! What a relay's heap grows by while it forwards a burst of link
//! frames, counted by a `GlobalAlloc` wrapper on the relay's reactor
//! thread.
//!
//! A forwarded frame is encoded once, into the link log to the child,
//! and the reactor writes the child's socket straight from that log: the
//! relay holds each forwarded frame once, not once in the log and again
//! in a per-peer write buffer. Forwarding 61 kB of frames grows the
//! relay's heap by 66.7 kB, the log's 64 KiB and change; a second copy
//! of the frames would take it past the 1.5 × bound.
#![allow(unsafe_code)]
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

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

/// The reactor thread whose heap is counted: the relay's.
const SITE_THREAD: &str = "site-1";

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

/// Frames that grow s1's frame reader to its two read chunks and warm
/// its log before anything is counted: 73 kB, several 16 KiB reads.
const FILLER: u64 = 1200;
/// Frames in the counted burst: 61 kB, one write the relay reads in one
/// pass, and below the 64 KiB its log to s2 grows to for them.
const BURST: u64 = 1000;

/// An s0 update of `item`, carried as link frame `seq` to s1.
fn frame(seq: u64, item: ItemId, dests: &[SiteId]) -> WireMsg {
    let payload = Payload::Subtxn(Subtxn {
        gid: GlobalTxnId::new(SiteId(0), seq),
        origin: SiteId(0),
        kind: SubtxnKind::Normal,
        ts: None,
        writes: vec![(item, Value::int(seq as i64))],
        dest_sites: dests.to_vec(),
    });
    WireMsg::Link { seq, payload }
}

/// Read acks off `link` until one covers `seq`.
fn await_ack(link: &mut TcpStream, seq: u64) {
    loop {
        match read_msg(link).expect("ack") {
            WireMsg::Ack { seq: acked } if acked >= seq => return,
            WireMsg::Ack { .. } => {}
            other => panic!("expected Ack, got {}", other.kind_name()),
        }
    }
}

/// `chain3` under DAG(WT): s0's items at s1 alone (the filler's), s0's
/// items at s1 and s2 (the burst's, which s1 forwards down the chain),
/// and one item at s1 alone for the warm-up. With s0 down, the test
/// poses as s0: it sends `Hello` and the filler in one `write` before s1
/// accepts the connection and waits for their ack, then counts s1's heap
/// while s1 applies and forwards `BURST` frames sent in one `write`.
#[test]
fn a_relay_holds_a_forwarded_frame_once() {
    let mut placement = DataPlacement::new(3);
    let filler = ItemId(placement.num_items());
    placement.add_run(SiteId(0), &[SiteId(1)], 1);
    let relayed = ItemId(placement.num_items());
    placement.add_run(SiteId(0), &[SiteId(1), SiteId(2)], 1);
    let own = ItemId(placement.num_items());
    placement.add_run(SiteId(1), &[], 1);
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    // s1's first commit allocates its log segments.
    cluster.execute(SiteId(1), vec![Op::write(own, 1)]).unwrap();
    cluster.crash(SiteId(0)).unwrap();

    let (addr, fingerprint) = cluster.peer_endpoint(SiteId(1)).unwrap();
    let hello = Hello { site: SiteId(0), version_min: 1, version_max: 1, cluster: fingerprint };
    let mut bytes = encode_framed(&WireMsg::Hello(hello)).to_vec();
    for seq in 1..=FILLER {
        bytes.extend_from_slice(&encode_framed(&frame(seq, filler, &[SiteId(1)])));
    }
    let mut link = TcpStream::connect(addr).unwrap();
    link.write_all(&bytes).unwrap();
    link.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match read_msg(&mut link).expect("handshake reply") {
        WireMsg::HelloAck(ack) => assert_eq!(ack.resume_seq, 0),
        other => panic!("expected HelloAck, got {}", other.kind_name()),
    }
    await_ack(&mut link, FILLER);

    let mut bytes = Vec::new();
    let mut forwarded = 0;
    for seq in FILLER + 1..=FILLER + BURST {
        let msg = frame(seq, relayed, &[SiteId(1), SiteId(2)]);
        bytes.extend_from_slice(&encode_framed(&msg));
        // s1 forwards the same payload as its own link frame to s2.
        if let WireMsg::Link { payload, .. } = msg {
            forwarded += encode_framed(&WireMsg::Link { seq: seq - FILLER, payload }).len();
        }
    }
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    link.write_all(&bytes).unwrap();
    // s1 acks the burst in the pass that applied and forwarded it.
    await_ack(&mut link, FILLER + BURST);
    let growth = PEAK.load(Relaxed) - base;
    eprintln!("s1 forwarded {forwarded} bytes of frames on a heap {growth} bytes larger");
    assert!(2 * growth < 3 * forwarded as isize, "{growth} bytes for {forwarded} forwarded");
    let last = Value::int((FILLER + BURST) as i64);
    while cluster.peek(SiteId(2), relayed).map(|(v, _)| v) != Some(last.clone()) {
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.shutdown();
}
