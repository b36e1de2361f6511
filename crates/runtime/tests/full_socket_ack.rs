//! A peer that keeps a site's link socket full still gets its acks.
//!
//! The reactor reads at most four 16 KiB chunks a readable event (its
//! `READS_PER_EVENT` and `READ_CHUNK`) before its pass moves on to the
//! flush that writes the cumulative `Ack` the peer is owed. A reader
//! that instead read until a short read reaches that flush only when it
//! outruns the writer, so a peer replaying a long log gets no ack while
//! every read is full. The test measures in bytes of the run, not in
//! time: the seq the first `Ack` carries says how much of the run the
//! site had read when it acked.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use repl_copygraph::DataPlacement;
use repl_net::{encode_framed, read_msg, Hello, Payload, Subtxn, SubtxnKind, WireMsg};
use repl_runtime::{Cluster, RuntimeProtocol};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

/// The most a readable event reads: four 16 KiB chunks.
const BOUND: usize = 4 * 16 * 1024;
/// The run the peer writes, in multiples of [`BOUND`].
const RUN: usize = 16;

/// `chain3` under DAG(WT) with 16 items at s1, replicated at s2: s2's
/// tree parent is s1. With s1 crashed, so that it does not re-dial, the
/// test poses as s1 and writes `RUN` bounds of one-write updates from
/// a writer thread as fast as s2's socket takes them, while the test
/// thread reads s2's acks. The first `Ack` must cover no more than the
/// one bound s2 read before its first flush; the last covers the run.
#[test]
fn a_peer_that_keeps_the_socket_full_is_acked_within_one_bound() {
    const ITEMS: u32 = 16;
    let mut placement = DataPlacement::new(3);
    placement.add_run(SiteId(0), &[SiteId(1), SiteId(2)], 1);
    let first = placement.num_items();
    placement.add_run(SiteId(1), &[SiteId(2)], ITEMS);
    let items: Vec<ItemId> = (first..first + ITEMS).map(ItemId).collect();
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    cluster.crash(SiteId(1)).unwrap();

    let (addr, fingerprint) = cluster.peer_endpoint(SiteId(2)).unwrap();
    let hello = Hello { site: SiteId(1), version_min: 1, version_max: 1, cluster: fingerprint };
    let mut bytes = encode_framed(&WireMsg::Hello(hello)).to_vec();
    let mut ends = Vec::new(); // where each frame's bytes end, by seq - 1
    let mut seq = 0;
    while bytes.len() < RUN * BOUND {
        seq += 1;
        let payload = Payload::Subtxn(Subtxn {
            gid: GlobalTxnId::new(SiteId(1), seq),
            origin: SiteId(1),
            kind: SubtxnKind::Normal,
            ts: None,
            writes: vec![(items[seq as usize % items.len()], Value::int(seq as i64))],
            dest_sites: vec![SiteId(2)],
        });
        bytes.extend_from_slice(&encode_framed(&WireMsg::Link { seq, payload }));
        ends.push(bytes.len());
    }
    let last = seq;

    let mut link = TcpStream::connect(addr).unwrap();
    // A guard against a hang, not the measure: the test fails on a seq.
    link.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut writer_link = link.try_clone().unwrap();
    let writer = std::thread::spawn(move || writer_link.write_all(&bytes));
    match read_msg(&mut link).expect("handshake reply") {
        WireMsg::HelloAck(ack) => assert_eq!(ack.resume_seq, 0),
        other => panic!("expected HelloAck, got {}", other.kind_name()),
    }
    let mut acked = Vec::new();
    while acked.last() != Some(&last) {
        match read_msg(&mut link).expect("ack") {
            WireMsg::Ack { seq } => acked.push(seq),
            other => panic!("expected Ack, got {}", other.kind_name()),
        }
    }
    writer.join().unwrap().unwrap();
    let read_at_first_ack = ends[acked[0] as usize - 1];
    eprintln!(
        "first of {} acks covers seq {} of {last}: {read_at_first_ack} of {} bytes",
        acked.len(),
        acked[0],
        ends[ends.len() - 1]
    );
    assert!(
        read_at_first_ack <= BOUND,
        "the first Ack came after {read_at_first_ack} bytes of the run, past one bound ({BOUND})"
    );
    let item = items[last as usize % items.len()];
    assert_eq!(cluster.peek(SiteId(2), item).unwrap().0, Value::int(last as i64));
    cluster.shutdown();
}
