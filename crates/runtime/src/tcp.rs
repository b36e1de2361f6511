//! The TCP deployment: one OS process per site, real sockets between
//! them, the same reliable-link engine as the in-process cluster.
//!
//! Topology: every site dials every peer it has an address for. The
//! connection `C(S → T)` is established by `S` with a
//! [`repl_net::Hello`] / [`repl_net::HelloAck`] handshake (protocol
//! version negotiation plus a cluster fingerprint check) and is used
//! bidirectionally: `S` writes `Link` frames carrying propagation
//! payloads, `T` writes cumulative `Ack` frames back on the same
//! socket, consumed by `S`'s per-connection ack-reader thread.
//!
//! Reconnect: when either side observes an error, `S`'s outgoing slot
//! for `T` is cleared and the dialer thread re-establishes the
//! connection with bounded backoff. The `HelloAck.resume_seq` —
//! `T`'s durable per-link high-water mark — prunes `S`'s outbox, and
//! everything above it is replayed in sequence order under the lane
//! lock ([`crate::transport::Net::resume`]), so delivery stays
//! exactly-once in-order across real connection drops. This is the
//! same machinery (and the same code) that recovers site crashes under
//! the channel transport.
//!
//! Threads per `repld` process, beyond the site worker: one accept
//! loop, one dialer, one reader per accepted connection, one ack
//! reader per dialed connection, one per client session.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::bounded;
use parking_lot::Mutex;

use repl_copygraph::DataPlacement;
use repl_net::{
    client_handshake, cluster_fingerprint, frame_link_into, frame_run_into, negotiate, read_msg,
    write_msg, ClientMsg, ClientReply, ExecError, Hello, HelloAck, HistoryLog, Payload, ReadError,
    WireMsg, VERSION_BATCH, VERSION_MAX, VERSION_MIN,
};
use repl_types::{AddressMap, SiteId};

use crate::chan::{traced_unbounded, TracedSender};
use crate::cluster::{build_structure, recovered_store, ClusterError, RuntimeProtocol};
use crate::durable::DurableSite;
use crate::link::Links;
use crate::nemesis::ChaosWire;
use crate::policy::{self, RuntimeOptions};
use crate::site::{Command, SiteSetup};
use crate::transport::{Net, SendStatus, Transport, TransportEvent};

/// An established outgoing connection: the write half plus the
/// protocol version the handshake negotiated (which decides whether
/// coalesced sends may ride a [`WireMsg::Batch`] frame).
struct OutConn {
    stream: TcpStream,
    version: u16,
    /// Frames are encoded here from the borrowed payloads, then written
    /// in one call; reused across sends.
    frames: Vec<u8>,
}

impl OutConn {
    /// Write what `frame` encodes into the scratch buffer.
    fn send(&mut self, frame: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.frames.clear();
        frame(&mut self.frames);
        self.stream.write_all(&self.frames)?;
        self.stream.flush()
    }
}

/// Per-peer socket slots. `out[p]` is the connection *we* dialed to
/// `p` (we write `Link` frames, a reader thread consumes `p`'s acks);
/// `acks[p]` is the write half of the connection `p` dialed to us (we
/// write `Ack` frames back on it).
pub(crate) struct TcpRaw {
    out: Vec<Mutex<Option<OutConn>>>,
    /// Generation counter per out-slot, so a stale connection's reader
    /// thread does not clear a successor connection on its way out.
    out_gen: Vec<AtomicU64>,
    acks: Vec<Mutex<Option<TcpStream>>>,
    /// Frames decoded by the peer-reader threads, awaiting the site
    /// thread (this process hosts exactly one site, hence one inbox).
    /// Each reader is the only writer for its link and pushes in read
    /// order, so per-link FIFO survives the shared queue.
    inbox: Mutex<VecDeque<TransportEvent>>,
}

impl TcpRaw {
    fn new(sites: usize) -> Self {
        TcpRaw {
            out: (0..sites).map(|_| Mutex::new(None)).collect(),
            out_gen: (0..sites).map(|_| AtomicU64::new(0)).collect(),
            acks: (0..sites).map(|_| Mutex::new(None)).collect(),
            inbox: Mutex::new(VecDeque::new()),
        }
    }

    /// Fault injection: drop both connections to/from `peer`. Writes on
    /// the dead sockets fail, readers on both ends unblock with errors,
    /// and the two dialers re-establish and replay.
    fn kill_conn(&self, peer: SiteId) {
        if let Some(c) = self.out[peer.index()].lock().take() {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        if let Some(s) = self.acks[peer.index()].lock().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// [`Transport`] over the shared socket slots. A failed write clears
/// the slot (the dialer reconnects) and reports [`SendStatus::Down`];
/// the payload stays in the outbox either way, and replay-on-reconnect
/// recovers anything the kernel accepted but the dead connection never
/// delivered. Writes land in the kernel's socket buffer — under this
/// (threaded) deployment a full buffer blocks the writer briefly rather
/// than surfacing [`SendStatus::Backpressure`]; the epoll reactor's
/// wire is the one that must never block.
struct TcpWire(Arc<TcpRaw>);

impl Transport for TcpWire {
    fn try_send(&self, _from: SiteId, to: SiteId, seq: u64, payload: &Payload) -> SendStatus {
        let mut slot = self.0.out[to.index()].lock();
        let Some(conn) = slot.as_mut() else { return SendStatus::Down };
        if conn.send(|out| frame_link_into(out, seq, payload)).is_err() {
            *slot = None;
            return SendStatus::Down;
        }
        SendStatus::Sent
    }

    fn try_send_batch(
        &self,
        _from: SiteId,
        to: SiteId,
        first_seq: u64,
        payloads: &[Payload],
    ) -> SendStatus {
        let mut slot = self.0.out[to.index()].lock();
        let Some(conn) = slot.as_mut() else { return SendStatus::Down };
        // A version-1 peer never sees a Batch frame: the run degrades to
        // one Link frame per payload on the same connection, preserving
        // the sequence order the batch carried.
        let batch_frames = conn.version >= VERSION_BATCH;
        let sent = conn.send(|out| {
            if batch_frames {
                frame_run_into(out, first_seq, payloads);
            } else {
                for (i, payload) in payloads.iter().enumerate() {
                    frame_link_into(out, first_seq + i as u64, payload);
                }
            }
        });
        if sent.is_err() {
            *slot = None;
            return SendStatus::Down;
        }
        SendStatus::Sent
    }

    fn send_ack(&self, from: SiteId, _me: SiteId, seq: u64) -> SendStatus {
        let mut slot = self.0.acks[from.index()].lock();
        let Some(stream) = slot.as_mut() else { return SendStatus::Down };
        // Best-effort: a lost ack is re-synchronized by the next
        // handshake's resume_seq.
        if write_msg(stream, &WireMsg::Ack { seq }).is_err() {
            *slot = None;
            return SendStatus::Down;
        }
        SendStatus::Sent
    }

    fn poll_events(&self, _me: SiteId) -> Vec<TransportEvent> {
        std::mem::take(&mut *self.0.inbox.lock()).into()
    }
}

/// Configuration of one `repld` site process.
pub struct ServeConfig {
    /// This process's site.
    pub site: SiteId,
    /// The cluster-wide placement (identical in every process).
    pub placement: DataPlacement,
    /// The propagation protocol (identical in every process).
    pub protocol: RuntimeProtocol,
    /// Listen address; use port 0 to bind ephemerally — the bound
    /// address is printed to stdout for launchers to harvest.
    pub listen: String,
    /// Peer addresses. May be incomplete (even empty) at start; a
    /// launcher can push the full map later with [`ClientMsg::Peers`].
    pub peers: AddressMap,
    /// Timing/bound knobs, including the optional nemesis plan
    /// (`repld --nemesis`). [`RuntimeOptions::default`] for a clean
    /// deployment.
    pub options: RuntimeOptions,
}

/// Everything the connection-handling threads share.
struct Shared {
    me: SiteId,
    fingerprint: u64,
    tcp: Arc<TcpRaw>,
    net: Arc<Net>,
    site_tx: TracedSender<Command>,
    durable: Arc<Mutex<DurableSite>>,
    history: Arc<Mutex<HistoryLog>>,
    outstanding: Arc<AtomicI64>,
    peers: Mutex<AddressMap>,
    opts: Arc<RuntimeOptions>,
    shutdown: AtomicBool,
    /// Client request frames refused because they did not decode
    /// (malformed, oversized, or mis-typed). Surfaced via
    /// [`ClientMsg::Stats`].
    decode_errors: AtomicU64,
}

/// Run one site as this process: bind, print the listen address, serve
/// peer and client connections until a client sends
/// [`ClientMsg::Shutdown`] (which stops the site thread and returns).
pub fn serve(cfg: ServeConfig) -> io::Result<()> {
    let structure = build_structure(&cfg.placement, cfg.protocol)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let n = cfg.placement.num_sites() as usize;
    if cfg.site.index() >= n {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "site id out of range"));
    }

    let opts = Arc::new(cfg.options);
    let tcp = Arc::new(TcpRaw::new(n));
    let links = Arc::new(Links::new(n));
    let mut raw: Box<dyn Transport> = Box::new(TcpWire(tcp.clone()));
    if let Some(plan) = &opts.nemesis {
        raw = Box::new(ChaosWire::new(raw, plan.clone(), n));
    }
    let net = Arc::new(Net::new(links, raw));
    let durable = Arc::new(Mutex::new(DurableSite::new(n, opts.group_commit_batch)));
    let history = Arc::new(Mutex::new(HistoryLog::new()));
    let outstanding = Arc::new(AtomicI64::new(0));
    let crashed = Arc::new(AtomicBool::new(false));
    let fingerprint = cluster_fingerprint(cfg.placement.spec(), cfg.protocol.name());
    // The one copy of the placement in this process.
    let shared_placement = Arc::new(cfg.placement);

    // Built here, before the site thread spawns, so a structural
    // protocol violation aborts `repld` startup with a typed error.
    let setup = SiteSetup::new(
        cfg.site,
        cfg.protocol,
        shared_placement.clone(),
        structure.graph.clone(),
        structure.tree.clone(),
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

    let (site_tx, site_rx) = traced_unbounded();
    let site_thread = {
        let placement = shared_placement;
        let site = cfg.site;
        let net = net.clone();
        let history = history.clone();
        let outstanding = outstanding.clone();
        let durable = durable.clone();
        let crashed = crashed.clone();
        let opts = opts.clone();
        std::thread::Builder::new()
            .name(format!("site-{}", site.0))
            .spawn(move || {
                let store = recovered_store(&placement, site, &mut durable.lock());
                setup
                    .into_runtime(
                        store,
                        site_rx,
                        net,
                        placement,
                        history,
                        outstanding,
                        durable,
                        crashed,
                        opts,
                    )
                    .run()
            })
            // replint: allow(RL008) -- OS thread exhaustion at startup is fatal by design
            .expect("spawn site thread")
    };

    let listener = TcpListener::bind(&cfg.listen)?;
    // The launcher contract: exactly this line, first, on stdout.
    println!("repld: site {} listening on {}", cfg.site.0, listener.local_addr()?);

    let shared = Arc::new(Shared {
        me: cfg.site,
        fingerprint,
        tcp,
        net,
        site_tx,
        durable,
        history,
        outstanding,
        peers: Mutex::new(cfg.peers),
        opts,
        shutdown: AtomicBool::new(false),
        decode_errors: AtomicU64::new(0),
    });

    // Dialer: keep every addressed peer connected, pacing each peer's
    // reconnect attempts with the jittered-exponential retry policy (a
    // partitioned peer is probed ever more slowly, up to the cap; a
    // successful dial resets its backoff).
    let dialer = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("dialer".into())
            .spawn(move || {
                let retry = &shared.opts.retry;
                let mut attempts = vec![0u32; n];
                let mut next_try = vec![Instant::now(); n];
                while !shared.shutdown.load(Ordering::SeqCst) {
                    for p in (0..n as u32).map(SiteId) {
                        if p == shared.me || shared.tcp.out[p.index()].lock().is_some() {
                            attempts[p.index()] = 0;
                            continue;
                        }
                        if Instant::now() < next_try[p.index()] {
                            continue;
                        }
                        let addr = shared.peers.lock().get(p).map(str::to_owned);
                        let Some(addr) = addr else { continue };
                        let ok = dial_peer(&shared, p, &addr);
                        shared.net.note_dial(shared.me, p, ok);
                        if ok {
                            attempts[p.index()] = 0;
                        } else {
                            let delay = retry.delay(attempts[p.index()]);
                            attempts[p.index()] = attempts[p.index()].saturating_add(1);
                            next_try[p.index()] = Instant::now() + delay;
                        }
                    }
                    policy::pace(retry.base);
                }
            })
            // replint: allow(RL008) -- OS thread exhaustion at startup is fatal by design
            .expect("spawn dialer")
    };

    // Accept loop. `Shutdown` unblocks it by dialing the listener.
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("conn".into())
            .spawn(move || handle_conn(&shared, stream));
    }

    let _ = shared.site_tx.send(Command::Shutdown);
    crashed.store(true, Ordering::SeqCst); // in case the queue is wedged
    let _ = site_thread.join();
    let _ = dialer.join();
    Ok(())
}

/// Establish `me -> peer`: connect, handshake, install the stream,
/// prune to the peer's durable mark and replay the rest, then leave an
/// ack reader behind. Returns whether the connection was established
/// (feeding the dial backoff and the peer-health table).
fn dial_peer(shared: &Arc<Shared>, peer: SiteId, addr: &str) -> bool {
    let Ok(mut candidates) = addr.to_socket_addrs() else { return false };
    let Some(sockaddr) = candidates.next() else { return false };
    let Ok(stream) = TcpStream::connect_timeout(&sockaddr, shared.opts.retry.connect_timeout)
    else {
        return false;
    };
    let hello = Hello {
        site: shared.me,
        version_min: VERSION_MIN,
        version_max: VERSION_MAX,
        cluster: shared.fingerprint,
    };
    let mut hs = &stream;
    let ack: HelloAck = match client_handshake(&mut hs, &hello) {
        Ok(ack) => ack,
        Err(_) => return false,
    };
    if ack.site != peer {
        return false; // mis-addressed: the process at `addr` is another site
    }
    let Ok(write_half) = stream.try_clone() else { return false };
    let generation = {
        let mut slot = shared.tcp.out[peer.index()].lock();
        *slot = Some(OutConn { stream: write_half, version: ack.version, frames: Vec::new() });
        shared.tcp.out_gen[peer.index()].fetch_add(1, Ordering::SeqCst) + 1
    };
    // Prune + replay under the lane lock; a racing fresh send either
    // waits for the replay or is itself replayed (its early duplicate
    // is gap-dropped by the receiver).
    shared.net.resume(shared.me, peer, ack.resume_seq);

    let shared = shared.clone();
    let _ = std::thread::Builder::new().name(format!("ack-{}", peer.0)).spawn(move || {
        let mut reader = stream;
        // Any non-Ack frame is a protocol violation and also ends the loop.
        while let Ok(WireMsg::Ack { seq }) = read_msg(&mut reader) {
            shared.net.on_ack(shared.me, peer, seq);
        }
        // The connection died; clear the slot (unless a newer
        // connection already took it) so the dialer reconnects.
        if shared.tcp.out_gen[peer.index()].load(Ordering::SeqCst) == generation {
            *shared.tcp.out[peer.index()].lock() = None;
        }
    });
    true
}

/// Classify an inbound connection by its first frame: a peer (`Hello`)
/// or a client session (`Client`).
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let first = match read_msg(&mut reader) {
        Ok(msg) => msg,
        Err(_) => return,
    };
    match first {
        WireMsg::Hello(hello) => handle_peer(shared, stream, reader, hello),
        WireMsg::Client(msg) => client_session(shared, stream, reader, msg),
        _ => (), // protocol violation; drop the connection
    }
}

/// Accepter side of a peer connection: validate, reply `HelloAck` with
/// our durable resume point, then pump `Link` frames into the site
/// inbox until the connection dies.
fn handle_peer(shared: &Arc<Shared>, stream: TcpStream, mut reader: TcpStream, hello: Hello) {
    let mut writer = stream;
    if hello.cluster != shared.fingerprint {
        let _ = write_msg(&mut writer, &WireMsg::Reject("cluster fingerprint mismatch".into()));
        return;
    }
    let Some(version) =
        negotiate((VERSION_MIN, VERSION_MAX), (hello.version_min, hello.version_max))
    else {
        let _ = write_msg(&mut writer, &WireMsg::Reject("no common protocol version".into()));
        return;
    };
    let from = hello.site;
    if from == shared.me || from.index() >= shared.tcp.out.len() {
        let _ = write_msg(&mut writer, &WireMsg::Reject("bad peer site id".into()));
        return;
    }
    let resume_seq = shared.durable.lock().applied_from[from.index()];
    let ack = HelloAck { version, site: shared.me, resume_seq };
    if write_msg(&mut writer, &WireMsg::HelloAck(ack)).is_err() {
        return;
    }
    // Future acks for this link go out on this connection. A superseded
    // connection's stale entry is cleared by its first failing write.
    *shared.tcp.acks[from.index()].lock() = Some(writer);
    // Any frame other than Link/Batch is a protocol violation and also
    // ends the loop.
    loop {
        let event = match read_msg(&mut reader) {
            Ok(WireMsg::Link { seq, payload }) => TransportEvent::Frame { from, seq, payload },
            Ok(WireMsg::Batch { first_seq, payloads }) => {
                TransportEvent::Batch { from, first_seq, payloads }
            }
            _ => break,
        };
        shared.tcp.inbox.lock().push_back(event);
        if shared.site_tx.send(Command::Wake).is_err() {
            break;
        }
    }
}

/// Serve one client session: a request/reply loop over framed
/// [`ClientMsg`]/[`ClientReply`] pairs.
fn client_session(
    shared: &Arc<Shared>,
    stream: TcpStream,
    mut reader: TcpStream,
    first: ClientMsg,
) {
    let mut writer = stream;
    let mut next = Some(first);
    loop {
        let msg = match next.take() {
            Some(msg) => msg,
            None => match read_msg(&mut reader) {
                Ok(WireMsg::Client(msg)) => msg,
                // A well-framed but mis-typed frame on a client
                // connection, or a frame that does not decode at all
                // (malformed or oversized): refuse it with a typed
                // error so the client learns *why*, count it, and
                // close — framing may be lost, so the stream cannot
                // be trusted further.
                Ok(other) => {
                    shared.decode_errors.fetch_add(1, Ordering::SeqCst);
                    let reply = ClientReply::Err(format!(
                        "expected a client request frame, got {}",
                        other.kind_name()
                    ));
                    let _ = write_msg(&mut writer, &WireMsg::Reply(reply));
                    break;
                }
                Err(ReadError::Decode(e)) => {
                    shared.decode_errors.fetch_add(1, Ordering::SeqCst);
                    let reply = ClientReply::Err(format!("malformed request: {e}"));
                    let _ = write_msg(&mut writer, &WireMsg::Reply(reply));
                    break;
                }
                Err(ReadError::Io(_)) => break,
            },
        };
        let stop = matches!(msg, ClientMsg::Shutdown);
        let mut frame = Vec::new();
        frame_client_reply(shared, msg, &mut frame);
        if writer.write_all(&frame).and_then(|()| writer.flush()).is_err() {
            break;
        }
        if stop {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `serve` can return.
            if let Ok(addr) = writer.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            break;
        }
    }
}

/// Carry out one client request and append its reply frame to `out`.
fn frame_client_reply(shared: &Arc<Shared>, msg: ClientMsg, out: &mut Vec<u8>) {
    const SITE_DOWN: &str = "site is down";
    let reply = match msg {
        ClientMsg::Execute(ops) => {
            let (reply_tx, reply_rx) = bounded(1);
            let sent = shared.site_tx.send(Command::Execute { ops, reply: reply_tx });
            ClientReply::Executed(match sent.ok().and_then(|()| reply_rx.recv().ok()) {
                Some(Ok(gid)) => Ok(gid),
                Some(Err(e)) => Err(exec_error(e)),
                None => Err(ExecError::Disconnected),
            })
        }
        ClientMsg::Peek(item) => {
            let (reply_tx, reply_rx) = bounded(1);
            let sent = shared.site_tx.send(Command::Peek { item, reply: reply_tx });
            ClientReply::Cell(sent.ok().and_then(|()| reply_rx.recv().ok()).flatten())
        }
        ClientMsg::Stats => {
            let (peers_up, peers_suspect, peers_down) = shared.net.health_counts(
                shared.me,
                shared.opts.suspect_after,
                shared.opts.down_after,
            );
            ClientReply::Stats {
                outstanding: shared.outstanding.load(Ordering::SeqCst),
                committed: shared.history.lock().committed_count(),
                decode_errors: shared.decode_errors.load(Ordering::SeqCst),
                peers_up,
                peers_suspect,
                peers_down,
            }
        }
        ClientMsg::CopyState => {
            let (reply_tx, reply_rx) = bounded(1);
            let sent = shared.site_tx.send(Command::CopyState { reply: reply_tx });
            match sent.ok().and_then(|()| reply_rx.recv().ok()) {
                Some(bytes) => ClientReply::State(bytes),
                None => ClientReply::Err(SITE_DOWN.into()),
            }
        }
        ClientMsg::Peers(entries) => {
            let mut peers = shared.peers.lock();
            for (site, addr) in entries {
                peers.insert(site, addr);
            }
            ClientReply::Ok
        }
        ClientMsg::KillConn(peer) => {
            if peer.index() < shared.tcp.out.len() {
                shared.tcp.kill_conn(peer);
                ClientReply::Ok
            } else {
                ClientReply::Err(format!("no such peer {peer}"))
            }
        }
        ClientMsg::Shutdown => ClientReply::Ok,
        // The history log already is the reply body: one segment of it
        // framed as it stands, never decoded into a typed reply.
        ClientMsg::History { from } => {
            return shared.history.lock().frame_page_into(from, out);
        }
    };
    WireMsg::Reply(reply).encode_framed_into(out);
}

/// Map the typed client error to its wire spelling (shared with the
/// epoll reactor, so both `repld` modes reply identically).
pub(crate) fn exec_error(e: ClusterError) -> ExecError {
    match e {
        ClusterError::NoCopy(s, i) => ExecError::NoCopy(s, i),
        ClusterError::NotPrimary(s, i) => ExecError::NotPrimary(s, i),
        ClusterError::NoSuchSite(s) => ExecError::NoSuchSite(s),
        ClusterError::Disconnected => ExecError::Disconnected,
        ClusterError::Backpressure { peer, queued } => ExecError::Backpressure { peer, queued },
        other => ExecError::Other(other.to_string()),
    }
}
