//! The site reactor: one thread, one readiness loop, every connection.
//!
//! A [`Reactor`] runs one site's [`SiteCore`] over real sockets: it owns
//! *every* connection — the listener, the dialed peer links, the
//! accepted peer links, and an arbitrary number of client sessions —
//! from a single nonblocking thread driving a level-triggered epoll set
//! (the `epoll` shim). That is what lets one site hold thousands of
//! concurrent client connections on a couple of megabytes of buffers
//! instead of thousands of stacks. It is the only site driver:
//! [`serve_epoll`] runs one as a `repld` process, the in-process
//! `Cluster` one per thread, both booted by [`Reactor::boot`]
//! (EXPERIMENTS.md, "TCP drivers" and "One site shell").
//!
//! Topology: every site dials every peer it has an address for. The
//! connection `C(S → T)` is established by `S` with a
//! [`repl_net::Hello`] / [`repl_net::HelloAck`] handshake (protocol
//! version negotiation plus a cluster fingerprint check) and is used
//! bidirectionally: `S` writes `Link` frames carrying propagation
//! payloads straight from its link log, `T` writes cumulative `Ack`
//! frames back on the same socket. When either side observes an error
//! the connection closes and `S` re-dials with bounded backoff;
//! `HelloAck.resume_seq` — `T`'s durable per-link high-water mark —
//! prunes `S`'s outbox and everything above it is replayed in sequence
//! order ([`Net::resume`]), so delivery stays exactly-once in-order
//! across real connection drops, and across an in-process site's crash
//! and restart.
//!
//! Structure of the loop, in the order each iteration runs it:
//!
//! 0. Return at once if the stop flag is set (an in-process crash).
//! 1. `epoll_wait` (1 ms timeout — the protocol tick). For each ready
//!    fd: accept new connections, or read until a short read drains the
//!    socket through a [`FrameReader`] and act on each frame as it
//!    decodes (a `Link` frame is applied before the next is decoded), or
//!    flush a write-blocked connection.
//! 2. Re-dial missing peer connections (paced, nonblocking after
//!    connect) and run the site's timers ([`SiteCore::tick`]).
//! 3. Finish an eager-phase transaction whose BackEdge special came
//!    home, and start queued client transactions
//!    ([`Reactor::pump_exec`]).
//! 4. Flush every connection: its private bytes (handshakes, client
//!    replies), then a dialed peer link's log from its send cursor, or an
//!    accepted one's owed cumulative `Ack`. Register `EPOLLOUT` interest
//!    only while the socket refused bytes (the level-triggered discipline
//!    — otherwise an idle writable socket would wake the loop forever).
//!
//! **Backpressure.** Sends never block and never retry: a send appends
//! to the link's log ([`crate::link`]), and the flush writes the log
//! from its cursor to the socket with one nonblocking `write`. What the
//! kernel refuses — part of a frame included — stays in the log past
//! the cursor and goes on the next flush, so no byte is written twice; a
//! reconnect (`HelloAck.resume_seq`) replays from the front
//! ([`Net::resume`]), and the receiver's durable dedup marks make that
//! overlap exactly-once. An outgoing byte is staged in one place: the
//! link log, or a connection's private buffer for everything else (a
//! reply page of at most [`repl_net::PAGE_BYTES`], and an ack frame the
//! socket refused).
//!
//! **Eager phases.** A BackEdge transaction waits for its special to
//! come home. The reactor parks the *transaction*, not the loop:
//! `in_flight` holds it (clients behind it queue, so the site stays
//! serial), link frames keep flowing, and when [`SiteCore::take_home`]
//! fires the loop completes the commit and replies.
//!
//! **Blocking discipline.** Every fd is nonblocking; all raw socket
//! calls funnel through three audited helpers at the bottom of this
//! file — link bytes too: [`Net::flush`] writes through the
//! `write_some` sink it is handed. replint rule RL009 rejects any other
//! `read`/`write`/`accept` call site in this file, so the no-blocking
//! property is mechanically enforced. The two deliberate exceptions are
//! startup-shaped: `TcpListener::bind` and the paced, timeout-capped
//! `TcpStream::connect_timeout` in the dialer.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use epoll::{Epoll, Interest};
use repl_copygraph::DataPlacement;
use repl_net::{
    cluster_fingerprint, negotiate, ClientMsg, ClientReply, ExecError, FrameReader, Hello,
    HelloAck, NetError, WireMsg, VERSION_MAX, VERSION_MIN,
};
use repl_types::{AddressMap, GlobalTxnId, Op, SiteId};

use crate::cluster::{build_structure, ClusterError, RuntimeProtocol};
use crate::link::{link_marks, WriteBuf};
use crate::nemesis::ChaosWire;
use crate::policy::RuntimeOptions;
use crate::site::{SiteCore, SiteParts, SiteSetup, Started};
use crate::transport::{Direct, Transport};

/// The epoll token of the listening socket; connection tokens are slab
/// indices, far below.
const LISTENER: u64 = u64::MAX;
/// `epoll_wait` timeout — the protocol tick granularity.
const TICK_MS: i32 = 1;
/// A client connection whose reply buffer exceeds this is not reading
/// its replies; it is dropped rather than allowed to grow the buffer
/// unboundedly.
const CLIENT_WBUF_CAP: usize = 1 << 20;
/// After a client `Shutdown`, how long the loop keeps flushing before
/// exiting regardless.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);
/// Stack scratch buffer for socket reads.
const READ_CHUNK: usize = 16 * 1024;

/// What one registered connection currently is.
#[derive(Clone, Copy, Debug)]
enum Role {
    /// Accepted, nothing read yet: the first frame decides (peer
    /// `Hello` or a client request).
    Pending,
    /// Accepted peer link: we read `Link` frames from `from` and write
    /// `Ack` frames back.
    PeerIn { from: SiteId },
    /// Dialed peer link, `Hello` sent, `HelloAck` not yet received.
    PeerOutHs { peer: SiteId },
    /// Dialed peer link, established: we write `Link` frames and read
    /// cumulative `Ack`s.
    PeerOut { peer: SiteId },
    /// A client session speaking framed `ClientMsg`/`ClientReply`.
    Client,
}

/// Per-connection state in the reactor's slab.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Connection-private outgoing bytes: handshakes, client replies,
    /// and an ack frame the socket refused. Link frames go from the link
    /// log instead, so the outbox/backpressure accounting sees one number
    /// per peer.
    wbuf: WriteBuf,
    role: Role,
    /// Whether the current epoll registration includes `EPOLLOUT`.
    want_write: bool,
    /// Close once `wbuf` drains (used to land a final error reply).
    closing: bool,
}

/// A client transaction parked in its BackEdge eager phase: committed
/// nowhere yet, waiting for [`SiteCore::take_home`].
struct InFlight {
    /// Slab token of the client connection awaiting the reply
    /// (`usize::MAX` once that connection died — the commit still
    /// completes; the reply is dropped).
    token: usize,
    gid: GlobalTxnId,
    ops: Vec<Op>,
}

/// Configuration of one `repld` site process.
pub struct ServeConfig {
    /// This process's site.
    pub site: SiteId,
    /// The cluster-wide placement (identical in every process).
    pub placement: DataPlacement,
    /// The propagation protocol (identical in every process).
    pub protocol: RuntimeProtocol,
    /// Listen address, an IP and a port; use port 0 to bind
    /// ephemerally — the bound address is printed to stdout for
    /// launchers to harvest.
    pub listen: String,
    /// Peer addresses, each an IP and a port. May be incomplete (even
    /// empty) at start; a launcher can push the full map later with
    /// [`ClientMsg::Peers`].
    pub peers: AddressMap,
    /// Timing/bound knobs, including the optional nemesis plan
    /// (`repld --nemesis`). [`RuntimeOptions::default`] for a clean
    /// deployment.
    pub options: RuntimeOptions,
}

/// Map the typed client error to its wire spelling.
fn exec_error(e: ClusterError) -> ExecError {
    match e {
        ClusterError::NoCopy(s, i) => ExecError::NoCopy(s, i),
        ClusterError::NotPrimary(s, i) => ExecError::NotPrimary(s, i),
        ClusterError::NoSuchSite(s) => ExecError::NoSuchSite(s),
        ClusterError::Disconnected => ExecError::Disconnected,
        ClusterError::Backpressure { peer, queued } => ExecError::Backpressure { peer, queued },
        ClusterError::EagerTimeout(gid) => ExecError::EagerTimeout(gid),
        other => ExecError::Other(other.to_string()),
    }
}

/// Parse a listen or peer address: an IP literal and a port. A host
/// name is refused, not resolved — resolving would block the site's one
/// thread on the system resolver at every dial.
fn socket_addr(addr: &str) -> Result<SocketAddr, String> {
    addr.parse().map_err(|_| format!("address {addr:?} is not an IP address and a port"))
}

/// Run one site as this process on a single-threaded nonblocking epoll
/// reactor — what `repld` does. Parses every address, binds
/// `cfg.listen`, prints the `repld: site N listening on ADDR` banner
/// first on stdout (the launcher contract), and serves peer and client
/// connections until a client sends [`ClientMsg::Shutdown`].
pub fn serve_epoll(cfg: ServeConfig) -> io::Result<()> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
    let structure =
        build_structure(&cfg.placement, cfg.protocol).map_err(|e| invalid(e.to_string()))?;
    let n = cfg.placement.num_sites() as usize;
    if cfg.site.index() >= n {
        return Err(invalid("site id out of range".into()));
    }
    let listen = socket_addr(&cfg.listen).map_err(|e| invalid(format!("listen {e}")))?;
    let mut peers = vec![None; n];
    for (site, addr) in cfg.peers.iter() {
        let slot =
            peers.get_mut(site.index()).ok_or_else(|| invalid(format!("no such site {site}")))?;
        let addr = socket_addr(addr).map_err(|e| invalid(format!("peer {site} {e}")))?;
        // The first address recorded for a site, as `AddressMap::get`.
        slot.get_or_insert(addr);
    }
    let parts = SiteParts::new(n, cfg.options.group_commit_batch);
    let fingerprint = cluster_fingerprint(cfg.placement.per_item_spec(), cfg.protocol.name());
    // The one copy of the placement in this process.
    let placement = Arc::new(cfg.placement);
    let setup = SiteSetup::new(cfg.site, cfg.protocol, placement, &structure)
        .map_err(|e| invalid(e.to_string()))?;
    let (opts, stop) = (Arc::new(cfg.options), Arc::default());
    let listener = Listener::bind(listen)?;
    let addr = listener.local_addr()?;
    let mut reactor = Reactor::boot(listener, setup, parts, opts, fingerprint, peers, stop);
    // The launcher contract: exactly this line, first, on stdout.
    println!("repld: site {} listening on {addr}", cfg.site.0);
    reactor.run()
}

/// A listening socket in a fresh epoll set: the fallible half of a
/// boot, done before the site's state is handed over.
pub(crate) struct Listener {
    epoll: Epoll,
    listener: TcpListener,
}

impl Listener {
    pub(crate) fn bind(listen: SocketAddr) -> io::Result<Listener> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        Ok(Listener { epoll, listener })
    }

    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

/// One site's readiness loop and everything it owns.
pub(crate) struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    me: SiteId,
    num_sites: usize,
    fingerprint: u64,
    core: SiteCore,
    /// Slab of connections; the epoll token of a connection is its
    /// index here.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Token of the connection we dialed to each peer (reserved from
    /// dial time, through the handshake, until close).
    out_conn: Vec<Option<usize>>,
    /// Token of the connection each peer dialed to us.
    in_conn: Vec<Option<usize>>,
    /// Each peer's address, once known.
    peers: Vec<Option<SocketAddr>>,
    /// Client transactions not yet started (FIFO — the site is serial).
    exec_queue: VecDeque<(usize, Vec<Op>)>,
    /// The one transaction inside its eager phase, if any.
    in_flight: Option<InFlight>,
    /// Client request frames refused because they did not decode.
    decode_errors: u64,
    /// Consecutive failed dial attempts per peer — the exponent fed to
    /// the [`crate::RetryPolicy`] backoff; reset on successful connect.
    dial_attempts: Vec<u32>,
    /// Per-peer earliest next dial time (jittered exponential backoff).
    next_dial: Vec<Instant>,
    /// Set when a client requested shutdown: drain-and-exit deadline.
    shutdown: Option<Instant>,
    events: Vec<epoll::Event>,
    /// What `read` fills on a readable event, allocated once.
    read_buf: Vec<u8>,
    /// Checked once a pass: when set, [`Reactor::run`] returns.
    stop: Arc<AtomicBool>,
}

impl Reactor {
    /// Boot a site on `listener` from `setup` and the `parts` it takes
    /// over, its wire under the nemesis if `opts` carry one. `stop` makes
    /// [`Reactor::run`] return at its next pass, and
    /// [`Reactor::into_parts`] hands the parts back; call both on the
    /// booting thread, which recovered the store.
    pub(crate) fn boot(
        Listener { epoll, listener }: Listener,
        setup: SiteSetup,
        parts: SiteParts,
        opts: Arc<RuntimeOptions>,
        fingerprint: u64,
        peers: Vec<Option<SocketAddr>>,
        stop: Arc<AtomicBool>,
    ) -> Reactor {
        let n = parts.links.len();
        let me = setup.site();
        let raw: Box<dyn Transport> = match &opts.nemesis {
            Some(plan) => Box::new(ChaosWire::new(me, plan.clone(), n)),
            None => Box::new(Direct),
        };
        let core = setup.into_core(parts, raw, opts);
        Reactor {
            epoll,
            listener,
            me,
            num_sites: n,
            fingerprint,
            core,
            conns: Vec::new(),
            free: Vec::new(),
            out_conn: vec![None; n],
            in_conn: vec![None; n],
            peers,
            exec_queue: VecDeque::new(),
            in_flight: None,
            decode_errors: 0,
            dial_attempts: vec![0; n],
            next_dial: vec![Instant::now(); n],
            shutdown: None,
            events: Vec::new(),
            read_buf: vec![0; READ_CHUNK],
            stop,
        }
    }

    /// Stop: drop every connection and hand back what outlives this run
    /// of the site.
    pub(crate) fn into_parts(self) -> SiteParts {
        self.core.into_parts()
    }

    /// Serve until a client's `Shutdown` has drained or `stop` is set.
    pub(crate) fn run(&mut self) -> io::Result<()> {
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            self.epoll.wait(&mut events, TICK_MS)?;
            for ev in &events {
                self.on_event(*ev);
            }
            self.events = events;

            self.dial_missing();
            self.core.tick();
            self.finish_in_flight();
            self.pump_exec();
            self.flush_all();

            if let Some(deadline) = self.shutdown {
                let drained = self.conns.iter().flatten().all(|c| c.wbuf.is_empty());
                if drained || Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }

    fn on_event(&mut self, ev: epoll::Event) {
        if ev.token == LISTENER {
            self.accept_all();
            return;
        }
        let tok = ev.token as usize;
        if self.conns.get(tok).is_none_or(Option::is_none) {
            return; // closed earlier this iteration; stale readiness
        }
        if ev.readable || ev.error {
            // Errors are discovered by reading: a reset surfaces as a
            // read error, a clean FIN as EOF — both close the slot.
            self.handle_readable(tok);
        }
        if ev.writable {
            self.flush_conn(tok);
        }
    }

    fn accept_all(&mut self) {
        loop {
            match accept_some(&self.listener) {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.install_conn(stream, Role::Pending);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (aborted
                // handshake, fd pressure): drop that connection, keep
                // listening.
                Err(_) => return,
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream, role: Role) -> Option<usize> {
        let tok = match self.free.pop() {
            Some(tok) => tok,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self.epoll.add(stream.as_raw_fd(), tok as u64, Interest::READ).is_err() {
            self.free.push(tok);
            return None;
        }
        self.conns[tok] = Some(Conn {
            stream,
            reader: FrameReader::new(),
            wbuf: WriteBuf::default(),
            role,
            want_write: false,
            closing: false,
        });
        Some(tok)
    }

    /// Read until a short read, `WouldBlock` or EOF, acting on each
    /// frame as it decodes — until one closes or re-fates the connection;
    /// the rest is dropped. Under level-triggered epoll a short read means
    /// the socket was drained: whatever arrives after it, EOF included, is
    /// reported again, so no read is spent on the `WouldBlock`.
    fn handle_readable(&mut self, tok: usize) {
        let mut acting = true;
        loop {
            let Some(conn) = self.conns[tok].as_mut() else { return };
            let count = match read_some(&mut conn.stream, &mut self.read_buf) {
                Ok(0) => break,
                Ok(count) => count,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if acting {
                conn.reader.feed(&self.read_buf[..count]);
            }
            while acting {
                let Some(conn) = self.conns[tok].as_mut() else { return };
                match conn.reader.next_msg() {
                    Ok(Some(msg)) => acting = self.process_msg(tok, msg),
                    Ok(None) => break,
                    Err(e) => return self.on_decode_error(tok, e),
                }
            }
            if count < self.read_buf.len() {
                return;
            }
        }
        if acting {
            self.close_conn(tok);
        }
    }

    /// Act on one decoded frame. Returns false if `tok` is no longer a
    /// live connection afterwards.
    fn process_msg(&mut self, tok: usize, msg: WireMsg) -> bool {
        let Some(role) = self.conns[tok].as_ref().map(|c| c.role) else { return false };
        match role {
            Role::Pending => match msg {
                WireMsg::Hello(hello) => self.setup_peer_in(tok, hello),
                WireMsg::Client(m) => {
                    if let Some(conn) = self.conns[tok].as_mut() {
                        conn.role = Role::Client;
                    }
                    self.handle_client_msg(tok, m)
                }
                other => self.refuse_client_frame(tok, &other),
            },
            Role::PeerIn { from } => match msg {
                WireMsg::Link { seq, payload } => {
                    self.core.apply_frame(from, seq, payload);
                    true
                }
                _ => {
                    // Protocol violation (a `Batch` frame included: this
                    // build advertises no version that carries one);
                    // drop the link, let it re-dial.
                    self.close_conn(tok);
                    false
                }
            },
            Role::PeerOutHs { peer } => match msg {
                WireMsg::HelloAck(ack) => self.establish_peer_out(tok, peer, ack),
                // Reject, or anything else: this link cannot come up.
                _ => {
                    self.close_conn(tok);
                    false
                }
            },
            Role::PeerOut { peer } => match msg {
                WireMsg::Ack { seq } => {
                    self.core.net.on_ack(peer, seq);
                    true
                }
                _ => {
                    self.close_conn(tok);
                    false
                }
            },
            Role::Client => match msg {
                WireMsg::Client(m) => self.handle_client_msg(tok, m),
                other => self.refuse_client_frame(tok, &other),
            },
        }
    }

    /// Accepter side of the peer handshake: validate the `Hello`, reply
    /// `HelloAck` with our durable resume point.
    fn setup_peer_in(&mut self, tok: usize, hello: Hello) -> bool {
        let reject = |this: &mut Self, tok: usize, why: &str| {
            this.queue_msg(tok, &WireMsg::Reject(why.into()));
            if let Some(conn) = this.conns[tok].as_mut() {
                conn.closing = true;
            }
            false
        };
        if hello.cluster != self.fingerprint {
            return reject(self, tok, "cluster fingerprint mismatch");
        }
        let Some(version) =
            negotiate((VERSION_MIN, VERSION_MAX), (hello.version_min, hello.version_max))
        else {
            return reject(self, tok, "no common protocol version");
        };
        let from = hello.site;
        if from == self.me || from.index() >= self.num_sites {
            return reject(self, tok, "bad peer site id");
        }
        // A reconnecting peer supersedes its old link.
        if let Some(old) = self.in_conn[from.index()] {
            if old != tok {
                self.close_conn(old);
            }
        }
        let resume_seq = self.core.durable.applied_from[from.index()];
        self.queue_msg(tok, &WireMsg::HelloAck(HelloAck { version, site: self.me, resume_seq }));
        if let Some(conn) = self.conns[tok].as_mut() {
            conn.role = Role::PeerIn { from };
        }
        self.in_conn[from.index()] = Some(tok);
        true
    }

    /// Dialer side: `HelloAck` received — the link is up; prune to the
    /// peer's durable mark, and the flush writes the rest of the log.
    fn establish_peer_out(&mut self, tok: usize, peer: SiteId, ack: HelloAck) -> bool {
        if ack.site != peer {
            // Mis-addressed: the process at that address is another site.
            self.close_conn(tok);
            return false;
        }
        if ack.version < VERSION_MIN || ack.version > VERSION_MAX {
            // The accepter chose a version outside our advertised range.
            self.close_conn(tok);
            return false;
        }
        if let Some(conn) = self.conns[tok].as_mut() {
            conn.role = Role::PeerOut { peer };
        }
        self.core.net.resume(peer, ack.resume_seq);
        true
    }

    /// Dial pass: one nonblocking-after-connect attempt per peer
    /// missing its outgoing link and past its per-peer backoff deadline
    /// ([`crate::RetryPolicy`] jittered exponential — a dead peer is
    /// probed ever less often, a fresh failure retries fast).
    fn dial_missing(&mut self) {
        let now = Instant::now();
        for p in (0..self.num_sites as u32).map(SiteId) {
            if p == self.me || self.out_conn[p.index()].is_some() || now < self.next_dial[p.index()]
            {
                continue;
            }
            // No address yet (the launcher has not pushed `Peers`): there
            // is nothing to dial, which is not a failed dial — it must
            // neither count against the peer's health nor arm a backoff.
            if self.peers[p.index()].is_none() {
                continue;
            }
            let ok = self.dial_one(p);
            self.core.net.note_dial(p, ok);
            if ok {
                self.dial_attempts[p.index()] = 0;
            } else {
                let retry = &self.core.opts.retry;
                self.next_dial[p.index()] = now + retry.delay(self.dial_attempts[p.index()]);
                self.dial_attempts[p.index()] = self.dial_attempts[p.index()].saturating_add(1);
            }
        }
    }

    /// One connect attempt toward `p`. True once the `Hello` is queued
    /// on an installed connection (the handshake itself completes
    /// asynchronously on the readiness loop).
    fn dial_one(&mut self, p: SiteId) -> bool {
        let Some(addr) = self.peers[p.index()] else { return false };
        let connect_timeout = self.core.opts.retry.connect_timeout;
        let Ok(stream) = TcpStream::connect_timeout(&addr, connect_timeout) else {
            return false;
        };
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let _ = stream.set_nodelay(true);
        let Some(tok) = self.install_conn(stream, Role::PeerOutHs { peer: p }) else {
            return false;
        };
        // Reserve the slot through the handshake so the next dial
        // pass does not double-dial.
        self.out_conn[p.index()] = Some(tok);
        self.queue_msg(
            tok,
            &WireMsg::Hello(Hello {
                site: self.me,
                version_min: VERSION_MIN,
                version_max: VERSION_MAX,
                cluster: self.fingerprint,
            }),
        );
        true
    }

    /// One client request. Execute is queued (the site is serial and an
    /// eager phase may be parked); everything else answers immediately.
    fn handle_client_msg(&mut self, tok: usize, msg: ClientMsg) -> bool {
        match msg {
            ClientMsg::Execute(ops) => {
                self.exec_queue.push_back((tok, ops));
                true
            }
            ClientMsg::Peek(item) => {
                self.queue_reply(tok, ClientReply::Cell(self.core.peek(item)));
                true
            }
            ClientMsg::Stats => {
                let (peers_up, peers_suspect, peers_down) = self.core.health_counts();
                let reply = ClientReply::Stats {
                    outstanding: self.core.outstanding,
                    committed: self.core.history.committed_count(),
                    decode_errors: self.decode_errors,
                    peers_up,
                    peers_suspect,
                    peers_down,
                    links: link_marks(self.core.net.links(), &self.core.durable.applied_from),
                };
                self.queue_reply(tok, reply);
                true
            }
            // The two bulk replies are paged, at most `PAGE_BYTES` of
            // whole transactions or cells a reply, and framed straight
            // from the site's state into the connection buffer: the
            // history log's bytes already are the reply body, and the
            // copy-state cells stream off the store.
            ClientMsg::History { from } => {
                self.queue_frame(tok, |core, out| core.history.frame_page_into(from, out));
                true
            }
            ClientMsg::CopyState { from } => {
                self.queue_frame(tok, |core, out| core.frame_state_page(from, out));
                true
            }
            ClientMsg::Peers(entries) => {
                // All or nothing: a push naming a site outside the
                // placement, or an address that is not an IP and a
                // port, changes no entry.
                let parsed: Result<Vec<(SiteId, SocketAddr)>, String> = entries
                    .iter()
                    .map(|(site, addr)| {
                        if site.index() >= self.num_sites {
                            return Err(format!("no such site {site}"));
                        }
                        socket_addr(addr).map(|a| (*site, a))
                    })
                    .collect();
                let entries = match parsed {
                    Ok(entries) => entries,
                    Err(e) => {
                        self.queue_reply(tok, ClientReply::Err(e));
                        return true;
                    }
                };
                let now = Instant::now();
                for (site, addr) in entries {
                    // A newly learned (or changed) address is dialed on
                    // this very pass, not after a backoff it never earned.
                    if self.peers[site.index()] != Some(addr) {
                        self.next_dial[site.index()] = now;
                        self.dial_attempts[site.index()] = 0;
                    }
                    self.peers[site.index()] = Some(addr);
                }
                self.queue_reply(tok, ClientReply::Ok);
                true
            }
            ClientMsg::KillConn(peer) => {
                if peer.index() >= self.num_sites {
                    self.queue_reply(tok, ClientReply::Err(format!("no such peer {peer}")));
                } else {
                    if let Some(out) = self.out_conn[peer.index()] {
                        self.close_conn(out);
                    }
                    if let Some(inc) = self.in_conn[peer.index()] {
                        self.close_conn(inc);
                    }
                    self.queue_reply(tok, ClientReply::Ok);
                }
                true
            }
            ClientMsg::Shutdown => {
                self.queue_reply(tok, ClientReply::Ok);
                self.shutdown = Some(Instant::now() + SHUTDOWN_GRACE);
                true
            }
        }
    }

    /// A frame a client connection should not have sent: count it,
    /// answer with a typed error, close after the reply flushes.
    fn refuse_client_frame(&mut self, tok: usize, got: &WireMsg) -> bool {
        self.decode_errors += 1;
        let reply =
            ClientReply::Err(format!("expected a client request frame, got {}", got.kind_name()));
        self.queue_reply(tok, reply);
        if let Some(conn) = self.conns[tok].as_mut() {
            conn.closing = true;
        }
        false
    }

    /// The connection's byte stream stopped decoding (bad prefix,
    /// oversized claim, malformed body). For clients that is a typed,
    /// counted refusal; for peers the link just drops and re-dials.
    fn on_decode_error(&mut self, tok: usize, e: NetError) {
        let Some(role) = self.conns[tok].as_ref().map(|c| c.role) else { return };
        match role {
            Role::Pending | Role::Client => {
                self.decode_errors += 1;
                self.queue_reply(tok, ClientReply::Err(format!("malformed request: {e}")));
                if let Some(conn) = self.conns[tok].as_mut() {
                    conn.closing = true;
                }
            }
            _ => self.close_conn(tok),
        }
    }

    /// Start queued client transactions until one parks in an eager
    /// phase or waits for a prepared special's decision, or the queue
    /// empties: at most one transaction is past `start_txn` at a time.
    fn pump_exec(&mut self) {
        while self.in_flight.is_none() {
            // A head a prepared special holds waits for the decision,
            // which comes in as a link frame, not through this queue.
            if self.exec_queue.front().is_none_or(|(_, ops)| self.core.blocked(ops)) {
                return;
            }
            let Some((tok, ops)) = self.exec_queue.pop_front() else { return };
            match self.core.start_txn(&ops) {
                Err(e) => {
                    self.queue_reply(tok, ClientReply::Executed(Err(exec_error(e))));
                }
                Ok(Started { gid, immediate: true }) => {
                    self.core.complete_txn(gid, &ops);
                    self.queue_reply(tok, ClientReply::Executed(Ok(gid)));
                }
                Ok(Started { gid, immediate: false }) => {
                    self.in_flight = Some(InFlight { token: tok, gid, ops });
                }
            }
        }
    }

    /// Complete the parked eager-phase transaction once its special came
    /// home and no prepared special holds what it touches — or abort it
    /// if its armed deadline expired first (a partitioned path site
    /// would otherwise park it, and every client behind it, forever).
    fn finish_in_flight(&mut self) {
        let Some(inflight) = self.in_flight.take() else { return };
        let outcome = if self.core.blocked(&inflight.ops) || !self.core.take_home(inflight.gid) {
            if self.core.check_eager_timeout() != Some(inflight.gid) {
                self.in_flight = Some(inflight);
                return;
            }
            Err(exec_error(ClusterError::EagerTimeout(inflight.gid)))
        } else {
            self.core.complete_txn(inflight.gid, &inflight.ops);
            Ok(inflight.gid)
        };
        self.queue_reply(inflight.token, ClientReply::Executed(outcome));
        self.pump_exec();
    }

    fn queue_reply(&mut self, tok: usize, reply: ClientReply) {
        self.queue_msg(tok, &WireMsg::Reply(reply));
    }

    fn queue_msg(&mut self, tok: usize, msg: &WireMsg) {
        self.queue_frame(tok, |_, out| msg.encode_framed_into(out));
    }

    /// Let `frame` append one frame to the connection's buffer, in
    /// place, reading whatever it needs of the site.
    fn queue_frame(&mut self, tok: usize, frame: impl FnOnce(&SiteCore, &mut Vec<u8>)) {
        let overfull = {
            let Some(conn) = self.conns.get_mut(tok).and_then(Option::as_mut) else { return };
            frame(&self.core, conn.wbuf.tail());
            conn.wbuf.len() > CLIENT_WBUF_CAP
        };
        if overfull {
            // Not reading its replies; cut it loose rather than buffer
            // without bound.
            self.close_conn(tok);
        }
    }

    /// Flush every connection with buffered bytes and keep the
    /// `EPOLLOUT` registrations honest.
    fn flush_all(&mut self) {
        for tok in 0..self.conns.len() {
            self.flush_conn(tok);
        }
    }

    /// Flush one connection: private bytes first (handshakes, client
    /// replies), then — once those are through — what its role sends: a
    /// dialed peer link's log from its cursor, or an accepted one's owed
    /// ack. Keep `EPOLLOUT` interest while the socket refuses bytes, and
    /// close broken or completed `closing` connections.
    fn flush_conn(&mut self, tok: usize) {
        let Some(conn) = self.conns[tok].as_mut() else { return };
        let mut refused = false;
        let mut sink = |bytes: &[u8]| {
            let written = write_some(&mut conn.stream, bytes);
            refused |= matches!(&written, Err(e) if e.kind() == io::ErrorKind::WouldBlock);
            written
        };
        let net = &mut self.core.net;
        let mut flushed = conn.wbuf.flush(&mut sink);
        if flushed.is_ok() && conn.wbuf.is_empty() {
            flushed = match conn.role {
                Role::PeerOut { peer } => net.flush(peer, &mut sink),
                // One cumulative ack a pass; the mark stays owed while the
                // buffer holds bytes the socket refused.
                Role::PeerIn { from } => match net.take_ack(from) {
                    Some(seq) => {
                        WireMsg::Ack { seq }.encode_framed_into(conn.wbuf.tail());
                        conn.wbuf.flush(&mut sink)
                    }
                    None => Ok(()),
                },
                _ => Ok(()),
            };
        }
        let mut broken = flushed.is_err();
        if !broken && refused != conn.want_write {
            conn.want_write = refused;
            let interest = if refused { Interest::READ_WRITE } else { Interest::READ };
            broken = self.epoll.modify(conn.stream.as_raw_fd(), tok as u64, interest).is_err();
        }
        if broken || (conn.closing && conn.wbuf.is_empty()) {
            self.close_conn(tok);
        }
    }

    /// Tear down one connection and the routing that pointed at it.
    fn close_conn(&mut self, tok: usize) {
        let Some(conn) = self.conns[tok].take() else { return };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        match conn.role {
            // A frame the socket took part of dies with the connection;
            // the log replays from the peer's mark after the next handshake.
            Role::PeerOutHs { peer } | Role::PeerOut { peer } => {
                if self.out_conn[peer.index()] == Some(tok) {
                    self.out_conn[peer.index()] = None;
                }
            }
            Role::PeerIn { from } => {
                if self.in_conn[from.index()] == Some(tok) {
                    self.in_conn[from.index()] = None;
                }
            }
            Role::Pending | Role::Client => {}
        }
        // Un-queue the dead client's transactions that have not started;
        // a parked in-flight one still commits, its reply is dropped.
        self.exec_queue.retain(|(t, _)| *t != tok);
        if let Some(inflight) = self.in_flight.as_mut() {
            if inflight.token == tok {
                inflight.token = usize::MAX;
            }
        }
        self.free.push(tok);
    }
}

// ---------------------------------------------------------------------
// The only raw socket calls in this module. Every fd handed to these is
// nonblocking, so the syscalls return `WouldBlock` instead of parking
// the reactor. replint rule RL009 rejects blocking-call patterns
// anywhere else in this file.
// ---------------------------------------------------------------------

fn read_some(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    // replint: allow(RL009) -- nonblocking fd: returns WouldBlock, never parks the reactor
    stream.read(buf)
}

fn write_some(stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
    // replint: allow(RL009) -- nonblocking fd: returns WouldBlock, never parks the reactor
    stream.write(buf)
}

fn accept_some(listener: &TcpListener) -> io::Result<(TcpStream, std::net::SocketAddr)> {
    // replint: allow(RL009) -- nonblocking listener: returns WouldBlock, never parks the reactor
    listener.accept()
}
