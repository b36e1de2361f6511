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
//!    fd: accept new connections, or read — until a short read drains
//!    the socket, or [`READS_PER_EVENT`] chunks — and act on each frame
//!    as it decodes from the read buffer (a `Link` frame is applied
//!    before the next is decoded; only a frame the read cut short waits
//!    in the connection's [`FrameReader`]), or flush a write-blocked
//!    connection.
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
//! **Blocking discipline.** Every fd is nonblocking. The reactor's
//! sockets are the newtypes of the private `sock` module at the bottom
//! of this file, which set that mode when they wrap a socket and offer
//! only `read_some`, `write_some` and `accept_some` — no `Read`, no
//! `Write`, no `accept` — so a blocking call on a connection does not
//! compile outside that module. Link bytes go the same way:
//! [`Net::flush`] writes through the `write_some` sink it is handed. The
//! one deliberate wait is startup-shaped: the paced, timeout-capped
//! connect in the dialer.
//!
//! **Fair reads.** A readable event reads at most [`READS_PER_EVENT`]
//! chunks before the pass moves on to its flush. A peer that keeps the
//! socket full therefore still gets its `Ack` every pass; level-triggered
//! epoll reports the unread rest on the next one.

use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::net::SocketAddr;
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
use repl_protocol::Routing;
use repl_types::{GlobalTxnId, Op, SiteId};

use crate::census::{census_line, CENSUS};
use crate::cluster::{ClusterError, RuntimeProtocol};
use crate::config::socket_addr;
use crate::link::{link_marks, WriteBuf};
use crate::nemesis::ChaosWire;
use crate::policy::{dial_delay, RuntimeOptions};
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
/// Full reads one readable event may make before the pass moves on.
/// Bounding them lets the pass reach its flush, and with it the `Ack`
/// the peer is owed, while the peer keeps the socket full.
const READS_PER_EVENT: usize = 4;

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
    stream: sock::Stream,
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

/// Configuration of one `repld` site process, checked where it was
/// parsed: [`ServeConfig::from_args`] is the only way to build one
/// outside this crate, so [`serve_epoll`] checks nothing again.
#[non_exhaustive]
pub struct ServeConfig {
    /// This process's site, inside the placement.
    pub site: SiteId,
    /// The cluster-wide placement (identical in every process).
    pub placement: DataPlacement,
    /// The propagation protocol (identical in every process).
    pub protocol: RuntimeProtocol,
    /// The structure `protocol` propagates on over `placement`.
    pub routing: Routing,
    /// Listen address; use port 0 to bind ephemerally — the bound
    /// address is printed to stdout for launchers to harvest.
    pub listen: SocketAddr,
    /// Each site's address, indexed by site. All `None` at start when
    /// no peer was given; a launcher can push the full map later with
    /// [`ClientMsg::Peers`].
    pub peers: Vec<Option<SocketAddr>>,
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

/// Run one site as this process on a single-threaded nonblocking epoll
/// reactor — what `repld` does. Binds `cfg.listen`, prints the
/// `repld: site N listening on ADDR` banner first on stdout (the
/// launcher contract), and serves peer and client connections until a
/// client sends [`ClientMsg::Shutdown`].
pub fn serve_epoll(cfg: ServeConfig) -> io::Result<()> {
    let parts = SiteParts::new(cfg.placement.num_sites() as usize);
    let fingerprint = cluster_fingerprint(cfg.placement.per_item_spec(), cfg.protocol.name());
    // The one copy of the placement in this process.
    let placement = Arc::new(cfg.placement);
    let setup = SiteSetup::new(cfg.site, cfg.protocol, placement, &cfg.routing)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let (opts, stop) = (Arc::new(cfg.options), Arc::default());
    let listener = Listener::bind(cfg.listen)?;
    let addr = listener.local_addr()?;
    let mut reactor = Reactor::boot(listener, setup, parts, opts, fingerprint, cfg.peers, stop);
    // The launcher contract: exactly this line, first, on stdout.
    println!("repld: site {} listening on {addr}", cfg.site.0);
    let served = reactor.run();
    // One write, so sites sharing a stderr do not interleave their lines.
    let census = format!("repld: site {} census {}\n", cfg.site.0, census_line(&reactor.census()));
    let _ = io::stderr().write_all(census.as_bytes());
    // The process exits next, and the kernel takes the site's memory and
    // sockets back whole: nothing is dropped structure by structure, so
    // no teardown code runs (or sits among the hot text).
    std::mem::forget(reactor);
    served
}

/// A listening socket in a fresh epoll set: the fallible half of a
/// boot, done before the site's state is handed over.
pub(crate) struct Listener {
    epoll: Epoll,
    listener: sock::Acceptor,
}

impl Listener {
    pub(crate) fn bind(listen: SocketAddr) -> io::Result<Listener> {
        let listener = sock::Acceptor::bind(listen)?;
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
    listener: sock::Acceptor,
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
    /// the [`dial_delay`] backoff; reset on successful connect.
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

    /// The site's byte census, in [`CENSUS`] order.
    pub(crate) fn census(&self) -> [u64; CENSUS.len()] {
        let core = &self.core;
        let conns: usize = self
            .conns
            .iter()
            .flatten()
            .map(|conn| conn.reader.heap_bytes() + conn.wbuf.heap_bytes())
            .sum();
        let ops = |ops: &Vec<Op>| ops.capacity() * size_of::<Op>();
        let exec = self.exec_queue.capacity() * size_of::<(usize, Vec<Op>)>()
            + self.exec_queue.iter().map(|(_, queued)| ops(queued)).sum::<usize>()
            + self.in_flight.as_ref().map_or(0, |parked| ops(&parked.ops))
            + self.events.capacity() * size_of::<epoll::Event>()
            + self.free.capacity() * size_of::<usize>()
            + (self.out_conn.capacity() + self.in_conn.capacity()) * size_of::<Option<usize>>()
            + self.peers.capacity() * size_of::<Option<SocketAddr>>()
            + self.dial_attempts.capacity() * size_of::<u32>()
            + self.next_dial.capacity() * size_of::<Instant>();
        [
            core.store.cell_bytes(),
            core.durable.checkpoint.capacity(),
            core.durable.wal_bytes(),
            core.history.heap_bytes(),
            core.net.heap_bytes(),
            core.placement.heap_bytes(),
            self.conns.capacity() * size_of::<Option<Conn>>() + conns,
            // Allocated once at boot; lent out while a read's frames are
            // acted on, which is when a `Stats` request is answered.
            READ_CHUNK,
            core.machine_bytes(),
            core.store.lock_bytes(),
            exec,
        ]
        .map(|bytes| bytes as u64)
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
            match self.listener.accept_some() {
                Ok(stream) => {
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

    fn install_conn(&mut self, stream: sock::Stream, role: Role) -> Option<usize> {
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

    /// Read into the scratch buffer, lent out of the reactor meanwhile
    /// ([`Reactor::read_frames`]).
    fn handle_readable(&mut self, tok: usize) {
        let mut scratch = std::mem::take(&mut self.read_buf);
        self.read_frames(tok, &mut scratch);
        self.read_buf = scratch;
    }

    /// Read until a short read, `WouldBlock`, EOF or [`READS_PER_EVENT`]
    /// full reads, acting on each frame as it decodes — until one closes
    /// or re-fates the connection; the rest is dropped. Frames are
    /// decoded where they lie in `scratch`: only one a read cut short is
    /// copied, into the connection's [`FrameReader`]. Under
    /// level-triggered epoll a short read means the socket was drained:
    /// whatever arrives after it, EOF included, is reported again, so no
    /// read is spent on the `WouldBlock`; after the last full read the
    /// unread rest is reported again the same way.
    fn read_frames(&mut self, tok: usize, scratch: &mut [u8]) {
        let mut acting = true;
        let mut reads = 0;
        loop {
            let Some(conn) = self.conns[tok].as_mut() else { return };
            let count = match conn.stream.read_some(scratch) {
                Ok(0) => break,
                Ok(count) => count,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let mut input = &scratch[..count];
            while acting {
                let Some(conn) = self.conns[tok].as_mut() else { return };
                match conn.reader.next_from(&mut input) {
                    Ok(Some(msg)) => acting = self.process_msg(tok, msg),
                    Ok(None) => break,
                    Err(e) => return self.on_decode_error(tok, e),
                }
            }
            reads += 1;
            if count < scratch.len() || reads == READS_PER_EVENT {
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
    /// ([`dial_delay`]'s jittered exponential — a dead peer is
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
                let delay = dial_delay(self.me, p, self.dial_attempts[p.index()]);
                self.next_dial[p.index()] = now + delay;
                self.dial_attempts[p.index()] = self.dial_attempts[p.index()].saturating_add(1);
            }
        }
    }

    /// One connect attempt toward `p`. True once the `Hello` is queued
    /// on an installed connection (the handshake itself completes
    /// asynchronously on the readiness loop).
    fn dial_one(&mut self, p: SiteId) -> bool {
        let Some(addr) = self.peers[p.index()] else { return false };
        let Ok(stream) = sock::Stream::connect(&addr) else {
            return false;
        };
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
                let (peers_up, peers_suspect, peers_down) = self.core.net.health_counts();
                let reply = ClientReply::Stats {
                    outstanding: self.core.outstanding,
                    committed: self.core.history.committed_count(),
                    decode_errors: self.decode_errors,
                    peers_up,
                    peers_suspect,
                    peers_down,
                    links: link_marks(self.core.net.links(), &self.core.durable.applied_from),
                    census: self.census().to_vec(),
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
            let written = conn.stream.write_some(bytes);
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
        conn.stream.shutdown();
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

/// The reactor's sockets: the only raw socket calls of the site loop.
/// Each newtype puts its fd in nonblocking mode when it wraps it, and
/// offers the nonblocking calls only, so a read, a write or an accept
/// returns `WouldBlock` rather than parking the reactor. Neither type
/// implements `Read` or `Write`, and their fields are private here, so
/// code outside this module cannot reach a blocking call.
mod sock {
    use std::io::{self, Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, RawFd};

    use crate::policy::CONNECT_TIMEOUT;

    /// A connected nonblocking socket with `TCP_NODELAY` set.
    pub(super) struct Stream(TcpStream);

    impl Stream {
        fn adopt(stream: TcpStream) -> io::Result<Stream> {
            stream.set_nonblocking(true)?;
            let _ = stream.set_nodelay(true);
            Ok(Stream(stream))
        }

        /// Dial `addr`. The connect is the reactor's one wait, capped
        /// at [`CONNECT_TIMEOUT`] and paced by the dialer's backoff.
        pub(super) fn connect(addr: &SocketAddr) -> io::Result<Stream> {
            Stream::adopt(TcpStream::connect_timeout(addr, CONNECT_TIMEOUT)?)
        }

        pub(super) fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }

        pub(super) fn write_some(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.write(buf)
        }

        pub(super) fn shutdown(&self) {
            let _ = self.0.shutdown(Shutdown::Both);
        }
    }

    impl AsRawFd for Stream {
        fn as_raw_fd(&self) -> RawFd {
            self.0.as_raw_fd()
        }
    }

    /// A nonblocking listening socket.
    pub(super) struct Acceptor(TcpListener);

    impl Acceptor {
        pub(super) fn bind(addr: SocketAddr) -> io::Result<Acceptor> {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            Ok(Acceptor(listener))
        }

        pub(super) fn local_addr(&self) -> io::Result<SocketAddr> {
            self.0.local_addr()
        }

        pub(super) fn accept_some(&self) -> io::Result<Stream> {
            Stream::adopt(self.0.accept()?.0)
        }
    }

    impl AsRawFd for Acceptor {
        fn as_raw_fd(&self) -> RawFd {
            self.0.as_raw_fd()
        }
    }
}
