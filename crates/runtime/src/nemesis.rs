//! Deterministic network-fault injection at the transport seam.
//!
//! [`NetFaultPlan`] is the live-runtime mirror of the simulator's
//! `FaultPlan`: a declarative, splitmix64-seeded schedule of link
//! faults — symmetric and one-way partitions, per-link delay/jitter,
//! probabilistic frame drops and duplicates, byte corruption and
//! truncation, and whole-site pauses. No OS entropy anywhere: the same
//! plan against the same workload injects the same faults.
//!
//! [`ChaosWire`] interprets a plan as a site's [`Transport`]: every
//! fault is applied to the *write* of a frame from the link log to the
//! peer's socket, and the reliable-link engine above
//! ([`crate::transport::Net`]) is the same with or without it. The wire
//! lies only the way a TCP connection can: it stalls, it never reorders
//! (the simulator's `LinkOutage` rule), and it loses bytes only together
//! with the connection that carried them, which the reconnect recovers
//! from the receiver's mark ([`crate::transport::Net::resume`]).
//! Corruption must be survived by `repl-net`'s panic-free decoding, or
//! the runtime has a robustness bug the chaos suite should expose.
//!
//! Fault semantics, per frame of the log offered, in order:
//!
//! 1. **Partition / pause**: while the plan cuts `from → to` (a
//!    partition window covering the directed pair, or a pause window
//!    covering either endpoint), the wire takes no bytes at all. The
//!    link's log keeps them behind its cursor, and the stream goes on
//!    where it stopped when the cut heals, which the wire reports as its
//!    deadline ([`Transport::next_deadline`]). An ack crossing a cut is
//!    withheld the same way: its mark stays owed until the heal.
//! 2. **Drop**: drawn per frame by seeded coin. The frame is not
//!    written, and the write fails: the connection dies with it.
//! 3. **Corrupt / truncate**: the frame's *wire bytes* are copied, a
//!    seeded byte is flipped (or a seeded tail cut off), and the bytes
//!    are pushed through a real [`FrameReader`] — exercising the
//!    decoder's panic-freedom end-to-end — then discarded, and the write
//!    fails as for a drop: a checksum that rejects a segment leaves a
//!    hole in the stream that only a new connection mends. Corruption
//!    never *delivers* a wrong payload: the paper's model (and the dedup
//!    layer's) is lossy-but-not-byzantine links.
//! 4. **Delay/jitter**: the frame is parked in a per-link hold queue
//!    with a seeded release time. Later frames on the same link are
//!    parked behind it even when they draw no delay, preserving
//!    per-link FIFO (a reordering nemesis would break the paper's §2
//!    network assumption, which the protocols are allowed to rely on).
//! 5. **Duplicate**: written twice back-to-back; the receiver's
//!    durable dedup marks must absorb the copy.
//!
//! | fault | on the wire | recovered by |
//! |---|---|---|
//! | cut (partition, one-way, pause) | no bytes on the cut direction until the heal | the log's cursor and the owed ack, at the heal |
//! | drop, corrupt, truncate | the connection breaks | the reconnect: the log from the peer's `resume_seq` |
//! | jitter | the frame and those behind it wait | its release time |
//! | duplicate | the frame twice | the receiver's mark |
//!
//! The wire takes whole frames off the log, so the link's cursor stays
//! on frame boundaries, and it is the one wire that stages link bytes of
//! its own: its held frames, its duplicates, and the rest of a frame
//! the socket took only part of. Staged bytes go before anything new,
//! and a new connection drops them (the log goes again from the peer's
//! mark). That per-link state is plain data of the one reactor that owns
//! the wire, as the link logs are.
//!
//! Time is the site's: the reactor's pass time, in microseconds since
//! the site booted, which the link layer hands the wire with every write
//! (so each site anchors its plan at its own boot). The plan's windows
//! are whole milliseconds of it. A held frame's release time and a cut's
//! heal are deadlines the wire reports, so the reactor wakes for them.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;

use repl_net::FrameReader;
use repl_types::{splitmix64, SiteId};

use crate::link::{frames, write_taken, Sink, WriteBuf};
use crate::transport::{SendPermit, Transport};

/// One partition window: the directed link `a → b` (and `b → a` when
/// `symmetric`) is cut for `start_ms..end_ms`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One endpoint (the sender, for one-way cuts).
    pub a: SiteId,
    /// The other endpoint (the receiver, for one-way cuts).
    pub b: SiteId,
    /// Cut both directions.
    pub symmetric: bool,
    /// Window start, ms since plan start (inclusive).
    pub start_ms: u64,
    /// Window end, ms since plan start (exclusive).
    pub end_ms: u64,
}

/// One pause window: every link to and from `site` is cut for
/// `start_ms..end_ms` — the site stalls (its process keeps running and
/// keeps its volatile state) without crashing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PauseWindow {
    /// The stalled site.
    pub site: SiteId,
    /// Window start, ms since plan start (inclusive).
    pub start_ms: u64,
    /// Window end, ms since plan start (exclusive).
    pub end_ms: u64,
}

/// A declarative, seeded schedule of network faults. Built with the
/// fluent constructors ([`NetFaultPlan::seeded`] etc.), or parsed from
/// the compact one-line spec [`NetFaultPlan::parse`] accepts (what
/// `repld --nemesis` takes on the command line).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed of every per-frame draw.
    pub seed: u64,
    /// Max extra per-frame delay, ms (0 = no jitter).
    pub max_jitter_ms: u64,
    /// Per-frame drop probability, in permille.
    pub drop_permille: u16,
    /// Per-frame duplication probability, in permille.
    pub dup_permille: u16,
    /// Per-frame byte-corruption probability, in permille.
    pub corrupt_permille: u16,
    /// Per-frame truncation probability, in permille.
    pub truncate_permille: u16,
    /// Scheduled link cuts.
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled site stalls.
    pub pauses: Vec<PauseWindow>,
}

impl NetFaultPlan {
    /// The empty plan: a clean wire.
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// An empty plan carrying `seed` for the per-frame draws.
    pub fn seeded(seed: u64) -> Self {
        NetFaultPlan { seed, ..NetFaultPlan::default() }
    }

    /// Set the per-frame drop probability (permille).
    pub fn drop_frames(mut self, permille: u16) -> Self {
        self.drop_permille = permille;
        self
    }

    /// Set the per-frame duplication probability (permille).
    pub fn duplicate_frames(mut self, permille: u16) -> Self {
        self.dup_permille = permille;
        self
    }

    /// Set the per-frame corruption probability (permille).
    pub fn corrupt_frames(mut self, permille: u16) -> Self {
        self.corrupt_permille = permille;
        self
    }

    /// Set the per-frame truncation probability (permille).
    pub fn truncate_frames(mut self, permille: u16) -> Self {
        self.truncate_permille = permille;
        self
    }

    /// Set the max per-frame delay (ms).
    pub fn jitter(mut self, max_ms: u64) -> Self {
        self.max_jitter_ms = max_ms;
        self
    }

    /// Cut `a ↔ b` both ways for `start_ms..end_ms`.
    pub fn partition(mut self, a: SiteId, b: SiteId, start_ms: u64, end_ms: u64) -> Self {
        self.partitions.push(PartitionWindow { a, b, symmetric: true, start_ms, end_ms });
        self
    }

    /// Cut only `from → to` for `start_ms..end_ms`.
    pub fn oneway(mut self, from: SiteId, to: SiteId, start_ms: u64, end_ms: u64) -> Self {
        self.partitions.push(PartitionWindow {
            a: from,
            b: to,
            symmetric: false,
            start_ms,
            end_ms,
        });
        self
    }

    /// Stall `site` (cut all its links) for `start_ms..end_ms`.
    pub fn pause(mut self, site: SiteId, start_ms: u64, end_ms: u64) -> Self {
        self.pauses.push(PauseWindow { site, start_ms, end_ms });
        self
    }

    /// When the last scheduled window ends (ms since plan start) — the
    /// heal point after which only the probabilistic faults remain.
    pub fn last_window_end_ms(&self) -> u64 {
        let parts = self.partitions.iter().map(|w| w.end_ms);
        let pauses = self.pauses.iter().map(|w| w.end_ms);
        parts.chain(pauses).max().unwrap_or(0)
    }

    /// Is the directed link `from → to` cut at `now_ms`?
    pub fn cuts(&self, from: SiteId, to: SiteId, now_ms: u64) -> bool {
        self.cutting(from, to, now_ms).next().is_some()
    }

    /// The end of every window that cuts `from → to` at `now_ms`.
    fn cutting(&self, from: SiteId, to: SiteId, now_ms: u64) -> impl Iterator<Item = u64> + '_ {
        let open = move |start, end| start <= now_ms && now_ms < end;
        let parts = self.partitions.iter().filter(move |w| {
            open(w.start_ms, w.end_ms)
                && ((w.a == from && w.b == to) || (w.symmetric && w.a == to && w.b == from))
        });
        let pauses = self
            .pauses
            .iter()
            .filter(move |w| (w.site == from || w.site == to) && open(w.start_ms, w.end_ms));
        parts.map(|w| w.end_ms).chain(pauses.map(|w| w.end_ms))
    }

    /// Render the compact spec string [`NetFaultPlan::parse`] reads
    /// back (the `repld --nemesis` argument format).
    pub fn to_spec(&self) -> String {
        let mut s = format!("seed={}", self.seed);
        if self.max_jitter_ms > 0 {
            let _ = write!(s, ";jitter={}", self.max_jitter_ms);
        }
        for (key, v) in [
            ("drop", self.drop_permille),
            ("dup", self.dup_permille),
            ("corrupt", self.corrupt_permille),
            ("trunc", self.truncate_permille),
        ] {
            if v > 0 {
                let _ = write!(s, ";{key}={v}");
            }
        }
        for w in &self.partitions {
            let kind = if w.symmetric { "part" } else { "oneway" };
            let _ = write!(s, ";{kind}={}-{}@{}..{}", w.a.0, w.b.0, w.start_ms, w.end_ms);
        }
        for w in &self.pauses {
            let _ = write!(s, ";pause={}@{}..{}", w.site.0, w.start_ms, w.end_ms);
        }
        s
    }

    /// Parse the spec format, e.g.
    /// `seed=7;jitter=2;drop=50;dup=30;part=0-1@100..400;pause=2@150..250`.
    /// Inverse of [`NetFaultPlan::to_spec`]. A probability above 1000 ‰,
    /// a site id past `u32` and a cut from a site to itself are refused.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let mut plan = NetFaultPlan::default();
        for field in spec.split(';').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {field:?}"))?;
            let num =
                |v: &str| v.parse::<u64>().map_err(|_| format!("bad number {v:?} in {field:?}"));
            let permille = |v: &str| match u16::try_from(num(v)?) {
                Ok(p) if p <= 1000 => Ok(p),
                _ => Err(format!("{v} is more than 1000 permille in {field:?}")),
            };
            let site = |v: &str| {
                let id = u32::try_from(num(v)?);
                id.map(SiteId).map_err(|_| format!("site {v} is not a site id in {field:?}"))
            };
            match key {
                "seed" => plan.seed = num(value)?,
                "jitter" => plan.max_jitter_ms = num(value)?,
                "drop" => plan.drop_permille = permille(value)?,
                "dup" => plan.dup_permille = permille(value)?,
                "corrupt" => plan.corrupt_permille = permille(value)?,
                "trunc" => plan.truncate_permille = permille(value)?,
                "part" | "oneway" => {
                    let (pair, window) = value
                        .split_once('@')
                        .ok_or_else(|| format!("expected A-B@S..E in {field:?}"))?;
                    let (a, b) = pair
                        .split_once('-')
                        .ok_or_else(|| format!("expected A-B site pair in {field:?}"))?;
                    let (a, b) = (site(a)?, site(b)?);
                    if a == b {
                        return Err(format!("a site cut off from itself in {field:?}"));
                    }
                    let (start, end) = parse_window(window, field)?;
                    plan.partitions.push(PartitionWindow {
                        a,
                        b,
                        symmetric: key == "part",
                        start_ms: start,
                        end_ms: end,
                    });
                }
                "pause" => {
                    let (id, window) = value
                        .split_once('@')
                        .ok_or_else(|| format!("expected SITE@S..E in {field:?}"))?;
                    let (start, end) = parse_window(window, field)?;
                    plan.pauses.push(PauseWindow { site: site(id)?, start_ms: start, end_ms: end });
                }
                other => return Err(format!("unknown nemesis field {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Refuse a window naming a site a fleet of `num_sites` does not
    /// have: it would never cut anything.
    pub fn check_sites(&self, num_sites: u32) -> Result<(), String> {
        let parts = self.partitions.iter().flat_map(|w| [w.a, w.b]);
        match parts.chain(self.pauses.iter().map(|w| w.site)).find(|s| s.0 >= num_sites) {
            Some(s) => Err(format!("site {} is outside a {num_sites}-site placement", s.0)),
            None => Ok(()),
        }
    }
}

fn parse_window(window: &str, field: &str) -> Result<(u64, u64), String> {
    let (start, end) =
        window.split_once("..").ok_or_else(|| format!("expected S..E window in {field:?}"))?;
    let start = start.parse().map_err(|_| format!("bad window start in {field:?}"))?;
    let end = end.parse().map_err(|_| format!("bad window end in {field:?}"))?;
    if end < start {
        return Err(format!("window ends before it starts in {field:?}"));
    }
    Ok((start, end))
}

/// Per-link chaos state.
#[derive(Default)]
struct ChaosLane {
    /// Frames attempted on this link so far (the per-frame draw index).
    msg_index: u64,
    /// Frames parked by delay: `(release_at, frame bytes)`, in FIFO
    /// order with monotone release times (µs since the site booted).
    held: VecDeque<(u64, Vec<u8>)>,
    /// Bytes the socket is owed before anything else: the rest of a
    /// frame it took part of, and a duplicate it had no room for.
    staged: WriteBuf,
}

impl ChaosLane {
    /// Write `frame` to the socket behind the staged bytes, staging
    /// whatever it does not take now: the stream must carry it whole.
    fn put(&mut self, sink: &mut Sink<'_>, frame: &[u8]) -> io::Result<()> {
        let taken = if self.staged.is_empty() { write_taken(sink, frame)? } else { 0 };
        self.staged.tail().extend_from_slice(&frame[taken..]);
        Ok(())
    }

    /// Apply `plan` to one frame on the link `from → to`, which no
    /// window cuts now.
    fn fate(
        &mut self,
        plan: &NetFaultPlan,
        (from, to): (SiteId, SiteId),
        now: u64,
        frame: &[u8],
    ) -> Fate {
        self.msg_index += 1;
        let mut stream = plan
            .seed
            .wrapping_add((u64::from(from.0) << 40) ^ (u64::from(to.0) << 20) ^ self.msg_index);
        if plan.drop_permille > 0 && draw(&mut stream) % 1000 < u64::from(plan.drop_permille) {
            return Fate::Lost;
        }
        let corrupt = plan.corrupt_permille > 0
            && draw(&mut stream) % 1000 < u64::from(plan.corrupt_permille);
        let truncate = !corrupt
            && plan.truncate_permille > 0
            && draw(&mut stream) % 1000 < u64::from(plan.truncate_permille);
        if corrupt || truncate {
            let mut bytes = frame.to_vec();
            if corrupt {
                let pos = (draw(&mut stream) as usize) % bytes.len();
                bytes[pos] ^= 1 << (draw(&mut stream) % 8);
            } else {
                let keep = (draw(&mut stream) as usize) % bytes.len();
                bytes.truncate(keep);
            }
            ChaosWire::exercise_decoder(&bytes);
            return Fate::Lost; // a checksum rejected it
        }
        let delay_ms =
            if plan.max_jitter_ms > 0 { draw(&mut stream) % (plan.max_jitter_ms + 1) } else { 0 };
        if delay_ms > 0 || !self.held.is_empty() {
            // Park it — behind any earlier parked frame, so per-link
            // FIFO survives the jitter.
            let due = now.saturating_add(delay_ms.saturating_mul(1000));
            return Fate::Held(self.held.back().map_or(due, |(tail_due, _)| due.max(*tail_due)));
        }
        let dup = plan.dup_permille > 0 && draw(&mut stream) % 1000 < u64::from(plan.dup_permille);
        Fate::Sent { copies: 1 + usize::from(dup) }
    }
}

/// What the plan does with one frame.
enum Fate {
    /// Dropped, or damaged and discarded: never written, and the
    /// connection dies with it.
    Lost,
    /// Parked until the given time.
    Held(u64),
    /// Written now, once or (duplicated) twice.
    Sent { copies: usize },
}

/// The [`Transport`] interpreting a [`NetFaultPlan`] over one site's
/// peer sockets.
pub(crate) struct ChaosWire {
    me: SiteId,
    plan: NetFaultPlan,
    /// Indexed by destination.
    lanes: Vec<ChaosLane>,
}

impl ChaosWire {
    pub fn new(me: SiteId, plan: NetFaultPlan, sites: usize) -> Self {
        ChaosWire { me, plan, lanes: (0..sites).map(|_| ChaosLane::default()).collect() }
    }

    /// Push damaged wire bytes through a real frame decoder — the
    /// end-to-end panic-freedom exercise — then discard the frame, as a
    /// link-layer checksum would.
    fn exercise_decoder(bytes: &[u8]) {
        let mut reader = FrameReader::new();
        reader.feed(bytes);
        // Drain until the decoder either rejects the damage (typed
        // error), yields a frame that happens to still parse, or wants
        // more bytes. Whatever happens, it must not panic.
        while let Ok(Some(_)) = reader.next_msg() {}
    }
}

/// One permille draw off a chaos stream.
fn draw(state: &mut u64) -> u64 {
    *state = splitmix64(*state);
    *state
}

impl Transport for ChaosWire {
    /// Nothing while the link is cut. Otherwise what the socket is owed
    /// goes first — staged bytes, then parked frames now due — and new
    /// frames only once all of it went. A new frame the socket refuses
    /// outright is not taken: the log keeps it. A frame the plan loses
    /// breaks the connection: the error is the write's.
    fn try_send(
        &mut self,
        _: SendPermit,
        now: u64,
        to: SiteId,
        offered: &[u8],
        sink: &mut Sink<'_>,
    ) -> io::Result<usize> {
        if self.plan.cuts(self.me, to, now / 1000) {
            return Ok(0);
        }
        let lane = &mut self.lanes[to.index()];
        lane.staged.flush(sink)?;
        while lane.staged.is_empty() && lane.held.front().is_some_and(|(due, _)| *due <= now) {
            let Some((_, frame)) = lane.held.pop_front() else { break };
            lane.put(sink, &frame)?;
        }
        if !lane.staged.is_empty() {
            return Ok(0);
        }
        let mut taken = 0;
        for frame in frames(offered) {
            match lane.fate(&self.plan, (self.me, to), now, frame) {
                Fate::Lost => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "the nemesis lost a frame with its connection",
                    ))
                }
                Fate::Held(due) => lane.held.push_back((due, frame.to_vec())),
                Fate::Sent { copies } => {
                    let written = write_taken(sink, frame)?;
                    if written == 0 {
                        break;
                    }
                    lane.staged.tail().extend_from_slice(&frame[written..]);
                    for _ in 1..copies {
                        lane.put(sink, frame)?;
                    }
                }
            }
            taken += frame.len();
            if !lane.staged.is_empty() {
                break;
            }
        }
        Ok(taken)
    }

    /// The ack physically travels me → from. Only a cut withholds acks:
    /// they are cumulative, so anything subtler is invisible anyway.
    fn passes_ack(&self, now: u64, from: SiteId) -> bool {
        !self.plan.cuts(self.me, from, now / 1000)
    }

    fn reset(&mut self, to: SiteId) {
        let lane = &mut self.lanes[to.index()];
        lane.held.clear();
        lane.staged = WriteBuf::default();
    }

    /// The earliest of the release times after `now` of each link's
    /// first held frame (the frames behind it go no earlier) and the
    /// ends of the windows that cut a link from this site now, frames
    /// and acks alike (a window that still cuts it then is the next
    /// pass's deadline).
    fn next_deadline(&self, now: u64) -> Option<u64> {
        let fronts = self.lanes.iter().filter_map(|lane| lane.held.front());
        let released = fronts.map(|(due, _)| *due).filter(|&due| due > now);
        let peers = (0..self.lanes.len() as u32).map(SiteId).filter(|&p| p != self.me);
        let heals = peers.filter_map(|p| self.plan.cutting(self.me, p, now / 1000).max());
        released.chain(heals.map(|ms| ms.saturating_mul(1000))).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips() {
        let plan = NetFaultPlan::seeded(7)
            .jitter(2)
            .drop_frames(50)
            .duplicate_frames(30)
            .corrupt_frames(20)
            .truncate_frames(10)
            .partition(SiteId(0), SiteId(1), 100, 400)
            .oneway(SiteId(2), SiteId(0), 150, 450)
            .pause(SiteId(1), 200, 300);
        let spec = plan.to_spec();
        assert_eq!(NetFaultPlan::parse(&spec).unwrap(), plan);
        assert_eq!(plan.last_window_end_ms(), 450);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for (spec, needle) in [
            ("frobnicate=1", "unknown nemesis field"),
            ("seed", "key=value"),
            ("seed=x", "bad number"),
            ("part=0-1", "A-B@S..E"),
            ("part=01@5..9", "site pair"),
            ("part=0-1@9..5", "ends before"),
            ("pause=1@5", "S..E"),
            ("drop=66536", "more than 1000 permille"),
            ("dup=1001", "more than 1000 permille"),
            ("part=4294967296-1@0..10", "not a site id"),
            ("oneway=2-2@0..10", "cut off from itself"),
        ] {
            let err = NetFaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec:?} → {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn cuts_cover_partitions_and_pauses() {
        let plan = NetFaultPlan::none()
            .partition(SiteId(0), SiteId(1), 10, 20)
            .oneway(SiteId(2), SiteId(0), 10, 20)
            .pause(SiteId(3), 30, 40);
        // Symmetric: both directions, only inside the window.
        assert!(plan.cuts(SiteId(0), SiteId(1), 15));
        assert!(plan.cuts(SiteId(1), SiteId(0), 15));
        assert!(!plan.cuts(SiteId(0), SiteId(1), 20)); // end exclusive
        assert!(!plan.cuts(SiteId(0), SiteId(1), 9));
        // One-way: only the stated direction.
        assert!(plan.cuts(SiteId(2), SiteId(0), 15));
        assert!(!plan.cuts(SiteId(0), SiteId(2), 15));
        // Pause: every link touching the site.
        assert!(plan.cuts(SiteId(3), SiteId(0), 35));
        assert!(plan.cuts(SiteId(1), SiteId(3), 35));
        assert!(!plan.cuts(SiteId(1), SiteId(2), 35));
    }

    /// A socket that takes at most `room` bytes, appending them to `stream`.
    fn socket<'a>(
        stream: &'a mut Vec<u8>,
        mut room: usize,
    ) -> impl FnMut(&[u8]) -> io::Result<usize> + 'a {
        move |bytes| {
            let n = bytes.len().min(room);
            if n == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            room -= n;
            stream.extend_from_slice(&bytes[..n]);
            Ok(n)
        }
    }

    /// The sequence numbers of the whole `Link` frames in `stream`.
    fn seqs(stream: &[u8]) -> Vec<u64> {
        let mut reader = FrameReader::new();
        reader.feed(stream);
        let mut seqs = Vec::new();
        while let Some(repl_net::WireMsg::Link { seq, .. }) = reader.next_msg().unwrap() {
            seqs.push(seq);
        }
        seqs
    }

    /// Every frame duplicated, over a socket that takes 40 bytes a
    /// flush: the stream carries whole frames, each twice back to back,
    /// because what the socket refused of a frame or of its copy goes
    /// before anything new. A new connection drops what was staged for
    /// the old one and starts on a frame boundary.
    #[test]
    fn staged_bytes_go_first_and_a_new_connection_drops_them() {
        let mut wire = ChaosWire::new(SiteId(0), NetFaultPlan::seeded(1).duplicate_frames(1000), 2);
        let to = SiteId(1);
        let mut log = crate::link::LinkState::default();
        for n in 1..=5 {
            let gid = repl_types::GlobalTxnId::new(SiteId(0), n);
            log.push(&repl_net::Payload::Decision { gid, commit: true });
        }
        let mut stream = Vec::new();
        for _ in 0..50 {
            let mut sink = socket(&mut stream, 40);
            log.offer(|frames| wire.try_send(SendPermit::for_test(), 0, to, frames, &mut sink))
                .unwrap();
        }
        assert_eq!(seqs(&stream), [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]);

        // Part of the first frame, then the connection drops.
        log.resume(0);
        let mut old = Vec::new();
        log.offer(|frames| {
            wire.try_send(SendPermit::for_test(), 0, to, frames, &mut socket(&mut old, 7))
        })
        .unwrap();
        assert_eq!(old.len(), 7);
        log.resume(2);
        wire.reset(to);
        let mut fresh = Vec::new();
        log.offer(|frames| {
            wire.try_send(
                SendPermit::for_test(),
                0,
                to,
                frames,
                &mut socket(&mut fresh, usize::MAX),
            )
        })
        .unwrap();
        assert_eq!(seqs(&fresh), [3, 3, 4, 4, 5, 5]);
    }

    /// A cut takes no bytes until it heals — the log keeps them behind
    /// its cursor — and the end of the windows cutting it is the wire's
    /// deadline, window after window; then the stream goes on where it
    /// stopped.
    #[test]
    fn a_cut_stalls_the_stream_until_its_heal() {
        let plan = NetFaultPlan::seeded(3)
            .oneway(SiteId(0), SiteId(1), 0, 10)
            .pause(SiteId(1), 8, 20)
            .partition(SiteId(1), SiteId(0), 20, 25);
        let mut wire = ChaosWire::new(SiteId(0), plan, 2);
        let to = SiteId(1);
        let mut log = crate::link::LinkState::default();
        for n in 1..=3 {
            let gid = repl_types::GlobalTxnId::new(SiteId(0), n);
            log.push(&repl_net::Payload::Decision { gid, commit: true });
        }
        let mut stream = Vec::new();
        for (now, due) in [(2_000, 10_000), (9_000, 20_000), (24_999, 25_000)] {
            log.offer(|frames| {
                let mut sink = socket(&mut stream, usize::MAX);
                wire.try_send(SendPermit::for_test(), now, to, frames, &mut sink)
            })
            .unwrap();
            assert_eq!(wire.next_deadline(now), Some(due));
        }
        assert!(stream.is_empty());
        log.offer(|frames| {
            let mut sink = socket(&mut stream, usize::MAX);
            wire.try_send(SendPermit::for_test(), 25_000, to, frames, &mut sink)
        })
        .unwrap();
        assert_eq!((seqs(&stream), wire.next_deadline(25_000)), (vec![1, 2, 3], None));
    }

    /// A frame the plan drops is not written, and the write fails: the
    /// connection dies with it. The frames before it went whole.
    #[test]
    fn a_lost_frame_breaks_its_connection() {
        let mut wire = ChaosWire::new(SiteId(0), NetFaultPlan::seeded(9).drop_frames(500), 2);
        let mut log = crate::link::LinkState::default();
        for n in 1..=40 {
            let gid = repl_types::GlobalTxnId::new(SiteId(0), n);
            log.push(&repl_net::Payload::Decision { gid, commit: true });
        }
        let mut stream = Vec::new();
        let err = log
            .offer(|frames| {
                let mut sink = socket(&mut stream, usize::MAX);
                wire.try_send(SendPermit::for_test(), 0, SiteId(1), frames, &mut sink)
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let written = seqs(&stream);
        assert!(written.len() < 40, "nothing dropped in 40 frames at 50 %");
        assert_eq!(written, (1..=written.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn decoder_exercise_survives_damage() {
        use repl_net::{Payload, Subtxn};
        let payload = Payload::Subtxn(Subtxn {
            gid: repl_types::GlobalTxnId::new(SiteId(0), 1),
            origin: SiteId(0),
            kind: repl_net::SubtxnKind::Normal,
            ts: None,
            writes: vec![(repl_types::ItemId(0), repl_types::Value::int(7))],
            dest_sites: vec![SiteId(1)],
        });
        let mut log = crate::link::LinkState::default();
        log.push(&payload);
        let mut clean = Vec::new();
        log.offer(|frame| {
            clean = frame.to_vec();
            Ok(frame.len())
        })
        .unwrap();
        // Flip every byte position and truncate to every length: none
        // may panic the decoder.
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0xFF;
            ChaosWire::exercise_decoder(&bytes);
        }
        for keep in 0..clean.len() {
            ChaosWire::exercise_decoder(&clean[..keep]);
        }
    }

    #[test]
    fn check_sites_refuses_a_site_outside_the_placement() {
        let plan = NetFaultPlan::parse("seed=1;part=0-2@0..10;pause=1@0..10").unwrap();
        assert_eq!(plan.check_sites(3), Ok(()));
        let err = plan.check_sites(2).unwrap_err();
        assert!(err.contains("site 2 is outside a 2-site placement"), "{err}");
        let pause = NetFaultPlan::parse("seed=1;pause=3@0..10").unwrap();
        assert!(pause.check_sites(3).is_err());
        assert_eq!(NetFaultPlan::parse("drop=1000").unwrap().drop_permille, 1000);
    }
}
