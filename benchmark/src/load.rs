//! The load generator: one thread, one epoll loop, two connections.
//!
//! Closed loop keeps `depth` requests outstanding per connection. Open
//! loop sends on a fixed schedule whatever the replies do, and times
//! each request from its due time, so a stall is charged to every
//! request that was due during it.
//!
//! All times are nanoseconds since a run-wide epoch shared with the
//! sampler thread.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use epoll::{Epoll, Event, Interest};
use repl_copygraph::DataPlacement;
use repl_net::{encode_framed, ClientMsg, ClientReply, FrameReader, WireMsg};
use repl_types::SiteId;

use crate::gen::{Rng, TxnGen};
use crate::spec::{Pacing, Workload, LOAD_CONNS};

/// Where a run is; published to the sampler thread.
#[repr(u8)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Fleet is up, nothing sent yet.
    Idle = 0,
    /// Load is on; nothing is recorded as a result.
    Warmup = 1,
    /// The timed window, tracing off: end-to-end numbers come from here.
    Window = 2,
    /// The same stream with span recording on.
    Traced = 3,
    /// No more requests; waiting for replies and propagation.
    Drain = 4,
    Done = 5,
}

impl Phase {
    pub fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::Warmup,
            2 => Phase::Window,
            3 => Phase::Traced,
            4 => Phase::Drain,
            5 => Phase::Done,
            _ => Phase::Idle,
        }
    }
}

/// When a phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    Time(Duration),
    /// This many requests submitted, over all connections.
    Txns(u64),
}

pub fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Submit time (closed loop) or due time (open loop).
    pub start_ns: u64,
    /// When its reply had been decoded.
    pub done_ns: u64,
    /// How long after `start_ns` the generator actually began it.
    pub late_ns: u64,
    pub update: bool,
    pub ok: bool,
}

/// The spans of one traced request, as instants: `client.txn` is
/// `start..dec1`, `client.encode` `enc0..enc1`, `client.write`
/// `enc1..write1`, `client.wait` `write1..read0`, `client.decode`
/// `read0..dec1`.
#[derive(Clone, Copy, Debug)]
pub struct SpanRow {
    pub id: u64,
    pub conn: u8,
    pub start: u64,
    pub enc0: u64,
    pub enc1: u64,
    pub write1: u64,
    pub read0: u64,
    pub dec1: u64,
}

#[derive(Debug, Default)]
pub struct LoadResult {
    pub samples: Vec<Sample>,
    pub spans: Vec<SpanRow>,
    /// Per connection, by heartbeat value − 1: when that heartbeat write
    /// was submitted (closed loop) or due (open loop). Ascending.
    pub submit_at: Vec<Vec<u64>>,
    /// Per connection, by heartbeat value − 1: when the commit reply of
    /// that heartbeat write was decoded (0: refused or never answered).
    pub commit_at: Vec<Vec<u64>>,
    /// `(phase, start, end)` of every phase that ran.
    pub bounds: Vec<(Phase, u64, u64)>,
    /// Start times of every request sent.
    pub submitted: Vec<u64>,
    /// Requests still unanswered when the reply deadline expired.
    pub unanswered: u64,
}

impl LoadResult {
    pub fn bounds_of(&self, phase: Phase) -> Option<(u64, u64)> {
        self.bounds.iter().find(|b| b.0 == phase).map(|b| (b.1, b.2))
    }
}

struct Pending {
    id: u64,
    start: u64,
    late: u64,
    heartbeat: Option<u64>,
    /// `(enc0, enc1, write1)` when the request is traced.
    span: Option<(u64, u64, u64)>,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    gen: TxnGen,
    wbuf: Vec<u8>,
    woff: usize,
    want_write: bool,
    inflight: VecDeque<Pending>,
    /// Open loop: requests sent so far, and when the next is due.
    sent: u64,
    next_due: u64,
}

impl Conn {
    /// Push buffered request bytes; keep `EPOLLOUT` registered only
    /// while the kernel buffer is full.
    fn flush(&mut self, epoll: &Epoll, token: u64) -> io::Result<()> {
        while self.woff < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.woff..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "site closed")),
                Ok(n) => self.woff += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.woff == self.wbuf.len() {
            self.wbuf.clear();
            self.woff = 0;
        }
        let want = !self.wbuf.is_empty();
        if want != self.want_write {
            let interest = if want { Interest::READ_WRITE } else { Interest::READ };
            epoll.modify(self.stream.as_raw_fd(), token, interest)?;
            self.want_write = want;
        }
        Ok(())
    }
}

/// The due time of request `k` of connection `conn` in an open loop
/// started at `t0`: one request in every period of `1/rate`, at a
/// seeded uniform offset inside it. A pure function of its arguments:
/// nothing a reply does can move it. The offset keeps arrivals from
/// locking onto the sites' own 1 ms tick and 2 ms heartbeat, which
/// would make latency depend on the phase a run happened to start in.
pub fn due_ns(t0: u64, rate: u32, seed: u64, conn: usize, k: u64) -> u64 {
    let period = 1_000_000_000 / u64::from(rate);
    let mut offset = Rng::new(seed ^ ((conn as u64) << 56) ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    t0 + k * period + offset.next() % period
}

/// Drive `phases` of `wl` against the sites at `addrs`, then wait up to
/// `reply_deadline` for the replies still owed. `phase_flag` tells the
/// sampler thread where the run is.
#[allow(clippy::too_many_arguments)]
pub fn run_load(
    addrs: &[String],
    placement: &DataPlacement,
    wl: &Workload,
    seed: u64,
    phases: &[(Phase, Limit)],
    epoch: Instant,
    phase_flag: &AtomicU8,
    reply_deadline: Duration,
) -> io::Result<LoadResult> {
    let epoll = Epoll::new()?;
    let mut conns = Vec::with_capacity(LOAD_CONNS);
    for (i, &site) in wl.conn_sites.iter().enumerate() {
        let stream = TcpStream::connect(&addrs[site as usize])?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        epoll.add(stream.as_raw_fd(), i as u64, Interest::READ)?;
        conns.push(Conn {
            stream,
            reader: FrameReader::new(),
            gen: TxnGen::new(seed, placement, SiteId(site), i, wl.read_only_permille),
            wbuf: Vec::new(),
            woff: 0,
            want_write: false,
            inflight: VecDeque::new(),
            sent: 0,
            next_due: 0,
        });
    }
    // Room for the whole run up front: a Vec that doubles mid-window
    // stalls the loop for a copy of everything recorded so far.
    let timed: f64 =
        phases.iter().map(|p| if let Limit::Time(d) = p.1 { d.as_secs_f64() } else { 0.0 }).sum();
    let room = (timed * 250_000.0) as usize + 4096;
    let traced = phases.iter().any(|p| p.0 == Phase::Traced);
    let mut out = LoadResult {
        samples: Vec::with_capacity(room),
        spans: Vec::with_capacity(if traced { room } else { 0 }),
        submitted: Vec::with_capacity(room),
        submit_at: (0..LOAD_CONNS).map(|_| Vec::with_capacity(room)).collect(),
        commit_at: (0..LOAD_CONNS).map(|_| Vec::with_capacity(room)).collect(),
        ..Default::default()
    };
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    let mut next_id = 0u64;

    let t0 = now_ns(epoch);
    for (i, c) in conns.iter_mut().enumerate() {
        if let Pacing::Open { rate } = wl.pacing {
            c.next_due = due_ns(t0, rate, seed, i, 0);
        }
    }

    let mut phase_idx = 0usize;
    let mut phase_start = t0;
    let mut phase_sent = 0u64;
    if let Some((phase, _)) = phases.first() {
        phase_flag.store(*phase as u8, Ordering::SeqCst);
    }
    let mut drain_until: Option<Instant> = None;

    loop {
        let now = now_ns(epoch);
        // Phase transitions.
        while phase_idx < phases.len() {
            let (phase, limit) = phases[phase_idx];
            let ended = match limit {
                Limit::Time(d) => now >= phase_start + d.as_nanos() as u64,
                Limit::Txns(n) => phase_sent >= n,
            };
            if !ended {
                break;
            }
            out.bounds.push((phase, phase_start, now));
            phase_idx += 1;
            phase_start = now;
            phase_sent = 0;
            let next = phases.get(phase_idx).map_or(Phase::Drain, |p| p.0);
            phase_flag.store(next as u8, Ordering::SeqCst);
            if next == Phase::Drain {
                drain_until = Some(Instant::now() + reply_deadline);
            }
        }
        let active = phases.get(phase_idx).copied();

        // Submit what is due.
        if let Some((phase, limit)) = active {
            let traced = phase == Phase::Traced;
            for (i, c) in conns.iter_mut().enumerate() {
                loop {
                    if matches!(limit, Limit::Txns(n) if phase_sent >= n) {
                        break;
                    }
                    let enc0 = now_ns(epoch);
                    let start = match wl.pacing {
                        Pacing::Closed { depth } => {
                            if c.inflight.len() >= depth {
                                break;
                            }
                            enc0
                        }
                        Pacing::Open { rate } => {
                            if c.next_due > enc0 {
                                break;
                            }
                            c.sent += 1;
                            let due = c.next_due;
                            c.next_due = due_ns(t0, rate, seed, i, c.sent);
                            due
                        }
                    };
                    let txn = c.gen.next_txn();
                    if txn.heartbeat.is_some() {
                        out.submit_at[i].push(start);
                    }
                    let frame = encode_framed(&WireMsg::Client(ClientMsg::Execute(txn.ops)));
                    let enc1 = if traced { now_ns(epoch) } else { 0 };
                    c.wbuf.extend_from_slice(&frame);
                    c.flush(&epoll, i as u64)?;
                    let span = traced.then(|| (enc0, enc1, now_ns(epoch)));
                    c.inflight.push_back(Pending {
                        id: next_id,
                        start,
                        late: enc0 - start,
                        heartbeat: txn.heartbeat,
                        span,
                    });
                    out.submitted.push(start);
                    next_id += 1;
                    phase_sent += 1;
                }
            }
        } else {
            let owed: usize = conns.iter().map(|c| c.inflight.len()).sum();
            if owed == 0 {
                break;
            }
            if drain_until.is_some_and(|d| Instant::now() >= d) {
                out.unanswered = owed as u64;
                break;
            }
        }

        // Poll, never sleep: the load thread owns its CPU, so a reply is
        // seen and a due time met without a wake-up whose latency would
        // be charged to the fleet.
        events.clear();
        epoll.wait(&mut events, 0)?;
        if events.is_empty() {
            std::hint::spin_loop();
        }

        for ev in events.iter().copied() {
            let i = ev.token as usize;
            let c = &mut conns[i];
            if ev.writable {
                c.flush(&epoll, ev.token)?;
            }
            if !(ev.readable || ev.error) {
                continue;
            }
            loop {
                let n = match c.stream.read(&mut scratch) {
                    Ok(0) => {
                        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "site closed"))
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                let read0 = now_ns(epoch);
                c.reader.feed(&scratch[..n]);
                loop {
                    let ok = match c.reader.next_msg() {
                        Ok(Some(WireMsg::Reply(ClientReply::Executed(result)))) => result.is_ok(),
                        Ok(Some(other)) => {
                            return Err(io::Error::other(format!("unexpected reply: {other:?}")))
                        }
                        Ok(None) => break,
                        Err(e) => return Err(io::Error::other(format!("reply decode: {e}"))),
                    };
                    let p = c
                        .inflight
                        .pop_front()
                        .ok_or_else(|| io::Error::other("reply without an outstanding request"))?;
                    let done = now_ns(epoch);
                    if let Some(v) = p.heartbeat {
                        let at = &mut out.commit_at[i];
                        at.resize(at.len().max(v as usize), 0);
                        at[v as usize - 1] = if ok { done } else { 0 };
                    }
                    out.samples.push(Sample {
                        start_ns: p.start,
                        done_ns: done,
                        late_ns: p.late,
                        update: p.heartbeat.is_some(),
                        ok,
                    });
                    if let Some((enc0, enc1, write1)) = p.span {
                        out.spans.push(SpanRow {
                            id: p.id,
                            conn: i as u8,
                            start: p.start,
                            enc0,
                            enc1,
                            write1,
                            read0,
                            dec1: done,
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_due_times_ignore_replies() {
        // The schedule is a pure function of (t0, rate, seed, conn, k):
        // there is no reply time it could depend on. One request per
        // period, so the rate is exact and due times ascend.
        let t0 = 5_000;
        let mut offsets = std::collections::BTreeSet::new();
        for k in 0..1000u64 {
            for conn in 0..LOAD_CONNS {
                let due = due_ns(t0, 1000, 7, conn, k);
                assert_eq!(due, due_ns(t0, 1000, 7, conn, k));
                assert!((t0 + k * 1_000_000..t0 + (k + 1) * 1_000_000).contains(&due));
                offsets.insert((due - t0) % 1_000_000);
            }
        }
        assert!(offsets.len() > 1900, "offsets must not repeat: {}", offsets.len());
        assert_ne!(due_ns(t0, 1000, 7, 0, 3), due_ns(t0, 1000, 8, 0, 3));
    }

    /// A site that answers nothing for 30 ms and then everything at
    /// once: the open loop must have kept sending on schedule, and each
    /// request's latency must count from its due time.
    #[test]
    fn open_loop_keeps_schedule_through_a_stall() {
        use crate::spec::workloads;
        use repl_net::read_msg;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut streams: Vec<TcpStream> =
                (0..LOAD_CONNS).map(|_| listener.accept().unwrap().0).collect();
            std::thread::sleep(Duration::from_millis(30));
            // Answer until the client hangs up.
            let mut handles = Vec::new();
            for mut s in streams.drain(..) {
                handles.push(std::thread::spawn(move || {
                    let mut seq = 0u64;
                    while let Ok(WireMsg::Client(ClientMsg::Execute(_))) = read_msg(&mut s) {
                        let gid = repl_types::GlobalTxnId::new(SiteId(0), seq);
                        seq += 1;
                        let reply = WireMsg::Reply(ClientReply::Executed(Ok(gid)));
                        if repl_net::write_msg(&mut s, &reply).is_err() {
                            break;
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });

        let wl = workloads().into_iter().find(|w| w.name == "update_paced").unwrap();
        let placement = wl.placement.build();
        let addrs = vec![addr.clone(), addr.clone(), addr];
        let flag = AtomicU8::new(0);
        let phases = [(Phase::Window, Limit::Time(Duration::from_millis(60)))];
        let res = run_load(
            &addrs,
            &placement,
            &wl,
            1,
            &phases,
            Instant::now(),
            &flag,
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();

        assert_eq!(res.unanswered, 0);
        // 2 × 1000/s over 60 ms, stall or not.
        assert!((110..=122).contains(&res.samples.len()), "{} requests", res.samples.len());
        // One start per connection in every 1 ms period, stall or not.
        let (t0, _) = res.bounds_of(Phase::Window).unwrap();
        let mut per_period = [0u32; 60];
        for s in &res.submitted {
            per_period[((s - t0) / 1_000_000) as usize] += 1;
        }
        assert!(per_period[..59].iter().all(|n| *n == LOAD_CONNS as u32), "{per_period:?}");
        // Requests due during the stall waited for its end.
        let stalled = res.samples.iter().filter(|s| s.done_ns - s.start_ns > 10_000_000).count();
        assert!(stalled >= 30, "{stalled} requests charged with the stall");
    }
}
