//! Regression test for the epoll reactor's dial pass while a site does
//! not know its peers' addresses yet.
//!
//! A launcher binds every `repld` on an ephemeral port and pushes the
//! address map only afterwards (`ClientMsg::Peers`). Until then there is
//! nothing to dial. The reactor used to treat "no address" as a failed
//! dial: every pass charged `dial_failures` to a peer never dialled —
//! so a site waiting for its launcher reported its peers Suspect — and
//! armed the retry backoff, so the first real dial after the push waited
//! out up to 200 ms.
//!
//! Alone in its test binary on purpose: the assertions are about
//! milliseconds, and tests of one binary run in parallel.
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use repl_copygraph::DataPlacement;
use repl_net::{read_msg, write_msg, ClientMsg, ClientReply, WireMsg};
use repl_types::{Op, SiteId, Value};

/// How long the launcher sits on the address map. Longer than the
/// default `suspect_after` (150 ms): a peer charged with failed dials is
/// reported Up until it has been silent that long, so a shorter delay
/// would hide the bogus failures.
const PUSH_DELAY: Duration = Duration::from_millis(200);
/// The mesh must carry an update end to end this soon after the push.
const MESH_DEADLINE: Duration = Duration::from_millis(20);

struct Site {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    conn: TcpStream,
}

impl Drop for Site {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request(site: &mut Site, msg: ClientMsg) -> ClientReply {
    write_msg(&mut site.conn, &WireMsg::Client(msg)).expect("send request");
    match read_msg(&mut site.conn).expect("read reply") {
        WireMsg::Reply(reply) => reply,
        other => panic!("unexpected frame {}", other.kind_name()),
    }
}

fn health(site: &mut Site) -> (u32, u32, u32) {
    match request(site, ClientMsg::Stats) {
        ClientReply::Stats { peers_up, peers_suspect, peers_down, .. } => {
            (peers_up, peers_suspect, peers_down)
        }
        other => panic!("unexpected stats reply {other:?}"),
    }
}

#[test]
fn late_peers_push_is_dialed_at_once_and_charges_no_failures() {
    // One item at s0, replicated down the chain s0 → s1 → s2.
    let mut placement = DataPlacement::new(3);
    let item = placement.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    let spec = placement.to_spec();

    let mut sites: Vec<Site> = (0..3)
        .map(|i| {
            let mut child = Command::new(env!("CARGO_BIN_EXE_repld"))
                .args(["--site", &i.to_string(), "--listen", "127.0.0.1:0"])
                .args(["--protocol", "dagwt", "--placement", &spec, "--reactor", "epoll"])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn repld");
            let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
            let mut banner = String::new();
            stdout.read_line(&mut banner).expect("read banner");
            let addr = banner.trim().rsplit(" listening on ").next().expect("banner").to_string();
            let conn = TcpStream::connect(&addr).expect("connect client session");
            conn.set_nodelay(true).expect("nodelay");
            Site { child, _stdout: stdout, addr, conn }
        })
        .collect();

    std::thread::sleep(PUSH_DELAY);
    // Nothing was dialled, so nothing failed: every peer is still Up.
    for (i, site) in sites.iter_mut().enumerate() {
        assert_eq!(health(site), (2, 0, 0), "s{i} before the push");
    }

    let peers: Vec<(SiteId, String)> =
        sites.iter().enumerate().map(|(i, s)| (SiteId(i as u32), s.addr.clone())).collect();
    for site in &mut sites {
        assert_eq!(request(site, ClientMsg::Peers(peers.clone())), ClientReply::Ok);
    }
    let pushed = Instant::now();

    // An update committed at s0 reaches s2 over two links that did not
    // exist before the push — promptly only if both were dialled on the
    // pass that learned the addresses, not after a backoff.
    let reply = request(&mut sites[0], ClientMsg::Execute(vec![Op::write(item, 7)]));
    assert!(matches!(reply, ClientReply::Executed(Ok(_))), "{reply:?}");
    loop {
        let seen = request(&mut sites[2], ClientMsg::Peek(item));
        if matches!(&seen, ClientReply::Cell(Some((v, _))) if *v == Value::int(7)) {
            break;
        }
        assert!(pushed.elapsed() < Duration::from_secs(5), "update never reached s2");
        std::thread::sleep(Duration::from_micros(200));
    }
    let took = pushed.elapsed();
    assert!(took <= MESH_DEADLINE, "mesh took {took:?} to carry an update after the push");
    for (i, site) in sites.iter_mut().enumerate() {
        assert_eq!(health(site), (2, 0, 0), "s{i} after the push");
    }

    for site in &mut sites {
        assert_eq!(request(site, ClientMsg::Shutdown), ClientReply::Ok);
    }
    for site in &mut sites {
        let _ = site.child.wait();
    }
}
