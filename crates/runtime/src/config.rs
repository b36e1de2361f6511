//! The settings of one live site, in one table: `repld`'s TOML-lite
//! file (`--config`: `key = value` lines and one `[peers]` table), its
//! flags and `ProcCluster`'s child arguments all parse through
//! `SETTINGS` into a [`ServeConfig`]. Each setting is one entry: its key
//! (the flag is the key with dashes), its one validator, which lands the
//! value in the config or its [`RuntimeOptions`], and the value the
//! launcher hands a child. Flags apply over the file wherever they
//! stand, and `--peer` entries are added to its `[peers]`.

use std::net::SocketAddr;
use std::num::{IntErrorKind, NonZeroU64, NonZeroUsize, ParseIntError};
use std::str::FromStr;
use std::time::Duration;

use repl_copygraph::DataPlacement;
use repl_core::deploy::{removed_batching_knob, ReactorKind};
use repl_types::{AddressMap, SiteId};

use crate::{LaunchOptions, NetFaultPlan, RuntimeOptions, RuntimeProtocol, ServeConfig};

/// `repld --help`, and the tail of every flag-syntax error.
pub const USAGE: &str = "\
usage: repld [--config FILE] [--site N] [--listen IP:PORT]
             [--protocol dagwt|dagt|backedge|naive] [--placement SPEC]
             [--reactor epoll] [--peer N=IP:PORT]...
             [--nemesis SPEC] [--eager-timeout-ms N] [--outbox-high-water N]
             [--mvcc] [--group-commit N]

SPEC is `sites|primary[:r1,r2][*count]|…`: the site count, then one
field per run of consecutive items placed alike, in item order — the
run's primary site, its replica sites, and how many items it holds
(`*count` left out: one). Example 1.1 is 3|0:1,2|1:2.

Flags override --config values. Addresses are an IP and a port; host
names are refused, not resolved. --listen IP:0 picks an ephemeral port
and announces it on stdout as `repld: site N listening on ADDR`.
Every connection is served from one nonblocking epoll readiness loop;
--reactor epoll names that driver and is accepted for compatibility
(--reactor threads was removed and is refused). --nemesis
injects a deterministic network fault schedule (see
NetFaultPlan::parse; give every site the same spec);
--eager-timeout-ms bounds a BackEdge eager phase before it aborts
(at least 1); --outbox-high-water caps per-link outbox growth before
writes are refused with a backpressure error (at least 1). --mvcc
serves all-read transactions from lock-free MVCC snapshots;
--group-commit batches N update commits per WAL flush (default 1,
at least 1).
--transport, --link-batch and --apply-pool were removed and are
refused: every site is an epoll reactor over TCP, applies one
transaction at a time and sends one frame per payload.";

/// What a command line or file has said so far: a [`ServeConfig`]
/// whose mandatory fields may still be missing.
#[derive(Debug, Default)]
struct Draft {
    site: Option<SiteId>,
    listen: Option<String>,
    protocol: Option<RuntimeProtocol>,
    placement: Option<DataPlacement>,
    peers: AddressMap,
    options: RuntimeOptions,
}

/// Validate one value, spelled under `name` (the key or the flag), and
/// land it in the draft.
type Set = fn(&mut Draft, &str, &str) -> Result<(), String>;

/// How a setting's value is written.
#[derive(PartialEq, Eq)]
enum Form {
    /// A `"quoted"` string in the file; the next argument as a flag.
    Quoted,
    /// Bare in the file (a number, or whatever a removed knob was
    /// given); the next argument as a flag.
    Bare,
    /// `true`/`false` in the file; as a flag, present means true.
    Switch,
}

/// What [`ProcCluster`](crate::ProcCluster) knows about one child it
/// is about to spawn.
pub(crate) struct Launch<'a> {
    pub site: SiteId,
    pub protocol: RuntimeProtocol,
    /// The placement in `DataPlacement::to_spec` form.
    pub placement: &'a str,
    pub options: &'a LaunchOptions,
}

/// One setting of a live site.
struct Setting {
    /// The file key; the flag is `--` and the key with dashes.
    key: &'static str,
    form: Form,
    set: Set,
    /// The value the launcher hands a child, if it sets this at all.
    launch: fn(&Launch) -> Option<String>,
}

impl Setting {
    fn flag(&self) -> String {
        format!("--{}", self.key.replace('_', "-"))
    }
}

/// Every setting `repld` accepts, and the ones it refuses by name.
const SETTINGS: &[Setting] = &[
    Setting {
        key: "site",
        form: Form::Bare,
        set: |d, name, v| number(name, v).map(|site| d.site = Some(SiteId(site))),
        launch: |l| Some(l.site.0.to_string()),
    },
    Setting {
        key: "listen",
        form: Form::Quoted,
        set: |d, _, v| {
            d.listen = Some(v.to_string());
            Ok(())
        },
        // Port 0: the child binds ephemerally and announces the address.
        launch: |_| Some("127.0.0.1:0".to_string()),
    },
    Setting {
        key: "protocol",
        form: Form::Quoted,
        set: |d, _, v| {
            let protocol =
                RuntimeProtocol::parse(v).ok_or_else(|| format!("unknown protocol {v:?}"));
            protocol.map(|protocol| d.protocol = Some(protocol))
        },
        launch: |l| Some(l.protocol.name().to_string()),
    },
    Setting {
        // The file key carries a placement of more runs than one
        // 128 KiB command-line argument holds.
        key: "placement",
        form: Form::Quoted,
        set: |d, _, v| {
            let placement =
                DataPlacement::from_spec(v).map_err(|e| format!("bad placement spec: {e}"));
            placement.map(|placement| d.placement = Some(placement))
        },
        launch: |l| Some(l.placement.to_string()),
    },
    Setting {
        // One value: the driver is not kept, only checked.
        key: "reactor",
        form: Form::Quoted,
        set: |_, _, v| ReactorKind::parse(v).map(drop),
        launch: |l| Some(l.options.reactor.name().to_string()),
    },
    Setting {
        key: "nemesis",
        form: Form::Quoted,
        set: |d, _, v| {
            let plan = NetFaultPlan::parse(v).map_err(|e| format!("bad nemesis spec: {e}"));
            plan.map(|plan| d.options.nemesis = Some(plan))
        },
        launch: |l| l.options.nemesis.clone(),
    },
    Setting {
        key: "eager_timeout_ms",
        form: Form::Bare,
        set: |d, name, v| {
            let ms = positive(name, v, "0 is a deadline already past when the eager phase starts");
            ms.map(|ms| d.options.tuning.eager_timeout = Duration::from_millis(NonZeroU64::get(ms)))
        },
        launch: |l| l.options.eager_timeout_ms.map(|ms| ms.to_string()),
    },
    Setting {
        key: "outbox_high_water",
        form: Form::Bare,
        set: |d, name, v| {
            let hw = positive(name, v, "0 refuses every write");
            hw.map(|hw| d.options.outbox_high_water = NonZeroUsize::get(hw))
        },
        launch: |l| l.options.outbox_high_water.map(|hw| hw.to_string()),
    },
    Setting {
        key: "mvcc",
        form: Form::Switch,
        set: |d, name, v| {
            let on = v.parse().map_err(|_| format!("{name} must be true or false"));
            on.map(|on| d.options.tuning.mvcc_reads = on)
        },
        launch: |l| l.options.mvcc.then(String::new),
    },
    Setting {
        key: "group_commit",
        form: Form::Bare,
        set: |d, name, v| {
            let n = positive(name, v, "0 never flushes a commit");
            n.map(|n| d.options.tuning.group_commit_batch = n)
        },
        launch: |l| l.options.group_commit.map(|batch| batch.to_string()),
    },
    Setting {
        key: "transport",
        form: Form::Bare,
        set: |_, name, _| {
            Err(format!(
                "{name} was removed: every site is an epoll reactor over TCP, in its own `repld` \
                 process or on a thread of the in-process cluster (drop the setting)"
            ))
        },
        launch: |_| None,
    },
    Setting {
        // `Some(1)` asks for the serial site there is, so it is not passed.
        key: "link_batch",
        form: Form::Bare,
        set: |_, name, _| Err(removed_batching_knob(name)),
        launch: |l| l.options.link_batch.filter(|&n| n != 1).map(|n| n.to_string()),
    },
    Setting {
        key: "apply_pool",
        form: Form::Bare,
        set: |_, name, _| Err(removed_batching_knob(name)),
        launch: |l| l.options.apply_pool.filter(|&n| n != 1).map(|n| n.to_string()),
    },
];

fn number<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{name} must be an integer"))
}

/// A number that must be at least 1, parsed into a `NonZero` type;
/// `zero` says why 0 is refused.
fn positive<T: FromStr<Err = ParseIntError>>(name: &str, v: &str, zero: &str) -> Result<T, String> {
    v.parse().map_err(|e: ParseIntError| match e.kind() {
        IntErrorKind::Zero => format!("{name} must be at least 1 ({zero})"),
        _ => format!("{name} must be an integer"),
    })
}

impl Draft {
    /// Add one `[peers]` entry or `--peer` flag, as `N=IP:PORT`.
    fn peer(&mut self, name: &str, v: &str) -> Result<(), String> {
        let (site, addr) =
            v.split_once('=').ok_or_else(|| format!("{name} wants N=IP:PORT, got {v:?}"))?;
        let id = site.parse().map_err(|_| format!("peer key {site:?} is not a site id"))?;
        self.peers.insert(SiteId(id), addr);
        Ok(())
    }

    /// Apply a TOML-lite file. Fails with a line-number-prefixed
    /// message on the first malformed line.
    fn apply_file(&mut self, text: &str) -> Result<(), String> {
        let mut in_peers = false;
        for (idx, raw) in text.lines().enumerate() {
            let at = |e: String| format!("line {}: {e}", idx + 1);
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                match section.strip_suffix(']').map(str::trim) {
                    Some("peers") => in_peers = true,
                    Some(other) => return Err(at(format!("unknown section [{other}]"))),
                    None => return Err(at("unterminated section header".into())),
                }
                continue;
            }
            let (key, value) =
                line.split_once('=').ok_or_else(|| at("expected `key = value`".into()))?;
            let (key, value) = (key.trim(), value.trim());
            if in_peers {
                let addr = unquote(value)
                    .ok_or_else(|| at("peer address must be a \"quoted\" string".into()))?;
                self.peer("peer", &format!("{key}={addr}")).map_err(at)?;
                continue;
            }
            let setting = SETTINGS
                .iter()
                .find(|s| s.key == key)
                .ok_or_else(|| at(format!("unknown key {key:?}")))?;
            let value = match setting.form {
                Form::Quoted => unquote(value)
                    .ok_or_else(|| at(format!("{key} must be a \"quoted\" string")))?,
                _ => value,
            };
            (setting.set)(self, key, value).map_err(at)?;
        }
        Ok(())
    }

    /// Read a command line: `--config FILE` first, then every flag over
    /// it. A later `--config` replaces an earlier one.
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Draft, String> {
        let mut draft = Draft::default();
        let mut flags: Vec<(Set, String, String)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value\n\n{USAGE}"));
            let (set, v): (Set, String) = match arg.as_str() {
                "--config" => {
                    let path = value()?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    draft = Draft::default();
                    draft.apply_file(&text).map_err(|e| format!("{path}: {e}"))?;
                    continue;
                }
                "--peer" => (Draft::peer, value()?),
                _ => {
                    let setting = SETTINGS
                        .iter()
                        .find(|s| s.flag() == arg)
                        .ok_or_else(|| format!("unknown flag {arg:?}\n\n{USAGE}"))?;
                    let v = match setting.form {
                        Form::Switch => "true".to_string(),
                        Form::Quoted | Form::Bare => value()?,
                    };
                    (setting.set, v)
                }
            };
            flags.push((set, arg, v));
        }
        for (set, name, v) in flags {
            set(&mut draft, &name, &v)?;
        }
        Ok(draft)
    }

    /// The mandatory-field check, and the settings checked against the
    /// placement.
    fn finish(self) -> Result<ServeConfig, String> {
        if let Some(placement) = &self.placement {
            if let Some(plan) = &self.options.nemesis {
                plan.check_sites(placement.num_sites())
                    .map_err(|e| format!("bad nemesis spec: {e}"))?;
            }
            check_peers(&self.peers, placement.num_sites())?;
        }
        Ok(ServeConfig {
            site: self.site.ok_or("missing site id (--site or `site =` in the config)")?,
            listen: self.listen.ok_or("missing listen address (--listen)")?,
            protocol: self.protocol.ok_or("missing protocol (--protocol)")?,
            placement: self.placement.ok_or("missing placement (--placement)")?,
            peers: self.peers,
            options: self.options,
        })
    }
}

/// Refuse an address map a site would dial wrongly: an address that is
/// not an IP and a port, a site listed twice or outside the placement,
/// two sites at one address (a site could dial itself), and — once any
/// peer is given — a site with none, whose peers would wait for it
/// forever.
fn check_peers(peers: &AddressMap, sites: u32) -> Result<(), String> {
    let mut addrs: Vec<Option<SocketAddr>> = vec![None; sites as usize];
    for (site, addr) in peers.iter() {
        let parsed = addr.parse().map_err(|_| {
            format!("peer {} address {addr:?} is not an IP address and a port", site.0)
        })?;
        match addrs.get(site.index()) {
            None => return Err(format!("peer {} is outside a {sites}-site placement", site.0)),
            Some(Some(_)) => return Err(format!("peer {} is given more than one address", site.0)),
            Some(None) => {}
        }
        if let Some(other) = addrs.iter().position(|a| *a == Some(parsed)) {
            return Err(format!("peers {other} and {} share address {addr:?}", site.0));
        }
        addrs[site.index()] = Some(parsed);
    }
    match addrs.iter().position(Option::is_none) {
        Some(missing) if !peers.is_empty() => {
            Err(format!("peer {missing} has no address; its peers could never dial it"))
        }
        _ => Ok(()),
    }
}

impl ServeConfig {
    /// Parse `repld`'s command line (without the program name): an
    /// optional `--config FILE`, flags over it, then the check that
    /// site, listen address, protocol and placement are all given, and
    /// the nemesis plan and address map checked against the placement.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<ServeConfig, String> {
        Draft::from_args(args)?.finish()
    }
}

/// `launch`'s settings as `repld` arguments.
pub(crate) fn launch_args(launch: &Launch) -> Vec<String> {
    let mut args = Vec::new();
    for setting in SETTINGS {
        if let Some(v) = (setting.launch)(launch) {
            args.push(setting.flag());
            if setting.form != Form::Switch {
                args.push(v);
            }
        }
    }
    args
}

/// Drop a `#`-to-end-of-line comment, but not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Strip surrounding double quotes. No escape sequences — addresses
/// and protocol names never need them.
fn unquote(value: &str) -> Option<&str> {
    value.strip_prefix('"').and_then(|v| v.strip_suffix('"')).filter(|v| !v.contains('"'))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::Tuning;

    fn flags(args: &[&str]) -> Result<Draft, String> {
        Draft::from_args(args.iter().map(|arg| arg.to_string()))
    }

    fn file(text: &str) -> Result<Draft, String> {
        let mut draft = Draft::default();
        draft.apply_file(text).map(|()| draft)
    }

    #[test]
    fn parses_full_config() {
        let text = r#"
            # three-site loopback cluster, this process is site 1
            site = 1
            listen = "127.0.0.1:7101"  # announced port
            protocol = "dagwt"
            reactor = "epoll"
            placement = "3|0:1,2*1000|1:2*1000|2*1000"
            nemesis = "seed=7;part=0-1@100..400"
            eager_timeout_ms = 250
            outbox_high_water = 4096
            mvcc = true
            group_commit = 8

            [peers]
            0 = "127.0.0.1:7100"
            1 = "127.0.0.1:7101"
            2 = "127.0.0.1:7102"
        "#;
        let cfg = file(text).unwrap().finish().unwrap();
        assert_eq!(cfg.site, SiteId(1));
        assert_eq!(cfg.listen, "127.0.0.1:7101");
        assert_eq!(cfg.protocol, RuntimeProtocol::DagWt);
        assert_eq!(cfg.placement.num_items(), 3000);
        assert_eq!(cfg.options.nemesis, NetFaultPlan::parse("seed=7;part=0-1@100..400").ok());
        assert_eq!(cfg.options.tuning.eager_timeout, Duration::from_millis(250));
        assert_eq!(cfg.options.outbox_high_water, 4096);
        assert!(cfg.options.tuning.mvcc_reads);
        assert_eq!(cfg.options.tuning.group_commit_batch.get(), 8);
        assert_eq!(cfg.peers.len(), 3);
        assert_eq!(cfg.peers.get(SiteId(2)), Some("127.0.0.1:7102"));
    }

    #[test]
    fn rejects_malformed_lines() {
        for (text, needle) in [
            ("site = x", "integer"),
            ("listen = 127.0.0.1:7100", "quoted"),
            ("[peers\n0 = \"a:1\"", "unterminated"),
            ("[cluster]", "unknown section"),
            ("frobnicate = 3", "unknown key"),
            ("just a line", "key = value"),
            ("[peers]\nzero = \"a:1\"", "site id"),
            ("transport = \"tcp\"", "transport was removed"),
            ("reactor = \"fibers\"", "unknown reactor"),
            ("reactor = \"threads\"", "removed in PR 21"),
            ("nemesis = seed=1", "quoted"),
            ("eager_timeout_ms = \"soon\"", "integer"),
            ("outbox_high_water = lots", "integer"),
            ("outbox_high_water = 0", "outbox_high_water must be at least 1"),
            ("mvcc = \"yes\"", "true or false"),
            ("group_commit = \"many\"", "integer"),
            ("group_commit = 0", "group_commit must be at least 1 (0 never flushes a commit)"),
            ("link_batch = 8", "link_batch was removed in PR 23"),
            ("apply_pool = 4", "apply_pool was removed in PR 23"),
        ] {
            let err = file(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} → {err:?} missing {needle:?}");
        }
    }

    /// A file's settings, under flags given before and after its
    /// `--config`: every flag wins, and `--peer` is added to the map.
    #[test]
    fn flags_override_file() {
        let path = std::env::temp_dir().join(format!("repld-override-{}.toml", std::process::id()));
        std::fs::write(&path, "site = 0\nlisten = \"a:1\"\nnemesis = \"seed=1\"").unwrap();
        let merged = flags(&[
            "--site",
            "2",
            "--config",
            path.to_str().unwrap(),
            "--nemesis",
            "seed=2;drop=50",
            "--outbox-high-water",
            "64",
            "--peer",
            "0=b:2",
        ]);
        std::fs::remove_file(&path).unwrap();
        let merged = merged.unwrap();
        assert_eq!(merged.site, Some(SiteId(2)));
        assert_eq!(merged.listen.as_deref(), Some("a:1"));
        assert_eq!(merged.options.nemesis, NetFaultPlan::parse("seed=2;drop=50").ok());
        assert_eq!(merged.options.outbox_high_water, 64);
        assert_eq!(merged.peers.get(SiteId(0)), Some("b:2"));
    }

    #[test]
    fn comments_respect_strings() {
        let cfg = file("listen = \"host#0:99\" # trailing").unwrap();
        assert_eq!(cfg.listen.as_deref(), Some("host#0:99"));
    }

    /// An eager timeout of 0 arms a deadline already past: a BackEdge
    /// eager phase would commit only if its special came home by the
    /// reactor's next pass. The flag is refused.
    #[test]
    fn zero_eager_timeout_flag_is_refused() {
        let parse = |ms: &str| flags(&["--eager-timeout-ms", ms]);
        let err = parse("0").unwrap_err();
        assert!(err.contains("--eager-timeout-ms must be at least 1"), "{err}");
        assert_eq!(parse("1").unwrap().options.tuning.eager_timeout, Duration::from_millis(1));
    }

    /// Nemesis specs a site used to start with: a permille that `as u16`
    /// wrapped (66536 → 1000, every frame dropped) or that is above
    /// 1000, a site id that `as u32` wrapped to 0, a site cut off from
    /// itself, and a window naming a site the placement does not have.
    const BAD_NEMESIS: [(&str, &str); 5] = [
        ("seed=1;drop=66536", "more than 1000 permille"),
        ("seed=1;drop=1500", "more than 1000 permille"),
        ("seed=1;part=4294967296-1@0..10", "not a site id"),
        ("seed=1;part=0-0@0..10", "cut off from itself"),
        ("seed=1;pause=3@0..10", "site 3 is outside a 3-site placement"),
    ];

    #[test]
    fn out_of_range_nemesis_flag_is_refused() {
        let parse = |spec: &str| {
            let args = ["--site", "0", "--listen", "127.0.0.1:0", "--protocol", "dagwt"];
            let args = args.into_iter().chain(["--placement", "3|0*2", "--nemesis", spec]);
            ServeConfig::from_args(args.map(String::from))
        };
        for (spec, needle) in BAD_NEMESIS {
            let err = parse(spec).map(drop).unwrap_err();
            assert!(err.contains("bad nemesis spec") && err.contains(needle), "{spec}: {err}");
        }
        assert!(parse("seed=1;drop=1000;part=0-2@0..10;pause=2@0..10").is_ok());
    }

    /// [`out_of_range_nemesis_flag_is_refused`], spelled as a file key.
    #[test]
    fn out_of_range_nemesis_key_is_refused() {
        let parse = |spec: &str| {
            let head = "site = 0\nlisten = \"127.0.0.1:0\"\nprotocol = \"dagwt\"\n";
            file(&format!("{head}placement = \"3|0*2\"\nnemesis = \"{spec}\""))
                .and_then(Draft::finish)
        };
        for (spec, needle) in BAD_NEMESIS {
            let err = parse(spec).map(drop).unwrap_err();
            assert!(err.contains("bad nemesis spec") && err.contains(needle), "{spec}: {err}");
        }
        assert!(parse("seed=1;drop=1000;part=0-2@0..10;pause=2@0..10").is_ok());
    }

    /// [`zero_eager_timeout_flag_is_refused`], spelled as a file key.
    #[test]
    fn zero_eager_timeout_key_is_refused() {
        let err = file("eager_timeout_ms = 0").unwrap_err();
        assert!(err.contains("line 1: eager_timeout_ms must be at least 1"), "{err}");
        let cfg = file("eager_timeout_ms = 1").unwrap();
        assert_eq!(cfg.options.tuning.eager_timeout, Duration::from_millis(1));
    }

    /// A group-commit batch of 0 would stage commits that no batch-full
    /// ever flushes. The flag is refused, as the key is in
    /// [`rejects_malformed_lines`].
    #[test]
    fn zero_group_commit_flag_is_refused() {
        let parse = |n: &str| flags(&["--group-commit", n]);
        let err = parse("0").unwrap_err();
        assert!(err.contains("--group-commit must be at least 1"), "{err}");
        assert_eq!(parse("1").unwrap().options.tuning.group_commit_batch.get(), 1);
    }

    /// The arguments `ProcCluster` gives a child for a `LaunchOptions`
    /// with every live field set parse into the `RuntimeOptions` a
    /// `Cluster::start_with` caller builds for the same settings.
    #[test]
    fn launch_options_round_trip_to_the_runtime_options_of_the_in_process_cluster() {
        let plan = NetFaultPlan::parse("seed=3;drop=20;part=0-1@10..40").unwrap();
        let options = LaunchOptions {
            reactor: ReactorKind::Epoll,
            nemesis: Some(plan.to_spec()),
            eager_timeout_ms: Some(250),
            outbox_high_water: Some(64),
            mvcc: true,
            group_commit: Some(4),
            link_batch: Some(1),
            apply_pool: Some(1),
        };
        let placement = "3|0:1,2*10|1:2*10|2*10";
        let launch = Launch {
            site: SiteId(2),
            protocol: RuntimeProtocol::BackEdge,
            placement,
            options: &options,
        };
        let cfg = ServeConfig::from_args(launch_args(&launch)).unwrap();
        let in_process = RuntimeOptions {
            nemesis: Some(plan),
            tuning: Tuning {
                eager_timeout: Duration::from_millis(250),
                mvcc_reads: true,
                group_commit_batch: NonZeroUsize::new(4).unwrap(),
                ..Tuning::LIVE
            },
            outbox_high_water: 64,
        };
        assert_eq!(cfg.options, in_process);
        assert_eq!(
            (cfg.site, cfg.protocol, cfg.listen.as_str()),
            (SiteId(2), RuntimeProtocol::BackEdge, "127.0.0.1:0")
        );
        assert_eq!(cfg.placement.to_spec(), placement);
        assert!(cfg.peers.is_empty());
    }

    /// Site 0 of a two-site placement, with `peers` given once as
    /// `--peer` flags and once as the `[peers]` table of a `--config`
    /// file.
    fn with_peers(peers: &[(u32, &str)]) -> [Result<ServeConfig, String>; 2] {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let head = ["--site", "0", "--listen", "127.0.0.1:0", "--protocol", "dagwt"];
        let head = head.into_iter().chain(["--placement", "2|0:1|1"]).map(String::from);
        let flags =
            peers.iter().flat_map(|(site, addr)| ["--peer".into(), format!("{site}={addr}")]);
        let by_flag = ServeConfig::from_args(head.clone().chain(flags));
        let n = FILES.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("repld-peers-{}-{n}.toml", std::process::id()));
        let table: String =
            peers.iter().map(|(site, addr)| format!("{site} = \"{addr}\"\n")).collect();
        std::fs::write(&path, format!("[peers]\n{table}")).unwrap();
        let by_key =
            ServeConfig::from_args(head.chain(["--config".into(), path.to_str().unwrap().into()]));
        std::fs::remove_file(&path).unwrap();
        [by_flag, by_key]
    }

    #[test]
    fn a_well_formed_address_map_is_accepted() {
        for cfg in with_peers(&[(0, "127.0.0.1:7100"), (1, "127.0.0.1:7101")]) {
            assert_eq!(cfg.unwrap().peers.get(SiteId(1)), Some("127.0.0.1:7101"));
        }
        for cfg in with_peers(&[]) {
            assert!(cfg.unwrap().peers.is_empty(), "a launcher pushes the map later");
        }
    }

    /// An address map a site would dial wrongly is refused where it is
    /// parsed, under either spelling, by an error that names the peer.
    #[test]
    fn a_malformed_address_map_is_refused_under_both_spellings() {
        const OK: (u32, &str) = (0, "127.0.0.1:7100");
        let mut cases = vec![
            (
                vec![OK, (1, "127.0.0.1:7101"), (1, "127.0.0.1:7199")],
                "peer 1 is given more than one address",
            ),
            (
                vec![OK, (1, "127.0.0.1:7101"), (9, "127.0.0.1:7109")],
                "peer 9 is outside a 2-site placement",
            ),
            (vec![OK], "peer 1 has no address"),
            (vec![OK, (1, "127.0.0.1:7100")], "peers 0 and 1 share address \"127.0.0.1:7100\""),
        ];
        for bad in ["localhost", ":7100", "host:", "host:notaport", "host:99999", "a:1"] {
            cases.push((vec![OK, (1, bad)], "is not an IP address and a port"));
        }
        for (peers, needle) in cases {
            for cfg in with_peers(&peers) {
                let err = cfg.map(drop).unwrap_err();
                assert!(err.contains(needle), "{peers:?}: {err:?} missing {needle:?}");
            }
        }
    }

    /// `USAGE` and the table name the same flags: every setting appears
    /// in it as its flag, and every flag it names is a setting, except
    /// the three that are not settings.
    #[test]
    fn usage_names_every_setting_and_nothing_else() {
        for setting in SETTINGS {
            assert!(USAGE.contains(&setting.flag()), "USAGE does not name {}", setting.flag());
        }
        let named = USAGE.split("--").skip(1).map(|rest| {
            let end = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '-'));
            format!("--{}", &rest[..end.unwrap_or(rest.len())])
        });
        for flag in named {
            let known = ["--config", "--peer", "--help"].contains(&flag.as_str())
                || SETTINGS.iter().any(|s| s.flag() == flag);
            assert!(known, "USAGE names {flag}, which is not in the settings table");
        }
    }
}
