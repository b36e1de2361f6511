//! Deployment configuration for process-per-site clusters: which site
//! this process is, where it listens, where its peers are, and which
//! protocol/placement the cluster runs.
//!
//! The on-disk format is a deliberately tiny TOML subset (top-level
//! `key = value` pairs plus one `[peers]` table mapping site ids to
//! addresses) so the `repld` binary needs no external parser crate.
//! Command-line flags override file values field by field.

use repl_types::{AddressMap, SiteId};

/// The I/O driver a `repld` process runs its site on. There is one:
/// the thread-per-connection driver was removed in PR 21 (it was an
/// order of magnitude behind on every benchmark workload). The type,
/// [`DeployConfig::reactor`] and `repld --reactor epoll` remain only
/// because `benchmark/` names them and that PR could not edit it; they
/// go with the benchmark's own `--reactor` flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReactorKind {
    /// A single-threaded nonblocking epoll readiness loop owning every
    /// connection.
    #[default]
    Epoll,
}

impl ReactorKind {
    /// Parse a config/flag spelling.
    pub fn parse(s: &str) -> Result<ReactorKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "epoll" | "reactor" => Ok(ReactorKind::Epoll),
            "threads" | "thread" | "blocking" => Err(format!(
                "reactor {s:?} was removed in PR 21: epoll is the only TCP driver \
                 (drop the setting, or say \"epoll\")"
            )),
            other => Err(format!("unknown reactor {other:?} (expected \"epoll\")")),
        }
    }

    /// The canonical flag spelling (what `--reactor` accepts back).
    pub fn name(self) -> &'static str {
        match self {
            ReactorKind::Epoll => "epoll",
        }
    }
}

/// The refusal for a removed live batching knob, by the spelling it was
/// asked for under (`link_batch`, `--apply-pool`, …): the TOML parser,
/// `repld`'s flag parser and the `ProcCluster` launcher all answer with
/// this one message.
pub fn removed_batching_knob(name: &str) -> String {
    format!(
        "{name} was removed in PR 23: link batching and the apply window were removed from \
         `repld` in PR 23 and from the simulator in PR 33; a site applies one transaction at \
         a time and sends one frame per payload (drop the setting)"
    )
}

/// Parsed deployment config for one `repld` process. All fields are
/// optional here — `repld` decides which are mandatory after merging
/// flags over the file.
#[derive(Clone, Debug, Default)]
pub struct DeployConfig {
    /// This process's site id.
    pub site: Option<u32>,
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = pick an ephemeral
    /// port and announce it on stdout).
    pub listen: Option<String>,
    /// Protocol name (`dagwt`, `dagt`, `backedge`, `naive`).
    pub protocol: Option<String>,
    /// Placement spec string (`DataPlacement::to_spec` format), one
    /// field per run of items placed alike, e.g. the benchmark's `chain3`
    /// is `3|0:1,2*1000|1:2*1000|2*1000`. A config file's `placement =`
    /// key is the route for a placement of more runs than one 128 KiB
    /// command-line argument holds.
    pub placement: Option<String>,
    /// I/O driver selection: accepted for compatibility, one value
    /// (see [`ReactorKind`]).
    pub reactor: Option<ReactorKind>,
    /// Deterministic network-fault schedule, in the runtime's
    /// `NetFaultPlan` spec format (opaque to this parser; validated by
    /// `repld`). Every site of a cluster must be given the same spec.
    pub nemesis: Option<String>,
    /// Eager-phase abort deadline override, in milliseconds.
    pub eager_timeout_ms: Option<u64>,
    /// Per-link outbox high-water mark override, in frames.
    pub outbox_high_water: Option<u64>,
    /// Serve all-read transactions from MVCC snapshots (lock-free
    /// reads of committed versions) instead of 2PL store transactions.
    pub mvcc: Option<bool>,
    /// Group-commit batch size: WAL commit records are flushed every
    /// this-many update commits (1 = per-commit, the default).
    pub group_commit: Option<u64>,
    /// Site id → dial address for every peer. May be left empty when a
    /// launcher pushes the map over the client protocol instead.
    pub peers: AddressMap,
}

impl DeployConfig {
    /// Parse the TOML-lite deployment format. Returns
    /// `Err(line-number-prefixed message)` on the first malformed line.
    pub fn parse(text: &str) -> Result<DeployConfig, String> {
        let mut cfg = DeployConfig::default();
        let mut in_peers = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let section = section
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                    .trim();
                match section {
                    "peers" => in_peers = true,
                    other => return Err(format!("line {lineno}: unknown section [{other}]")),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if in_peers {
                let site: u32 = key
                    .parse()
                    .map_err(|_| format!("line {lineno}: peer key {key:?} is not a site id"))?;
                let addr = unquote(value).ok_or_else(|| {
                    format!("line {lineno}: peer address must be a \"quoted\" string")
                })?;
                cfg.peers.insert(SiteId(site), addr);
                continue;
            }
            match key {
                "site" => {
                    cfg.site = Some(
                        value
                            .parse()
                            .map_err(|_| format!("line {lineno}: site must be an integer"))?,
                    );
                }
                "listen" => {
                    cfg.listen = Some(unquote(value).ok_or_else(|| {
                        format!("line {lineno}: listen must be a \"quoted\" string")
                    })?);
                }
                "protocol" => {
                    cfg.protocol = Some(unquote(value).ok_or_else(|| {
                        format!("line {lineno}: protocol must be a \"quoted\" string")
                    })?);
                }
                "placement" => {
                    cfg.placement = Some(unquote(value).ok_or_else(|| {
                        format!("line {lineno}: placement must be a \"quoted\" string")
                    })?);
                }
                "transport" => {
                    return Err(format!(
                        "line {lineno}: transport was removed: every site is an epoll reactor \
                         over TCP, in its own `repld` process or on a thread of the in-process \
                         cluster (drop the setting)"
                    ));
                }
                "reactor" => {
                    let s = unquote(value).ok_or_else(|| {
                        format!("line {lineno}: reactor must be a \"quoted\" string")
                    })?;
                    cfg.reactor =
                        Some(ReactorKind::parse(&s).map_err(|e| format!("line {lineno}: {e}"))?);
                }
                "nemesis" => {
                    cfg.nemesis = Some(unquote(value).ok_or_else(|| {
                        format!("line {lineno}: nemesis must be a \"quoted\" string")
                    })?);
                }
                "eager_timeout_ms" => {
                    cfg.eager_timeout_ms = Some(value.parse().map_err(|_| {
                        format!("line {lineno}: eager_timeout_ms must be an integer")
                    })?);
                }
                "outbox_high_water" => match value.parse() {
                    Ok(0) => {
                        return Err(format!(
                            "line {lineno}: outbox_high_water must be at least 1 \
                             (0 refuses every write)"
                        ))
                    }
                    Ok(hw) => cfg.outbox_high_water = Some(hw),
                    Err(_) => {
                        return Err(format!("line {lineno}: outbox_high_water must be an integer"))
                    }
                },
                "mvcc" => {
                    cfg.mvcc = Some(
                        value
                            .parse()
                            .map_err(|_| format!("line {lineno}: mvcc must be true or false"))?,
                    );
                }
                "group_commit" => {
                    cfg.group_commit =
                        Some(value.parse().map_err(|_| {
                            format!("line {lineno}: group_commit must be an integer")
                        })?);
                }
                "link_batch" | "apply_pool" => {
                    return Err(format!("line {lineno}: {}", removed_batching_knob(key)));
                }
                other => return Err(format!("line {lineno}: unknown key {other:?}")),
            }
        }
        Ok(cfg)
    }

    /// Overlay `flags` over `self`: any field set in `flags` wins, and
    /// peer entries from `flags` are appended.
    pub fn merged_with(mut self, flags: DeployConfig) -> DeployConfig {
        if flags.site.is_some() {
            self.site = flags.site;
        }
        if flags.listen.is_some() {
            self.listen = flags.listen;
        }
        if flags.protocol.is_some() {
            self.protocol = flags.protocol;
        }
        if flags.placement.is_some() {
            self.placement = flags.placement;
        }
        if flags.reactor.is_some() {
            self.reactor = flags.reactor;
        }
        if flags.nemesis.is_some() {
            self.nemesis = flags.nemesis;
        }
        if flags.eager_timeout_ms.is_some() {
            self.eager_timeout_ms = flags.eager_timeout_ms;
        }
        if flags.outbox_high_water.is_some() {
            self.outbox_high_water = flags.outbox_high_water;
        }
        if flags.mvcc.is_some() {
            self.mvcc = flags.mvcc;
        }
        if flags.group_commit.is_some() {
            self.group_commit = flags.group_commit;
        }
        for (site, addr) in flags.peers.entries() {
            self.peers.insert(*site, addr.clone());
        }
        self
    }
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
fn unquote(value: &str) -> Option<String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .filter(|v| !v.contains('"'))
        .map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cfg = DeployConfig::parse(text).unwrap();
        assert_eq!(cfg.site, Some(1));
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:7101"));
        assert_eq!(cfg.protocol.as_deref(), Some("dagwt"));
        let placement = repl_copygraph::DataPlacement::from_spec(cfg.placement.as_deref().unwrap());
        assert_eq!(placement.map(|p| p.num_items()), Ok(3000));
        assert_eq!(cfg.reactor, Some(ReactorKind::Epoll));
        assert_eq!(cfg.nemesis.as_deref(), Some("seed=7;part=0-1@100..400"));
        assert_eq!(cfg.eager_timeout_ms, Some(250));
        assert_eq!(cfg.outbox_high_water, Some(4096));
        assert_eq!(cfg.mvcc, Some(true));
        assert_eq!(cfg.group_commit, Some(8));
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
            ("link_batch = 8", "link_batch was removed in PR 23"),
            ("apply_pool = 4", "apply_pool was removed in PR 23"),
        ] {
            let err = DeployConfig::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} → {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn flags_override_file() {
        let file = DeployConfig::parse("site = 0\nlisten = \"a:1\"\nnemesis = \"seed=1\"").unwrap();
        let mut flags = DeployConfig {
            site: Some(2),
            nemesis: Some("seed=2;drop=50".to_string()),
            outbox_high_water: Some(64),
            ..Default::default()
        };
        flags.peers.insert(SiteId(0), "b:2".to_string());
        let merged = file.merged_with(flags);
        assert_eq!(merged.site, Some(2));
        assert_eq!(merged.listen.as_deref(), Some("a:1"));
        assert_eq!(merged.nemesis.as_deref(), Some("seed=2;drop=50"));
        assert_eq!(merged.outbox_high_water, Some(64));
        assert_eq!(merged.peers.get(SiteId(0)), Some("b:2"));
    }

    #[test]
    fn comments_respect_strings() {
        let cfg = DeployConfig::parse("listen = \"host#0:99\" # trailing").unwrap();
        assert_eq!(cfg.listen.as_deref(), Some("host#0:99"));
    }
}
