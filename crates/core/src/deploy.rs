//! Two deployment names kept in `repl-core`: the one-valued
//! [`ReactorKind`], which the benchmark imports, and the refusal of a
//! removed batching knob. The settings of a live site themselves live
//! in `repl-runtime`'s settings table (`repl_runtime::config`).

/// The I/O driver a `repld` process runs its site on. There is one:
/// the thread-per-connection driver was removed in PR 21 (it was an
/// order of magnitude behind on every benchmark workload). The type
/// and `repld --reactor epoll` remain only because `benchmark/` names
/// them; they go with the benchmark's own `--reactor` flag.
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
/// asked for under (`link_batch`, `--apply-pool`, …): the settings
/// table answers a file key, a flag and a `ProcCluster` launch with this
/// one message.
pub fn removed_batching_knob(name: &str) -> String {
    format!(
        "{name} was removed in PR 23: link batching and the apply window were removed from \
         `repld` in PR 23 and from the simulator in PR 33; a site applies one transaction at \
         a time and sends one frame per payload (drop the setting)"
    )
}
