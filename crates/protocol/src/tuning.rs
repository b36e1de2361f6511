//! The settings the simulator's `Engine` and the live runtime's
//! `SiteCore` both read and mean the same way, spelled once. Each
//! executor reads a [`Tuning`] through one exhaustive destructure, so a
//! field added here fails to compile in both until both use it; the two
//! DAG(T) periods they pass on to `SiteMachine::with_tuning`.

use core::num::NonZeroUsize;
use core::time::Duration;

/// The timing and execution settings shared by the simulator and the
/// live fleet, in two profiles: [`Tuning::PAPER`] and [`Tuning::LIVE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tuning {
    /// DAG(T): a source's machine bumps its epoch this often (§3.3),
    /// from boot and from each restart.
    pub epoch_period: Duration,
    /// DAG(T) idle fallback: this often, from 1 µs after boot or restart,
    /// the machine sends a dummy to each copy-graph child no
    /// subtransaction went to for this long (§3.3 "no communication for
    /// a while"); the live site sends one at once to a child waiting on a
    /// secondary it applied.
    pub heartbeat_period: Duration,
    /// BackEdge (§4): a primary whose special has not come home this
    /// long after its eager phase began aborts. The paper's prototype
    /// applied its lock timeout to this commit wait too: `PAPER` is
    /// Table 1's 50 ms deadlock timeout.
    pub eager_timeout: Duration,
    /// Serve all-read transactions from a lock-free MVCC snapshot of
    /// committed versions instead of taking 2PL shared locks.
    pub mvcc_reads: bool,
    /// Group commit: update commits per redo-WAL flush (1 appends each
    /// commit on its own).
    pub group_commit_batch: NonZeroUsize,
}

impl Tuning {
    /// The simulator's defaults: the paper's prototype (§5, Table 1).
    pub const PAPER: Tuning = Tuning {
        epoch_period: Duration::from_millis(50),
        heartbeat_period: Duration::from_millis(25),
        eager_timeout: Duration::from_millis(50),
        mvcc_reads: false,
        group_commit_batch: NonZeroUsize::MIN,
    };

    /// The live fleet's defaults: short DAG(T) periods, and seconds for
    /// an eager phase, whose abort a client sees.
    pub const LIVE: Tuning = Tuning {
        epoch_period: Duration::from_millis(20),
        heartbeat_period: Duration::from_millis(2),
        eager_timeout: Duration::from_secs(10),
        ..Tuning::PAPER
    };
}
