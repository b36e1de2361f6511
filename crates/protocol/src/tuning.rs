//! The settings the simulator's `Engine` and the live runtime's
//! `SiteCore` both read and mean the same way, spelled once. Each
//! executor reads a [`Tuning`] through one exhaustive destructure, so a
//! field added here fails to compile in both until both use it.

use core::num::NonZeroUsize;
use core::time::Duration;

/// The timing and execution settings shared by the simulator and the
/// live fleet, in two profiles: [`Tuning::PAPER`] and [`Tuning::LIVE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tuning {
    /// DAG(T): a source site bumps its epoch this often (§3.3).
    pub epoch_period: Duration,
    /// DAG(T) idle fallback: a copy-graph child link idle this long gets
    /// a dummy (§3.3 "no communication for a while"); a child waiting on
    /// a secondary its parent applied gets one at once.
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
