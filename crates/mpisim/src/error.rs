//! Typed MPI-layer errors.
//!
//! The shared error surface of the partitioned runtime: `core` (point-to-
//! point partitioned requests), `collectives` (the Algorithm-2 engine), and
//! the applications all report failures through [`MpiError`] instead of
//! panicking or deadlocking. Watchdog variants carry the offending rank /
//! partition / step so a chaos-test failure is diagnosable from the error
//! alone.

use parcomm_net::TopologyError;
use parcomm_shmem::ShmemError;
use parcomm_ucx::UcxError;

/// Typed failure of an MPI-level operation.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiError {
    /// `MPI_Wait` (or a partitioned arrival wait) exceeded the armed
    /// watchdog timeout: the operation's completion counter stalled.
    WaitTimeout {
        /// The waiting rank.
        rank: usize,
        /// What was being waited on (e.g. `"psend transport completion"`).
        context: String,
        /// Units (partitions/transports) that had completed at expiry.
        completed: u64,
        /// Units required for completion.
        expected: u64,
        /// The armed watchdog timeout (µs).
        timeout_us: f64,
    },
    /// The Algorithm-2 collective progression loop exceeded the watchdog
    /// while a partition was parked at a step.
    CollectiveTimeout {
        /// The stuck rank.
        rank: usize,
        /// Partition whose state machine stopped advancing.
        partition: usize,
        /// Step index the partition was parked at.
        step: usize,
        /// Partitions that had fully completed at expiry.
        completed: u64,
        /// Total partitions in the collective.
        expected: u64,
        /// The armed watchdog timeout (µs).
        timeout_us: f64,
    },
    /// The local progression engine crashed (fault injection) — device
    /// notifications can no longer be drained into puts.
    ProgressionHalted {
        /// The rank whose engine died.
        rank: usize,
    },
    /// A user-supplied argument violates the API contract (e.g. partition
    /// count not dividing the buffer).
    InvalidArgument {
        /// What was wrong.
        context: String,
    },
    /// The cluster spec handed to world construction is structurally
    /// invalid (zero nodes, zero GPUs per node, more NICs than GPUs, …).
    InvalidTopology(TopologyError),
    /// A transport-layer (UCX) failure bubbled up.
    Transport(UcxError),
    /// A symmetric-heap (shmem backend) failure bubbled up: route forbids
    /// symmetric access, heap exhausted/unregistered, or a device put
    /// exhausted its retry budget.
    Shmem(ShmemError),
    /// The recovery escalation ladder was exhausted: every rung (put retry,
    /// re-striping, fallback, lease-gated replay, host drain) ran out or
    /// does not apply. Surfaced only when recovery is enabled and the
    /// epoch's replays made no progress.
    Unrecoverable {
        /// The rank that gave up.
        rank: usize,
        /// What could not be recovered (operation + last diagnosis).
        context: String,
        /// Recovery attempts (replays/drains) spent before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::WaitTimeout { rank, context, completed, expected, timeout_us } => write!(
                f,
                "rank {rank}: wait on {context} timed out after {timeout_us}us \
                 ({completed}/{expected} complete)"
            ),
            MpiError::CollectiveTimeout {
                rank,
                partition,
                step,
                completed,
                expected,
                timeout_us,
            } => write!(
                f,
                "rank {rank}: collective stalled at partition {partition} step {step} \
                 for {timeout_us}us ({completed}/{expected} partitions complete)"
            ),
            MpiError::ProgressionHalted { rank } => {
                write!(f, "rank {rank}: progression engine halted")
            }
            MpiError::InvalidArgument { context } => write!(f, "invalid argument: {context}"),
            MpiError::InvalidTopology(e) => write!(f, "invalid topology: {e}"),
            MpiError::Transport(e) => write!(f, "transport error: {e}"),
            MpiError::Shmem(e) => write!(f, "shmem error: {e}"),
            MpiError::Unrecoverable { rank, context, attempts } => write!(
                f,
                "rank {rank}: unrecoverable after {attempts} recovery attempts: {context}"
            ),
        }
    }
}

impl std::error::Error for MpiError {}

impl From<UcxError> for MpiError {
    fn from(e: UcxError) -> Self {
        MpiError::Transport(e)
    }
}

impl From<ShmemError> for MpiError {
    fn from(e: ShmemError) -> Self {
        MpiError::Shmem(e)
    }
}
