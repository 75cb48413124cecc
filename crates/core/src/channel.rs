//! The partitioned channel wire protocol: tag namespace and the `setup_t`
//! bootstrap objects exchanged between sender and receiver (paper §IV-A1,
//! §IV-A2).

use parcomm_shmem::ShmemError;
use parcomm_sim::CountEvent;
use parcomm_ucx::{RKey, WorkerAddress};

/// Control-message channels multiplexed over the UCX active-message tags.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Channel {
    /// Sender → receiver: initial `setup_t` (from `MPI_Psend_init`).
    Setup = 0,
    /// Receiver → sender: `setup_t` response with rkeys (first
    /// `MPIX_Pbuf_prepare`).
    SetupReply = 1,
    /// Receiver → sender: ready-to-receive signal (subsequent
    /// `MPIX_Pbuf_prepare`).
    ReadyToReceive = 2,
}

/// Pack `(channel, tag, src, dst)` into a single UCX AM tag.
///
/// MPI matching for partitioned channels is on (communicator, rank, tag,
/// posting order); we support one world communicator and require a unique
/// `(src, dst, tag)` triple per channel, which the assertion in
/// `psend_init` enforces.
pub(crate) fn am_tag(chan: Channel, tag: u64, src: usize, dst: usize) -> u64 {
    assert!(tag < (1 << 24), "partitioned tag must fit 24 bits");
    assert!(src < (1 << 16) && dst < (1 << 16), "rank must fit 16 bits");
    ((chan as u64) << 56) | (tag << 32) | ((src as u64) << 16) | dst as u64
}

/// `setup_t`: what `MPI_Psend_init` ships to the receiver (non-blocking).
/// On hardware it also carries the sender and destination rank and the
/// tag for matching; the simulation's AM tag already encodes them.
#[derive(Clone, Debug)]
pub(crate) struct SenderSetup {
    /// Sender-side user partition count.
    pub user_partitions: usize,
    /// Bytes per user partition.
    pub partition_bytes: usize,
    /// Sender worker address, so the receiver can address its reply.
    pub sender_addr: WorkerAddress,
}

impl SenderSetup {
    /// Modeled wire size: ranks, tag, counts, packed worker address (the
    /// hardware `setup_t`, including the matching fields the AM tag
    /// carries here).
    pub const WIRE_BYTES: u64 = 64;
}

/// The receiver's `setup_t` response: everything the sender needs for RMA.
#[derive(Clone)]
pub(crate) struct ReceiverSetup {
    /// Remote key of the receive data buffer.
    pub data_rkey: RKey,
    /// Remote key of the partition status flags (one u64 per user
    /// partition).
    pub flag_rkey: RKey,
    /// Simulation stand-in for the receiver polling its flag memory: the
    /// chained flag put bumps this counter at flag-arrival time.
    pub notifier: CountEvent,
    /// Receiver-side user partition count (must match the sender's).
    pub user_partitions: usize,
    /// When the receiver demoted a requested shmem channel to the
    /// Progression Engine, the typed reason (route forbids symmetric
    /// access, registration failure, heap exhausted). On hardware this is a
    /// status code in the setup reply; the simulation carries the full
    /// error for exact diagnostics.
    pub shmem_denied: Option<ShmemError>,
}

impl ReceiverSetup {
    /// Modeled wire size: two packed rkeys (UCX rkeys are ~100 B each),
    /// remote address, counts.
    pub const WIRE_BYTES: u64 = 256;
}

/// The receiver's `setup_t` response on a negotiated **symmetric-heap**
/// channel: no rkey travels — only the receiver's symmetric offsets, which
/// the sender translates locally against the world's heap. This is the
/// whole point of the mechanism: channel setup shrinks from two packed
/// rkeys (~100 B each) to two 8-byte offsets, and `ucx.rkey_exchanges`
/// stays at zero.
#[derive(Clone)]
pub(crate) struct ShmemReceiverSetup {
    /// Symmetric offset of the receive data buffer in the receiver's
    /// segment.
    pub data_off: u64,
    /// Symmetric offset of the partition status flags.
    pub flag_off: u64,
    /// Same notifier contract as [`ReceiverSetup::notifier`], bumped by the
    /// device-initiated `shmem_signal` at its arrival instant.
    pub notifier: CountEvent,
    /// Receiver-side user partition count (must match the sender's).
    pub user_partitions: usize,
}

impl ShmemReceiverSetup {
    /// Modeled wire size: two symmetric offsets, counts — no rkeys.
    pub const WIRE_BYTES: u64 = 48;
}

/// Ready-to-receive payload for epochs after the first.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct ReadyToReceive {
    /// The receiver's new epoch (sender asserts it matches its own).
    pub epoch: u64,
}

impl ReadyToReceive {
    /// Modeled wire size.
    pub const WIRE_BYTES: u64 = 16;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_disjoint_across_channels_and_peers() {
        let mut seen = std::collections::HashSet::new();
        for chan in [Channel::Setup, Channel::SetupReply, Channel::ReadyToReceive] {
            for tag in [0u64, 1, 77] {
                for src in [0usize, 1, 7] {
                    for dst in [0usize, 2, 5] {
                        assert!(seen.insert(am_tag(chan, tag, src, dst)));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "24 bits")]
    fn oversized_tag_rejected() {
        am_tag(Channel::Setup, 1 << 24, 0, 1);
    }
}
