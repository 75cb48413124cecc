//! Batched channel setup: one `MPIX_Pbuf_prepare` tick over many channels.
//!
//! The partitioned API's first `MPIX_Pbuf_prepare` is expensive (the
//! paper's Table I puts the receiver-side cost near 193 µs) because it
//! fronts deferred once-per-process work — MCA module init, transport
//! warm-up — on top of the per-channel buffer registration. Opening
//! thousands of channels one `pbuf_prepare` at a time re-serializes that
//! setup; production multiplexing (the `parcomm-mux` admission tick) wants
//! the handshakes **coalesced**: every channel's setup AM is already in
//! flight (sent at init / start), so one tick can charge the heavyweight
//! first-call overhead once and drain all the replies back to back,
//! billing each further channel only its own registration increment
//! ([`crate::ApiOverheads::pbuf_prepare_batch_extra`]).
//!
//! Protocol-wise a batched prepare is identical to the serial loop — the
//! same AMs travel in the same order, so a batch of one is bit-identical
//! to a plain [`PsendRequest::pbuf_prepare`] apart from the charge — which
//! keeps the negotiation semantics (shmem accept/demote, partition-count
//! validation, epoch sync) byte-for-byte the same.

use parcomm_mpi::MpiError;
use parcomm_sim::Proc;

use crate::recv::PrecvRequest;
use crate::send::PsendRequest;

/// Prepare every channel admitted in one tick, coalescing the setup
/// overhead: the first channel that still needs its heavyweight first-call
/// work charges it in full; every further channel in the batch is billed
/// the per-channel batch increment instead.
///
/// Receive channels are prepared first (they consume the senders' setup
/// AMs and emit the replies / RTR signals), then send channels (they block
/// on those replies) — the same reply-before-block order the collective
/// engine uses, so a tick whose sends and receives pair up across ranks
/// cannot deadlock. Within each side, channels are processed in slice
/// order; callers that need cross-rank agreement (the mux admission tick)
/// pass both sides the same canonical order.
pub async fn pbuf_prepare_batch_async(
    p: &Proc,
    recvs: &[PrecvRequest],
    sends: &[PsendRequest],
) -> Result<(), MpiError> {
    let mut charged = false;
    for r in recvs {
        r.pbuf_prepare_charged(p, !charged).await?;
        charged = true;
    }
    for s in sends {
        s.pbuf_prepare_charged(p, !charged).await?;
        charged = true;
    }
    Ok(())
}
