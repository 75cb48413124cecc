//! Tag-matched point-to-point: the `MPI_Send`/`MPI_Recv` baseline.
//!
//! Matching is on `(src, dst, tag)` with FIFO order per key (MPI
//! non-overtaking). Transfers are rendezvous-style: data moves once both
//! sides have posted, routed by the *buffer* locations (CUDA-aware MPI:
//! device payload takes NVLink/GPUDirect paths even though the host posts
//! the operation). The sender completes at delivery (synchronous-mode
//! semantics) — the right model for the paper's baseline, which
//! stream-synchronizes before sending and measures until delivery.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::Buffer;
use parcomm_net::{Fabric, WireAttr};
use parcomm_sim::{Action, Ctx, Event, SimHandle, SpanId};

use crate::world::Rank;

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct MatchKey {
    src: usize,
    dst: usize,
    tag: u64,
}

struct SendEntry {
    buf: Buffer,
    off: usize,
    len: usize,
    done: Event,
}

struct RecvEntry {
    buf: Buffer,
    off: usize,
    len: usize,
    done: Event,
}

#[derive(Default)]
struct Queues {
    sends: VecDeque<SendEntry>,
    recvs: VecDeque<RecvEntry>,
}

/// World-global matching state.
pub(crate) struct MatchTable {
    table: Mutex<HashMap<MatchKey, Queues>>,
}

impl MatchTable {
    pub(crate) fn new() -> Self {
        MatchTable { table: Mutex::new(HashMap::new()) }
    }
}

/// Handle to a pending nonblocking operation.
#[derive(Clone, Debug)]
pub struct P2pOp {
    /// Fires at completion (delivery for both sides).
    pub done: Event,
}

/// Messages larger than this use the rendezvous protocol: an RTS/CTS
/// handshake (one round trip) precedes the payload, as UCX does for
/// device-memory transfers that need registration/GPUDirect setup.
const EAGER_THRESHOLD: usize = 4096;

/// Start the matched transfer: data plane + completion events.
fn fire_transfer(
    h: &SimHandle,
    fabric: &Fabric,
    send: SendEntry,
    recv: RecvEntry,
) {
    assert_eq!(
        send.len, recv.len,
        "MPI message truncation: send {} bytes, recv {} bytes",
        send.len, recv.len
    );
    let src_loc = send.buf.space().location();
    let dst_loc = recv.buf.space().location();
    let handshake = if send.len > EAGER_THRESHOLD {
        // RTS + CTS: one control round trip at path latency.
        fabric.path_latency(src_loc, dst_loc) * 2
    } else {
        parcomm_sim::SimDuration::ZERO
    };
    let t = fabric
        .try_transfer(h.now() + handshake, src_loc, dst_loc, send.len as u64, WireAttr::NONE)
        .unwrap_or_else(|e| {
            panic!("fabric transfer {src_loc:?} -> {dst_loc:?} failed with no recovery path: {e}")
        });
    h.land_at(t.arrival, Arc::new(Landing { send, recv }), 0);
}

/// A matched transfer's landing at its arrival: the copy, then both
/// completions.
struct Landing {
    send: SendEntry,
    recv: RecvEntry,
}

impl Action for Landing {
    fn run(self: Arc<Self>, h: &SimHandle, _token: u64, _span: SpanId) {
        let (send, recv) = (&self.send, &self.recv);
        recv.buf.copy_from_buffer(recv.off, &send.buf, send.off, send.len);
        send.done.set(h);
        recv.done.set(h);
    }
}

impl Rank {
    /// Nonblocking send of `len` bytes from `buf[off..]` to `dest`.
    pub fn isend(&self, h: &SimHandle, dest: usize, tag: u64, buf: &Buffer, off: usize, len: usize) -> P2pOp {
        assert!(dest < self.size(), "isend: destination rank {dest} out of range");
        let key = MatchKey { src: self.rank(), dst: dest, tag };
        let done = Event::new();
        let entry = SendEntry { buf: buf.clone(), off, len, done: done.clone() };
        let matched = {
            let mut table = self.world().matching().table.lock();
            let q = table.entry(key).or_default();
            match q.recvs.pop_front() {
                Some(r) => Some(r),
                None => {
                    q.sends.push_back(entry);
                    None
                }
            }
        };
        if let Some(recv) = matched {
            fire_transfer(h, self.world().fabric(), entry_from(done.clone(), buf, off, len), recv);
        }
        P2pOp { done }
    }

    /// Nonblocking receive of `len` bytes into `buf[off..]` from `src`.
    pub fn irecv(&self, h: &SimHandle, src: usize, tag: u64, buf: &Buffer, off: usize, len: usize) -> P2pOp {
        assert!(src < self.size(), "irecv: source rank {src} out of range");
        let key = MatchKey { src, dst: self.rank(), tag };
        let done = Event::new();
        let entry = RecvEntry { buf: buf.clone(), off, len, done: done.clone() };
        let matched = {
            let mut table = self.world().matching().table.lock();
            let q = table.entry(key).or_default();
            match q.sends.pop_front() {
                Some(s) => Some(s),
                None => {
                    q.recvs.push_back(entry);
                    None
                }
            }
        };
        if let Some(send) = matched {
            fire_transfer(
                h,
                self.world().fabric(),
                send,
                RecvEntry { buf: buf.clone(), off, len, done: done.clone() },
            );
        }
        P2pOp { done }
    }

    /// Blocking send (charges the MPI software overhead, then waits for
    /// delivery — synchronous-mode semantics, see module docs).
    pub fn send(&self, ctx: &mut Ctx, dest: usize, tag: u64, buf: &Buffer, off: usize, len: usize) {
        ctx.advance(self.mpi_overhead());
        let op = self.isend(&ctx.handle(), dest, tag, buf, off, len);
        ctx.wait(&op.done);
    }

    /// Blocking receive.
    pub fn recv(&self, ctx: &mut Ctx, src: usize, tag: u64, buf: &Buffer, off: usize, len: usize) {
        ctx.advance(self.mpi_overhead());
        let op = self.irecv(&ctx.handle(), src, tag, buf, off, len);
        ctx.wait(&op.done);
    }

    /// Combined send+recv (deadlock-free neighbor exchange).
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        ctx: &mut Ctx,
        dest: usize,
        stag: u64,
        sbuf: &Buffer,
        soff: usize,
        slen: usize,
        src: usize,
        rtag: u64,
        rbuf: &Buffer,
        roff: usize,
        rlen: usize,
    ) {
        ctx.advance(self.mpi_overhead());
        let h = ctx.handle();
        let s = self.isend(&h, dest, stag, sbuf, soff, slen);
        let r = self.irecv(&h, src, rtag, rbuf, roff, rlen);
        ctx.wait(&s.done);
        ctx.wait(&r.done);
    }
}

/// Rebuild a send entry (ownership dance: the original went into the match
/// decision; completion event and buffer are shared handles).
fn entry_from(done: Event, buf: &Buffer, off: usize, len: usize) -> SendEntry {
    SendEntry { buf: buf.clone(), off, len, done }
}
