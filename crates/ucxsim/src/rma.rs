//! UCP RMA: memory registration, remote keys, and `put_nbx`.
//!
//! As in UCX, one call puts bytes on the wire: [`Endpoint::put_nbx`],
//! whose [`PutOpts`] carry the stripe count, attribution and cause. It
//! hands the put in flight, a [`Put`], to its caller, and queues the
//! caller's sink — a long-lived [`Action`] — with the caller's token for
//! every step of the put: its landing, each stripe's landing and assembly
//! barrier, each retry. The caller keeps the [`Put`] under the lock its
//! sink takes anyway, and the sink runs each step with [`Put::land`],
//! which reports when the put has landed whole, with its `put_complete`
//! span. A put allocates no closure and takes no lock of its own.
//!
//! The put is the workhorse of the paper's Partitioned component
//! (§IV-A4): `MPI_Pready` issues a `ucp_put_nbx` for the partition's data
//! and chains a second, small put that raises the receive-side partition
//! flag (UCX has no put-with-receive-completion, cf.
//! `IBV_WR_RDMA_WRITE_WITH_IMM`). A put lands exactly at its arrival
//! instant, which is where its sink issues the chained put.
//!
//! `rkey_ptr` models the paper's modified `uct_cuda_ipc_rkey_ptr`: for
//! device memory on the same node it exposes a directly-storable
//! [`IpcMapping`] of the remote buffer (the Kernel Copy substrate). The
//! mapping is *revocable* — chaos schedules revoke it mid-epoch and the
//! partitioned runtime falls back to the Progression Engine.
//!
//! ## Fault recovery
//!
//! With a fault schedule armed on the fabric, a put whose route has no
//! usable NIC retries with exponential backoff ([`PUT_RETRY_BACKOFF_US`],
//! doubling, up to [`PUT_MAX_ATTEMPTS`] attempts). Exhausting the retries
//! records [`UcxError::PutTimeout`] in the put's [`PutHandle::result`],
//! and [`Put::land`] reports [`PutStatus::Failed`] instead of landing, so
//! a stalled waiter can diagnose a typed failure instead of blocking
//! forever, and the sink can drop what it kept for the put. With no
//! faults armed, the retry machinery is never entered and behavior is
//! byte-identical to the fault-free model.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parcomm_gpu::{Buffer, Location, MemSpace};
use parcomm_net::{NetError, RouteClass, StripeArrival, StripedTransfer, WireAttr};
use parcomm_sim::{Action, Mutex, SimDuration, SimHandle, SimTime, SpanId};

use crate::worker::{Endpoint, UcxError, UcxUniverse, Worker};

/// Maximum attempts (first try + retries) for one `put_nbx` before it fails
/// with [`UcxError::PutTimeout`].
pub const PUT_MAX_ATTEMPTS: u32 = 6;

/// Backoff before the first retry (µs); doubles per attempt (exponential).
pub const PUT_RETRY_BACKOFF_US: f64 = 20.0;

/// A registered memory region (`ucp_mem_map`).
#[derive(Clone)]
pub struct MemHandle {
    buffer: Buffer,
    universe: UcxUniverse,
}

impl MemHandle {
    /// The registered buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// Pack a remote key for this region (`ucp_rkey_pack`). The returned
    /// key is what the receiver ships to the sender in its `setup_t` reply.
    /// Counted as `ucx.rkey_exchanges` — the per-channel handshake cost
    /// the symmetric-heap backend exists to avoid.
    pub fn pack_rkey(&self) -> RKey {
        self.universe.instruments().rkey_exchanges.inc();
        RKey { buffer: self.buffer.clone(), ipc_valid: Arc::new(AtomicBool::new(true)) }
    }
}

impl std::fmt::Debug for MemHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemHandle").field("buffer", &self.buffer).finish()
    }
}

/// A packed/unpacked remote key: the capability to put into a remote
/// registered region. In the simulation it carries the target buffer
/// handle; on hardware it would carry `(raddr, rkey)`.
#[derive(Clone, Debug)]
pub struct RKey {
    buffer: Buffer,
    /// Shared validity bit of the CUDA-IPC mapping derived from this key.
    /// Cloned keys (and the mappings handed out by [`RKey::rkey_ptr`]) all
    /// observe a revocation, wherever they traveled.
    ipc_valid: Arc<AtomicBool>,
}

impl RKey {
    /// The memory space of the region this key targets.
    pub fn space(&self) -> MemSpace {
        self.buffer.space()
    }

    /// Direct load/store mapping of the remote region (`ucp_rkey_ptr`).
    ///
    /// Only available when the region is GPU global memory and the route
    /// from `caller` to it is IPC-eligible ([`RouteClass::ipc_eligible`]:
    /// any intra-node class) — the CUDA-IPC transport the paper modified.
    /// Cross-node routes and non-CUDA regions return
    /// [`UcxError::RkeyPtrUnavailable`], matching mainline UCX exposing
    /// this only for host-reachable mappings; cross-node traffic must take
    /// the Progression Engine path.
    pub fn rkey_ptr(&self, caller: Location) -> Result<IpcMapping, UcxError> {
        if !self.ipc_valid.load(Ordering::Acquire) {
            return Err(UcxError::MappingRevoked);
        }
        let space = self.buffer.space();
        if !matches!(space, MemSpace::Device { .. }) {
            return Err(UcxError::RkeyPtrUnavailable("region is not CUDA memory"));
        }
        if !RouteClass::classify(caller, space.location()).ipc_eligible() {
            return Err(UcxError::RkeyPtrUnavailable("peer GPU is on a different node"));
        }
        Ok(IpcMapping { buffer: self.buffer.clone(), valid: self.ipc_valid.clone() })
    }

    /// Revoke the CUDA-IPC mapping (fault injection: the driver tore down
    /// the IPC handle, e.g. `cuIpcCloseMemHandle` on the owner side). Every
    /// [`IpcMapping`] already derived from this key — on any clone of it —
    /// observes the revocation on its next validity check. RMA puts through
    /// the key are unaffected; only the direct-store mapping dies.
    pub fn revoke_ipc(&self) {
        self.ipc_valid.store(false, Ordering::Release);
    }

    /// The target buffer (simulation-internal; used by the functional copy).
    pub fn target_buffer(&self) -> &Buffer {
        &self.buffer
    }
}

/// A live CUDA-IPC mapping of a remote region (`ucp_rkey_ptr` result):
/// directly storable from device code, but revocable by the region owner.
/// Users must check [`IpcMapping::is_valid`] before each store batch and
/// fall back to an RMA path once revoked.
#[derive(Clone, Debug)]
pub struct IpcMapping {
    buffer: Buffer,
    valid: Arc<AtomicBool>,
}

impl IpcMapping {
    /// The mapped remote buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// True while the mapping has not been revoked.
    pub fn is_valid(&self) -> bool {
        self.valid.load(Ordering::Acquire)
    }
}

/// Handle of a `put_nbx`: its arrival instant and, for a put that can
/// fail, its outcome. Completion itself is observed through the put's
/// sink, which lands the [`Put`] at arrival.
#[derive(Clone, Debug)]
pub struct PutHandle {
    /// Arrival instant at the target, as computed at issue time. For a put
    /// that entered fault-retry this is provisional; the authoritative
    /// arrival is in [`PutHandle::result`].
    pub arrival: SimTime,
    outcome: Outcome,
}

/// Where a put that can fail records how it settled. Only a fabric with
/// faults armed can fail a put, and a put's first attempt runs at issue,
/// so the slot is allocated only for puts issued while faults are armed.
type Outcome = Option<Arc<Mutex<Option<Result<SimTime, UcxError>>>>>;

impl PutHandle {
    /// The put's outcome. A put issued while faults are armed reads `None`
    /// until it settles, then `Ok(arrival)` (the instant it landed) or the
    /// typed error that ended the retry sequence. A put issued on a
    /// fault-free fabric has no retry path: its outcome is fixed at issue,
    /// `Ok(arrival)`.
    pub fn result(&self) -> Option<Result<SimTime, UcxError>> {
        match &self.outcome {
            Some(slot) => slot.lock().clone(),
            None => Some(Ok(self.arrival)),
        }
    }
}

impl Worker {
    /// Register `buffer` with this worker's context (`ucp_mem_map`).
    /// Registration *cost* is charged by the caller (it is part of the
    /// `MPIX_Prequest_create` / first-`Pbuf_prepare` overheads in Table I).
    pub fn mem_map(&self, buffer: &Buffer) -> MemHandle {
        MemHandle { buffer: buffer.clone(), universe: self.universe.clone() }
    }
}

/// The options of one [`Endpoint::put_nbx`], in the role of UCX's
/// `ucp_request_param_t`: the stripe count, the MPI-level attribution the
/// put's causal spans carry (so `obs::critical` resolves cross-rank
/// handoffs exactly: the `put` span takes the *source* rank, the `wire`
/// and `put_complete` spans take the *destination* rank, where the bytes
/// land), and the span that posted the put. Attribution and cause are
/// digest-neutral — span digests hash only `(category, start, end)`.
/// [`PutOpts::default`] is one stripe with no attribution and no cause.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PutOpts {
    /// Stripes the payload splits into, routed concurrently over the
    /// eligible paths of the fabric (a
    /// [`MultiPathPlan`](parcomm_net::MultiPathPlan) per attempt). `1` —
    /// or `0` — takes the single-path transfer. The caller keeps it within
    /// [`parcomm_net::MAX_STRIPES`].
    pub stripes: usize,
    /// Rank that issued the put.
    pub src_rank: Option<u32>,
    /// Rank whose memory the put lands in.
    pub dst_rank: Option<u32>,
    /// Transport partition the put serves, when meaningful.
    pub partition: Option<u32>,
    /// Causal parent of the put (e.g. the PE drain that posted it).
    pub cause: SpanId,
}

impl Default for PutOpts {
    fn default() -> Self {
        PutOpts { stripes: 1, src_rank: None, dst_rank: None, partition: None, cause: SpanId::NONE }
    }
}

/// A `put_nbx` in flight, held by its caller until its sink is told it
/// landed or failed: everything an attempt needs, so the retry chain can
/// re-issue it, and the step its next queued entry runs.
pub struct Put {
    universe: UcxUniverse,
    from: Location,
    to: Location,
    src: Buffer,
    src_off: usize,
    len: usize,
    dst: Buffer,
    dst_off: usize,
    /// Queued with `token` for every step.
    sink: Arc<dyn Action>,
    token: u64,
    outcome: Outcome,
    first_try_at: SimTime,
    /// Stripe count (`>= 1`), attribution and cause. One stripe (the
    /// overwhelmingly common case) takes the classic single-transfer path
    /// untouched; more route the put through a
    /// [`MultiPathPlan`](parcomm_net::MultiPathPlan) with per-stripe
    /// functional copies and completion spans.
    opts: PutOpts,
    /// Provisional arrival of the latest attempt.
    arrival: SimTime,
    next: Step,
}

/// What the next queued entry of a put does.
enum Step {
    /// A single-path put lands at `arrival`: its copy, latency sample,
    /// `put_complete` span (caused by `wire_span`) and completion.
    Whole { wire_span: SpanId },
    /// A striped put: `stripes` land one entry each, in the order their
    /// entries pop (by arrival, then stripe index), each with its partial
    /// copy and its own `put_complete` span; then the assembly barrier,
    /// queued behind every stripe, takes the latency sample and completes
    /// with the last-landing stripe's span.
    Striped { stripes: Vec<StripeArrival>, landed: usize, last_span: SpanId },
    /// The put's next attempt, after a routing failure's backoff.
    Retry { attempt: u32 },
    /// Landed or failed: nothing of the put is queued any more.
    Settled,
}

/// What running one step of a [`Put`] did (see [`Put::land`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PutStatus {
    /// The put has landed whole: the functional copy is applied, and this
    /// is its `put_complete` span ([`SpanId::NONE`] when causal tracing is
    /// off). Nothing of it is queued any more.
    Landed(SpanId),
    /// A stripe landed or an attempt was (re)issued: the sink is run again
    /// with the same token.
    InFlight,
    /// The put exhausted its retries and never lands;
    /// [`PutHandle::result`] reads the [`UcxError::PutTimeout`]. Nothing of
    /// it is queued any more.
    Failed,
}

impl Put {
    /// The put's handle: its arrival and, if it can fail, its outcome.
    pub fn handle(&self) -> PutHandle {
        PutHandle { arrival: self.arrival, outcome: self.outcome.clone() }
    }

    /// Run the step the sink was just run for; the sink calls it each time
    /// it is run with this put's token, at the instant that step was
    /// queued for.
    pub fn land(&mut self, h: &SimHandle) -> PutStatus {
        match std::mem::replace(&mut self.next, Step::Settled) {
            Step::Whole { wire_span } => {
                self.dst.copy_from_buffer(self.dst_off, &self.src, self.src_off, self.len);
                let PutOpts { dst_rank, partition, .. } = self.opts;
                let arrival = self.arrival;
                let span = h.trace().record_causal(
                    "put_complete",
                    arrival,
                    arrival,
                    dst_rank,
                    partition,
                    wire_span,
                );
                self.complete(span)
            }
            Step::Striped { stripes, landed, .. } if landed < stripes.len() => {
                let s = &stripes[landed];
                let (off, len) = (s.offset as usize, s.len as usize);
                self.dst.copy_from_buffer(self.dst_off + off, &self.src, self.src_off + off, len);
                let now = h.now();
                let PutOpts { dst_rank, partition, .. } = self.opts;
                let span =
                    h.trace().record_causal("put_complete", now, now, dst_rank, partition, s.span);
                self.next = Step::Striped { stripes, landed: landed + 1, last_span: span };
                PutStatus::InFlight
            }
            Step::Striped { last_span, .. } => self.complete(last_span),
            Step::Retry { attempt } => self.attempt(h, attempt),
            Step::Settled => unreachable!("a settled put has nothing queued"),
        }
    }

    /// The put has landed whole: sample its issue → land latency and
    /// settle its outcome.
    fn complete(&mut self, span: SpanId) -> PutStatus {
        let issue_to_land = self.arrival.since(self.first_try_at).as_micros_f64();
        self.universe.instruments().put_latency.record(issue_to_land.round() as u64);
        settle(&self.outcome, Ok(self.arrival));
        PutStatus::Landed(span)
    }

    /// Issue (or re-issue) one attempt of the put; queues the next retry
    /// with exponential backoff on a routing failure, or settles the
    /// handle with [`UcxError::PutTimeout`] once attempts are exhausted.
    fn attempt(&mut self, h: &SimHandle, attempt: u32) -> PutStatus {
        let now = h.now();
        if attempt == 0 {
            self.universe.instruments().puts.inc();
        }
        // The put's issue instant, causally chained to whatever posted it;
        // the wire span it produces is in turn chained to the put.
        let PutOpts { stripes, src_rank, dst_rank, partition, cause } = self.opts;
        let put_span = h.trace().record_causal("put", now, now, src_rank, partition, cause);
        let wire = WireAttr { cause: put_span, dst_rank, partition };
        let fabric = self.universe.fabric();
        if stripes > 1 {
            let plan = fabric
                .plan(self.from, self.to, self.len as u64, stripes)
                .expect("stripe count validated when the request was configured");
            match fabric.try_transfer_planned(now, &plan, wire) {
                Ok(st) => self.queue_striped(h, st),
                Err(net_err) => return self.retry_or_fail(h, attempt, net_err, now),
            }
        } else {
            match fabric.try_transfer(now, self.from, self.to, self.len as u64, wire) {
                Ok(t) => {
                    self.arrival = t.arrival;
                    self.next = Step::Whole { wire_span: t.span };
                    h.land_at(t.arrival, self.sink.clone(), self.token);
                }
                Err(net_err) => return self.retry_or_fail(h, attempt, net_err, now),
            }
        }
        PutStatus::InFlight
    }

    /// The multi-path arm of an attempt: queue a landing per stripe, then
    /// the assembly barrier at the slowest stripe's arrival, so chained
    /// operations (the receive-side flag put above all) never observe a
    /// partially reassembled payload. The first entry queued at the
    /// transfer's arrival is its landing: a stripe landing then, or else
    /// the barrier.
    fn queue_striped(&mut self, h: &SimHandle, st: StripedTransfer) {
        let StripedTransfer { arrival, mut stripes, .. } = st;
        let landing = stripes.iter().position(|s| s.arrival == arrival);
        for (i, s) in stripes.iter().enumerate() {
            if Some(i) == landing {
                h.land_at(s.arrival, self.sink.clone(), self.token);
            } else {
                h.schedule_action_at(s.arrival, self.sink.clone(), self.token);
            }
        }
        if landing.is_some() {
            h.schedule_action_at(arrival, self.sink.clone(), self.token);
        } else {
            h.land_at(arrival, self.sink.clone(), self.token);
        }
        // Entries pop by `(at, seq)`, and the stripes were queued in index
        // order: a stable sort by arrival is the order they land in.
        stripes.sort_by_key(|s| s.arrival);
        self.arrival = arrival;
        self.next = Step::Striped { stripes, landed: 0, last_span: SpanId::NONE };
    }

    /// The failure arm of an attempt: queue the next one with exponential
    /// backoff, or settle the handle with [`UcxError::PutTimeout`] once
    /// attempts are exhausted.
    fn retry_or_fail(
        &mut self,
        h: &SimHandle,
        attempt: u32,
        net_err: NetError,
        now: SimTime,
    ) -> PutStatus {
        let i = self.universe.instruments();
        self.arrival = now;
        if attempt + 1 >= PUT_MAX_ATTEMPTS {
            i.put_failures.inc();
            let waited = now.since(self.first_try_at);
            assert!(self.outcome.is_some(), "only a fabric with faults armed fails a put");
            settle(
                &self.outcome,
                Err(UcxError::PutTimeout {
                    attempts: attempt + 1,
                    waited_us: waited.as_micros_f64() as u64,
                    cause: net_err.to_string(),
                }),
            );
            PutStatus::Failed
        } else {
            i.put_retries.inc();
            let backoff =
                SimDuration::from_micros_f64(PUT_RETRY_BACKOFF_US * f64::powi(2.0, attempt as i32));
            self.next = Step::Retry { attempt: attempt + 1 };
            h.schedule_action_at(now + backoff, self.sink.clone(), self.token);
            PutStatus::InFlight
        }
    }
}

/// Record how a put that can fail settled; a no-op for a put issued on a
/// fault-free fabric, which keeps no outcome slot.
fn settle(outcome: &Outcome, result: Result<SimTime, UcxError>) {
    if let Some(slot) = outcome {
        *slot.lock() = Some(result);
    }
}

impl Endpoint {
    /// Non-blocking RMA put (`ucp_put_nbx`): move `len` bytes from
    /// `src[src_off..]` into the remote region `rkey[dst_off..]`. `opts`
    /// carries what UCX's `ucp_request_param_t` would (see [`PutOpts`]).
    ///
    /// The transfer is routed from the *source buffer's* location to the
    /// *target buffer's* location (GPUDirect semantics: device-resident
    /// payload moves GPU→GPU without staging through the host even though
    /// the operation is posted by the host).
    ///
    /// The put is handed back to the caller, who keeps it until it lands.
    /// `sink` is run with `token` for each of its steps, the first at its
    /// arrival instant (or its first retry's), and runs the step with
    /// [`Put::land`]. That reports [`PutStatus::Landed`] once the
    /// functional copy is applied, with the put's `put_complete` span —
    /// the hook where the paper chains the receive-side flag put,
    /// extending the causal chain. A striped put (`opts.stripes > 1`)
    /// lands each stripe (functional copy + `put_complete` span) at its
    /// own arrival; it reports `Landed` and the handle's result settles at
    /// the assembly barrier when the slowest stripe arrives, with the
    /// last-landing stripe's span. If the put fails (fault-injected NIC
    /// outage outlasting the retry window), it reports
    /// [`PutStatus::Failed`] instead, once the [`PutHandle::result`] reads
    /// the `Err`. Attempt 0 runs here and never fails, so the sink is
    /// never run from inside this call.
    #[allow(clippy::too_many_arguments)]
    pub fn put_nbx(
        &self,
        src: &Buffer,
        src_off: usize,
        len: usize,
        rkey: &RKey,
        dst_off: usize,
        opts: PutOpts,
        sink: Arc<dyn Action>,
        token: u64,
    ) -> Put {
        let fabric = self.universe.fabric();
        let h = fabric.sim();
        let now = h.now();
        let mut put = Put {
            universe: self.universe.clone(),
            from: src.space().location(),
            to: rkey.space().location(),
            src: src.clone(),
            src_off,
            len,
            dst: rkey.target_buffer().clone(),
            dst_off,
            sink,
            token,
            outcome: fabric.faults_armed().then(Arc::default),
            first_try_at: now,
            opts: PutOpts { stripes: opts.stripes.max(1), ..opts },
            arrival: now,
            next: Step::Settled,
        };
        put.attempt(h, 0);
        put
    }
}
