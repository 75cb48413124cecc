//! UCP RMA: memory registration, remote keys, and `put_nbx`.
//!
//! As in UCX, one call puts bytes on the wire: [`Endpoint::put_nbx`],
//! whose [`PutOpts`] carry the stripe count, attribution and cause, and
//! whose completion — a long-lived [`Action`], its sink, run with the
//! token the put was issued with — always receives the put's
//! `put_complete` span.
//!
//! A put in flight is an entry in its universe's slab, and the universe
//! is the [`Action`] its landing, stripes and retries are queued as: a put
//! allocates no closure.
//!
//! The put is the workhorse of the paper's Partitioned component
//! (§IV-A4): `MPI_Pready` issues a `ucp_put_nbx` for the partition's data
//! and chains a second, small put that raises the receive-side partition
//! flag (UCX has no put-with-receive-completion, cf.
//! `IBV_WR_RDMA_WRITE_WITH_IMM`). Callbacks attached to a put run exactly
//! at its arrival instant, which is where the chained put is issued.
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
//! records [`UcxError::PutTimeout`] in the put's [`PutHandle::result`]
//! and tells the sink `token | `[`PUT_FAILED`] instead of completing, so
//! a stalled waiter can diagnose a typed failure instead of blocking
//! forever, and the sink can drop what it kept for the put. With no faults armed, the
//! retry machinery is never entered and behavior is byte-identical to the
//! fault-free model.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parcomm_gpu::{Buffer, Location, MemSpace};
use parcomm_net::{NetError, RouteClass, WireAttr};
use parcomm_sim::{Action, Mutex, SimDuration, SimHandle, SimTime, SpanId};

use crate::worker::{Endpoint, UcxError, UcxUniverse, UniverseInner, Worker};

/// Maximum attempts (first try + retries) for one `put_nbx` before it fails
/// with [`UcxError::PutTimeout`].
pub const PUT_MAX_ATTEMPTS: u32 = 6;

/// Backoff before the first retry (µs); doubles per attempt (exponential).
pub const PUT_RETRY_BACKOFF_US: f64 = 20.0;

/// The token bit that marks a failed put: a put that exhausts its retries
/// never lands, and its sink is told `token | PUT_FAILED` (with
/// [`SpanId::NONE`]) instead. A put's own token must leave it clear.
pub const PUT_FAILED: u64 = 1 << 63;

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
/// sink, which is told at arrival.
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
    /// until it settles, then `Ok(arrival)` (the instant its sink was
    /// told) or the typed error that ended the retry sequence. A put
    /// issued on a fault-free fabric has no retry path: its outcome is
    /// fixed at issue, `Ok(arrival)`.
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

/// Everything one put attempt needs; kept in a struct so the retry chain
/// can re-issue it. The completion is `sink` with `token`.
pub(crate) struct PendingPut {
    from: Location,
    to: Location,
    src: Buffer,
    src_off: usize,
    len: usize,
    dst: Buffer,
    dst_off: usize,
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
}

/// A put in flight: what one of its queued actions does when it runs. The
/// universe keeps these in a slab and queues itself with the key.
pub(crate) enum InFlight {
    /// A single-path put lands at `arrival`: its copy, latency sample,
    /// `put_complete` span (caused by `wire_span`) and completion.
    Whole { put: PendingPut, arrival: SimTime, wire_span: SpanId },
    /// One stripe of a striped put lands: its partial copy and its own
    /// `put_complete` span, which it leaves with the put's barrier.
    Stripe {
        dst: Buffer,
        dst_off: usize,
        src: Buffer,
        src_off: usize,
        len: usize,
        attr: WireAttr,
        /// The key of the put's [`InFlight::Barrier`].
        barrier: u64,
    },
    /// A striped put's assembly barrier, queued behind every stripe: its
    /// latency sample and completion, with the last-landing stripe's span.
    Barrier { put: PendingPut, arrival: SimTime, last_span: SpanId },
    /// The put's next attempt, after a routing failure's backoff.
    Retry { put: PendingPut, attempt: u32 },
}

impl Action for UniverseInner {
    /// Run the in-flight put step keyed `key`.
    fn run(self: Arc<Self>, h: &SimHandle, key: u64, _span: SpanId) {
        let step = self.in_flight.lock().remove(key);
        let universe = UcxUniverse { inner: self };
        match step {
            InFlight::Whole { put, arrival, wire_span } => {
                put.dst.copy_from_buffer(put.dst_off, &put.src, put.src_off, put.len);
                let PutOpts { dst_rank, partition, .. } = put.opts;
                let span = h.trace().record_causal(
                    "put_complete",
                    arrival,
                    arrival,
                    dst_rank,
                    partition,
                    wire_span,
                );
                complete(&universe, h, put, arrival, span);
            }
            InFlight::Stripe { dst, dst_off, src, src_off, len, attr, barrier } => {
                dst.copy_from_buffer(dst_off, &src, src_off, len);
                let now = h.now();
                let WireAttr { cause, dst_rank, partition } = attr;
                let span =
                    h.trace().record_causal("put_complete", now, now, dst_rank, partition, cause);
                if let Some(InFlight::Barrier { last_span, .. }) =
                    universe.inner.in_flight.lock().get_mut(barrier)
                {
                    *last_span = span;
                }
            }
            InFlight::Barrier { put, arrival, last_span } => {
                complete(&universe, h, put, arrival, last_span);
            }
            InFlight::Retry { put, attempt } => {
                attempt_put(&universe, put, attempt);
            }
        }
    }
}

/// The put has landed whole at `arrival`: sample its issue → land latency,
/// tell its sink, and settle its outcome.
fn complete(universe: &UcxUniverse, h: &SimHandle, put: PendingPut, arrival: SimTime, span: SpanId) {
    let issue_to_land = arrival.since(put.first_try_at).as_micros_f64();
    universe.instruments().put_latency.record(issue_to_land.round() as u64);
    put.sink.run(h, put.token, span);
    settle(&put.outcome, Ok(arrival));
}

/// Queue `step` of a put in flight at `at`.
fn queue(universe: &UcxUniverse, h: &SimHandle, at: SimTime, step: InFlight) {
    let key = universe.inner.in_flight.lock().insert(step);
    h.schedule_action_at(at, universe.inner.clone(), key);
}

/// Issue (or re-issue) one attempt of a put; schedules the next retry with
/// exponential backoff on a routing failure, or settles the handle with
/// [`UcxError::PutTimeout`] once attempts are exhausted.
fn attempt_put(universe: &UcxUniverse, p: PendingPut, attempt: u32) -> SimTime {
    let h = universe.sim();
    let now = h.now();
    if attempt == 0 {
        universe.instruments().puts.inc();
    }
    // The put's issue instant, causally chained to whatever posted it; the
    // wire span it produces is in turn chained to the put.
    let PutOpts { stripes, src_rank, dst_rank, partition, cause } = p.opts;
    let put_span = h.trace().record_causal("put", now, now, src_rank, partition, cause);
    let wire = WireAttr { cause: put_span, dst_rank, partition };
    if stripes > 1 {
        return attempt_put_striped(universe, p, attempt, wire, h, now);
    }
    match universe.fabric().try_transfer(now, p.from, p.to, p.len as u64, wire) {
        Ok(transfer) => {
            let arrival = transfer.arrival;
            let step = InFlight::Whole { put: p, arrival, wire_span: transfer.span };
            queue(universe, h, arrival, step);
            arrival
        }
        Err(net_err) => retry_or_fail(universe, p, attempt, net_err, h, now),
    }
}

/// Shared failure arm of the put retry chain: schedule the next attempt
/// with exponential backoff, or settle the handle with
/// [`UcxError::PutTimeout`] once attempts are exhausted.
fn retry_or_fail(
    universe: &UcxUniverse,
    p: PendingPut,
    attempt: u32,
    net_err: NetError,
    h: &SimHandle,
    now: SimTime,
) -> SimTime {
    let i = universe.instruments();
    if attempt + 1 >= PUT_MAX_ATTEMPTS {
        i.put_failures.inc();
    } else {
        i.put_retries.inc();
    }
    if attempt + 1 >= PUT_MAX_ATTEMPTS {
        let waited = now.since(p.first_try_at);
        assert!(p.outcome.is_some(), "only a fabric with faults armed fails a put");
        settle(
            &p.outcome,
            Err(UcxError::PutTimeout {
                attempts: attempt + 1,
                waited_us: waited.as_micros_f64() as u64,
                cause: net_err.to_string(),
            }),
        );
        p.sink.run(h, p.token | PUT_FAILED, SpanId::NONE);
    } else {
        let backoff =
            SimDuration::from_micros_f64(PUT_RETRY_BACKOFF_US * f64::powi(2.0, attempt as i32));
        queue(universe, h, now + backoff, InFlight::Retry { put: p, attempt: attempt + 1 });
    }
    now
}

/// Record how a put that can fail settled; a no-op for a put issued on a
/// fault-free fabric, which keeps no outcome slot.
fn settle(outcome: &Outcome, result: Result<SimTime, UcxError>) {
    if let Some(slot) = outcome {
        *slot.lock() = Some(result);
    }
}

/// The multi-path arm of [`attempt_put`]: execute the put through a
/// [`MultiPathPlan`](parcomm_net::MultiPathPlan). Each stripe applies its
/// partial functional copy and records its own `put_complete` span (caused
/// by that stripe's `wire` span) the instant it lands; the put's
/// completion, latency metric, and outcome settle only at the **assembly
/// barrier** — the slowest stripe's arrival — so chained operations (the
/// receive-side flag put above all) never observe a partially reassembled
/// payload. Retries and [`UcxError::PutTimeout`] behave exactly as on the
/// single-path arm; each retry re-plans against the rails surviving at
/// that instant.
fn attempt_put_striped(
    universe: &UcxUniverse,
    p: PendingPut,
    attempt: u32,
    wire: WireAttr,
    h: &SimHandle,
    now: SimTime,
) -> SimTime {
    let fabric = universe.fabric();
    let plan = fabric
        .plan(p.from, p.to, p.len as u64, p.opts.stripes)
        .expect("stripe count validated when the request was configured");
    let WireAttr { dst_rank, partition, .. } = wire;
    match fabric.try_transfer_planned(now, &plan, wire) {
        Ok(st) => {
            let arrival = st.arrival;
            let (src, src_off, dst, dst_off) = (p.src.clone(), p.src_off, p.dst.clone(), p.dst_off);
            // The barrier's entry goes in first, so each stripe can leave
            // its span there; it is queued after the stripe landings, so at
            // the barrier instant FIFO ordering guarantees every copy has
            // applied.
            let barrier = InFlight::Barrier { put: p, arrival, last_span: SpanId::NONE };
            let barrier = universe.inner.in_flight.lock().insert(barrier);
            for s in &st.stripes {
                let (off, len) = (s.offset as usize, s.len as usize);
                let stripe = InFlight::Stripe {
                    dst: dst.clone(),
                    dst_off: dst_off + off,
                    src: src.clone(),
                    src_off: src_off + off,
                    len,
                    attr: WireAttr { cause: s.span, dst_rank, partition },
                    barrier,
                };
                queue(universe, h, s.arrival, stripe);
            }
            h.schedule_action_at(arrival, universe.inner.clone(), barrier);
            arrival
        }
        Err(net_err) => retry_or_fail(universe, p, attempt, net_err, h, now),
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
    /// `sink` is run with `token` at the arrival instant, after the
    /// functional copy, with the put's `put_complete` span
    /// ([`SpanId::NONE`] when causal tracing is off) — the hook where the
    /// paper chains the receive-side flag put, extending the causal chain.
    /// A striped put (`opts.stripes > 1`) lands each stripe (functional
    /// copy + `put_complete` span) at its own arrival; the sink is told and
    /// the handle's result settles at the assembly barrier when the slowest
    /// stripe arrives, with the last-landing stripe's span. If the put
    /// fails (fault-injected NIC outage outlasting the retry window), the
    /// sink is run with `token | `[`PUT_FAILED`] instead, once the
    /// [`PutHandle::result`] reads the `Err`. `token` must leave
    /// [`PUT_FAILED`] clear.
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
    ) -> PutHandle {
        debug_assert_eq!(token & PUT_FAILED, 0, "a put's token leaves PUT_FAILED clear");
        let fabric = self.universe.fabric();
        let outcome = fabric.faults_armed().then(Arc::default);
        let pending = PendingPut {
            from: src.space().location(),
            to: rkey.space().location(),
            src: src.clone(),
            src_off,
            len,
            dst: rkey.target_buffer().clone(),
            dst_off,
            sink,
            token,
            outcome: outcome.clone(),
            first_try_at: fabric.sim().now(),
            opts: PutOpts { stripes: opts.stripes.max(1), ..opts },
        };
        let arrival = attempt_put(&self.universe, pending, 0);
        PutHandle { arrival, outcome }
    }
}
