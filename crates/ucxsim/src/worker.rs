//! UCP workers, endpoints, and tagged active messages.
//!
//! Mirrors the subset of the UCP API the paper's Partitioned component uses
//! (§II-C, §IV-A): a **worker** encapsulates a communication context and
//! progression; an **endpoint** addresses a remote worker; tagged active
//! messages carry the `setup_t` bootstrap objects; RMA puts move payload
//! (see [`crate::rma`]).
//!
//! Workers live in a [`UcxUniverse`] — the in-simulation stand-in for the
//! out-of-band address exchange (PMIx/OOB) real deployments use.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::Location;
use parcomm_net::{Fabric, WireAttr};
use parcomm_obs::{Counter, Histogram, MetricsRegistry};
use parcomm_sim::{Action, Ctx, Event, FxHashMap, Proc, SimDuration, SimHandle, Slab, SpanId};

use crate::rma::InFlight;

/// Address of a worker, obtainable via [`Worker::address`] and exchangeable
/// out of band (the simulation's universe registry plays that role).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct WorkerAddress(u64);

/// Errors surfaced by the UCX layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UcxError {
    /// The worker address is not registered in the universe.
    UnknownWorker(WorkerAddress),
    /// `rkey_ptr` is not available for this memory/topology combination.
    RkeyPtrUnavailable(&'static str),
    /// A `put_nbx` exhausted its retry/backoff budget without finding a
    /// usable route (fault-injected NIC outage outlasting the retry window).
    PutTimeout {
        /// Attempts made (first try + retries).
        attempts: u32,
        /// Virtual time spent retrying, in whole microseconds.
        waited_us: u64,
        /// Stringified fabric error from the final attempt.
        cause: String,
    },
    /// The CUDA-IPC mapping behind an `rkey_ptr` has been revoked by the
    /// region owner; direct stores are no longer possible.
    MappingRevoked,
}

impl std::fmt::Display for UcxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UcxError::UnknownWorker(a) => write!(f, "unknown worker address {a:?}"),
            UcxError::RkeyPtrUnavailable(r) => write!(f, "ucp_rkey_ptr unavailable: {r}"),
            UcxError::PutTimeout { attempts, waited_us, cause } => write!(
                f,
                "ucp_put_nbx gave up after {attempts} attempts ({waited_us}us of backoff): {cause}"
            ),
            UcxError::MappingRevoked => {
                write!(f, "cuda-ipc mapping revoked; direct stores unavailable")
            }
        }
    }
}

impl std::error::Error for UcxError {}

/// A received active message: opaque payload plus the modeled wire size.
pub struct AmMessage {
    /// The payload (downcast to the concrete setup type by the receiver).
    pub payload: Box<dyn Any + Send>,
    /// Bytes the message occupied on the wire (for accounting).
    pub wire_bytes: u64,
}

/// The messages queued on one tag, oldest first. A tag rarely holds more
/// than one at a time, so one message is kept inline and only a second
/// one moves them to the heap.
enum Queued {
    One(AmMessage),
    Many(VecDeque<AmMessage>),
}

#[derive(Default)]
struct Mailbox {
    /// Tags with at least one queued message; a drained tag is removed.
    queues: FxHashMap<u64, Queued>,
    arrivals: FxHashMap<u64, Event>,
    /// Messages on the wire to this worker, each with its tag; the worker
    /// is the [`Action`] that delivers one at its arrival.
    arriving: Slab<(u64, AmMessage)>,
}

impl Mailbox {
    fn push(&mut self, tag: u64, msg: AmMessage) {
        match self.queues.remove(&tag) {
            None => self.queues.insert(tag, Queued::One(msg)),
            Some(Queued::One(first)) => {
                self.queues.insert(tag, Queued::Many(VecDeque::from([first, msg])))
            }
            Some(Queued::Many(mut q)) => {
                q.push_back(msg);
                self.queues.insert(tag, Queued::Many(q))
            }
        };
    }

    /// The oldest message queued on `tag`, if any.
    fn pop(&mut self, tag: u64) -> Option<AmMessage> {
        match self.queues.remove(&tag)? {
            Queued::One(msg) => Some(msg),
            Queued::Many(mut q) => {
                let msg = q.pop_front();
                if !q.is_empty() {
                    self.queues.insert(tag, Queued::Many(q));
                }
                msg
            }
        }
    }

    /// The arrival event of `tag`, labelled `am arrival tag {tag}` so a
    /// deadlock report names the tag a parked receiver waits for.
    fn arrival(&mut self, tag: u64) -> Event {
        self.arrivals.entry(tag).or_insert_with(|| Event::numbered("am arrival tag", tag)).clone()
    }
}

pub(crate) struct WorkerInner {
    address: WorkerAddress,
    location: Location,
    mailbox: Mutex<Mailbox>,
}

impl Action for WorkerInner {
    /// Deliver the arriving message keyed `key`: queue it on its tag and
    /// fire the tag's arrival event if anyone has asked for it; a tag no
    /// receiver has waited on gets no event.
    fn run(self: Arc<Self>, h: &SimHandle, key: u64, _span: SpanId) {
        let ev = {
            let mut mb = self.mailbox.lock();
            let (tag, msg) = mb.arriving.remove(key);
            mb.push(tag, msg);
            mb.arrivals.get(&tag).cloned()
        };
        if let Some(ev) = ev {
            ev.set(h);
        }
    }
}

/// A UCP worker: one per process in the paper's design (§IV-A1).
#[derive(Clone)]
pub struct Worker {
    pub(crate) inner: Arc<WorkerInner>,
    pub(crate) universe: UcxUniverse,
}

/// The shared registry binding worker addresses to workers, plus the fabric
/// that carries their traffic.
#[derive(Clone)]
pub struct UcxUniverse {
    pub(crate) inner: Arc<UniverseInner>,
}

/// Metrics instruments of the UCX layer.
pub(crate) struct UcxInstruments {
    pub(crate) puts: Counter,
    pub(crate) put_retries: Counter,
    pub(crate) put_failures: Counter,
    pub(crate) am_sends: Counter,
    pub(crate) am_retries: Counter,
    /// Remote keys packed (`ucp_rkey_pack`): one per region a channel
    /// exposes for RMA. The symmetric-heap backend's claim to fame is that
    /// this counter stays at zero on its channels.
    pub(crate) rkey_exchanges: Counter,
    /// log2-bucket issue → last-byte-landed latency of each `put_nbx`
    /// (µs), including any fault-retry backoff.
    pub(crate) put_latency: Histogram,
}

pub(crate) struct UniverseInner {
    fabric: Fabric,
    workers: Mutex<FxHashMap<WorkerAddress, Arc<WorkerInner>>>,
    instruments: UcxInstruments,
    /// Puts in flight: each queued landing, stripe, assembly barrier and
    /// retry of a `put_nbx`, keyed by the token the universe queued itself
    /// with (see [`crate::rma`]).
    pub(crate) in_flight: Mutex<Slab<InFlight>>,
}

/// Worker addresses are globally unique so an address can never resolve in a
/// universe the worker does not belong to.
static NEXT_WORKER_ADDR: AtomicU64 = AtomicU64::new(1);

impl UcxUniverse {
    /// Create a universe over a fabric, counting its metrics (`ucx.puts`,
    /// `ucx.put_retries`, `ucx.put_failures`, `ucx.am_sends`,
    /// `ucx.am_retries`, `ucx.rkey_exchanges`, and the `ucx.put_latency_us`
    /// issue → completion histogram) into `registry`.
    pub fn new(fabric: Fabric, registry: &MetricsRegistry) -> Self {
        let mut block = registry.block(6, 1);
        let instruments = UcxInstruments {
            puts: block.counter("ucx.puts"),
            put_retries: block.counter("ucx.put_retries"),
            put_failures: block.counter("ucx.put_failures"),
            am_sends: block.counter("ucx.am_sends"),
            am_retries: block.counter("ucx.am_retries"),
            rkey_exchanges: block.counter("ucx.rkey_exchanges"),
            put_latency: block.histogram("ucx.put_latency_us"),
        };
        UcxUniverse {
            inner: Arc::new(UniverseInner {
                fabric,
                workers: Mutex::new(FxHashMap::default()),
                instruments,
                in_flight: Mutex::new(Slab::default()),
            }),
        }
    }

    pub(crate) fn instruments(&self) -> &UcxInstruments {
        &self.inner.instruments
    }

    /// Steps of `put_nbx` calls still queued: landings, stripes, assembly
    /// barriers and retries. Zero once every put has landed or failed.
    pub fn puts_in_flight(&self) -> usize {
        self.inner.in_flight.lock().len()
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The simulation handle.
    pub fn sim(&self) -> &SimHandle {
        self.inner.fabric.sim()
    }

    /// Create and register a worker homed at `location` (the CPU of the
    /// owning process in the paper's design; communication resources are
    /// host-driven even when payload lives in device memory).
    pub fn create_worker(&self, location: Location) -> Worker {
        let address = WorkerAddress(NEXT_WORKER_ADDR.fetch_add(1, Ordering::Relaxed));
        let inner = Arc::new(WorkerInner {
            address,
            location,
            mailbox: Mutex::new(Mailbox::default()),
        });
        self.inner.workers.lock().insert(address, inner.clone());
        Worker { inner, universe: self.clone() }
    }

    pub(crate) fn lookup(&self, addr: WorkerAddress) -> Result<Arc<WorkerInner>, UcxError> {
        self.inner
            .workers
            .lock()
            .get(&addr)
            .cloned()
            .ok_or(UcxError::UnknownWorker(addr))
    }
}

impl Worker {
    /// This worker's address (exchanged out of band).
    pub fn address(&self) -> WorkerAddress {
        self.inner.address
    }

    /// Where this worker is homed.
    pub fn location(&self) -> Location {
        self.inner.location
    }

    /// The universe this worker belongs to.
    pub fn universe(&self) -> &UcxUniverse {
        &self.universe
    }

    /// Create an endpoint addressing `remote`.
    pub fn create_endpoint(&self, remote: WorkerAddress) -> Result<Endpoint, UcxError> {
        let peer = self.universe.lookup(remote)?;
        Ok(Endpoint { src: self.inner.clone(), dst: peer, universe: self.universe.clone() })
    }

    /// Non-blocking tagged receive: returns a message if one is queued.
    pub fn try_am_recv(&self, tag: u64) -> Option<AmMessage> {
        let mut mb = self.inner.mailbox.lock();
        let msg = mb.pop(tag);
        if msg.is_some() {
            // Re-arm the arrival event if the queue drained.
            if !mb.queues.contains_key(&tag) {
                if let Some(ev) = mb.arrivals.get(&tag) {
                    if ev.is_set() {
                        ev.reset();
                    }
                }
            }
        }
        msg
    }

    /// Blocking tagged receive (virtual time).
    pub fn am_recv(&self, ctx: &mut Ctx, tag: u64) -> AmMessage {
        let (worker, p) = (self.clone(), ctx.proc());
        ctx.block_on(async move { worker.am_recv_async(&p, tag).await })
    }

    /// Async [`Worker::am_recv`], for code run under `Ctx::block_on`.
    pub async fn am_recv_async(&self, p: &Proc, tag: u64) -> AmMessage {
        loop {
            if let Some(m) = self.try_am_recv(tag) {
                return m;
            }
            let ev = self.arrival_event(tag);
            p.wait(&ev).await;
        }
    }

    /// Bounded tagged receive, for code run under `Ctx::block_on`: like
    /// [`Worker::am_recv_async`] but gives up after `timeout` of virtual
    /// time with no message. The watchdog surface for handshake waits — a
    /// peer that died mid-protocol must not park this process forever.
    pub async fn am_recv_timeout_async(
        &self,
        p: &Proc,
        tag: u64,
        timeout: SimDuration,
    ) -> Option<AmMessage> {
        let deadline = p.now() + timeout;
        loop {
            if let Some(m) = self.try_am_recv(tag) {
                return Some(m);
            }
            if p.now() >= deadline {
                return None;
            }
            let ev = self.arrival_event(tag);
            p.wait_timeout(&ev, deadline.since(p.now())).await;
        }
    }

    /// The event that fires when a message with `tag` is queued, already
    /// set if one is. Used by progression engines to poll without
    /// busy-waiting.
    pub fn arrival_event(&self, tag: u64) -> Event {
        let (ev, queued) = {
            let mut mb = self.inner.mailbox.lock();
            (mb.arrival(tag), mb.queues.contains_key(&tag))
        };
        if queued {
            ev.set(self.universe.sim());
        }
        ev
    }

}

/// A UCP endpoint: the source-side object addressing one remote worker.
#[derive(Clone)]
pub struct Endpoint {
    pub(crate) src: Arc<WorkerInner>,
    pub(crate) dst: Arc<WorkerInner>,
    pub(crate) universe: UcxUniverse,
}

impl Endpoint {
    /// Send a tagged active message carrying `payload`; `wire_bytes` is the
    /// modeled serialized size (control messages are small, e.g. the
    /// `setup_t` exchange). Fire and forget: nothing signals the sender. The
    /// message lands in the peer's mailbox at its wire arrival, where
    /// [`Worker::am_recv`] (or [`Worker::arrival_event`]) sees it.
    ///
    /// Control messages ride the reliable transport: under a fault-injected
    /// NIC outage the send retries on a fixed backoff until a route exists
    /// again (bounded by [`AM_MAX_ATTEMPTS`]; an outage outlasting that
    /// drops the message, which the receiver-side watchdog surfaces as a
    /// typed timeout). With no faults armed the retry path is never entered.
    pub fn am_send<T: Any + Send>(&self, tag: u64, payload: T, wire_bytes: u64) {
        let payload: Box<dyn Any + Send> = Box::new(payload);
        am_send_attempt(
            self.universe.clone(),
            self.src.location,
            self.dst.clone(),
            tag,
            payload,
            wire_bytes,
            0,
        );
    }
}

/// Maximum attempts for one active-message send under NIC outages.
pub const AM_MAX_ATTEMPTS: u32 = 64;

/// Backoff between active-message retry attempts (µs).
pub const AM_RETRY_BACKOFF_US: f64 = 50.0;

/// One attempt at putting an active message on the wire; reschedules itself
/// on a routing failure. Free function (not a closure) so the retry chain
/// can recurse from scheduled callbacks.
fn am_send_attempt(
    universe: UcxUniverse,
    src: Location,
    dst: Arc<WorkerInner>,
    tag: u64,
    payload: Box<dyn Any + Send>,
    wire_bytes: u64,
    attempt: u32,
) {
    let h = universe.sim().clone();
    let now = h.now();
    let i = universe.instruments();
    if attempt == 0 {
        i.am_sends.inc();
    } else {
        i.am_retries.inc();
    }
    match universe.fabric().try_transfer(now, src, dst.location, wire_bytes, WireAttr::NONE) {
        Ok(transfer) => {
            // Deliver into the mailbox exactly at arrival.
            let key = dst.mailbox.lock().arriving.insert((tag, AmMessage { payload, wire_bytes }));
            h.schedule_action_at(transfer.arrival, dst, key);
        }
        Err(_) if attempt + 1 < AM_MAX_ATTEMPTS => {
            h.schedule_in(
                parcomm_sim::SimDuration::from_micros_f64(AM_RETRY_BACKOFF_US),
                move |_h| {
                    am_send_attempt(universe, src, dst, tag, payload, wire_bytes, attempt + 1)
                },
            );
        }
        Err(_) => {
            // Outage outlasted every retry: the message is lost. The
            // receiver's watchdog turns the missing arrival into a typed
            // timeout.
        }
    }
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("address", &self.inner.address)
            .field("location", &self.inner.location)
            .finish()
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("src", &self.src.location)
            .field("dst", &self.dst.location)
            .finish()
    }
}
