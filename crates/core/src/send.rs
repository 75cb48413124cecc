//! The send side of MPI Partitioned point-to-point.
//!
//! Life cycle (paper Fig. 1 / §IV-A):
//!
//! 1. [`psend_init`] — create the channel, ship `setup_t` to the receiver
//!    (non-blocking).
//! 2. [`PsendRequest::start`] — open a communication epoch: reset partition
//!    state (`MPI_Start`).
//! 3. [`PsendRequest::pbuf_prepare`] — blocking guarantee that the remote
//!    buffer is ready. First call completes the rkey exchange; later calls
//!    wait for the receiver's ready-to-receive signal.
//! 4. [`PsendRequest::pready`] — host binding of `MPI_Pready`: mark a user
//!    partition ready; when a whole *transport* partition is ready, put its
//!    data and chain the receive-side flag put.
//! 5. [`PsendRequest::wait`] — block until every transport partition of the
//!    epoch is delivered (`MPI_Wait`), closing the epoch.
//!
//! The first `pbuf_prepare` fixes the channel's [`Route`]: classic RMA
//! with the receiver's two rkeys, or the symmetric heap with its
//! translated buffers. Every delivery of a transport partition — host
//! `pready`, a progression-engine post, a device shmem emission, or a
//! recovery replay — goes through [`PsendShared::issue_data_put`], which
//! dispatches on the route once, and takes effect in one landing function,
//! [`PsendShared::land`]: the generation/delivered latch, the
//! `mpi.pready_arrival_us` sample and the arrival counters.
//!
//! The channel is the sink of its own puts: it keeps each put in flight,
//! with what it is for, in a slab under its state lock, and issues the put
//! with the key, as the [`Action`] its RMA put steps and its
//! symmetric-heap landings are queued as, so a delivery allocates nothing
//! and takes no lock beyond the channel's own.
//!
//! Device bindings (`MPIX_Pready` from inside a kernel) live in
//! `crate::device` and drive the same state machine through the crate-
//! internal `mark_ready` / `issue_*` entry points.
//!
//! Every call that can park is implemented once, as an `async fn` over a
//! [`Proc`] (`psend_init_async`, `pbuf_prepare_async`, `wait_async`, ...);
//! the blocking form runs it under `Ctx::block_on`. `MPI_Start` never
//! parks, so [`PsendRequest::start_epoch`] serves async code directly.

use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parcomm_sim::Mutex;

use parcomm_gpu::{Buffer, CostModel, MemSpace};
use parcomm_mpi::{chunk_range, CopyMechanism, MpiError, MpiWorld, ProgressionEngine, Rank};
use parcomm_net::WireAttr;
use parcomm_shmem::ShmemError;
use parcomm_sim::{Action, CountEvent, Ctx, Proc, SimDuration, SimHandle, SimTime, Slab, SpanId};
use parcomm_ucx::{
    AmMessage, Endpoint, Put, PutHandle, PutOpts, PutStatus, RKey, Worker, MAX_STRIPES,
    PUT_MAX_ATTEMPTS, PUT_RETRY_BACKOFF_US,
};

use crate::channel::{
    am_tag, Channel, Notifier, ReadyToReceive, ReceiverSetup, SenderSetup, ShmemReceiverSetup,
};
use crate::overheads::ApiOverheads;
use crate::watchdog;

/// Which transport partition covers user partition `u` when `users` user
/// partitions are aggregated into `transports` transport partitions
/// (contiguous, balanced split — the inverse of [`chunk_range`]).
pub fn transport_of_user(users: usize, transports: usize, u: usize) -> usize {
    debug_assert!(u < users);
    let base = users / transports;
    let rem = users % transports;
    let fat = (base + 1) * rem; // users covered by the first `rem` fat chunks
    if u < fat {
        u / (base + 1)
    } else {
        rem + (u - fat) / base
    }
}

/// How a channel's transport partitions reach the receiver, decided once
/// by the receiver's setup reply at the first `MPIX_Pbuf_prepare`.
pub(crate) enum Route {
    /// Classic RMA: a data put against the receiver's data rkey, chaining
    /// a flag put against its flag rkey. Used by the Progression Engine and
    /// Kernel Copy mechanisms alike (Kernel Copy maps `data_rkey` for its
    /// in-kernel stores and posts only the flag put).
    Rma {
        data_rkey: RKey,
        flag_rkey: RKey,
        /// Set when this side wanted shmem but the receiver demoted the
        /// channel: the typed reason, kept for diagnostics and surfaced by
        /// `prequest_create(copy: Shmem)`.
        shmem_denied: Option<ShmemError>,
    },
    /// Symmetric heap: one-sided puts into the receiver's data and flag
    /// buffers, resolved *locally* from the symmetric offsets in the setup
    /// reply — no rkey was exchanged and none is needed again.
    Shmem { data: Buffer, flags: Buffer },
}

pub(crate) struct SendState {
    pub epoch: u64,
    pub started: bool,
    pub transport_partitions: usize,
    /// The receiver's arrival observers (the sim stand-in for the receiver
    /// polling its flag memory); set with the route, told of each landing.
    pub notifier: Option<Notifier>,
    /// Per-transport count of user partitions marked ready this epoch.
    pub ready: Vec<u64>,
    /// Per-user-partition ready bit (double-`MPI_Pready` detection).
    pub user_ready: Vec<bool>,
    /// Per-transport "put issued" latch.
    pub sent: Vec<bool>,
    /// Per-transport delivered latch for the current epoch: set exactly
    /// once, by the first current-generation landing. Replay re-issues only
    /// undelivered transports; a racing duplicate that lands after the
    /// latch is discarded.
    pub delivered: Vec<bool>,
    /// Each of this channel's puts in flight and what it delivers, keyed by
    /// the token it was issued with. Kept under this lock, which issuing
    /// and landing a put take anyway.
    pub(crate) in_flight: Slab<InFlightPut>,
    /// Stripe count for the data puts: each transport partition's payload
    /// splits into up to this many stripes routed concurrently over the
    /// eligible fabric paths. `1` (the default) is the classic single-path
    /// protocol, untouched.
    pub stripes: usize,
}

pub(crate) struct PsendShared {
    pub world: MpiWorld,
    pub worker: Worker,
    pub progression: ProgressionEngine,
    pub cost: CostModel,
    pub overheads: ApiOverheads,
    pub my_rank: usize,
    pub dest: usize,
    pub tag: u64,
    pub buffer: Buffer,
    pub user_partitions: usize,
    pub partition_bytes: usize,
    pub endpoint: Endpoint,
    /// Host staging for the flag puts: one u64 per user partition, holding
    /// the current epoch number.
    pub flag_stage: Buffer,
    /// The negotiated route; unset until the first `MPIX_Pbuf_prepare`,
    /// then fixed for the channel's life, so every put reads it in place.
    pub route: OnceLock<Route>,
    pub state: Mutex<SendState>,
    /// Bumped once per transport partition delivered this epoch.
    pub transport_complete: CountEvent,
    /// Handles of the puts issued this epoch (data and chained flag puts)
    /// that can fail, scanned by the `MPI_Wait` watchdog to surface
    /// transport failures. Only a fabric with faults armed fails a put, so
    /// fault-free runs keep none. Cleared at `MPI_Start` and by epoch
    /// replay (a replay supersedes the old attempt's handles — their
    /// failures are no longer diagnostic).
    pub puts: Mutex<Vec<PutHandle>>,
    /// Replay generation: bumped by [`PsendShared::recover_epoch`]. Every
    /// delivery carries the generation it was issued under, and
    /// [`PsendShared::land`] discards it if a replay has superseded it —
    /// stale duplicates from a half-completed attempt cannot double-count.
    pub gen: AtomicU64,
    /// Host-drain takeover hook for the device (`MPIX_Pready`-from-kernel)
    /// path: registered by `prequest_create`, it drains the device
    /// notification queue from the waiter's context when the progression
    /// engine's lease expires. Draining pops from the same queue the PE
    /// hook drains, so each notification is serviced exactly once. The hook
    /// holds the device request weakly (the request holds this channel),
    /// and yields no drain once the request is gone.
    pub device_drain: Mutex<Option<DrainHook>>,
    /// Settled failure of a device-initiated shmem put (retry budget
    /// exhausted). Checked first by the stall diagnosis; cleared at
    /// `MPI_Start` and by epoch replay.
    pub shmem_failure: Mutex<Option<ShmemError>>,
}

/// What one delivery of a transport partition carries to its landing.
#[derive(Copy, Clone)]
pub(crate) struct Delivery {
    /// The transport partition.
    k: usize,
    /// Its user partitions `(first, count)`.
    users: (usize, usize),
    /// The generation it was issued under.
    issue_gen: u64,
    /// When its pready began processing.
    pready_at: SimTime,
}

/// One of a channel's puts in flight, and what its landing does.
pub(crate) enum InFlightPut {
    /// An RMA data put: its completion chains the flag put.
    Data(Delivery, Put),
    /// An RMA flag put: its completion lands the transport.
    Flag(Delivery, Put),
    /// A symmetric-heap put landing at `arrival` (plus the signal store),
    /// over the wire span `wire_span`.
    Shmem { put: ShmemPut, arrival: SimTime, wire_span: SpanId },
    /// A symmetric-heap put's next attempt, after a routing failure.
    ShmemRetry { put: ShmemPut, attempt: u32 },
}

/// Boxed host-drain callback; see [`PsendShared::device_drain`]. It returns
/// the drain as a future, which the recovery ladder awaits inside
/// [`PsendRequest::wait_async`], or `None` once the device request is gone.
pub type DrainHook =
    Box<dyn FnMut(&Proc) -> Option<Pin<Box<dyn Future<Output = ()> + Send>>> + Send>;

/// A persistent partitioned send channel (`MPI_Psend_init` result).
#[derive(Clone)]
pub struct PsendRequest {
    pub(crate) inner: Arc<PsendShared>,
}

/// Initialize a partitioned send channel: `MPI_Psend_init`.
///
/// `buffer.len()` must be divisible by `partitions`. The `setup_t` object is
/// shipped to the receiver non-blocking; all deferred work happens in the
/// first [`PsendRequest::pbuf_prepare`].
pub fn psend_init(
    ctx: &mut Ctx,
    rank: &Rank,
    dest: usize,
    tag: u64,
    buffer: &Buffer,
    partitions: usize,
) -> Result<PsendRequest, MpiError> {
    let (p, rank, buffer) = (ctx.proc(), rank.clone(), buffer.clone());
    ctx.block_on(async move { psend_init_async(&p, &rank, dest, tag, &buffer, partitions).await })
}

/// Async [`psend_init`], for code run under `Ctx::block_on`.
pub async fn psend_init_async(
    p: &Proc,
    rank: &Rank,
    dest: usize,
    tag: u64,
    buffer: &Buffer,
    partitions: usize,
) -> Result<PsendRequest, MpiError> {
    if partitions == 0 {
        return Err(MpiError::InvalidArgument {
            context: "psend_init: need at least one partition".into(),
        });
    }
    if !buffer.len().is_multiple_of(partitions) {
        return Err(MpiError::InvalidArgument {
            context: format!(
                "psend_init: buffer length {} not divisible into {} partitions",
                buffer.len(),
                partitions
            ),
        });
    }
    if dest == rank.rank() {
        return Err(MpiError::InvalidArgument {
            context: "psend_init: self-send channels are not supported".into(),
        });
    }
    if dest >= rank.size() {
        return Err(MpiError::InvalidArgument {
            context: format!("psend_init: destination rank {dest} out of range"),
        });
    }
    let overheads = ApiOverheads::default();
    p.advance(ApiOverheads::sample(&p.handle(), overheads.p2p_init)).await;

    let endpoint = rank.worker().create_endpoint(rank.peer_address(dest))?;
    let setup = SenderSetup {
        user_partitions: partitions,
        partition_bytes: buffer.len() / partitions,
        sender_addr: rank.worker().address(),
    };
    endpoint.am_send(
        am_tag(Channel::Setup, tag, rank.rank(), dest),
        setup,
        SenderSetup::WIRE_BYTES,
    );

    let node = rank.gpu().id().node;
    Ok(PsendRequest {
        inner: Arc::new(PsendShared {
            world: rank.world().clone(),
            worker: rank.worker().clone(),
            progression: rank.progression().clone(),
            cost: rank.gpu().cost().clone(),
            overheads,
            my_rank: rank.rank(),
            dest,
            tag,
            buffer: buffer.clone(),
            user_partitions: partitions,
            partition_bytes: buffer.len() / partitions,
            endpoint,
            flag_stage: Buffer::alloc(MemSpace::Host { node }, partitions * 8),
            route: OnceLock::new(),
            state: Mutex::new(SendState {
                epoch: 0,
                started: false,
                transport_partitions: 1,
                notifier: None,
                ready: vec![0; 1],
                user_ready: vec![false; partitions],
                sent: vec![false; 1],
                delivered: vec![false; 1],
                in_flight: Slab::default(),
                stripes: 1,
            }),
            transport_complete: CountEvent::named("psend transport_complete"),
            puts: Mutex::new(Vec::new()),
            gen: AtomicU64::new(0),
            device_drain: Mutex::new(None),
            shmem_failure: Mutex::new(None),
        }),
    })
}

impl PsendRequest {
    /// Number of user partitions of this channel.
    pub fn user_partitions(&self) -> usize {
        self.inner.user_partitions
    }

    /// Bytes per user partition.
    pub fn partition_bytes(&self) -> usize {
        self.inner.partition_bytes
    }

    /// Current transport partition count (user partitions are aggregated
    /// into this many RMA puts per epoch).
    pub fn transport_partitions(&self) -> usize {
        self.inner.state.lock().transport_partitions
    }

    /// The send buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.inner.buffer
    }

    /// Configure transport aggregation. Must be called before any partition
    /// of the current epoch is marked ready. `t` must be in
    /// `1..=user_partitions`.
    pub fn set_transport_partitions(&self, t: usize) -> Result<(), MpiError> {
        if t < 1 || t > self.inner.user_partitions {
            return Err(MpiError::InvalidArgument {
                context: format!("invalid transport partition count {t}"),
            });
        }
        let mut st = self.inner.state.lock();
        if !st.ready.iter().all(|&c| c == 0) {
            return Err(MpiError::InvalidArgument {
                context: "set_transport_partitions after partitions were marked ready".into(),
            });
        }
        st.transport_partitions = t;
        refill(&mut st.ready, t, 0);
        refill(&mut st.sent, t, false);
        refill(&mut st.delivered, t, false);
        Ok(())
    }

    /// Current stripe count for this channel's data puts.
    pub fn stripes(&self) -> usize {
        self.inner.state.lock().stripes
    }

    /// Per-request copy-mechanism override (else the channel negotiates the
    /// world default, [`parcomm_mpi::WorldConfig::mechanism`]). The
    /// *receiver* resolves the mechanism at its first `MPIX_Pbuf_prepare`,
    /// so an override must be set symmetrically on both endpoints' requests
    /// before either side prepares. The sender only validates the call:
    /// the receiver's choice arrives in its setup reply. Rejected once the
    /// channel has negotiated.
    pub fn set_mechanism(&self, _m: CopyMechanism) -> Result<(), MpiError> {
        if self.inner.route.get().is_some() {
            return Err(MpiError::InvalidArgument {
                context: "set_mechanism after the channel negotiated at MPIX_Pbuf_prepare".into(),
            });
        }
        Ok(())
    }

    /// True when the channel negotiated the symmetric-heap mechanism: data
    /// and flags travel as device-initiated one-sided puts against the
    /// receiver's symmetric offsets, with no rkey exchange.
    pub fn shmem_active(&self) -> bool {
        matches!(self.inner.route.get(), Some(Route::Shmem { .. }))
    }

    /// The typed reason the receiver demoted a requested shmem channel to
    /// the Progression Engine, if it did.
    pub fn shmem_denial(&self) -> Option<ShmemError> {
        match self.inner.route.get() {
            Some(Route::Rma { shmem_denied, .. }) => shmem_denied.clone(),
            _ => None,
        }
    }

    /// Configure multi-path striping: split each transport partition's data
    /// put into up to `stripes` stripes routed concurrently over the
    /// eligible fabric paths (NIC rails across nodes, NVLink relays within
    /// one). The plan degrades gracefully when the route offers fewer
    /// paths; `1` restores the exact single-path protocol. Must be called
    /// before any partition of the current epoch is marked ready; `stripes`
    /// must be in `1..=MAX_STRIPES`.
    pub fn set_stripes(&self, stripes: usize) -> Result<(), MpiError> {
        if !(1..=MAX_STRIPES).contains(&stripes) {
            return Err(MpiError::InvalidArgument {
                context: format!("invalid stripe count {stripes} (max {MAX_STRIPES})"),
            });
        }
        let mut st = self.inner.state.lock();
        if !st.ready.iter().all(|&c| c == 0) {
            return Err(MpiError::InvalidArgument {
                context: "set_stripes after partitions were marked ready".into(),
            });
        }
        st.stripes = stripes;
        Ok(())
    }

    /// `MPI_Start`: open a new communication epoch.
    pub fn start(&self, _ctx: &mut Ctx) -> Result<(), MpiError> {
        self.start_epoch()
    }

    /// [`PsendRequest::start`] without a `Ctx`: `MPI_Start` never parks,
    /// so async code calls this directly.
    pub fn start_epoch(&self) -> Result<(), MpiError> {
        let mut st = self.inner.state.lock();
        if st.started {
            return Err(MpiError::InvalidArgument {
                context: "MPI_Start while the previous epoch is still active".into(),
            });
        }
        st.epoch += 1;
        st.started = true;
        let t = st.transport_partitions;
        refill(&mut st.ready, t, 0);
        refill(&mut st.user_ready, self.inner.user_partitions, false);
        refill(&mut st.sent, t, false);
        refill(&mut st.delivered, t, false);
        // Only a fabric with faults armed fails a put, so only there can
        // the last epoch have left handles or a failure behind.
        if self.inner.world.fabric().faults_armed() {
            self.inner.puts.lock().clear();
            *self.inner.shmem_failure.lock() = None;
        }
        self.inner.transport_complete.reset();
        // Flag puts carry the epoch number so MPI_Parrived can distinguish
        // epochs without a reset race. One fill stamps every flag.
        self.inner.flag_stage.fill_flags(0..self.inner.user_partitions, st.epoch);
        Ok(())
    }

    /// The receiver's data-buffer [`RKey`] (available after the first
    /// `MPIX_Pbuf_prepare`). Fault-injection surface: chaos tests call
    /// [`RKey::revoke_ipc`] on it to simulate the peer unmapping its
    /// `ucp_rkey_ptr` IPC mapping mid-epoch.
    pub fn data_rkey(&self) -> Option<RKey> {
        match self.inner.route.get() {
            Some(Route::Rma { data_rkey, .. }) => Some(data_rkey.clone()),
            _ => None,
        }
    }

    /// `MPIX_Pbuf_prepare` (sender side): block until the receiver's buffer
    /// is guaranteed ready for this epoch.
    pub fn pbuf_prepare(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        let (this, p) = (self.clone(), ctx.proc());
        ctx.block_on(async move { this.pbuf_prepare_async(&p).await })
    }

    /// Async [`PsendRequest::pbuf_prepare`], for code run under
    /// `Ctx::block_on`.
    pub async fn pbuf_prepare_async(&self, p: &Proc) -> Result<(), MpiError> {
        self.pbuf_prepare_charged(p, true).await
    }

    /// [`PsendRequest::pbuf_prepare_async`] with the overhead charge gated:
    /// a batched tick ([`crate::pbuf_prepare_batch_async`]) charges the full
    /// first-call overhead once and bills every further channel the
    /// per-channel batch increment instead. The handshake protocol itself
    /// (reply / RTR consumption) is identical either way.
    pub(crate) async fn pbuf_prepare_charged(&self, p: &Proc, charge: bool) -> Result<(), MpiError> {
        let (first, epoch) = {
            let st = self.inner.state.lock();
            if !st.started {
                return Err(MpiError::InvalidArgument {
                    context: "MPIX_Pbuf_prepare before MPI_Start".into(),
                });
            }
            (self.inner.route.get().is_none(), st.epoch)
        };
        if first {
            let o = if charge {
                self.inner.overheads.pbuf_prepare_first_send
            } else {
                self.inner.overheads.pbuf_prepare_batch_extra
            };
            p.advance(ApiOverheads::sample(&p.handle(), o)).await;
            let reply_tag = am_tag(Channel::SetupReply, self.inner.tag, self.inner.my_rank, self.inner.dest);
            let msg = self.recv_handshake(p, reply_tag, "setup reply").await?;
            // The receiver decides the mechanism and its reply *type* is the
            // verdict: a shmem reply carries two symmetric offsets instead
            // of packed rkeys.
            let reply = msg.payload.downcast::<ShmemReceiverSetup>().map_err(|payload| {
                payload.downcast::<ReceiverSetup>().expect("setup reply payload type mismatch")
            });
            let (theirs, notifier) = match &reply {
                Ok(srs) => (srs.user_partitions, srs.notifier.clone()),
                Err(rs) => (rs.user_partitions, rs.notifier.clone()),
            };
            if theirs != self.inner.user_partitions {
                return Err(MpiError::InvalidArgument {
                    context: format!(
                        "partitioned channel: sender ({}) and receiver ({theirs}) partition \
                         counts differ",
                        self.inner.user_partitions
                    ),
                });
            }
            let route = match reply {
                Ok(srs) => {
                    let heap = self.inner.world.shmem_heap();
                    let bytes = (self.inner.user_partitions * self.inner.partition_bytes) as u64;
                    let data = heap.translate(self.inner.dest, srs.data_off, bytes)?;
                    let flag_bytes = (self.inner.user_partitions * 8) as u64;
                    let flags = heap.translate(self.inner.dest, srs.flag_off, flag_bytes)?;
                    // One data rkey and one flag rkey that never had to be
                    // packed, shipped, or unpacked.
                    heap.instruments().rkey_exchanges_avoided.add(2);
                    Route::Shmem { data, flags }
                }
                Err(rs) => Route::Rma {
                    data_rkey: rs.data_rkey.clone(),
                    flag_rkey: rs.flag_rkey.clone(),
                    shmem_denied: rs.shmem_denied.clone(),
                },
            };
            if self.inner.route.set(route).is_err() {
                unreachable!("a channel negotiates its route once");
            }
            self.inner.state.lock().notifier = Some(notifier);
        } else {
            p.advance(ApiOverheads::sample(&p.handle(), self.inner.overheads.pbuf_prepare_steady))
                .await;
            let rtr_tag = am_tag(Channel::ReadyToReceive, self.inner.tag, self.inner.my_rank, self.inner.dest);
            let msg = self.recv_handshake(p, rtr_tag, "ready-to-receive").await?;
            let rtr = msg.payload.downcast::<ReadyToReceive>().expect("RTR payload type mismatch");
            if rtr.epoch != epoch {
                return Err(MpiError::InvalidArgument {
                    context: format!(
                        "receiver epoch {} out of sync with sender epoch {epoch}",
                        rtr.epoch
                    ),
                });
            }
        }
        Ok(())
    }

    /// Host binding of `MPI_Pready`: mark one user partition ready. If that
    /// completes a transport partition, its data put is issued from the
    /// calling process (charging the put-post cost).
    pub fn pready(&self, ctx: &mut Ctx, user_partition: usize) -> Result<(), MpiError> {
        self.pready_range(ctx, user_partition..user_partition + 1)
    }

    /// Host bulk `MPI_Pready` over a contiguous user partition range.
    pub fn pready_range(&self, ctx: &mut Ctx, users: Range<usize>) -> Result<(), MpiError> {
        let this = self.clone();
        let p = ctx.proc();
        ctx.block_on(async move { this.pready_range_async(&p, users).await })
    }

    /// Async [`PsendRequest::pready`], for code run under `Ctx::block_on`.
    pub async fn pready_async(&self, p: &Proc, user_partition: usize) -> Result<(), MpiError> {
        self.pready_range_async(p, user_partition..user_partition + 1).await
    }

    /// Async [`PsendRequest::pready_range`]. Posts the data puts for the
    /// transport partitions the range completes, charging the host put-post
    /// cost and recording a `pready_host` span per put as the causal root
    /// of its put → wire → completion chain.
    pub async fn pready_range_async(&self, p: &Proc, users: Range<usize>) -> Result<(), MpiError> {
        let (completed, _) = self.inner.mark_ready(users)?;
        for k in completed {
            let t0 = p.now();
            p.advance(SimDuration::from_micros_f64(self.inner.cost.data_put_post_us)).await;
            let h = p.handle();
            let host_span = h.trace().record_causal(
                "pready_host",
                t0,
                p.now(),
                Some(self.inner.my_rank as u32),
                Some(k as u32),
                SpanId::NONE,
            );
            self.inner.issue_data_put(&h, k, host_span, t0);
        }
        Ok(())
    }

    /// `MPI_Wait` (sender side): block until every transport partition of
    /// the current epoch is delivered, then close the epoch.
    ///
    /// With [`parcomm_mpi::WorldConfig::wait_watchdog_us`] armed, a stalled
    /// epoch returns a typed error instead of blocking forever: a failed put
    /// surfaces as [`MpiError::Transport`], a crashed progression engine as
    /// [`MpiError::ProgressionHalted`], anything else as
    /// [`MpiError::WaitTimeout`].
    ///
    /// With [`parcomm_mpi::WorldConfig::recover`] enabled, a stall instead
    /// escalates through the recovery ladder every `detect_us`: if the
    /// progression engine's lease has expired, its pending device
    /// notifications are drained from this context; then the epoch's
    /// undelivered transports are replayed under a fresh generation. Only
    /// after `max_replays` fruitless rounds does the typed
    /// [`MpiError::Unrecoverable`] surface.
    pub fn wait(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        let (this, p) = (self.clone(), ctx.proc());
        ctx.block_on(async move { this.wait_async(&p).await })
    }

    /// Async [`PsendRequest::wait`], for code run under `Ctx::block_on`.
    pub async fn wait_async(&self, p: &Proc) -> Result<(), MpiError> {
        let t = {
            let st = self.inner.state.lock();
            if !st.started {
                return Err(MpiError::InvalidArgument {
                    context: "MPI_Wait without MPI_Start".into(),
                });
            }
            st.transport_partitions as u64
        };
        let recover = self.inner.world.config().recover.clone();
        match (recover, self.inner.world.config().wait_watchdog_us) {
            (None, None) => p.wait_count(&self.inner.transport_complete, t).await,
            (None, Some(timeout_us)) => {
                let done = &self.inner.transport_complete;
                watchdog::bounded(
                    &self.inner.world,
                    timeout_us,
                    |dt| async move { p.wait_count_timeout(done, t, dt).await.then_some(()) },
                    || self.inner.diagnose_stall(timeout_us, t),
                )
                .await?;
            }
            (Some(rc), watchdog_us) => {
                let instruments = self.inner.world.instruments();
                let detect_us = rc.detect_us.min(watchdog_us.unwrap_or(f64::INFINITY));
                let dt = SimDuration::from_micros_f64(detect_us);
                let mut attempts = 0u32;
                loop {
                    instruments.watchdog_arms.inc();
                    if p.wait_count_timeout(&self.inner.transport_complete, t, dt).await {
                        break;
                    }
                    instruments.watchdog_fires.inc();
                    if attempts >= rc.max_replays {
                        let diag = self.inner.diagnose_stall(detect_us, t);
                        return Err(MpiError::Unrecoverable {
                            rank: self.inner.my_rank,
                            context: format!(
                                "psend transport completion (dst {}): {diag}",
                                self.inner.dest
                            ),
                            attempts,
                        });
                    }
                    attempts += 1;
                    if self.inner.progression.lease_expired(p.now(), rc.lease_us) {
                        instruments.recover_lease_expired.inc();
                        self.inner.host_drain_device(p).await;
                    }
                    self.inner.recover_epoch(p).await;
                }
            }
        }
        self.inner.state.lock().started = false;
        Ok(())
    }

    /// Replay the current epoch's undelivered transport partitions under a
    /// fresh generation (the lease/replay rung of the recovery ladder).
    /// Idempotent and safe to call spuriously: every transport's delivery is
    /// latched exactly once, and completions from superseded generations are
    /// discarded, so a replay of an epoch that was quietly completing merely
    /// wastes bandwidth. Returns the number of transports re-posted.
    pub fn recover_epoch(&self, ctx: &mut Ctx) -> usize {
        let inner = self.inner.clone();
        let p = ctx.proc();
        ctx.block_on(async move { inner.recover_epoch(&p).await })
    }

    /// Async [`PsendRequest::recover_epoch`], for code run under
    /// `Ctx::block_on`.
    pub async fn recover_epoch_async(&self, p: &Proc) -> usize {
        self.inner.recover_epoch(p).await
    }

    /// `MPI_Test` (sender side): true when the epoch is fully delivered.
    pub fn test(&self) -> bool {
        let st = self.inner.state.lock();
        self.inner.transport_complete.count() >= st.transport_partitions as u64
    }

    pub(crate) fn shared(&self) -> &Arc<PsendShared> {
        &self.inner
    }

    /// `MPI_Request_free` for the persistent channel: the request must not
    /// have an active epoch. Resources are reference-counted in the
    /// simulation; this charges the host bookkeeping cost and consumes the
    /// handle so further API calls are impossible.
    pub async fn free_async(self, p: &Proc) -> Result<(), MpiError> {
        if self.inner.state.lock().started {
            return Err(MpiError::InvalidArgument {
                context: "MPI_Request_free while a communication epoch is active".into(),
            });
        }
        p.advance(SimDuration::from_micros_f64(2.0)).await;
        Ok(())
    }
}

impl PsendRequest {
    /// Handshake receive honoring the wait watchdog: without one armed this
    /// is exactly the seed's unbounded `am_recv` (zero extra events); with
    /// one armed, a dead peer surfaces a typed timeout instead of parking
    /// this rank forever.
    async fn recv_handshake(&self, p: &Proc, tag: u64, what: &str) -> Result<AmMessage, MpiError> {
        let inner = &self.inner;
        match inner.world.config().wait_watchdog_us {
            None => Ok(inner.worker.am_recv_async(p, tag).await),
            Some(t) => {
                watchdog::bounded(
                    &inner.world,
                    t,
                    |dt| inner.worker.am_recv_timeout_async(p, tag, dt),
                    || MpiError::WaitTimeout {
                        rank: inner.my_rank,
                        context: format!("psend {what} (dst {})", inner.dest),
                        completed: 0,
                        expected: 1,
                        timeout_us: t,
                    },
                )
                .await
            }
        }
    }
}

impl PsendShared {
    /// Watchdog expiry triage, most-specific first: a settled put failure
    /// (transport gave up after retries), a crashed progression engine, then
    /// the generic stalled-counter timeout.
    pub(crate) fn diagnose_stall(&self, timeout_us: f64, expected: u64) -> MpiError {
        if let Some(e) = self.shmem_failure.lock().clone() {
            return MpiError::Shmem(e);
        }
        let failed = self.puts.lock().iter().find_map(|p| match p.result() {
            Some(Err(e)) => Some(e),
            _ => None,
        });
        if let Some(e) = failed {
            return MpiError::Transport(e);
        }
        if self.progression.is_crashed() {
            return MpiError::ProgressionHalted { rank: self.my_rank };
        }
        MpiError::WaitTimeout {
            rank: self.my_rank,
            context: format!("psend transport completion (dst {})", self.dest),
            completed: self.transport_complete.count(),
            expected,
            timeout_us,
        }
    }

    /// Host-drain takeover: run the registered device-notification drain (if
    /// the device path is in use and its request is alive) from the calling
    /// context; only a drain that runs is counted. Exactly-once is
    /// guaranteed by the shared queue the drain pops from. The drain's
    /// future is taken out under the slot's lock and awaited after the
    /// guard is gone, so no other process can block on the slot while the
    /// drain is parked.
    pub(crate) async fn host_drain_device(&self, p: &Proc) {
        let drain = self.device_drain.lock().as_mut().and_then(|drain| drain(p));
        if let Some(drain) = drain {
            self.world.instruments().recover_host_drains.inc();
            drain.await;
        }
    }

    /// Replay the epoch's undelivered transports under a fresh generation;
    /// see [`PsendRequest::recover_epoch`].
    pub(crate) async fn recover_epoch(self: &Arc<Self>, p: &Proc) -> usize {
        let todo: Vec<usize> = {
            let st = self.state.lock();
            if !st.started || self.route.get().is_none() {
                return 0;
            }
            st.sent
                .iter()
                .enumerate()
                .filter(|&(k, &sent)| sent && !st.delivered[k])
                .map(|(k, _)| k)
                .collect()
        };
        if todo.is_empty() {
            return 0;
        }
        // Supersede the half-completed attempt: completions still in flight
        // carry the old generation and will be discarded on landing. The old
        // put handles are dropped so their (now-moot) failures stop feeding
        // the stall diagnosis.
        self.gen.fetch_add(1, Ordering::AcqRel);
        self.puts.lock().clear();
        *self.shmem_failure.lock() = None;
        self.world.instruments().recover_replays.inc();
        for &k in &todo {
            let t0 = p.now();
            p.advance(SimDuration::from_micros_f64(self.cost.data_put_post_us)).await;
            let h = p.handle();
            let span = h.trace().record_causal(
                "recover_replay",
                t0,
                p.now(),
                Some(self.my_rank as u32),
                Some(k as u32),
                SpanId::NONE,
            );
            self.issue_data_put(&h, k, span, t0);
        }
        todo.len()
    }

    /// Mark a user range ready; returns the transport partitions that just
    /// became complete (and latches them as sent), and the epoch. They are
    /// contiguous: every transport strictly inside the range is newly
    /// complete, and only the two it straddles at its ends may still wait
    /// for users outside it.
    pub(crate) fn mark_ready(
        &self,
        users: Range<usize>,
    ) -> Result<(Range<usize>, u64), MpiError> {
        if users.end > self.user_partitions {
            return Err(MpiError::InvalidArgument {
                context: format!(
                    "pready: partition range {users:?} out of range (channel has {})",
                    self.user_partitions
                ),
            });
        }
        let mut st = self.state.lock();
        if !st.started {
            return Err(MpiError::InvalidArgument {
                context: "MPI_Pready before MPI_Start".into(),
            });
        }
        if self.route.get().is_none() {
            return Err(MpiError::InvalidArgument {
                context: "MPI_Pready before MPIX_Pbuf_prepare (receiver not guaranteed ready)"
                    .into(),
            });
        }
        let t = st.transport_partitions;
        for u in users.clone() {
            if st.user_ready[u] {
                return Err(MpiError::InvalidArgument {
                    context: format!("user partition {u} marked ready twice in one epoch"),
                });
            }
            st.user_ready[u] = true;
        }
        let mut completed = 0..0;
        let k_first = transport_of_user(self.user_partitions, t, users.start);
        let k_last = transport_of_user(self.user_partitions, t, users.end - 1);
        for k in k_first..=k_last {
            let (k_start, k_len) = chunk_range(self.user_partitions, t, k);
            let overlap_start = users.start.max(k_start);
            let overlap_end = users.end.min(k_start + k_len);
            let overlap = overlap_end.saturating_sub(overlap_start) as u64;
            if overlap == 0 {
                continue;
            }
            st.ready[k] += overlap;
            if st.ready[k] == k_len as u64 && !st.sent[k] {
                st.sent[k] = true;
                if completed.is_empty() {
                    completed = k..k;
                }
                debug_assert_eq!(completed.end, k, "completed transports are contiguous");
                completed.end = k + 1;
            }
        }
        Ok((completed, st.epoch))
    }

    /// The user partitions `(first, count)` transport `k` covers under the
    /// current aggregation.
    pub(crate) fn transport_users(&self, k: usize) -> (usize, usize) {
        chunk_range(self.user_partitions, self.state.lock().transport_partitions, k)
    }

    /// The options of a put serving transport `k`: `stripes` stripes,
    /// attributed from this rank to the receiver, caused by `cause`.
    fn put_opts(&self, k: usize, stripes: usize, cause: SpanId) -> PutOpts {
        PutOpts {
            stripes,
            src_rank: Some(self.my_rank as u32),
            dst_rank: Some(self.dest as u32),
            partition: Some(k as u32),
            cause,
        }
    }

    /// Deliver transport partition `k` along the negotiated [`Route`]: every
    /// delivery — host pready, PE-drained device notification, device shmem
    /// emission, or epoch replay — goes through here. `cause` is the span
    /// that initiated it; `pready_at` is when the partition's pready began
    /// processing, which opens the `mpi.pready_arrival_us` interval that
    /// [`PsendShared::land`] closes.
    ///
    /// - [`Route::Rma`]: the data put, chaining [`PsendShared::issue_flag_put`]
    ///   at its completion (paper §IV-A4), caused by the completion span.
    /// - [`Route::Shmem`]: one one-sided symmetric put that raises the
    ///   receiver's flags itself at arrival ([`ShmemPut`]).
    pub(crate) fn issue_data_put(
        self: &Arc<Self>,
        h: &SimHandle,
        k: usize,
        cause: SpanId,
        pready_at: SimTime,
    ) {
        let route = self.route.get().expect("pbuf_prepare not completed");
        // Generation tag: a replay bumps `gen`, so a landing issued under an
        // older generation (or after this transport's delivered latch is
        // set) discards its side effects — replay is idempotent.
        let issue_gen = self.gen.load(Ordering::Acquire);
        let mut st = self.state.lock();
        let users = chunk_range(self.user_partitions, st.transport_partitions, k);
        let delivery = Delivery { k, users, issue_gen, pready_at };
        match route {
            Route::Shmem { data, flags } => {
                let epoch = st.epoch;
                drop(st);
                let put = ShmemPut {
                    delivery,
                    data: data.clone(),
                    flags: flags.clone(),
                    epoch,
                    cause,
                    first_at: h.now(),
                };
                self.attempt_shmem(h, put, 0);
            }
            Route::Rma { data_rkey, .. } => {
                let (u0, ulen) = delivery.users;
                let byte_off = u0 * self.partition_bytes;
                let byte_len = ulen * self.partition_bytes;
                // The data put carries the channel's stripe count; stripe
                // count 1 is the single-path put. The chained flag put is
                // never striped — it is 8 bytes per user partition of
                // control traffic, and it must observe the *assembled*
                // payload, which the striped put's completion (firing at
                // the assembly barrier) guarantees. The put and its record
                // go in under the lock taken anyway.
                let token = st.in_flight.next_key();
                let put = self.endpoint.put_nbx(
                    &self.buffer,
                    byte_off,
                    byte_len,
                    data_rkey,
                    byte_off,
                    self.put_opts(k, st.stripes, cause),
                    self.clone(),
                    token,
                );
                self.track(&put);
                st.in_flight.insert(InFlightPut::Data(delivery, put));
            }
        }
    }

    /// The control put that raises the receive-side flags of transport `k`
    /// and lands it (UCX has no put-with-completion), posted by the
    /// progression engine for a Kernel Copy transport whose payload the
    /// kernel already stored. `issue_gen` is the generation the delivery
    /// was issued under. The sender's transport-complete count waits for
    /// this put, so the epoch cannot close (and the flag staging cannot be
    /// restamped by the next `MPI_Start`) while it is still reading the
    /// staging.
    pub(crate) fn issue_flag_put(
        self: &Arc<Self>,
        k: usize,
        cause: SpanId,
        issue_gen: u64,
        pready_at: SimTime,
    ) {
        let mut st = self.state.lock();
        let users = chunk_range(self.user_partitions, st.transport_partitions, k);
        self.put_flags(&mut st, Delivery { k, users, issue_gen, pready_at }, cause);
    }

    /// Put the staged flags of `delivery`'s user partitions to the
    /// receiver, and keep the put as an [`InFlightPut::Flag`] record under
    /// the state lock `st`. Chained by the RMA data put's completion
    /// (caused by the completion span), or posted by
    /// [`PsendShared::issue_flag_put`].
    fn put_flags(self: &Arc<Self>, st: &mut SendState, delivery: Delivery, cause: SpanId) {
        let Some(Route::Rma { flag_rkey, .. }) = self.route.get() else {
            unreachable!("flag puts travel only on RMA routes")
        };
        let (u0, ulen) = delivery.users;
        let put = self.endpoint.put_nbx(
            &self.flag_stage,
            u0 * 8,
            ulen * 8,
            flag_rkey,
            u0 * 8,
            self.put_opts(delivery.k, 1, cause),
            self.clone(),
            st.in_flight.next_key(),
        );
        self.track(&put);
        st.in_flight.insert(InFlightPut::Flag(delivery, put));
    }

    /// Keep `put`'s handle for the stall diagnosis if the put can fail.
    fn track(&self, put: &Put) {
        if self.world.fabric().faults_armed() {
            self.puts.lock().push(put.handle());
        }
    }

    /// `delivery` arrived: the one place a delivery takes effect, whichever
    /// mechanism carried it, run under the channel's state lock (`st`),
    /// which the landing took to retire its record. Every landing has just
    /// written the receiver's flags and reports that to its notifier. A
    /// landing issued under a superseded generation, or after the
    /// transport's delivered latch is set, otherwise only counts as a stale
    /// put. A current one latches the transport, records the shmem `signal`
    /// span (`arrival` instant and causing wire span) when a symmetric put
    /// carried it, closes the pready→arrival interval, and bumps the
    /// receiver's arrival counter and this epoch's transport-complete
    /// count.
    fn land(
        &self,
        h: &SimHandle,
        st: &mut SendState,
        delivery: Delivery,
        signal: Option<(SimTime, SpanId)>,
    ) {
        let Delivery { k, users: (_, ulen), issue_gen, pready_at } = delivery;
        let notifier = st.notifier.as_ref().expect("pbuf_prepare not completed");
        if self.gen.load(Ordering::Acquire) != issue_gen || st.delivered[k] {
            self.world.instruments().recover_stale_puts.inc();
            notifier.flags_written(h, 0);
            return;
        }
        st.delivered[k] = true;
        if let Some((arrival, wire_span)) = signal {
            let (dest, k) = (Some(self.dest as u32), Some(k as u32));
            h.trace().record_causal("shmem_signal", arrival, h.now(), dest, k, wire_span);
            self.world.shmem_heap().instruments().signals.inc();
        }
        let us = h.now().since(pready_at).as_micros_f64();
        self.world.instruments().pready_arrival_us.record(us.round() as u64);
        notifier.flags_written(h, ulen as u64);
        self.transport_complete.add(h, 1);
    }
}

impl Action for PsendShared {
    /// A step of one of this channel's puts runs, or a symmetric-heap put
    /// makes its next attempt. An RMA put runs its step: once it has
    /// landed, a data put chains its flag put (caused by the data put's
    /// completion span) and a flag put lands the transport; a failed one
    /// only drops its record, so its transport stays undelivered for the
    /// stall diagnosis and the replay to find. A symmetric-heap put lands
    /// the transport.
    fn run(self: Arc<Self>, h: &SimHandle, token: u64, _span: SpanId) {
        let mut st = self.state.lock();
        let landed = match st.in_flight.get_mut(token) {
            Some(InFlightPut::Data(_, put) | InFlightPut::Flag(_, put)) => Some(put.land(h)),
            _ => None,
        };
        let span = match landed {
            Some(PutStatus::InFlight) => return,
            Some(PutStatus::Failed) => {
                st.in_flight.remove(token);
                return;
            }
            Some(PutStatus::Landed(span)) => span,
            None => SpanId::NONE,
        };
        match st.in_flight.remove(token) {
            InFlightPut::Data(delivery, _) => self.put_flags(&mut st, delivery, span),
            InFlightPut::Flag(delivery, _) => self.land(h, &mut st, delivery, None),
            InFlightPut::Shmem { put, arrival, wire_span } => {
                // Bytes land and flags are (re)stamped regardless of
                // staleness — both are idempotent, exactly like a classic
                // put's functional copy. Only the landing's side effects
                // are gated on the generation/delivered latch.
                let (u0, ulen) = put.delivery.users;
                let (byte_off, byte_len) = (u0 * self.partition_bytes, ulen * self.partition_bytes);
                put.data.copy_from_buffer(byte_off, &self.buffer, byte_off, byte_len);
                put.flags.fill_flags(u0..u0 + ulen, put.epoch);
                self.land(h, &mut st, put.delivery, Some((arrival, wire_span)));
            }
            InFlightPut::ShmemRetry { put, attempt } => {
                drop(st);
                self.attempt_shmem(h, put, attempt);
            }
        }
    }
}

impl PsendShared {
    /// One attempt of a symmetric-heap put: route the payload through the
    /// fabric, and at arrival (+ the signal store cost) deposit the bytes,
    /// raise the receiver's partition flags in place, and land the
    /// transport — no host PE hop, no rkey, no chained control put. A
    /// fabric outage retries on the UCX put budget ([`PUT_MAX_ATTEMPTS`]
    /// attempts, backoff from [`PUT_RETRY_BACKOFF_US`] doubling), so chaos
    /// outcomes compare across mechanisms; exhausting it settles a typed
    /// [`ShmemError::WireTimeout`] for the stall diagnosis.
    fn attempt_shmem(self: &Arc<Self>, h: &SimHandle, put: ShmemPut, attempt: u32) {
        let now = h.now();
        let Delivery { k, users: (_, ulen), .. } = put.delivery;
        let byte_len = ulen * self.partition_bytes;
        let heap_obs = self.world.shmem_heap().instruments();
        if attempt == 0 {
            heap_obs.puts.inc();
            heap_obs.bytes.add(byte_len as u64);
        }
        let (rank, k) = (Some(self.my_rank as u32), Some(k as u32));
        let put_span = h.trace().record_causal("shmem_put", now, now, rank, k, put.cause);
        match self.world.fabric().try_transfer(
            now,
            self.buffer.space().location(),
            put.data.space().location(),
            byte_len as u64,
            WireAttr { cause: put_span, dst_rank: Some(self.dest as u32), partition: k },
        ) {
            Ok(transfer) => {
                let arrival = transfer.arrival;
                // The landing waits for the signal store: nothing lands at
                // the arrival itself.
                h.tick_at(arrival);
                let signal = SimDuration::from_micros_f64(self.cost.shmem_signal_us);
                let landing = InFlightPut::Shmem { put, arrival, wire_span: transfer.span };
                let token = self.state.lock().in_flight.insert(landing);
                h.schedule_action_at(arrival + signal, self.clone(), token);
            }
            Err(net_err) => {
                if attempt + 1 >= PUT_MAX_ATTEMPTS {
                    heap_obs.put_failures.inc();
                    let waited = now.since(put.first_at).as_micros_f64();
                    *self.shmem_failure.lock() = Some(ShmemError::WireTimeout {
                        attempts: attempt + 1,
                        waited_us: waited.round() as u64,
                        cause: net_err.to_string(),
                    });
                } else {
                    heap_obs.put_retries.inc();
                    let backoff = SimDuration::from_micros_f64(
                        PUT_RETRY_BACKOFF_US * f64::powi(2.0, attempt as i32),
                    );
                    let retry = InFlightPut::ShmemRetry { put, attempt: attempt + 1 };
                    let token = self.state.lock().in_flight.insert(retry);
                    h.schedule_action_at(now + backoff, self.clone(), token);
                }
            }
        }
    }
}

/// One in-flight symmetric-heap put's values, carried across retries.
pub(crate) struct ShmemPut {
    delivery: Delivery,
    /// The receiver's heap-translated data buffer and partition flags.
    data: Buffer,
    flags: Buffer,
    epoch: u64,
    cause: SpanId,
    first_at: SimTime,
}

/// Reset `v` to `len` copies of `value`, keeping its allocation.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl std::fmt::Debug for PsendRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("PsendRequest")
            .field("src", &self.inner.my_rank)
            .field("dst", &self.inner.dest)
            .field("tag", &self.inner.tag)
            .field("partitions", &self.inner.user_partitions)
            .field("epoch", &st.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::transport_of_user;
    use crate::{precv_init, psend_init};
    use parcomm_gpu::Buffer;
    use parcomm_mpi::{chunk_range, MpiError, MpiWorld, WorldConfig};
    use parcomm_net::{NetFaultConfig, NicOutage};
    use parcomm_sim::Simulation;
    use parcomm_ucx::UcxError;

    /// `MPI_Start` stamps every flag with one fill: byte for byte what a
    /// `write_flag` per user partition wrote, on a flag buffer of a full
    /// page and a short one, over epochs whose flag puts read it.
    #[test]
    fn start_epoch_stamps_what_a_flag_write_per_partition_wrote() {
        // 16,400 flag bytes: one full 16 KiB page and a 16-byte one.
        const PARTS: usize = 2_050;
        let mut sim = Simulation::with_seed(3);
        let world = MpiWorld::gh200(&sim, 1);
        world.run_ranks(&mut sim, |ctx, rank| {
            let buf = rank.gpu().alloc_global(PARTS * 8);
            match rank.rank() {
                0 => {
                    let sreq = psend_init(ctx, rank, 1, 5, &buf, PARTS).expect("psend_init");
                    for epoch in 1..=3 {
                        sreq.start(ctx).expect("start");
                        let stage = &sreq.shared().flag_stage;
                        let looped = Buffer::alloc(stage.space(), stage.len());
                        for u in 0..PARTS {
                            looped.write_flag(u, epoch);
                        }
                        let (got, want) =
                            (stage.read_bytes(0, PARTS * 8), looped.read_bytes(0, PARTS * 8));
                        let first_diff = got.iter().zip(&want).position(|(a, b)| a != b);
                        assert_eq!(first_diff, None, "epoch {epoch}: first byte that differs");
                        sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                        sreq.pready_range(ctx, 0..PARTS).expect("pready");
                        sreq.wait(ctx).expect("send wait");
                    }
                }
                1 => {
                    let rreq = precv_init(ctx, rank, 0, 5, &buf, PARTS).expect("precv_init");
                    for epoch in 1..=3 {
                        rreq.start(ctx).expect("start");
                        rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                        rreq.wait(ctx).expect("recv wait");
                        assert!((0..PARTS).all(|u| rreq.parrived(u)), "epoch {epoch}");
                    }
                }
                _ => {}
            }
        });
        sim.run().expect("simulation");
    }

    /// A data put that exhausts its retries never lands, and the channel
    /// keeps no record of it: every NIC of the sender's node goes dark
    /// after setup, the wait's watchdog reports the put's timeout, and
    /// the channel's in-flight slab is empty.
    #[test]
    fn a_put_that_times_out_leaves_no_record() {
        const PARTS: usize = 4;
        let mut sim = Simulation::with_seed(1);
        let cfg = WorldConfig { wait_watchdog_us: Some(5_000.0), ..WorldConfig::gh200(2) };
        let world = MpiWorld::new(&sim, cfg);
        let peer = (0..world.size()).find(|&r| world.node_of(r) == 1).expect("a rank on node 1");
        let w = world.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let buf = rank.gpu().alloc_global(PARTS * 1024);
            if rank.rank() == 0 {
                let sreq = psend_init(ctx, rank, peer, 5, &buf, PARTS).expect("psend_init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let nic_outages = (0..4)
                    .map(|nic| NicOutage { node: 0, nic, from_us: 0.0, until_us: f64::INFINITY })
                    .collect();
                w.fabric().arm_faults(NetFaultConfig { nic_outages, ..NetFaultConfig::default() });
                sreq.pready_range(ctx, 0..PARTS).expect("pready");
                let err = sreq.wait(ctx).expect_err("every put times out");
                assert!(
                    matches!(err, MpiError::Transport(UcxError::PutTimeout { .. })),
                    "the watchdog reports the put's timeout, not {err:?}"
                );
                assert_eq!(sreq.shared().state.lock().in_flight.len(), 0, "records left behind");
            } else if rank.rank() == peer {
                let rreq = precv_init(ctx, rank, 0, 5, &buf, PARTS).expect("precv_init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect_err("nothing arrives");
            }
        });
        sim.run().expect("simulation");
    }

    #[test]
    fn transport_of_user_inverts_chunk_range() {
        for users in [1usize, 4, 7, 16, 1024] {
            for transports in [1usize, 2, 3, 4] {
                if transports > users {
                    continue;
                }
                for k in 0..transports {
                    let (start, len) = chunk_range(users, transports, k);
                    for u in start..start + len {
                        assert_eq!(
                            transport_of_user(users, transports, u),
                            k,
                            "users={users} transports={transports} u={u}"
                        );
                    }
                }
            }
        }
    }
}
