//! The receive side of MPI Partitioned point-to-point.
//!
//! The receiver's job (paper §IV-A2): on the first `MPIX_Pbuf_prepare`,
//! consume the sender's `setup_t`, register the receive buffer and the
//! partition status flags (`ucp_mem_map` + `ucp_rkey_pack`), and reply with
//! the rkeys. On later epochs it just signals ready-to-receive. Partition
//! arrival is observed through the flag words the sender's chained puts
//! raise; `MPI_Parrived` reads them and `MPI_Wait` blocks until all user
//! partitions of the epoch have landed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{Buffer, CostModel, MemSpace};
use parcomm_mpi::{CopyMechanism, MpiError, MpiWorld, Rank};
use parcomm_net::RouteClass;
use parcomm_shmem::ShmemError;
use parcomm_sim::{CountEvent, Ctx, Proc, SimDuration};
use parcomm_ucx::{AmMessage, Endpoint, Worker};

use crate::channel::{
    am_tag, Channel, Notifier, ReadyToReceive, ReceiverSetup, SenderSetup, ShmemReceiverSetup,
};
use crate::overheads::ApiOverheads;
use crate::watchdog;

pub(crate) struct RecvState {
    pub started: bool,
    /// Reply endpoint; set by the first `MPIX_Pbuf_prepare`, which
    /// negotiates the channel.
    pub ep_to_sender: Option<Endpoint>,
    /// Device-memory mirror of the arrival flags for the `MPIX_Parrived`
    /// device binding, refreshed during `MPI_Wait` (paper §IV-A4).
    pub device_mirror: Option<Buffer>,
    /// Per-request copy-mechanism override (else the world default).
    pub requested: Option<CopyMechanism>,
    /// The shmem verdict of the negotiation: `None` unless shmem was
    /// requested; then `Ok` when the receive buffer and flags are bound
    /// into the heap (the sender puts into them directly), or the typed
    /// demotion reason that went back to the sender in the classic setup
    /// reply.
    pub shmem: Option<Result<(), ShmemError>>,
}

pub(crate) struct PrecvShared {
    pub world: MpiWorld,
    pub worker: Worker,
    pub cost: CostModel,
    pub overheads: ApiOverheads,
    pub my_rank: usize,
    pub src: usize,
    pub tag: u64,
    pub buffer: Buffer,
    pub user_partitions: usize,
    pub partition_bytes: usize,
    /// Host flag words, one per user partition; a flag equals the current
    /// epoch number once its partition has arrived.
    pub flags: Buffer,
    /// Arrival counter for the current epoch (bumped by the sender's
    /// chained flag put at its arrival instant).
    pub arrived: CountEvent,
    /// Writes to `flags` since the channel was created, counted or stale
    /// (see [`Notifier::flag_writes`]).
    pub flag_writes: Arc<AtomicU64>,
    /// The current epoch number, bumped by `MPI_Start` under `state`'s
    /// lock; read without it, so `MPI_Parrived` is a lock-free flag read.
    pub epoch: AtomicU64,
    pub state: Mutex<RecvState>,
}

/// A persistent partitioned receive channel (`MPI_Precv_init` result).
#[derive(Clone)]
pub struct PrecvRequest {
    pub(crate) inner: Arc<PrecvShared>,
}

/// Initialize a partitioned receive channel: `MPI_Precv_init`.
pub fn precv_init(
    ctx: &mut Ctx,
    rank: &Rank,
    src: usize,
    tag: u64,
    buffer: &Buffer,
    partitions: usize,
) -> Result<PrecvRequest, MpiError> {
    let (p, rank, buffer) = (ctx.proc(), rank.clone(), buffer.clone());
    ctx.block_on(async move { precv_init_async(&p, &rank, src, tag, &buffer, partitions).await })
}

/// Async [`precv_init`], for code run under `Ctx::block_on`.
pub async fn precv_init_async(
    p: &Proc,
    rank: &Rank,
    src: usize,
    tag: u64,
    buffer: &Buffer,
    partitions: usize,
) -> Result<PrecvRequest, MpiError> {
    if partitions == 0 {
        return Err(MpiError::InvalidArgument {
            context: "precv_init: need at least one partition".into(),
        });
    }
    if !buffer.len().is_multiple_of(partitions) {
        return Err(MpiError::InvalidArgument {
            context: format!(
                "precv_init: buffer length {} not divisible into {} partitions",
                buffer.len(),
                partitions
            ),
        });
    }
    if src == rank.rank() || src >= rank.size() {
        return Err(MpiError::InvalidArgument {
            context: format!("precv_init: invalid source rank {src}"),
        });
    }
    let overheads = ApiOverheads::default();
    p.advance(ApiOverheads::sample(&p.handle(), overheads.p2p_init)).await;
    let flags = Buffer::alloc(MemSpace::Host { node: rank.gpu().id().node }, partitions * 8);
    Ok(PrecvRequest {
        inner: Arc::new(PrecvShared {
            world: rank.world().clone(),
            worker: rank.worker().clone(),
            cost: rank.gpu().cost().clone(),
            overheads,
            my_rank: rank.rank(),
            src,
            tag,
            buffer: buffer.clone(),
            user_partitions: partitions,
            partition_bytes: buffer.len() / partitions,
            flags,
            arrived: CountEvent::named("precv arrivals"),
            flag_writes: Arc::default(),
            epoch: AtomicU64::new(0),
            state: Mutex::new(RecvState {
                started: false,
                ep_to_sender: None,
                device_mirror: None,
                requested: None,
                shmem: None,
            }),
        }),
    })
}

impl PrecvRequest {
    /// Number of user partitions.
    pub fn user_partitions(&self) -> usize {
        self.inner.user_partitions
    }

    /// Bytes per user partition.
    pub fn partition_bytes(&self) -> usize {
        self.inner.partition_bytes
    }

    /// The receive buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.inner.buffer
    }

    /// Per-request copy-mechanism override (else the world default,
    /// [`parcomm_mpi::WorldConfig::mechanism`]). The receiver is the
    /// deciding side: at its first `MPIX_Pbuf_prepare` it either binds its
    /// buffers into the symmetric heap and replies with offsets (shmem
    /// accepted) or packs rkeys as usual (demoted, with the typed reason
    /// carried back to the sender). Rejected once the channel has
    /// negotiated.
    pub fn set_mechanism(&self, m: CopyMechanism) -> Result<(), MpiError> {
        let mut st = self.inner.state.lock();
        if st.ep_to_sender.is_some() {
            return Err(MpiError::InvalidArgument {
                context: "set_mechanism after the channel negotiated at MPIX_Pbuf_prepare".into(),
            });
        }
        st.requested = Some(m);
        Ok(())
    }

    /// True when the channel negotiated the symmetric-heap mechanism.
    pub fn shmem_active(&self) -> bool {
        matches!(self.inner.state.lock().shmem, Some(Ok(())))
    }

    /// The typed reason a requested shmem channel was demoted to the
    /// Progression Engine, if it was.
    pub fn shmem_denial(&self) -> Option<ShmemError> {
        self.inner.state.lock().shmem.clone()?.err()
    }

    /// `MPI_Start`: open a new receive epoch.
    pub fn start(&self, _ctx: &mut Ctx) -> Result<(), MpiError> {
        self.start_epoch()
    }

    /// [`PrecvRequest::start`] without a `Ctx`: `MPI_Start` never parks,
    /// so async code calls this directly.
    pub fn start_epoch(&self) -> Result<(), MpiError> {
        let mut st = self.inner.state.lock();
        if st.started {
            return Err(MpiError::InvalidArgument {
                context: "MPI_Start while the previous epoch is still active".into(),
            });
        }
        let epoch = self.inner.epoch.load(Ordering::Acquire) + 1;
        self.inner.epoch.store(epoch, Ordering::Release);
        st.started = true;
        self.inner.arrived.reset();
        // Flags are epoch-stamped, so no zeroing is needed: a flag is "set"
        // for this epoch iff it equals the new epoch number.
        Ok(())
    }

    /// `MPIX_Pbuf_prepare` (receiver side): first call performs the
    /// deferred registration and rkey reply; later calls send the
    /// ready-to-receive signal.
    pub fn pbuf_prepare(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        let (this, p) = (self.clone(), ctx.proc());
        ctx.block_on(async move { this.pbuf_prepare_async(&p).await })
    }

    /// Async [`PrecvRequest::pbuf_prepare`], for code run under
    /// `Ctx::block_on`.
    pub async fn pbuf_prepare_async(&self, p: &Proc) -> Result<(), MpiError> {
        self.pbuf_prepare_charged(p, true).await
    }

    /// [`PrecvRequest::pbuf_prepare_async`] with the overhead charge gated:
    /// a batched tick ([`crate::pbuf_prepare_batch_async`]) charges the deferred
    /// MCA-init portion of the first-call cost once for the whole batch and
    /// bills every further channel only its own registration increment.
    pub(crate) async fn pbuf_prepare_charged(&self, p: &Proc, charge: bool) -> Result<(), MpiError> {
        let (first, epoch) = {
            let st = self.inner.state.lock();
            if !st.started {
                return Err(MpiError::InvalidArgument {
                    context: "MPIX_Pbuf_prepare before MPI_Start".into(),
                });
            }
            (st.ep_to_sender.is_none(), self.inner.epoch.load(Ordering::Acquire))
        };
        let inner = &self.inner;
        if first {
            // Deferred MCA init + ucp_mem_map of data and flag regions +
            // rkey packing: the bulk of the paper's 193.4 µs first-call cost.
            let o = if charge {
                inner.overheads.pbuf_prepare_first_recv
            } else {
                inner.overheads.pbuf_prepare_batch_extra
            };
            p.advance(ApiOverheads::sample(&p.handle(), o)).await;
            let setup_tag = am_tag(Channel::Setup, inner.tag, inner.src, inner.my_rank);
            let msg = inner.recv_handshake(p, setup_tag, "sender setup").await?;
            let ss = msg.payload.downcast::<SenderSetup>().expect("setup payload type mismatch");
            if ss.user_partitions != inner.user_partitions {
                return Err(MpiError::InvalidArgument {
                    context: format!(
                        "partitioned channel: sender/receiver partition counts differ \
                         (sender {}, receiver {})",
                        ss.user_partitions, inner.user_partitions
                    ),
                });
            }
            if ss.partition_bytes * ss.user_partitions != inner.buffer.len() {
                return Err(MpiError::InvalidArgument {
                    context: format!(
                        "partitioned channel: buffer sizes differ (sender {}, receiver {})",
                        ss.partition_bytes * ss.user_partitions,
                        inner.buffer.len()
                    ),
                });
            }
            // The receiver decides the channel's copy mechanism: its own
            // override (or the world default), gated on route and heap
            // eligibility. Accepting shmem binds the receive buffers into
            // the symmetric heap and replies with offsets — no rkey is
            // packed at all on this channel. Any denial demotes to the
            // classic rkey reply, carrying the typed reason to the sender.
            let requested = {
                let st = inner.state.lock();
                st.requested.unwrap_or(inner.world.config().mechanism)
            };
            let verdict = (requested == CopyMechanism::Shmem).then(|| inner.try_shmem_bind());
            let ep = inner.worker.create_endpoint(ss.sender_addr)?;
            let reply_tag = am_tag(Channel::SetupReply, inner.tag, inner.src, inner.my_rank);
            let notifier = Notifier {
                arrived: inner.arrived.clone(),
                flag_writes: inner.flag_writes.clone(),
            };
            let user_partitions = inner.user_partitions;
            if let Some(Ok((data_off, flag_off))) = verdict {
                let reply = ShmemReceiverSetup { data_off, flag_off, notifier, user_partitions };
                ep.am_send(reply_tag, reply, ShmemReceiverSetup::WIRE_BYTES);
            } else {
                let shmem_denied = verdict.clone().and_then(Result::err);
                if shmem_denied.is_some() {
                    inner.world.shmem_heap().instruments().fallbacks.inc();
                }
                let data_rkey = inner.worker.mem_map(&inner.buffer).pack_rkey();
                let flag_rkey = inner.worker.mem_map(&inner.flags).pack_rkey();
                let reply =
                    ReceiverSetup { data_rkey, flag_rkey, notifier, user_partitions, shmem_denied };
                ep.am_send(reply_tag, reply, ReceiverSetup::WIRE_BYTES);
            }
            let mut st = inner.state.lock();
            st.ep_to_sender = Some(ep);
            st.shmem = verdict.map(|v| v.map(|_| ()));
        } else {
            p.advance(ApiOverheads::sample(&p.handle(), inner.overheads.pbuf_prepare_steady)).await;
            let ep = inner.state.lock().ep_to_sender.clone().expect("prepared state lost");
            ep.am_send(
                am_tag(Channel::ReadyToReceive, inner.tag, inner.src, inner.my_rank),
                ReadyToReceive { epoch },
                ReadyToReceive::WIRE_BYTES,
            );
        }
        Ok(())
    }

    /// `MPI_Parrived` (host binding): has user partition `u` arrived this
    /// epoch? A pure flag read.
    pub fn parrived(&self, u: usize) -> bool {
        assert!(u < self.inner.user_partitions, "parrived: partition out of range");
        let epoch = self.inner.epoch.load(Ordering::Acquire);
        self.inner.flags.read_flag(u) == epoch
    }

    /// Number of user partitions arrived so far this epoch.
    pub fn arrived_count(&self) -> u64 {
        self.inner.arrived.count()
    }

    /// The arrival counter event (used by collective progression).
    pub fn arrived_event(&self) -> &CountEvent {
        &self.inner.arrived
    }

    /// Writes to this channel's partition flags so far, over all epochs:
    /// counted arrivals and stale replayed landings alike. While it is
    /// unchanged, no [`PrecvRequest::parrived`] answer has changed either
    /// (within one epoch).
    pub fn flag_writes(&self) -> u64 {
        self.inner.flag_writes.load(Ordering::Acquire)
    }

    /// Block until at least `n` user partitions of the current epoch have
    /// arrived (a blocking `MPI_Parrived` companion for receiver-side
    /// pipelining: consume early partitions while later ones are still in
    /// flight). Honors the wait watchdog like [`PrecvRequest::wait`].
    pub fn wait_arrivals(&self, ctx: &mut Ctx, n: u64) -> Result<(), MpiError> {
        let target = n.min(self.inner.user_partitions as u64);
        let (inner, p) = (self.inner.clone(), ctx.proc());
        ctx.block_on(async move {
            inner.wait_arrived(&p, target, "partial partition arrival").await
        })
    }

    /// `MPI_Wait` (receiver side): block until every user partition of the
    /// epoch has arrived, then close the epoch. Also refreshes the
    /// device-memory mirror of the arrival flags if one was created
    /// (paper: "we issue a memory copy to the device in `MPI_Wait` as
    /// partitions arrive").
    ///
    /// With [`parcomm_mpi::WorldConfig::wait_watchdog_us`] armed, a stalled
    /// epoch — lost device flag write, crashed sender-side progression
    /// engine, dropped control message — returns
    /// [`MpiError::WaitTimeout`] instead of hanging the simulation.
    pub fn wait(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        let (this, p) = (self.clone(), ctx.proc());
        ctx.block_on(async move { this.wait_async(&p).await })
    }

    /// Async [`PrecvRequest::wait`], for code run under `Ctx::block_on`.
    pub async fn wait_async(&self, p: &Proc) -> Result<(), MpiError> {
        {
            let st = self.inner.state.lock();
            if !st.started {
                return Err(MpiError::InvalidArgument {
                    context: "MPI_Wait without MPI_Start".into(),
                });
            }
        }
        self.inner.wait_arrived(p, self.inner.user_partitions as u64, "partition arrival").await?;
        let mirror = {
            let mut st = self.inner.state.lock();
            let mirror = st.device_mirror.clone();
            // Without a device mirror the epoch closes here.
            st.started &= mirror.is_some();
            mirror
        };
        if let Some(m) = mirror {
            // Host→device copy of the flag words over C2C.
            m.copy_from_buffer(0, &self.inner.flags, 0, self.inner.user_partitions * 8);
            p.advance(SimDuration::from_micros_f64(
                self.inner.user_partitions as f64 * 8.0 / (self.inner.cost.hbm_bw_gbps * 1e3)
                    + 0.6,
            ))
            .await;
            self.inner.state.lock().started = false;
        }
        Ok(())
    }

    /// `MPI_Test` (receiver side).
    pub fn test(&self) -> bool {
        self.inner.arrived.count() >= self.inner.user_partitions as u64
    }

    /// Create (lazily) the GPU-global-memory mirror of the arrival flags
    /// used by the `MPIX_Parrived` device binding. Reading a flag in device
    /// memory is far cheaper for a kernel than reaching into host memory
    /// (paper §IV-A4).
    pub fn device_arrival_flags(&self, rank: &Rank) -> Buffer {
        let mut st = self.inner.state.lock();
        if st.device_mirror.is_none() {
            st.device_mirror = Some(rank.gpu().alloc_global(self.inner.user_partitions * 8));
        }
        st.device_mirror.clone().expect("just created")
    }

    /// `MPIX_Parrived` device binding: check the device-memory mirror for
    /// user partition `u`, charging the device flag-read cost to the kernel.
    /// The mirror is only refreshed in `MPI_Wait`, mirroring the paper's
    /// design (and its staleness caveat).
    pub fn parrived_device(&self, d: &mut parcomm_gpu::DeviceCtx<'_>, u: usize) -> bool {
        let read_cost = SimDuration::from_micros_f64(self.inner.cost.device_flag_read_us);
        d.extend(read_cost);
        let st = self.inner.state.lock();
        match &st.device_mirror {
            Some(m) => m.read_flag(u) == self.inner.epoch.load(Ordering::Acquire),
            None => false,
        }
    }
}

impl PrecvShared {
    /// Eligibility gate + heap binding for the shmem mechanism, receiver
    /// side. Symmetric access requires an IPC-eligible route between the
    /// two ranks' GPUs (anything intra-node; IB cross-node routes cannot be
    /// load/store-addressed) and a live heap registration on both ends;
    /// then the receive buffer and the flag words are bound into this
    /// rank's segment. Any failure is the typed demotion reason.
    fn try_shmem_bind(&self) -> Result<(u64, u64), ShmemError> {
        let heap = self.world.shmem_heap();
        let src_gpu = self.world.gpu_of(self.src).location();
        let dst_gpu = self.world.gpu_of(self.my_rank).location();
        let class = RouteClass::classify(src_gpu, dst_gpu);
        if !class.ipc_eligible() {
            return Err(ShmemError::RouteForbidden { src: src_gpu, dst: dst_gpu, class });
        }
        if !heap.is_registered(self.src) {
            return Err(ShmemError::RegistrationFailed { rank: self.src });
        }
        let data_off = heap.bind(self.my_rank, &self.buffer)?;
        let flag_off = heap.bind(self.my_rank, &self.flags)?;
        Ok((data_off, flag_off))
    }

    /// Handshake receive honoring the wait watchdog: without one armed this
    /// is exactly the seed's unbounded `am_recv`; with one armed, a dead
    /// peer surfaces a typed timeout instead of parking this rank forever.
    async fn recv_handshake(&self, p: &Proc, tag: u64, what: &str) -> Result<AmMessage, MpiError> {
        match self.world.config().wait_watchdog_us {
            None => Ok(self.worker.am_recv_async(p, tag).await),
            Some(t) => {
                watchdog::bounded(
                    &self.world,
                    t,
                    |dt| self.worker.am_recv_timeout_async(p, tag, dt),
                    || MpiError::WaitTimeout {
                        rank: self.my_rank,
                        context: format!("precv {what} (src {})", self.src),
                        completed: 0,
                        expected: 1,
                        timeout_us: t,
                    },
                )
                .await
            }
        }
    }

    /// Wait for `target` arrivals, honoring the world's wait watchdog.
    async fn wait_arrived(&self, p: &Proc, target: u64, what: &str) -> Result<(), MpiError> {
        match self.world.config().wait_watchdog_us {
            None => {
                p.wait_count(&self.arrived, target).await;
                Ok(())
            }
            Some(timeout_us) => {
                let arrived = &self.arrived;
                watchdog::bounded(
                    &self.world,
                    timeout_us,
                    |dt| async move { p.wait_count_timeout(arrived, target, dt).await.then_some(()) },
                    || MpiError::WaitTimeout {
                        rank: self.my_rank,
                        context: format!("precv {what} (src {})", self.src),
                        completed: arrived.count(),
                        expected: target,
                        timeout_us,
                    },
                )
                .await
            }
        }
    }
}

impl PrecvRequest {
    /// `MPI_Request_free` for the persistent receive channel (no active
    /// epoch allowed). Consumes the handle.
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

impl std::fmt::Debug for PrecvRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecvRequest")
            .field("src", &self.inner.src)
            .field("dst", &self.inner.my_rank)
            .field("tag", &self.inner.tag)
            .field("partitions", &self.inner.user_partitions)
            .field("epoch", &self.inner.epoch.load(Ordering::Acquire))
            .finish()
    }
}
