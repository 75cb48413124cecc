//! GPU-initiated `MPIX_Pready`: the device-side request object and the
//! thread/warp/block bindings for all three copy mechanisms (paper
//! §IV-A3/4, plus the symmetric heap).
//!
//! [`prequest_create`] builds an [`DevicePrequest`] — the paper's
//! `MPIX_Prequest`: a device-resident slice of the full `MPI_Request`
//! holding only what a kernel needs (aggregation threshold, the pinned-host
//! notification flags, and its emission mode). The mode, [`Emit`], is
//! resolved once from the channel's negotiated `Route` and the requested
//! [`CopyMechanism`]:
//!
//! - **Progression Engine** — each completed transport partition raises a
//!   pinned-host flag; the progression engine drains it and posts the
//!   `ucp_put_nbx` data put;
//! - **Kernel Copy** — the kernel stores the payload straight into the peer
//!   GPU's memory (mapped via `ucp_rkey_ptr`, charging NVLink occupancy
//!   inside the kernel window), then raises the pinned flag; the engine
//!   posts only the completion-flag put. A revoked mapping runs the
//!   `pready` as Progression Engine;
//! - **shmem** — the kernel's leader thread issues the one-sided symmetric
//!   put itself, with no flag write and no engine hop.
//!
//! Both `pready` forms ([`DevicePrequest::pready_all_progressive`] and
//! [`DevicePrequest::pready_users`]) account the device time of their
//! aggregation level with the `a + n·b` flag-write model calibrated on
//! Fig. 3, compute one in-kernel offset per completed transport (the
//! contiguous range `PsendShared::mark_ready` returns), and schedule its
//! emission as soon as it is computed. Every delivery then goes through
//! `PsendShared::issue_data_put` (or, for Kernel Copy, the flag put alone)
//! and lands in `PsendShared::land`.
//!
//! The request itself is the [`Action`] of its emissions (token: the
//! transport and what its emission does) and the one [`PeHook`] the
//! progression engine runs to drain its notifications, registered anew
//! for each episode of notifications: neither allocates.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{AggLevel, Buffer, DeviceCtx};
use parcomm_mpi::{CopyMechanism, HookOutcome, HookStep, MpiError, PeHook, Rank};
use parcomm_net::WireAttr;
use parcomm_sim::{Action, Ctx, Proc, SimDuration, SimHandle, SimTime, SpanId};
use parcomm_ucx::IpcMapping;

use crate::overheads::ApiOverheads;
use crate::send::{PsendRequest, PsendShared, Route};

/// Configuration for [`prequest_create`].
#[derive(Copy, Clone, Debug)]
pub struct PrequestConfig {
    /// Copy mechanism for this channel.
    pub copy: CopyMechanism,
    /// Notification aggregation granularity (thread/warp/block).
    pub agg: AggLevel,
    /// Number of transport partitions user partitions aggregate into.
    pub transport_partitions: usize,
    /// Use GPU-global atomic counters to aggregate *across* blocks before
    /// writing to host memory (block-level only).
    pub multi_block_counters: bool,
}

impl Default for PrequestConfig {
    fn default() -> Self {
        PrequestConfig {
            copy: CopyMechanism::ProgressionEngine,
            agg: AggLevel::Block,
            transport_partitions: 1,
            multi_block_counters: true,
        }
    }
}

struct PendingNotifications {
    /// Pending transport partitions, each tagged with whether the
    /// progression engine must issue the *data* put for it (Progression
    /// Engine path, or Kernel Copy falling back after IPC revocation) or
    /// just the completion-flag put (healthy Kernel Copy path), plus the
    /// `pready_flag` span of the pinned-flag write that raised it (for the
    /// causal trace; [`SpanId::NONE`] when causal tracing is off).
    queue: VecDeque<Notification>,
    /// The notification the progression-engine hook is posting: taken off
    /// the queue at `t0`, posted once the post cost has been charged.
    posting: Option<(Notification, SimTime)>,
    processed: usize,
    hook_active: bool,
    epoch: u64,
}

/// A pending transport notification: the transport, whether the engine
/// posts its data put (else only its flag put), and the `pready_flag` span
/// of the pinned-flag write that raised it.
type Notification = (usize, bool, SpanId);

/// What a device emission of a transport does, in the low bits of its
/// token (the transport is the rest): raise a notification whose post is
/// the data put, raise one whose post is the flag put alone, or issue the
/// symmetric-heap put.
const NOTIFY_DATA_PUT: u64 = 0;
const NOTIFY_FLAG_PUT: u64 = 1;
const SHMEM_PUT: u64 = 2;

/// How a device `pready` hands a completed transport partition on,
/// resolved once by [`prequest_create`] from the channel's negotiated route
/// and the requested copy mechanism.
#[derive(Clone)]
enum Emit {
    /// A pinned-host flag write per transport; the progression engine posts
    /// the data put.
    ProgressionEngine,
    /// In-kernel stores into the peer buffer, mapped via `ucp_rkey_ptr`,
    /// then a pinned-host flag write; the progression engine posts only the
    /// flag put. The mapping is revocable: every `pready` checks it and
    /// runs as [`Emit::ProgressionEngine`] once it died mid-epoch.
    KernelCopy(IpcMapping),
    /// The kernel's leader thread issues the one-sided symmetric put
    /// itself: no pinned-flag write, no progression-engine hop.
    Shmem,
}

struct DpInner {
    send: Arc<PsendShared>,
    config: PrequestConfig,
    emit: Emit,
    /// Pinned host memory the device notification writes land in
    /// (one word per transport partition).
    pinned_flags: Buffer,
    pending: Mutex<PendingNotifications>,
}

/// The device-resident partitioned request (`MPIX_Prequest`).
#[derive(Clone)]
pub struct DevicePrequest {
    inner: Arc<DpInner>,
}

/// `MPIX_Prequest_create`: build the device request for `sreq`.
///
/// Blocking: registers the pinned flag region and copies the request
/// structures host→device (Table I: 110.7 ± 37.8 µs). Requires the first
/// `MPIX_Pbuf_prepare` to have completed, since the Kernel Copy path needs
/// the receiver's rkey for the `ucp_rkey_ptr` mapping.
pub fn prequest_create(
    ctx: &mut Ctx,
    rank: &Rank,
    sreq: &PsendRequest,
    config: PrequestConfig,
) -> Result<DevicePrequest, MpiError> {
    let (p, rank, sreq) = (ctx.proc(), rank.clone(), sreq.clone());
    ctx.block_on(async move { prequest_create_async(&p, &rank, &sreq, config).await })
}

/// Async [`prequest_create`], for code run under `Ctx::block_on`.
pub async fn prequest_create_async(
    p: &Proc,
    rank: &Rank,
    sreq: &PsendRequest,
    config: PrequestConfig,
) -> Result<DevicePrequest, MpiError> {
    let send = sreq.shared().clone();
    let Some(route) = send.route.get() else {
        return Err(MpiError::InvalidArgument {
            context: "MPIX_Prequest_create before MPIX_Pbuf_prepare completed".into(),
        });
    };
    sreq.set_transport_partitions(config.transport_partitions)?;

    let emit = match (route, config.copy) {
        // A negotiated shmem channel is one-sided by construction: every
        // device pready issues symmetric-heap puts regardless of
        // `config.copy` — there is no rkey to map and no PE hop to take.
        (Route::Shmem { .. }, _) => Emit::Shmem,
        (Route::Rma { .. }, CopyMechanism::ProgressionEngine) => Emit::ProgressionEngine,
        (Route::Rma { data_rkey, .. }, CopyMechanism::KernelCopy) => {
            Emit::KernelCopy(data_rkey.rkey_ptr(rank.gpu().id().location())?)
        }
        // The channel negotiated the classic rkey protocol, so the shmem
        // mechanism cannot be honored; surface the receiver's typed
        // demotion reason when there is one. Callers fall back by retrying
        // with the Progression Engine.
        (Route::Rma { shmem_denied, .. }, CopyMechanism::Shmem) => {
            return Err(match shmem_denied {
                Some(e) => MpiError::Shmem(e.clone()),
                None => MpiError::InvalidArgument {
                    context: "MPIX_Prequest_create: copy mechanism Shmem but the channel \
                              negotiated the classic rkey protocol (request Shmem on both \
                              endpoints or via WorldConfig::mechanism)"
                        .into(),
                },
            });
        }
    };

    p.advance(ApiOverheads::sample(&p.handle(), send.overheads.prequest_create)).await;

    let pinned_flags = rank.gpu().alloc_pinned_host(config.transport_partitions * 8);
    let dp = DevicePrequest {
        inner: Arc::new(DpInner {
            send,
            config,
            emit,
            pinned_flags,
            pending: Mutex::new(PendingNotifications {
                queue: VecDeque::new(),
                posting: None,
                processed: 0,
                hook_active: false,
                epoch: 0,
            }),
        }),
    };
    // Recovery: let a blocking wait drain this queue from host context when
    // the progression engine's lease expires. The queue pop is the
    // exactly-once point, so a false-positive takeover (stalled-not-dead PE)
    // is harmless. The hook holds the request weakly, since the request
    // holds the channel: while notifications are queued, the kernel
    // emissions and the PE hook hold it strongly, and once the last handle
    // is gone there is no queue left to drain.
    let weak = Arc::downgrade(&dp.inner);
    *dp.inner.send.device_drain.lock() = Some(Box::new(move |p: &Proc| {
        let (drain, p) = (weak.upgrade()?, p.clone());
        Some(Box::pin(async move {
            drain.drain_notifications(&p).await;
        }))
    }));
    Ok(dp)
}

impl DevicePrequest {
    /// `MPIX_Prequest_free`: release device resources. This only charges
    /// the free cost: the simulation's buffers are reference-counted and
    /// the channel's host-drain hook holds the request weakly, so dropping
    /// the last handle frees the request and its pinned flags.
    pub fn free(self, ctx: &mut Ctx) {
        ctx.advance(SimDuration::from_micros_f64(5.0));
    }

    /// This request's configuration.
    pub fn config(&self) -> &PrequestConfig {
        &self.inner.config
    }

    /// The pinned host notification flags (diagnostics/tests).
    pub fn pinned_flags(&self) -> &Buffer {
        &self.inner.pinned_flags
    }

    /// Mark every user partition of the channel ready from inside a kernel:
    /// the common `MPIX_Pready(idx, preq)`-per-thread pattern of Listing 2.
    /// All notifications are emitted at the *call point* in kernel time —
    /// use [`pready_all_progressive`](Self::pready_all_progressive) to
    /// model threads marking partitions as their blocks complete.
    pub fn pready_all(&self, d: &mut DeviceCtx<'_>) {
        self.pready_users(d, 0..self.inner.send.user_partitions);
    }

    /// Listing-2 semantics with wave timing: every thread calls
    /// `MPIX_Pready(idx)` as it finishes its element, so transport
    /// partition `k` becomes ready when its covering blocks complete —
    /// at roughly the `(k+1)/T` point of the compute phase — and its
    /// transfer overlaps the rest of the kernel. This is the paper's
    /// early-bird mechanism for the microbenchmark kernels, and the reason
    /// two transport partitions pay off for large kernels (§VI-A2).
    ///
    /// Must be the kernel's only partitioned call (it assumes the compute
    /// phase spans the kernel body up to this point).
    pub fn pready_all_progressive(&self, d: &mut DeviceCtx<'_>) {
        let send = &self.inner.send;
        let cost = d.cost().clone();
        assert_eq!(
            d.current_end_offset(),
            d.compute_duration(),
            "pready_all_progressive must be the kernel's only timed device call"
        );
        let users = send.user_partitions;
        let (completed, epoch) = send
            .mark_ready(0..users)
            .expect("device MPIX_Pready misuse traps the kernel");
        let compute = d.compute_duration();
        let train_us = d.flag_write_train_us(completed.len() as u32);
        let per_write_us = train_us / completed.len().max(1) as f64;
        let emit = self.emit();
        // Transport `k` is ready once its covering blocks finish, at the
        // `(u0 + ulen) / users` point of the compute phase plus the block
        // sync; the `i`-th emission then queues behind `i` earlier flag
        // writes (or shmem put issues) of this call.
        let mut end = SimDuration::ZERO;
        for (i, k) in completed.enumerate() {
            let (u0, ulen) = send.transport_users(k);
            let frac = (u0 + ulen) as f64 / users as f64;
            let wave_us = compute.as_micros_f64() * frac + cost.syncthreads_us;
            let ready = match &emit {
                Emit::ProgressionEngine => {
                    SimDuration::from_micros_f64(wave_us + (i + 1) as f64 * per_write_us)
                }
                Emit::KernelCopy(peer) => {
                    let copy_start = d.start_time() + SimDuration::from_micros_f64(wave_us);
                    let stored = self.kernel_copy(peer, k..k + 1, copy_start, d.start_time());
                    stored
                        + SimDuration::from_micros_f64(
                            cost.kernel_store_fence_us + (i + 1) as f64 * per_write_us,
                        )
                }
                Emit::Shmem => {
                    let issued = wave_us + (i + 1) as f64 * cost.shmem_put_issue_us;
                    let ready = SimDuration::from_micros_f64(issued);
                    // One closing fence covers the batch of puts.
                    end = end.max(ready + SimDuration::from_micros_f64(cost.kernel_store_fence_us));
                    ready
                }
            };
            end = end.max(ready);
            self.emit_transport(d, &emit, k, ready);
        }
        self.close_pready(d, end, epoch);
    }

    /// This request's [`Emit`] mode for the `pready` being made: Kernel
    /// Copy whose IPC mapping was revoked mid-epoch (chaos injection) runs
    /// as the Progression Engine — the fallback that keeps the channel
    /// functional at Progression-Engine timing.
    fn emit(&self) -> Emit {
        match &self.inner.emit {
            Emit::KernelCopy(peer) if !peer.is_valid() => Emit::ProgressionEngine,
            emit => emit.clone(),
        }
    }

    /// Kernel Copy: store transports `ks`' payload straight into the peer
    /// GPU's mapped memory now (visibility is gated on the flag put, never
    /// earlier than the modelled NVLink time), and reserve link occupancy
    /// from `copy_start` so concurrent copies contend. In-kernel copies are
    /// fire-and-forget load/store traffic: the kernel pays serialization,
    /// not the link round-trip latency — exactly the software path Kernel
    /// Copy removes relative to posting a `ucp_put_nbx`. Returns the offset
    /// from `origin` at which the stores have been pushed onto the link
    /// (arrival minus propagation).
    fn kernel_copy(
        &self,
        peer: &IpcMapping,
        ks: Range<usize>,
        copy_start: SimTime,
        origin: SimTime,
    ) -> SimDuration {
        let send = &self.inner.send;
        let mut bytes = 0usize;
        for k in ks {
            let (u0, ulen) = send.transport_users(k);
            let (off, len) = (u0 * send.partition_bytes, ulen * send.partition_bytes);
            peer.buffer().copy_from_buffer(off, &send.buffer, off, len);
            bytes += len;
        }
        let fabric = send.world.fabric();
        let src_loc = send.buffer.space().location();
        let dst_loc = peer.buffer().space().location();
        let transfer = fabric
            .try_transfer(copy_start, src_loc, dst_loc, bytes as u64, WireAttr::NONE)
            .unwrap_or_else(|e| {
                panic!("fabric transfer {src_loc:?} -> {dst_loc:?} failed with no recovery path: {e}")
            });
        // Fire-and-forget stores: nothing lands at the arrival.
        fabric.sim().tick_at(transfer.arrival);
        let latency = fabric.path_latency(src_loc, dst_loc);
        transfer.arrival.saturating_since(origin).saturating_sub(latency)
    }

    /// Mark a contiguous user partition range ready from inside a kernel.
    pub fn pready_users(&self, d: &mut DeviceCtx<'_>, users: Range<usize>) {
        assert!(!users.is_empty(), "pready_users: empty range");
        let cost = d.cost().clone();
        let (completed, epoch) = self
            .inner
            .send
            .mark_ready(users.clone())
            .expect("device MPIX_Pready misuse traps the kernel");
        let n = users.len() as u32;
        let block_dim = d.spec().block_dim;
        let m = completed.len();
        // The device-direct paths (Kernel Copy, shmem) reach block
        // consensus and bump one GPU-global counter per covered block, then
        // the leader thread moves the data.
        let leader_sync = || {
            SimDuration::from_micros_f64(
                cost.aggregation_sync_us(AggLevel::Block, block_dim.min(n))
                    + n.div_ceil(block_dim).max(1) as f64 * cost.device_atomic_us,
            )
        };
        // The `i`-th emission lands at `base + lead_us + (i + 1) / div ·
        // step_us`: with the `(i+1)/m`-th share of the call's serialized
        // flag-write train (`div = m`, `step_us` the train), or after the
        // `(i+1)`-th serialized shmem put issue (`div = 1`).
        let emit = self.emit();
        let (base, lead_us, div, step_us) = match &emit {
            Emit::ProgressionEngine => {
                let sync_us = cost.aggregation_sync_us(self.inner.config.agg, block_dim.min(n));
                let (writes, atomics_us) = self.notification_writes(n, block_dim, &completed);
                let base = d.current_end_offset();
                let train_us = d.flag_write_train_us(writes);
                d.extend(SimDuration::from_micros_f64(sync_us + atomics_us + train_us));
                (base, sync_us + atomics_us, m as f64, train_us)
            }
            Emit::KernelCopy(peer) => {
                // Block sync + counters, then the NVLink stores, a closing
                // `__threadfence_system`, and the flag-write train.
                let copy_start = d.start_time() + d.extend(leader_sync());
                let stored = self.kernel_copy(peer, completed.clone(), copy_start, copy_start);
                let fence = SimDuration::from_micros_f64(cost.kernel_store_fence_us);
                let after_copy = d.extend(stored + fence);
                let train_us = d.flag_write_train_us(m as u32);
                d.extend(SimDuration::from_micros_f64(train_us));
                (after_copy, 0.0, m as f64, train_us)
            }
            // Block sync + counters, then one serialized put issue per
            // completed transport, closed by a system fence (below).
            Emit::Shmem => (d.extend(leader_sync()), 0.0, 1.0, cost.shmem_put_issue_us),
        };
        let at = |i: usize| {
            base + SimDuration::from_micros_f64(lead_us + (i + 1) as f64 / div * step_us)
        };
        let mut last = base;
        for (i, k) in completed.enumerate() {
            last = last.max(at(i));
            self.emit_transport(d, &emit, k, at(i));
        }
        let end = match emit {
            Emit::Shmem => last + SimDuration::from_micros_f64(cost.kernel_store_fence_us),
            _ => d.current_end_offset(),
        };
        self.close_pready(d, end, epoch);
    }

    /// Number of pinned-host notification writes this call performs, plus
    /// the GPU-global atomic cost for multi-block aggregation.
    fn notification_writes(&self, n: u32, block_dim: u32, completed: &Range<usize>) -> (u32, f64) {
        let cost = &self.inner.send.cost;
        match self.inner.config.agg {
            AggLevel::Thread => (n, 0.0),
            AggLevel::Warp => (n.div_ceil(32), 0.0),
            AggLevel::Block => {
                let blocks = n.div_ceil(block_dim).max(1);
                if self.inner.config.multi_block_counters {
                    // Each block increments a global counter; only the
                    // block that crosses the threshold writes to the host.
                    (completed.len() as u32, blocks as f64 * cost.device_atomic_us)
                } else {
                    (blocks, 0.0)
                }
            }
        }
    }

    /// Emit completed transport `k` at kernel offset `at` along `emit`.
    fn emit_transport(&self, d: &mut DeviceCtx<'_>, emit: &Emit, k: usize, at: SimDuration) {
        let token = |what: u64| (k as u64) << 2 | what;
        match emit {
            Emit::Shmem => d.at_offset_shmem(at, self.inner.clone(), token(SHMEM_PUT)),
            Emit::ProgressionEngine => d.at_offset(at, self.inner.clone(), token(NOTIFY_DATA_PUT)),
            Emit::KernelCopy(_) => d.at_offset(at, self.inner.clone(), token(NOTIFY_FLAG_PUT)),
        }
    }

    /// The shared tail of both `pready` forms: stretch the kernel window to
    /// cover `end`, and reset the per-epoch notification bookkeeping on
    /// `epoch`'s first `pready`.
    fn close_pready(&self, d: &mut DeviceCtx<'_>, end: SimDuration, epoch: u64) {
        let cur = d.current_end_offset();
        if end > cur {
            d.extend(end - cur);
        }
        let mut p = self.inner.pending.lock();
        if p.epoch != epoch {
            p.epoch = epoch;
            p.processed = 0;
            p.queue.clear();
        }
    }

}

impl Action for DpInner {
    /// A device emission of this request is due: issue its symmetric-heap
    /// put, or raise its pinned-host notification.
    fn run(self: Arc<Self>, h: &SimHandle, token: u64, kernel_span: SpanId) {
        let k = (token >> 2) as usize;
        match token & 3 {
            SHMEM_PUT => self.send.issue_data_put(h, k, kernel_span, h.now()),
            what => self.on_device_notification(h, k, what == NOTIFY_DATA_PUT, kernel_span),
        }
    }
}

impl PeHook for DpInner {
    /// Post the notification whose post cost was just charged, then take
    /// the next one off the queue and ask for its post cost; with the
    /// queue empty, unregister once every transport of the epoch is
    /// processed.
    fn step(&self, p: &Proc) -> HookStep {
        // Posting takes no lock of this request, so the step holds it
        // throughout.
        let mut pending = self.pending.lock();
        if let Some((notification, t0)) = pending.posting.take() {
            self.post(&p.handle(), notification, t0);
            pending.processed += 1;
        }
        match pending.queue.pop_front() {
            Some(notification) => {
                pending.posting = Some((notification, p.now()));
                HookStep::Advance(self.post_cost(notification))
            }
            None if pending.processed >= self.config.transport_partitions => {
                pending.hook_active = false;
                HookStep::Done(HookOutcome::Remove)
            }
            None => HookStep::Done(HookOutcome::Keep),
        }
    }
}

impl DpInner {
    /// A pinned-host notification flag just landed: record it and make sure
    /// the progression engine is draining the queue. `data_put` says whether
    /// the engine must move the payload itself (Progression Engine path or
    /// revoked-mapping fallback) or only raise the remote flag.
    fn on_device_notification(
        self: &Arc<Self>,
        h: &SimHandle,
        k: usize,
        data_put: bool,
        kernel_span: SpanId,
    ) {
        // The instant the device's pinned-host flag write lands, causally
        // chained to the kernel that emitted it.
        let now = h.now();
        let flag_span = h.trace().record_causal(
            "pready_flag",
            now,
            now,
            Some(self.send.my_rank as u32),
            Some(k as u32),
            kernel_span,
        );
        let (epoch, register) = {
            let mut p = self.pending.lock();
            p.queue.push_back((k, data_put, flag_span));
            (p.epoch, !std::mem::replace(&mut p.hook_active, true))
        };
        self.pinned_flags.write_flag(k, epoch);
        if register {
            self.send.progression.register(h, self.clone());
        }
    }

    /// Host time the progression engine charges to post `notification`:
    /// the data put's post cost, or the control (flag) put's.
    fn post_cost(&self, (_, data_put, _): Notification) -> SimDuration {
        let cost = &self.send.cost;
        SimDuration::from_micros_f64(if data_put {
            cost.data_put_post_us
        } else {
            cost.control_put_post_us
        })
    }

    /// Post `notification`, taken off the queue at `t0` and charged its
    /// post cost since: the data put (Progression Engine path) or the
    /// completion-flag put (Kernel Copy path).
    fn post(&self, h: &SimHandle, (k, data_put, flag_span): Notification, t0: SimTime) {
        let send = &self.send;
        let rank = Some(send.my_rank as u32);
        let pe_span =
            h.trace().record_causal("pe_post", t0, h.now(), rank, Some(k as u32), flag_span);
        if data_put {
            send.issue_data_put(h, k, pe_span, t0);
        } else {
            let gen = send.gen.load(Ordering::Acquire);
            send.issue_flag_put(k, pe_span, gen, t0);
        }
    }

    /// The recovery ladder's host drain: post every pending notification
    /// from the waiter's context, exactly as the progression-engine hook
    /// would. The queue pop is the exactly-once point it shares with the
    /// hook.
    async fn drain_notifications(&self, p: &Proc) {
        loop {
            let entry = { self.pending.lock().queue.pop_front() };
            let Some(notification) = entry else { break };
            let t0 = p.now();
            p.advance(self.post_cost(notification)).await;
            self.post(&p.handle(), notification, t0);
            self.pending.lock().processed += 1;
        }
        let mut p = self.pending.lock();
        if p.processed >= self.config.transport_partitions {
            p.hook_active = false;
        }
    }
}

impl std::fmt::Debug for DevicePrequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevicePrequest")
            .field("copy", &self.inner.config.copy)
            .field("agg", &self.inner.config.agg)
            .field("transports", &self.inner.config.transport_partitions)
            .finish()
    }
}
