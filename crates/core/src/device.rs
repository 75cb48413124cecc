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
//! Fig. 3, compute one in-kernel offset per completed transport, and hand
//! them to one shared tail that schedules the emissions. Every delivery
//! then goes through `PsendShared::issue_data_put` (or, for Kernel Copy,
//! the flag put alone) and lands in `PsendShared::land`.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{AggLevel, Buffer, DeviceCtx};
use parcomm_mpi::{CopyMechanism, HookOutcome, MpiError, Rank};
use parcomm_sim::{Ctx, Proc, SimDuration, SimTime, SpanId};
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
    queue: VecDeque<(usize, bool, SpanId)>,
    processed: usize,
    hook_active: bool,
    epoch: u64,
}

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
    let Some(route) = send.state.lock().route.clone() else {
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
                Some(e) => MpiError::Shmem(e),
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
                processed: 0,
                hook_active: false,
                epoch: 0,
            }),
        }),
    };
    // Recovery: let a blocking wait drain this queue from host context when
    // the progression engine's lease expires. The queue pop is the
    // exactly-once point, so a false-positive takeover (stalled-not-dead PE)
    // is harmless.
    let drain = dp.clone();
    *dp.inner.send.device_drain.lock() = Some(Box::new(move |p: &Proc| {
        let (drain, p) = (drain.clone(), p.clone());
        Box::pin(async move {
            drain.drain_notifications(&p).await;
        })
    }));
    Ok(dp)
}

impl DevicePrequest {
    /// `MPIX_Prequest_free`: release device resources. (The simulation's
    /// buffers are reference-counted; this charges the free cost and drops
    /// the pinned mapping.)
    pub fn free(self, ctx: &mut Ctx) {
        ctx.advance(SimDuration::from_micros_f64(5.0));
        // Break the drain-hook reference cycle through the send channel.
        *self.inner.send.device_drain.lock() = None;
        drop(self);
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
        let completed = send
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
        let mut at = Vec::with_capacity(completed.len());
        let mut end = SimDuration::ZERO;
        for (i, &k) in completed.iter().enumerate() {
            let (u0, ulen) = send.transport_users(k);
            let frac = (u0 + ulen) as f64 / users as f64;
            let wave_us = compute.as_micros_f64() * frac + cost.syncthreads_us;
            let ready = match &emit {
                Emit::ProgressionEngine => {
                    SimDuration::from_micros_f64(wave_us + (i + 1) as f64 * per_write_us)
                }
                Emit::KernelCopy(peer) => {
                    let copy_start = d.start_time() + SimDuration::from_micros_f64(wave_us);
                    let stored = self.kernel_copy(peer, &[k], copy_start, d.start_time());
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
            at.push(ready);
        }
        self.emit_completed(d, &emit, &completed, at, end);
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
        ks: &[usize],
        copy_start: SimTime,
        origin: SimTime,
    ) -> SimDuration {
        let send = &self.inner.send;
        let mut bytes = 0usize;
        for &k in ks {
            let (u0, ulen) = send.transport_users(k);
            let (off, len) = (u0 * send.partition_bytes, ulen * send.partition_bytes);
            peer.buffer().copy_from_buffer(off, &send.buffer, off, len);
            bytes += len;
        }
        let fabric = send.world.fabric();
        let src_loc = send.buffer.space().location();
        let dst_loc = peer.buffer().space().location();
        let transfer = fabric.transfer_at(copy_start, src_loc, dst_loc, bytes as u64);
        let latency = fabric.path_latency(src_loc, dst_loc);
        transfer.arrival.saturating_since(origin).saturating_sub(latency)
    }

    /// Mark a contiguous user partition range ready from inside a kernel.
    pub fn pready_users(&self, d: &mut DeviceCtx<'_>, users: Range<usize>) {
        assert!(!users.is_empty(), "pready_users: empty range");
        let cost = d.cost().clone();
        let completed = self
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
        // The `i`-th notification lands with the `(i+1)/m`-th share of the
        // call's serialized flag-write train.
        let train = |base: SimDuration, lead_us: f64, train_us: f64| -> Vec<SimDuration> {
            let share = |i: usize| (i + 1) as f64 / m as f64;
            (0..m)
                .map(|i| base + SimDuration::from_micros_f64(lead_us + share(i) * train_us))
                .collect()
        };
        let emit = self.emit();
        let (at, end) = match &emit {
            Emit::ProgressionEngine => {
                let sync_us = cost.aggregation_sync_us(self.inner.config.agg, block_dim.min(n));
                let (writes, atomics_us) = self.notification_writes(n, block_dim, &completed);
                let base = d.current_end_offset();
                let train_us = d.flag_write_train_us(writes);
                let end = d.extend(SimDuration::from_micros_f64(sync_us + atomics_us + train_us));
                (train(base, sync_us + atomics_us, train_us), end)
            }
            Emit::KernelCopy(peer) => {
                // Block sync + counters, then the NVLink stores, a closing
                // `__threadfence_system`, and the flag-write train.
                let copy_start = d.start_time() + d.extend(leader_sync());
                let stored = self.kernel_copy(peer, &completed, copy_start, copy_start);
                let fence = SimDuration::from_micros_f64(cost.kernel_store_fence_us);
                let after_copy = d.extend(stored + fence);
                let train_us = d.flag_write_train_us(m as u32);
                let end = d.extend(SimDuration::from_micros_f64(train_us));
                (train(after_copy, 0.0, train_us), end)
            }
            Emit::Shmem => {
                // Block sync + counters, then one serialized put issue per
                // completed transport, closed by a system fence.
                let base = d.extend(leader_sync());
                let issue = |i: usize| i as f64 * cost.shmem_put_issue_us;
                let at: Vec<_> =
                    (1..=m).map(|i| base + SimDuration::from_micros_f64(issue(i))).collect();
                let last = at.iter().fold(base, |a, &b| a.max(b));
                (at, last + SimDuration::from_micros_f64(cost.kernel_store_fence_us))
            }
        };
        self.emit_completed(d, &emit, &completed, at, end);
    }

    /// Number of pinned-host notification writes this call performs, plus
    /// the GPU-global atomic cost for multi-block aggregation.
    fn notification_writes(&self, n: u32, block_dim: u32, completed: &[usize]) -> (u32, f64) {
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

    /// The shared tail of both `pready` forms: emit completed transport
    /// `completed[i]` at kernel offset `at[i]` along `emit`, stretch the
    /// kernel window to cover `end`, and reset the per-epoch notification
    /// bookkeeping on this epoch's first `pready`.
    fn emit_completed(
        &self,
        d: &mut DeviceCtx<'_>,
        emit: &Emit,
        completed: &[usize],
        at: Vec<SimDuration>,
        end: SimDuration,
    ) {
        for (&k, at) in completed.iter().zip(at) {
            if let Emit::Shmem = emit {
                let send = self.inner.send.clone();
                d.at_offset_shmem_traced(at, move |h, kernel_span| {
                    send.issue_data_put(h, k, kernel_span, h.now())
                });
            } else {
                let this = self.clone();
                let data_put = matches!(emit, Emit::ProgressionEngine);
                d.at_offset_traced(at, move |h, kernel_span| {
                    this.on_device_notification(h, k, data_put, kernel_span)
                });
            }
        }
        let cur = d.current_end_offset();
        if end > cur {
            d.extend(end - cur);
        }
        let epoch = self.inner.send.state.lock().epoch;
        let mut p = self.inner.pending.lock();
        if p.epoch != epoch {
            p.epoch = epoch;
            p.processed = 0;
            p.queue.clear();
        }
    }

    /// A pinned-host notification flag just landed: record it and make sure
    /// the progression engine is draining the queue. `data_put` says whether
    /// the engine must move the payload itself (Progression Engine path or
    /// revoked-mapping fallback) or only raise the remote flag.
    fn on_device_notification(
        &self,
        h: &parcomm_sim::SimHandle,
        k: usize,
        data_put: bool,
        kernel_span: SpanId,
    ) {
        let inner = &self.inner;
        inner.pinned_flags.write_flag(k, inner.pending.lock().epoch);
        // The instant the device's pinned-host flag write lands, causally
        // chained to the kernel that emitted it.
        let now = h.now();
        let flag_span = h.trace().record_causal(
            "pready_flag",
            now,
            now,
            Some(inner.send.my_rank as u32),
            Some(k as u32),
            kernel_span,
        );
        let register = {
            let mut p = inner.pending.lock();
            p.queue.push_back((k, data_put, flag_span));
            if p.hook_active {
                false
            } else {
                p.hook_active = true;
                true
            }
        };
        if register {
            let this = self.clone();
            inner.send.progression.register(h, move |p| {
                let (this, p) = (this.clone(), p.clone());
                Box::pin(async move { this.drain_notifications(&p).await })
            });
        }
    }

    /// Progression-engine hook: for each pending notification, post the
    /// data put (Progression Engine path) or the completion-flag put
    /// (Kernel Copy path).
    async fn drain_notifications(&self, p: &Proc) -> HookOutcome {
        let inner = &self.inner;
        let data_post = SimDuration::from_micros_f64(inner.send.cost.data_put_post_us);
        let control_post = SimDuration::from_micros_f64(inner.send.cost.control_put_post_us);
        loop {
            let entry = { inner.pending.lock().queue.pop_front() };
            let Some((k, data_put, flag_span)) = entry else { break };
            let t0 = p.now();
            let rank = Some(inner.send.my_rank as u32);
            if data_put {
                p.advance(data_post).await;
                let h = p.handle();
                let pe_span = h
                    .trace()
                    .record_causal("pe_post", t0, p.now(), rank, Some(k as u32), flag_span);
                inner.send.issue_data_put(&h, k, pe_span, t0);
            } else {
                p.advance(control_post).await;
                let h = p.handle();
                let pe_span = h
                    .trace()
                    .record_causal("pe_post", t0, p.now(), rank, Some(k as u32), flag_span);
                let send = &inner.send;
                let gen = send.gen.load(Ordering::Acquire);
                send.issue_flag_put(k, send.transport_users(k), pe_span, gen, t0);
            }
            inner.pending.lock().processed += 1;
        }
        let mut p = inner.pending.lock();
        if p.processed >= inner.config.transport_partitions {
            p.hook_active = false;
            HookOutcome::Remove
        } else {
            HookOutcome::Keep
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
