//! GPU-initiated `MPIX_Pready`: the device-side request object and the
//! thread/warp/block bindings with both copy mechanisms (paper §IV-A3/4).
//!
//! [`prequest_create`] builds an [`DevicePrequest`] — the paper's
//! `MPIX_Prequest`: a device-resident slice of the full `MPI_Request`
//! holding only what a kernel needs (copy mechanism, aggregation threshold,
//! GPU-global counters, the pinned-host notification flags, and — for the
//! Kernel Copy path — the `ucp_rkey_ptr` mapping of the remote buffer).
//!
//! Inside a kernel body, `pready_*` calls:
//!
//! 1. account the device time of the chosen aggregation level (per-thread
//!    host-memory stores, `__syncwarp`, `__syncthreads`, or global-memory
//!    counters) using the `a + n·b` flag-write model calibrated on Fig. 3;
//! 2. for **Kernel Copy**, store the payload straight into the peer GPU's
//!    mapped memory, charging NVLink occupancy inside the kernel window;
//! 3. schedule the pinned-host notification writes at their in-kernel
//!    offsets; when the progression engine observes them it issues the
//!    `ucp_put_nbx` (Progression Engine path) or just the completion-flag
//!    put (Kernel Copy path).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{AggLevel, Buffer, DeviceCtx};
use parcomm_mpi::{chunk_range, CopyMechanism, HookOutcome, MpiError, Rank};
use parcomm_sim::{Ctx, Proc, SimDuration, SpanId};
use parcomm_ucx::IpcMapping;

use crate::overheads::ApiOverheads;
use crate::send::{PsendRequest, PsendShared};

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

struct DpInner {
    send: Arc<PsendShared>,
    config: PrequestConfig,
    /// Pinned host memory the device notification writes land in
    /// (one word per transport partition).
    pinned_flags: Buffer,
    /// Kernel Copy: the peer receive buffer mapped via `ucp_rkey_ptr`.
    /// Revocable — every `pready` checks validity and falls back to the
    /// Progression Engine path once the mapping dies mid-epoch.
    mapped_peer: Option<IpcMapping>,
    /// GPU-global aggregation counters (`MPIX_Prequest_create` allocates
    /// them; multi-block aggregation increments them atomically).
    counters: Mutex<Vec<u64>>,
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
    let (prepared, data_rkey, shmem_active, shmem_denied) = {
        let st = send.state.lock();
        (st.prepared, st.data_rkey.clone(), st.shmem.is_some(), st.shmem_denied.clone())
    };
    if !prepared {
        return Err(MpiError::InvalidArgument {
            context: "MPIX_Prequest_create before MPIX_Pbuf_prepare completed".into(),
        });
    }
    sreq.set_transport_partitions(config.transport_partitions)?;

    let mapped_peer = if shmem_active {
        // A negotiated shmem channel is one-sided by construction: every
        // device pready issues symmetric-heap puts regardless of
        // `config.copy` — there is no rkey to map and no PE hop to take.
        None
    } else {
        match config.copy {
            CopyMechanism::KernelCopy => {
                let rkey = data_rkey.expect("prepared implies rkey");
                Some(rkey.rkey_ptr(rank.gpu().id().location())?)
            }
            CopyMechanism::Shmem => {
                // The channel negotiated the classic rkey protocol, so the
                // shmem mechanism cannot be honored; surface the receiver's
                // typed demotion reason when there is one. Callers fall back
                // by retrying with the Progression Engine.
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
            CopyMechanism::ProgressionEngine => None,
        }
    };

    p.advance(ApiOverheads::sample(&p.handle(), send.overheads.prequest_create)).await;

    let pinned_flags = rank.gpu().alloc_pinned_host(config.transport_partitions * 8);
    let dp = DevicePrequest {
        inner: Arc::new(DpInner {
            send,
            config,
            pinned_flags,
            mapped_peer,
            counters: Mutex::new(vec![0; config.transport_partitions]),
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
        let inner = &self.inner;
        let send = &inner.send;
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
        let t = send.state.lock().transport_partitions;
        let compute = d.compute_duration();
        let train_us = d.flag_write_train_us(completed.len() as u32);
        let per_write_us = train_us / completed.len().max(1) as f64;
        let mut last_off = SimDuration::ZERO;

        if send.state.lock().shmem.is_some() {
            // Device-initiated one-sided path: as each transport's covering
            // blocks finish, the leader thread issues the symmetric put
            // itself — no pinned-flag train, no PE drain. The issue cost is
            // serialized per put, and one closing fence covers the batch.
            for (i, &k) in completed.iter().enumerate() {
                let (u0, ulen) = chunk_range(users, t, k);
                let frac = (u0 + ulen) as f64 / users as f64;
                let ready = SimDuration::from_micros_f64(
                    compute.as_micros_f64() * frac
                        + cost.syncthreads_us
                        + (i + 1) as f64 * cost.shmem_put_issue_us,
                );
                last_off = last_off
                    .max(ready + SimDuration::from_micros_f64(cost.kernel_store_fence_us));
                let send2 = send.clone();
                d.at_offset_shmem_traced(ready, move |h, kernel_span| {
                    send2.issue_shmem_put(h, k, kernel_span, h.now());
                });
            }
            let end = d.current_end_offset();
            if last_off > end {
                d.extend(last_off - end);
            }
            let epoch = send.state.lock().epoch;
            let mut p = inner.pending.lock();
            if p.epoch != epoch {
                p.epoch = epoch;
                p.processed = 0;
            }
            return;
        }

        match self.kernel_copy_mapping() {
            None => {
                for (i, &k) in completed.iter().enumerate() {
                    let (u0, ulen) = chunk_range(users, t, k);
                    let frac = (u0 + ulen) as f64 / users as f64;
                    let ready = SimDuration::from_micros_f64(
                        compute.as_micros_f64() * frac
                            + cost.syncthreads_us
                            + (i + 1) as f64 * per_write_us,
                    );
                    last_off = last_off.max(ready);
                    let this = self.clone();
                    d.at_offset_traced(ready, move |h, kernel_span| {
                        this.on_device_notification(h, k, true, kernel_span)
                    });
                }
            }
            Some(mapped) => {
                let fabric = send.world.fabric();
                let src_loc = send.buffer.space().location();
                let dst_loc = mapped.buffer().space().location();
                let lat = fabric.path_latency(src_loc, dst_loc);
                for (i, &k) in completed.iter().enumerate() {
                    let (u0, ulen) = chunk_range(users, t, k);
                    let off = u0 * send.partition_bytes;
                    let len = ulen * send.partition_bytes;
                    mapped.buffer().copy_from_buffer(off, &send.buffer, off, len);
                    let frac = (u0 + ulen) as f64 / users as f64;
                    let copy_start = d.start_time()
                        + SimDuration::from_micros_f64(
                            compute.as_micros_f64() * frac + cost.syncthreads_us,
                        );
                    let transfer = fabric.transfer_at(copy_start, src_loc, dst_loc, len as u64);
                    // Offset (from kernel start) at which the stores have
                    // been pushed onto the link (arrival minus propagation).
                    let occupancy_end =
                        transfer.arrival.saturating_since(d.start_time()).saturating_sub(lat);
                    let ready = occupancy_end
                        + SimDuration::from_micros_f64(
                            cost.kernel_store_fence_us + (i + 1) as f64 * per_write_us,
                        );
                    last_off = last_off.max(ready);
                    let this = self.clone();
                    d.at_offset_traced(ready, move |h, kernel_span| {
                        this.on_device_notification(h, k, false, kernel_span)
                    });
                }
            }
        }
        // The kernel window must cover the last emission.
        let end = d.current_end_offset();
        if last_off > end {
            d.extend(last_off - end);
        }
        // Epoch bookkeeping reset, mirroring pready_users.
        let epoch = send.state.lock().epoch;
        let mut p = inner.pending.lock();
        if p.epoch != epoch {
            p.epoch = epoch;
            p.processed = 0;
        }
    }

    /// The live Kernel Copy mapping, or `None` when configured for the
    /// Progression Engine *or* when the IPC mapping has been revoked
    /// mid-epoch (chaos injection) — the fallback that keeps the channel
    /// functional at Progression-Engine timing.
    fn kernel_copy_mapping(&self) -> Option<IpcMapping> {
        match self.inner.config.copy {
            CopyMechanism::KernelCopy => {
                let m = self.inner.mapped_peer.as_ref()?;
                if m.is_valid() {
                    Some(m.clone())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Mark a contiguous user partition range ready from inside a kernel.
    pub fn pready_users(&self, d: &mut DeviceCtx<'_>, users: Range<usize>) {
        assert!(!users.is_empty(), "pready_users: empty range");
        let inner = &self.inner;
        let send = &inner.send;
        let cost = d.cost().clone();
        let completed = send
            .mark_ready(users.clone())
            .expect("device MPIX_Pready misuse traps the kernel");
        let n = users.len() as u32;
        let block_dim = d.spec().block_dim;
        let blocks_covered = n.div_ceil(block_dim).max(1);

        // Reset the per-epoch pending bookkeeping on first use in an epoch.
        let epoch = send.state.lock().epoch;
        {
            let mut p = inner.pending.lock();
            if p.epoch != epoch {
                p.epoch = epoch;
                p.processed = 0;
                p.queue.clear();
                let mut c = inner.counters.lock();
                c.iter_mut().for_each(|v| *v = 0);
            }
        }

        if send.state.lock().shmem.is_some() {
            // Device-initiated one-sided path: block consensus, then the
            // leader thread issues one symmetric put per completed
            // transport (serialized), closed by a system fence. Payload and
            // receive-side flags travel in the put itself — no pinned-flag
            // notification and no progression-engine involvement.
            let sync_us = cost.aggregation_sync_us(AggLevel::Block, block_dim.min(n))
                + blocks_covered as f64 * cost.device_atomic_us;
            let base = d.extend(SimDuration::from_micros_f64(sync_us));
            let mut last = base;
            for (i, &k) in completed.iter().enumerate() {
                let at =
                    base + SimDuration::from_micros_f64((i + 1) as f64 * cost.shmem_put_issue_us);
                last = last.max(at);
                let send2 = send.clone();
                d.at_offset_shmem_traced(at, move |h, kernel_span| {
                    send2.issue_shmem_put(h, k, kernel_span, h.now());
                });
            }
            let end_target = last + SimDuration::from_micros_f64(cost.kernel_store_fence_us);
            let end = d.current_end_offset();
            if end_target > end {
                d.extend(end_target - end);
            }
            return;
        }

        match self.kernel_copy_mapping() {
            None => {
                let sync_us = cost.aggregation_sync_us(inner.config.agg, block_dim.min(n));
                let (writes, atomics_us) = self.notification_writes(n, block_dim, &completed);
                let base = d.current_end_offset();
                let train_us = d.flag_write_train_us(writes);
                d.extend(SimDuration::from_micros_f64(sync_us + atomics_us + train_us));
                self.schedule_notifications(
                    d,
                    base,
                    sync_us + atomics_us,
                    train_us,
                    &completed,
                    true,
                );
            }
            Some(mapped) => {
                // Functional stores into the peer GPU now; visibility is
                // gated on the completion-flag put (never earlier than the
                // modeled NVLink time below).
                let t = send.state.lock().transport_partitions;
                let mut copy_bytes = 0usize;
                for &k in &completed {
                    let (u0, ulen) = chunk_range(send.user_partitions, t, k);
                    let off = u0 * send.partition_bytes;
                    let len = ulen * send.partition_bytes;
                    mapped.buffer().copy_from_buffer(off, &send.buffer, off, len);
                    copy_bytes += len;
                }
                // Device time: block sync + counters, then the NVLink
                // stores. In-kernel copies are fire-and-forget load/store
                // traffic: the kernel pays serialization (plus a closing
                // `__threadfence_system`), not the link round-trip latency
                // — this is exactly the software path the paper's Kernel
                // Copy removes relative to posting a ucp_put_nbx. Link
                // occupancy is still reserved so concurrent copies contend.
                let sync_us = cost.aggregation_sync_us(AggLevel::Block, block_dim.min(n))
                    + blocks_covered as f64 * cost.device_atomic_us;
                let base = d.extend(SimDuration::from_micros_f64(sync_us));
                let copy_start = d.start_time() + base;
                let fabric = send.world.fabric();
                let src_loc = send.buffer.space().location();
                let dst_loc = mapped.buffer().space().location();
                let transfer = fabric.transfer_at(copy_start, src_loc, dst_loc, copy_bytes as u64);
                let occupancy = transfer
                    .arrival
                    .saturating_since(copy_start)
                    .saturating_sub(fabric.path_latency(src_loc, dst_loc));
                let fence = SimDuration::from_micros_f64(cost.kernel_store_fence_us);
                let after_copy = d.extend(occupancy + fence);
                let writes = completed.len() as u32;
                let train_us = d.flag_write_train_us(writes);
                d.extend(SimDuration::from_micros_f64(train_us));
                self.schedule_notifications(d, after_copy, 0.0, train_us, &completed, false);
            }
        }
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

    /// Schedule the pinned-flag writes for the completed transport
    /// partitions, spread across the serialized write train, and hand them
    /// to the progression engine as they land.
    fn schedule_notifications(
        &self,
        d: &mut DeviceCtx<'_>,
        base: SimDuration,
        lead_us: f64,
        train_us: f64,
        completed: &[usize],
        data_put: bool,
    ) {
        if completed.is_empty() {
            return;
        }
        let m = completed.len();
        for (i, &k) in completed.iter().enumerate() {
            // Transport k's notification lands with the ((i+1)/m)-th share
            // of this call's write train.
            let off_us = lead_us + ((i + 1) as f64 / m as f64) * train_us;
            let at = base + SimDuration::from_micros_f64(off_us);
            let this = self.clone();
            d.at_offset_traced(at, move |h, kernel_span| {
                this.on_device_notification(h, k, data_put, kernel_span)
            });
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
                inner.send.issue_completion_flag_put(&h, k, pe_span, t0);
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
