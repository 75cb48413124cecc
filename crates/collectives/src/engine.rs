//! The generic partitioned-collective executor.
//!
//! One [`PcollRequest`] per rank per collective. At init time (paper
//! §IV-B1) the request:
//!
//! - takes this rank's [`Schedule`], chosen by the `*_init` function,
//! - creates one partitioned *send* channel per distinct outgoing neighbor
//!   and one *receive* channel per distinct incoming neighbor
//!   (`MPI_Psend_init` / `MPI_Precv_init` inside the collective init),
//! - sizes each channel with one **transport slot** per `(user partition,
//!   step served by that channel)` pair — the generalization of the paper's
//!   `transport partition = user partition · user partition size + R`
//!   mapping that avoids reusing a slot within an epoch,
//! - allocates staging buffers the slots live in.
//!
//! Execution follows Algorithm 2: each user partition carries its own step
//! state; `MPI_Wait` sweeps the states, reducing arrived chunks (launching
//! a device reduction kernel plus the mandatory `cudaStreamSynchronize` —
//! the cost the paper identifies as the NCCL gap) and issuing the next
//! step's `MPI_Pready` calls.
//!
//! Algorithm 2 is written once, as async code over a [`Proc`] handle:
//! `sweep`, `stage_and_send`, `issue_step_sends`, `reduce_chunk`,
//! `wait_any_arrival` and the stall watchdog / recovery ladder of
//! `run_schedule`. `MPI_Wait` and host `MPI_Pready` run it with one
//! `Ctx::block_on` each (`MPI_Wait` awaits the channels' own waits in the
//! same future, as `MPIX_Pbuf_prepare` awaits their handshakes); the
//! progression-engine hook that drains device readiness (the request
//! itself, registered as a [`PeHook`]) hands it to the engine as a future
//! that the engine's own future awaits. Every await parks the rank
//! (or its engine) exactly as the blocking call would, so the event stream
//! is that of blocking code; but while the rank is parked the scheduler
//! polls the future in place, and the rank's OS thread wakes once per entry
//! point instead of once per channel, copy, `MPI_Pready`, kernel launch,
//! stream synchronize and poll tick.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_core::{precv_init, psend_init, PrecvRequest, PsendRequest};
use parcomm_gpu::{Buffer, CostModel, DeviceCtx, KernelSpec, Stream};
use parcomm_mpi::{
    HookOutcome, HookStep, MpiError, MpiInstruments, PeHook, ProgressionEngine, Rank,
    RecoverConfig,
};
use parcomm_sim::{Action, Ctx, Proc, SimDuration, SimHandle, SimTime, SpanId};

use crate::schedule::{Schedule, StepOp};

/// Sentinel for "this peer has no channel" / "this step is not served" in
/// the O(1) index arrays of the channel table.
const NO_ENTRY: u32 = u32::MAX;

/// A send channel to one neighbor, serving a set of schedule steps.
struct SendChannel {
    sreq: PsendRequest,
    stage: Buffer,
    /// Schedule steps this channel carries, in order; the slot for
    /// `(partition u, step s)` is `u * steps.len() + index_of(s)`.
    steps: Vec<usize>,
    /// Dense step → slot index (`NO_ENTRY` for steps this channel does not
    /// serve): the per-arrival lookup is one array read, not a map walk.
    slot_of_step: Vec<u32>,
}

/// A receive channel from one neighbor.
struct RecvChannel {
    rreq: PrecvRequest,
    stage: Buffer,
    steps: Vec<usize>,
    slot_of_step: Vec<u32>,
}

/// Per-user-partition progression state (Algorithm 2's `states[part]`).
#[derive(Clone, Debug)]
struct PartState {
    step: usize,
    parrived_complete: usize,
    /// Arrivals already reduced/copied this step, one bit per incoming
    /// neighbor of the step (the paper: "ensure the reduce operation is
    /// only executed once for each incoming neighbor").
    processed: u64,
    pready_complete: usize,
    active: bool,
    /// Activation sends of a schedule with `early_stage` steps still in
    /// flight: the sweep leaves the partition alone until they are issued.
    staging: bool,
}

struct EngineInner {
    schedule: Schedule,
    user_partitions: usize,
    /// Bytes of one chunk (= user partition bytes / schedule.chunks).
    chunk_bytes: usize,
    buffer: Buffer,
    stream: Stream,
    cost: CostModel,
    progression: ProgressionEngine,
    /// This rank's index (typed-error diagnostics).
    rank: usize,
    /// Progression-engine poll interval (from the world config): the
    /// cadence of `wait_any_arrival`'s polling sweep.
    poll_us: f64,
    /// Armed Algorithm-2 watchdog (from the world config); `None` in
    /// fault-free runs keeps the wait loop event-identical to the seed.
    watchdog_us: Option<f64>,
    /// Epoch-recovery policy (from the world config). When armed, a stall
    /// escalates through lease check → host drain → channel replay before
    /// the fatal timeout; `None` keeps the pre-recovery wait loop exactly.
    recover: Option<RecoverConfig>,
    /// MPI-layer instruments (watchdog arm/fire and recovery counters).
    instruments: MpiInstruments,
    /// The channel table: channels dense in ascending-peer order (the
    /// order `start`/`pbuf_prepare` iterate, and multi-peer schedules — the
    /// hierarchical ring has up to four neighbors — need deterministic for
    /// digest stability; a `HashMap`'s per-instance seed would reorder
    /// channel starts run to run), plus peer-indexed arrays so the
    /// per-event completion path resolves a channel in O(1) instead of a
    /// map walk per flag arrival.
    send: Vec<SendChannel>,
    recv: Vec<RecvChannel>,
    /// Peer rank → index into `send` / `recv` (`NO_ENTRY` when absent).
    send_of_peer: Vec<u32>,
    recv_of_peer: Vec<u32>,
    /// Channel-table lookups performed on the completion path (arrival
    /// checks and next-step sends). Digest-neutral; the conformance suite
    /// asserts it stays linear in arrivals — no O(channels) rescans.
    completion_lookups: AtomicU64,
    states: Mutex<Vec<PartState>>,
    /// Bumped by every write to `states` made outside a sweep: partition
    /// activation, a step's sends recorded, the end of staging. Together
    /// with the receive channels' flag-write counts it is the progress
    /// signature `run_schedule` compares to skip sweeps that cannot find
    /// anything.
    state_writes: AtomicU64,
    /// Device-initiated readiness queue (collective device binding).
    pending_device: Mutex<std::collections::VecDeque<usize>>,
    hook_active: Mutex<bool>,
    /// This engine, for the progression-engine hook's drain future.
    me: std::sync::Weak<EngineInner>,
}

impl Action for EngineInner {
    /// A kernel's device readiness of the user range in `token` lands:
    /// queue it, and make sure the progression engine drains the queue.
    fn run(self: Arc<Self>, h: &SimHandle, token: u64, _kernel_span: SpanId) {
        let users = (token >> 32) as usize..(token & u64::from(u32::MAX)) as usize;
        self.pending_device.lock().extend(users);
        let mut active = self.hook_active.lock();
        if !*active {
            *active = true;
            self.progression.register(h, self.clone());
        }
    }
}

impl PeHook for EngineInner {
    /// Drain the device readiness queue, as one future, then unregister.
    fn step(&self, p: &Proc) -> HookStep {
        let inner = self.me.upgrade().expect("a registered hook's engine is alive");
        let (this, p) = (PcollRequest { inner }, p.clone());
        HookStep::Await(Box::pin(async move {
            this.drain_pending_device(&p).await;
            HookOutcome::Remove
        }))
    }
}

/// A persistent partitioned collective request: the result of every
/// `MPIX_P<collective>_init`, whatever its schedule.
///
/// The control flow matches partitioned point-to-point: `*_init` once,
/// then per iteration `start → pbuf_prepare → pready` per user partition
/// (host or device) `→ wait`.
#[derive(Clone)]
pub struct PcollRequest {
    inner: Arc<EngineInner>,
}

impl PcollRequest {
    /// Build the request: channels, staging, and per-partition state.
    pub(crate) fn new(
        ctx: &mut Ctx,
        rank: &Rank,
        schedule: Schedule,
        buffer: &Buffer,
        user_partitions: usize,
        stream: &Stream,
        tag: u64,
    ) -> Result<PcollRequest, MpiError> {
        if user_partitions == 0 {
            return Err(MpiError::InvalidArgument {
                context: "collective init: need at least one partition".into(),
            });
        }
        if !buffer.len().is_multiple_of(user_partitions * schedule.chunks) {
            return Err(MpiError::InvalidArgument {
                context: format!(
                    "collective buffer ({} B) must divide into {} partitions × {} chunks",
                    buffer.len(),
                    user_partitions,
                    schedule.chunks
                ),
            });
        }
        let part_bytes = buffer.len() / user_partitions;
        let chunk_bytes = part_bytes / schedule.chunks;

        // Group steps by neighbor.
        let mut out_steps: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut in_steps: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, step) in schedule.steps.iter().enumerate() {
            for &o in &step.outgoing {
                out_steps.entry(o).or_default().push(i);
            }
            for &inc in &step.incoming {
                in_steps.entry(inc).or_default().push(i);
            }
        }

        // Create the channels. Order init calls by peer rank so the two
        // sides of each channel agree (matching is on (src, dst, tag));
        // the table keeps that ascending-peer order as its dense layout.
        let total_steps = schedule.steps.len();
        let world_size = rank.size();
        let slot_index = |steps: &[usize]| {
            let mut slot_of_step = vec![NO_ENTRY; total_steps];
            for (j, &s) in steps.iter().enumerate() {
                slot_of_step[s] = j as u32;
            }
            slot_of_step
        };
        let mut send = Vec::with_capacity(out_steps.len());
        let mut send_of_peer = vec![NO_ENTRY; world_size];
        let mut peers: Vec<usize> = out_steps.keys().copied().collect();
        peers.sort_unstable();
        let stripes = rank.world().config().stripes;
        for o in peers {
            let steps = out_steps.remove(&o).expect("key exists");
            let slots = user_partitions * steps.len();
            let stage = rank.gpu().alloc_global(slots * chunk_bytes);
            let sreq = psend_init(ctx, rank, o, tag, &stage, slots)?;
            // Each (partition, step) slot travels independently: one
            // transport partition per slot.
            sreq.set_transport_partitions(slots)?;
            // Cross-node channels stripe their data puts over the NIC
            // rails when the world asks for it; intra-node hops keep the
            // dedicated NVLink pair (the hierarchical schedule already
            // saturates it, and leaving them single-path keeps stripes=1
            // worlds bit-identical to the pre-striping stack).
            if stripes > 1 && !rank.topology().same_node(rank.rank(), o) {
                sreq.set_stripes(stripes)?;
            }
            let slot_of_step = slot_index(&steps);
            send_of_peer[o] = send.len() as u32;
            send.push(SendChannel { sreq, stage, steps, slot_of_step });
        }
        let mut recv = Vec::with_capacity(in_steps.len());
        let mut recv_of_peer = vec![NO_ENTRY; world_size];
        let mut peers: Vec<usize> = in_steps.keys().copied().collect();
        peers.sort_unstable();
        for inc in peers {
            let steps = in_steps.remove(&inc).expect("key exists");
            let slots = user_partitions * steps.len();
            let stage = rank.gpu().alloc_global(slots * chunk_bytes);
            let rreq = precv_init(ctx, rank, inc, tag, &stage, slots)?;
            let slot_of_step = slot_index(&steps);
            recv_of_peer[inc] = recv.len() as u32;
            recv.push(RecvChannel { rreq, stage, steps, slot_of_step });
        }

        assert!(
            schedule.steps.iter().all(|st| st.incoming.len() <= u64::BITS as usize),
            "a schedule step has at most 64 incoming neighbors"
        );
        let states = (0..user_partitions)
            .map(|_| PartState {
                step: 0,
                parrived_complete: 0,
                processed: 0,
                pready_complete: 0,
                active: false,
                staging: false,
            })
            .collect();

        Ok(PcollRequest {
            inner: Arc::new_cyclic(|me| EngineInner {
                me: me.clone(),
                schedule,
                user_partitions,
                chunk_bytes,
                buffer: buffer.clone(),
                stream: stream.clone(),
                cost: rank.gpu().cost().clone(),
                progression: rank.progression().clone(),
                rank: rank.rank(),
                poll_us: rank.world().config().progress_poll_us,
                watchdog_us: rank.world().config().wait_watchdog_us,
                recover: rank.world().config().recover.clone(),
                instruments: rank.world().instruments().clone(),
                send,
                recv,
                send_of_peer,
                recv_of_peer,
                completion_lookups: AtomicU64::new(0),
                states: Mutex::new(states),
                state_writes: AtomicU64::new(0),
                pending_device: Mutex::new(std::collections::VecDeque::new()),
                hook_active: Mutex::new(false),
            }),
        })
    }

    /// Channel-table lookups the engine performed on its completion path so
    /// far. Test support for the O(1)-per-event contract: the conformance
    /// suite asserts this grows linearly with arrivals, never with an
    /// O(channels) rescan factor.
    #[doc(hidden)]
    pub fn completion_lookup_ops(&self) -> u64 {
        self.inner.completion_lookups.load(Ordering::Relaxed)
    }

    /// `MPI_Start` for the collective: starts every underlying channel and
    /// resets the per-partition state.
    pub fn start(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        for ch in &self.inner.send {
            ch.sreq.start(ctx)?;
        }
        for ch in &self.inner.recv {
            ch.rreq.start(ctx)?;
        }
        let mut states = self.inner.states.lock();
        for st in states.iter_mut() {
            st.step = 0;
            st.parrived_complete = 0;
            st.processed = 0;
            st.pready_complete = 0;
            st.active = false;
            st.staging = false;
        }
        self.inner.pending_device.lock().clear();
        Ok(())
    }

    /// `MPIX_Pbuf_prepare`: synchronize with every neighbor of the
    /// collective (the paper: "we now synchronize the processes associated
    /// with the collective rather than just two ranks" — ring neighbors
    /// transitively synchronize the whole communicator).
    pub fn pbuf_prepare(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        let (this, p) = (self.clone(), ctx.proc());
        ctx.block_on(async move {
            // Receive channels reply/RTR first so no sender can block
            // forever waiting for its peer's receive side.
            for ch in &this.inner.recv {
                ch.rreq.pbuf_prepare_async(&p).await?;
            }
            for ch in &this.inner.send {
                ch.sreq.pbuf_prepare_async(&p).await?;
            }
            Ok(())
        })
    }

    /// Host `MPI_Pready`: user partition `u`'s local contribution is
    /// complete. Activates its schedule, issues the step-0 sends, and
    /// stages-and-sends every `early_stage` step's chunk (epoch-original
    /// data whose buffer slot may later be overwritten by in-place
    /// arrivals).
    pub fn pready(&self, ctx: &mut Ctx, u: usize) -> Result<(), MpiError> {
        if u >= self.inner.user_partitions {
            return Err(MpiError::InvalidArgument {
                context: format!("collective pready: partition {u} out of range"),
            });
        }
        {
            let mut states = self.inner.states.lock();
            let st = &mut states[u];
            if st.active {
                return Err(MpiError::InvalidArgument {
                    context: format!("collective partition {u} marked ready twice"),
                });
            }
            st.active = true;
        }
        let this = self.clone();
        let p = ctx.proc();
        ctx.block_on(async move { this.issue_activation_sends(&p, u).await })
    }

    /// Device `MPIX_Pready` for a range of user partitions, callable from
    /// a kernel body. Extends the kernel with the block-aggregated
    /// notification cost and hands the partitions to the progression
    /// engine, which performs the step-0 staging copies and `MPI_Pready`
    /// calls on the host (paper §IV-B, Progression Engine approach —
    /// in-kernel collective execution is future work the paper advocates
    /// for).
    pub fn pready_device(&self, d: &mut DeviceCtx<'_>, users: Range<usize>) {
        assert!(!users.is_empty());
        assert!(users.end <= self.inner.user_partitions);
        let cost = d.cost();
        let writes = users.len() as u32; // one counter-crossing write per partition
        let base = d.current_end_offset();
        let sync_us = cost.syncthreads_us
            + d.spec().grid_dim as f64 * cost.device_atomic_us;
        let total = sync_us + d.flag_write_train_us(writes);
        d.extend(SimDuration::from_micros_f64(total));
        let at = base + SimDuration::from_micros_f64(total);
        // The token is the user range, `start` in the high half.
        let token = (users.start as u64) << 32 | users.end as u64;
        d.at_offset(at, self.inner.clone(), token);
    }

    /// Device `MPIX_Pready` for all user partitions.
    pub fn pready_device_all(&self, d: &mut DeviceCtx<'_>) {
        self.pready_device(d, 0..self.inner.user_partitions);
    }

    /// Activate every partition in the device readiness queue and issue its
    /// activation sends. Runs as the progression-engine hook, or from
    /// `MPI_Wait` as the recovery ladder's host-drain takeover; the queue pop
    /// is the exactly-once point.
    async fn drain_pending_device(&self, p: &Proc) {
        loop {
            let u = { self.inner.pending_device.lock().pop_front() };
            let Some(u) = u else { break };
            {
                let mut states = self.inner.states.lock();
                let st = &mut states[u];
                assert!(!st.active, "collective partition {u} marked ready twice");
                st.active = true;
            }
            // Hook context cannot surface Results; channel state was
            // validated when the collective epoch opened.
            self.issue_activation_sends(p, u).await.expect("validated at start");
        }
        *self.inner.hook_active.lock() = false;
    }

    /// The sends a partition issues when it becomes ready: step 0, plus
    /// the staged chunk of every `early_stage` step.
    ///
    /// Until the last early chunk is staged, an in-place arrival ingested
    /// by the sweep could overwrite it, so such a partition is marked
    /// `staging` for the duration. Host `MPI_Pready` blocks the rank
    /// through it anyway; device readiness is activated by the progression
    /// engine while the rank sweeps in `MPI_Wait`.
    async fn issue_activation_sends(&self, p: &Proc, u: usize) -> Result<(), MpiError> {
        let steps = &self.inner.schedule.steps;
        let early = steps.iter().any(|st| st.early_stage);
        self.inner.states.lock()[u].staging = early;
        // The caller has just set the partition active.
        self.inner.state_writes.fetch_add(1, Ordering::Release);
        self.issue_step_sends(p, u, 0).await?;
        for (s, step) in steps.iter().enumerate().skip(1) {
            if step.early_stage {
                self.stage_and_send(p, u, s).await?;
            }
        }
        self.inner.states.lock()[u].staging = false;
        self.inner.state_writes.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// `MPI_Parrived` for the collective: has partition `u` completed the
    /// whole schedule?
    pub fn parrived(&self, u: usize) -> bool {
        let states = self.inner.states.lock();
        states[u].step >= self.inner.schedule.len()
    }

    /// Byte offset of chunk `c` of user partition `u` in the main buffer.
    fn chunk_off(&self, u: usize, c: usize) -> usize {
        u * self.inner.chunk_bytes * self.inner.schedule.chunks + c * self.inner.chunk_bytes
    }

    /// Local device copy cost (cudaMemcpyD2D of one chunk).
    fn copy_cost(&self) -> SimDuration {
        SimDuration::from_micros_f64(
            self.inner.chunk_bytes as f64 / (self.inner.cost.hbm_bw_gbps * 1e3) + 0.8,
        )
    }

    /// Issue the sends of step `s` for partition `u` (Algorithm 2 lines
    /// 21–27; step 0 is triggered by the application's `MPI_Pready`).
    /// `early_stage` steps were already staged and sent at activation.
    async fn issue_step_sends(&self, p: &Proc, u: usize, s: usize) -> Result<(), MpiError> {
        if s >= self.inner.schedule.len() {
            return Ok(());
        }
        let step = &self.inner.schedule.steps[s];
        if !(s != 0 && step.early_stage) {
            self.stage_and_send(p, u, s).await?;
        }
        self.inner.states.lock()[u].pready_complete = step.outgoing.len();
        self.inner.state_writes.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Copy the outgoing chunk of step `s` into each serving channel's
    /// staging slot and mark it ready.
    async fn stage_and_send(&self, p: &Proc, u: usize, s: usize) -> Result<(), MpiError> {
        let step = &self.inner.schedule.steps[s];
        for &o in &step.outgoing {
            self.inner.completion_lookups.fetch_add(1, Ordering::Relaxed);
            let ci = self.inner.send_of_peer[o];
            debug_assert_ne!(ci, NO_ENTRY, "send channel exists");
            let ch = &self.inner.send[ci as usize];
            let j = ch.slot_of_step[s] as usize;
            let slot = u * ch.steps.len() + j;
            // Stage the outgoing chunk (device-local copy), then Pready.
            let src_off = self.chunk_off(u, step.ready_offset);
            ch.stage.copy_from_buffer(
                slot * self.inner.chunk_bytes,
                &self.inner.buffer,
                src_off,
                self.inner.chunk_bytes,
            );
            p.advance(self.copy_cost()).await;
            ch.sreq.pready_async(p, slot).await?;
        }
        Ok(())
    }

    /// One sweep of Algorithm 2 over all partition states. Returns `true`
    /// if any partition progressed.
    async fn sweep(&self, p: &Proc) -> Result<bool, MpiError> {
        let mut progressed = false;
        let total_steps = self.inner.schedule.len();
        for u in 0..self.inner.user_partitions {
            loop {
                let (s, sweepable) = {
                    let states = self.inner.states.lock();
                    (states[u].step, states[u].active && !states[u].staging)
                };
                if !sweepable || s >= total_steps {
                    break; // line 4: continue past finished partitions
                }
                let step = &self.inner.schedule.steps[s];
                let step_t0 = p.now();
                // Lines 5–13: check/ingest arrivals for this step, one bit
                // per incoming neighbor.
                let mut arrived_now = 0u64;
                {
                    let mut states = self.inner.states.lock();
                    let st = &mut states[u];
                    for (xi, &inc) in step.incoming.iter().enumerate() {
                        if st.processed & (1 << xi) != 0 {
                            continue;
                        }
                        self.inner.completion_lookups.fetch_add(1, Ordering::Relaxed);
                        let (ch, slot) = self.recv_slot(inc, u, s);
                        if ch.rreq.parrived(slot) {
                            st.processed |= 1 << xi;
                            st.parrived_complete += 1;
                            arrived_now |= 1 << xi;
                        }
                    }
                }
                // Apply the op outside the state lock (reductions launch
                // kernels and synchronize the stream).
                for (xi, &inc) in step.incoming.iter().enumerate() {
                    if arrived_now & (1 << xi) == 0 {
                        continue;
                    }
                    progressed = true;
                    let (ch, slot) = self.recv_slot(inc, u, s);
                    let dst_off = self.chunk_off(u, step.arrived_offset);
                    let stage_off = slot * self.inner.chunk_bytes;
                    match step.op {
                        StepOp::Sum => self.reduce_chunk(p, &ch.stage, stage_off, dst_off).await,
                        StepOp::Nop => {
                            self.inner.buffer.copy_from_buffer(
                                dst_off,
                                &ch.stage,
                                stage_off,
                                self.inner.chunk_bytes,
                            );
                            p.advance(self.copy_cost()).await;
                        }
                    }
                }
                // Lines 14–20: step completion check.
                let advance = {
                    let mut states = self.inner.states.lock();
                    let st = &mut states[u];
                    if st.parrived_complete == step.incoming.len()
                        && st.pready_complete == step.outgoing.len()
                    {
                        st.step += 1;
                        st.parrived_complete = 0;
                        st.pready_complete = 0;
                        st.processed = 0;
                        true
                    } else {
                        false
                    }
                };
                if !advance {
                    break;
                }
                progressed = true;
                // Causal trace: the window this sweep spent completing step
                // `s` of partition `u` (arrival ingestion + reductions).
                p.handle().trace().record_causal(
                    "coll_step",
                    step_t0,
                    p.now(),
                    Some(self.inner.rank as u32),
                    Some(u as u32),
                    SpanId::NONE,
                );
                // Lines 21–27: issue the next step's sends.
                let next = s + 1;
                if next < total_steps {
                    self.issue_step_sends(p, u, next).await?;
                } // else: final step reached — no extra data transfer.
            }
        }
        Ok(progressed)
    }

    /// The receive channel from `inc` and its slot for `(partition u, step
    /// s)`.
    fn recv_slot(&self, inc: usize, u: usize, s: usize) -> (&RecvChannel, usize) {
        let ci = self.inner.recv_of_peer[inc];
        debug_assert_ne!(ci, NO_ENTRY, "recv channel exists");
        let ch = &self.inner.recv[ci as usize];
        (ch, u * ch.steps.len() + ch.slot_of_step[s] as usize)
    }

    /// The progress signature: it changes whenever anything a sweep reads
    /// may have changed — a partition's state written outside a sweep, or
    /// any receive flag written (counted arrival or stale replayed
    /// landing). A sweep that found nothing finds nothing again while it
    /// is unchanged.
    fn progress_signature(&self) -> u64 {
        let flags: u64 = self.inner.recv.iter().map(|ch| ch.rreq.flag_writes()).sum();
        flags.wrapping_add(self.inner.state_writes.load(Ordering::Acquire))
    }

    /// Device reduction of one staged chunk into the main buffer: a kernel
    /// launch followed by `cudaStreamSynchronize` — numerically required
    /// before the chunk can be forwarded (paper §VI-B: the source of the
    /// remaining gap to NCCL).
    async fn reduce_chunk(&self, p: &Proc, stage: &Buffer, stage_off: usize, dst_off: usize) {
        let elems = self.inner.chunk_bytes / 8;
        let grid = (elems as u32).div_ceil(1024).max(1);
        let buf = self.inner.buffer.clone();
        let stage = stage.clone();
        let spec = KernelSpec::new("pcoll_reduce", grid, 1024)
            .with_memory_traffic(16, 8)
            .with_flops(1.0);
        self.inner
            .stream
            .launch_async(p, spec, move |_d| {
                buf.accumulate_f64(dst_off, &stage, stage_off, elems);
            })
            .await;
        self.inner.stream.synchronize_async(p).await;
    }

    /// `MPI_Wait`: run Algorithm 2 until every partition finishes the
    /// schedule, then complete the underlying channel epochs.
    ///
    /// With the world's wait watchdog armed, a progression stall longer
    /// than the timeout returns [`MpiError::CollectiveTimeout`] naming the
    /// stuck partition and step instead of spinning forever — the typed
    /// surface for lost arrivals (crashed peers, lost device flag writes).
    /// With [`parcomm_mpi::WorldConfig::recover`] armed instead, a stall of
    /// `detect_us` escalates through the recovery ladder before anything is
    /// fatal: an expired progression-engine lease hands the pending device
    /// notifications to this context (host-drain takeover — the crashed
    /// rank keeps progressing its own collective), then every send
    /// channel's undelivered transports are replayed under a fresh
    /// generation. Only after `max_replays` fruitless rounds does the typed
    /// [`MpiError::Unrecoverable`] surface.
    pub fn wait(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        let (this, p) = (self.clone(), ctx.proc());
        ctx.block_on(async move {
            this.run_schedule(&p).await?;
            for ch in &this.inner.send {
                ch.sreq.wait_async(&p).await?;
            }
            for ch in &this.inner.recv {
                ch.rreq.wait_async(&p).await?;
            }
            Ok(())
        })
    }

    /// The body of `MPI_Wait`: sweep until every partition has finished the
    /// schedule, blocking on arrivals in between, with the watchdog and
    /// recovery ladder watching for stalls.
    async fn run_schedule(&self, p: &Proc) -> Result<(), MpiError> {
        let total = self.inner.schedule.len();
        let mut stall_started: Option<SimTime> = None;
        let mut attempts = 0u32;
        let detect_us = self.stall_bound_us();
        let ins = &self.inner.instruments;
        if detect_us.is_some() {
            ins.watchdog_arms.inc();
        }
        // The signature at the last sweep, if that sweep found nothing.
        let mut idle_at: Option<u64> = None;
        loop {
            let sig = self.progress_signature();
            let progressed = idle_at != Some(sig) && self.sweep(p).await?;
            idle_at = (!progressed).then_some(sig);
            let all_done = {
                let states = self.inner.states.lock();
                states.iter().all(|st| st.step >= total)
            };
            if all_done {
                return Ok(());
            }
            if progressed {
                stall_started = None;
            } else {
                if let Some(timeout_us) = detect_us {
                    let t0 = *stall_started.get_or_insert(p.now());
                    if p.now().since(t0).as_micros_f64() >= timeout_us {
                        match &self.inner.recover {
                            None => {
                                ins.watchdog_fires.inc();
                                return Err(self.stall_error(timeout_us, total));
                            }
                            Some(rc) => {
                                if attempts >= rc.max_replays {
                                    ins.watchdog_fires.inc();
                                    let diag = self.stall_error(timeout_us, total);
                                    return Err(MpiError::Unrecoverable {
                                        rank: self.inner.rank,
                                        context: format!("collective epoch: {diag}"),
                                        attempts,
                                    });
                                }
                                attempts += 1;
                                if self.inner.progression.lease_expired(p.now(), rc.lease_us) {
                                    ins.recover_lease_expired.inc();
                                    ins.recover_host_drains.inc();
                                    // Host takeover of the dead PE's queue:
                                    // activates any partitions whose device
                                    // readiness was never drained.
                                    self.drain_pending_device(p).await;
                                }
                                for ch in &self.inner.send {
                                    ch.sreq.recover_epoch_async(p).await;
                                }
                                stall_started = None;
                            }
                        }
                    }
                }
                // Block until any new arrival on any receive channel (or a
                // short poll if a device-side pready is still in flight).
                self.wait_any_arrival(p).await;
            }
        }
    }

    /// The stall-detection bound for the wait loop: the recovery policy's
    /// `detect_us` when armed (capped by the fatal watchdog, if both are
    /// set), else the watchdog alone, else unbounded.
    fn stall_bound_us(&self) -> Option<f64> {
        match (&self.inner.recover, self.inner.watchdog_us) {
            (Some(rc), w) => Some(rc.detect_us.min(w.unwrap_or(f64::INFINITY))),
            (None, w) => w,
        }
    }

    /// Build the [`MpiError::CollectiveTimeout`] for the current stall:
    /// names the first unfinished partition and the step it is parked at.
    fn stall_error(&self, timeout_us: f64, total: usize) -> MpiError {
        let states = self.inner.states.lock();
        let completed = states.iter().filter(|st| st.step >= total).count() as u64;
        let (partition, step) = states
            .iter()
            .enumerate()
            .find(|(_, st)| st.step < total)
            .map(|(u, st)| (u, st.step))
            .unwrap_or((0, 0));
        MpiError::CollectiveTimeout {
            rank: self.inner.rank,
            partition,
            step,
            completed,
            expected: self.inner.user_partitions as u64,
            timeout_us,
        }
    }

    /// Block until an arrival count changes anywhere (poll-style backstop
    /// for multi-channel waiting). With the watchdog armed, the block is
    /// bounded so the stall check in [`PcollRequest::wait`] re-runs.
    ///
    /// Blocking on the receive channel's arrival event is only sound when
    /// every step of this rank's schedule carries an incoming chunk, so
    /// every step-advance is arrival-woken. A ragged-oversubscribed
    /// surplus rank breaks that: its fold steps are send-only and its core
    /// window is pure idle, so the sweep that advances them is woken by
    /// nothing — blocking on its sole receive channel (the final unfold
    /// step) would park the rank for a full watchdog period while its
    /// outgoing work sits unissued. Such schedules poll instead.
    async fn wait_any_arrival(&self, p: &Proc) {
        let arrival_driven =
            self.inner.schedule.steps.iter().all(|st| !st.incoming.is_empty());
        if arrival_driven && self.inner.recv.len() == 1 {
            let ch = self.inner.recv.first().expect("one");
            let current = ch.rreq.arrived_count();
            let ev = ch.rreq.arrived_event().clone();
            // Wait for at least one more than we've seen (bounded by the
            // channel's slot count).
            let target = (current + 1).min(ch.rreq.user_partitions() as u64);
            if current < target {
                match self.stall_bound_us() {
                    None => p.wait_count(&ev, target).await,
                    Some(timeout_us) => {
                        let dt = SimDuration::from_micros_f64(timeout_us);
                        let _ = p.wait_count_timeout(&ev, target, dt).await;
                    }
                }
            } else {
                p.advance(SimDuration::from_micros_f64(self.inner.poll_us)).await;
            }
        } else {
            // Multiple channels: poll at the progression interval.
            p.advance(SimDuration::from_micros_f64(self.inner.poll_us)).await;
        }
    }
}
