//! The multiplexing service: admission, batched setup, fair drain.
//!
//! Every call that lets virtual time pass is an `async fn` taking the
//! rank's [`Proc`], to be awaited inside the rank body's one
//! `Ctx::block_on` (the `moe` app and the `mux` harness run each rank as
//! one such future). The bookkeeping calls (`submit`, `record_epoch`,
//! `retire`, the lookups) are plain methods.
//!
//! Lifecycle of a channel through the service:
//!
//! 1. [`MuxService::submit`] — the spec queues under its tenant. Typed
//!    refusals happen *here*: backpressure at the in-flight cap, shmem
//!    heap quota exhaustion. Reservation at submit (not at tick) keeps
//!    the answer independent of tick scheduling.
//! 2. [`MuxService::tick_async`] — *every* still-uninitialized pending
//!    channel is `init`-ed + `MPI_Start`-ed first (inits only send setup
//!    messages — cheap and non-blocking, so the whole backlog's
//!    handshakes go into flight at the first tick). Then pending
//!    submissions are canonically sorted per tenant (receives before
//!    sends), interleaved across tenants by smooth weighted round-robin,
//!    and the selected batch runs one
//!    [`parcomm_core::pbuf_prepare_batch_async`] — the expensive part
//!    (first-call registration) is what the batch coalesces: the first
//!    channel pays the full first-call charge, the rest pay only the
//!    per-channel batch increment. Each admitted channel comes out with
//!    **epoch 1 already active** (started + prepared).
//! 3. Epochs — [`MuxService::run_host_send_epoch_async`] /
//!    [`MuxService::run_recv_epoch_async`] for host-driven channels, or
//!    [`MuxService::begin_epoch_async`] + [`MuxService::record_epoch`]
//!    for device-driven ones.
//! 4. Teardown — [`MuxService::release_async`] is the graceful path: it
//!    refuses (typed) while an epoch is active, charges the
//!    `MPI_Request_free` host cost, and returns the in-flight slot plus
//!    any heap reservation to the tenant's quota, so the freed tag and
//!    bytes are immediately re-admissible under live traffic on the
//!    other channels. [`MuxService::retire`] is the bookkeeping-only
//!    drop for channels whose endpoint is already gone (peer crash,
//!    recovery abandonment) — same quota return, no epoch check, no
//!    free cost.
//!
//! **Cross-rank contract and deadlock-freedom**: all ranks of a
//! symmetric workload must submit mirrored channel sets (every send has
//! a matching receive on its peer, with equal per-tenant endpoint counts
//! on every rank) and drive `tick_async` until their pending queues drain.
//! Under that contract, admission may span any number of `tick_batch`
//! rounds without deadlock:
//!
//! - a granted **receive**'s first prepare waits only for its peer
//!   sender's setup message, and every rank's first tick put its whole
//!   backlog's inits in flight before anything blocked;
//! - a granted **send**'s first prepare waits for its receiver's prepare
//!   reply — and because every tenant grants all receives before any
//!   send, and per-tick per-tenant grant counts are identical on every
//!   rank (same weights, mirrored queue depths), a send is always
//!   granted in a tick round no earlier than its partner receive. By
//!   induction over tick rounds, every rank's round-`k` batch completes
//!   once all ranks have reached round `k` — no circular wait exists.
//!
//! A 4096-channel grid therefore coalesces into sixteen 256-channel
//! prepare batches, each paying one first-call registration charge.

use parcomm_core::{
    pbuf_prepare_batch_async, precv_init_async, psend_init_async, MpiError, PrecvRequest,
    PsendRequest,
};
use parcomm_gpu::Buffer;
use parcomm_mpi::{CopyMechanism, MpiWorld, Rank};
use parcomm_net::MultiPathPlan;
use parcomm_obs::{Counter, Histogram};
use parcomm_shmem::SHMEM_ALIGN;
use parcomm_sim::Proc;

use crate::admission::{AdmissionError, ChannelSpec, Direction};
use crate::fairness::WeightedFair;
use crate::table::{ChannelTable, MuxChannelId};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct MuxConfig {
    /// One weight per tenant (zero clamps to 1). Weights govern admission
    /// interleave, drain grants, rail stripes, and heap quota.
    pub tenant_weights: Vec<u64>,
    /// Maximum channels admitted per [`MuxService::tick_async`].
    pub tick_batch: usize,
    /// Cap on live channels plus queued submissions; beyond it,
    /// [`MuxService::submit`] answers [`AdmissionError::Backpressure`].
    pub max_in_flight: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig { tenant_weights: vec![1], tick_batch: 256, max_in_flight: 8192 }
    }
}

impl MuxConfig {
    /// Config with the given tenant weights and default caps.
    pub fn with_weights(weights: &[u64]) -> Self {
        MuxConfig { tenant_weights: weights.to_vec(), ..MuxConfig::default() }
    }
}

/// The live endpoint object behind an admitted channel.
#[derive(Clone)]
pub enum MuxChannel {
    /// Sender side.
    Send(PsendRequest),
    /// Receiver side.
    Recv(PrecvRequest),
}

impl MuxChannel {
    /// The send request, if this is a sender-side channel.
    pub fn send(&self) -> Option<&PsendRequest> {
        match self {
            MuxChannel::Send(s) => Some(s),
            MuxChannel::Recv(_) => None,
        }
    }

    /// The receive request, if this is a receiver-side channel.
    pub fn recv(&self) -> Option<&PrecvRequest> {
        match self {
            MuxChannel::Recv(r) => Some(r),
            MuxChannel::Send(_) => None,
        }
    }
}

/// An admitted channel as it lives in the table.
pub struct AdmittedChannel {
    /// The spec it was admitted under.
    pub spec: ChannelSpec,
    /// The live request object.
    pub chan: MuxChannel,
    /// Rail stripes granted to this channel (1 on single-path routes).
    pub stripes: usize,
    /// Epochs drained so far (epoch 1 is active right after the tick).
    pub epochs_run: u64,
    /// Symmetric-heap bytes reserved against the tenant's quota.
    shmem_bytes: u64,
}

struct Pending {
    spec: ChannelSpec,
    buffer: Buffer,
    shmem_bytes: u64,
    /// Set once the backlog-wide init pass has opened this channel
    /// (request created, `MPI_Start`-ed, stripes assigned). The grant
    /// tick then only pays the prepare.
    inited: Option<(MuxChannel, usize)>,
}

struct TenantMetrics {
    goodput: Counter,
    epochs: Counter,
    latency: Histogram,
}

#[derive(Clone, Default)]
struct TenantStats {
    goodput_bytes: u64,
    epochs: u64,
    latencies_us: Vec<f64>,
}

/// Per-tenant totals, with raw epoch latencies so callers can compute
/// exact tail quantiles (the registry histogram is bucketed to 2×).
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant index.
    pub tenant: usize,
    /// The tenant's (clamped) weight.
    pub weight: u64,
    /// Payload bytes delivered across all recorded epochs.
    pub goodput_bytes: u64,
    /// Recorded epoch count.
    pub epochs: u64,
    /// Raw per-epoch latencies, in recording order.
    pub latencies_us: Vec<f64>,
}

impl TenantReport {
    /// Exact quantile of the recorded epoch latencies (nearest-rank), or
    /// 0 when nothing was recorded.
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies_us.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latency NaN"));
        let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
        v[rank - 1]
    }
}

/// The multiplexing service. One instance per rank; all instances of a
/// symmetric workload must be constructed with the same [`MuxConfig`].
pub struct MuxService {
    world: MpiWorld,
    tick_batch: usize,
    max_in_flight: usize,
    arbiter: WeightedFair,
    pending: Vec<Vec<Pending>>,
    pending_total: usize,
    table: ChannelTable<AdmittedChannel>,
    shmem_quota: Vec<u64>,
    shmem_reserved: Vec<u64>,
    stats: Vec<TenantStats>,
    metrics: Vec<Option<TenantMetrics>>,
}

impl MuxService {
    /// Build a service over `world`. The symmetric-heap quota per tenant
    /// is the weighted largest-remainder share of the rank's segment.
    pub fn new(world: &MpiWorld, config: MuxConfig) -> Self {
        let arbiter = WeightedFair::new(&config.tenant_weights);
        let n = arbiter.tenants();
        let shmem_quota = arbiter.share(world.shmem_heap().bytes_per_rank());
        MuxService {
            world: world.clone(),
            tick_batch: config.tick_batch.max(1),
            max_in_flight: config.max_in_flight.max(1),
            arbiter,
            pending: (0..n).map(|_| Vec::new()).collect(),
            pending_total: 0,
            table: ChannelTable::new(),
            shmem_quota,
            shmem_reserved: vec![0; n],
            stats: vec![TenantStats::default(); n],
            metrics: (0..n).map(|_| None).collect(),
        }
    }

    /// Number of configured tenants.
    pub fn tenants(&self) -> usize {
        self.arbiter.tenants()
    }

    /// Channels currently live in the table.
    pub fn in_flight(&self) -> usize {
        self.table.len()
    }

    /// Submissions queued but not yet admitted.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// A tenant's symmetric-heap quota, in bytes.
    pub fn shmem_quota(&self, tenant: usize) -> u64 {
        self.shmem_quota[tenant]
    }

    /// Heap bytes a tenant currently holds reserved (released and retired
    /// channels have already returned theirs).
    pub fn shmem_reserved(&self, tenant: usize) -> u64 {
        self.shmem_reserved[tenant]
    }

    /// The indexed channel table's cumulative probe count (see
    /// [`ChannelTable::probe_ops`]).
    pub fn table_probe_ops(&self) -> u64 {
        self.table.probe_ops()
    }

    /// Projected symmetric-heap footprint of a receive channel: payload +
    /// one 8-byte arrival flag per partition + alignment slop for the two
    /// bindings.
    fn shmem_footprint(spec: &ChannelSpec) -> u64 {
        spec.bytes() + spec.partitions as u64 * 8 + 2 * SHMEM_ALIGN
    }

    /// Queue a channel for admission. Refusals are typed and immediate;
    /// acceptance reserves the in-flight slot (and, for shmem-eligible
    /// receives, the heap bytes) so a later tick cannot oversubscribe.
    pub fn submit(&mut self, spec: ChannelSpec, buffer: Buffer) -> Result<(), AdmissionError> {
        let tenants = self.arbiter.tenants();
        if spec.tenant >= tenants {
            return Err(AdmissionError::UnknownTenant { tenant: spec.tenant, tenants });
        }
        if self.table.len() + self.pending_total >= self.max_in_flight {
            return Err(AdmissionError::Backpressure {
                in_flight: self.table.len(),
                pending: self.pending_total,
                cap: self.max_in_flight,
            });
        }
        // Heap quota: a receive channel under the shmem mechanism binds
        // payload + flags into this rank's segment at prepare time.
        // Reservation is conservative — a cross-node route that later
        // demotes to rkey still holds its reservation until retirement.
        let shmem_bytes = if self.world.config().mechanism == CopyMechanism::Shmem
            && spec.direction == Direction::Recv
        {
            let requested = Self::shmem_footprint(&spec);
            let quota = self.shmem_quota[spec.tenant];
            let used = self.shmem_reserved[spec.tenant];
            if used + requested > quota {
                return Err(AdmissionError::ShmemQuotaExceeded {
                    tenant: spec.tenant,
                    requested,
                    quota,
                    used,
                });
            }
            self.shmem_reserved[spec.tenant] += requested;
            requested
        } else {
            0
        };
        self.pending[spec.tenant].push(Pending { spec, buffer, shmem_bytes, inited: None });
        self.pending_total += 1;
        Ok(())
    }

    /// Admit up to `tick_batch` pending channels in one batched sweep and
    /// return their ids in admission order. See the module docs for the
    /// ordering and pairing contract. Admitted channels enter the table in
    /// admission order, so id assignment is deterministic, and epoch 1 is
    /// live on each. On an error, the channels granted this tick are
    /// dropped; the rest stay queued.
    pub async fn tick_async(
        &mut self,
        p: &Proc,
        rank: &Rank,
    ) -> Result<Vec<MuxChannelId>, MpiError> {
        let granted = self.grant(p, rank).await;
        self.pending_total = self.pending.iter().map(Vec::len).sum();
        let ids = granted?
            .into_iter()
            .map(|p| {
                let (chan, stripes) = p.inited.expect("phase 0 inited the whole backlog");
                self.table.insert(AdmittedChannel {
                    spec: p.spec,
                    chan,
                    stripes,
                    epochs_run: 0,
                    shmem_bytes: p.shmem_bytes,
                })
            })
            .collect();
        Ok(ids)
    }

    /// Phases 0–2 of a tick (module docs): init the whole backlog, pick
    /// this tick's grants, prepare them in one batch. Returns the granted
    /// channels, prepared, in admission order.
    async fn grant(&mut self, p: &Proc, rank: &Rank) -> Result<Vec<Pending>, MpiError> {
        // Canonical within-tenant order first (receives before sends;
        // descending so pop() drains the smallest key): both the init
        // pass below and the grant selection walk this order, keeping
        // the whole tick — inits included — invariant under any
        // submission shuffle.
        for q in &mut self.pending {
            q.sort_by_key(|e| std::cmp::Reverse(e.spec.canonical_key()));
        }

        // Phase 0 — init + start the *entire* backlog, granted this tick
        // or not. Inits only send setup messages, so nothing here blocks;
        // after the first tick every handshake any peer's receive could
        // wait on is already in flight. The expensive coalesced work
        // (first-call prepare registration) stays per-grant below.
        let topo = self.world.topology();
        let my_loc = self.world.gpu_of(rank.rank()).location();
        for q in &mut self.pending {
            for e in q.iter_mut().rev().filter(|e| e.inited.is_none()) {
                let (chan, stripes) = match e.spec.direction {
                    Direction::Recv => {
                        let r = precv_init_async(
                            p, rank, e.spec.peer, e.spec.tag, &e.buffer, e.spec.partitions,
                        )
                        .await?;
                        r.start_epoch()?;
                        (MuxChannel::Recv(r), 1)
                    }
                    Direction::Send => {
                        let s = psend_init_async(
                            p, rank, e.spec.peer, e.spec.tag, &e.buffer, e.spec.partitions,
                        )
                        .await?;
                        s.start_epoch()?;
                        let peer_loc = self.world.gpu_of(e.spec.peer).location();
                        let budget = MultiPathPlan::path_budget(&topo, my_loc, peer_loc);
                        let stripes = if budget > 1 {
                            let share = self.arbiter.share(budget as u64)[e.spec.tenant];
                            let stripes = (share.max(1) as usize).min(budget);
                            s.set_stripes(stripes)?;
                            stripes
                        } else {
                            1
                        };
                        (MuxChannel::Send(s), stripes)
                    }
                };
                e.inited = Some((chan, stripes));
            }
        }

        // Phase 1 — weighted-fair grant selection over the sorted queues.
        // The recv-first canonical order keeps multi-tick admission
        // deadlock-free (module docs).
        let mut grants: Vec<Pending> = Vec::new();
        while grants.len() < self.tick_batch {
            let eligible: Vec<bool> = self.pending.iter().map(|q| !q.is_empty()).collect();
            let Some(t) = self.arbiter.pick(&eligible) else { break };
            grants.push(self.pending[t].pop().expect("eligible tenant has pending"));
        }

        // Phase 2 — one batched prepare for the whole tick, receives
        // before sends: the first channel pays the full first-call
        // charge, every other channel only the batch increment.
        let chans = grants.iter().map(|g| &g.inited.as_ref().expect("inited in phase 0").0);
        let recvs: Vec<PrecvRequest> = chans.clone().filter_map(|c| c.recv().cloned()).collect();
        let sends: Vec<PsendRequest> = chans.filter_map(|c| c.send().cloned()).collect();
        pbuf_prepare_batch_async(p, &recvs, &sends).await?;
        Ok(grants)
    }

    /// The admitted channel behind `id` (stale ids miss).
    pub fn channel(&self, id: MuxChannelId) -> Option<&AdmittedChannel> {
        self.table.get(id)
    }

    /// Live channels in ascending slot order.
    pub fn channels(&self) -> impl Iterator<Item = (MuxChannelId, &AdmittedChannel)> {
        self.table.iter()
    }

    /// Open the next epoch on `id` and hand back the request for the
    /// caller to drive (device-driven epochs: launch a kernel that calls
    /// `pready_*`, then `wait`, then [`MuxService::record_epoch`]). The
    /// first call after admission is a no-op beyond bookkeeping — the
    /// tick left epoch 1 started and prepared; later calls run
    /// `MPI_Start` plus the steady (cheap) `MPIX_Pbuf_prepare`.
    pub async fn begin_epoch_async(
        &mut self,
        p: &Proc,
        id: MuxChannelId,
    ) -> Result<MuxChannel, MpiError> {
        let ch = self.table.get_mut(id).ok_or_else(|| MpiError::InvalidArgument {
            context: format!("begin_epoch: stale or unknown channel id {id}"),
        })?;
        ch.epochs_run += 1;
        let chan = ch.chan.clone();
        if ch.epochs_run > 1 {
            match &chan {
                MuxChannel::Send(s) => {
                    s.start_epoch()?;
                    s.pbuf_prepare_async(p).await?;
                }
                MuxChannel::Recv(r) => {
                    r.start_epoch()?;
                    r.pbuf_prepare_async(p).await?;
                }
            }
        }
        Ok(chan)
    }

    /// Run one full host-driven epoch on a sender-side channel: begin,
    /// `MPI_Pready` every partition, `MPI_Wait`. Returns the epoch
    /// latency in µs and records it against the owning tenant.
    pub async fn run_host_send_epoch_async(
        &mut self,
        p: &Proc,
        id: MuxChannelId,
    ) -> Result<f64, MpiError> {
        let (tenant, bytes, parts) = {
            let ch = self.table.get(id).ok_or_else(|| MpiError::InvalidArgument {
                context: format!("run_host_send_epoch: stale or unknown channel id {id}"),
            })?;
            (ch.spec.tenant, ch.spec.bytes(), ch.spec.partitions)
        };
        let t0 = p.now().as_micros_f64();
        let chan = self.begin_epoch_async(p, id).await?;
        let s = chan.send().ok_or_else(|| MpiError::InvalidArgument {
            context: format!("run_host_send_epoch: channel {id} is a receiver"),
        })?;
        s.pready_range_async(p, 0..parts).await?;
        s.wait_async(p).await?;
        let dt = p.now().as_micros_f64() - t0;
        self.record_epoch(tenant, bytes, dt);
        Ok(dt)
    }

    /// Run one full epoch on a receiver-side channel: begin, `MPI_Wait`.
    /// Returns the epoch latency in µs. Goodput is recorded on the send
    /// side only, so the receive path records nothing.
    pub async fn run_recv_epoch_async(
        &mut self,
        p: &Proc,
        id: MuxChannelId,
    ) -> Result<f64, MpiError> {
        let t0 = p.now().as_micros_f64();
        let chan = self.begin_epoch_async(p, id).await?;
        let r = chan.recv().ok_or_else(|| MpiError::InvalidArgument {
            context: format!("run_recv_epoch: channel {id} is a sender"),
        })?;
        r.wait_async(p).await?;
        Ok(p.now().as_micros_f64() - t0)
    }

    /// Credit one completed epoch to `tenant`: `bytes` of goodput at
    /// `latency_us`. Feeds both the raw per-tenant report and the world's
    /// `mux.tenant<k>.*` instruments, created at the tenant's first epoch
    /// (pure atomics, digest-neutral).
    pub fn record_epoch(&mut self, tenant: usize, bytes: u64, latency_us: f64) {
        let st = &mut self.stats[tenant];
        st.goodput_bytes += bytes;
        st.epochs += 1;
        st.latencies_us.push(latency_us);
        let m = self.metrics[tenant].get_or_insert_with(|| {
            let reg = self.world.enable_metrics();
            let mut block = reg.block(2, 1);
            TenantMetrics {
                goodput: block.counter(format!("mux.tenant{tenant}.goodput_bytes")),
                epochs: block.counter(format!("mux.tenant{tenant}.epochs")),
                latency: block.histogram(format!("mux.tenant{tenant}.epoch_latency_us")),
            }
        });
        m.goodput.add(bytes);
        m.epochs.inc();
        m.latency.record(latency_us.round().max(0.0) as u64);
    }

    /// Gracefully tear down a live channel: `MPI_Request_free` the
    /// endpoint (typed refusal while an epoch is active — the channel
    /// stays live and can be waited then released), drop the table entry
    /// (its id goes stale), and return the in-flight slot plus any
    /// symmetric-heap reservation to the tenant's quota. The freed tag
    /// and heap bytes are immediately re-admissible: a subsequent
    /// [`MuxService::submit`] + [`MuxService::tick_async`] opens a fresh
    /// channel on the same (peer, tag, direction) while the rest of the
    /// table keeps draining. Returns the spec the channel was admitted
    /// under. Both sides of a pair must release symmetrically before
    /// either re-admits, per the mirrored-submission contract.
    pub async fn release_async(
        &mut self,
        p: &Proc,
        id: MuxChannelId,
    ) -> Result<ChannelSpec, MpiError> {
        let ch = self.table.get(id).ok_or_else(|| MpiError::InvalidArgument {
            context: format!("release: stale or unknown channel id {id}"),
        })?;
        // free_async() consumes a handle clone and owns the
        // no-active-epoch check; on its typed error the table entry is
        // untouched.
        match ch.chan.clone() {
            MuxChannel::Send(s) => s.free_async(p).await?,
            MuxChannel::Recv(r) => r.free_async(p).await?,
        }
        Ok(self.retire(id).expect("entry was live above"))
    }

    /// Retire a channel without freeing the endpoint: its id goes stale,
    /// its in-flight slot frees, and any heap reservation returns to the
    /// tenant's quota. Returns the spec it was admitted under. This is
    /// the abandonment path (dead peer, recovery gave up); live channels
    /// should go through [`MuxService::release_async`].
    pub fn retire(&mut self, id: MuxChannelId) -> Option<ChannelSpec> {
        let ch = self.table.remove(id)?;
        self.shmem_reserved[ch.spec.tenant] =
            self.shmem_reserved[ch.spec.tenant].saturating_sub(ch.shmem_bytes);
        Some(ch.spec)
    }

    /// Per-tenant totals with raw latencies (exact quantiles).
    pub fn tenant_stats(&self) -> Vec<TenantReport> {
        self.stats
            .iter()
            .enumerate()
            .map(|(t, s)| TenantReport {
                tenant: t,
                weight: self.arbiter.weight(t),
                goodput_bytes: s.goodput_bytes,
                epochs: s.epochs,
                latencies_us: s.latencies_us.clone(),
            })
            .collect()
    }
}
