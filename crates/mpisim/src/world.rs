//! The MPI world: rank/topology bookkeeping and per-rank launch.
//!
//! An [`MpiWorld`] models `MPI_COMM_WORLD` over the simulated cluster with
//! one rank per GPU (the paper's deployment: ranks 0–3 on node 0, 4–7 on
//! node 1). Each rank is a simulation process; [`MpiWorld::run_ranks`]
//! spawns them all with a [`Rank`] handle providing the MPI surface.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{CostModel, EmissionFaultConfig, Gpu, GpuId, Location, Unit};
use parcomm_net::{ClusterSpec, Fabric, NetFaultConfig, Topology};
use parcomm_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use parcomm_shmem::SymmetricHeap;
use parcomm_sim::{Ctx, Proc, SimBarrier, SimDuration, Simulation};
use parcomm_ucx::{UcxUniverse, Worker, WorkerAddress};

use crate::mechanism::CopyMechanism;
use crate::p2p::MatchTable;
use crate::progress::{HookOwner, PeFaultConfig, ProgressionEngine};

/// Host software overhead (µs) charged per blocking MPI send/recv call.
const MPI_CALL_OVERHEAD_US: f64 = 0.5;

/// MPI-layer instruments, shared by every rank's progression engine and the
/// partitioned send/recv watchdogs. Cheap to clone; clones share counters.
#[derive(Clone, Debug)]
pub struct MpiInstruments {
    /// Progression-engine poll sweeps executed (all ranks).
    pub pe_polls: Counter,
    /// Individual hook invocations across all sweeps.
    pub pe_hook_runs: Counter,
    /// Blocking waits that armed a watchdog timer.
    pub watchdog_arms: Counter,
    /// Watchdog timers that fired (stall detected).
    pub watchdog_fires: Counter,
    /// log2-bucket latency (µs) from a partition's pready being processed
    /// (host `MPI_Pready` or progression-engine drain) to its receive-side
    /// flags landing — the pready → arrival boundary of the paper's
    /// pipeline.
    pub pready_arrival_us: Histogram,
    /// PE leases found expired (crash or missed heartbeat) by a recovering
    /// waiter.
    pub recover_lease_expired: Counter,
    /// Epoch replays issued by the recovery ladder (each may re-post many
    /// puts).
    pub recover_replays: Counter,
    /// Stale put completions (from a superseded replay generation, or a
    /// duplicate of an already-delivered transport partition) discarded by
    /// the generation gate.
    pub recover_stale_puts: Counter,
    /// Host-side takeovers of a dead progression engine's pending device
    /// notifications.
    pub recover_host_drains: Counter,
}

impl MpiInstruments {
    fn new(registry: &MetricsRegistry) -> Self {
        MpiInstruments {
            pe_polls: registry.counter("mpi.pe.polls"),
            pe_hook_runs: registry.counter("mpi.pe.hook_runs"),
            watchdog_arms: registry.counter("mpi.watchdog.arms"),
            watchdog_fires: registry.counter("mpi.watchdog.fires"),
            pready_arrival_us: registry.histogram("mpi.pready_arrival_us"),
            recover_lease_expired: registry.counter("mpi.recover.lease_expired"),
            recover_replays: registry.counter("mpi.recover.replays"),
            recover_stale_puts: registry.counter("mpi.recover.stale_puts"),
            recover_host_drains: registry.counter("mpi.recover.host_drains"),
        }
    }
}

/// Epoch-level recovery policy (the top rungs of the escalation ladder:
/// per-put retry → re-striping → Kernel-Copy fallback → **lease + replay +
/// host drain**). `None` in [`WorldConfig::recover`] disables every recovery
/// path — the default, bit-for-bit identical to the pre-recovery stack.
///
/// When enabled and no fault fires, recovery is digest-neutral: the only
/// extra machinery is cancellable timed-wait backstops (heap tombstones the
/// run loop skips) and atomic heartbeat/generation bookkeeping, none of
/// which schedules an observable event.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverConfig {
    /// Maximum epoch replays per blocking wait before the typed
    /// [`crate::MpiError::Unrecoverable`] surfaces.
    pub max_replays: u32,
    /// Stall window (µs) with zero progress before the recovery ladder
    /// escalates. Must comfortably exceed any legitimate single-step stall
    /// (and the per-put retry budget, so retries settle first).
    pub detect_us: f64,
    /// Progression-engine lease (µs): a PE with registered hooks that has
    /// not swept them within this window is treated as dead and its pending
    /// device notifications are drained from host context.
    pub lease_us: f64,
}

impl Default for RecoverConfig {
    fn default() -> Self {
        RecoverConfig { max_replays: 4, detect_us: 20_000.0, lease_us: 2_000.0 }
    }
}

/// The rungs of the recovery escalation ladder, mildest first. Rungs 1–3
/// live in the layers below (`ucxsim` put retry, `netsim` re-striping, the
/// `core` Kernel-Copy fallback); [`RecoverConfig`] arms the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscalationLevel {
    /// Nothing fired: the epoch completed on the fast path.
    None,
    /// UCX put retry with backoff absorbed transient wire failures.
    PutRetry,
    /// Stripes re-spread over surviving rails around a dark NIC.
    Restripe,
    /// Kernel Copy demoted to Progression-Engine posts (IPC revocation).
    KernelCopyFallback,
    /// A PE lease expired and the host drained its queue.
    LeaseTakeover,
    /// Undelivered partitions were replayed under a new generation.
    EpochReplay,
    /// The ladder was exhausted: [`crate::MpiError::Unrecoverable`] surfaced.
    Unrecoverable,
}

/// Post-run survivability report, read from the `mpi.recover.*` counters.
///
/// Counters are pure atomics, so assembling the report never perturbs the
/// run's digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// PE leases found expired (crash or missed heartbeat).
    pub lease_expired: u64,
    /// Epoch replays issued.
    pub replays: u64,
    /// Stale pre-recovery puts discarded by generation gating.
    pub stale_puts: u64,
    /// Host drains of a dead engine's queue.
    pub host_drains: u64,
}

impl RecoveryReport {
    /// Read the recovery counters out of a run's metrics snapshot.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let c = |name: &str| metrics.counter(name).unwrap_or(0);
        RecoveryReport {
            lease_expired: c("mpi.recover.lease_expired"),
            replays: c("mpi.recover.replays"),
            stale_puts: c("mpi.recover.stale_puts"),
            host_drains: c("mpi.recover.host_drains"),
        }
    }

    /// True when no ladder rung above put-retry fired.
    pub fn quiet(&self) -> bool {
        self.lease_expired == 0 && self.replays == 0 && self.stale_puts == 0
            && self.host_drains == 0
    }

    /// The highest ladder rung the counters witness. (`PutRetry` and
    /// below are absorbed beneath the counters; a quiet report maps to
    /// [`EscalationLevel::None`].)
    pub fn highest_level(&self) -> EscalationLevel {
        if self.replays > 0 {
            EscalationLevel::EpochReplay
        } else if self.lease_expired > 0 || self.host_drains > 0 {
            EscalationLevel::LeaseTakeover
        } else {
            EscalationLevel::None
        }
    }
}

/// World-level configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Cluster shape and link classes.
    pub cluster: ClusterSpec,
    /// GPU cost model (same on every device).
    pub cost: CostModel,
    /// Progression-engine poll interval: the PE daemon's sweep cadence
    /// and the collective engine's multi-channel poll.
    pub progress_poll_us: f64,
    /// Watchdog timeout (µs) armed on every blocking MPI wait. `None`
    /// (the default) waits forever — zero extra events in fault-free runs.
    pub wait_watchdog_us: Option<f64>,
    /// Network fault schedule (drops / latency spikes / NIC outages).
    pub net_faults: Option<NetFaultConfig>,
    /// Per-rank progression-engine fault schedules.
    pub pe_faults: Vec<(usize, PeFaultConfig)>,
    /// Per-rank device flag-write (emission) fault schedules.
    pub gpu_flag_faults: Vec<(usize, EmissionFaultConfig)>,
    /// Stripe count for cross-node partitioned data puts issued by the
    /// collective engine's channels: each data put splits into up to this
    /// many stripes routed concurrently over the NIC rails. `1` (the
    /// default) is the classic single-path protocol, bit-for-bit.
    pub stripes: usize,
    /// Epoch-level recovery policy. `None` (the default) disables the
    /// lease/replay/host-drain ladder entirely — pre-recovery behavior,
    /// bit-for-bit.
    pub recover: Option<RecoverConfig>,
    /// Default copy mechanism for partitioned channels. Both channel
    /// endpoints resolve this identically at setup, so no extra handshake
    /// travels; a per-request `set_mechanism` override takes precedence.
    /// The default ([`CopyMechanism::ProgressionEngine`]) is the classic
    /// protocol, bit-for-bit.
    pub mechanism: CopyMechanism,
    /// Symmetric-heap segment size per rank (bytes). The heap is registered
    /// once at world construction; channels using
    /// [`CopyMechanism::Shmem`] bind their buffers into it and exchange
    /// offsets instead of rkeys.
    pub shmem_heap_bytes: u64,
    /// Per-rank shmem signal-emission fault schedules (delayed / lost
    /// device `shmem_signal`s), independent of `gpu_flag_faults`.
    pub shmem_faults: Vec<(usize, EmissionFaultConfig)>,
    /// Ranks whose symmetric-heap registration fails at world construction
    /// (fault hook): their channels fall back to the Progression Engine
    /// with a typed `ShmemError::RegistrationFailed`.
    pub shmem_heap_fail: Vec<usize>,
}

impl WorldConfig {
    /// The paper's GH200 testbed with `nodes` nodes.
    pub fn gh200(nodes: u16) -> Self {
        WorldConfig {
            cluster: ClusterSpec::gh200(nodes),
            cost: CostModel::default(),
            progress_poll_us: 0.5,
            wait_watchdog_us: None,
            net_faults: None,
            pe_faults: Vec::new(),
            gpu_flag_faults: Vec::new(),
            stripes: 1,
            recover: None,
            mechanism: CopyMechanism::ProgressionEngine,
            shmem_heap_bytes: 1 << 22,
            shmem_faults: Vec::new(),
            shmem_heap_fail: Vec::new(),
        }
    }
}

struct WorldInner {
    config: WorldConfig,
    topology: Topology,
    fabric: Fabric,
    universe: UcxUniverse,
    /// The once-per-world symmetric heap (registered at construction;
    /// [`CopyMechanism::Shmem`] channels bind into it).
    shmem_heap: SymmetricHeap,
    matching: MatchTable,
    /// Worker address of each rank, filled as ranks start.
    addresses: Mutex<Vec<Option<WorkerAddress>>>,
    size: usize,
    start_barrier: SimBarrier,
    /// The one registry every layer of this world counts into.
    metrics: MetricsRegistry,
    instruments: MpiInstruments,
}

/// The simulated `MPI_COMM_WORLD`. Cheap to clone.
#[derive(Clone)]
pub struct MpiWorld {
    inner: Arc<WorldInner>,
}

impl MpiWorld {
    /// Build a world over a fresh fabric; one rank per GPU. Panics on a
    /// malformed cluster spec; use [`MpiWorld::try_new`] for the typed
    /// error.
    pub fn new(sim: &Simulation, config: WorldConfig) -> Self {
        MpiWorld::try_new(sim, config).unwrap_or_else(|e| panic!("MPI world construction: {e}"))
    }

    /// Fallible form of [`MpiWorld::new`]: validates the cluster shape and
    /// returns [`crate::MpiError::InvalidTopology`] instead of panicking on
    /// a degenerate spec (zero nodes, zero GPUs, more NICs than GPUs, …).
    pub fn try_new(sim: &Simulation, config: WorldConfig) -> Result<Self, crate::MpiError> {
        let metrics = MetricsRegistry::new();
        let fabric = Fabric::try_new(sim.handle(), config.cluster.clone(), &metrics)
            .map_err(crate::MpiError::InvalidTopology)?;
        let topology = fabric.topology();
        if let Some(nf) = &config.net_faults {
            fabric.arm_faults(nf.clone());
        }
        let universe = UcxUniverse::new(fabric.clone(), &metrics);
        let size = topology.num_ranks();
        // The symmetric heap registers once here — per-rank base offsets
        // are deterministic from this point and no rkey ever travels for
        // buffers bound into it.
        let shmem_heap =
            SymmetricHeap::new(size, config.shmem_heap_bytes, &config.shmem_heap_fail, &metrics);
        let instruments = MpiInstruments::new(&metrics);
        Ok(MpiWorld {
            inner: Arc::new(WorldInner {
                config,
                topology,
                fabric,
                universe,
                shmem_heap,
                matching: MatchTable::new(),
                addresses: Mutex::new(vec![None; size]),
                size,
                start_barrier: SimBarrier::new(size),
                metrics,
                instruments,
            }),
        })
    }

    /// The world's live [`MetricsRegistry`]: fabric, UCX, symmetric-heap,
    /// MPI-layer, GPU and mux instruments. Every layer counts into it from
    /// construction on, so the registry may be fetched at any time, before
    /// or after the run; nothing is switched on by the call.
    pub fn enable_metrics(&self) -> MetricsRegistry {
        self.inner.metrics.clone()
    }

    /// The MPI-layer instruments.
    pub fn instruments(&self) -> &MpiInstruments {
        &self.inner.instruments
    }

    /// GH200 world with `nodes` nodes.
    pub fn gh200(sim: &Simulation, nodes: u16) -> Self {
        MpiWorld::new(sim, WorldConfig::gh200(nodes))
    }

    /// Number of ranks (== number of GPUs).
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.inner.config
    }

    /// The cluster fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The UCX universe (shared by the Partitioned component).
    pub fn universe(&self) -> &UcxUniverse {
        &self.inner.universe
    }

    /// The world's symmetric heap (registered once at construction).
    pub fn shmem_heap(&self) -> &SymmetricHeap {
        &self.inner.shmem_heap
    }

    /// The validated cluster topology (rank ↔ GPU mapping, locality
    /// queries, NIC rails).
    pub fn topology(&self) -> Topology {
        self.inner.topology.clone()
    }

    /// The GPU identity rank `r` drives.
    pub fn gpu_of(&self, r: usize) -> GpuId {
        self.inner.topology.gpu_of(r)
    }

    /// The node rank `r` runs on.
    pub fn node_of(&self, r: usize) -> u16 {
        self.inner.topology.node_of(r)
    }

    pub(crate) fn matching(&self) -> &MatchTable {
        &self.inner.matching
    }

    pub(crate) fn worker_address_of(&self, r: usize) -> WorkerAddress {
        self.inner.addresses.lock()[r].expect("rank not initialized yet")
    }

    /// Spawn one simulation process per rank running `body`. All ranks pass
    /// an internal start barrier after initializing (MPI_Init semantics:
    /// no rank proceeds until every worker address is published).
    pub fn run_ranks<F>(&self, sim: &mut Simulation, body: F)
    where
        F: Fn(&mut Ctx, &mut Rank) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        for r in 0..self.inner.size {
            let world = self.clone();
            let body = body.clone();
            sim.spawn(format!("rank{r}"), move |ctx| {
                let mut rank = Rank::init(ctx, world, r);
                body(ctx, &mut rank);
            });
        }
    }
}

impl std::fmt::Debug for MpiWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpiWorld").field("size", &self.inner.size).finish()
    }
}

/// The per-rank MPI handle: identity, device, worker, and the progression
/// engine. The MPI surface (send/recv, allreduce, barrier) hangs off this.
///
/// Every field is a shared handle, so a clone is the same rank: async code
/// run under `Ctx::block_on` takes one into its `'static` future.
#[derive(Clone)]
pub struct Rank {
    world: MpiWorld,
    rank: usize,
    gpu: Gpu,
    worker: Worker,
    progression: ProgressionEngine,
    /// Keeps the engine's hooks alive while this rank runs (the engine
    /// handle holds them weakly).
    _hooks: HookOwner,
}

impl Rank {
    fn init(ctx: &mut Ctx, world: MpiWorld, rank: usize) -> Rank {
        let gpu_id = world.gpu_of(rank);
        let gpu =
            Gpu::new(gpu_id, world.inner.config.cost.clone(), ctx.handle(), &world.inner.metrics);
        gpu.set_rank(rank as u32);
        if let Some((_, ef)) = world
            .inner
            .config
            .gpu_flag_faults
            .iter()
            .find(|(r, _)| *r == rank)
        {
            gpu.arm_emission_faults(ef.clone());
        }
        if let Some((_, ef)) = world
            .inner
            .config
            .shmem_faults
            .iter()
            .find(|(r, _)| *r == rank)
        {
            gpu.arm_shmem_signal_faults(ef.clone());
        }
        let worker = world
            .inner
            .universe
            .create_worker(Location { node: gpu_id.node, unit: Unit::Cpu });
        world.inner.addresses.lock()[rank] = Some(worker.address());
        let pe_fault = world
            .inner
            .config
            .pe_faults
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, f)| f.clone());
        let (progression, hooks) = ProgressionEngine::start(
            ctx,
            rank,
            SimDuration::from_micros_f64(world.inner.config.progress_poll_us),
            pe_fault,
            world.instruments().clone(),
        );
        // MPI_Init barrier: every rank's worker address is published before
        // anyone communicates.
        world.inner.start_barrier.wait(ctx);
        Rank { world, rank, gpu, worker, progression, _hooks: hooks }
    }

    /// This rank's index in the world.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The world this rank belongs to.
    pub fn world(&self) -> &MpiWorld {
        &self.world
    }

    /// The cluster topology of this rank's world.
    pub fn topology(&self) -> Topology {
        self.world.topology()
    }

    /// The GPU this rank drives.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// This rank's UCP worker.
    pub fn worker(&self) -> &Worker {
        &self.worker
    }

    /// This rank's progression engine.
    pub fn progression(&self) -> &ProgressionEngine {
        &self.progression
    }

    /// Worker address of a peer rank (available after MPI_Init).
    pub fn peer_address(&self, r: usize) -> WorkerAddress {
        self.world.worker_address_of(r)
    }

    /// Host software overhead per MPI call.
    pub fn mpi_overhead(&self) -> SimDuration {
        SimDuration::from_micros_f64(MPI_CALL_OVERHEAD_US)
    }

    /// Synchronize all ranks (zero-cost alignment barrier used by the
    /// benchmark harnesses; real MPI_Barrier latency is not modeled because
    /// no measured region in the paper contains one).
    pub fn barrier(&self, ctx: &mut Ctx) {
        self.world.inner.start_barrier.wait(ctx);
    }

    /// Async [`Rank::barrier`].
    pub async fn barrier_async(&self, p: &Proc) {
        self.world.inner.start_barrier.wait_async(p).await;
    }
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rank").field("rank", &self.rank).field("gpu", &self.gpu.id()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_levels_are_ordered() {
        assert!(EscalationLevel::PutRetry < EscalationLevel::EpochReplay);
        assert!(EscalationLevel::EpochReplay < EscalationLevel::Unrecoverable);
    }

    #[test]
    fn report_reads_counters_and_classifies() {
        let r = RecoveryReport::default();
        assert!(r.quiet());
        assert_eq!(r.highest_level(), EscalationLevel::None);
        let r = RecoveryReport { replays: 2, lease_expired: 1, ..Default::default() };
        assert_eq!(r.highest_level(), EscalationLevel::EpochReplay);
        let r = RecoveryReport { host_drains: 1, ..Default::default() };
        assert_eq!(r.highest_level(), EscalationLevel::LeaseTakeover);
    }
}
