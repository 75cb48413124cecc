//! Chaos cells: run a canonical workload under a [`FaultPlan`] and
//! classify the outcome.
//!
//! A [`ChaosRun`] captures the three observables the fault-injection
//! contract is stated in:
//!
//! - **digest** — the deterministic trace digest (same `(sim seed, plan)`
//!   ⇒ same digest, replayable byte for byte);
//! - **numeric** — the workload's rank-0 numeric result (survivable faults
//!   must leave it bit-identical to the fault-free run: latency, never
//!   integrity);
//! - **errors** — the typed [`MpiError`]s ranks returned (unsurvivable
//!   faults must land here instead of hanging the run).
//!
//! A [`Cell`] is one workload plus the world axes it runs under; every
//! campaign cell and every single-plan replay goes through [`Cell::run`].
//! [`run_world`] runs a custom rank program on the default axes, and
//! [`run_allreduce`] is the canonical cell the frozen digests anchor on:
//! with [`FaultPlan::none`] its digest reproduces the pre-fault-PR
//! baselines exactly (see `tests/chaos.rs`).

use std::sync::Arc;

use parcomm_apps::{run_jacobi, run_moe, JacobiConfig, JacobiModel, MoeConfig};
use parcomm_coll::pallreduce_init;
use parcomm_core::{precv_init, prequest_create, psend_init, CopyMechanism, PrequestConfig};
use parcomm_gpu::KernelSpec;
use parcomm_mpi::{MpiError, MpiWorld, Rank, RecoverConfig, WorldConfig};
use parcomm_net::ClusterSpec;
use parcomm_obs::MetricsSnapshot;
use parcomm_sim::{Ctx, Mutex, Simulation};
use parcomm_testkit::digest;

use crate::FaultPlan;

/// The classified outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Deterministic digest of the run (trace + report + rank-0 numerics).
    pub digest: u64,
    /// Virtual end time of the simulation (µs) — the goodput denominator.
    pub end_time_us: f64,
    /// Rank-0's numeric observable (reduced buffer / solver checksum).
    pub numeric: Vec<f64>,
    /// Typed errors returned by ranks, in rank order.
    pub errors: Vec<(usize, MpiError)>,
    /// End-of-run metrics across every layer (PE polls, puts, retransmits,
    /// watchdog arms/fires, per-rail bytes). Instruments are pure atomics,
    /// so collecting them leaves the digest untouched.
    pub metrics: MetricsSnapshot,
}

impl ChaosRun {
    /// True if every rank completed without a typed error.
    pub fn survived(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The rank program a [`Cell`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The canonical partitioned allreduce: 4 user partitions, 64 f64 per
    /// partition-chunk, device-side `MPIX_Pready`. Rank 0 keeps the
    /// reduced buffer.
    Allreduce,
    /// Device-initiated p2p: rank 1 launches a kernel whose threads mark
    /// partitions ready on a 4-partition psend to rank 0, so the device
    /// emission path — flag writes under the classic protocols, symmetric
    /// puts + signals under [`CopyMechanism::Shmem`] — is exactly what the
    /// fault schedule meets. The collective cannot exercise shmem-signal
    /// faults (its engine hands partitions to the host in one aggregated
    /// flag write and then issues the symmetric puts host-side), so
    /// campaigns route shmem-signal plans here. On an oversubscribed shape
    /// ranks 0 and 1 share GPU 0, which drives the `SameGpu` route regime.
    /// Rank 0 keeps the delivered payload.
    DeviceP2p,
    /// The mux-admitted MoE dispatch/combine: every rank admits its share
    /// of a ~[`Cell::channels`]-channel grid through a `MuxService` and
    /// runs one layer, so faults meet *multiplexed* load. Under
    /// `KernelCopy` and `Shmem` the sends are device-initiated. Rank 0
    /// keeps `(checksum, tokens_routed, tokens_dropped, channels)`.
    Moe,
    /// The functional-test Jacobi solver with GPU-initiated partitioned
    /// halo exchange. Rank 0 keeps the solver checksum, which the digest
    /// folds in as one bare `f64` (the frozen Jacobi recipe).
    Jacobi,
}

/// One chaos cell: a workload and the world axes it runs under. The axes
/// land in [`WorldConfig`] beside the fault plan, so at [`Cell::new`]'s
/// defaults the world is exactly `WorldConfig::gh200(nodes)`.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The rank program.
    pub workload: Workload,
    /// Cluster shape (uniform, ragged or oversubscribed).
    pub cluster: ClusterSpec,
    /// Cross-node stripe count.
    pub stripes: usize,
    /// Copy mechanism the world negotiates. Under `Shmem` intra-node
    /// channels ride the symmetric heap while route-forbidden cross-node
    /// channels demote to the Progression Engine, so the axis is safe at
    /// any node count.
    pub mechanism: CopyMechanism,
    /// Per-rank mux channel budget of the [`Workload::Moe`] program.
    pub channels: usize,
    /// The recovery escalation ladder, armed when `Some`.
    pub recover: Option<RecoverConfig>,
}

impl Cell {
    /// `workload` on a uniform `nodes`-node GH200 world: one stripe, the
    /// Progression Engine, one channel, recovery off.
    pub fn new(workload: Workload, nodes: u16) -> Cell {
        Cell {
            workload,
            cluster: ClusterSpec::gh200(nodes),
            stripes: 1,
            mechanism: CopyMechanism::ProgressionEngine,
            channels: 1,
            recover: None,
        }
    }

    /// Run the cell's workload under `plan` with simulation seed `seed`.
    pub fn run(&self, seed: u64, plan: &FaultPlan) -> ChaosRun {
        let mechanism = self.mechanism;
        match self.workload {
            Workload::Allreduce => self.execute(seed, plan, allreduce_body),
            Workload::DeviceP2p => {
                self.execute(seed, plan, move |ctx, rank| device_p2p_body(ctx, rank, mechanism))
            }
            Workload::Moe => {
                let topo = self.cluster.topology().expect("chaos cell cluster validates");
                let cfg = moe_config(topo.num_ranks(), self.channels, mechanism);
                self.execute(seed, plan, move |ctx, rank| {
                    let res = run_moe(ctx, rank, &cfg)?;
                    Ok(vec![
                        res.checksum,
                        res.tokens_routed as f64,
                        res.tokens_dropped as f64,
                        res.channels as f64,
                    ])
                })
            }
            Workload::Jacobi => self.execute(seed, plan, move |ctx, rank| {
                let cfg = JacobiConfig::functional_test(JacobiModel::Partitioned(mechanism));
                Ok(vec![run_jacobi(ctx, rank, &cfg)?.checksum])
            }),
        }
    }

    /// Build the cell's world under `plan`, run `body` on every rank and
    /// classify the outcome. The body returns this rank's numeric
    /// observable (rank 0's is kept) or a typed error (recorded; the run
    /// itself still completes).
    fn execute<F>(&self, seed: u64, plan: &FaultPlan, body: F) -> ChaosRun
    where
        F: Fn(&mut Ctx, &mut Rank) -> Result<Vec<f64>, MpiError> + Send + Sync + 'static,
    {
        let mut sim = Simulation::with_seed(seed);
        let trace = sim.trace();
        trace.enable();
        let mut cfg = WorldConfig {
            cluster: self.cluster.clone(),
            stripes: self.stripes,
            mechanism: self.mechanism,
            recover: self.recover.clone(),
            ..WorldConfig::gh200(1)
        };
        plan.apply(&mut cfg);
        let world = MpiWorld::new(&sim, cfg);
        let registry = world.enable_metrics();
        let numeric = Arc::new(Mutex::new(Vec::new()));
        let errors = Arc::new(Mutex::new(Vec::new()));
        let (n2, e2) = (numeric.clone(), errors.clone());
        world.run_ranks(&mut sim, move |ctx, rank| match body(ctx, rank) {
            Ok(vals) => {
                if rank.rank() == 0 {
                    *n2.lock() = vals;
                }
            }
            Err(e) => e2.lock().push((rank.rank(), e)),
        });
        let report = sim.run().expect("chaos sim completes (watchdogs bound every wait)");
        let mut errors = Arc::try_unwrap(errors).expect("ranks done").into_inner();
        errors.sort_by_key(|(r, _)| *r);
        let mut numeric = Arc::try_unwrap(numeric).expect("ranks done").into_inner();
        let mut d = digest::Digest::new();
        d.write_u64(digest::run_digest(&report, &trace));
        if self.workload == Workload::Jacobi {
            let checksum = numeric.first().copied().unwrap_or(0.0);
            numeric = vec![checksum];
            d.write_f64(checksum);
        } else {
            d.write_f64_slice(&numeric);
        }
        ChaosRun {
            digest: d.finish(),
            end_time_us: report.end_time.as_micros_f64(),
            numeric,
            errors,
            metrics: registry.snapshot(),
        }
    }
}

/// Run an arbitrary rank program under `plan` on a `nodes`-node GH200
/// world with the default cell axes. The body returns this rank's numeric
/// observable (rank 0's is kept) or a typed error (recorded; the run
/// itself still completes).
pub fn run_world<F>(seed: u64, plan: &FaultPlan, nodes: u16, body: F) -> ChaosRun
where
    F: Fn(&mut Ctx, &mut Rank) -> Result<Vec<f64>, MpiError> + Send + Sync + 'static,
{
    Cell::new(Workload::Allreduce, nodes).execute(seed, plan, body)
}

/// The canonical partitioned-allreduce chaos cell, identical to the
/// frozen-baseline recipe: with [`FaultPlan::none`] its digest is
/// byte-identical to the pre-fault-injection build.
pub fn run_allreduce(seed: u64, plan: &FaultPlan, nodes: u16) -> ChaosRun {
    Cell::new(Workload::Allreduce, nodes).run(seed, plan)
}

/// The MoE configuration for a `channels`-per-rank budget on a `ranks`-rank
/// world: tenants are scaled so every rank admits roughly `channels` mux
/// channels (each tenant opens 4 channels per peer — dispatch/combine ×
/// send/recv), with an 8:1 hot tenant up front whenever there is more than
/// one. Tiny tokens keep the per-channel payload cheap so the axis scales
/// channel *count*, not bytes.
fn moe_config(ranks: usize, channels: usize, mechanism: CopyMechanism) -> MoeConfig {
    let peers = ranks - 1;
    let tenants = (channels / (4 * peers)).max(1);
    let mut tenant_weights = vec![1u64; tenants];
    tenant_weights[0] = if tenants > 1 { 8 } else { 1 };
    MoeConfig {
        tenants,
        tenant_weights,
        tokens_per_rank: 8,
        hidden: 2,
        layers: 1,
        capacity_factor_pct: 200,
        mechanism,
        functional: true,
        seed: 0x0E0E,
    }
}

/// Rank program of [`Workload::DeviceP2p`]: intra-node 1 -> 0, 4 user
/// partitions x 1 KiB, 2 transport partitions, progressive device pready
/// with `copy` matching the world mechanism.
fn device_p2p_body(
    ctx: &mut Ctx,
    rank: &mut Rank,
    mechanism: CopyMechanism,
) -> Result<Vec<f64>, MpiError> {
    let parts = 4usize;
    let buf = rank.gpu().alloc_global(parts * 1024);
    match rank.rank() {
        1 => {
            for u in 0..parts {
                buf.write_f64_slice(u * 1024, &[(u * 3 + 1) as f64; 128]);
            }
            let sreq = psend_init(ctx, rank, 0, 19, &buf, parts)?;
            sreq.start(ctx)?;
            sreq.pbuf_prepare(ctx)?;
            let preq = prequest_create(ctx, rank, &sreq, PrequestConfig {
                copy: mechanism,
                transport_partitions: 2,
                ..PrequestConfig::default()
            })?;
            let stream = rank.gpu().create_stream();
            stream.launch(ctx, KernelSpec::vector_add(2, 256), move |d| {
                preq.pready_all_progressive(d)
            });
            sreq.wait(ctx)?;
            Ok(Vec::new())
        }
        0 => {
            let rreq = precv_init(ctx, rank, 1, 19, &buf, parts)?;
            rreq.start(ctx)?;
            rreq.pbuf_prepare(ctx)?;
            rreq.wait(ctx)?;
            Ok((0..parts).map(|u| buf.read_f64(u * 1024)).collect())
        }
        _ => Ok(Vec::new()),
    }
}

/// The canonical allreduce rank program shared by every chaos workload
/// variant (identical code path ⇒ identical digests whatever the config
/// knobs around it).
fn allreduce_body(ctx: &mut Ctx, rank: &mut Rank) -> Result<Vec<f64>, MpiError> {
    let partitions = 4usize;
    let n = partitions * rank.size() * 64;
    let buf = rank.gpu().alloc_global(n * 8);
    let vals: Vec<f64> = (0..n).map(|i| (rank.rank() * 31 + i) as f64).collect();
    buf.write_f64_slice(0, &vals);
    let stream = rank.gpu().create_stream();
    let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 90)?;
    coll.start(ctx)?;
    coll.pbuf_prepare(ctx)?;
    let c2 = coll.clone();
    stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| c2.pready_device_all(d));
    coll.wait(ctx)?;
    Ok(buf.read_f64_slice(0, n))
}
