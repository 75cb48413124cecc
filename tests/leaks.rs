//! Leak matrix: a finished simulation frees everything it allocated.
//!
//! Each cell runs one simulation of a workload family, then drops the
//! [`Simulation`] and its [`MpiWorld`], and checks two kinds of weak
//! handle:
//!
//! - every buffer the rank bodies allocated or were handed (payload
//!   buffers, a device request's pinned flags) is gone;
//! - the simulation itself is gone. Every model object (GPU, stream,
//!   fabric, channel, progression engine) holds a `SimHandle`, so a cycle
//!   anywhere in the stack keeps the scheduler state alive. This is also
//!   what checks the buffers a library allocates internally, such as the
//!   MoE app's channel buffers.
//!
//! The cells live in their own test binary so that no other test shares
//! the process while they run.

use std::sync::Arc;

use parcomm::apps::{run_moe, MoeConfig};
use parcomm::coll::pallreduce_init_hierarchical;
use parcomm::gpu::WeakBuffer;
use parcomm::mpi::PeFaultConfig;
use parcomm::prelude::*;
use parcomm::sim::{Mutex, WeakSimHandle};

/// Weak handles the rank bodies record as they allocate.
type Allocated = Arc<Mutex<Vec<WeakBuffer>>>;

/// Run `body` on every rank of a world built from `cfg`, drop the
/// simulation and the world, and return what must now be gone plus the
/// recovery host-drain count.
fn run_and_drop(
    seed: u64,
    cfg: WorldConfig,
    body: impl Fn(&mut Ctx, &mut Rank, &Allocated) + Send + Sync + 'static,
) -> (WeakSimHandle, Vec<WeakBuffer>, u64) {
    let mut sim = Simulation::with_seed(seed);
    let weak_sim = sim.handle().downgrade();
    let world = MpiWorld::new(&sim, cfg);
    let registry = world.enable_metrics();
    let allocated: Allocated = Arc::new(Mutex::new(Vec::new()));
    let a2 = allocated.clone();
    world.run_ranks(&mut sim, move |ctx, rank| body(ctx, rank, &a2));
    sim.run().expect("the cell completes");
    drop(world);
    let drains = registry.snapshot().counter("mpi.recover.host_drains").unwrap_or(0);
    let buffers = std::mem::take(&mut *allocated.lock());
    (weak_sim, buffers, drains)
}

/// Assert that nothing the cell allocated outlived it.
fn assert_freed(cell: &str, weak_sim: &WeakSimHandle, buffers: &[WeakBuffer]) {
    let live = buffers.iter().filter(|b| b.is_live()).count();
    assert_eq!(live, 0, "{cell}: {live} of {} buffers outlived the simulation", buffers.len());
    assert!(!weak_sim.is_live(), "{cell}: the simulation outlived its run");
}

/// How the sender of [`p2p_body`] marks its partitions ready.
#[derive(Copy, Clone, Debug)]
enum Ready {
    /// A device request with this copy mechanism, `pready_all_progressive`.
    Device(CopyMechanism),
    /// Host `MPI_Pready` over every partition; no device request.
    Host,
}

/// Rank 0 sends one 4-partition epoch to rank 1 (intra-node); both sides
/// check the payload and record their buffers.
fn p2p_body(ctx: &mut Ctx, rank: &mut Rank, ready: Ready, allocated: &Allocated) {
    const PARTS: usize = 4;
    let buf = rank.gpu().alloc_global(PARTS * 1024);
    allocated.lock().push(buf.downgrade());
    match rank.rank() {
        0 => {
            for u in 0..PARTS {
                buf.write_f64_slice(u * 1024, &[(u * 3 + 1) as f64; 128]);
            }
            let sreq = psend_init(ctx, rank, 1, 11, &buf, PARTS).expect("init");
            sreq.start(ctx).expect("start");
            sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            match ready {
                Ready::Device(copy) => {
                    let preq = prequest_create(ctx, rank, &sreq, PrequestConfig {
                        copy,
                        transport_partitions: 2,
                        ..PrequestConfig::default()
                    })
                    .expect("prequest");
                    allocated.lock().push(preq.pinned_flags().downgrade());
                    let stream = rank.gpu().create_stream();
                    stream.launch(ctx, KernelSpec::vector_add(2, 256), move |d| {
                        preq.pready_all_progressive(d)
                    });
                }
                Ready::Host => sreq.pready_range(ctx, 0..PARTS).expect("pready_range"),
            }
            sreq.wait(ctx).expect("send wait");
        }
        1 => {
            let rreq = precv_init(ctx, rank, 0, 11, &buf, PARTS).expect("init");
            rreq.start(ctx).expect("start");
            rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            rreq.wait(ctx).expect("recv wait");
            for u in 0..PARTS {
                assert_eq!(buf.read_f64(u * 1024), (u * 3 + 1) as f64, "partition {u}");
            }
        }
        _ => {}
    }
}

fn p2p_cell(cell: &str, cfg: WorldConfig, ready: Ready) {
    let (weak_sim, buffers, _) =
        run_and_drop(0x1EA4, cfg, move |ctx, rank, a| p2p_body(ctx, rank, ready, a));
    assert_freed(cell, &weak_sim, &buffers);
}

#[test]
fn device_prequest_pe_p2p_frees_its_world() {
    p2p_cell("PE", WorldConfig::gh200(1), Ready::Device(CopyMechanism::ProgressionEngine));
}

#[test]
fn device_prequest_kernel_copy_p2p_frees_its_world() {
    p2p_cell("KC", WorldConfig::gh200(1), Ready::Device(CopyMechanism::KernelCopy));
}

#[test]
fn device_prequest_shmem_p2p_frees_its_world() {
    let cfg = WorldConfig { mechanism: CopyMechanism::Shmem, ..WorldConfig::gh200(1) };
    p2p_cell("shmem", cfg, Ready::Device(CopyMechanism::Shmem));
}

#[test]
fn host_pready_p2p_frees_its_world() {
    p2p_cell("host pready", WorldConfig::gh200(1), Ready::Host);
}

#[test]
fn hierarchical_allreduce_frees_its_world() {
    const LEN: usize = 16 * 1024;
    let (weak_sim, buffers, _) = run_and_drop(0x5EED, WorldConfig::gh200(2), |ctx, rank, a| {
        let buf = rank.gpu().alloc_global(LEN * 8);
        a.lock().push(buf.downgrade());
        buf.write_f64_slice(0, &vec![rank.rank() as f64; LEN]);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init_hierarchical(ctx, rank, &buf, 4, &stream, 11).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        let c2 = coll.clone();
        stream.launch(ctx, KernelSpec::vector_add(16, 1024), move |d| c2.pready_device_all(d));
        coll.wait(ctx).expect("wait");
        let want = (0..rank.size()).sum::<usize>() as f64;
        assert!(buf.read_f64_slice(0, LEN).iter().all(|&v| v == want), "exact sum");
    });
    assert_freed("allreduce", &weak_sim, &buffers);
}

#[test]
fn moe_over_mux_frees_its_world() {
    let cfg = MoeConfig {
        tenants: 2,
        tenant_weights: vec![2, 1],
        tokens_per_rank: 16,
        hidden: 4,
        layers: 1,
        capacity_factor_pct: 150,
        mechanism: CopyMechanism::ProgressionEngine,
        functional: true,
        seed: 501,
    };
    // The app allocates its channel buffers itself, so the simulation
    // handle is what watches them.
    let (weak_sim, buffers, _) = run_and_drop(501, WorldConfig::gh200(2), move |ctx, rank, _| {
        run_moe(ctx, rank, &cfg).expect("moe cell runs");
    });
    assert_freed("moe", &weak_sim, &buffers);
}

/// Host drains of [`pe_crash_recovery_frees_its_world`]'s run, as measured
/// before device requests stopped leaking: freeing must not change how
/// often the recovery ladder takes over the device queue.
const CRASH_HOST_DRAINS: u64 = 1;

#[test]
fn pe_crash_recovery_frees_its_world() {
    // The sender's progression engine dies before its first sweep, so the
    // device notifications stay queued (and its hook stays registered)
    // until `MPI_Wait`'s recovery ladder drains them from the host.
    let mut cfg = WorldConfig::gh200(1);
    cfg.pe_faults = vec![(0, PeFaultConfig { crash_at_us: Some(1.0), ..PeFaultConfig::default() })];
    cfg.wait_watchdog_us = Some(5_000_000.0);
    cfg.recover = Some(RecoverConfig::default());
    let ready = Ready::Device(CopyMechanism::ProgressionEngine);
    let (weak_sim, buffers, drains) =
        run_and_drop(0xA11CE, cfg, move |ctx, rank, a| p2p_body(ctx, rank, ready, a));
    assert_eq!(drains, CRASH_HOST_DRAINS, "host drains");
    assert_freed("PE crash", &weak_sim, &buffers);
}
