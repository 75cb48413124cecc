//! Host-cost regression tests for code that runs as futures.
//!
//! Each rank's `MPI_Init` is the init future of its process: it runs in
//! place, and the rank takes its worker thread only when its body starts.
//! `MPI_Wait`, host `MPI_Pready` and the progression-engine drain run
//! Algorithm 2 as a future under `Ctx::block_on`, and so do the partitioned
//! p2p calls and each rank's progression-engine daemon. The MoE app's whole
//! rank body after `MPI_Init` (admission, prequest creation, barrier, and
//! every dispatch, expert charge and combine) is one such future. While a
//! process is parked inside one, the scheduler polls the future in place
//! instead of switching to the process's OS thread. The progression-engine daemons go
//! further: they are thread-free processes, so they cost no handoff at all.
//! These tests pin what that must not change — the event count, recorded
//! from the blocking implementation it replaced — and what it must: thread
//! handoffs are a small fraction of events. Handoff counts are as
//! deterministic as event counts, so the allreduce and MoE cells pin them
//! exactly.

use std::sync::Arc;

use parcomm::apps::{moe_reference, run_moe, MoeConfig};
use parcomm::coll::pallreduce_init_hierarchical;
use parcomm::mpi::PeFaultConfig;
use parcomm::prelude::*;
use parcomm::sim::{Mutex, SimReport};

/// Run `body` on every rank of a world built from `cfg`, returning the
/// simulation report and the recovery host-drain count.
fn run_world(
    seed: u64,
    cfg: WorldConfig,
    body: impl Fn(&mut Ctx, &mut Rank) + Send + Sync + 'static,
) -> (SimReport, u64) {
    let mut sim = Simulation::with_seed(seed);
    let world = MpiWorld::new(&sim, cfg);
    let registry = world.enable_metrics();
    world.run_ranks(&mut sim, body);
    let report = sim.run().expect("allreduce run completes");
    let drains = registry.snapshot().counter("mpi.recover.host_drains").unwrap_or(0);
    (report, drains)
}

/// The 2-node, 8-rank hierarchical `Pallreduce`: 4 user partitions of
/// 16 Ki doubles, device-side `MPIX_Pready`, 3 epochs, each checked
/// against the exact sum.
fn hierarchical_allreduce(ctx: &mut Ctx, rank: &mut Rank, failures: &Mutex<usize>) {
    const LEN: usize = 64 * 1024;
    let me = rank.rank();
    let size = rank.size();
    let buf = rank.gpu().alloc_global(LEN * 8);
    let stream = rank.gpu().create_stream();
    let coll =
        pallreduce_init_hierarchical(ctx, rank, &buf, 4, &stream, 11).expect("allreduce init");
    for epoch in 0..3 {
        let input: Vec<f64> = (0..LEN).map(|i| ((me + epoch) * 7 + i % 97) as f64).collect();
        buf.write_f64_slice(0, &input);
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        let c2 = coll.clone();
        stream.launch(ctx, KernelSpec::vector_add(64, 1024), move |d| c2.pready_device_all(d));
        coll.wait(ctx).expect("wait");
        let got = buf.read_f64_slice(0, LEN);
        let bad = got.iter().enumerate().any(|(i, &v)| {
            let want: usize = (0..size).map(|r| (r + epoch) * 7 + i % 97).sum();
            v != want as f64
        });
        if bad {
            *failures.lock() += 1;
        }
    }
}

/// `events_processed` of [`hierarchical_allreduce`] at seed 0x5EED, and its
/// process count, as measured on the blocking implementation of
/// Algorithm 2.
const HIER_EVENTS: u64 = 12_777;
const HIER_PROCESSES: u64 = 16;
/// Thread handoffs of the same run: 8 rank threads, each started once, when
/// the `MPI_Init` barrier has released it, and woken at its `block_on`
/// completions, one per collective entry point. With a blocking `MPI_Init`
/// the count was 119: 7 more, the wakes from its barrier (its last arriver
/// does not park). With `MPIX_Pbuf_prepare` and `MPI_Wait` blocking once
/// per channel instead of awaiting every channel in one future as well, it
/// was 191; with each PE daemon run under `spawn_daemon` + `block_on`
/// instead of as a thread-free process as well, 207: 2 more per daemon, its
/// start and its final baton pass.
const HIER_HANDOFFS: u64 = 112;

#[test]
fn hierarchical_allreduce_keeps_event_count_with_few_handoffs() {
    let failures = Arc::new(Mutex::new(0));
    let f2 = failures.clone();
    let (report, _) = run_world(0x5EED, WorldConfig::gh200(2), move |ctx, rank| {
        hierarchical_allreduce(ctx, rank, &f2)
    });
    assert_eq!(*failures.lock(), 0, "every rank's reduced buffer must be exact");
    assert_eq!(report.events_processed, HIER_EVENTS, "event count drifted");
    assert_eq!(report.processes, HIER_PROCESSES, "process count drifted");
    assert_eq!(
        report.handoffs, HIER_HANDOFFS,
        "parked ranks must be polled in place, and PE daemons need no thread"
    );
}

/// `events_processed` of the crashed-PE run below at seed 0xA11CE, as
/// measured on the blocking implementation of the recovery ladder.
const CRASH_EVENTS: u64 = 959;

#[test]
fn recover_armed_allreduce_survives_pe_crash_under_block_on() {
    // Rank 1's progression engine dies at 80 µs, mid-epoch, with device
    // readiness still queued: only the ladder's host-drain takeover, run
    // inside rank 1's `MPI_Wait` future, can activate those partitions.
    let mut cfg = WorldConfig::gh200(1);
    cfg.pe_faults =
        vec![(1, PeFaultConfig { crash_at_us: Some(80.0), ..PeFaultConfig::default() })];
    cfg.wait_watchdog_us = Some(5_000_000.0);
    cfg.recover = Some(RecoverConfig::default());
    let failures = Arc::new(Mutex::new(0));
    let f2 = failures.clone();
    let (report, drains) = run_world(0xA11CE, cfg, move |ctx, rank| {
        let partitions = 4usize;
        let p = rank.size();
        let n = partitions * p * 64;
        let buf = rank.gpu().alloc_global(n * 8);
        let vals: Vec<f64> = (0..n).map(|i| (rank.rank() * 31 + i) as f64).collect();
        buf.write_f64_slice(0, &vals);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 90).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        let c2 = coll.clone();
        stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| c2.pready_device_all(d));
        coll.wait(ctx).expect("the recovery ladder carries the epoch");
        let got = buf.read_f64_slice(0, n);
        let exact = got
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (31 * p * (p - 1) / 2 + p * i) as f64);
        if !exact {
            *f2.lock() += 1;
        }
    });
    assert_eq!(*failures.lock(), 0, "recovered sums must be exact");
    assert!(drains > 0, "the host-drain takeover must have fired");
    assert_eq!(report.events_processed, CRASH_EVENTS, "event count drifted");
    assert!(
        report.handoffs * 10 < report.events_processed,
        "{} handoffs over {} events",
        report.handoffs,
        report.events_processed
    );
}

/// `events_processed` and process count of [`moe_cell`] at seed 501, as
/// measured on the blocking implementation of admission, prequest creation
/// and the dispatch/combine phases (5,101 thread handoffs there).
const MOE_EVENTS: u64 = 13_415;
const MOE_PROCESSES: u64 = 16;
/// Thread handoffs of the same run: 8 rank starts, each once the `MPI_Init`
/// barrier has released it, and 8 completions of the one `block_on` that
/// runs each rank's MoE body. With a blocking `MPI_Init` the count was 23:
/// 7 more, the wakes from its barrier (its last arriver does not park).
/// With admission, prequest creation and each phase as separate futures,
/// and a blocking barrier and expert charge between them, it was 104; 120
/// with thread-backed PE daemons as well (see [`HIER_HANDOFFS`]).
const MOE_HANDOFFS: u64 = 16;

/// The benchmark's `moe` cell at seed 501: 2 GH200 nodes (8 ranks),
/// 3 tenants with the weights that seed draws, Progression Engine copies,
/// functional router and experts.
fn moe_cell() -> MoeConfig {
    MoeConfig {
        tenants: 3,
        tenant_weights: vec![4, 4, 3],
        tokens_per_rank: 64,
        hidden: 8,
        layers: 3,
        capacity_factor_pct: 150,
        mechanism: CopyMechanism::ProgressionEngine,
        functional: true,
        seed: 501,
    }
}

#[test]
fn moe_cell_keeps_event_count_with_few_handoffs() {
    let cfg = moe_cell();
    let checksums = Arc::new(Mutex::new(vec![None; 8]));
    let (sums, cell) = (checksums.clone(), cfg.clone());
    let (report, _) = run_world(501, WorldConfig::gh200(2), move |ctx, rank| {
        let r = run_moe(ctx, rank, &cell).expect("moe cell runs");
        sums.lock()[rank.rank()] = Some(r.checksum.to_bits());
    });
    let want: Vec<Option<u64>> =
        moe_reference(&cfg, 8).into_iter().map(|c| Some(c.to_bits())).collect();
    assert_eq!(*checksums.lock(), want, "per-rank checksums must match the serial reference");
    assert_eq!(report.events_processed, MOE_EVENTS, "event count drifted");
    assert_eq!(report.processes, MOE_PROCESSES, "process count drifted");
    assert_eq!(
        report.handoffs, MOE_HANDOFFS,
        "the MoE rank body and the PE daemons must be polled in place"
    );
}

/// Thread handoffs of bringing up a world whose rank bodies return at once:
/// one per rank, its start after the `MPI_Init` barrier. `MPI_Init` runs in
/// place, so none of it costs a handoff; a blocking `MPI_Init` cost 2N − 1
/// (7 for one node, 15 for two): each rank's start plus a wake from the
/// barrier for all but its last arriver.
#[test]
fn bring_up_costs_one_handoff_per_rank() {
    for (nodes, ranks) in [(1, 4), (2, 8)] {
        let (report, _) = run_world(7, WorldConfig::gh200(nodes), |_, _| {});
        assert_eq!(report.processes, 2 * ranks, "a rank and its PE daemon per GPU");
        assert_eq!(report.handoffs, ranks, "{nodes}-node bring-up");
    }
}

/// Rank 0 streams three host-driven epochs to rank 4 (the other node) with
/// the wait watchdog armed, so every handshake receive goes through
/// `am_recv_timeout_async` and every `MPI_Wait` through the watchdog. When
/// `receiver_prepares` is false, rank 4 never calls `MPIX_Pbuf_prepare`.
/// Returns the report and the sender's errors.
fn watchdog_p2p(receiver_prepares: bool) -> (SimReport, Vec<MpiError>) {
    const PARTS: usize = 8;
    let mut cfg = WorldConfig::gh200(2);
    cfg.wait_watchdog_us = Some(2_000.0);
    let errors = Arc::new(Mutex::new(Vec::new()));
    let e2 = errors.clone();
    let (report, _) = run_world(0xD06, cfg, move |ctx, rank| {
        let buf = rank.gpu().alloc_global(PARTS * 4096);
        match rank.rank() {
            0 => {
                let s = psend_init(ctx, rank, 4, 7, &buf, PARTS).expect("psend_init");
                for epoch in 0..3 {
                    buf.write_f64_slice(0, &vec![(epoch + 1) as f64; PARTS * 512]);
                    s.start(ctx).expect("start");
                    if let Err(e) = s.pbuf_prepare(ctx) {
                        e2.lock().push(e);
                        return;
                    }
                    s.pready_range(ctx, 0..PARTS).expect("pready");
                    s.wait(ctx).expect("send wait");
                }
            }
            4 => {
                let r = precv_init(ctx, rank, 0, 7, &buf, PARTS).expect("precv_init");
                if !receiver_prepares {
                    return;
                }
                for epoch in 0..3 {
                    r.start(ctx).expect("start");
                    r.pbuf_prepare(ctx).expect("recv prepare");
                    r.wait(ctx).expect("recv wait");
                    let got = buf.read_f64_slice(0, PARTS * 512);
                    assert!(got.iter().all(|&v| v == (epoch + 1) as f64), "epoch {epoch} payload");
                }
            }
            _ => {}
        }
    });
    let errors = errors.lock().clone();
    (report, errors)
}

#[test]
fn watchdog_armed_p2p_keeps_event_count_and_typed_timeout() {
    // Event counts as measured on the blocking handshake receive and wait.
    let (report, errors) = watchdog_p2p(true);
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(report.events_processed, 71, "event count drifted");

    let (report, errors) = watchdog_p2p(false);
    assert_eq!(report.events_processed, 37, "event count drifted");
    assert_eq!(
        errors,
        vec![MpiError::WaitTimeout {
            rank: 0,
            context: "psend setup reply (dst 4)".into(),
            completed: 0,
            expected: 1,
            timeout_us: 2_000.0,
        }]
    );
}
