//! Host-cost regression tests for the partitioned allreduce.
//!
//! `MPI_Wait`, host `MPI_Pready` and the progression-engine drain run
//! Algorithm 2 as a future under `Ctx::block_on`: while a rank is parked
//! inside it, the scheduler polls the future in place instead of switching
//! to the rank's OS thread. These tests pin what that must not change — the
//! event count, recorded from the blocking implementation it replaced — and
//! what it must: thread handoffs are a small fraction of events.

use std::sync::Arc;

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
    assert!(
        report.handoffs * 10 < report.events_processed,
        "{} handoffs over {} events: parked ranks must be polled in place",
        report.handoffs,
        report.events_processed
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
    RecoverPolicy::new().apply(&mut cfg);
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
