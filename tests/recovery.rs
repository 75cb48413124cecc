//! Recovery conformance suite — the escalation-ladder contract end to end:
//!
//! 1. **Digest neutrality** — arming recovery with zero faults reproduces
//!    the frozen pre-recovery digests bit for bit;
//! 2. **PE crash mid-epoch** — lease detection, host drain, and epoch
//!    replay carry the run to numerics bit-identical to the fault-free
//!    baseline (while recovery-off still surfaces the typed error);
//! 3. **All rails down** — a finite full-node NIC outage recovers through
//!    generation-tagged epoch replay, numerics intact;
//! 4. **Idempotent replay** — spurious `recover_epoch` calls on a live
//!    epoch are harmless: duplicate puts land under a stale generation and
//!    are discarded (a seeded property test with shrinking);
//! 5. **Coverage-guided search beats the grid** — at equal cell budget the
//!    guided campaign reaches strictly more fault-class × layer coverage
//!    points than the fixed seed×rate grid, with zero contract failures.
//!
//! Past replay the ladder's last rung is typed surrender: once
//! `max_replays` replays make no progress, `MpiError::Unrecoverable`
//! surfaces instead of a hang.

use std::sync::Arc;

use parcomm::fault::chaos::{self, Cell, ChaosRun, Workload};
use parcomm::fault::{run_campaign, CampaignConfig, FaultPlan};
use parcomm::prelude::*;
use parcomm::mpi::EscalationLevel;
use parcomm::sim::Mutex;
use parcomm_testkit::prop::{check, PropConfig, TestResult};

/// The frozen whole-stack digests of `crates/faultsim/tests/chaos.rs`,
/// captured before the fault subsystem (and, a fortiori, before recovery)
/// existed. A recovery-armed zero-fault run must reproduce them exactly.
const FROZEN_ALLREDUCE: &[(u64, u64)] = &[
    (0xA11CE, 0x1398043747556f40),
    (0xB0B, 0x65b7d5c9b7bbbcb8),
    (0xC0C0A, 0xc1a31d5d266c8b20),
    (0xFA017, 0x3e5fdd5171c85ddd),
];

/// The canonical allreduce cell with the default recovery policy armed.
fn recovering(seed: u64, plan: &FaultPlan, nodes: u16) -> ChaosRun {
    let cell = Cell {
        recover: Some(RecoverConfig::default()),
        ..Cell::new(Workload::Allreduce, nodes)
    };
    cell.run(seed, plan)
}

#[test]
fn recovery_armed_zero_fault_reproduces_frozen_digests() {
    for &(seed, want) in FROZEN_ALLREDUCE {
        let run = recovering(seed, &FaultPlan::none(), 1);
        assert!(run.survived());
        assert_eq!(
            run.digest, want,
            "seed {seed:#x}: arming recovery perturbed the frozen zero-fault digest"
        );
        assert!(RecoveryReport::from_metrics(&run.metrics).quiet());
    }
    // Cross-node worlds have no frozen baseline of their own; equality with
    // the recovery-off run proves neutrality there too.
    for seed in [0xA11CE, 0xFA017] {
        let on = recovering(seed, &FaultPlan::none(), 2);
        let off = chaos::run_allreduce(seed, &FaultPlan::none(), 2);
        assert_eq!(on.digest, off.digest, "seed {seed:#x}: 2-node digest drift");
    }
}

#[test]
fn pe_crash_mid_epoch_recovers_bit_identical() {
    // The crash must land inside the epoch (runs end ~479 µs and the PE's
    // queue drains in the first ~200 µs; 80 µs is mid-flight).
    let plan = FaultPlan::none().with_pe_crash(1, 80.0).with_watchdog(5_000_000.0);
    let clean = chaos::run_allreduce(0xA11CE, &FaultPlan::none(), 1);

    // Recovery off: the crash is still the typed error it always was.
    let off = chaos::run_allreduce(0xA11CE, &plan, 1);
    assert!(!off.survived(), "recovery-off behavior must be unchanged");

    // Recovery on: lease expiry, host drain, epoch replay — and the
    // reduction is bit-identical to the fault-free run.
    let run = recovering(0xA11CE, &plan, 1);
    assert!(run.survived(), "PE crash must recover: {:?}", run.errors);
    assert_eq!(run.numeric, clean.numeric, "recovered numerics must match fault-free");
    let report = RecoveryReport::from_metrics(&run.metrics);
    assert!(report.lease_expired > 0, "lease detection must fire: {report:?}");
    assert!(report.host_drains > 0, "host drain must fire: {report:?}");
    assert!(report.highest_level() >= EscalationLevel::LeaseTakeover);

    // Replayable: the same (seed, plan, policy) reproduces the digest.
    let again = recovering(0xA11CE, &plan, 1);
    assert_eq!(run.digest, again.digest, "recovery must stay deterministic");
}

#[test]
fn all_rails_down_recovers_by_epoch_replay() {
    // All four NICs of node 0 dark for a finite window. It opens at 600 µs
    // — after the ~400 µs channel handshake settles (an outage overlapping
    // the handshake is genuinely unrecoverable; see DESIGN.md §13) — and
    // closes inside the 20 ms stall-detection horizon.
    let mut plan = FaultPlan::none().with_watchdog(5_000_000.0);
    for nic in 0..4u8 {
        plan = plan.with_nic_outage(0, nic, 600.0, 8_000.0).expect("valid window");
    }
    let clean = chaos::run_allreduce(0xA11CE, &FaultPlan::none(), 2);
    let run = recovering(0xA11CE, &plan, 2);
    assert!(run.survived(), "finite all-rails outage must recover: {:?}", run.errors);
    assert_eq!(run.numeric, clean.numeric, "replayed numerics must match fault-free");
    let report = RecoveryReport::from_metrics(&run.metrics);
    assert!(report.replays > 0, "epoch replay must have fired: {report:?}");
    assert_eq!(report.highest_level(), EscalationLevel::EpochReplay);
    let again = recovering(0xA11CE, &plan, 2);
    assert_eq!(run.digest, again.digest, "recovery must stay deterministic");
}

/// Deterministic per-byte payload, distinct across partitions and offsets.
fn pattern(part: usize, i: usize) -> u8 {
    ((part * 137 + i * 11) % 251) as u8
}

/// One cross-node psend/precv epoch (rank 3 → rank 4) with `replays`
/// spurious `recover_epoch` calls injected between `pready` and `wait`.
/// Returns the receiver's reassembled bytes plus the recovery counters.
fn p2p_with_spurious_replays(
    parts: usize,
    part_bytes: usize,
    replays: usize,
) -> (Vec<u8>, u64, u64) {
    let mut sim = Simulation::with_seed(0x1D3E_4B07);
    let world = MpiWorld::gh200(&sim, 2);
    let registry = world.enable_metrics();
    let received = Arc::new(Mutex::new(Vec::new()));
    let r2 = received.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let buf = rank.gpu().alloc_global(parts * part_bytes);
        match rank.rank() {
            3 => {
                for u in 0..parts {
                    let bytes: Vec<u8> = (0..part_bytes).map(|i| pattern(u, i)).collect();
                    buf.write_bytes(u * part_bytes, &bytes);
                }
                let sreq = psend_init(ctx, rank, 4, 11, &buf, parts).expect("psend init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                for _ in 0..replays {
                    sreq.recover_epoch(ctx);
                }
                sreq.wait(ctx).expect("wait");
            }
            4 => {
                let rreq = precv_init(ctx, rank, 3, 11, &buf, parts).expect("precv init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                *r2.lock() = buf.read_bytes(0, parts * part_bytes);
            }
            _ => {}
        }
    });
    sim.run().expect("p2p sim");
    let snap = registry.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let bytes = Arc::try_unwrap(received).expect("ranks done").into_inner();
    (bytes, c("mpi.recover.replays"), c("mpi.recover.stale_puts"))
}

/// Satellite 4 — property: epoch replay is idempotent. Any number of
/// spurious replays of a live epoch leaves the received payload
/// byte-identical to the expected pattern; superseded-generation
/// completions are discarded, never applied twice.
#[test]
fn spurious_epoch_replay_is_idempotent() {
    let cfg = PropConfig { cases: 10, ..PropConfig::default() };
    check(
        &cfg,
        "spurious_epoch_replay_is_idempotent",
        |rng| {
            (
                rng.uniform_range(1, 7),    // partitions
                rng.uniform_range(1, 2049), // bytes per partition
                rng.uniform_range(1, 4),    // spurious replays
            )
        },
        |&(parts, part_bytes, replays)| {
            if parts == 0 || part_bytes == 0 || replays == 0 {
                return TestResult::Discard;
            }
            let (parts, part_bytes, replays) =
                (parts as usize, part_bytes as usize, replays as usize);
            let (got, _, _) = p2p_with_spurious_replays(parts, part_bytes, replays);
            let want: Vec<u8> = (0..parts)
                .flat_map(|u| (0..part_bytes).map(move |i| pattern(u, i)))
                .collect();
            if got == want {
                TestResult::Pass
            } else {
                let at = want.iter().zip(&got).position(|(a, b)| a != b);
                TestResult::Fail(format!(
                    "replayed payload diverges at byte {at:?} \
                     (parts={parts}, part_bytes={part_bytes}, replays={replays})"
                ))
            }
        },
    );

    // A fixed instance pins the counter semantics: every spurious call is
    // a counted replay, and the superseded puts really landed stale.
    let (got, replay_count, stale) = p2p_with_spurious_replays(4, 512, 2);
    assert_eq!(got.len(), 4 * 512);
    assert_eq!(replay_count, 2, "each spurious recover_epoch is one counted replay");
    assert!(stale > 0, "old-generation completions must be discarded as stale");
}

/// Satellite 1 — property: `FaultPlan` JSON round-trips exactly, for
/// chaos-derived plans decorated with every fault class (including
/// unbounded outage windows, which encode as `"inf"`).
#[test]
fn fault_plan_json_round_trip_property() {
    let cfg = PropConfig { cases: 64, ..PropConfig::default() };
    check(
        &cfg,
        "fault_plan_json_round_trip_property",
        |rng| (rng.next_u64(), rng.uniform_range(0, 101), rng.next_u64()),
        |&(seed, pct, decor)| {
            let rate = pct as f64 / 100.0;
            let mut plan = FaultPlan::chaos(seed, rate).expect("rate in range");
            if decor & 1 != 0 {
                plan = plan.with_pe_stall(decor as usize % 8, 20.0 + pct as f64, 500.0);
            }
            if decor & 2 != 0 {
                plan = plan.with_pe_crash(decor as usize % 4, 40.0);
            }
            if decor & 4 != 0 {
                plan = plan.with_delayed_flag_writes(0, 1 + decor % 5, 12.5);
            }
            if decor & 8 != 0 {
                plan = plan.with_lost_flag_writes(1, 1 + decor % 3);
            }
            if decor & 16 != 0 {
                plan = plan
                    .with_nic_outage((decor % 2) as u16, (decor % 4) as u8, 100.0, f64::INFINITY)
                    .expect("valid open window");
            }
            let json = plan.to_json_string();
            match FaultPlan::from_json_str(&json) {
                Ok(back) if back == plan => TestResult::Pass,
                Ok(back) => TestResult::Fail(format!("round-trip drift:\n{plan:?}\n!=\n{back:?}")),
                Err(e) => TestResult::Fail(format!("round-trip rejected: {e}\n{json}")),
            }
        },
    );
}

/// Acceptance: at equal cell budget the coverage-guided campaign reaches
/// strictly more distinct fault-class × layer points than the fixed
/// seed×rate grid, with every cell honoring the recovery contract. Both
/// plan sources run through the one campaign engine.
#[test]
fn coverage_campaign_beats_grid_at_equal_budget() {
    let grid = run_campaign(&CampaignConfig::grid(false), 4);
    let grid_cells = grid.outcomes.len();
    assert!(grid.failures.is_empty(), "contract failures on the grid:\n{}", grid.render());

    let report = run_campaign(&CampaignConfig::search(grid_cells as u32), 4);
    assert_eq!(report.outcomes.len(), grid_cells, "campaign must spend exactly the budget");
    assert!(
        report.failures.is_empty(),
        "contract failures under guided search:\n{}",
        report.render()
    );
    assert!(
        report.covered.len() > grid.covered.len(),
        "guided coverage ({}) must beat the grid ({}) at {} cells",
        report.covered.len(),
        grid.covered.len(),
        grid_cells
    );
}

/// Acceptance: the `--channels` axis. Fault classes meeting *multiplexed*
/// load — the mux-admitted 64-channel MoE dispatch/combine cell — uphold
/// the same recovery contract: the canonical chaos mix perturbs the trace
/// yet recovers to numerics bit-identical to the fault-free baseline, a
/// lost flag write replays host-side over the plain partitioned channels
/// (unlike the collective engine, where it is unrecoverable by design),
/// and the guided campaign's covered points carry the `c64:` qualifier so
/// the axis genuinely grows the point space.
#[test]
fn chaos_contract_holds_under_multiplexed_channel_load() {
    use parcomm::mpi::RecoverConfig;

    let moe = Cell {
        channels: 64,
        recover: Some(RecoverConfig::default()),
        ..Cell::new(Workload::Moe, 2)
    };
    let clean = moe.run(0xFA017, &FaultPlan::none());
    assert!(clean.survived(), "fault-free MoE cell must complete");

    // The canonical chaos mix against the 64-channel cell: perturbed,
    // survived, replayed, numerics intact.
    let plan = FaultPlan::chaos(0x5EED, 0.4).expect("rate in range");
    let a = moe.run(0xFA017, &plan);
    let b = moe.run(0xFA017, &plan);
    assert_ne!(a.digest, clean.digest, "chaos mix must perturb the multiplexed trace");
    assert!(a.survived(), "chaos mix must recover: {:?}", a.errors);
    assert_eq!(a.digest, b.digest, "multiplexed chaos replay must be deterministic");
    assert_eq!(a.numeric, clean.numeric, "recovery must preserve MoE numerics bit for bit");

    // A lost flag write recovers on plain partitioned channels (epoch
    // replay re-issues the partitions host-side) — and is a typed
    // failure, never a hang, once the ladder is disarmed.
    let loss = FaultPlan::none().with_lost_flag_writes(4, 1).with_watchdog(200_000.0);
    let lost = moe.run(0xFA017, &loss);
    assert!(lost.survived(), "armed ladder must replay the lost flag write");
    assert_eq!(lost.numeric, clean.numeric);
    let unrec = Cell { recover: None, ..moe }.run(0xFA017, &loss);
    assert!(!unrec.survived(), "disarmed: a lost flag write must surface typed");

    // The guided campaign on the channel axis: zero contract failures and
    // every covered point qualified with the channel count.
    let report = run_campaign(&CampaignConfig { channels: 64, ..CampaignConfig::search(6) }, 2);
    assert!(
        report.failures.is_empty(),
        "contract failures on the channel axis:\n{}",
        report.render()
    );
    assert!(!report.covered.is_empty());
    assert!(
        report.covered.iter().all(|p| p.starts_with("c64:pe:")),
        "channel-axis points must be c64-qualified: {:?}",
        report.covered
    );
}

/// Acceptance: the topology-shape axis. The guided campaign on the
/// oversubscribed shape (4,2 GPUs / 2,1 NICs at 2:1 ranks per GPU — the
/// fold/unfold hierarchical schedule, `SameGpu` routes, and per-node rail
/// cycling all live) upholds the recovery contract, and every covered
/// point carries the `oversub:` qualifier so the axis genuinely grows the
/// point space. Failures, were any bisected, would carry the `--topology`
/// spec in their artifacts.
#[test]
fn chaos_contract_holds_on_oversubscribed_shape() {
    use parcomm::fault::coverage::TopologyShape;

    let cfg = CampaignConfig { shape: TopologyShape::Oversubscribed, ..CampaignConfig::search(6) };
    let report = run_campaign(&cfg, 2);
    assert!(
        report.failures.is_empty(),
        "contract failures on the shape axis:\n{}",
        report.render()
    );
    assert!(!report.covered.is_empty());
    assert!(
        report.covered.iter().all(|p| p.starts_with("oversub:pe:")),
        "shape-axis points must be oversub-qualified: {:?}",
        report.covered
    );
    // The shaped campaign is worker-count invariant like the classic one.
    let again = run_campaign(&cfg, 1);
    assert_eq!(report.render(), again.render(), "shape axis must stay deterministic");
}
