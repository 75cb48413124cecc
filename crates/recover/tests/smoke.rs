//! Fast runtime probes of the escalation ladder (the full conformance
//! suite lives at the workspace root in `tests/recovery.rs`).

use parcomm_fault::chaos::{self, Cell, ChaosRun, Workload};
use parcomm_fault::FaultPlan;
use parcomm_recover::{RecoverPolicy, RecoveryReport};

/// The canonical allreduce cell with the default policy armed.
fn recovering(seed: u64, plan: &FaultPlan, nodes: u16) -> ChaosRun {
    let cell = Cell {
        recover: Some(RecoverPolicy::new().config()),
        ..Cell::new(Workload::Allreduce, nodes)
    };
    cell.run(seed, plan)
}

#[test]
fn zero_fault_recovery_run_matches_recovery_off() {
    let on = recovering(0xA11CE, &FaultPlan::none(), 1);
    let off = chaos::run_allreduce(0xA11CE, &FaultPlan::none(), 1);
    assert!(on.survived() && off.survived());
    assert_eq!(on.digest, off.digest, "recovery must be digest-neutral when no fault fires");
    assert!(RecoveryReport::from_metrics(&on.metrics).quiet());
}

#[test]
fn pe_crash_recovers_with_host_drain() {
    let plan = FaultPlan::none().with_pe_crash(1, 80.0).with_watchdog(5_000_000.0);
    let clean = chaos::run_allreduce(0xA11CE, &FaultPlan::none(), 1);
    let run = recovering(0xA11CE, &plan, 1);
    assert!(run.survived(), "PE crash must recover: {:?}", run.errors);
    assert_eq!(run.numeric, clean.numeric, "recovered numerics must match fault-free");
    let report = RecoveryReport::from_metrics(&run.metrics);
    assert!(!report.quiet(), "the ladder must have fired: {report:?}");
}

#[test]
fn all_rails_down_recovers_by_replay() {
    // Window opens after the ~400 µs channel handshake settles and closes
    // inside the 20 ms stall-detection horizon, so epoch replay lands.
    let mut plan = FaultPlan::none().with_watchdog(5_000_000.0);
    for nic in 0..4u8 {
        plan = plan.with_nic_outage(0, nic, 600.0, 8_000.0).expect("valid window");
    }
    let clean = chaos::run_allreduce(0xA11CE, &FaultPlan::none(), 2);
    let run = recovering(0xA11CE, &plan, 2);
    assert!(run.survived(), "finite all-rails outage must recover: {:?}", run.errors);
    assert_eq!(run.numeric, clean.numeric);
    let report = RecoveryReport::from_metrics(&run.metrics);
    assert!(report.replays > 0, "epoch replay must have fired: {report:?}");
}
