//! Three-mechanism head-to-head (DESIGN.md §14): Progression Engine vs
//! Kernel Copy vs the symmetric-heap (shmem) backend on the intra-node
//! device-initiated p2p epoch, across partition sizes.
//!
//! The paper's motivation for a one-sided symmetric backend is the small-
//! partition regime: the PE path pays a host hop (device flag write → PE
//! poll → put post) per transport partition, while a shmem channel's
//! device threads put straight into the peer's symmetric heap and signal
//! completion — no host in the loop, no per-epoch rkey exchange. This
//! harness measures single-epoch latency for all three mechanisms at each
//! partition size and prints a grep-able verdict note, plus the
//! rkey-exchange invariant checked against live counters.

use parcomm_core::{CopyMechanism, PrequestConfig};
use parcomm_gpu::KernelSpec;
use parcomm_sweep::SweepSpec;

use crate::p2p::{world_config, Pair};
use crate::report::Experiment;

/// Run the three-mechanism sweep.
pub fn run(quick: bool) -> Experiment {
    let sizes: Vec<usize> = if quick {
        vec![256, 4_096, 65_536]
    } else {
        vec![256, 1_024, 4_096, 16_384, 65_536, 262_144]
    };
    let mut exp = Experiment::new(
        "mechanisms",
        "single-epoch latency (µs) per copy mechanism vs partition size, intra-node device p2p",
        &["partition_bytes", "pe_us", "kc_us", "shmem_us"],
    );
    let mut spec = SweepSpec::new();
    for &bytes in &sizes {
        spec.cell(format!("bytes={bytes}"), move || {
            vec![
                bytes as f64,
                epoch_us(bytes, CopyMechanism::ProgressionEngine),
                epoch_us(bytes, CopyMechanism::KernelCopy),
                epoch_us(bytes, CopyMechanism::Shmem),
            ]
        });
    }
    for row in crate::report::run_sweep(spec, "mechanism sweep") {
        exp.push_row(row);
    }
    let small = exp.rows.first().expect("non-empty sweep").clone();
    let (pe, kc, shmem) = (small[1], small[2], small[3]);
    if shmem < pe {
        exp.note(format!(
            "verdict: shmem beats PE on small partitions ({shmem:.2} µs vs {pe:.2} µs at \
             {} B; kernel copy {kc:.2} µs) — no host hop on the completion path",
            small[0] as usize
        ));
    } else {
        exp.note(format!(
            "verdict: shmem does NOT beat PE on small partitions \
             ({shmem:.2} µs vs {pe:.2} µs at {} B)",
            small[0] as usize
        ));
    }
    let (exchanges, avoided) = shmem_rkey_counters(4_096);
    assert_eq!(exchanges, 0, "shmem epoch packed an rkey");
    assert!(avoided > 0, "shmem epoch avoided no rkey exchanges");
    exp.note(format!(
        "rkey exchanges on the shmem path: {exchanges} ({avoided} avoided via symmetric offsets)"
    ));
    exp
}

/// One intra-node device-initiated epoch (4 user partitions of
/// `partition_bytes` each, 2 transport partitions) under `mechanism`;
/// returns the sender-side latency from kernel launch to `MPI_Wait`.
fn epoch_us(partition_bytes: usize, mechanism: CopyMechanism) -> f64 {
    let pair = Pair { align: true, ..pair(partition_bytes, mechanism, 14) };
    let kernel = KernelSpec::vector_add(1, 64);
    pair.measure(move |ctx, rank, tx| tx.kernel_epochs(ctx, rank, &kernel, false))
}

/// The rkey invariant, measured rather than asserted from structure: one
/// shmem epoch with live counters, returning
/// `(ucx.rkey_exchanges, shmem.rkey_exchanges_avoided)`.
fn shmem_rkey_counters(partition_bytes: usize) -> (u64, u64) {
    let pair = pair(partition_bytes, CopyMechanism::Shmem, 15);
    let world = pair.world();
    let registry = world.mpi.enable_metrics();
    let kernel = KernelSpec::vector_add(1, 64);
    pair.measure_in(world, move |ctx, rank, tx| tx.kernel_epochs(ctx, rank, &kernel, false));
    let snap = registry.snapshot();
    (
        snap.counter("ucx.rkey_exchanges").unwrap_or(0),
        snap.counter("shmem.rkey_exchanges_avoided").unwrap_or(0),
    )
}

/// A one-node device pair seeded per partition size: 4 user partitions,
/// 2 transport partitions under `mechanism`. The world default mechanism
/// is set to Shmem only when measuring shmem so the classic runs keep the
/// frozen negotiation path.
fn pair(partition_bytes: usize, mechanism: CopyMechanism, tag: u64) -> Pair {
    let parts = 4;
    Pair {
        device: Some(PrequestConfig {
            copy: mechanism,
            transport_partitions: 2,
            ..PrequestConfig::default()
        }),
        ..Pair::new(
            world_config(1, mechanism),
            0x3EC4 ^ partition_bytes as u64,
            (0, 1),
            tag,
            parts,
            parts * partition_bytes,
        )
    }
}
