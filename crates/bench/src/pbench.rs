//! A partitioned-communication micro-benchmark suite in the style of the
//! authors' own ICPP'22 benchmarks (paper reference \[16\]): latency,
//! bandwidth, partition-count overhead, achievable overlap, and a halo
//! pattern — all against the partitioned API rather than plain P2P.

use parcomm_core::PrequestConfig;
use parcomm_gpu::KernelSpec;
use parcomm_mpi::WorldConfig;

use crate::p2p::Pair;
use crate::report::Experiment;
use crate::stats::pow2_range;

/// Host-driven partitioned ping-pong latency across payload sizes
/// (1 partition, intra- and inter-node).
pub fn run_latency(quick: bool) -> Experiment {
    let sizes = if quick { vec![64u32, 4096] } else { pow2_range(8, 1 << 20) };
    let mut exp = Experiment::new(
        "pbench_latency",
        "Partitioned half-round-trip latency (µs) vs payload, 1 partition",
        &["bytes", "intra_us", "inter_us"],
    );
    let mut spec = parcomm_sweep::SweepSpec::new();
    for &bytes in &sizes {
        spec.cell(format!("bytes={bytes}"), move || {
            vec![
                bytes as f64,
                latency_once(1, 0, 1, bytes as usize, quick),
                latency_once(2, 0, 4, bytes as usize, quick),
            ]
        });
    }
    for row in crate::report::run_sweep(spec, "pbench latency sweep") {
        exp.push_row(row);
    }
    exp.note("half round trip: sender Pready→wait; receiver wait; averaged over iterations");
    exp
}

fn latency_once(nodes: u16, a: usize, b: usize, bytes: usize, quick: bool) -> f64 {
    let pair = Pair {
        epochs: if quick { 3 } else { 20 },
        align: true,
        ..Pair::new(WorldConfig::gh200(nodes), 0x9B01 ^ bytes as u64, (a, b), 1, 1, bytes.max(8))
    };
    pair.measure(|ctx, _, tx| tx.host_epochs(ctx))
}

/// Per-partition overhead: fixed 8 MB payload split into 1..=256
/// partitions, each `MPI_Pready`ed individually by the host.
pub fn run_partition_overhead(quick: bool) -> Experiment {
    let parts = if quick { vec![1u32, 16] } else { pow2_range(1, 256) };
    let mut exp = Experiment::new(
        "pbench_partitions",
        "Host Pready cost vs partition count (8 MB payload, intra-node, µs/epoch)",
        &["partitions", "epoch_us", "per_partition_us"],
    );
    let mut spec = parcomm_sweep::SweepSpec::new();
    for &p in &parts {
        spec.cell(format!("partitions={p}"), move || {
            let epoch = partition_epoch(p as usize, quick);
            vec![p as f64, epoch, epoch / p as f64]
        });
    }
    for row in crate::report::run_sweep(spec, "pbench partitions sweep") {
        exp.push_row(row);
    }
    let first = exp.rows.first().map(|r| r[1]).unwrap_or(0.0);
    let last = exp.rows.last().map(|r| r[1]).unwrap_or(0.0);
    exp.note(format!(
        "epoch time {first:.1} µs at 1 partition vs {last:.1} µs at the largest split: put \
         posts pipeline behind the 8 MB wire until the per-put software cost catches up — \
         the overhead balance that motivates the paper's internal aggregation"
    ));
    exp
}

fn partition_epoch(partitions: usize, quick: bool) -> f64 {
    let seed = 0x9B02 ^ partitions as u64;
    let pair = Pair {
        transports: Some(partitions),
        epochs: if quick { 2 } else { 10 },
        ..Pair::new(WorldConfig::gh200(1), seed, (0, 1), 2, partitions, 8 << 20)
    };
    pair.measure(|ctx, _, tx| tx.host_epochs(ctx))
}

/// Achievable overlap (Schonbein et al.'s early-bird potential, paper
/// reference \[37\]): fraction of the communication hidden behind the
/// kernel as the compute/transfer ratio varies.
pub fn run_overlap(quick: bool) -> Experiment {
    let ratios = if quick { vec![0.5f64, 2.0] } else { vec![0.25, 0.5, 1.0, 2.0, 4.0] };
    let mut exp = Experiment::new(
        "pbench_overlap",
        "Overlap efficiency vs compute/transfer ratio (8 MB inter-node, 8 transports)",
        &["compute_over_transfer", "serial_us", "overlapped_us", "hidden_frac"],
    );
    let mut spec = parcomm_sweep::SweepSpec::new();
    for &r in &ratios {
        spec.cell(format!("ratio={r}"), move || {
            let (serial, overlapped) = overlap_once(r, quick);
            let ideal_hidden = serial - overlapped;
            let comm = serial / (1.0 + r); // transfer share of the serial time
            vec![r, serial, overlapped, (ideal_hidden / comm).clamp(0.0, 1.0)]
        });
    }
    for row in crate::report::run_sweep(spec, "pbench overlap sweep") {
        exp.push_row(row);
    }
    exp.note(
        "hidden_frac: share of the wire time buried under the kernel via progressive \
         MPIX_Pready — approaches 1 when compute dominates, as the early-bird model predicts",
    );
    exp
}

fn overlap_once(ratio: f64, quick: bool) -> (f64, f64) {
    // Fixed 8 MB payload inter-node ≈ transfer_us on the wire; scale the
    // kernel flops so compute = ratio × transfer.
    let bytes = 8 << 20;
    let transfer_us = bytes as f64 / (4.0 * 50.0 * 1e3); // striped wire estimate
    let flops_total = ratio * transfer_us * 60_000.0 * 1e3; // gflops model inverse
    let threads = 1024.0 * 1024.0;
    let flops_per_thread = flops_total / threads;
    let kernel = KernelSpec::new("overlap", 1024, 1024).with_flops(flops_per_thread);
    let serial = overlap_measure(kernel.clone(), bytes, false, quick);
    let overlapped = overlap_measure(kernel, bytes, true, quick);
    (serial, overlapped)
}

fn overlap_measure(kernel: KernelSpec, bytes: usize, progressive: bool, quick: bool) -> f64 {
    let seed = 0x9B03 ^ progressive as u64;
    let pair = Pair {
        device: Some(PrequestConfig { transport_partitions: 8, ..PrequestConfig::default() }),
        epochs: if quick { 2 } else { 5 },
        ..Pair::new(WorldConfig::gh200(2), seed, (0, 4), 3, 64, bytes)
    };
    pair.measure(move |ctx, rank, tx| tx.kernel_epochs(ctx, rank, &kernel, progressive))
}
