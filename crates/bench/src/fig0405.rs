//! Figures 4 and 5: Goodput of the GPU-initiated partitioned designs
//! versus the traditional kernel + sync + `MPI_Send`/`Recv` model.
//!
//! - Fig. 4 (intra-node, two GH200 on one node): Kernel Copy vs
//!   Progression Engine vs traditional, with the NVLink unidirectional
//!   bandwidth as the Goodput upper bound.
//! - Fig. 5 (inter-node, two GH200 on two nodes): Progression Engine vs
//!   traditional (Kernel Copy is intra-node only); the paper found two
//!   transport partitions best for large kernels, which the harness uses.

use parcomm_core::CopyMechanism;
use parcomm_gpu::AggLevel;
use parcomm_sweep::SweepSpec;

use crate::p2p::{goodput_gbps, measure, P2pMode, P2pParams};
use crate::report::Experiment;
use crate::stats::pow2_range;

fn iters_for(grid: u32, quick: bool) -> usize {
    if quick {
        3
    } else if grid >= 4096 {
        10
    } else {
        50
    }
}

/// Fig. 4: intra-node Goodput sweep, one sweep cell per grid size.
pub fn run_fig04(quick: bool) -> Experiment {
    let max_grid = if quick { 256 } else { 32 * 1024 };
    let grids = pow2_range(1, max_grid);
    let mut exp = Experiment::new(
        "fig04",
        "Intra-node Goodput (GB/s): traditional vs Progression Engine vs Kernel Copy",
        &["grid", "trad_gbps", "pe_gbps", "kc_gbps", "pe_speedup", "kc_speedup"],
    );
    let mut spec = SweepSpec::new();
    for &grid in &grids {
        spec.cell(format!("grid={grid}"), move || {
            let params = P2pParams {
                nodes: 1,
                sender: 0,
                receiver: 1,
                grid,
                block: 1024,
                iters: iters_for(grid, quick),
                seed: 0x0404 ^ grid as u64,
            };
            let bytes = params.bytes();
            let trad = measure(params, P2pMode::Traditional);
            let pe = measure(
                params,
                P2pMode::Partitioned {
                    copy: CopyMechanism::ProgressionEngine,
                    agg: AggLevel::Block,
                    transports: 1,
                },
            );
            let kc = measure(
                params,
                P2pMode::Partitioned {
                    copy: CopyMechanism::KernelCopy,
                    agg: AggLevel::Block,
                    transports: 1,
                },
            );
            vec![
                grid as f64,
                goodput_gbps(bytes, trad),
                goodput_gbps(bytes, pe),
                goodput_gbps(bytes, kc),
                trad / pe,
                trad / kc,
            ]
        });
    }
    for row in crate::report::run_sweep(spec, "fig04 sweep") {
        exp.push_row(row);
    }
    summarize(&mut exp, 4, 5);
    exp.note("NVLink unidirectional bound: 150 GB/s (paper Fig. 4 reference line)");
    exp.note(
        "paper anchors: KC up to 2.34x (small) shrinking to 1.06x (32K); PE up to 1.28x, \
         ~1.0x for large grids",
    );
    exp
}

/// Fig. 5: inter-node Goodput sweep, one sweep cell per grid size.
pub fn run_fig05(quick: bool) -> Experiment {
    let max_grid = if quick { 256 } else { 32 * 1024 };
    let grids = pow2_range(1, max_grid);
    let mut exp = Experiment::new(
        "fig05",
        "Inter-node Goodput (GB/s): traditional vs Progression Engine (2 transport partitions)",
        &["grid", "trad_gbps", "pe_gbps", "pe_speedup"],
    );
    let mut spec = SweepSpec::new();
    for &grid in &grids {
        spec.cell(format!("grid={grid}"), move || {
            let params = P2pParams {
                nodes: 2,
                sender: 0,
                receiver: 4,
                grid,
                block: 1024,
                iters: iters_for(grid, quick),
                seed: 0x0505 ^ grid as u64,
            };
            let bytes = params.bytes();
            let trad = measure(params, P2pMode::Traditional);
            // Two transport partitions for large kernels (paper §VI-A2), one
            // otherwise — splitting only pays once each put is still large
            // enough to drive the multi-rail wire at full rate.
            let transports = if bytes as u64 / 2 >= parcomm_net::Fabric::STRIPE_THRESHOLD {
                2
            } else {
                1
            };
            let pe = measure(
                params,
                P2pMode::Partitioned {
                    copy: CopyMechanism::ProgressionEngine,
                    agg: AggLevel::Block,
                    transports,
                },
            );
            vec![grid as f64, goodput_gbps(bytes, trad), goodput_gbps(bytes, pe), trad / pe]
        });
    }
    for row in crate::report::run_sweep(spec, "fig05 sweep") {
        exp.push_row(row);
    }
    summarize(&mut exp, 3, 3);
    exp.note("paper anchors: 2.80x at one grid, 1.17x at the largest grid");
    exp
}

fn summarize(exp: &mut Experiment, first_speedup_col: usize, last_speedup_col: usize) {
    if exp.rows.is_empty() {
        return;
    }
    for col in first_speedup_col..=last_speedup_col {
        let name = exp.columns[col].clone();
        let small = exp.rows[0][col];
        let large = exp.rows[exp.rows.len() - 1][col];
        let max = exp.rows.iter().map(|r| r[col]).fold(f64::MIN, f64::max);
        exp.notes.push(format!(
            "{name}: smallest grid {small:.2}x, largest {large:.2}x, max {max:.2}x"
        ));
    }
}
