//! Figures 10 and 11: the data-parallel deep-learning proxy — binary
//! cross-entropy kernel + gradient allreduce — comparing traditional
//! `MPI_Allreduce`, the partitioned allreduce (including per-step
//! `MPI_Start` + `MPIX_Pbuf_prepare`, as the paper measures), and NCCL.

use parcomm_apps::{nccl_for_world, run_dl, DlConfig, DlModel};
use parcomm_sweep::SweepSpec;

use crate::report::Experiment;
use crate::stats::pow2_range;
use crate::world::World;

/// Fig. 10: four GH200 on one node.
pub fn run_fig10(quick: bool) -> Experiment {
    run(quick, 1, "fig10", "DL kernel per-step time (µs), 4 GH200")
}

/// Fig. 11: eight GH200 on two nodes.
pub fn run_fig11(quick: bool) -> Experiment {
    run(quick, 2, "fig11", "DL kernel per-step time (µs), 8 GH200")
}

fn run(quick: bool, nodes: u16, id: &str, title: &str) -> Experiment {
    // Gradient sizes: grid × 1024 threads × 8 B, large-kernel regime
    // (capped at 4K grids to bound the simulator's staging memory).
    let grids = if quick { vec![64u32, 256] } else { pow2_range(256, 4 * 1024) };
    let mut exp = Experiment::new(
        id,
        title,
        &["grid", "mpi_allreduce_us", "partitioned_us", "nccl_us", "part_vs_mpi", "nccl_vs_part"],
    );
    let mut spec = SweepSpec::new();
    for &grid in &grids {
        spec.cell(format!("grid={grid}"), move || {
            let n = grid as usize * 1024;
            let trad = per_step(nodes, n, DlModel::Traditional, quick);
            let part = per_step(nodes, n, DlModel::Partitioned, quick);
            let nccl = per_step(nodes, n, DlModel::Nccl, quick);
            vec![grid as f64, trad, part, nccl, trad / part, part / nccl]
        });
    }
    for row in crate::report::run_sweep(spec, "fig10/11 sweep") {
        exp.push_row(row);
    }
    exp.note(
        "ordering target (paper Figs. 10/11): NCCL < partitioned << MPI_Allreduce; the \
         application is dominated by the collective, so the Fig. 6/7 gaps carry over",
    );
    exp
}

fn per_step(nodes: u16, elements: usize, model: DlModel, quick: bool) -> f64 {
    let world = World::gh200(0x1011 ^ elements as u64, nodes);
    let nccl = nccl_for_world(&world.mpi);
    let steps = if quick { 1 } else { 3 };
    world.run("dl point", move |ctx, rank| {
        let cfg = DlConfig { elements, partitions: 4, steps, functional: false, model };
        let result = run_dl(ctx, rank, &cfg, Some(&nccl)).expect("run_dl");
        (rank.rank() == 0).then(|| result.per_step.as_micros_f64())
    })
}
