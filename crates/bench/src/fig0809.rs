//! Figures 8 and 9: Jacobi solver GFLOP/s, traditional vs partitioned,
//! with the problem-size multiplier swept 1..=32 in powers of two
//! (2×2 decomposition on four GH200, 4×2 on eight).

use parcomm_apps::{run_jacobi, JacobiConfig, JacobiModel};
use parcomm_core::CopyMechanism;
use parcomm_sweep::SweepSpec;

use crate::report::Experiment;
use crate::world::World;

/// Fig. 8: four GH200 on one node.
pub fn run_fig08(quick: bool) -> Experiment {
    run(quick, 1, "fig08", "Jacobi solver GFLOP/s, 4 GH200 (2x2 decomposition)")
}

/// Fig. 9: eight GH200 on two nodes.
pub fn run_fig09(quick: bool) -> Experiment {
    run(quick, 2, "fig09", "Jacobi solver GFLOP/s, 8 GH200 (4x2 decomposition)")
}

fn run(quick: bool, nodes: u16, id: &str, title: &str) -> Experiment {
    let multipliers: Vec<usize> =
        if quick { vec![1, 4] } else { vec![1, 2, 4, 8, 16, 32] };
    let mut exp = Experiment::new(
        id,
        title,
        &["multiplier", "trad_gflops", "part_gflops", "speedup"],
    );
    let mut spec = SweepSpec::new();
    for &m in &multipliers {
        spec.cell(format!("multiplier={m}"), move || {
            let trad = gflops(nodes, m, JacobiModel::Traditional, quick);
            // The paper evaluates one partitioned implementation across both
            // figures; the Progression Engine design works for every neighbor
            // pair (Kernel Copy is intra-node only).
            let part = gflops(
                nodes,
                m,
                JacobiModel::Partitioned(CopyMechanism::ProgressionEngine),
                quick,
            );
            vec![m as f64, trad, part, part / trad]
        });
    }
    for row in crate::report::run_sweep(spec, "fig08/09 sweep") {
        exp.push_row(row);
    }
    let max_speedup =
        exp.rows.iter().map(|r| r[3]).fold(f64::MIN, f64::max);
    exp.note(format!(
        "max speedup {max_speedup:.2}x (paper: 1.06x on one node, 1.30x on two); gains \
         concentrate at small multipliers and plateau as compute dominates"
    ));
    exp
}

fn gflops(nodes: u16, multiplier: usize, model: JacobiModel, quick: bool) -> f64 {
    let iterations = if quick { 5 } else { 30 };
    World::gh200(0x0809 ^ multiplier as u64, nodes).run("jacobi point", move |ctx, rank| {
        let cfg = JacobiConfig {
            base_h: 512,
            base_w: 512,
            multiplier,
            iterations,
            functional: false,
            model,
            stencil_gbps: 300.0,
        };
        let result = run_jacobi(ctx, rank, &cfg).expect("run_jacobi");
        (rank.rank() == 0).then_some(result.gflops)
    })
}
