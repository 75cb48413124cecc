//! The paper's data-parallel deep-learning proxy (§VI-D2) on four
//! simulated GH200s: a binary-cross-entropy kernel computes gradients,
//! which are synchronized with (a) traditional `MPI_Allreduce`, (b) the
//! partitioned allreduce with device-side `MPIX_Pready`, and (c) NCCL —
//! all three must agree numerically, and the per-step times reproduce the
//! ordering of Figs. 10/11.
//!
//! Run with: `cargo run --example deep_learning`

use std::sync::Arc;

use parcomm::apps::{nccl_for_world, run_dl, DlConfig, DlModel};
use parcomm::prelude::*;
use parcomm_sim::Mutex;

fn run(model: DlModel, label: &str) -> (f64, f64) {
    let mut sim = Simulation::with_seed(11);
    let world = MpiWorld::gh200(&sim, 1);
    let nccl = nccl_for_world(&world);
    let out = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let cfg = DlConfig {
            elements: 1 << 21, // 16 MiB of gradients (large-kernel regime)
            partitions: 4,
            steps: 2,
            functional: true,
            model,
        };
        let result = run_dl(ctx, rank, &cfg, Some(&nccl)).expect("run_dl");
        if rank.rank() == 0 {
            *out2.lock() = (result.per_step.as_micros_f64(), result.loss);
        }
    });
    sim.run().expect("dl run");
    let (per_step, loss) = *out.lock();
    println!("{label:<32} {per_step:>10.1} µs/step   loss proxy {loss:.6}");
    (per_step, loss)
}

fn main() {
    println!("Data-parallel BCE training step, 4 GH200, 2M gradient elements (16 MiB)\n");
    let (trad, l1) = run(DlModel::Traditional, "MPI_Allreduce (host-staged)");
    let (part, l2) = run(DlModel::Partitioned, "partitioned allreduce");
    let (nccl, l3) = run(DlModel::Nccl, "ncclAllReduce");
    assert!((l1 - l2).abs() < 1e-12 && (l2 - l3).abs() < 1e-12, "models must agree");
    let versus = if trad >= part {
        format!("{:.1}x faster than MPI_Allreduce", trad / part)
    } else {
        format!("{:.1}x slower than MPI_Allreduce (this size sits below the crossover)", part / trad)
    };
    println!(
        "\npartitioned is {versus}; NCCL leads partitioned by {:.1} µs \
         (the in-schedule reduce kernels + stream synchronizations — paper §VI-B)",
        part - nccl
    );
}
