//! Explore the paper's §VI-A1 question interactively: at what granularity
//! should GPU threads signal partition readiness? Sweeps thread-, warp-,
//! and block-level `MPIX_Pready` bindings plus multi-block counter
//! aggregation and prints the device-side cost of each.
//!
//! Run with: `cargo run --example aggregation_tuning`

use std::sync::Arc;

use parcomm::prelude::*;
use parcomm_sim::Mutex;

fn pready_cost(threads: u32, agg: AggLevel, multi_block: bool, grid: u32) -> f64 {
    let mut sim = Simulation::with_seed(threads as u64 ^ grid as u64);
    let world = MpiWorld::gh200(&sim, 1);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = (grid as usize * threads as usize).max(1);
        let buf = rank.gpu().alloc_global(parts * 8);
        let stream = rank.gpu().create_stream();
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, 5, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(
                    ctx,
                    rank,
                    &sreq,
                    PrequestConfig {
                        copy: CopyMechanism::ProgressionEngine,
                        agg,
                        transport_partitions: 1,
                        multi_block_counters: multi_block,
                    },
                )
                .expect("prequest");
                let plain = stream.launch(ctx, KernelSpec::vector_add(grid, threads), |_| {});
                plain.wait(ctx);
                let preq2 = preq.clone();
                let with = stream.launch(ctx, KernelSpec::vector_add(grid, threads), move |d| {
                    preq2.pready_all(d)
                });
                with.wait(ctx);
                sreq.wait(ctx).expect("wait");
                *out2.lock() =
                    with.duration().as_micros_f64() - plain.duration().as_micros_f64();
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 5, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    sim.run().expect("sweep point");
    let v = *out.lock();
    v
}

fn main() {
    println!("Device-side MPIX_Pready cost (µs) by aggregation level, 1 block:\n");
    println!("{:>8} {:>12} {:>12} {:>12}", "threads", "thread", "warp", "block");
    for threads in [1u32, 32, 128, 512, 1024] {
        let t = pready_cost(threads, AggLevel::Thread, false, 1);
        let w = pready_cost(threads, AggLevel::Warp, false, 1);
        let b = pready_cost(threads, AggLevel::Block, false, 1);
        println!("{threads:>8} {t:>12.2} {w:>12.2} {b:>12.2}");
    }
    let t1024 = pready_cost(1024, AggLevel::Thread, false, 1);
    let b1024 = pready_cost(1024, AggLevel::Block, false, 1);
    println!(
        "\nfully occupied block: thread-level costs {:.0}x block-level (paper: 271.5x)\n",
        t1024 / b1024
    );

    println!("Multi-block aggregation with GPU-global counters (block level, 1024 threads):\n");
    println!("{:>8} {:>16} {:>16}", "blocks", "per-block writes", "counter agg");
    for grid in [2u32, 8, 32, 128] {
        let plain = pready_cost(1024, AggLevel::Block, false, grid);
        let counters = pready_cost(1024, AggLevel::Block, true, grid);
        println!("{grid:>8} {plain:>16.2} {counters:>16.2}");
    }
    println!(
        "\ncounters collapse many block notifications into one host write per transport \
         partition — the paper's recommendation that threads call MPIX_Pready for \
         programmability while MPI aggregates internally."
    );
}
