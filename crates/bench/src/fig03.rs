//! Figure 3: the cost of mapping partitions to threads, warps, and blocks
//! for an intra-node partitioned point-to-point transfer.
//!
//! For 1..=1024 threads in a single block, the measured quantity is the
//! device-side cost of the `MPIX_Pready_{thread,warp,block}` call — the
//! kernel execution-time extension relative to the identical kernel
//! without the call.

use parcomm_gpu::AggLevel;
use parcomm_sim::Simulation;
use parcomm_sweep::SweepSpec;

use crate::report::Experiment;
use crate::stats::pow2_range;

/// Run the Fig. 3 sweep, one sweep cell per thread count.
pub fn run(quick: bool) -> Experiment {
    let counts = if quick { vec![1u32, 32, 1024] } else { pow2_range(1, 1024) };
    let mut exp = Experiment::new(
        "fig03",
        "Device-side MPIX_Pready cost by aggregation level (1 block, intra-node)",
        &["threads", "thread_us", "warp_us", "block_us"],
    );
    let mut spec = SweepSpec::new();
    for &t in &counts {
        spec.cell(format!("threads={t}"), move || {
            let row = [AggLevel::Thread, AggLevel::Warp, AggLevel::Block]
                .into_iter()
                .map(|agg| pready_extension_us(t, agg))
                .collect::<Vec<_>>();
            vec![t as f64, row[0], row[1], row[2]]
        });
    }
    for row in crate::report::run_sweep(spec, "fig03 sweep") {
        exp.push_row(row);
    }
    if let Some(last) = exp.rows.last() {
        let (thread, warp, block) = (last[1], last[2], last[3]);
        exp.note(format!(
            "1024 threads: thread/block = {:.1}x (paper 271.5x), warp/block = {:.1}x \
             (paper 9.4x)",
            thread / block,
            warp / block
        ));
    }
    exp.note("single thread: all three levels cost the same within error (paper §VI-A1)");
    exp
}

/// Kernel execution-time extension caused by the pready call, measured by
/// launching the same kernel with and without it.
fn pready_extension_us(threads: u32, agg: AggLevel) -> f64 {
    use parcomm_core::{precv_init, prequest_create, psend_init, CopyMechanism, PrequestConfig};
    use parcomm_gpu::KernelSpec;
    use parcomm_mpi::MpiWorld;
    use parcomm_sim::Mutex;
    use std::sync::Arc;

    let mut sim = Simulation::with_seed(0xF160_0300 ^ threads as u64);
    let world = MpiWorld::gh200(&sim, 1);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = threads as usize;
        let buf = rank.gpu().alloc_global(parts * 8);
        let stream = rank.gpu().create_stream();
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, 3, &buf, parts).expect("init");
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
                        multi_block_counters: false,
                    },
                )
                .expect("prequest");
                // Baseline kernel without the pready call.
                let plain =
                    stream.launch(ctx, KernelSpec::vector_add(1, threads), |_| {});
                ctx.wait(&plain.done);
                // Kernel with the device pready.
                let preq2 = preq.clone();
                let with =
                    stream.launch(ctx, KernelSpec::vector_add(1, threads), move |d| {
                        preq2.pready_all(d)
                    });
                ctx.wait(&with.done);
                sreq.wait(ctx).expect("wait");
                *out2.lock() =
                    with.duration().as_micros_f64() - plain.duration().as_micros_f64();
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 3, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    sim.run().expect("fig03 point");
    let v = *out.lock();
    v
}
