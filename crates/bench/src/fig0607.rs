//! Figures 6 and 7: allreduce comparison — traditional `MPI_Allreduce`
//! vs the partitioned allreduce vs NCCL, on one node (4 GH200) and two
//! nodes (8 GH200). Large kernel grid sizes, ring algorithm everywhere.

use parcomm_apps::nccl_for_world;
use parcomm_coll::pallreduce_init;
use parcomm_gpu::KernelSpec;
use parcomm_sweep::SweepSpec;

use crate::report::Experiment;
use crate::stats::pow2_range;
use crate::world::World;

/// Which collective implementation a measurement uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Coll {
    Traditional,
    Partitioned,
    Nccl,
}

/// Fig. 6: one node, four GH200.
pub fn run_fig06(quick: bool) -> Experiment {
    run(quick, 1, "fig06", "Allreduce, 4 GH200 (one node): kernel + collective time (µs)")
}

/// Fig. 7: two nodes, eight GH200.
pub fn run_fig07(quick: bool) -> Experiment {
    run(quick, 2, "fig07", "Allreduce, 8 GH200 (two nodes): kernel + collective time (µs)")
}

fn run(quick: bool, nodes: u16, id: &str, title: &str) -> Experiment {
    // Paper: large grids only (ring maximizes bandwidth for large
    // messages); 1K..32K blocks of 1024 threads → 8..256 MB buffers. The
    // full-sweep cap is 8K grids: beyond that the *simulator's* staging
    // buffers (2(P-1) chunk slots per channel) exceed the test machine's
    // RAM; the trend is flat in the bandwidth-bound regime.
    let grids = if quick { vec![64u32, 256] } else { pow2_range(1024, 8 * 1024) };
    let mut exp = Experiment::new(
        id,
        title,
        &["grid", "mpi_allreduce_us", "partitioned_us", "nccl_us", "part_vs_mpi", "nccl_gap_us"],
    );
    let mut spec = SweepSpec::new();
    for &grid in &grids {
        spec.cell(format!("grid={grid}"), move || {
            let n = grid as usize * 1024;
            let trad = timed(nodes, n, Coll::Traditional, quick);
            let part = timed(nodes, n, Coll::Partitioned, quick);
            let nccl = timed(nodes, n, Coll::Nccl, quick);
            vec![grid as f64, trad, part, nccl, trad / part, part - nccl]
        });
    }
    for row in crate::report::run_sweep(spec, "fig06/07 sweep") {
        exp.push_row(row);
    }
    if let Some(first) = exp.rows.first() {
        let versus = if first[4] >= 1.0 {
            format!("{:.1}x faster than MPI_Allreduce", first[4])
        } else {
            let below = if quick { "the --quick grids sit" } else { "this grid sits" };
            format!(
                "{:.1}x slower than MPI_Allreduce ({below} below the crossover; the paper \
                 sweeps from 1K grids)",
                1.0 / first[4]
            )
        };
        exp.note(format!(
            "smallest grid: partitioned {versus}; NCCL leads the partitioned allreduce by \
             {:.1} µs (paper: ~226 µs at 1K grids; the gap is the per-step reduce kernel + \
             cudaStreamSynchronize inside the schedule)",
            first[5]
        ));
    }
    exp.note("ordering target (paper Figs. 6/7): NCCL < partitioned << MPI_Allreduce");
    exp
}

fn timed(nodes: u16, n: usize, coll: Coll, quick: bool) -> f64 {
    let iters = if quick { 1 } else { 3 };
    let world = World::gh200(0x0607 ^ n as u64 ^ (coll as u64) << 40, nodes);
    let nccl = nccl_for_world(&world.mpi);
    world.run("fig06/07 point", move |ctx, rank| {
        let partitions = 4usize;
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        let grid = (n as u32).div_ceil(1024).max(1);
        let part_coll = if coll == Coll::Partitioned {
            Some(pallreduce_init(ctx, rank, &buf, partitions, &stream, 17).expect("init"))
        } else {
            None
        };
        rank.barrier(ctx);
        let t0 = ctx.now();
        for _ in 0..iters {
            match coll {
                Coll::Traditional => {
                    stream.launch(ctx, KernelSpec::vector_add(grid, 1024), |_| {});
                    stream.synchronize(ctx);
                    rank.allreduce_hoststaged_f64(ctx, &buf, 0, n, &stream);
                }
                Coll::Partitioned => {
                    let c = part_coll.as_ref().expect("initialized");
                    c.start(ctx).expect("start");
                    c.pbuf_prepare(ctx).expect("pbuf_prepare");
                    let c2 = c.clone();
                    stream.launch(ctx, KernelSpec::vector_add(grid, 1024), move |d| {
                        c2.pready_device_all(d)
                    });
                    c.wait(ctx).expect("wait");
                }
                Coll::Nccl => {
                    stream.launch(ctx, KernelSpec::vector_add(grid, 1024), |_| {});
                    let done = nccl.all_reduce_f64(ctx, rank.rank(), &buf, 0, n, &stream);
                    ctx.wait(&done);
                }
            }
        }
        (rank.rank() == 0).then(|| ctx.now().since(t0).as_micros_f64() / iters as f64)
    })
}
