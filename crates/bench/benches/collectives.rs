//! Wall-clock benchmarks of complete collective simulations: partitioned
//! allreduce (schedule engine), the traditional host-staged baseline, and
//! the NCCL model, across world sizes.
//!
//! Plain harness binary (`harness = false`) on the `parcomm-testkit` timer;
//! run with `cargo bench -p parcomm-bench --bench collectives`.

use std::hint::black_box;

use parcomm_apps::nccl_for_world;
use parcomm_bench::world::World;
use parcomm_coll::pallreduce_init;
use parcomm_gpu::KernelSpec;
use parcomm_testkit::timer::{bench, BenchConfig};

#[derive(Copy, Clone)]
enum Which {
    Partitioned,
    Traditional,
    Nccl,
}

fn run_once(nodes: u16, which: Which) -> f64 {
    let world = World::gh200(0xC011, nodes);
    let nccl = nccl_for_world(&world.mpi);
    world.run("bench run", move |ctx, rank| {
        let partitions = 4usize;
        let n = partitions * rank.size() * 256;
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        match which {
            Which::Partitioned => {
                let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 90).expect("init");
                coll.start(ctx).expect("start");
                coll.pbuf_prepare(ctx).expect("pbuf_prepare");
                let c2 = coll.clone();
                stream.launch(ctx, KernelSpec::vector_add(4, 1024), move |d| {
                    c2.pready_device_all(d)
                });
                coll.wait(ctx).expect("wait");
            }
            Which::Traditional => {
                stream.launch(ctx, KernelSpec::vector_add(4, 1024), |_| {});
                stream.synchronize(ctx);
                rank.allreduce_hoststaged_f64(ctx, &buf, 0, n, &stream);
            }
            Which::Nccl => {
                stream.launch(ctx, KernelSpec::vector_add(4, 1024), |_| {});
                let done = nccl.all_reduce_f64(ctx, rank.rank(), &buf, 0, n, &stream);
                ctx.wait(&done);
            }
        }
        (rank.rank() == 0).then(|| ctx.now().as_micros_f64())
    })
}

fn main() {
    let cfg = if parcomm_bench::report::quick_mode() {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    for nodes in [1u16, 2] {
        for (name, which) in [
            ("partitioned", Which::Partitioned),
            ("traditional", Which::Traditional),
            ("nccl", Which::Nccl),
        ] {
            bench(&cfg, &format!("collectives/allreduce_sim/{name}/{nodes}node"), || {
                black_box(run_once(nodes, which));
            });
        }
    }
}
