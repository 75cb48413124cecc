//! Decompose the NCCL gap (paper §VI-B): where does the partitioned
//! allreduce's extra time go? The paper attributes it to the in-schedule
//! reduction kernels and their `cudaStreamSynchronize` calls; this
//! harness traces the measured interval and prints the occupancy of each
//! category for the partitioned allreduce vs NCCL (1K-grid, 4 GH200).
//!
//! Pass `--trace-out <path>` to also export the partitioned run's measured
//! region as Chrome `trace_event` JSON with causal handoff spans — the
//! printed table filters those out, so it stays byte-identical with or
//! without the export. Any other argument prints the usage and exits 2.

use parcomm_apps::nccl_for_world;
use parcomm_bench as b;
use parcomm_bench::obsrun::allreduce_epoch;
use parcomm_bench::world::World;
use parcomm_coll::{pallreduce_init, pallreduce_init_hierarchical};
use parcomm_gpu::KernelSpec;
use parcomm_mpi::{MpiError, Rank, WorldConfig};
use parcomm_obs::{chrome_trace_json, is_causal_category, occupancy, CriticalPath};
use parcomm_sim::{Ctx, SimTime, Trace};

const USAGE: &str = "usage: gap_decomposition [--trace-out PATH]\n";

/// Run `body` on every rank of `world` and return rank 0's measured
/// window. A failed simulation or rank ends the process.
fn measured_window<F>(label: &str, world: World, body: F) -> (SimTime, SimTime)
where
    F: Fn(&mut Ctx, &mut Rank) -> Result<(SimTime, SimTime), MpiError> + Send + Sync + 'static,
{
    let run = world.try_run(move |ctx, rank| match body(ctx, rank) {
        Ok(window) => (rank.rank() == 0).then_some(Ok(window)),
        Err(e) => Some(Err((rank.rank(), e))),
    });
    let (reports, _) = run.unwrap_or_else(|e| {
        eprintln!("error: {label} run failed: {e:?}");
        std::process::exit(1);
    });
    let mut window = (SimTime::ZERO, SimTime::ZERO);
    for report in reports {
        match report {
            Ok(w) => window = w,
            Err((r, e)) => {
                eprintln!("error: {label}: rank {r} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    window
}

fn main() {
    b::check_args("gap_decomposition", USAGE, &[], &["--trace-out"]);
    let n = 1024usize * 1024; // 1K grids × 1024 threads × 8 B = 8 MB
    let trace_out = b::trace_out();
    for partitioned in [true, false] {
        let label = if partitioned { "partitioned allreduce" } else { "ncclAllReduce" };
        let causal = partitioned && trace_out.is_some();
        let world = World::gh200(0xDEC0, 1);
        let trace = world.sim.trace();
        let nccl = nccl_for_world(&world.mpi);
        let trace2 = trace.clone();
        let (from, to) = measured_window(label, world, move |ctx, rank| {
            let me = rank.rank();
            // Record only the measured region; causal level adds the
            // handoff spans the Chrome export needs.
            let begin = |_| match (me, causal) {
                (0, true) => trace2.enable_causal(),
                (0, false) => trace2.enable(),
                _ => {}
            };
            if partitioned {
                allreduce_epoch(ctx, rank, n, begin)
            } else {
                rank.barrier(ctx);
                let from = ctx.now();
                begin(from);
                let buf = rank.gpu().alloc_global(n * 8);
                let stream = rank.gpu().create_stream();
                let grid = (n as u32).div_ceil(1024);
                stream.launch(ctx, KernelSpec::vector_add(grid, 1024), |_| {});
                let done = nccl.all_reduce_f64(ctx, me, &buf, 0, n, &stream);
                ctx.wait(&done);
                Ok((from, ctx.now()))
            }
        });
        let total = to.since(from);
        println!("== {label}: measured interval {total} ==");
        let spans = trace.spans();
        // Causal-only handoff spans are filtered so the table is identical
        // with and without --trace-out.
        let summary: std::collections::BTreeMap<_, _> = occupancy(&spans, from, to)
            .into_iter()
            .filter(|(cat, _)| !is_causal_category(cat))
            .collect();
        for (cat, s) in &summary {
            println!(
                "  {cat:<12} {:>6} spans   {:>12} occupancy ({:.1}% of elapsed × 4 ranks)",
                s.count,
                s.total,
                100.0 * s.total.as_micros_f64() / (4.0 * total.as_micros_f64())
            );
        }
        if partitioned {
            let sync = summary.get("stream_sync").copied().unwrap_or_default();
            println!(
                "  → {} stream synchronizations inside the schedule totalling {} across \
                 ranks: the structural cost NCCL's fused ring avoids (paper §VI-B)\n",
                sync.count, sync.total
            );
            if let Some(path) = &trace_out {
                match std::fs::write(path, chrome_trace_json(&spans)) {
                    Ok(()) => {
                        println!("trace written to {path} (load in https://ui.perfetto.dev)")
                    }
                    Err(e) => eprintln!("warning: could not write {path}: {e}"),
                }
            }
        } else {
            println!();
        }
    }
    two_node_section();
}

/// Two-node extension of the gap decomposition: where do the *cross-node*
/// bytes and the end-to-end dependency chain go once the allreduce spans
/// an IB hop? Prints, for the flat ring, the node-aware hierarchical
/// ring, and the flat ring with 4-way multi-path striping on 8 GH200
/// (2 nodes): per-NIC-rail cross-node byte counts (the
/// `net.rail<N>.bytes` fabric counters) and the critical path through the
/// measured epoch's causal span graph. Appended after the one-node tables,
/// which stay byte-identical.
fn two_node_section() {
    let n = 1024usize * 1024;
    for (hierarchical, stripes) in [(false, 1usize), (true, 1), (false, 4)] {
        let label = match (hierarchical, stripes) {
            (true, _) => "hierarchical ring, 2 nodes".to_string(),
            (false, 1) => "flat ring, 2 nodes".to_string(),
            (false, s) => format!("flat ring + {s}-stripe striping, 2 nodes"),
        };
        let mut cfg = WorldConfig::gh200(2);
        cfg.stripes = stripes;
        let world = World::new(0xDEC02, cfg);
        let trace = world.sim.trace();
        let registry = world.mpi.enable_metrics();
        let topo = world.mpi.topology();
        let trace2 = trace.clone();
        let (from, to) = measured_window(&label, world, move |ctx, rank| {
            two_node_epoch(ctx, rank, n, hierarchical, &trace2)
        });
        println!("== {label}: measured epoch {} ==", to.since(from));
        // Whole-run cross-node bytes by NIC rail: the flat ring funnels
        // every boundary crossing through the boundary rank's NIC, the
        // hierarchical ring runs one inter-node ring per local GPU index.
        let snap = registry.snapshot();
        let rail: Vec<u64> = (0..topo.nics_per_node())
            .map(|r| snap.counter(&format!("net.rail{r}.bytes")).unwrap_or(0))
            .collect();
        let total: u64 = rail.iter().sum();
        for (r, bytes) in rail.iter().enumerate() {
            println!(
                "  ib rail {r}: {bytes:>12} B cross-node ({:5.1}% of {total} B)",
                100.0 * *bytes as f64 / total.max(1) as f64
            );
        }
        let max_share =
            100.0 * rail.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64;
        println!(
            "  max rail share: {max_share:.1}% of cross-node bytes across {} rails{}",
            rail.len(),
            if max_share <= 50.0 { " — balanced (no rail above 50%)" } else { "" }
        );
        let spans = trace.spans();
        let path = CriticalPath::from_spans(&spans);
        let cross_hops = path
            .steps
            .windows(2)
            .filter(|w| match (w[0].rank, w[1].rank) {
                (Some(a), Some(b)) => topo.node_of(a as usize) != topo.node_of(b as usize),
                _ => false,
            })
            .count();
        println!(
            "  critical path: {} steps, {:.1}% coverage of the measured epoch, \
             {cross_hops} cross-node handoffs",
            path.steps.len(),
            100.0 * path.coverage_of(from, to)
        );
        for (cat, d) in path.occupancy() {
            println!("    {cat:<12} {d:>12} on the dependency chain");
        }
        println!();
    }
}

/// The two-node measured epoch on every rank: a device-readied warm-up
/// epoch outside the traced window, as in the one-node decomposition, a
/// barrier, then one causally traced epoch. Returns the measured window.
fn two_node_epoch(
    ctx: &mut Ctx,
    rank: &Rank,
    n: usize,
    hierarchical: bool,
    trace: &Trace,
) -> Result<(SimTime, SimTime), MpiError> {
    let buf = rank.gpu().alloc_global(n * 8);
    let stream = rank.gpu().create_stream();
    let grid = (n as u32).div_ceil(1024);
    let coll = if hierarchical {
        pallreduce_init_hierarchical(ctx, rank, &buf, 4, &stream, 7)
    } else {
        pallreduce_init(ctx, rank, &buf, 4, &stream, 7)
    }?;
    let epoch = |ctx: &mut Ctx| -> Result<(), MpiError> {
        coll.start(ctx)?;
        coll.pbuf_prepare(ctx)?;
        let c2 = coll.clone();
        stream.launch(ctx, KernelSpec::vector_add(grid, 1024), move |d| c2.pready_device_all(d));
        coll.wait(ctx)
    };
    epoch(ctx)?;
    rank.barrier(ctx);
    let from = ctx.now();
    if rank.rank() == 0 {
        trace.enable_causal();
    }
    epoch(ctx)?;
    Ok((from, ctx.now()))
}
