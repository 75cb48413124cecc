//! Scaling study: flat ring vs node-aware hierarchical ring partitioned
//! allreduce as the cluster grows past the paper's 2×4 GH200 testbed.
//!
//! The flat ring (Algorithm 1) sends every one of its `2(p-1)` steps
//! around the global rank ring, so the ranks that sit on a node boundary
//! pay InfiniBand latency and serialization on *every* step and (below
//! the rail-striping threshold) funnel all cross-node bytes through one
//! NIC. The hierarchical schedule
//! ([`parcomm_coll::pallreduce_init_hierarchical`]) runs the same number
//! of steps but crosses nodes only during its inter-node phase —
//! `2(N-1)` IB-paced steps per rank instead of `2(NG-1)` — with one
//! inter-node ring per local GPU index, spreading those bytes evenly
//! over all NIC rails.
//!
//! Both schedules move the same `≈2n` bytes across every node cut (a
//! ring allreduce is bandwidth-optimal either way), so the measured gap
//! is the removed IB serialization on the dependency chain. In the
//! paper-calibrated cost model the per-step stream synchronization
//! dominates (§VI-B), so the win is a steady one — and above the
//! [`parcomm_net::Fabric::STRIPE_THRESHOLD`] a *single* boundary message
//! already stripes over every rail, which is why this bench measures the
//! sub-threshold regime where rail assignment is schedule-determined.
//!
//! Every cell is a deterministic simulation: alongside the timings the
//! harness digests each run (event report + level-1 trace + the reduced
//! rank-0 buffer) so regressions in either variant are a one-line diff.
//! `crates/bench/tests/scaling.rs` freezes the digests at 1 and 4 nodes.

use parcomm_coll::{pallreduce_init, pallreduce_init_hierarchical};
use parcomm_gpu::KernelSpec;
use parcomm_mpi::WorldConfig;
use parcomm_net::ClusterSpec;
use parcomm_sweep::SweepSpec;
use parcomm_testkit::digest;

use crate::report::Experiment;
use crate::world::World;

/// Sim seed for every scaling cell; frozen by `tests/scaling.rs`.
pub const SCALING_SEED: u64 = 0x5CA1_E0F0;

/// Node counts from `--nodes 1,2,4,8,16`. The default grid is the paper's
/// 1- and 2-node points plus the extrapolation the topology layer exists
/// for (up to 4 nodes with `quick`, else 16). `Err` names a list with an
/// unparseable or zero count.
pub fn nodes_arg(quick: bool) -> Result<Vec<u16>, String> {
    let list = crate::list_arg("--nodes", "node counts >= 1", |&n: &u16| n >= 1)?;
    Ok(list.unwrap_or_else(|| if quick { vec![1, 2, 4] } else { vec![1, 2, 4, 8, 16] }))
}

/// Cluster shapes from `--topology`, if given: semicolon-separated
/// `--topology` grammar specs (the ragged grammar already uses commas),
/// e.g. `--topology "2x4;4,2,4,1:2,1,2,1@2"`.
/// Each spec becomes one sweep cell, replacing the uniform `--nodes`
/// grid. `Err` carries the grammar or shape error of the first bad spec,
/// found before any sweep cell spins up, or names a list with no spec.
pub fn topology_arg() -> Result<Option<Vec<ClusterSpec>>, String> {
    let Some(list) = crate::arg_value("--topology") else {
        return Ok(None);
    };
    let specs = list
        .split(';')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            let spec = ClusterSpec::parse(s).map_err(|e| format!("--topology: {e}"))?;
            spec.topology().map_err(|e| format!("--topology {}: {e}", s.trim()))?;
            Ok(spec)
        })
        .collect::<Result<Vec<_>, String>>()?;
    if specs.is_empty() {
        return Err(format!("--topology {list:?}: expected at least one spec"));
    }
    Ok(Some(specs))
}

/// One timed + digested run: a warm-up epoch, then one measured epoch of
/// a `4 × p × chunk_elems`-element f64 allreduce on `nodes` GH200 nodes.
/// Returns `(measured µs, run digest)`. The reduced buffer is verified
/// against the closed-form expected sums before digesting, so a wrong
/// schedule fails loudly rather than producing a fast-but-broken number.
pub fn allreduce_cell(nodes: u16, hierarchical: bool, chunk_elems: usize) -> (f64, u64) {
    allreduce_cell_on(ClusterSpec::gh200(nodes), hierarchical, chunk_elems)
}

/// [`allreduce_cell`] on an arbitrary cluster shape — ragged and
/// oversubscribed `--topology` specs run the same verified, digested
/// epoch pair; the uniform spec is bit-identical to the classic cell.
pub fn allreduce_cell_on(cluster: ClusterSpec, hierarchical: bool, chunk_elems: usize) -> (f64, u64) {
    let nodes = cluster.nodes;
    let world = World::new(SCALING_SEED, WorldConfig { cluster, ..WorldConfig::gh200(nodes) });
    let trace = world.sim.trace();
    trace.enable();
    let run = world.try_run(move |ctx, rank| {
        let partitions = 4usize;
        let p = rank.size();
        let n = partitions * p * chunk_elems;
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        let grid = (n as u32).div_ceil(1024).max(1);
        let coll = if hierarchical {
            pallreduce_init_hierarchical(ctx, rank, &buf, partitions, &stream, 42)
        } else {
            pallreduce_init(ctx, rank, &buf, partitions, &stream, 42)
        }
        .expect("pallreduce init");
        // Warm-up epoch: first-call pbuf_prepare setup exchange happens
        // outside the measured window.
        let epoch = |ctx: &mut parcomm_sim::Ctx, rank_id: usize| {
            let vals: Vec<f64> = (0..n).map(|i| (rank_id * 31 + i) as f64).collect();
            buf.write_f64_slice(0, &vals);
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            let c2 = coll.clone();
            stream.launch(ctx, KernelSpec::vector_add(grid, 1024), move |d| {
                c2.pready_device_all(d)
            });
            coll.wait(ctx).expect("wait");
        };
        epoch(ctx, rank.rank());
        rank.barrier(ctx);
        let t0 = ctx.now();
        epoch(ctx, rank.rank());
        if rank.rank() == 0 {
            let us = ctx.now().since(t0).as_micros_f64();
            let got = buf.read_f64_slice(0, n);
            for (i, v) in got.iter().enumerate() {
                let expect = (31 * p * (p - 1) / 2 + p * i) as f64;
                assert_eq!(*v, expect, "allreduce sum mismatch at element {i}");
            }
            return Some((us, got));
        }
        None
    });
    let (mut reported, report) = run.expect("scaling cell sim");
    let (us, vals) = reported.pop().expect("rank 0 reports");
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    d.write_f64_slice(&vals);
    (us, d.finish())
}

/// Run the scaling grid: one flat + hierarchical cell per node count.
pub fn run_scaling(nodes: &[u16], quick: bool) -> Experiment {
    let chunk_elems = if quick { 256 } else { 4096 };
    let mut exp = Experiment::new(
        "scaling",
        "Partitioned allreduce scaling: flat vs hierarchical ring goodput (4 GPUs/node)",
        &["nodes", "ranks", "flat_us", "hier_us", "flat_gbps", "hier_gbps", "hier_speedup"],
    );
    let mut spec = SweepSpec::new();
    for &n in nodes {
        spec.cell(format!("nodes={n}"), move || {
            let ranks = n as usize * 4;
            let bytes = (4 * ranks * chunk_elems * 8) as f64;
            let (flat_us, flat_digest) = allreduce_cell(n, false, chunk_elems);
            let (hier_us, hier_digest) = allreduce_cell(n, true, chunk_elems);
            let row = vec![
                n as f64,
                ranks as f64,
                flat_us,
                hier_us,
                bytes / (flat_us * 1e3),
                bytes / (hier_us * 1e3),
                flat_us / hier_us,
            ];
            let note =
                format!("nodes={n}: flat digest 0x{flat_digest:016x}, hier digest 0x{hier_digest:016x}");
            (row, note)
        });
    }
    for (row, note) in crate::report::run_sweep(spec, "scaling sweep") {
        exp.push_row(row);
        exp.note(note);
    }
    let multi: Vec<&Vec<f64>> = exp.rows.iter().filter(|r| r[0] >= 4.0).collect();
    if !multi.is_empty() && multi.iter().all(|r| r[6] > 1.0) {
        exp.note(
            "hierarchical ring beats the flat ring at every ≥4-node point: \
             2(N-1) IB-paced steps per rank instead of 2(NG-1)",
        );
    }
    exp.note("digests are frozen in crates/bench/tests/scaling.rs (seed 0x5CA1E0F0)");
    exp
}

/// The `--topology` grid: one flat + hierarchical cell per cluster spec,
/// uniform or ragged or oversubscribed, labeled by the spec rendered back
/// into the grammar. The hierarchical schedule degrades per shape
/// (truncated local rings, fold/unfold for surplus ranks) and every cell
/// still verifies the reduced buffer against the closed-form sums.
pub fn run_scaling_specs(specs: &[ClusterSpec], quick: bool) -> Experiment {
    let chunk_elems = if quick { 256 } else { 4096 };
    let mut exp = Experiment::new(
        "scaling-topology",
        "Partitioned allreduce over --topology shapes: flat vs hierarchical ring goodput",
        &["nodes", "ranks", "flat_us", "hier_us", "flat_gbps", "hier_gbps", "hier_speedup"],
    );
    let mut spec = SweepSpec::new();
    for cluster in specs {
        let cluster = cluster.clone();
        let label = cluster.render();
        spec.cell(format!("topology={label}"), move || {
            let ranks = cluster
                .topology()
                .unwrap_or_else(|e| panic!("--topology {label}: {e}"))
                .num_ranks();
            let bytes = (4 * ranks * chunk_elems * 8) as f64;
            let (flat_us, flat_digest) = allreduce_cell_on(cluster.clone(), false, chunk_elems);
            let (hier_us, hier_digest) = allreduce_cell_on(cluster.clone(), true, chunk_elems);
            let row = vec![
                cluster.nodes as f64,
                ranks as f64,
                flat_us,
                hier_us,
                bytes / (flat_us * 1e3),
                bytes / (hier_us * 1e3),
                flat_us / hier_us,
            ];
            let note = format!(
                "topology={label}: flat digest 0x{flat_digest:016x}, hier digest 0x{hier_digest:016x}"
            );
            (row, note)
        });
    }
    for (row, note) in crate::report::run_sweep(spec, "topology sweep") {
        exp.push_row(row);
        exp.note(note);
    }
    exp
}
