//! Multi-path striping ablation: cross-node partitioned p2p goodput as a
//! function of the channel's stripe count.
//!
//! The sender sits on the last GPU of node 0 and the receiver on the
//! first GPU of node 1, so with stripe count 1 every transport partition
//! funnels through the sender's single NIC rail — the exact pathology the
//! gap-decomposition bench shows for flat cross-node schedules. Raising
//! `set_stripes` splits each data put into a
//! [`MultiPathPlan`](parcomm_net::MultiPathPlan): stripes hop over NVLink
//! to the GPUs fronting the other rails (partition), ride their NIC pair
//! concurrently (translate), and hop to the destination GPU on the far
//! node (assemble). Per-put payloads sit *below* the fabric's implicit
//! [`parcomm_net::Fabric::STRIPE_THRESHOLD`], so the measured regime is
//! the one only plan-driven striping can spread.
//!
//! Every cell is a deterministic simulation digested end to end;
//! `tests/striping.rs` freezes the 1-, 2-, and 4-stripe digests, and the
//! CI `scale` job diffs a serial sweep against a 4-worker sweep and greps
//! the goodput verdict line.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_core::{precv_init, psend_init};
use parcomm_mpi::MpiWorld;
use parcomm_sim::Simulation;
use parcomm_sweep::SweepSpec;
use parcomm_testkit::digest;

use crate::report::Experiment;

/// Sim seed for every striping cell; frozen by `tests/striping.rs`.
pub const STRIPING_SEED: u64 = 0x0057_12E5;

/// Default stripe-count grid: single-path baseline, half the rails, all
/// four rails of the GH200 nodes.
pub fn default_stripes(_quick: bool) -> Vec<usize> {
    vec![1, 2, 4]
}

/// Stripe counts from `--stripes 1,2,4` or `PARCOMM_STRIPES`, if given.
pub fn stripes_arg() -> Option<Vec<usize>> {
    fn parse(list: &str) -> Option<Vec<usize>> {
        let stripes: Vec<usize> =
            list.split(',').map(|s| s.trim().parse().ok()).collect::<Option<_>>()?;
        (!stripes.is_empty()).then_some(stripes)
    }
    crate::arg_or_env("--stripes", "PARCOMM_STRIPES").as_deref().and_then(parse)
}

/// One timed + digested run: a warm-up epoch, then one measured epoch of
/// an 8-partition cross-node psend/precv (last GPU of node 0 → first GPU
/// of node 1) with the sender's channel set to `stripes`. Returns
/// `(measured µs, run digest)`. The receiver verifies the payload before
/// the run digests, so a mis-assembled stripe fails loudly rather than
/// producing a fast-but-wrong number. Needs `nodes >= 2`.
pub fn striped_p2p_cell(nodes: u16, stripes: usize, partition_bytes: usize) -> (f64, u64) {
    assert!(nodes >= 2, "striping cell is cross-node by construction");
    let mut sim = Simulation::with_seed(STRIPING_SEED);
    let trace = sim.trace();
    trace.enable();
    let world = MpiWorld::gh200(&sim, nodes);
    let gpus = world.topology().gpus_per_node() as usize;
    let (sender, receiver) = (gpus - 1, gpus);
    let out = Arc::new(Mutex::new(0.0f64));
    let o2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 8usize;
        let buf = rank.gpu().alloc_global(parts * partition_bytes);
        if rank.rank() == sender {
            let sreq = psend_init(ctx, rank, receiver, 21, &buf, parts).expect("psend init");
            sreq.set_transport_partitions(parts).expect("transports");
            sreq.set_stripes(stripes).expect("stripes");
            let epoch = |ctx: &mut parcomm_sim::Ctx| {
                for u in 0..parts {
                    buf.write_f64_slice(u * partition_bytes, &[(u + 1) as f64; 16]);
                }
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            };
            epoch(ctx);
            rank.barrier(ctx);
            let t0 = ctx.now();
            epoch(ctx);
            *o2.lock() = ctx.now().since(t0).as_micros_f64();
        } else if rank.rank() == receiver {
            let rreq = precv_init(ctx, rank, sender, 21, &buf, parts).expect("precv init");
            let epoch = |ctx: &mut parcomm_sim::Ctx| {
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(
                        buf.read_f64(u * partition_bytes),
                        (u + 1) as f64,
                        "stripe reassembly corrupted partition {u}"
                    );
                }
            };
            epoch(ctx);
            rank.barrier(ctx);
            epoch(ctx);
        } else {
            rank.barrier(ctx);
        }
    });
    let report = sim.run().expect("striping cell sim");
    let us = *out.lock();
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    d.write_f64(us);
    (us, d.finish())
}

/// Run the striping ablation over the `--stripes` grid (default
/// [`default_stripes`]).
pub fn run(quick: bool) -> Experiment {
    let stripes = stripes_arg().unwrap_or_else(|| default_stripes(quick));
    let partition_bytes = if quick { 64 * 1024 } else { 256 * 1024 };
    let nodes: u16 = 2;
    let mut exp = Experiment::new(
        "striping",
        "Multi-path striping: cross-node partitioned p2p goodput vs stripe count (2 nodes)",
        &["nodes", "stripes", "epoch_us", "goodput_gbps", "speedup_vs_1stripe"],
    );
    let mut spec = SweepSpec::new();
    for &s in &stripes {
        spec.cell(format!("nodes={nodes},stripes={s}"), move || {
            let (us, digest) = striped_p2p_cell(nodes, s, partition_bytes);
            let bytes = (8 * partition_bytes) as f64;
            let row = vec![nodes as f64, s as f64, us, bytes / (us * 1e3)];
            let note = format!("nodes={nodes},stripes={s}: digest 0x{digest:016x}");
            (row, note)
        });
    }
    let mut single_path_us = None;
    for (mut row, note) in crate::report::run_sweep(spec, "striping sweep") {
        if row[1] == 1.0 {
            single_path_us = Some(row[2]);
        }
        row.push(single_path_us.map(|base| base / row[2]).unwrap_or(f64::NAN));
        exp.push_row(row);
        exp.note(note);
    }
    let base = exp.rows.iter().find(|r| r[1] == 1.0).map(|r| r[3]);
    let best = exp
        .rows
        .iter()
        .filter(|r| r[1] > 1.0)
        .max_by(|a, b| a[3].total_cmp(&b[3]))
        .map(|r| (r[1], r[3]));
    if let (Some(base_gbps), Some((s, best_gbps))) = (base, best) {
        if best_gbps > base_gbps {
            exp.note(format!(
                "striped cross-node goodput beats single-path at {nodes} nodes: \
                 {best_gbps:.2} GB/s at {s} stripes vs {base_gbps:.2} GB/s on one rail"
            ));
        }
    }
    exp.note(
        "cell digests are deterministic at seed 0x005712E5; \
         tests/striping.rs freezes the cross-node stripe digests",
    );
    exp
}
