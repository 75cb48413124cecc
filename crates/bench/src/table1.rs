//! Table I: overheads of the partitioned API calls, measured by timing
//! the calls in the simulation — 100-iteration control flow, 10 samples,
//! mean ± standard deviation, exactly as the paper reports.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_coll::pallreduce_init;
use parcomm_core::{precv_init, prequest_create, psend_init, PrequestConfig};
use parcomm_mpi::MpiWorld;
use parcomm_sim::Simulation;
use parcomm_sweep::SweepSpec;

use crate::report::Experiment;
use crate::stats::{mean, stddev};

/// Paper values for the side-by-side note.
const PAPER: [(&str, f64, f64); 4] = [
    ("MPI_PSend/Recv_init", 17.2, 10.2),
    ("MPIX_Pallreduce_init", 62.3, 6.2),
    ("MPIX_Prequest_create", 110.7, 37.8),
    ("MPIX_Pbuf_prepare (steady)", 3.4, 1.4),
];

struct Samples {
    p2p_init: Vec<f64>,
    pallreduce_init: Vec<f64>,
    prequest_create: Vec<f64>,
    pbuf_first: Vec<f64>,
    pbuf_steady: Vec<f64>,
}

/// Run the Table I measurement: one sweep cell per sample world, merged
/// in sample order.
pub fn run(quick: bool) -> Experiment {
    let samples = if quick { 3 } else { 10 };
    let iters = if quick { 10 } else { 100 };

    let mut spec = SweepSpec::new();
    for s in 0..samples {
        spec.cell(format!("sample={s}"), move || sample(iters, s as u64));
    }
    let mut all = Samples {
        p2p_init: Vec::new(),
        pallreduce_init: Vec::new(),
        prequest_create: Vec::new(),
        pbuf_first: Vec::new(),
        pbuf_steady: Vec::new(),
    };
    for one in crate::report::run_sweep(spec, "table1 sweep") {
        all.p2p_init.extend(one.p2p_init);
        all.pallreduce_init.extend(one.pallreduce_init);
        all.prequest_create.extend(one.prequest_create);
        all.pbuf_first.extend(one.pbuf_first);
        all.pbuf_steady.extend(one.pbuf_steady);
    }

    let mut exp = Experiment::new(
        "table1",
        "Overheads for different MPI calls (mean ± sd over samples, µs)",
        &["row", "mean_us", "sd_us", "paper_mean_us", "paper_sd_us"],
    );
    let rows: [(&str, &Vec<f64>, f64, f64); 5] = [
        ("1: PSend/Recv_init", &all.p2p_init, PAPER[0].1, PAPER[0].2),
        ("2: Pallreduce_init", &all.pallreduce_init, PAPER[1].1, PAPER[1].2),
        ("3: Prequest_create", &all.prequest_create, PAPER[2].1, PAPER[2].2),
        ("4: Pbuf_prepare first", &all.pbuf_first, 193.4, 0.0),
        ("5: Pbuf_prepare steady", &all.pbuf_steady, PAPER[3].1, PAPER[3].2),
    ];
    for (i, (name, xs, pm, psd)) in rows.iter().enumerate() {
        exp.push_row(vec![(i + 1) as f64, mean(xs), stddev(xs), *pm, *psd]);
        exp.note(format!(
            "row {}: {name} = {:.1} ± {:.1} µs (paper {:.1} ± {:.1})",
            i + 1,
            mean(xs),
            stddev(xs),
            pm,
            psd
        ));
    }
    exp
}

/// One sample world: time each call on the sender rank.
fn sample(iters: usize, seed: u64) -> Samples {
    let mut sim = Simulation::with_seed(0x7AB1 ^ seed);
    let world = MpiWorld::gh200(&sim, 1);
    let out = Arc::new(Mutex::new(None::<Samples>));
    let out2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 8usize;
        let buf = rank.gpu().alloc_global(parts * 1024);
        let stream = rank.gpu().create_stream();
        match rank.rank() {
            0 => {
                let mut s = Samples {
                    p2p_init: Vec::new(),
                    pallreduce_init: Vec::new(),
                    prequest_create: Vec::new(),
                    pbuf_first: Vec::new(),
                    pbuf_steady: Vec::new(),
                };
                // Timed MPI_Psend_init.
                let t0 = ctx.now();
                let sreq = psend_init(ctx, rank, 1, 9, &buf, parts).expect("init");
                s.p2p_init.push(ctx.now().since(t0).as_micros_f64());

                // Timed MPIX_Pallreduce_init (all ranks participate below).
                let t0 = ctx.now();
                let coll = pallreduce_init(ctx, rank, &buf, 4, &stream, 19).expect("init");
                s.pallreduce_init.push(ctx.now().since(t0).as_micros_f64());
                let _ = coll;

                // First Pbuf_prepare (includes deferred setup).
                sreq.start(ctx).expect("start");
                let t0 = ctx.now();
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                s.pbuf_first.push(ctx.now().since(t0).as_micros_f64());

                // Timed MPIX_Prequest_create.
                let t0 = ctx.now();
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig::default())
                    .expect("prequest");
                s.prequest_create.push(ctx.now().since(t0).as_micros_f64());
                let _ = preq;

                // Steady-state Pbuf_prepare over `iters` epochs: complete
                // each epoch with host pready + wait.
                for _ in 0..iters {
                    for u in 0..parts {
                        sreq.pready(ctx, u).expect("pready");
                    }
                    sreq.wait(ctx).expect("wait");
                    sreq.start(ctx).expect("start");
                    let t0 = ctx.now();
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    s.pbuf_steady.push(ctx.now().since(t0).as_micros_f64());
                }
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
                *out2.lock() = Some(s);
            }
            1 => {
                let t0 = ctx.now();
                let rreq = precv_init(ctx, rank, 0, 9, &buf, parts).expect("init");
                let init_us = ctx.now().since(t0).as_micros_f64();
                let coll = pallreduce_init(ctx, rank, &buf, 4, &stream, 19).expect("init");
                let _ = (coll, init_us);
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for _ in 0..iters {
                    rreq.start(ctx).expect("start");
                    rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    rreq.wait(ctx).expect("wait");
                }
            }
            _ => {
                // Other ranks only participate in the collective init.
                let coll = pallreduce_init(ctx, rank, &buf, 4, &stream, 19).expect("init");
                let _ = coll;
            }
        }
    });
    sim.run().expect("table1 sample");
    let guard = out.lock();
    guard.as_ref().map(clone_samples).expect("sender produced samples")
}

fn clone_samples(s: &Samples) -> Samples {
    Samples {
        p2p_init: s.p2p_init.clone(),
        pallreduce_init: s.pallreduce_init.clone(),
        prequest_create: s.prequest_create.clone(),
        pbuf_first: s.pbuf_first.clone(),
        pbuf_steady: s.pbuf_steady.clone(),
    }
}
