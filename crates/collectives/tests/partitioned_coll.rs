//! End-to-end tests for partitioned collectives: numerical correctness of
//! the ring allreduce and tree bcast, epoch reuse, pipelining, and the
//! device-initiated path.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_coll::{pallreduce_init, pallreduce_init_hierarchical, pbcast_init, Schedule, StepOp};
use parcomm_gpu::KernelSpec;
use parcomm_mpi::MpiWorld;
use parcomm_sim::{SimConfig, SimDuration, Simulation};

#[test]
fn pallreduce_sums_correctly_one_node() {
    run_allreduce_correctness(1, 4, 256);
}

#[test]
fn pallreduce_sums_correctly_two_nodes() {
    run_allreduce_correctness(2, 8, 128);
}

fn run_allreduce_correctness(nodes: u16, partitions: usize, elems_per_chunk: usize) {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, nodes);
    let p = world.size();
    let n = partitions * p * elems_per_chunk;
    world.run_ranks(&mut sim, move |ctx, rank| {
        let buf = rank.gpu().alloc_global(n * 8);
        let init: Vec<f64> = (0..n).map(|i| (rank.rank() + 1) as f64 * (i + 1) as f64).collect();
        buf.write_f64_slice(0, &init);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 5).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        for u in 0..partitions {
            coll.pready(ctx, u).expect("pready");
        }
        coll.wait(ctx).expect("wait");
        let out = buf.read_f64_slice(0, n);
        let scale = (rank.size() * (rank.size() + 1)) as f64 / 2.0;
        for (i, v) in out.iter().enumerate() {
            let expect = (i + 1) as f64 * scale;
            assert!(
                (v - expect).abs() < 1e-6,
                "rank {} elem {i}: {v} != {expect}",
                rank.rank()
            );
        }
        for u in 0..partitions {
            assert!(coll.parrived(u));
        }
    });
    sim.run().unwrap();
}

#[test]
fn pallreduce_reuse_across_iterations() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let p = world.size();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let partitions = 2usize;
        let n = partitions * p * 16;
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 9).expect("init");
        for iter in 1..=3u64 {
            buf.write_f64_slice(0, &vec![iter as f64 * (rank.rank() + 1) as f64; n]);
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            for u in 0..partitions {
                coll.pready(ctx, u).expect("pready");
            }
            coll.wait(ctx).expect("wait");
            let expect = iter as f64 * (p * (p + 1)) as f64 / 2.0;
            let out = buf.read_f64_slice(0, n);
            assert!(
                out.iter().all(|v| (v - expect).abs() < 1e-9),
                "iter {iter}: {:?} != {expect}",
                &out[..4]
            );
        }
    });
    sim.run().unwrap();
}

#[test]
fn pallreduce_device_initiated() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let p = world.size();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let partitions = 4usize;
        let n = partitions * p * 64;
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 11).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        // The compute kernel produces the contribution and calls the device
        // MPIX_Pready for all partitions.
        let buf2 = buf.clone();
        let coll2 = coll.clone();
        let r = rank.rank();
        stream.launch(ctx, KernelSpec::vector_add((n as u32).div_ceil(1024).max(1), 1024), move |d| {
            buf2.write_f64_slice(0, &vec![(r + 1) as f64; n]);
            coll2.pready_device_all(d);
        });
        coll.wait(ctx).expect("wait");
        let expect = (p * (p + 1)) as f64 / 2.0;
        let out = buf.read_f64_slice(0, n);
        assert!(out.iter().all(|v| (v - expect).abs() < 1e-9), "{:?} != {expect}", &out[..4]);
    });
    sim.run().unwrap();
}

#[test]
fn pallreduce_partitions_pipeline() {
    // Marking partitions ready at staggered times must still complete, and
    // early partitions should finish before late ones are even ready.
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let p = world.size();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let partitions = 4usize;
        let n = partitions * p * 16;
        let buf = rank.gpu().alloc_global(n * 8);
        buf.write_f64_slice(0, &vec![1.0; n]);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 13).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        for u in 0..partitions {
            coll.pready(ctx, u).expect("pready");
            ctx.advance(SimDuration::from_micros(30));
        }
        coll.wait(ctx).expect("wait");
        let out = buf.read_f64_slice(0, n);
        assert!(out.iter().all(|v| (*v - p as f64).abs() < 1e-9));
    });
    sim.run().unwrap();
}

#[test]
fn pbcast_delivers_root_payload() {
    for nodes in [1u16, 2] {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, nodes);
        world.run_ranks(&mut sim, move |ctx, rank| {
            let partitions = 2usize;
            let n = partitions * 128;
            let buf = rank.gpu().alloc_global(n * 8);
            let root = 1usize;
            if rank.rank() == root {
                buf.write_f64_slice(0, &(0..n).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
            }
            let stream = rank.gpu().create_stream();
            let coll = pbcast_init(ctx, rank, &buf, partitions, &stream, root, 21).expect("init");
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            for u in 0..partitions {
                coll.pready(ctx, u).expect("pready");
            }
            coll.wait(ctx).expect("wait");
            let out = buf.read_f64_slice(0, n);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as f64 * 0.5, "nodes={nodes} rank={} elem {i}", rank.rank());
            }
        });
        sim.run().unwrap();
    }
}

#[test]
fn pbcast_has_no_reduction_steps() {
    for r in 0..8 {
        let s = Schedule::tree_bcast(r, 8, 0);
        assert!(s.steps.iter().all(|st| st.op == StepOp::Nop));
    }
}

#[test]
fn allreduce_schedule_pipelines_vs_traditional() {
    // The partitioned allreduce (device-initiated, partition-pipelined)
    // must beat the traditional model (kernel + streamSync + host-staged
    // MPI_Allreduce) at the paper's large-message regime (Fig. 6 uses
    // 1K-32K grids ≈ 8-256 MB buffers; small buffers are overhead-bound
    // for both and not part of the paper's collective evaluation).
    let part = timed(true);
    let trad = timed(false);
    assert!(
        part < trad,
        "partitioned allreduce ({part} µs) must beat traditional ({trad} µs)"
    );
}

fn timed(partitioned: bool) -> f64 {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let p = world.size();
    let elapsed = Arc::new(Mutex::new(0.0));
    let e2 = elapsed.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let partitions = 4usize;
        let n = partitions * p * 65536; // 8 MB of f64 payload
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        let grid = (n as u32).div_ceil(1024).max(1);
        if partitioned {
            let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 31).expect("init");
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            rank.barrier(ctx);
            let t0 = ctx.now();
            let coll2 = coll.clone();
            let buf2 = buf.clone();
            stream.launch(ctx, KernelSpec::vector_add(grid, 1024), move |d| {
                buf2.write_f64_slice(0, &vec![1.0; n]);
                coll2.pready_device_all(d);
            });
            coll.wait(ctx).expect("wait");
            if rank.rank() == 0 {
                *e2.lock() = ctx.now().since(t0).as_micros_f64();
            }
        } else {
            rank.barrier(ctx);
            let t0 = ctx.now();
            let buf2 = buf.clone();
            stream.launch(ctx, KernelSpec::vector_add(grid, 1024), move |_d| {
                buf2.write_f64_slice(0, &vec![1.0; n]);
            });
            stream.synchronize(ctx);
            rank.allreduce_hoststaged_f64(ctx, &buf, 0, n, &stream);
            if rank.rank() == 0 {
                *e2.lock() = ctx.now().since(t0).as_micros_f64();
            }
        }
    });
    sim.run().unwrap();
    let v = *elapsed.lock();
    v
}

/// An idle poll wake performs no channel lookup. Rank 0 holds its
/// contribution back while the other ranks sit in `MPI_Wait`; the
/// hierarchical schedule has several receive channels per rank, so they
/// poll every `progress_poll_us`, thousands of times over the window. Their
/// completion-path lookup counts must not move across it.
#[test]
fn idle_poll_wakes_perform_no_channel_lookup() {
    const HOLD_US: u64 = 2_000;
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 2);
    let size = world.size();
    let colls = Arc::new(Mutex::new(vec![None; size]));
    let window = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    let (c2, w2) = (colls.clone(), window.clone());
    world.run_ranks(&mut sim, move |ctx, rank| {
        let n = 4 * rank.size() * 64;
        let buf = rank.gpu().alloc_global(n * 8);
        buf.write_f64_slice(0, &vec![1.0; n]);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init_hierarchical(ctx, rank, &buf, 4, &stream, 9).expect("init");
        c2.lock()[rank.rank()] = Some(coll.clone());
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        if rank.rank() == 0 {
            let lookups = || -> Vec<u64> {
                let colls = c2.lock();
                let others = colls[1..].iter().map(|c| c.as_ref().expect("built"));
                others.map(|c| c.completion_lookup_ops()).collect()
            };
            // The others have swept everything they can within ~400 µs.
            ctx.advance(SimDuration::from_micros(HOLD_US / 2));
            let before = lookups();
            ctx.advance(SimDuration::from_micros(HOLD_US / 2));
            *w2.lock() = (before, lookups());
        }
        for u in 0..4 {
            coll.pready(ctx, u).expect("pready");
        }
        coll.wait(ctx).expect("wait");
        assert_eq!(buf.read_f64_slice(0, n), vec![rank.size() as f64; n]);
    });
    sim.run().unwrap();
    let (before, after) = window.lock().clone();
    assert!(before.iter().all(|&l| l > 0), "the waiting ranks swept before going idle: {before:?}");
    assert_eq!(before, after, "idle poll wakes looked channels up");
}
