//! Integration tests for the MPI core: world/topology, point-to-point
//! matching semantics, the traditional allreduce baseline, and the
//! progression engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_mpi::{HookOutcome, HookStep, MpiWorld, PeHook, WorldConfig};
use parcomm_sim::{Proc, SimConfig, SimDuration, Simulation};

#[test]
fn topology_maps_ranks_to_gpus() {
    let sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 2);
    assert_eq!(world.size(), 8);
    assert_eq!(world.gpu_of(0).node, 0);
    assert_eq!(world.gpu_of(3).index, 3);
    assert_eq!(world.gpu_of(4).node, 1);
    assert_eq!(world.gpu_of(4).index, 0);
    assert_eq!(world.node_of(7), 1);
}

#[test]
fn send_recv_delivers_bytes() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(1024);
        match rank.rank() {
            0 => {
                buf.write_f64_slice(0, &[41.0; 128]);
                rank.send(ctx, 1, 7, &buf, 0, 1024);
            }
            1 => {
                rank.recv(ctx, 0, 7, &buf, 0, 1024);
                assert_eq!(buf.read_f64_slice(0, 128), vec![41.0; 128]);
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn messages_do_not_overtake_within_tag() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(8);
        match rank.rank() {
            0 => {
                for v in 1..=4u64 {
                    buf.write_flag(0, v);
                    rank.send(ctx, 1, 9, &buf, 0, 8);
                }
            }
            1 => {
                for v in 1..=4u64 {
                    rank.recv(ctx, 0, 9, &buf, 0, 8);
                    assert_eq!(buf.read_flag(0), v, "FIFO per (src,dst,tag)");
                }
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn different_tags_match_independently() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        match rank.rank() {
            0 => {
                let a = rank.gpu().alloc_global(8);
                let b = rank.gpu().alloc_global(8);
                a.write_flag(0, 100);
                b.write_flag(0, 200);
                let h = ctx.handle();
                // Post tag 1 then tag 2; receiver takes tag 2 first.
                let s1 = rank.isend(&h, 1, 1, &a, 0, 8);
                let s2 = rank.isend(&h, 1, 2, &b, 0, 8);
                ctx.wait(&s1.done);
                ctx.wait(&s2.done);
            }
            1 => {
                let buf = rank.gpu().alloc_global(8);
                rank.recv(ctx, 0, 2, &buf, 0, 8);
                assert_eq!(buf.read_flag(0), 200);
                rank.recv(ctx, 0, 1, &buf, 0, 8);
                assert_eq!(buf.read_flag(0), 100);
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn cross_node_send_takes_longer_than_intra_node() {
    let intra = time_pingpong(1, 0, 1);
    let inter = time_pingpong(2, 0, 4);
    assert!(
        inter > intra * 1.3,
        "inter-node {inter} µs should exceed intra-node {intra} µs"
    );
}

fn time_pingpong(nodes: u16, a: usize, b: usize) -> f64 {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, nodes);
    let elapsed = Arc::new(Mutex::new(0.0));
    let e2 = elapsed.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let buf = rank.gpu().alloc_global(65536);
        if rank.rank() == a {
            let t0 = ctx.now();
            rank.send(ctx, b, 3, &buf, 0, 65536);
            rank.recv(ctx, b, 4, &buf, 0, 65536);
            *e2.lock() = ctx.now().since(t0).as_micros_f64();
        } else if rank.rank() == b {
            rank.recv(ctx, a, 3, &buf, 0, 65536);
            rank.send(ctx, a, 4, &buf, 0, 65536);
        }
    });
    sim.run().unwrap();
    let v = *elapsed.lock();
    v
}

#[test]
fn allreduce_ring_sums_across_all_ranks() {
    for nodes in [1u16, 2] {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, nodes);
        let size = world.size();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let n = 1024usize;
            let buf = rank.gpu().alloc_global(n * 8);
            let init: Vec<f64> =
                (0..n).map(|i| (rank.rank() + 1) as f64 * (i + 1) as f64).collect();
            buf.write_f64_slice(0, &init);
            let stream = rank.gpu().create_stream();
            rank.allreduce_ring_f64(ctx, &buf, 0, n, &stream);
            // Expected: sum over ranks of (r+1)*(i+1) = (i+1) * P(P+1)/2.
            let p = rank.size() as f64;
            let scale = p * (p + 1.0) / 2.0;
            let out = buf.read_f64_slice(0, n);
            for (i, v) in out.iter().enumerate() {
                let expect = (i + 1) as f64 * scale;
                assert!(
                    (v - expect).abs() < 1e-9,
                    "nodes={nodes} rank={} elem {i}: {v} != {expect}",
                    rank.rank()
                );
            }
        });
        sim.run().unwrap();
        let _ = size;
    }
}

#[test]
fn allreduce_handles_uneven_lengths() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let n = 13usize; // not divisible by 4
        let buf = rank.gpu().alloc_global(n * 8);
        buf.write_f64_slice(0, &vec![1.0; n]);
        let stream = rank.gpu().create_stream();
        rank.allreduce_ring_f64(ctx, &buf, 0, n, &stream);
        assert_eq!(buf.read_f64_slice(0, n), vec![4.0; n]);
    });
    sim.run().unwrap();
}

#[test]
fn allreduce_single_element_chunks() {
    // n < P exercise: some chunks are empty.
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let n = 2usize;
        let buf = rank.gpu().alloc_global(n * 8);
        buf.write_f64_slice(0, &[rank.rank() as f64, 10.0]);
        let stream = rank.gpu().create_stream();
        rank.allreduce_ring_f64(ctx, &buf, 0, n, &stream);
        assert_eq!(buf.read_f64_slice(0, n), vec![0.0 + 1.0 + 2.0 + 3.0, 40.0]);
    });
    sim.run().unwrap();
}

/// A hook that counts its runs and unregisters on the fifth; each run
/// charges 1 µs of host time before it ends.
struct CountRuns(Arc<AtomicU64>);

impl PeHook for CountRuns {
    fn step(&self, _p: &Proc) -> HookStep {
        let n = self.0.fetch_add(1, Ordering::Relaxed) + 1;
        if n % 2 == 1 {
            return HookStep::Advance(SimDuration::from_micros(1));
        }
        HookStep::Done(if n >= 10 { HookOutcome::Remove } else { HookOutcome::Keep })
    }
}

#[test]
fn progression_engine_runs_hooks_until_removed() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let counter = Arc::new(AtomicU64::new(0));
    let c2 = counter.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        if rank.rank() == 0 {
            rank.progression().register(&ctx.handle(), Arc::new(CountRuns(c2.clone())));
            // Give the engine time to run the hook to completion.
            ctx.advance(SimDuration::from_micros(100));
            assert_eq!(rank.progression().hook_count(), 0);
        }
    });
    sim.run().unwrap();
    // Five runs of two steps each.
    assert_eq!(counter.load(Ordering::Relaxed), 10);
}

#[test]
fn progression_engine_idles_without_hooks() {
    // A world where nobody registers hooks must terminate promptly (the
    // engines park on their work event and are released at shutdown).
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 2);
    world.run_ranks(&mut sim, |ctx, _rank| {
        ctx.advance(SimDuration::from_micros(10));
    });
    let report = sim.run().unwrap();
    // 8 ranks + 8 idle engines should not generate poll storms.
    assert!(report.events_processed < 500, "events {}", report.events_processed);
}

#[test]
fn deadlock_report_names_the_am_tag_and_the_idle_engine() {
    // Rank 0 parks in an active-message receive nobody sends to while its
    // progression engine idles: the report names both wait targets.
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        if rank.rank() == 0 {
            rank.worker().am_recv(ctx, 0xBEEF);
        }
    });
    let err = sim.run().expect_err("rank 0 never receives");
    assert!(matches!(err, parcomm_sim::SimError::Deadlock { .. }), "{err:?}");
    let msg = err.to_string();
    for target in ["event 'am arrival tag 48879'", "event 'work_available rank 0'"] {
        assert!(msg.contains(target), "{target} missing from: {msg}");
    }
    assert!(!msg.contains("waiting on event <unnamed>"), "{msg}");
}

#[test]
fn barrier_aligns_ranks() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let times = Arc::new(Mutex::new(Vec::new()));
    let t2 = times.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        ctx.advance(SimDuration::from_micros(rank.rank() as u64 * 10));
        rank.barrier(ctx);
        t2.lock().push(ctx.now().as_micros_f64());
    });
    sim.run().unwrap();
    let times = times.lock();
    assert!(times.iter().all(|&t| t == 30.0), "{times:?}");
}

#[test]
fn hoststaged_allreduce_matches_ring_numerically() {
    for nodes in [1u16, 2] {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, nodes);
        world.run_ranks(&mut sim, move |ctx, rank| {
            let n = 257usize; // deliberately uneven across chunks
            let a = rank.gpu().alloc_global(n * 8);
            let b = rank.gpu().alloc_global(n * 8);
            let init: Vec<f64> =
                (0..n).map(|i| (rank.rank() as f64 + 1.0) * (i as f64 - 100.0)).collect();
            a.write_f64_slice(0, &init);
            b.write_f64_slice(0, &init);
            let stream = rank.gpu().create_stream();
            rank.allreduce_ring_f64(ctx, &a, 0, n, &stream);
            rank.allreduce_hoststaged_f64(ctx, &b, 0, n, &stream);
            let va = a.read_f64_slice(0, n);
            let vb = b.read_f64_slice(0, n);
            for i in 0..n {
                assert!(
                    (va[i] - vb[i]).abs() < 1e-9,
                    "nodes={nodes} elem {i}: ring {} vs staged {}",
                    va[i],
                    vb[i]
                );
            }
        });
        sim.run().unwrap();
    }
}

/// Rank 0's times, in µs, for one GPU-direct ring allreduce and then one
/// host-staged allreduce of 8 MB on one node whose NVLink-C2C link runs at
/// `c2c_gbps`.
fn ring_and_hoststaged_allreduce_us(c2c_gbps: f64) -> (f64, f64) {
    let mut sim = Simulation::new(SimConfig::default());
    let mut cfg = WorldConfig::gh200(1);
    cfg.cluster.c2c.bandwidth_gbps = c2c_gbps;
    let world = MpiWorld::new(&sim, cfg);
    let out = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let o2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let n = 1 << 20; // 8 MB
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        rank.barrier(ctx);
        let t0 = ctx.now();
        rank.allreduce_ring_f64(ctx, &buf, 0, n, &stream);
        let ring = ctx.now().since(t0).as_micros_f64();
        rank.barrier(ctx);
        let t1 = ctx.now();
        rank.allreduce_hoststaged_f64(ctx, &buf, 0, n, &stream);
        let staged = ctx.now().since(t1).as_micros_f64();
        if rank.rank() == 0 {
            *o2.lock() = (ring, staged);
        }
    });
    sim.run().unwrap();
    let times = *out.lock();
    times
}

#[test]
fn hoststaged_allreduce_is_slower_than_gpudirect_ring() {
    // The whole point of the baseline: host staging + CPU reductions cost
    // far more than the CUDA-aware ring at large sizes.
    let c2c = WorldConfig::gh200(1).cluster.c2c.bandwidth_gbps;
    let (ring, staged) = ring_and_hoststaged_allreduce_us(c2c);
    assert!(
        staged > ring * 1.5,
        "host-staged ({staged} µs) must be much slower than GPU-direct ring ({ring} µs)"
    );
}

#[test]
fn hoststaged_allreduce_stages_over_the_cluster_c2c_link() {
    let c2c = WorldConfig::gh200(1).cluster.c2c.bandwidth_gbps;
    let (_, full) = ring_and_hoststaged_allreduce_us(c2c);
    let (_, half) = ring_and_hoststaged_allreduce_us(c2c / 2.0);
    assert!(
        half > full,
        "halving C2C bandwidth must slow the staging copies: {half} µs vs {full} µs"
    );
}
