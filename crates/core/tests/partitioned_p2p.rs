//! End-to-end tests of partitioned point-to-point: host bindings, epochs,
//! transport aggregation, and both GPU-initiated copy mechanisms.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_core::{precv_init, prequest_create, psend_init, CopyMechanism, PrequestConfig};
use parcomm_gpu::{AggLevel, KernelSpec};
use parcomm_mpi::{MpiWorld, WorldConfig};
use parcomm_sim::{SimConfig, SimDuration, Simulation};

const TAG: u64 = 42;

#[test]
fn host_pready_full_cycle_delivers_all_partitions() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let parts = 8usize;
        let bytes = parts * 1024;
        let buf = rank.gpu().alloc_global(bytes);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 1024, &[u as f64 + 1.0; 128]);
                }
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert!(rreq.parrived(u), "partition {u} must be flagged");
                    assert_eq!(buf.read_f64_slice(u * 1024, 128), vec![u as f64 + 1.0; 128]);
                }
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn persistent_channel_reuse_across_epochs() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let parts = 4usize;
        let buf = rank.gpu().alloc_global(parts * 8);
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                for epoch in 1..=3u64 {
                    buf.write_f64_slice(0, &[epoch as f64; 4]);
                    sreq.start(ctx).expect("start");
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    for u in 0..parts {
                        sreq.pready(ctx, u).expect("pready");
                    }
                    sreq.wait(ctx).expect("wait");
                }
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                for epoch in 1..=3u64 {
                    rreq.start(ctx).expect("start");
                    rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    rreq.wait(ctx).expect("wait");
                    assert_eq!(
                        buf.read_f64_slice(0, 4),
                        vec![epoch as f64; 4],
                        "epoch {epoch} payload"
                    );
                    assert!(rreq.parrived(2));
                }
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn transport_aggregation_reduces_put_count() {
    // 8 user partitions aggregated into 2 transport puts: partitions only
    // arrive when their covering transport partition completes.
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let observed = Arc::new(Mutex::new(Vec::new()));
    let obs2 = observed.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 8usize;
        let buf = rank.gpu().alloc_global(parts * 64);
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                sreq.set_transport_partitions(2).expect("set_transport_partitions");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                // Ready partitions 0..3: completes transport 0 only.
                for u in 0..4 {
                    sreq.pready(ctx, u).expect("pready");
                }
                ctx.advance(SimDuration::from_micros(50));
                // Now the second transport.
                for u in 4..8 {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                // Poll until the first transport lands; record arrival sets.
                while rreq.arrived_count() < 4 {
                    ctx.advance(SimDuration::from_micros(1));
                }
                let first: Vec<bool> = (0..8).map(|u| rreq.parrived(u)).collect();
                obs2.lock().push(first);
                rreq.wait(ctx).expect("wait");
                let second: Vec<bool> = (0..8).map(|u| rreq.parrived(u)).collect();
                obs2.lock().push(second);
            }
            _ => {}
        }
    });
    sim.run().unwrap();
    let obs = observed.lock();
    assert_eq!(obs[0], vec![true, true, true, true, false, false, false, false]);
    assert_eq!(obs[1], vec![true; 8]);
}

fn run_device_cycle(copy: CopyMechanism, agg: AggLevel) -> f64 {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let elapsed = Arc::new(Mutex::new(0.0));
    let e2 = elapsed.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 256usize; // one user partition per thread
        let buf = rank.gpu().alloc_global(parts * 8);
        match rank.rank() {
            0 => {
                buf.write_f64_slice(0, &(0..parts).map(|i| i as f64).collect::<Vec<_>>());
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(
                    ctx,
                    rank,
                    &sreq,
                    PrequestConfig { copy, agg, transport_partitions: 1, multi_block_counters: true },
                )
                .expect("prequest");
                let t0 = ctx.now();
                let stream = rank.gpu().create_stream();
                let preq2 = preq.clone();
                stream.launch(ctx, KernelSpec::vector_add(1, parts as u32), move |d| {
                    preq2.pready_all(d);
                });
                sreq.wait(ctx).expect("wait");
                *e2.lock() = ctx.now().since(t0).as_micros_f64();
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                assert_eq!(
                    buf.read_f64_slice(0, parts),
                    (0..parts).map(|i| i as f64).collect::<Vec<_>>(),
                    "device-initiated payload must land"
                );
            }
            _ => {}
        }
    });
    sim.run().unwrap();
    let v = *elapsed.lock();
    v
}

#[test]
fn device_progression_engine_path_delivers() {
    let t = run_device_cycle(CopyMechanism::ProgressionEngine, AggLevel::Block);
    // Kernel (~1 µs) + block flag write (~1.3 µs) + PE poll + put + NVLink.
    assert!(t > 2.0 && t < 30.0, "PE path cycle took {t} µs");
}

#[test]
fn device_kernel_copy_path_delivers() {
    let t = run_device_cycle(CopyMechanism::KernelCopy, AggLevel::Block);
    assert!(t > 2.0 && t < 30.0, "kernel-copy cycle took {t} µs");
}

#[test]
fn kernel_copy_beats_progression_engine_intra_node() {
    let pe = run_device_cycle(CopyMechanism::ProgressionEngine, AggLevel::Block);
    let kc = run_device_cycle(CopyMechanism::KernelCopy, AggLevel::Block);
    assert!(kc < pe, "kernel copy ({kc} µs) must beat progression engine ({pe} µs)");
}

#[test]
fn aggregation_levels_order_kernel_cost() {
    // Fig. 3 shape: thread-level pready costs far more device time than
    // block-level for a fully occupied block.
    let thread = run_device_cycle(CopyMechanism::ProgressionEngine, AggLevel::Thread);
    let warp = run_device_cycle(CopyMechanism::ProgressionEngine, AggLevel::Warp);
    let block = run_device_cycle(CopyMechanism::ProgressionEngine, AggLevel::Block);
    assert!(block < warp && warp < thread, "block={block} warp={warp} thread={thread}");
    assert!(thread / block > 10.0, "thread/block ratio {}", thread / block);
}

#[test]
fn kernel_copy_cross_node_is_rejected() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 2);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(1024);
        match rank.rank() {
            0 => {
                // Rank 4 is on the other node.
                let sreq = psend_init(ctx, rank, 4, TAG, &buf, 4).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let err = prequest_create(
                    ctx,
                    rank,
                    &sreq,
                    PrequestConfig {
                        copy: CopyMechanism::KernelCopy,
                        ..PrequestConfig::default()
                    },
                );
                assert!(err.is_err(), "kernel copy must fail across nodes");
                // Fall back to the progression engine and finish the epoch.
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig::default()).unwrap();
                let stream = rank.gpu().create_stream();
                let preq2 = preq.clone();
                stream.launch(ctx, KernelSpec::vector_add(1, 4), move |d| preq2.pready_all(d));
                sreq.wait(ctx).expect("wait");
            }
            4 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, 4).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn inter_node_progression_engine_works() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 2);
    world.run_ranks(&mut sim, |ctx, rank| {
        let parts = 16usize;
        let buf = rank.gpu().alloc_global(parts * 512);
        match rank.rank() {
            2 => {
                buf.write_f64_slice(0, &[2.5; 64]);
                let sreq = psend_init(ctx, rank, 6, TAG, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig::default()).unwrap();
                let stream = rank.gpu().create_stream();
                let preq2 = preq.clone();
                stream.launch(ctx, KernelSpec::vector_add(1, parts as u32), move |d| {
                    preq2.pready_all(d)
                });
                sreq.wait(ctx).expect("wait");
            }
            6 => {
                let rreq = precv_init(ctx, rank, 2, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                assert_eq!(buf.read_f64_slice(0, 64), vec![2.5; 64]);
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn two_transport_partitions_overlap_large_kernels_inter_node() {
    // The paper found 2 transport partitions best for large inter-node
    // kernels (§VI-A2): with threads marking partitions ready as they
    // complete, the first half of the payload is already crossing the IB
    // fabric while the second half is still being computed.
    fn run(transports: usize) -> f64 {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, 2);
        let elapsed = Arc::new(Mutex::new(0.0));
        let e2 = elapsed.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let parts = 1024usize;
            let bytes = parts * 8192; // 8 MB total → ~165 µs on the wire
            let buf = rank.gpu().alloc_global(bytes);
            // Compute-heavy kernel (~175 µs) so transfer and compute have
            // comparable spans and overlap is observable.
            let spec = KernelSpec::new("heavy", 1024, 1024).with_flops(10_000.0);
            match rank.rank() {
                0 => {
                    let sreq = psend_init(ctx, rank, 4, TAG, &buf, parts).expect("init");
                    sreq.start(ctx).expect("start");
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    let preq = prequest_create(
                        ctx,
                        rank,
                        &sreq,
                        PrequestConfig {
                            transport_partitions: transports,
                            ..PrequestConfig::default()
                        },
                    )
                    .unwrap();
                    let t0 = ctx.now();
                    let stream = rank.gpu().create_stream();
                    let preq2 = preq.clone();
                    stream.launch(ctx, spec, move |d| preq2.pready_all_progressive(d));
                    sreq.wait(ctx).expect("wait");
                    *e2.lock() = ctx.now().since(t0).as_micros_f64();
                }
                4 => {
                    let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                    rreq.start(ctx).expect("start");
                    rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    rreq.wait(ctx).expect("wait");
                }
                _ => {}
            }
        });
        sim.run().unwrap();
        let v = *elapsed.lock();
        v
    }
    let one = run(1);
    let two = run(2);
    assert!(
        two < one * 0.95,
        "two transport partitions ({two} µs) should overlap the IB transfer \
         with compute vs one ({one} µs)"
    );
}

#[test]
#[should_panic(expected = "MPI_Pready before MPI_Start")]
fn pready_before_start_panics() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(64);
        if rank.rank() == 0 {
            let sreq = psend_init(ctx, rank, 1, TAG, &buf, 4).expect("init");
            sreq.pready(ctx, 0).expect("pready"); // no start, no prepare: must panic
        }
    });
    let err = sim.run().unwrap_err();
    panic!("{err}");
}

#[test]
#[should_panic(expected = "marked ready twice")]
fn double_pready_panics() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(64);
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, 4).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                sreq.pready(ctx, 2).expect("pready");
                sreq.pready(ctx, 2).expect("pready"); // double ready in one epoch
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, 4).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    let err = sim.run().unwrap_err();
    panic!("{err}");
}

#[test]
fn mismatched_partition_counts_detected() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(64);
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, 8).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, 4).expect("init"); // mismatch
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            }
            _ => {}
        }
    });
    let err = sim.run().unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("partition counts differ"), "got: {msg}");
}

#[test]
fn watchdog_counts_every_bounded_wait_on_both_ranks() {
    let mut sim = Simulation::new(SimConfig::default());
    let mut config = WorldConfig::gh200(1);
    config.wait_watchdog_us = Some(1e6);
    let world = MpiWorld::new(&sim, config);
    let registry = world.enable_metrics();
    // Each rank counts its own bounded waits, call by call.
    let expected = Arc::new(Mutex::new(0u64));
    let counted = expected.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 4usize;
        let buf = rank.gpu().alloc_global(parts * 8);
        let mut waits = 0;
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                for _ in 0..2 {
                    sreq.start(ctx).expect("start");
                    // Setup reply on the first epoch, ready-to-receive after.
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    waits += 1;
                    for u in 0..parts {
                        sreq.pready(ctx, u).expect("pready");
                    }
                    sreq.wait(ctx).expect("wait");
                    waits += 1;
                }
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                // Sender setup; later epochs only send ready-to-receive.
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                waits += 1;
                rreq.wait(ctx).expect("wait");
                waits += 1;
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait_arrivals(ctx, 1).expect("wait_arrivals");
                waits += 1;
                rreq.wait(ctx).expect("wait");
                waits += 1;
            }
            _ => {}
        }
        *counted.lock() += waits;
    });
    sim.run().unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("mpi.watchdog.arms"), Some(*expected.lock()));
    assert_eq!(snap.counter("mpi.watchdog.fires"), Some(0));
}
