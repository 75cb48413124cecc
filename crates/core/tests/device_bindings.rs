//! Focused tests for the device-side API: progressive readiness overlap,
//! the `MPIX_Parrived` device mirror, warp-level aggregation end-to-end,
//! pinned-flag contents, and MPI_Test polling.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_core::{precv_init, prequest_create, psend_init, CopyMechanism, PrequestConfig};
use parcomm_gpu::{AggLevel, KernelSpec};
use parcomm_mpi::MpiWorld;
use parcomm_sim::{SimConfig, SimDuration, Simulation};

const TAG: u64 = 77;

/// A compute-heavy kernel whose span rivals the transfer time.
fn heavy_kernel() -> KernelSpec {
    KernelSpec::new("heavy", 512, 1024).with_flops(20_000.0)
}

#[test]
fn progressive_pready_overlaps_transfer_with_compute() {
    // Same channel, same kernel: the progressive variant's sender-side
    // wait must finish earlier because the first transport partition's
    // data starts crossing NVLink mid-kernel.
    fn run(progressive: bool) -> f64 {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, 1);
        let out = Arc::new(Mutex::new(0.0f64));
        let o2 = out.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let parts = 512usize;
            let bytes = parts * 32 * 1024; // 16 MB → ~110 µs on NVLink
            let buf = rank.gpu().alloc_global(bytes);
            match rank.rank() {
                0 => {
                    let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                    sreq.start(ctx).expect("start");
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    let preq = prequest_create(
                        ctx,
                        rank,
                        &sreq,
                        PrequestConfig { transport_partitions: 4, ..PrequestConfig::default() },
                    )
                    .unwrap();
                    let t0 = ctx.now();
                    let stream = rank.gpu().create_stream();
                    let p2 = preq.clone();
                    stream.launch(ctx, heavy_kernel(), move |d| {
                        if progressive {
                            p2.pready_all_progressive(d);
                        } else {
                            p2.pready_all(d);
                        }
                    });
                    sreq.wait(ctx).expect("wait");
                    *o2.lock() = ctx.now().since(t0).as_micros_f64();
                }
                1 => {
                    let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                    rreq.start(ctx).expect("start");
                    rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    rreq.wait(ctx).expect("wait");
                }
                _ => {}
            }
        });
        sim.run().unwrap();
        let v = *out.lock();
        v
    }
    let at_end = run(false);
    let progressive = run(true);
    assert!(
        progressive < at_end * 0.8,
        "progressive ({progressive} µs) must overlap transfers with compute \
         (all-at-end: {at_end} µs)"
    );
}

#[test]
fn progressive_kernel_copy_delivers_payload() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 64usize;
        let buf = rank.gpu().alloc_global(parts * 64);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64(u * 64, (u * u) as f64);
                }
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(
                    ctx,
                    rank,
                    &sreq,
                    PrequestConfig {
                        copy: CopyMechanism::KernelCopy,
                        transport_partitions: 4,
                        ..PrequestConfig::default()
                    },
                )
                .unwrap();
                let stream = rank.gpu().create_stream();
                let p2 = preq.clone();
                stream.launch(ctx, KernelSpec::vector_add(1, 64), move |d| {
                    p2.pready_all_progressive(d)
                });
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(buf.read_f64(u * 64), (u * u) as f64, "partition {u}");
                }
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn warp_level_device_binding_round_trip() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 128usize; // 4 warps worth of thread-partitions
        let buf = rank.gpu().alloc_global(parts * 8);
        match rank.rank() {
            0 => {
                buf.write_f64_slice(0, &vec![6.25; parts]);
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(
                    ctx,
                    rank,
                    &sreq,
                    PrequestConfig {
                        agg: AggLevel::Warp,
                        multi_block_counters: false,
                        ..PrequestConfig::default()
                    },
                )
                .unwrap();
                let stream = rank.gpu().create_stream();
                let p2 = preq.clone();
                stream
                    .launch(ctx, KernelSpec::vector_add(1, parts as u32), move |d| p2.pready_all(d));
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                assert_eq!(buf.read_f64_slice(0, parts), vec![6.25; parts]);
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn device_arrival_mirror_reflects_wait() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 4usize;
        let buf = rank.gpu().alloc_global(parts * 256);
        match rank.rank() {
            0 => {
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
                // Create the device mirror before the epoch.
                let mirror = rreq.device_arrival_flags(rank);
                assert_eq!(mirror.read_flag(0), 0, "mirror starts clear");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                // MPI_Wait refreshed the device mirror (paper §IV-A4): a
                // kernel can now check arrivals from device memory.
                let stream = rank.gpu().create_stream();
                let rreq2 = rreq.clone();
                let seen = Arc::new(Mutex::new(Vec::new()));
                let seen2 = seen.clone();
                let launch = stream.launch(ctx, KernelSpec::vector_add(1, 4), move |d| {
                    for u in 0..parts {
                        seen2.lock().push(rreq2.parrived_device(d, u));
                    }
                });
                launch.wait(ctx);
                assert_eq!(*seen.lock(), vec![true; parts]);
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn mpi_test_polls_without_blocking() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 2usize;
        let buf = rank.gpu().alloc_global(parts * 128);
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                assert!(!sreq.test(), "nothing sent yet");
                sreq.pready(ctx, 0).expect("pready");
                sreq.pready(ctx, 1).expect("pready");
                // Poll until complete (MPI_Test loop).
                let mut polls = 0;
                while !sreq.test() {
                    ctx.advance(SimDuration::from_micros(1));
                    polls += 1;
                    assert!(polls < 1000, "test never completed");
                }
                sreq.wait(ctx).expect("wait"); // immediate
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                while !rreq.test() {
                    ctx.advance(SimDuration::from_micros(1));
                }
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn pinned_flags_record_epoch_numbers() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 4usize;
        let buf = rank.gpu().alloc_global(parts * 8);
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, TAG, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig::default()).unwrap();
                let stream = rank.gpu().create_stream();
                let p2 = preq.clone();
                stream.launch(ctx, KernelSpec::vector_add(1, 4), move |d| p2.pready_all(d));
                sreq.wait(ctx).expect("wait");
                // The device wrote its notification into pinned host memory.
                assert_eq!(preq.pinned_flags().read_flag(0), 1, "epoch 1 notification");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, TAG, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}
