//! Integration tests for the GPU model: stream FIFO semantics, kernel
//! timing, synchronize cost, device-context emissions, and IPC mappings.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{AggLevel, CostModel, Gpu, GpuId, GpuMetrics, KernelSpec};
use parcomm_obs::MetricsRegistry;
use parcomm_sim::{Event, SimConfig, SimDuration, Simulation};

fn test_gpu(sim: &Simulation) -> Gpu {
    let metrics = GpuMetrics::new(&MetricsRegistry::new());
    Gpu::new(GpuId { node: 0, index: 0 }, CostModel::default(), sim.handle(), &metrics)
}

#[test]
fn kernel_runs_and_completes() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let launch = stream.launch(ctx, KernelSpec::vector_add(4, 256), |_d| {});
        assert!(!launch.done.is_set());
        ctx.wait(&launch.done);
        assert_eq!(ctx.now(), launch.end);
        assert!(launch.duration() > SimDuration::ZERO);
    });
    sim.run().unwrap();
}

#[test]
fn kernels_on_one_stream_are_fifo() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let a = stream.launch(ctx, KernelSpec::vector_add(1024, 1024), |_| {});
        let b = stream.launch(ctx, KernelSpec::vector_add(1, 32), |_| {});
        // b was enqueued while a still runs: it must start when a ends.
        assert_eq!(b.start, a.end, "FIFO stream must serialize kernels");
        ctx.wait(&b.done);
    });
    sim.run().unwrap();
}

#[test]
fn kernel_body_writes_buffers_functionally() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let a = gpu.alloc_global(8 * 16);
        let b = gpu.alloc_global(8 * 16);
        let c = gpu.alloc_global(8 * 16);
        a.write_f64_slice(0, &(0..16).map(|i| i as f64).collect::<Vec<_>>());
        b.write_f64_slice(0, &(0..16).map(|i| (i * 10) as f64).collect::<Vec<_>>());
        let (a2, b2, c2) = (a.clone(), b.clone(), c.clone());
        let stream = gpu.create_stream();
        let launch = stream.launch(ctx, KernelSpec::vector_add(1, 16), move |_d| {
            let av = a2.read_f64_slice(0, 16);
            let bv = b2.read_f64_slice(0, 16);
            let cv: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x + y).collect();
            c2.write_f64_slice(0, &cv);
        });
        ctx.wait(&launch.done);
        let cv = c.read_f64_slice(0, 16);
        assert_eq!(cv[3], 33.0);
        assert_eq!(cv[15], 165.0);
    });
    sim.run().unwrap();
}

#[test]
fn stream_synchronize_costs_fixed_time_when_idle() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let t0 = ctx.now();
        stream.synchronize(ctx);
        let cost = ctx.now().since(t0).as_micros_f64();
        // 7.8 ± 0.1 µs (Fig. 2): jittered but near the constant.
        assert!((7.0..9.0).contains(&cost), "idle sync cost {cost}");
    });
    sim.run().unwrap();
}

#[test]
fn stream_synchronize_waits_for_kernel() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let launch = stream.launch(ctx, KernelSpec::vector_add(128 * 1024, 1024), |_| {});
        stream.synchronize(ctx);
        assert!(ctx.now() >= launch.end);
        // Fig. 2 anchor: 128K-grid vector add ≈ 950-1000 µs of device time.
        let dur = launch.duration().as_micros_f64();
        assert!((900.0..1100.0).contains(&dur), "kernel duration {dur}");
        // Sync overhead on top of kernel end should be ≈ 7.8 µs.
        let tail = ctx.now().since(launch.end).as_micros_f64();
        assert!((7.0..9.0).contains(&tail), "sync tail {tail}");
    });
    sim.run().unwrap();
}

#[test]
fn device_ctx_emissions_fire_within_window() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let flag = Event::new();
        let flag2 = flag.clone();
        let seen3 = seen2.clone();
        let launch = stream.launch(ctx, KernelSpec::vector_add(1, 64), move |d| {
            let compute = d.compute_duration();
            let writes = d.cost().pready_cost_us(AggLevel::Block, 64);
            let end = d.extend(SimDuration::from_micros_f64(writes));
            let _ = compute;
            let seen4 = seen3.clone();
            d.at_offset(end, move |h| {
                seen4.lock().push(h.now());
                flag2.set(h);
            });
        });
        ctx.wait(&flag);
        assert_eq!(ctx.now(), launch.end, "emission at kernel end");
        ctx.wait(&launch.done);
    });
    sim.run().unwrap();
    assert_eq!(seen.lock().len(), 1);
}

#[test]
fn extended_kernels_occupy_the_stream_longer() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let plain = stream.launch(ctx, KernelSpec::vector_add(1, 1024), |_| {});
        ctx.wait(&plain.done);
        let extended = stream.launch(ctx, KernelSpec::vector_add(1, 1024), |d| {
            d.extend(SimDuration::from_micros(50));
        });
        ctx.wait(&extended.done);
        let delta = extended.duration().as_micros_f64() - plain.duration().as_micros_f64();
        assert!((49.0..51.0).contains(&delta), "extension delta {delta}");
    });
    sim.run().unwrap();
}

#[test]
fn enqueue_busy_serializes_with_kernels() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let k = stream.launch(ctx, KernelSpec::vector_add(512, 1024), |_| {});
        let cpy = stream.enqueue_busy(&ctx.handle(), "memcpy", SimDuration::from_micros(12));
        assert_eq!(cpy.start, k.end);
        assert_eq!(cpy.duration(), SimDuration::from_micros(12));
        ctx.wait(&cpy.done);
    });
    sim.run().unwrap();
}

#[test]
fn pinned_host_memory_space() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |_ctx| {
        let flags = gpu.alloc_pinned_host(128);
        assert!(flags.space().is_pinned_host());
        assert_eq!(flags.space().node(), 0);
    });
    sim.run().unwrap();
}

#[test]
fn two_streams_run_concurrently() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let s1 = gpu.create_stream();
        let s2 = gpu.create_stream();
        let a = s1.launch(ctx, KernelSpec::vector_add(1024, 1024), |_| {});
        let b = s2.launch(ctx, KernelSpec::vector_add(1024, 1024), |_| {});
        // Independent streams: b does not wait for a (model has no
        // SM-contention serialization between streams).
        assert!(b.start < a.end, "streams must overlap");
        ctx.wait(&a.done);
        ctx.wait(&b.done);
    });
    sim.run().unwrap();
}

#[test]
fn flag_write_train_pays_base_once_per_kernel() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let costs = Arc::new(Mutex::new(Vec::new()));
        let costs2 = costs.clone();
        let launch = stream.launch(ctx, KernelSpec::vector_add(1, 64), move |d| {
            // First train: a + 4b; second train in the same kernel: 4b.
            costs2.lock().push(d.flag_write_train_us(4));
            costs2.lock().push(d.flag_write_train_us(4));
            costs2.lock().push(d.flag_write_train_us(0));
        });
        ctx.wait(&launch.done);
        let cm = gpu.cost();
        let got = costs.lock().clone();
        let a = cm.host_flag_write_base_us;
        let b = cm.host_flag_write_per_us;
        assert!((got[0] - (a + 4.0 * b)).abs() < 1e-9, "first train {}", got[0]);
        assert!((got[1] - 4.0 * b).abs() < 1e-9, "second train {}", got[1]);
        assert_eq!(got[2], 0.0, "empty train is free");
    });
    sim.run().unwrap();
}

#[test]
fn flag_train_state_resets_between_kernels() {
    let mut sim = Simulation::new(SimConfig::default());
    let gpu = test_gpu(&sim);
    sim.spawn("host", move |ctx| {
        let stream = gpu.create_stream();
        let first = Arc::new(Mutex::new(0.0));
        let f2 = first.clone();
        let l1 = stream.launch(ctx, KernelSpec::vector_add(1, 32), move |d| {
            *f2.lock() = d.flag_write_train_us(1);
        });
        ctx.wait(&l1.done);
        let second = Arc::new(Mutex::new(0.0));
        let s2 = second.clone();
        let l2 = stream.launch(ctx, KernelSpec::vector_add(1, 32), move |d| {
            *s2.lock() = d.flag_write_train_us(1);
        });
        ctx.wait(&l2.done);
        assert_eq!(
            *first.lock(),
            *second.lock(),
            "each kernel pays the base drain latency afresh"
        );
    });
    sim.run().unwrap();
}

#[test]
#[should_panic(expected = "block_dim must be 1..=1024")]
fn oversized_block_rejected() {
    KernelSpec::new("bad", 1, 2048);
}
