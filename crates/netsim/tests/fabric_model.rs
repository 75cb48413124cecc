//! Integration tests for the fabric: routing, bandwidth, latency, and
//! link contention.

use parcomm_gpu::{Location, Unit};
use parcomm_net::{ClusterSpec, Fabric, Transfer, WireAttr};
use parcomm_obs::MetricsRegistry;
use std::sync::Arc;

use parcomm_sim::{Action, Ctx, SimConfig, SimHandle, SimTime, Simulation, SpanId};

fn gpu(node: u16, idx: u8) -> Location {
    Location { node, unit: Unit::Gpu(idx) }
}

fn cpu(node: u16) -> Location {
    Location { node, unit: Unit::Cpu }
}

/// A fault-free transfer starting now.
fn transfer(fabric: &Fabric, src: Location, dst: Location, bytes: u64) -> Transfer {
    fabric.try_transfer(fabric.sim().now(), src, dst, bytes, WireAttr::NONE).unwrap()
}

/// Park the process until `at` (a transfer's arrival); no-op once past.
fn wait_until(ctx: &mut Ctx, at: SimTime) {
    let now = ctx.now();
    if at > now {
        ctx.advance(at.since(now));
    }
}

#[test]
fn intra_node_gpu_route_is_nvlink() {
    let sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(2), &MetricsRegistry::new());
    assert_eq!(fabric.path_bandwidth_gbps(gpu(0, 0), gpu(0, 1)), 150.0);
    let lat = fabric.path_latency(gpu(0, 0), gpu(0, 1)).as_micros_f64();
    assert!((1.8..2.0).contains(&lat), "nvlink latency {lat}");
}

#[test]
fn inter_node_route_is_ib() {
    let sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(2), &MetricsRegistry::new());
    assert_eq!(fabric.path_bandwidth_gbps(gpu(0, 0), gpu(1, 0)), 50.0);
    // Two IB hops at 1.75 µs each.
    let lat = fabric.path_latency(gpu(0, 0), gpu(1, 0)).as_micros_f64();
    assert!((3.4..3.6).contains(&lat), "ib latency {lat}");
}

#[test]
fn gpu_cpu_route_is_c2c() {
    let sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
    assert_eq!(fabric.path_bandwidth_gbps(gpu(0, 2), cpu(0)), 450.0);
    assert_eq!(fabric.path_bandwidth_gbps(cpu(0), gpu(0, 2)), 450.0);
}

#[test]
fn transfer_times_match_bandwidth() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        // 150 MB over 150 GB/s NVLink = 1 ms + 1.9 µs latency.
        let t = transfer(&fabric, gpu(0, 0), gpu(0, 1), 150_000_000);
        wait_until(ctx, t.arrival);
        let us = ctx.now().as_micros_f64();
        assert!((1001.0..1003.0).contains(&us), "arrival at {us}");
    });
    sim.run().unwrap();
}

#[test]
fn same_link_transfers_contend() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        let a = transfer(&fabric, gpu(0, 0), gpu(0, 1), 150_000_000);
        let b = transfer(&fabric, gpu(0, 0), gpu(0, 1), 150_000_000);
        // Second transfer queues behind the first on the same link.
        assert!(b.start >= a.start);
        assert!(
            b.arrival.since(a.arrival).as_micros_f64() > 900.0,
            "second transfer must serialize"
        );
        wait_until(ctx, b.arrival);
    });
    sim.run().unwrap();
}

#[test]
fn distinct_links_do_not_contend() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        let a = transfer(&fabric, gpu(0, 0), gpu(0, 1), 150_000_000);
        let b = transfer(&fabric, gpu(0, 2), gpu(0, 3), 150_000_000);
        let delta =
            (a.arrival.as_micros_f64() - b.arrival.as_micros_f64()).abs();
        assert!(delta < 1.0, "independent NVLink pairs must run in parallel");
        wait_until(ctx, a.arrival);
        wait_until(ctx, b.arrival);
    });
    sim.run().unwrap();
}

#[test]
fn opposite_directions_do_not_contend() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        let a = transfer(&fabric, gpu(0, 0), gpu(0, 1), 150_000_000);
        let b = transfer(&fabric, gpu(0, 1), gpu(0, 0), 150_000_000);
        let delta = (a.arrival.as_micros_f64() - b.arrival.as_micros_f64()).abs();
        assert!(delta < 1.0, "NVLink is full duplex in the model");
        wait_until(ctx, a.arrival);
        wait_until(ctx, b.arrival);
    });
    sim.run().unwrap();
}

#[test]
fn cross_node_nic_mapping_separates_gpu_flows() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(2), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        // Below the multi-rail stripe threshold, GPU 0 and GPU 1 use their
        // own NICs, so cross-node flows overlap.
        let a = transfer(&fabric, gpu(0, 0), gpu(1, 0), 512_000);
        let b = transfer(&fabric, gpu(0, 1), gpu(1, 1), 512_000);
        let delta = (a.arrival.as_micros_f64() - b.arrival.as_micros_f64()).abs();
        assert!(delta < 1.0, "per-GPU NICs must not serialize");
        wait_until(ctx, a.arrival);
        wait_until(ctx, b.arrival);
    });
    sim.run().unwrap();
}

#[test]
fn zero_byte_transfer_is_latency_only() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        let t = transfer(&fabric, gpu(0, 0), gpu(0, 1), 0);
        wait_until(ctx, t.arrival);
        let us = ctx.now().as_micros_f64();
        assert!((1.8..2.0).contains(&us), "latency-only arrival {us}");
    });
    sim.run().unwrap();
}

#[test]
fn large_cross_node_transfers_stripe_across_rails() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(2), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        // 200 MB striped over 4 × 50 GB/s rails ≈ 1 ms; single-rail would
        // be 4 ms.
        let t = transfer(&fabric, gpu(0, 0), gpu(1, 0), 200_000_000);
        wait_until(ctx, t.arrival);
        let us = ctx.now().as_micros_f64();
        assert!((1000.0..1100.0).contains(&us), "striped arrival {us}");
    });
    sim.run().unwrap();
}

#[test]
fn transfer_at_future_time_respects_start() {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        let at = ctx.now() + parcomm_sim::SimDuration::from_micros(100);
        let t = fabric.try_transfer(at, gpu(0, 0), gpu(0, 1), 1500, WireAttr::NONE).unwrap();
        assert_eq!(t.start, at);
        wait_until(ctx, t.arrival);
        assert!(ctx.now().as_micros_f64() >= 100.0);
    });
    sim.run().unwrap();
}

/// A landing that does nothing.
struct Lands;

impl Action for Lands {
    fn run(self: Arc<Self>, _h: &SimHandle, _token: u64, _span: SpanId) {}
}

/// Run one process that issues a 4 KiB cross-node transfer and queues its
/// arrival, folded into a landing (`land`) or as a bare tick: the run's
/// end time and event count.
fn one_transfer_run(land: bool) -> (SimTime, u64) {
    let mut sim = Simulation::new(SimConfig::default());
    let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(2), &MetricsRegistry::new());
    sim.spawn("p", move |ctx| {
        let t = transfer(&fabric, gpu(0, 0), gpu(1, 0), 4096);
        if land {
            ctx.handle().land_at(t.arrival, Arc::new(Lands), 0);
        } else {
            ctx.handle().tick_at(t.arrival);
        }
    });
    let r = sim.run().unwrap();
    (r.end_time, r.events_processed)
}

#[test]
fn a_transfer_with_nothing_landing_at_its_arrival_still_ends_the_run_there() {
    // Queued as a bare tick, the arrival ends the run at the instant, and
    // with the event count (the start and the arrival), that transfers
    // queuing their own arrival entry gave.
    let ticked = one_transfer_run(false);
    assert_eq!(ticked, (SimTime::from_nanos(3_664), 2));
    // Folded into a landing, it counts once more: the landing's own event.
    assert_eq!(one_transfer_run(true), (ticked.0, 3));
}
