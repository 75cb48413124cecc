//! Integration tests for the UCP-like layer: worker bootstrap, tagged
//! active messages, RMA puts with chained callbacks, and rkey_ptr.

use std::sync::Arc;

use parcomm_gpu::{Buffer, Location, MemSpace, Unit};
use parcomm_net::{ClusterSpec, Fabric, NetFaultConfig, NicOutage};
use parcomm_obs::MetricsRegistry;
use parcomm_sim::{Action, Event, Mutex, SimConfig, SimHandle, Simulation, SpanId};
use parcomm_ucx::{Put, PutHandle, PutOpts, PutStatus, UcxError, UcxUniverse};

fn cpu(node: u16) -> Location {
    Location { node, unit: Unit::Cpu }
}

/// A put's sink that keeps the put, lands it, and once it has landed
/// fires an event, after checking what the landing must already show.
struct SetOnLand {
    put: Mutex<Option<Put>>,
    done: Event,
    check: Box<dyn Fn() + Send + Sync>,
}

impl SetOnLand {
    fn new(done: &Event) -> Arc<SetOnLand> {
        SetOnLand::checking(done, || {})
    }

    fn checking(done: &Event, check: impl Fn() + Send + Sync + 'static) -> Arc<SetOnLand> {
        Arc::new(SetOnLand { put: Mutex::new(None), done: done.clone(), check: Box::new(check) })
    }

    /// Keep `put` until it lands; returns its handle.
    fn keep(&self, put: Put) -> PutHandle {
        let handle = put.handle();
        *self.put.lock() = Some(put);
        handle
    }
}

impl Action for SetOnLand {
    fn run(self: Arc<Self>, h: &SimHandle, _token: u64, _span: SpanId) {
        let status = self.put.lock().as_mut().expect("the put is kept").land(h);
        if let PutStatus::Landed(_) = status {
            (self.check)();
            self.done.set(h);
        }
    }
}

fn universe(sim: &Simulation, nodes: u16) -> UcxUniverse {
    let registry = MetricsRegistry::new();
    UcxUniverse::new(Fabric::new(sim.handle(), ClusterSpec::gh200(nodes), &registry), &registry)
}

#[test]
fn workers_have_unique_addresses() {
    let sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    assert_ne!(w0.address(), w1.address());
}

#[test]
fn endpoint_to_unknown_worker_fails() {
    let sim = Simulation::new(SimConfig::default());
    let uni1 = universe(&sim, 1);
    let uni2 = universe(&sim, 1);
    let w_other = uni2.create_worker(cpu(0));
    let w = uni1.create_worker(cpu(0));
    // Address from a different universe is unknown here.
    assert!(matches!(
        w.create_endpoint(w_other.address()),
        Err(UcxError::UnknownWorker(_))
    ));
}

#[test]
fn am_send_recv_roundtrip() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 2);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(1));
    let w1_addr = w1.address();

    sim.spawn("sender", move |ctx| {
        ctx.advance(parcomm_sim::SimDuration::from_micros(5));
        let ep = w0.create_endpoint(w1_addr).unwrap();
        ep.am_send(77, String::from("setup"), 256);
    });
    sim.spawn("receiver", move |ctx| {
        let msg = w1.am_recv(ctx, 77);
        let s = msg.payload.downcast::<String>().unwrap();
        assert_eq!(*s, "setup");
        assert_eq!(msg.wire_bytes, 256);
        // Cross-node control message: ≥ IB latency after the send at t=5µs.
        assert!(ctx.now().as_micros_f64() > 8.0);
    });
    sim.run().unwrap();
}

/// `am_send` is fire and forget: the only completion anyone observes is
/// the receiver's mailbox, whose arrival event fires at the instant the
/// message lands.
#[test]
fn am_send_completes_only_at_the_receivers_mailbox() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 2);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(1));
    let w1_addr = w1.address();

    sim.spawn("sender", move |ctx| {
        let ep = w0.create_endpoint(w1_addr).unwrap();
        ep.am_send(9, 1234u64, 128);
        assert_eq!(ctx.now().as_micros_f64(), 0.0, "sending never parks the sender");
    });
    sim.spawn("receiver", move |ctx| {
        let landed = w1.arrival_event(9);
        assert!(w1.try_am_recv(9).is_none(), "nothing has landed at t=0");
        ctx.wait(&landed);
        assert_eq!(landed.set_at(), Some(ctx.now()));
        let msg = w1.try_am_recv(9).expect("the message is queued once its event fires");
        assert_eq!(*msg.payload.downcast::<u64>().unwrap(), 1234);
        assert!(!landed.is_set(), "draining the queue re-arms the arrival event");
    });
    sim.run().unwrap();
}

/// A message that lands before anyone asked for its tag's arrival event
/// makes that event read as set once asked for.
#[test]
fn arrival_event_asked_after_delivery_is_already_set() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    let w1_addr = w1.address();

    sim.spawn("sender", move |_ctx| {
        w0.create_endpoint(w1_addr).unwrap().am_send(3, 7u32, 32);
    });
    sim.spawn("receiver", move |ctx| {
        ctx.advance(parcomm_sim::SimDuration::from_micros(100));
        let landed = w1.arrival_event(3);
        assert!(landed.is_set(), "the message is already queued");
        ctx.wait(&landed);
        assert_eq!(*w1.try_am_recv(3).unwrap().payload.downcast::<u32>().unwrap(), 7);
        assert!(!landed.is_set(), "draining the queue re-arms the arrival event");
    });
    sim.run().unwrap();
}

#[test]
fn am_messages_with_same_tag_are_fifo() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    let w1_addr = w1.address();

    sim.spawn("sender", move |_ctx| {
        let ep = w0.create_endpoint(w1_addr).unwrap();
        for i in 0..3u32 {
            ep.am_send(5, i, 64);
        }
    });
    sim.spawn("receiver", move |ctx| {
        for expect in 0..3u32 {
            let msg = w1.am_recv(ctx, 5);
            assert_eq!(*msg.payload.downcast::<u32>().unwrap(), expect);
        }
    });
    sim.run().unwrap();
}

#[test]
fn distinct_tags_do_not_cross() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    let w1_addr = w1.address();

    sim.spawn("sender", move |_ctx| {
        let ep = w0.create_endpoint(w1_addr).unwrap();
        ep.am_send(1, 111u32, 64);
        ep.am_send(2, 222u32, 64);
    });
    sim.spawn("receiver", move |ctx| {
        // Receive tag 2 first even though tag 1 arrived earlier.
        let m2 = w1.am_recv(ctx, 2);
        assert_eq!(*m2.payload.downcast::<u32>().unwrap(), 222);
        let m1 = w1.am_recv(ctx, 1);
        assert_eq!(*m1.payload.downcast::<u32>().unwrap(), 111);
    });
    sim.run().unwrap();
}

#[test]
fn put_nbx_moves_data_and_fires_callback() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    let w1_addr = w1.address();

    let src = Buffer::alloc(MemSpace::Device { node: 0, gpu: 0 }, 1024);
    let dst = Buffer::alloc(MemSpace::Device { node: 0, gpu: 1 }, 1024);
    src.write_f64_slice(0, &[3.0; 128]);

    let rkey = w1.mem_map(&dst).pack_rkey();
    let dst2 = dst.clone();
    sim.spawn("sender", move |ctx| {
        let ep = w0.create_endpoint(w1_addr).unwrap();
        let done = Event::new();
        let dst3 = dst2.clone();
        // Functional copy already applied when the sink is told.
        let sink = SetOnLand::checking(&done, move || {
            assert_eq!(dst3.read_f64_slice(0, 128), vec![3.0; 128]);
        });
        let put = sink.keep(ep.put_nbx(&src, 0, 1024, &rkey, 0, PutOpts::default(), sink.clone(), 0));
        ctx.wait(&done);
        assert_eq!(ctx.now(), put.arrival);
        assert_eq!(dst2.read_f64_slice(0, 128), vec![3.0; 128]);
        // NVLink path: ~1.9 µs latency + tiny serialization.
        let t = ctx.now().as_micros_f64();
        assert!((1.8..3.0).contains(&t), "arrival {t}");
    });
    sim.run().unwrap();
}

/// A data put's sink that chains the flag put once the data put has
/// landed: token 0 is the data put, token 1 the flag put it issues; each
/// is kept under its token until it lands.
struct Chain {
    ep: parcomm_ucx::Endpoint,
    flag_src: Buffer,
    rkey_flag: parcomm_ucx::RKey,
    done: Event,
    puts: Mutex<[Option<Put>; 2]>,
}

impl Action for Chain {
    fn run(self: Arc<Self>, h: &SimHandle, token: u64, _span: SpanId) {
        let mut puts = self.puts.lock();
        let put = puts[token as usize].as_mut().expect("the put is kept");
        if !matches!(put.land(h), PutStatus::Landed(_)) {
            return;
        }
        puts[token as usize] = None;
        if token == 0 {
            let (ep, src, rkey) = (&self.ep, &self.flag_src, &self.rkey_flag);
            puts[1] = Some(ep.put_nbx(src, 0, 8, rkey, 0, PutOpts::default(), self.clone(), 1));
            self.done.set(h);
        }
    }
}

#[test]
fn chained_put_from_completion_callback() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    let w1_addr = w1.address();

    let payload_src = Buffer::alloc(MemSpace::Device { node: 0, gpu: 0 }, 256);
    let payload_dst = Buffer::alloc(MemSpace::Device { node: 0, gpu: 1 }, 256);
    let flag_src = Buffer::alloc(MemSpace::Host { node: 0 }, 8);
    let flag_dst = Buffer::alloc(MemSpace::Host { node: 0 }, 8);
    flag_src.write_flag(0, 1);

    let rkey_payload = w1.mem_map(&payload_dst).pack_rkey();
    let rkey_flag = w1.mem_map(&flag_dst).pack_rkey();
    let flag_dst2 = flag_dst.clone();

    sim.spawn("sender", move |ctx| {
        let ep = w0.create_endpoint(w1_addr).unwrap();
        // The paper's pattern: data put, whose completion issues the
        // receive-side partition-flag put.
        let done = Event::new();
        let chain = Arc::new(Chain {
            ep: ep.clone(),
            flag_src,
            rkey_flag,
            done: done.clone(),
            puts: Mutex::new([None, None]),
        });
        let opts = PutOpts::default();
        let data = ep.put_nbx(&payload_src, 0, 256, &rkey_payload, 0, opts, chain.clone(), 0);
        chain.puts.lock()[0] = Some(data);
        ctx.wait(&done);
        // Wait a little for the chained put to land.
        ctx.advance(parcomm_sim::SimDuration::from_micros(10));
        assert_eq!(flag_dst2.read_flag(0), 1, "chained flag put must land");
    });
    sim.run().unwrap();
}

#[test]
fn rkey_ptr_rules() {
    let sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 2);
    let w = uni.create_worker(cpu(0));

    let dev_same = Buffer::alloc(MemSpace::Device { node: 0, gpu: 1 }, 64);
    let dev_other = Buffer::alloc(MemSpace::Device { node: 1, gpu: 0 }, 64);
    let host = Buffer::alloc(MemSpace::Host { node: 0 }, 64);

    let k_same = w.mem_map(&dev_same).pack_rkey();
    let k_other = w.mem_map(&dev_other).pack_rkey();
    let k_host = w.mem_map(&host).pack_rkey();

    let caller = Location { node: 0, unit: Unit::Gpu(0) };
    let mapped = k_same.rkey_ptr(caller).expect("same-node device rkey_ptr");
    assert!(mapped.is_valid());
    mapped.buffer().write_f64(0, 9.5);
    assert_eq!(dev_same.read_f64(0), 9.5);

    assert!(matches!(k_other.rkey_ptr(caller), Err(UcxError::RkeyPtrUnavailable(_))));
    assert!(matches!(k_host.rkey_ptr(caller), Err(UcxError::RkeyPtrUnavailable(_))));

    // Revocation: every mapping derived from any clone of the key dies, and
    // further rkey_ptr calls surface the typed error.
    let k_clone = k_same.clone();
    k_clone.revoke_ipc();
    assert!(!mapped.is_valid());
    assert!(matches!(k_same.rkey_ptr(caller), Err(UcxError::MappingRevoked)));
}

#[test]
fn cross_node_put_takes_ib_time() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 2);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(1));
    let w1_addr = w1.address();

    let src = Buffer::alloc(MemSpace::Device { node: 0, gpu: 0 }, 50_000_000);
    let dst = Buffer::alloc(MemSpace::Device { node: 1, gpu: 0 }, 50_000_000);
    let rkey = w1.mem_map(&dst).pack_rkey();

    sim.spawn("sender", move |ctx| {
        let ep = w0.create_endpoint(w1_addr).unwrap();
        let done = Event::new();
        let sink = SetOnLand::new(&done);
        sink.keep(ep.put_nbx(&src, 0, 50_000_000, &rkey, 0, PutOpts::default(), sink.clone(), 0));
        ctx.wait(&done);
        // 50 MB striped over 4 NIC rails (12.5 MB each at 50 GB/s,
        // cut-through) = 250 µs + one segment + propagation latency.
        let t = ctx.now().as_micros_f64();
        assert!((250.0..300.0).contains(&t), "IB arrival {t}");
    });
    sim.run().unwrap();
}

#[test]
fn multiple_endpoints_to_same_worker_share_the_mailbox() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    let w2 = uni.create_worker(cpu(0));
    let target = w2.address();
    sim.spawn("s0", move |_| {
        w0.create_endpoint(target).unwrap().am_send(1, 10u32, 32);
    });
    sim.spawn("s1", move |_| {
        w1.create_endpoint(target).unwrap().am_send(1, 20u32, 32);
    });
    sim.spawn("rx", move |ctx| {
        let a = *w2.am_recv(ctx, 1).payload.downcast::<u32>().unwrap();
        let b = *w2.am_recv(ctx, 1).payload.downcast::<u32>().unwrap();
        assert_eq!(a + b, 30, "both senders' messages arrive on one tag");
    });
    sim.run().unwrap();
}

#[test]
fn put_handle_arrival_matches_event() {
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 1);
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(0));
    let addr = w1.address();
    let src = Buffer::alloc(MemSpace::Device { node: 0, gpu: 0 }, 64);
    let dst = Buffer::alloc(MemSpace::Device { node: 0, gpu: 1 }, 64);
    let rkey = w1.mem_map(&dst).pack_rkey();
    sim.spawn("p", move |ctx| {
        let ep = w0.create_endpoint(addr).unwrap();
        let done = Event::new();
        let sink = SetOnLand::new(&done);
        let put = sink.keep(ep.put_nbx(&src, 0, 64, &rkey, 0, PutOpts::default(), sink.clone(), 0));
        ctx.wait(&done);
        assert_eq!(ctx.now(), put.arrival, "completion runs exactly at arrival");
        assert_eq!(put.result(), Some(Ok(put.arrival)));
    });
    sim.run().unwrap();
}

/// A put's sink that keeps the put and records the token and status of
/// every step it runs.
#[derive(Default)]
struct Told {
    put: Mutex<Option<Put>>,
    told: Mutex<Vec<(u64, PutStatus)>>,
}

impl Action for Told {
    fn run(self: Arc<Self>, h: &SimHandle, token: u64, _span: SpanId) {
        let status = self.put.lock().as_mut().expect("the put is kept").land(h);
        self.told.lock().push((token, status));
    }
}

#[test]
fn put_that_exhausts_its_retries_settles_a_timeout_and_never_completes() {
    // Every NIC of the sender's node is down for the whole run: each of
    // the put's attempts fails to route, and it gives up after the last.
    let mut sim = Simulation::new(SimConfig::default());
    let uni = universe(&sim, 2);
    let nic_outages =
        (0..4).map(|nic| NicOutage { node: 0, nic, from_us: 0.0, until_us: f64::INFINITY }).collect();
    uni.fabric().arm_faults(NetFaultConfig { nic_outages, ..NetFaultConfig::default() });
    let w0 = uni.create_worker(cpu(0));
    let w1 = uni.create_worker(cpu(1));
    let addr = w1.address();
    let src = Buffer::alloc(MemSpace::Device { node: 0, gpu: 0 }, 4096);
    let dst = Buffer::alloc(MemSpace::Device { node: 1, gpu: 0 }, 4096);
    let rkey = w1.mem_map(&dst).pack_rkey();
    let told = Arc::new(Told::default());
    let told2 = told.clone();
    let handle = Arc::new(Mutex::new(None));
    let h2 = handle.clone();
    sim.spawn("p", move |_ctx| {
        let ep = w0.create_endpoint(addr).unwrap();
        let put = ep.put_nbx(&src, 0, 4096, &rkey, 0, PutOpts::default(), told2.clone(), 5);
        assert_eq!(put.handle().result(), None, "a put issued with faults armed settles later");
        *h2.lock() = Some(put.handle());
        *told2.put.lock() = Some(put);
    });
    sim.run().unwrap();
    let put = handle.lock().take().expect("the put was issued");
    match put.result() {
        Some(Err(UcxError::PutTimeout { attempts, .. })) => {
            assert_eq!(attempts, parcomm_ucx::PUT_MAX_ATTEMPTS)
        }
        other => panic!("want a settled PutTimeout, got {other:?}"),
    }
    // Each retry runs as one step of the sink; the last reports the
    // failure, and the run ends with nothing of the put left queued.
    let mut want = vec![(5, PutStatus::InFlight); parcomm_ucx::PUT_MAX_ATTEMPTS as usize - 2];
    want.push((5, PutStatus::Failed));
    assert_eq!(
        *told.told.lock(),
        want,
        "a failed put never lands: its sink hears of each retry, then once of the failure"
    );
}
