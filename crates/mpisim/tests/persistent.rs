//! Persistent point-to-point semantics over the send/recv core, and the
//! partitioned-vs-persistent relationship the literature measures.
//!
//! A persistent request (`MPI_Send_init` … `MPI_Start` → `MPI_Wait`)
//! moves the whole buffer as one host-posted message per epoch, which is
//! exactly the blocking `send`/`recv` pair: MPI software overhead, then
//! the message, then completion. `MPI_Test` polls the nonblocking op's
//! completion event.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_mpi::MpiWorld;
use parcomm_sim::{SimConfig, SimDuration, Simulation};

#[test]
fn persistent_send_recv_round_trips_across_epochs() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(1024);
        match rank.rank() {
            0 => {
                for epoch in 1..=3u64 {
                    buf.write_f64_slice(0, &[epoch as f64; 128]);
                    rank.send(ctx, 1, 4, &buf, 0, 1024);
                }
            }
            1 => {
                for epoch in 1..=3u64 {
                    rank.recv(ctx, 0, 4, &buf, 0, 1024);
                    assert_eq!(buf.read_f64_slice(0, 128), vec![epoch as f64; 128]);
                }
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn persistent_test_polls() {
    // `MPI_Test` on a started send: poll its completion event until the
    // late-posted receive matches it.
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let buf = rank.gpu().alloc_global(64);
        match rank.rank() {
            0 => {
                let op = rank.isend(&ctx.handle(), 1, 6, &buf, 0, 64);
                let mut polls = 0;
                while !op.done.is_set() {
                    ctx.advance(SimDuration::from_micros(1));
                    polls += 1;
                }
                assert!(polls >= 25, "the send completed before its receive was posted");
            }
            1 => {
                // Delay posting the receive so the sender actually polls.
                ctx.advance(SimDuration::from_micros(25));
                rank.recv(ctx, 0, 6, &buf, 0, 64);
            }
            _ => {}
        }
    });
    sim.run().unwrap();
}

#[test]
fn partitioned_beats_persistent_when_kernel_initiates() {
    // Dosanjh et al. compare partitioned implementations against
    // persistent-based ones (paper §VII-A); with a GPU producer the
    // persistent path must still stream-synchronize before MPI_Start,
    // while the partitioned channel is driven from the kernel.
    use parcomm_core::{precv_init, prequest_create, psend_init, PrequestConfig};
    use parcomm_gpu::KernelSpec;

    fn run(partitioned: bool) -> f64 {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, 1);
        let out = Arc::new(Mutex::new(0.0f64));
        let o2 = out.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let bytes = 64 * 1024;
            let buf = rank.gpu().alloc_global(bytes);
            let stream = rank.gpu().create_stream();
            match rank.rank() {
                0 => {
                    if partitioned {
                        let sreq = psend_init(ctx, rank, 1, 9, &buf, 16).expect("init");
                        sreq.start(ctx).expect("start");
                        sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                        let preq =
                            prequest_create(ctx, rank, &sreq, PrequestConfig::default()).unwrap();
                        let t0 = ctx.now();
                        let p2 = preq.clone();
                        stream.launch(ctx, KernelSpec::vector_add(8, 1024), move |d| {
                            p2.pready_all(d)
                        });
                        sreq.wait(ctx).expect("wait");
                        *o2.lock() = ctx.now().since(t0).as_micros_f64();
                    } else {
                        let t0 = ctx.now();
                        stream.launch(ctx, KernelSpec::vector_add(8, 1024), |_| {});
                        stream.synchronize(ctx);
                        rank.send(ctx, 1, 9, &buf, 0, bytes);
                        *o2.lock() = ctx.now().since(t0).as_micros_f64();
                    }
                }
                1 => {
                    if partitioned {
                        let rreq = precv_init(ctx, rank, 0, 9, &buf, 16).expect("init");
                        rreq.start(ctx).expect("start");
                        rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                        rreq.wait(ctx).expect("wait");
                    } else {
                        rank.recv(ctx, 0, 9, &buf, 0, bytes);
                    }
                }
                _ => {}
            }
        });
        sim.run().unwrap();
        let v = *out.lock();
        v
    }
    let persistent = run(false);
    let partitioned = run(true);
    assert!(
        partitioned < persistent,
        "GPU-initiated partitioned ({partitioned} µs) must beat persistent + sync \
         ({persistent} µs)"
    );
}
