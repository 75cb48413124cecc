//! The `parcomm-mux` multiplexing suite: frozen-digest neutrality with the
//! mux linked, MoE dispatch/combine functional verification against a
//! serial reference, admission-order/digest invariance under submission
//! shuffle and sweep worker count, typed admission errors, per-tenant
//! metrics digest-neutrality, and the completion-path ops regressions.

use std::sync::Arc;

use parcomm::apps::{moe_reference, run_moe, MoeConfig};
use parcomm::coll::pallreduce_init;
use parcomm::gpu::MemSpace;
use parcomm::mux::{AdmissionError, ChannelTable, MuxChannelId, WeightedFair};
use parcomm::obs::chrome_trace_json_with_counters;
use parcomm::prelude::*;
use parcomm::sim::{Mutex, Proc, SimReport, SimRng};
use parcomm_testkit::prop::{check, PropConfig, TestResult};
use parcomm_testkit::digest;
use parcomm_sweep::SweepSpec;

/// Frozen digests of the canonical device-prequest p2p run, first pinned
/// before the shmem backend existed and re-pinned here with `parcomm-mux`
/// fully linked into the binary: a mux that nobody instantiates must not
/// move a single event.
const PE_DIGEST: u64 = 0x45acaeb376724ea7;
const KC_DIGEST: u64 = 0x20c1bddca5782f10;

/// Canonical device-prequest p2p run (same recipe `tests/shmem.rs` pins):
/// intra-node 0 -> 1, 4 user partitions x 1 KiB, 2 transport partitions,
/// progressive device pready. Digest over the event stream + payload.
fn device_p2p_digest(copy: CopyMechanism, seed: u64) -> u64 {
    let mut sim = Simulation::with_seed(seed);
    let trace = sim.trace();
    trace.enable();
    let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 4usize;
        let bytes = parts * 1024;
        let buf = rank.gpu().alloc_global(bytes);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 1024, &[(u * 3 + 1) as f64; 128]);
                }
                let sreq = psend_init(ctx, rank, 1, 11, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig {
                    copy,
                    transport_partitions: 2,
                    ..PrequestConfig::default()
                })
                .expect("prequest");
                let stream = rank.gpu().create_stream();
                stream.launch(ctx, KernelSpec::vector_add(2, 256), move |d| {
                    preq.pready_all_progressive(d)
                });
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 11, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                *o2.lock() = (0..parts).map(|u| buf.read_f64(u * 1024)).collect();
            }
            _ => {}
        }
    });
    let report = sim.run().expect("p2p sim");
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    d.write_f64_slice(&out.lock());
    d.finish()
}

#[test]
fn pe_and_kernel_copy_digests_frozen_with_mux_linked() {
    assert_eq!(
        device_p2p_digest(CopyMechanism::ProgressionEngine, 0x5E11),
        PE_DIGEST,
        "Progression Engine digest moved: mux is not digest-neutral when unselected"
    );
    assert_eq!(
        device_p2p_digest(CopyMechanism::KernelCopy, 0x5E11),
        KC_DIGEST,
        "Kernel Copy digest moved: mux is not digest-neutral when unselected"
    );
}

// ---------------------------------------------------------------------------
// MoE dispatch/combine: functional correctness against a serial reference.

fn moe_checksums(mechanism: CopyMechanism, config: WorldConfig) -> (Vec<f64>, u64) {
    let mut sim = Simulation::with_seed(0xA11CE);
    let world = MpiWorld::new(&sim, config);
    let sums = Arc::new(Mutex::new(vec![0.0f64; world.size()]));
    let drops = Arc::new(Mutex::new(0u64));
    let (s2, d2) = (sums.clone(), drops.clone());
    world.run_ranks(&mut sim, move |ctx, rank| {
        let cfg = MoeConfig::functional_test(mechanism);
        let result = run_moe(ctx, rank, &cfg).expect("run_moe");
        s2.lock()[rank.rank()] = result.checksum;
        if rank.rank() == 0 {
            *d2.lock() = result.tokens_dropped;
        }
    });
    sim.run().expect("moe sim");
    let out = sums.lock().clone();
    let dropped = *drops.lock();
    (out, dropped)
}

#[test]
fn moe_matches_serial_reference_per_mechanism() {
    let reference = moe_reference(&MoeConfig::functional_test(CopyMechanism::ProgressionEngine), 4);
    for (mechanism, config) in [
        (CopyMechanism::ProgressionEngine, WorldConfig::gh200(1)),
        (CopyMechanism::KernelCopy, WorldConfig::gh200(1)),
        (
            CopyMechanism::Shmem,
            WorldConfig { mechanism: CopyMechanism::Shmem, ..WorldConfig::gh200(1) },
        ),
    ] {
        let (got, _) = moe_checksums(mechanism, config);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{mechanism:?}: distributed MoE diverged from the serial router/expert reference"
        );
    }
}

#[test]
fn moe_capacity_overflow_drops_are_deterministic() {
    // Tight capacity forces drops; the drop count must be identical on
    // repeat runs (the router is a pure function of the seed).
    let tight = MoeConfig {
        capacity_factor_pct: 50,
        ..MoeConfig::functional_test(CopyMechanism::ProgressionEngine)
    };
    let reference = moe_reference(&tight, 4);
    let run = || {
        let mut sim = Simulation::with_seed(0xD0D0);
        let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
        let sums = Arc::new(Mutex::new(vec![0.0f64; world.size()]));
        let drops = Arc::new(Mutex::new(vec![0u64; world.size()]));
        let (s2, d2) = (sums.clone(), drops.clone());
        let cfg = tight.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let result = run_moe(ctx, rank, &cfg).expect("run_moe");
            s2.lock()[rank.rank()] = result.checksum;
            d2.lock()[rank.rank()] = result.tokens_dropped;
        });
        sim.run().expect("moe sim");
        let out = (sums.lock().clone(), drops.lock().clone());
        out
    };
    let (sums_a, drops_a) = run();
    let (sums_b, drops_b) = run();
    assert_eq!(drops_a, drops_b, "drop counts must be run-deterministic");
    assert!(drops_a.iter().sum::<u64>() > 0, "tight capacity must actually drop tokens");
    assert_eq!(sums_a, sums_b);
    assert_eq!(
        sums_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "dropped tokens must keep their residual value, as in the reference"
    );
}

// ---------------------------------------------------------------------------
// Admission determinism: admitted-channel order and the full trace digest
// are invariant under seeded submission shuffle within a tick, and
// byte-identical at 1/2/8 sweep workers.

/// Run epoch 1 (already active from the tick) on every admitted channel
/// so real traffic lands in the trace: sends first, then receive waits.
async fn drain_first_epoch(p: &Proc, mux: &mut MuxService, ids: &[MuxChannelId]) {
    let is_send = |mux: &MuxService, id: MuxChannelId| {
        mux.channel(id).expect("live").spec.direction == Direction::Send
    };
    let (sends, recvs): (Vec<MuxChannelId>, Vec<MuxChannelId>) =
        ids.iter().partition(|&&id| is_send(mux, id));
    for id in sends {
        mux.run_host_send_epoch_async(p, id).await.expect("send epoch");
    }
    for id in recvs {
        mux.run_recv_epoch_async(p, id).await.expect("recv epoch");
    }
}

/// A symmetric all-pairs channel set (3 tenants, send+recv per peer per
/// tenant), submitted in an order shuffled by `shuffle`, admitted through
/// batched ticks, then drained for one epoch, each rank's body one future.
/// Returns the digest over the run trace plus the admitted spec order, and
/// the simulation report.
fn admitted_run(shuffle: u64) -> (u64, SimReport) {
    let mut sim = Simulation::with_seed(0xBEEF);
    let trace = sim.trace();
    trace.enable();
    let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
    let order = Arc::new(Mutex::new(Vec::new()));
    let o2 = order.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let (p, rank, o2) = (ctx.proc(), rank.clone(), o2.clone());
        ctx.block_on(async move {
            let mut mux = MuxService::new(rank.world(), MuxConfig::with_weights(&[3, 1, 2]));
            let me = rank.rank();
            let mut subs = Vec::new();
            for t in 0..3usize {
                for peer in (0..rank.size()).filter(|&p| p != me) {
                    for direction in [Direction::Send, Direction::Recv] {
                        subs.push(ChannelSpec {
                            tenant: t,
                            peer,
                            tag: 0x900 + t as u64,
                            partitions: 2,
                            partition_bytes: 256,
                            direction,
                        });
                    }
                }
            }
            // Seeded Fisher-Yates, different per rank: the wire protocol
            // and the admitted order must not care.
            let mut rng = SimRng::seeded(shuffle ^ (me as u64).wrapping_mul(0x9E37));
            for i in (1..subs.len()).rev() {
                let j = rng.uniform_range(0, i as u64 + 1) as usize;
                subs.swap(i, j);
            }
            for spec in subs {
                let buf = rank.gpu().alloc_global(spec.partitions * spec.partition_bytes);
                mux.submit(spec, buf).expect("submit");
            }
            let mut ids = Vec::new();
            while mux.pending() > 0 {
                ids.extend(mux.tick_async(&p, &rank).await.expect("tick"));
            }
            if me == 0 {
                let mut log = o2.lock();
                for &id in &ids {
                    let s = &mux.channel(id).expect("live").spec;
                    log.push((s.tenant, s.peer, s.tag, matches!(s.direction, Direction::Send)));
                }
            }
            drain_first_epoch(&p, &mut mux, &ids).await;
        });
    });
    let report = sim.run().expect("mux sim");
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    for (tenant, peer, tag, is_send) in order.lock().iter() {
        d.write_u64(*tenant as u64);
        d.write_u64(*peer as u64);
        d.write_u64(*tag);
        d.write_u64(*is_send as u64);
    }
    (d.finish(), report)
}

fn admitted_digest(shuffle: u64) -> u64 {
    admitted_run(shuffle).0
}

/// Admission spanning many tick batches must not deadlock: with
/// `tick_batch: 4` the 18-channel grid takes 5 ticks per rank, and a
/// receive granted early must never stall on a send that only inits in a
/// later tick (the backlog-wide init pass plus recv-first grant order).
#[test]
fn multi_tick_admission_pairs_across_batches() {
    let mut sim = Simulation::with_seed(0x71C5);
    let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
    let ticks = Arc::new(Mutex::new(0usize));
    let t2 = ticks.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let (p, rank, t2) = (ctx.proc(), rank.clone(), t2.clone());
        ctx.block_on(async move {
            let mut mux = MuxService::new(
                rank.world(),
                MuxConfig { tenant_weights: vec![3, 1, 2], tick_batch: 4, ..MuxConfig::default() },
            );
            let me = rank.rank();
            for t in 0..3usize {
                for peer in (0..rank.size()).filter(|&p| p != me) {
                    for direction in [Direction::Send, Direction::Recv] {
                        let spec = ChannelSpec {
                            tenant: t,
                            peer,
                            tag: 0xA00 + t as u64,
                            partitions: 2,
                            partition_bytes: 128,
                            direction,
                        };
                        let buf = rank.gpu().alloc_global(spec.partitions * spec.partition_bytes);
                        mux.submit(spec, buf).expect("submit");
                    }
                }
            }
            let mut ids = Vec::new();
            let mut tick_count = 0;
            while mux.pending() > 0 {
                ids.extend(mux.tick_async(&p, &rank).await.expect("tick"));
                tick_count += 1;
            }
            assert_eq!(ids.len(), 18);
            if me == 0 {
                *t2.lock() = tick_count;
            }
            // Drain epoch 1 so the channels actually move data.
            drain_first_epoch(&p, &mut mux, &ids).await;
        });
    });
    sim.run().expect("multi-tick admission must not deadlock");
    assert_eq!(*ticks.lock(), 5, "18 channels at tick_batch 4 is 5 ticks");
}

/// [`admitted_digest`] of the unshuffled submission order.
const ADMITTED_DIGEST: u64 = 0x66d4161c595112b6;

#[test]
fn admitted_digest_is_frozen() {
    assert_eq!(admitted_digest(0), ADMITTED_DIGEST, "mux admission or epoch drain moved");
}

/// A mux world whose rank bodies are each one future costs two thread
/// handoffs per rank: its start once `MPI_Init` has passed, and the
/// completion of its one `block_on`. Driving the same world through
/// blocking `tick`, `run_host_send_epoch` and `run_recv_epoch` calls, one
/// `block_on` each, cost 80.
#[test]
fn async_mux_world_costs_two_handoffs_per_rank() {
    let (_, report) = admitted_run(0);
    assert_eq!(report.handoffs, 2 * 4, "4 ranks, each one future");
}

#[test]
fn admission_order_is_invariant_under_submission_shuffle() {
    check(
        &PropConfig::with_cases(12),
        "admission_order_is_invariant_under_submission_shuffle",
        |rng| rng.next_u64(),
        |&shuffle| {
            assert_eq!(
                admitted_digest(shuffle),
                admitted_digest(0),
                "shuffle {shuffle:#x} changed the admitted order or the trace"
            );
            TestResult::Pass
        },
    );
}

#[test]
fn admission_digest_is_byte_identical_across_sweep_workers() {
    let spec = || {
        let mut s = SweepSpec::new();
        for shuffle in [0u64, 1, 2, 0xDEAD] {
            s.cell(format!("shuffle={shuffle:#x}"), move || admitted_digest(shuffle));
        }
        s
    };
    let render = |threads: usize| -> String {
        spec()
            .run(threads)
            .into_cells()
            .into_iter()
            .map(|(k, r)| format!("{k} -> {:#018x}\n", r.expect("cell ok")))
            .collect()
    };
    let serial = render(1);
    assert_eq!(render(2), serial, "2 workers changed the mux admission output");
    assert_eq!(render(8), serial, "8 workers changed the mux admission output");
}

// ---------------------------------------------------------------------------
// Typed admission errors.

#[test]
fn backpressure_at_the_in_flight_cap_is_typed() {
    let sim = Simulation::with_seed(1);
    let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
    let mut mux = MuxService::new(
        &world,
        MuxConfig { tenant_weights: vec![1, 1], max_in_flight: 4, ..MuxConfig::default() },
    );
    let spec = |tag: u64| ChannelSpec {
        tenant: 0,
        peer: 1,
        tag,
        partitions: 2,
        partition_bytes: 128,
        direction: Direction::Send,
    };
    let buf = || Buffer::alloc(MemSpace::Host { node: 0 }, 256);
    for tag in 0..4 {
        mux.submit(spec(tag), buf()).expect("under the cap");
    }
    assert_eq!(
        mux.submit(spec(4), buf()),
        Err(AdmissionError::Backpressure { in_flight: 0, pending: 4, cap: 4 }),
    );
    assert_eq!(
        mux.submit(
            ChannelSpec { tenant: 7, ..spec(5) },
            buf()
        ),
        Err(AdmissionError::UnknownTenant { tenant: 7, tenants: 2 }),
    );
}

#[test]
fn shmem_quota_exhaustion_is_typed_per_tenant() {
    let sim = Simulation::with_seed(1);
    let config = WorldConfig { mechanism: CopyMechanism::Shmem, ..WorldConfig::gh200(1) };
    let world = MpiWorld::new(&sim, config);
    let mut mux = MuxService::new(&world, MuxConfig::with_weights(&[1, 1]));
    let quota = mux.shmem_quota(0);
    assert_eq!(quota, world.shmem_heap().bytes_per_rank() / 2);
    // One receive channel sized over the tenant's whole quota.
    let parts = 4usize;
    let per_part = (quota / parts as u64) as usize; // payload alone == quota; flags tip it over
    let spec = ChannelSpec {
        tenant: 0,
        peer: 1,
        tag: 9,
        partitions: parts,
        partition_bytes: per_part,
        direction: Direction::Recv,
    };
    let err = mux
        .submit(spec.clone(), Buffer::alloc(MemSpace::Host { node: 0 }, parts * per_part))
        .expect_err("must exceed quota");
    match err {
        AdmissionError::ShmemQuotaExceeded { tenant, requested, quota: q, used } => {
            assert_eq!(tenant, 0);
            assert_eq!(q, quota);
            assert_eq!(used, 0);
            assert!(requested > quota);
        }
        other => panic!("wrong error: {other:?}"),
    }
    // The other tenant's quota is untouched; sends never charge the heap.
    mux.submit(
        ChannelSpec { tenant: 1, direction: Direction::Send, ..spec },
        Buffer::alloc(MemSpace::Host { node: 0 }, parts * per_part),
    )
    .expect("send side never charges the heap");
}

// ---------------------------------------------------------------------------
// Teardown and re-admission: `release` frees the endpoint, returns the
// in-flight slot and heap quota, and the freed tag re-admits while the
// rest of the table keeps draining.

/// Admit → tear down → re-admit under live traffic, on a 4-rank ring with
/// two tenants and a hard in-flight cap of 4: tenant 1's epoch 2 is in
/// flight across the release of both tenant-0 channels and the
/// re-admission tick, and the re-submission only fits because `release`
/// returned the slots. Also pins the typed refusals: release of a channel
/// with an active epoch, and release of a stale id.
#[test]
fn release_returns_slots_and_readmits_under_live_traffic() {
    let mut sim = Simulation::with_seed(0x7EA2);
    let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
    world.run_ranks(&mut sim, move |ctx, rank| {
        let (p, rank) = (ctx.proc(), rank.clone());
        ctx.block_on(async move {
            let p = &p;
            let mut mux = MuxService::new(
                rank.world(),
                MuxConfig { tenant_weights: vec![1, 1], max_in_flight: 4, ..MuxConfig::default() },
            );
            let me = rank.rank();
            let next = (me + 1) % rank.size();
            let prev = (me + rank.size() - 1) % rank.size();
            let parts = 2usize;
            let spec = |tenant: usize, peer: usize, direction: Direction| ChannelSpec {
                tenant,
                peer,
                tag: 0xC00 + tenant as u64,
                partitions: parts,
                partition_bytes: 256,
                direction,
            };
            let alloc = |rank: &Rank| rank.gpu().alloc_global(parts * 256);
            for t in 0..2usize {
                mux.submit(spec(t, next, Direction::Send), alloc(&rank)).expect("submit send");
                mux.submit(spec(t, prev, Direction::Recv), alloc(&rank)).expect("submit recv");
            }
            let ids = mux.tick_async(p, &rank).await.expect("tick");
            assert_eq!(ids.len(), 4);
            // Classify the admitted ids by (tenant, direction).
            let find = |mux: &MuxService, t: usize, d: Direction| {
                mux.channels()
                    .find(|(_, c)| c.spec.tenant == t && c.spec.direction == d)
                    .map(|(id, _)| id)
                    .expect("admitted")
            };
            let (t0_send, t0_recv) =
                (find(&mux, 0, Direction::Send), find(&mux, 0, Direction::Recv));
            let (t1_send, t1_recv) =
                (find(&mux, 1, Direction::Send), find(&mux, 1, Direction::Recv));
            // Epoch 1 (live from the tick) on everything: sends, then recvs.
            for id in [t0_send, t1_send] {
                mux.run_host_send_epoch_async(p, id).await.expect("send epoch 1");
            }
            for id in [t0_recv, t1_recv] {
                mux.run_recv_epoch_async(p, id).await.expect("recv epoch 1");
            }
            // Open tenant 1's epoch 2 (recv first: the steady send prepare
            // blocks on the receiver's RTR) and leave it in flight.
            let t1r = mux.begin_epoch_async(p, t1_recv).await.expect("t1 recv epoch 2");
            let t1s = mux.begin_epoch_async(p, t1_send).await.expect("t1 send epoch 2");
            // A channel mid-epoch refuses release, typed, and stays live.
            let busy = mux
                .release_async(p, t1_send)
                .await
                .expect_err("active epoch must refuse release");
            assert!(format!("{busy}").contains("active"), "wrong refusal: {busy}");
            assert!(mux.channel(t1_send).is_some(), "failed release must leave the channel live");
            // At the cap, one more submission backpressures...
            assert!(matches!(
                mux.submit(spec(0, next, Direction::Send), alloc(&rank)),
                Err(AdmissionError::Backpressure { in_flight: 4, pending: 0, cap: 4 })
            ));
            // ...until release returns tenant 0's two slots, mid-t1-traffic.
            let spec_s = mux.release_async(p, t0_send).await.expect("t0 send is idle");
            let spec_r = mux.release_async(p, t0_recv).await.expect("t0 recv is idle");
            assert_eq!(mux.in_flight(), 2);
            assert!(mux.channel(t0_send).is_none(), "released id must go stale");
            let stale = mux.release_async(p, t0_send).await.expect_err("stale id");
            assert!(format!("{stale}").contains("stale"), "wrong refusal: {stale}");
            // Re-admit the released specs — same tags — while t1's epoch 2
            // is still in flight.
            mux.submit(spec_s, alloc(&rank)).expect("re-submit freed send slot");
            mux.submit(spec_r, alloc(&rank)).expect("re-submit freed recv slot");
            let new_ids = mux.tick_async(p, &rank).await.expect("re-admission tick");
            assert_eq!(new_ids.len(), 2);
            assert!(
                !new_ids.contains(&t0_send) && !new_ids.contains(&t0_recv),
                "re-admitted channels must get fresh ids"
            );
            // Drive tenant 1's in-flight epoch 2 to completion.
            let s = t1s.send().expect("sender");
            s.pready_range_async(p, 0..parts).await.expect("pready");
            s.wait_async(p).await.expect("t1 send epoch 2 wait");
            t1r.recv().expect("receiver").wait_async(p).await.expect("t1 recv epoch 2 wait");
            // Epoch 1 on the re-admitted tenant-0 pair proves the reused
            // tags carry traffic end to end.
            let ns = find(&mux, 0, Direction::Send);
            let nr = find(&mux, 0, Direction::Recv);
            mux.run_host_send_epoch_async(p, ns).await.expect("re-admitted send epoch");
            mux.run_recv_epoch_async(p, nr).await.expect("re-admitted recv epoch");
        });
    });
    sim.run().expect("teardown/re-admission must not deadlock");
}

/// `release` returns symmetric-heap quota: a second big shmem receive is
/// refused while the first lives, and admitted cleanly (still on the
/// shmem fast path) once the first is released.
#[test]
fn release_returns_shmem_quota_for_readmission() {
    let mut sim = Simulation::with_seed(0x7EA3);
    let config = WorldConfig { mechanism: CopyMechanism::Shmem, ..WorldConfig::gh200(1) };
    let world = MpiWorld::new(&sim, config);
    world.run_ranks(&mut sim, move |ctx, rank| {
        if rank.rank() > 1 {
            return;
        }
        let (p, rank) = (ctx.proc(), rank.clone());
        ctx.block_on(async move {
            let p = &p;
            let mut mux = MuxService::new(rank.world(), MuxConfig::with_weights(&[1, 1]));
            let quota = mux.shmem_quota(0);
            // ~60% of quota per channel: two concurrent reservations overrun
            // the tenant's share, two *sequential* heap binds still fit the
            // rank's physical segment (quota is half of it), so the
            // re-admitted channel negotiates shmem rather than demoting to
            // rkey.
            let parts = 4usize;
            let per_part = (quota as usize * 6 / 10) / parts;
            let spec = |tag: u64, direction: Direction, peer: usize| ChannelSpec {
                tenant: 0,
                peer,
                tag,
                partitions: parts,
                partition_bytes: per_part,
                direction,
            };
            let alloc = || rank.gpu().alloc_global(parts * per_part);
            if rank.rank() == 0 {
                // Sender side: no heap charge, mirrors the receiver's lifecycle.
                mux.submit(spec(21, Direction::Send, 1), alloc()).expect("send 21");
                assert_eq!(mux.shmem_reserved(0), 0, "sends never charge the heap");
                let id = mux.tick_async(p, &rank).await.expect("tick")[0];
                mux.run_host_send_epoch_async(p, id).await.expect("epoch on 21");
                mux.release_async(p, id).await.expect("release 21");
                mux.submit(spec(22, Direction::Send, 1), alloc()).expect("send 22");
                let id = mux.tick_async(p, &rank).await.expect("tick")[0];
                mux.run_host_send_epoch_async(p, id).await.expect("epoch on 22");
            } else {
                mux.submit(spec(21, Direction::Recv, 0), alloc()).expect("recv 21 fits");
                let reserved = mux.shmem_reserved(0);
                assert!(reserved > quota / 2, "one channel must hold over half the quota");
                // The second channel is refused while the first holds its bytes.
                match mux.submit(spec(22, Direction::Recv, 0), alloc()) {
                    Err(AdmissionError::ShmemQuotaExceeded { tenant: 0, used, .. }) => {
                        assert_eq!(used, reserved, "refusal must cite the live reservation");
                    }
                    other => panic!("expected quota refusal, got {other:?}"),
                }
                let id = mux.tick_async(p, &rank).await.expect("tick")[0];
                mux.run_recv_epoch_async(p, id).await.expect("epoch on 21");
                assert!(
                    mux.channel(id).expect("live").chan.recv().expect("recv").shmem_active(),
                    "first channel must be on the shmem fast path"
                );
                mux.release_async(p, id).await.expect("release 21");
                assert_eq!(mux.shmem_reserved(0), 0, "release must return the heap bytes");
                mux.submit(spec(22, Direction::Recv, 0), alloc()).expect("freed quota re-admits");
                let id = mux.tick_async(p, &rank).await.expect("tick")[0];
                mux.run_recv_epoch_async(p, id).await.expect("epoch on 22");
                assert!(
                    mux.channel(id).expect("live").chan.recv().expect("recv").shmem_active(),
                    "re-admitted channel must still negotiate shmem"
                );
            }
        });
    });
    sim.run().expect("quota re-admission sim");
}

// ---------------------------------------------------------------------------
// Per-tenant metrics: present when enabled, absent cost when not —
// enabling the registry must not move the trace digest.

#[test]
fn tenant_metrics_land_in_snapshot_and_chrome_counters() {
    let mut sim = Simulation::with_seed(0xFEED);
    let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
    let registry = world.enable_metrics();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let cfg = MoeConfig::functional_test(CopyMechanism::ProgressionEngine);
        run_moe(ctx, rank, &cfg).expect("run_moe");
    });
    let report = sim.run().expect("moe sim");
    let snap = registry.snapshot();
    for t in 0..2 {
        let goodput = snap.counter(&format!("mux.tenant{t}.goodput_bytes"));
        let epochs = snap.counter(&format!("mux.tenant{t}.epochs"));
        assert!(goodput.unwrap_or(0) > 0, "tenant {t} goodput missing: {snap:?}");
        assert!(epochs.unwrap_or(0) > 0, "tenant {t} epochs missing");
    }
    let json = snap.to_json();
    assert!(json.contains("mux.tenant0.epoch_latency_us"));
    let chrome = chrome_trace_json_with_counters(&[], &[(report.end_time, snap)]);
    assert!(
        chrome.contains("mux.tenant0.goodput_bytes"),
        "counter track missing from chrome export"
    );
}

// ---------------------------------------------------------------------------
// Completion-path cost regressions.

/// The mux channel table at bench scale: 4096 live channels, and N
/// operations still cost exactly N slot probes — the completion path
/// provably does not scan.
#[test]
fn channel_table_is_o1_at_4096_channels() {
    let mut table: ChannelTable<usize> = ChannelTable::new();
    let ids: Vec<_> = (0..4096).map(|i| table.insert(i)).collect();
    let base = table.probe_ops();
    for id in &ids {
        assert!(table.get(*id).is_some());
    }
    assert_eq!(table.probe_ops() - base, 4096);
    // Retire half, in an arbitrary order; removals are O(1) probes too.
    let before = table.probe_ops();
    for id in ids.iter().step_by(2) {
        table.remove(*id);
    }
    assert_eq!(table.probe_ops() - before, 2048);
}

/// The collective engine's per-event channel lookups grow linearly with
/// the event count: doubling the partition count may at most double the
/// lookup total (plus slack). A completion path that re-scanned the
/// channel table per event would blow through this bound.
#[test]
fn engine_completion_lookups_scale_linearly_with_events() {
    let ops_at = |partitions: usize| -> u64 {
        let mut sim = Simulation::with_seed(0x10CA);
        let world = MpiWorld::new(&sim, WorldConfig::gh200(1));
        let out = Arc::new(Mutex::new(0u64));
        let o2 = out.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let n = partitions * rank.size() * 64;
            let buf = rank.gpu().alloc_global(n * 8);
            buf.write_f64_slice(0, &vec![1.0; n]);
            let stream = rank.gpu().create_stream();
            let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 90).expect("init");
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            let c2 = coll.clone();
            stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| c2.pready_device_all(d));
            coll.wait(ctx).expect("wait");
            if rank.rank() == 0 {
                *o2.lock() = coll.completion_lookup_ops();
            }
        });
        sim.run().expect("allreduce sim");
        let ops = *out.lock();
        assert!(ops > 0, "counter must observe the completion path");
        ops
    };
    let small = ops_at(8);
    let large = ops_at(16);
    assert!(
        large as f64 <= small as f64 * 2.2,
        "lookups grew superlinearly: {small} @ 8 partitions vs {large} @ 16"
    );
}

/// The weighted-fair arbiter honors an 8:1 weight split over a full grant
/// cycle — the invariant the bench's fairness verdict greps for.
#[test]
fn weighted_fair_grants_honor_eight_to_one() {
    let weights = [8u64, 1, 1, 1, 1, 1, 1, 1];
    let mut wf = WeightedFair::new(&weights);
    let all = vec![true; weights.len()];
    let mut got = [0u64; 8];
    for _ in 0..150 {
        got[wf.pick(&all).expect("eligible")] += 1;
    }
    let ratio = got[0] as f64 / got[1] as f64;
    assert!((ratio - 8.0).abs() / 8.0 < 0.2, "8:1 weights gave ratio {ratio:.2}");
}
