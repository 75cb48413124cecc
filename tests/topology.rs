//! Topology-layer integration tests: frozen whole-stack digests across
//! the refactor, multi-node determinism, typed cluster validation, and
//! the intra-node-only Kernel Copy rule with its Progression-Engine
//! fallback.

use std::sync::Arc;

use parcomm::coll::pallreduce_init_hierarchical;
use parcomm::mpi::MpiError;
use parcomm::net::{RouteClass, Topology, TopologyError};
use parcomm::prelude::*;
use parcomm::sim::Mutex;
use parcomm::ucx::UcxError;
use parcomm_testkit::digest;

/// The canonical partitioned-allreduce run (4 user partitions, 64-element
/// chunks, device-side `MPIX_Pready`), digested over the event report,
/// the level-1 trace, and the reduced rank-0 buffer. The flat digests
/// below predate the Topology refactor: they freeze the whole stack's
/// event stream, so any behavior change — routing, rail assignment, world
/// construction — shows up here.
fn allreduce_digest(nodes: u16, seed: u64, hierarchical: bool) -> u64 {
    allreduce_digest_spec(ClusterSpec::gh200(nodes), seed, hierarchical)
}

/// As [`allreduce_digest`], over an arbitrary (possibly ragged or
/// oversubscribed) cluster spec.
fn allreduce_digest_spec(cluster: ClusterSpec, seed: u64, hierarchical: bool) -> u64 {
    let mut sim = Simulation::with_seed(seed);
    let trace = sim.trace();
    trace.enable();
    let mut config = WorldConfig::gh200(cluster.nodes);
    config.cluster = cluster;
    let world = MpiWorld::new(&sim, config);
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let partitions = 4usize;
        let p = rank.size();
        let n = partitions * p * 64;
        let buf = rank.gpu().alloc_global(n * 8);
        let vals: Vec<f64> = (0..n).map(|i| (rank.rank() * 31 + i) as f64).collect();
        buf.write_f64_slice(0, &vals);
        let stream = rank.gpu().create_stream();
        let coll = if hierarchical {
            pallreduce_init_hierarchical(ctx, rank, &buf, partitions, &stream, 90)
        } else {
            pallreduce_init(ctx, rank, &buf, partitions, &stream, 90)
        }
        .expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        let c2 = coll.clone();
        stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| c2.pready_device_all(d));
        coll.wait(ctx).expect("wait");
        if rank.rank() == 0 {
            let got = buf.read_f64_slice(0, n);
            for (i, v) in got.iter().enumerate() {
                let expect = (31 * p * (p - 1) / 2 + p * i) as f64;
                assert_eq!(*v, expect, "allreduce sum mismatch at element {i}");
            }
            *o2.lock() = got;
        }
    });
    let report = sim.run().expect("allreduce sim");
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    d.write_f64_slice(&out.lock());
    d.finish()
}

#[test]
fn one_node_allreduce_digest_is_frozen() {
    assert_eq!(
        allreduce_digest(1, 0x70F0, false),
        0xef428efa80144ab6,
        "1-node flat allreduce digest drifted from the pre-Topology baseline"
    );
    // On one node the hierarchical schedule degenerates to the flat ring
    // step-for-step, so it reproduces the *frozen flat baseline* exactly.
    assert_eq!(
        allreduce_digest(1, 0x70F0, true),
        0xef428efa80144ab6,
        "1-node hierarchical allreduce must be run-identical to the flat ring"
    );
}

#[test]
fn two_node_digests_are_frozen() {
    assert_eq!(
        allreduce_digest(2, 0x70F0, false),
        0xfae17788c449ef51,
        "2-node flat allreduce digest drifted from the pre-Topology baseline"
    );
    assert_eq!(
        allreduce_digest(2, 0x70F0, true),
        0xa95f8b187f6fb0d8,
        "2-node hierarchical allreduce digest drifted"
    );
}

/// The canonical ragged anchor: 4 nodes of 4/2/4/1 GPUs with 2/1/2/1
/// NICs and 2:1 rank oversubscription — 22 ranks, core ring width 2,
/// surplus ranks folding on-node. Frozen like the uniform anchors: any
/// drift in ragged routing, rail-ring skipping, or the fold/unfold
/// schedule shows up here.
#[test]
fn ragged_allreduce_digests_are_frozen() {
    let spec = || ClusterSpec::gh200_ragged(&[4, 2, 4, 1], &[2, 1, 2, 1], 2);
    assert_eq!(
        allreduce_digest_spec(spec(), 0x70F0, true),
        RAGGED_HIER_DIGEST,
        "ragged hierarchical allreduce digest drifted"
    );
    assert_eq!(
        allreduce_digest_spec(spec(), 0x70F0, false),
        RAGGED_FLAT_DIGEST,
        "ragged flat allreduce digest drifted"
    );
}

const RAGGED_HIER_DIGEST: u64 = 0x1b2b5a3bf9b7c235;
const RAGGED_FLAT_DIGEST: u64 = 0x3e874c061cd82c80;
const SAME_GPU_P2P_DIGEST: u64 = 0x5d68ad23b96b7b24;

/// Oversubscribed co-resident ranks exercise the `SameGpu` route regime:
/// on one node of two GPUs at 2:1, ranks 0 and 2 share GPU 0, so their
/// partitioned p2p stays in device HBM (host-mem pseudo-link latency
/// floor, no NVLink, no NIC). Digest-frozen end to end.
#[test]
fn same_gpu_p2p_digest_is_frozen() {
    let mut sim = Simulation::with_seed(0x70F0);
    let trace = sim.trace();
    trace.enable();
    let mut config = WorldConfig::gh200(1);
    config.cluster = ClusterSpec::gh200_ragged(&[2], &[2], 2);
    let world = MpiWorld::new(&sim, config);
    let topo = world.topology();
    assert_eq!(topo.num_ranks(), 4);
    assert_eq!(topo.gpu_of(0), topo.gpu_of(2), "ranks 0 and 2 must co-reside");
    assert_eq!(
        RouteClass::classify(topo.location_of(0), topo.location_of(2)),
        RouteClass::SameGpu
    );
    world.run_ranks(&mut sim, |ctx, rank| {
        let parts = 4usize;
        let buf = rank.gpu().alloc_global(parts * 512);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 512, &[u as f64 + 0.5; 64]);
                }
                let sreq = psend_init(ctx, rank, 2, 9, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            }
            2 => {
                let rreq = precv_init(ctx, rank, 0, 9, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(buf.read_f64(u * 512), u as f64 + 0.5);
                }
            }
            _ => {}
        }
    });
    let report = sim.run().expect("same-gpu p2p sim");
    assert_eq!(
        digest::run_digest(&report, &trace),
        SAME_GPU_P2P_DIGEST,
        "same-GPU p2p digest drifted"
    );
}

#[test]
fn ragged_allreduce_is_deterministic() {
    let spec = || ClusterSpec::gh200_ragged(&[4, 2, 4, 1], &[2, 1, 2, 1], 2);
    let a = allreduce_digest_spec(spec(), 0x5EED, true);
    let b = allreduce_digest_spec(spec(), 0x5EED, true);
    assert_eq!(a, b, "ragged hierarchical allreduce is not deterministic");
}

#[test]
fn ragged_degenerate_specs_yield_typed_errors() {
    let sim = Simulation::with_seed(1);
    type SpecMutation = Box<dyn Fn(&mut ClusterSpec)>;
    let cases: [(SpecMutation, TopologyError); 4] = [
        (
            Box::new(|c| c.node_gpus = vec![4, 0]),
            TopologyError::EmptyNode { node: 1 },
        ),
        (
            Box::new(|c| c.node_nics = vec![4, 4, 4]),
            TopologyError::RaggedRailMismatch { gpu_nodes: 2, nic_nodes: 3 },
        ),
        (
            Box::new(|c| c.node_nics = vec![4, 9]),
            TopologyError::NicsExceedGpus { node: 1, nics: 9, gpus: 4 },
        ),
        (
            Box::new(|c| c.ranks_per_gpu = 255),
            TopologyError::OversubscriptionOverflow { node: 0, ranks: 1020, max: 256 },
        ),
    ];
    for (mutate, want) in cases {
        let mut config = WorldConfig::gh200(2);
        config.cluster.node_gpus = vec![4, 4];
        config.cluster.node_nics = vec![4, 4];
        mutate(&mut config.cluster);
        match MpiWorld::try_new(&sim, config) {
            Err(MpiError::InvalidTopology(e)) => assert_eq!(e, want),
            other => panic!("expected InvalidTopology({want:?}), got {other:?}"),
        }
    }
}

#[test]
fn cross_node_p2p_digest_is_frozen() {
    let mut sim = Simulation::with_seed(0x70F0);
    let trace = sim.trace();
    trace.enable();
    let world = MpiWorld::gh200(&sim, 2);
    world.run_ranks(&mut sim, |ctx, rank| {
        let parts = 8usize;
        let bytes = parts * 1024;
        let buf = rank.gpu().alloc_global(bytes);
        match rank.rank() {
            3 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 1024, &[u as f64 + 1.0; 128]);
                }
                let sreq = psend_init(ctx, rank, 4, 7, &buf, parts).expect("init");
                sreq.set_transport_partitions(2).expect("set_transport_partitions");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                for u in (0..parts).rev() {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            }
            4 => {
                let rreq = precv_init(ctx, rank, 3, 7, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(buf.read_f64(u * 1024), u as f64 + 1.0);
                }
            }
            _ => {}
        }
    });
    let report = sim.run().expect("p2p sim");
    assert_eq!(
        digest::run_digest(&report, &trace),
        0x2290320e5c2e5b46,
        "cross-node p2p digest drifted from the pre-Topology baseline"
    );
}

#[test]
fn sixteen_node_allreduce_is_deterministic() {
    // 16 nodes × 4 GPUs = 64 ranks: far past the paper's 2×4 testbed.
    // The harness verifies the reduced sums; same seed ⇒ same digest.
    let a = allreduce_digest(16, 0x5EED, true);
    let b = allreduce_digest(16, 0x5EED, true);
    assert_eq!(a, b, "16-node hierarchical allreduce is not deterministic");
    let c = allreduce_digest(16, 0x5EED, false);
    let d = allreduce_digest(16, 0x5EED, false);
    assert_eq!(c, d, "16-node flat allreduce is not deterministic");
    assert_ne!(a, c, "flat and hierarchical schedules must differ across nodes");
}

#[test]
fn degenerate_cluster_specs_yield_typed_errors() {
    let sim = Simulation::with_seed(1);
    type SpecMutation = Box<dyn Fn(&mut ClusterSpec)>;
    let cases: [(SpecMutation, TopologyError); 4] = [
        (Box::new(|c| c.nodes = 0), TopologyError::ZeroNodes),
        (Box::new(|c| c.gpus_per_node = 0), TopologyError::ZeroGpusPerNode),
        (Box::new(|c| c.nics_per_node = 0), TopologyError::ZeroNics),
        (
            Box::new(|c| c.nics_per_node = 9),
            TopologyError::NicsExceedGpus { node: 0, nics: 9, gpus: 4 },
        ),
    ];
    for (mutate, want) in cases {
        let mut config = WorldConfig::gh200(2);
        mutate(&mut config.cluster);
        match MpiWorld::try_new(&sim, config) {
            Err(MpiError::InvalidTopology(e)) => assert_eq!(e, want),
            other => panic!("expected InvalidTopology({want:?}), got {other:?}"),
        }
    }
    // A 16×4 spec with striped NICs is valid and exposes its topology.
    let world = MpiWorld::try_new(&sim, WorldConfig::gh200(16)).expect("valid spec");
    let topo = world.topology();
    assert_eq!(topo.num_ranks(), 64);
    assert_eq!(topo.node_of(63), 15);
}

/// Kernel Copy is intra-node only (the paper's `ucp_rkey_ptr` IPC mapping
/// rides NVLink): for *every* ordered rank pair of a 2-node world,
/// `MPIX_Prequest_create` with `CopyMechanism::KernelCopy` succeeds
/// exactly when the peers share a node, the failure is the typed
/// `RkeyPtrUnavailable` transport error, and the Progression-Engine
/// fallback then completes the transfer with the right payload.
#[test]
fn cross_node_kernel_copy_always_falls_back_to_progression_engine() {
    let topo = Topology::new(2, 4, 4).expect("2x4 topology");
    for src in 0..topo.num_ranks() {
        for dst in 0..topo.num_ranks() {
            if src == dst {
                continue;
            }
            let intra = topo.same_node(src, dst);
            assert_eq!(
                RouteClass::classify(topo.location_of(src), topo.location_of(dst))
                    .ipc_eligible(),
                intra
            );
            let mut sim = Simulation::with_seed(0xC0DE ^ (src * 64 + dst) as u64);
            let world = MpiWorld::gh200(&sim, 2);
            let parts = 2usize;
            world.run_ranks(&mut sim, move |ctx, rank| {
                let buf = rank.gpu().alloc_global(parts * 256);
                if rank.rank() == src {
                    for u in 0..parts {
                        buf.write_f64_slice(u * 256, &[(u + 1) as f64; 32]);
                    }
                    let sreq = psend_init(ctx, rank, dst, 5, &buf, parts).expect("init");
                    sreq.start(ctx).expect("start");
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    let want = PrequestConfig {
                        copy: CopyMechanism::KernelCopy,
                        ..PrequestConfig::default()
                    };
                    let preq = match prequest_create(ctx, rank, &sreq, want) {
                        Ok(p) => {
                            assert!(intra, "kernel copy must fail across nodes ({src}->{dst})");
                            p
                        }
                        Err(e) => {
                            assert!(!intra, "kernel copy must work intra-node ({src}->{dst})");
                            assert!(
                                matches!(
                                    e,
                                    MpiError::Transport(UcxError::RkeyPtrUnavailable(_))
                                ),
                                "want typed RkeyPtrUnavailable, got {e:?}"
                            );
                            prequest_create(ctx, rank, &sreq, PrequestConfig {
                                copy: CopyMechanism::ProgressionEngine,
                                ..want
                            })
                            .expect("PE prequest always available")
                        }
                    };
                    let stream = rank.gpu().create_stream();
                    stream
                        .launch(ctx, KernelSpec::vector_add(1, 64), move |d| preq.pready_all(d));
                    sreq.wait(ctx).expect("wait");
                } else if rank.rank() == dst {
                    let rreq = precv_init(ctx, rank, src, 5, &buf, parts).expect("init");
                    rreq.start(ctx).expect("start");
                    rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    rreq.wait(ctx).expect("wait");
                    for u in 0..parts {
                        assert_eq!(
                            buf.read_f64(u * 256),
                            (u + 1) as f64,
                            "payload mismatch {src}->{dst} partition {u}"
                        );
                    }
                }
            });
            sim.run().unwrap_or_else(|e| panic!("pair {src}->{dst}: {e:?}"));
        }
    }
}
