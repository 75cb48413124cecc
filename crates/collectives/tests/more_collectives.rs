//! Correctness tests for the additional schedule-engine collectives:
//! allgather, reduce-scatter, gather, scatter — on one and two nodes,
//! with epoch reuse.

use parcomm_coll::{pallgather_init, pgather_init, preduce_scatter_init, pscatter_init, Schedule};
use parcomm_mpi::MpiWorld;
use parcomm_sim::{SimConfig, Simulation};

/// Rank r's marker value for chunk-content checks.
fn mark(r: usize, extra: usize) -> f64 {
    (r * 100 + extra + 1) as f64
}

#[test]
fn pallgather_distributes_every_chunk() {
    for nodes in [1u16, 2] {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, nodes);
        let p = world.size();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let partitions = 2usize;
            let elems_per_chunk = 32usize;
            let n = partitions * p * elems_per_chunk;
            let buf = rank.gpu().alloc_global(n * 8);
            // Fill only this rank's chunk of each partition region.
            for u in 0..partitions {
                let region = u * p * elems_per_chunk;
                let own = region + rank.rank() * elems_per_chunk;
                buf.write_f64_slice(own * 8, &vec![mark(rank.rank(), u); elems_per_chunk]);
            }
            let stream = rank.gpu().create_stream();
            let coll = pallgather_init(ctx, rank, &buf, partitions, &stream, 40).expect("init");
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            for u in 0..partitions {
                coll.pready(ctx, u).expect("pready");
            }
            coll.wait(ctx).expect("wait");
            for u in 0..partitions {
                for src in 0..p {
                    let region = u * p * elems_per_chunk;
                    let off = (region + src * elems_per_chunk) * 8;
                    assert_eq!(
                        buf.read_f64(off),
                        mark(src, u),
                        "nodes={nodes} rank={} partition={u} chunk from {src}",
                        rank.rank()
                    );
                }
            }
        });
        sim.run().unwrap();
    }
}

#[test]
fn preduce_scatter_owns_reduced_chunk() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let p = world.size();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let partitions = 2usize;
        let elems_per_chunk = 16usize;
        let n = partitions * p * elems_per_chunk;
        let buf = rank.gpu().alloc_global(n * 8);
        buf.write_f64_slice(0, &vec![(rank.rank() + 1) as f64; n]);
        let stream = rank.gpu().create_stream();
        let coll = preduce_scatter_init(ctx, rank, &buf, partitions, &stream, 41).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        for u in 0..partitions {
            coll.pready(ctx, u).expect("pready");
        }
        coll.wait(ctx).expect("wait");
        // The owned chunk, (r + 1) mod P, of every partition region is
        // fully reduced.
        let owned = (rank.rank() + 1) % p;
        let expect = (p * (p + 1)) as f64 / 2.0;
        for u in 0..partitions {
            let region = u * p * elems_per_chunk;
            let off = (region + owned * elems_per_chunk) * 8;
            let got = buf.read_f64_slice(off, elems_per_chunk);
            assert!(
                got.iter().all(|v| (*v - expect).abs() < 1e-9),
                "rank {} partition {u}: {:?} != {expect}",
                rank.rank(),
                &got[..2]
            );
        }
    });
    sim.run().unwrap();
}

#[test]
fn pgather_collects_all_chunks_at_root() {
    for root in [0usize, 2] {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, 1);
        let p = world.size();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let partitions = 2usize;
            let elems_per_chunk = 8usize;
            let n = partitions * p * elems_per_chunk;
            let buf = rank.gpu().alloc_global(n * 8);
            for u in 0..partitions {
                let region = u * p * elems_per_chunk;
                let own = region + rank.rank() * elems_per_chunk;
                buf.write_f64_slice(own * 8, &vec![mark(rank.rank(), u); elems_per_chunk]);
            }
            let stream = rank.gpu().create_stream();
            let coll = pgather_init(ctx, rank, &buf, partitions, &stream, root, 42).expect("init");
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            for u in 0..partitions {
                coll.pready(ctx, u).expect("pready");
            }
            coll.wait(ctx).expect("wait");
            if rank.rank() == root {
                for u in 0..partitions {
                    for src in 0..p {
                        let region = u * p * elems_per_chunk;
                        let off = (region + src * elems_per_chunk) * 8;
                        assert_eq!(
                            buf.read_f64(off),
                            mark(src, u),
                            "root={root} partition={u} chunk from {src}"
                        );
                    }
                }
            }
        });
        sim.run().unwrap();
    }
}

#[test]
fn pscatter_delivers_each_ranks_chunk() {
    for root in [0usize, 3] {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, 1);
        let p = world.size();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let partitions = 2usize;
            let elems_per_chunk = 8usize;
            let n = partitions * p * elems_per_chunk;
            let buf = rank.gpu().alloc_global(n * 8);
            if rank.rank() == root {
                // Root fills chunk `dst` with that destination's marker.
                for u in 0..partitions {
                    for dst in 0..p {
                        let region = u * p * elems_per_chunk;
                        let off = (region + dst * elems_per_chunk) * 8;
                        buf.write_f64_slice(off, &vec![mark(dst, u); elems_per_chunk]);
                    }
                }
            }
            let stream = rank.gpu().create_stream();
            let coll = pscatter_init(ctx, rank, &buf, partitions, &stream, root, 43).expect("init");
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            for u in 0..partitions {
                coll.pready(ctx, u).expect("pready");
            }
            coll.wait(ctx).expect("wait");
            for u in 0..partitions {
                let region = u * p * elems_per_chunk;
                let off = (region + rank.rank() * elems_per_chunk) * 8;
                assert_eq!(
                    buf.read_f64(off),
                    mark(rank.rank(), u),
                    "root={root} rank={} partition={u}",
                    rank.rank()
                );
            }
        });
        sim.run().unwrap();
    }
}

#[test]
fn allgather_reuse_across_epochs() {
    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    let p = world.size();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let elems = 8usize;
        let n = p * elems;
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        let coll = pallgather_init(ctx, rank, &buf, 1, &stream, 44).expect("init");
        for epoch in 1..=2u64 {
            let own = rank.rank() * elems;
            buf.write_f64_slice(own * 8, &vec![epoch as f64 * mark(rank.rank(), 0); elems]);
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            coll.pready(ctx, 0).expect("pready");
            coll.wait(ctx).expect("wait");
            for src in 0..p {
                assert_eq!(
                    buf.read_f64(src * elems * 8),
                    epoch as f64 * mark(src, 0),
                    "epoch {epoch} chunk {src}"
                );
            }
        }
    });
    sim.run().unwrap();
}

#[test]
fn schedule_builders_are_consistent() {
    // Allgather offsets chain between neighbors like the allreduce's
    // second phase.
    let p = 8;
    for r in 0..p {
        let s = Schedule::ring_allgather(r, p);
        let next = Schedule::ring_allgather((r + 1) % p, p);
        assert_eq!(s.len(), p - 1);
        for i in 0..p - 1 {
            assert_eq!(s.steps[i].ready_offset, next.steps[i].arrived_offset);
        }
    }
    // Chain gather: total sends across ranks = P-1 chunks reaching the
    // root... every rank at distance d sends P-d chunks.
    for root in [0usize, 5] {
        let mut total_sends = 0;
        for r in 0..p {
            let s = Schedule::chain_gather(r, p, root);
            total_sends += s.steps.iter().filter(|st| !st.outgoing.is_empty()).count();
        }
        // Sum over d=1..P-1 of (P-d) = P(P-1)/2.
        assert_eq!(total_sends, p * (p - 1) / 2, "root={root}");
    }
    // Chain scatter mirrors gather's send count.
    for root in [0usize, 5] {
        let mut total_sends = 0;
        for r in 0..p {
            let s = Schedule::chain_scatter(r, p, root);
            total_sends += s.steps.iter().filter(|st| !st.outgoing.is_empty()).count();
        }
        assert_eq!(total_sends, p * (p - 1) / 2, "root={root}");
    }
}

#[test]
fn single_rank_collectives_complete_trivially() {
    // A one-GPU world: every schedule is empty and the collective is a
    // local no-op, but the control flow must still work end to end.
    use parcomm_coll::pallreduce_init;
    use parcomm_mpi::WorldConfig;
    use parcomm_net::ClusterSpec;

    let mut sim = Simulation::new(SimConfig::default());
    let mut config = WorldConfig::gh200(1);
    config.cluster = ClusterSpec { gpus_per_node: 1, nics_per_node: 1, ..ClusterSpec::gh200(1) };
    let world = MpiWorld::new(&sim, config);
    assert_eq!(world.size(), 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let n = 64usize;
        let buf = rank.gpu().alloc_global(n * 8);
        buf.write_f64_slice(0, &vec![3.5; n]);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &buf, 2, &stream, 45).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        coll.pready(ctx, 0).expect("pready");
        coll.pready(ctx, 1).expect("pready");
        coll.wait(ctx).expect("wait");
        // Sum over one rank = identity.
        assert_eq!(buf.read_f64_slice(0, n), vec![3.5; n]);
        assert!(coll.parrived(0) && coll.parrived(1));
    });
    sim.run().unwrap();
}

/// Run one collective over every rank of a `nodes`-node world, every rank
/// starting from the same rank-distinct input, and return each rank's
/// final buffer as f64 bit patterns. `device` readies the partitions from
/// two kernels, each calling `pready_device` on half of them; otherwise
/// the host calls `pready` on each partition in order.
fn run_collective(coll: &'static str, root: usize, nodes: u16, device: bool) -> Vec<Vec<u64>> {
    use std::sync::Arc;

    use parcomm_coll::{
        pallreduce_init, pallreduce_init_hierarchical, palltoall_init, pbcast_init,
    };
    use parcomm_gpu::KernelSpec;
    use parcomm_sim::Mutex;

    let mut sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, nodes);
    let p = world.size();
    let out = Arc::new(Mutex::new(vec![Vec::new(); p]));
    let o2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let partitions = 4usize;
        let n = partitions * p * 16;
        let buf = rank.gpu().alloc_global(n * 8);
        let input: Vec<f64> = (0..n).map(|i| (rank.rank() * 10_000 + i) as f64).collect();
        buf.write_f64_slice(0, &input);
        let stream = rank.gpu().create_stream();
        let (b, s) = (&buf, &stream);
        let req = match coll {
            "allreduce" => pallreduce_init(ctx, rank, b, partitions, s, 46),
            "allreduce_hierarchical" => pallreduce_init_hierarchical(ctx, rank, b, partitions, s, 46),
            "bcast" => pbcast_init(ctx, rank, b, partitions, s, root, 46),
            "allgather" => pallgather_init(ctx, rank, b, partitions, s, 46),
            "reduce_scatter" => preduce_scatter_init(ctx, rank, b, partitions, s, 46),
            "gather" => pgather_init(ctx, rank, b, partitions, s, root, 46),
            "alltoall" => palltoall_init(ctx, rank, b, partitions, s, 46),
            "scatter" => pscatter_init(ctx, rank, b, partitions, s, root, 46),
            other => panic!("unknown collective {other}"),
        }
        .expect("init");
        req.start(ctx).expect("start");
        req.pbuf_prepare(ctx).expect("pbuf_prepare");
        if device {
            for half in [0..partitions / 2, partitions / 2..partitions] {
                let r = req.clone();
                stream.launch(ctx, KernelSpec::vector_add(1, 1024), move |d| {
                    r.pready_device(d, half);
                });
            }
        } else {
            for u in 0..partitions {
                req.pready(ctx, u).expect("pready");
            }
        }
        req.wait(ctx).expect("wait");
        assert!((0..partitions).all(|u| req.parrived(u)));
        let bits = buf.read_f64_slice(0, n).iter().map(|v| v.to_bits()).collect();
        o2.lock()[rank.rank()] = bits;
    });
    sim.run().unwrap();
    let v = out.lock().clone();
    v
}

#[test]
fn collective_device_pready_partial_ranges() {
    // Device bindings may mark partition subsets from separate kernels, on
    // every collective: the result must be bit-identical to host readiness.
    let cases: [(&str, usize); 11] = [
        ("allreduce", 0),
        ("allreduce_hierarchical", 0),
        ("bcast", 0),
        ("bcast", 5),
        ("allgather", 0),
        ("reduce_scatter", 0),
        ("gather", 0),
        ("gather", 6),
        ("alltoall", 0),
        ("scatter", 0),
        ("scatter", 3),
    ];
    for (coll, root) in cases {
        let host = run_collective(coll, root, 2, false);
        let device = run_collective(coll, root, 2, true);
        assert_eq!(device, host, "{coll} root={root}: device pready differs from host pready");
        // The collective moved data: some rank no longer holds its input.
        let moved = host.iter().enumerate().any(|(r, bits)| {
            bits.iter().enumerate().any(|(i, b)| *b != ((r * 10_000 + i) as f64).to_bits())
        });
        assert!(moved, "{coll} root={root}: no rank's buffer changed");
    }
}

#[test]
fn palltoall_exchanges_every_pair() {
    use parcomm_coll::palltoall_init;
    for nodes in [1u16, 2] {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, nodes);
        let p = world.size();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let partitions = 2usize;
            let elems_per_chunk = 8usize;
            let n = partitions * p * elems_per_chunk;
            let buf = rank.gpu().alloc_global(n * 8);
            // Chunk d of partition u carries marker (sender, dest, u).
            for u in 0..partitions {
                for dst in 0..p {
                    let region = u * p * elems_per_chunk;
                    let off = (region + dst * elems_per_chunk) * 8;
                    let val = (rank.rank() * 1000 + dst * 10 + u) as f64;
                    buf.write_f64_slice(off, &vec![val; elems_per_chunk]);
                }
            }
            let stream = rank.gpu().create_stream();
            let coll = palltoall_init(ctx, rank, &buf, partitions, &stream, 47).expect("init");
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            for u in 0..partitions {
                coll.pready(ctx, u).expect("pready");
            }
            coll.wait(ctx).expect("wait");
            // Chunk s now holds what rank s sent to us.
            for u in 0..partitions {
                for src in 0..p {
                    let region = u * p * elems_per_chunk;
                    let off = (region + src * elems_per_chunk) * 8;
                    let expect = (src * 1000 + rank.rank() * 10 + u) as f64;
                    assert_eq!(
                        buf.read_f64(off),
                        expect,
                        "nodes={nodes} rank={} partition={u} chunk from {src}",
                        rank.rank()
                    );
                }
            }
        });
        sim.run().unwrap();
    }
}

#[test]
fn pairwise_alltoall_schedule_is_symmetric() {
    let p = 8;
    for r in 0..p {
        let s = Schedule::pairwise_alltoall(r, p);
        assert_eq!(s.len(), p - 1);
        for (idx, step) in s.steps.iter().enumerate() {
            let i = idx + 1;
            let to = step.outgoing[0];
            // The peer's step i must receive from us, and file the arriving
            // chunk under the *sender's* index (alltoall semantics: R ≠ A).
            let peer = Schedule::pairwise_alltoall(to, p);
            assert_eq!(peer.steps[idx].incoming[0], r, "step {i}");
            assert_eq!(peer.steps[idx].arrived_offset, r, "step {i}");
            assert_eq!(step.ready_offset, to, "step {i}");
        }
    }
}
